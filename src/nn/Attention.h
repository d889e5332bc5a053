//===- nn/Attention.h - Attention pooling loops -----------------*- C++ -*-===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The attention pooling of the code2vec encoder (embedding/Code2Vec.h),
/// forward and backward, over caller-owned buffers:
///
///   alpha = softmax(C a)        v = sum_i alpha_i c_i
///
/// Bit-identity: each output element is computed by the same sequence of
/// IEEE operations as the plain one-row-at-a-time loops (kept as the
/// reference in tests/NNTest.cpp). The speed comes from instruction-level
/// parallelism only: row dot products run as four independent chains, and
/// the element-wise loops are written over non-aliasing pointers so they
/// vectorize with lanes spanning columns. No loop is reassociated or
/// contracted into fused multiply-adds, which is why this file must stay
/// out of VecMath.cpp's fast-math unit (see docs/kernels.md).
///
//===----------------------------------------------------------------------===//

#ifndef NV_NN_ATTENTION_H
#define NV_NN_ATTENTION_H

#include "nn/Matrix.h"

#include <vector>

namespace nv {

/// Forward over the N x D rows of \p C against the attention vector
/// \p Attn (D): writes the softmax weights to \p Alpha (N) and the pooled
/// vector to \p V (D). N must be positive.
void attentionPoolForward(const Matrix &C, const double *Attn, double *Alpha,
                          double *V);

/// Backward of attentionPoolForward for rows C = tanh(pre), given the
/// forward's \p Alpha and the pooled-vector gradient \p dV (D):
/// accumulates the attention-vector gradient into \p dAttn (D) row by row
/// in ascending order, and writes the gradient with respect to the
/// pre-tanh rows to \p dPre (resized to N x D). \p Scratch (resized to N)
/// is caller-owned so a warm call does not allocate.
void attentionPoolBackward(const Matrix &C, const double *Attn,
                           const double *Alpha, const double *dV,
                           double *dAttn, Matrix &dPre,
                           std::vector<double> &Scratch);

} // namespace nv

#endif // NV_NN_ATTENTION_H
