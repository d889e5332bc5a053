//===- embedding/Code2Vec.cpp - Attention code embedding ------------------===//

#include "embedding/Code2Vec.h"

#include "nn/Attention.h"
#include "support/ThreadPool.h"

#include <cassert>

using namespace nv;

Code2Vec::Code2Vec(const Code2VecConfig &Config, RNG &Rng)
    : Config(Config),
      TokenEmb(Config.Paths.TokenVocabSize, Config.TokenDim),
      PathEmb(Config.Paths.PathVocabSize, Config.PathDim),
      W(2 * Config.TokenDim + Config.PathDim, Config.CodeDim),
      B(1, Config.CodeDim), Attn(1, Config.CodeDim) {
  TokenEmb.Value.initGaussian(Rng, 0.5);
  PathEmb.Value.initGaussian(Rng, 0.5);
  W.Value.initXavier(Rng);
  Attn.Value.initGaussian(Rng, 0.3);
}

std::vector<Param *> Code2Vec::params() {
  return {&TokenEmb, &PathEmb, &W, &B, &Attn};
}

void Code2Vec::encodeSample(SampleCache &SC, ContextSpan Contexts,
                            double *VRow, ThreadPool *Pool) {
  const int InDim = 2 * Config.TokenDim + Config.PathDim;
  SC.Contexts = Contexts;
  if (Contexts.empty()) {
    // Empty snippet: code vector is zero.
    for (int D = 0; D < Config.CodeDim; ++D)
      VRow[D] = 0.0;
    SC.X.resize(0, InDim);
    SC.C.resize(0, Config.CodeDim);
    SC.Alpha.clear();
    return;
  }
  const int N = static_cast<int>(Contexts.Size);

  // Gather embeddings.
  SC.X.resize(N, InDim);
  for (int I = 0; I < N; ++I) {
    const PathContext &Ctx = Contexts.Data[I];
    double *Row = SC.X.rowPtr(I);
    const double *Src = TokenEmb.Value.rowPtr(Ctx.SrcToken);
    const double *Path = PathEmb.Value.rowPtr(Ctx.Path);
    const double *Dst = TokenEmb.Value.rowPtr(Ctx.DstToken);
    for (int D = 0; D < Config.TokenDim; ++D)
      Row[D] = Src[D];
    for (int D = 0; D < Config.PathDim; ++D)
      Row[Config.TokenDim + D] = Path[D];
    for (int D = 0; D < Config.TokenDim; ++D)
      Row[Config.TokenDim + Config.PathDim + D] = Dst[D];
  }

  // Combined context vectors: fused affine + tanh. The int8 shadow only
  // serves the forward-only span encode — the training encodes mark a
  // backward pass possible (BackwardReady) before encoding, and gradients
  // must see the fp32 weights.
  if (QuantW.ready() && !BackwardReady)
    gemmQuantInto(SC.C, SC.X, QuantW, &B.Value, Activation::Tanh,
                  SC.QScratch, Pool);
  else
    gemmInto(SC.C, SC.X, W.Value, &B.Value, Activation::Tanh, Pool);

  // Attention pooling into the code vector.
  SC.Alpha.resize(N);
  attentionPoolForward(SC.C, Attn.Value.rowPtr(0), SC.Alpha.data(), VRow);
}

void Code2Vec::encodeBatchInto(
    const std::vector<std::vector<PathContext>> &Batch, Matrix &V,
    ThreadPool *Pool) {
  // Retain a copy of each bag for backward()'s embedding-table scatter
  // (the copy reuses the cache vector's capacity once warm).
  Cache.resize(Batch.size());
  OwnedSpans.resize(Batch.size());
  for (size_t S = 0; S < Batch.size(); ++S) {
    Cache[S].Owned = Batch[S];
    OwnedSpans[S] = {Cache[S].Owned.data(), Cache[S].Owned.size()};
  }
  encodeSpans(OwnedSpans, V, Pool, /*ForBackward=*/true);
}

void Code2Vec::encodeSpansInto(const std::vector<ContextSpan> &Batch,
                               Matrix &V, ThreadPool *Pool) {
  encodeSpans(Batch, V, Pool, /*ForBackward=*/false);
}

void Code2Vec::encodeSpansForBackwardInto(
    const std::vector<ContextSpan> &Batch, Matrix &V, ThreadPool *Pool) {
  encodeSpans(Batch, V, Pool, /*ForBackward=*/true);
}

void Code2Vec::encodeSpans(const std::vector<ContextSpan> &Batch, Matrix &V,
                           ThreadPool *Pool, bool ForBackward) {
  V.resize(static_cast<int>(Batch.size()), Config.CodeDim);
  Cache.resize(Batch.size()); // Existing SampleCaches keep their buffers.
  BackwardReady = ForBackward;

  if (Pool && Batch.size() > 1) {
    // Samples are independent: fan them out and keep each sample's inner
    // GEMM serial. Per-sample results do not depend on the partition.
    Pool->parallelFor(0, Batch.size(), [&](size_t S) {
      encodeSample(Cache[S], Batch[S], V.rowPtr(static_cast<int>(S)),
                   nullptr);
    });
    return;
  }
  for (size_t S = 0; S < Batch.size(); ++S)
    encodeSample(Cache[S], Batch[S], V.rowPtr(static_cast<int>(S)), Pool);
}

Matrix Code2Vec::encodeBatch(
    const std::vector<std::vector<PathContext>> &Batch) {
  Matrix V;
  encodeBatchInto(Batch, V);
  return V;
}

Matrix Code2Vec::encode(const std::vector<PathContext> &Contexts) {
  return encodeBatch({Contexts});
}

void Code2Vec::backward(const Matrix &dV) {
  assert(BackwardReady &&
         "backward after encodeSpansInto (forward-only serving encode)");
  assert(dV.rows() == static_cast<int>(Cache.size()) &&
         "backward batch size mismatch with last encodeBatch");
  assert(dV.cols() == Config.CodeDim && "backward width mismatch");
  for (size_t S = 0; S < Cache.size(); ++S)
    backwardRow(Cache[S], dV.rowPtr(static_cast<int>(S)));
}

void Code2Vec::backward(const Matrix &dV,
                        const std::vector<int> &SampleOfRow) {
  assert(BackwardReady &&
         "backward after encodeSpansInto (forward-only serving encode)");
  assert(dV.rows() == static_cast<int>(SampleOfRow.size()) &&
         "backward needs one cache index per gradient row");
  assert(dV.cols() == Config.CodeDim && "backward width mismatch");
  for (size_t R = 0; R < SampleOfRow.size(); ++R) {
    assert(SampleOfRow[R] >= 0 &&
           static_cast<size_t>(SampleOfRow[R]) < Cache.size() &&
           "cache index out of range of the last encode");
    backwardRow(Cache[SampleOfRow[R]], dV.rowPtr(static_cast<int>(R)));
  }
}

void Code2Vec::backwardRow(const SampleCache &SC, const double *dVRow) {
  const int N = static_cast<int>(SC.Contexts.Size);
  if (N == 0)
    return;

  // Attention and tanh backward into the affine pre-activation.
  Matrix &dC = BackdC;
  attentionPoolBackward(SC.C, Attn.Value.rowPtr(0), SC.Alpha.data(), dVRow,
                        Attn.Grad.rowPtr(0), dC, BackdScore);

  // Affine backward: pre = X W + b.
  gemmTAInto(W.Grad, SC.X, dC, /*Accumulate=*/true);
  sumRowsInto(B.Grad, dC, /*Accumulate=*/true);
  Matrix &dX = BackdX;
  gemmTBInto(dX, dC, W.Value);

  // Scatter into the embedding tables.
  for (int I = 0; I < N; ++I) {
    const PathContext &Ctx = SC.Contexts.Data[I];
    const double *Row = dX.rowPtr(I);
    double *Src = TokenEmb.Grad.rowPtr(Ctx.SrcToken);
    double *Path = PathEmb.Grad.rowPtr(Ctx.Path);
    double *Dst = TokenEmb.Grad.rowPtr(Ctx.DstToken);
    for (int D = 0; D < Config.TokenDim; ++D)
      Src[D] += Row[D];
    for (int D = 0; D < Config.PathDim; ++D)
      Path[D] += Row[Config.TokenDim + D];
    for (int D = 0; D < Config.TokenDim; ++D)
      Dst[D] += Row[Config.TokenDim + Config.PathDim + D];
  }
}
