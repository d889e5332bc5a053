//===- nn/Attention.cpp - Attention pooling loops --------------------------===//

#include "nn/Attention.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace nv;

namespace {

/// Out[i] = C_i . X, each an ascending-k chain started at 0.0. Four rows
/// run as independent chains, so the adds overlap instead of waiting on
/// one another; every chain still adds its products in the same order.
void dotRows(const Matrix &C, const double *__restrict X,
             double *__restrict Out) {
  const int N = C.rows(), D = C.cols();
  int I = 0;
  for (; I + 4 <= N; I += 4) {
    const double *__restrict R0 = C.rowPtr(I);
    const double *__restrict R1 = C.rowPtr(I + 1);
    const double *__restrict R2 = C.rowPtr(I + 2);
    const double *__restrict R3 = C.rowPtr(I + 3);
    double S0 = 0.0, S1 = 0.0, S2 = 0.0, S3 = 0.0;
    for (int K = 0; K < D; ++K) {
      S0 += R0[K] * X[K];
      S1 += R1[K] * X[K];
      S2 += R2[K] * X[K];
      S3 += R3[K] * X[K];
    }
    Out[I] = S0;
    Out[I + 1] = S1;
    Out[I + 2] = S2;
    Out[I + 3] = S3;
  }
  for (; I < N; ++I) {
    const double *__restrict R = C.rowPtr(I);
    double S = 0.0;
    for (int K = 0; K < D; ++K)
      S += R[K] * X[K];
    Out[I] = S;
  }
}

} // namespace

void nv::attentionPoolForward(const Matrix &C, const double *Attn,
                              double *Alpha, double *V) {
  const int N = C.rows(), D = C.cols();
  assert(N > 0 && "attention over an empty bag");

  // Scores, softmaxed in place.
  dotRows(C, Attn, Alpha);
  double MaxScore = -1e300;
  for (int I = 0; I < N; ++I)
    MaxScore = std::max(MaxScore, Alpha[I]);
  double Norm = 0.0;
  for (int I = 0; I < N; ++I) {
    Alpha[I] = std::exp(Alpha[I] - MaxScore);
    Norm += Alpha[I];
  }
  for (int I = 0; I < N; ++I)
    Alpha[I] /= Norm;

  // v = sum_i alpha_i c_i, rows added in ascending order per column. Four
  // rows share one pass over v; each column still adds them one by one.
  double *__restrict Out = V;
  for (int K = 0; K < D; ++K)
    Out[K] = 0.0;
  int I = 0;
  for (; I + 4 <= N; I += 4) {
    const double *__restrict R0 = C.rowPtr(I);
    const double *__restrict R1 = C.rowPtr(I + 1);
    const double *__restrict R2 = C.rowPtr(I + 2);
    const double *__restrict R3 = C.rowPtr(I + 3);
    const double A0 = Alpha[I], A1 = Alpha[I + 1];
    const double A2 = Alpha[I + 2], A3 = Alpha[I + 3];
    for (int K = 0; K < D; ++K) {
      double S = Out[K];
      S += A0 * R0[K];
      S += A1 * R1[K];
      S += A2 * R2[K];
      S += A3 * R3[K];
      Out[K] = S;
    }
  }
  for (; I < N; ++I) {
    const double *__restrict R = C.rowPtr(I);
    const double A = Alpha[I];
    for (int K = 0; K < D; ++K)
      Out[K] += A * R[K];
  }
}

void nv::attentionPoolBackward(const Matrix &C, const double *Attn,
                               const double *Alpha, const double *dV,
                               double *dAttn, Matrix &dPre,
                               std::vector<double> &Scratch) {
  const int N = C.rows(), D = C.cols();
  Scratch.resize(static_cast<size_t>(N));
  dPre.resize(N, D);

  // v = sum alpha_i c_i:  dAlpha_i = c_i . dv.
  double *dScore = Scratch.data();
  dotRows(C, dV, dScore);
  // Softmax backward, in place:
  //   dScore_i = alpha_i (dAlpha_i - sum_j alpha_j dAlpha_j).
  double Weighted = 0.0;
  for (int I = 0; I < N; ++I)
    Weighted += Alpha[I] * dScore[I];
  for (int I = 0; I < N; ++I)
    dScore[I] = Alpha[I] * (dScore[I] - Weighted);

  // Score_i = c_i . a:  dA += dScore_i c_i. And per element of c_i,
  //   dC = alpha_i dv + dScore_i a, then through tanh: dPre = dC (1 - c^2).
  const double *__restrict A = Attn;
  const double *__restrict G = dV;
  double *__restrict dA = dAttn;
  for (int I = 0; I < N; ++I) {
    const double *__restrict R = C.rowPtr(I);
    double *__restrict P = dPre.rowPtr(I);
    const double Al = Alpha[I], S = dScore[I];
    for (int K = 0; K < D; ++K) {
      dA[K] += S * R[K];
      P[K] = (Al * G[K] + S * A[K]) * (1.0 - R[K] * R[K]);
    }
  }
}
