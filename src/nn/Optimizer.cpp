//===- nn/Optimizer.cpp - SGD and Adam optimizers --------------------------===//

#include "nn/Optimizer.h"

#include <cmath>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

using namespace nv;

double nv::clipGradNorm(const std::vector<Param *> &Params, double MaxNorm) {
  double Total = 0.0;
  for (const Param *P : Params)
    Total += P->Grad.squaredNorm();
  const double Norm = std::sqrt(Total);
  if (Norm > MaxNorm && Norm > 0.0) {
    const double Scale = MaxNorm / Norm;
    for (Param *P : Params)
      P->Grad *= Scale;
  }
  return Norm;
}

void SGD::step(const std::vector<Param *> &Params) {
  for (Param *P : Params) {
    for (size_t I = 0; I < P->Value.size(); ++I)
      P->Value.raw()[I] -= LearningRate * P->Grad.raw()[I];
  }
}

Adam::Moments &Adam::momentsFor(const Param *P) {
  for (auto &[Key, M] : State)
    if (Key == P)
      return M;
  State.emplace_back(P, Moments{std::vector<double>(P->Value.size(), 0.0),
                                std::vector<double>(P->Value.size(), 0.0)});
  return State.back().second;
}

std::vector<double> Adam::exportMoments(const std::vector<Param *> &Params) {
  std::vector<double> Blob;
  for (const Param *P : Params) {
    const Moments &Mom = momentsFor(P);
    Blob.insert(Blob.end(), Mom.M.begin(), Mom.M.end());
    Blob.insert(Blob.end(), Mom.V.begin(), Mom.V.end());
  }
  return Blob;
}

bool Adam::importMoments(const std::vector<Param *> &Params,
                         const std::vector<double> &Blob, long long Steps) {
  size_t Total = 0;
  for (const Param *P : Params)
    Total += 2 * P->Value.size();
  if (Blob.size() != Total)
    return false;
  size_t Offset = 0;
  for (const Param *P : Params) {
    Moments &Mom = momentsFor(P);
    const size_t N = P->Value.size();
    Mom.M.assign(Blob.begin() + Offset, Blob.begin() + Offset + N);
    Mom.V.assign(Blob.begin() + Offset + N, Blob.begin() + Offset + 2 * N);
    Offset += 2 * N;
  }
  StepCount = Steps;
  return true;
}

void Adam::step(const std::vector<Param *> &Params) {
  ++StepCount;
  const double BiasCorrection1 =
      1.0 - std::pow(Beta1, static_cast<double>(StepCount));
  const double BiasCorrection2 =
      1.0 - std::pow(Beta2, static_cast<double>(StepCount));
  for (Param *P : Params) {
    Moments &Mom = momentsFor(P);
    const size_t N = P->Value.size();
    double *__restrict Value = P->Value.raw().data();
    const double *__restrict Grad = P->Grad.raw().data();
    double *__restrict M = Mom.M.data();
    double *__restrict V = Mom.V.data();
    size_t I = 0;
#if defined(__SSE2__)
    // Two lanes at a time with exactly the scalar loop's operations.
    // Spelled out in intrinsics because std::sqrt may set errno, which
    // keeps the compiler from vectorizing it; _mm_sqrt_pd rounds like
    // std::sqrt.
    const __m128d B1 = _mm_set1_pd(Beta1), B2 = _mm_set1_pd(Beta2);
    const __m128d OneMinusB1 = _mm_set1_pd(1.0 - Beta1);
    const __m128d OneMinusB2 = _mm_set1_pd(1.0 - Beta2);
    const __m128d BC1 = _mm_set1_pd(BiasCorrection1);
    const __m128d BC2 = _mm_set1_pd(BiasCorrection2);
    const __m128d LR = _mm_set1_pd(LearningRate);
    const __m128d Eps = _mm_set1_pd(Epsilon);
    for (; I + 2 <= N; I += 2) {
      const __m128d G = _mm_loadu_pd(Grad + I);
      const __m128d MNew = _mm_add_pd(_mm_mul_pd(B1, _mm_loadu_pd(M + I)),
                                      _mm_mul_pd(OneMinusB1, G));
      const __m128d VNew =
          _mm_add_pd(_mm_mul_pd(B2, _mm_loadu_pd(V + I)),
                     _mm_mul_pd(_mm_mul_pd(OneMinusB2, G), G));
      _mm_storeu_pd(M + I, MNew);
      _mm_storeu_pd(V + I, VNew);
      const __m128d MHat = _mm_div_pd(MNew, BC1);
      const __m128d VHat = _mm_div_pd(VNew, BC2);
      const __m128d Step = _mm_div_pd(_mm_mul_pd(LR, MHat),
                                      _mm_add_pd(_mm_sqrt_pd(VHat), Eps));
      _mm_storeu_pd(Value + I, _mm_sub_pd(_mm_loadu_pd(Value + I), Step));
    }
#endif
    for (; I < N; ++I) {
      const double G = Grad[I];
      M[I] = Beta1 * M[I] + (1.0 - Beta1) * G;
      V[I] = Beta2 * V[I] + (1.0 - Beta2) * G * G;
      const double MHat = M[I] / BiasCorrection1;
      const double VHat = V[I] / BiasCorrection2;
      Value[I] -= LearningRate * MHat / (std::sqrt(VHat) + Epsilon);
    }
  }
}
