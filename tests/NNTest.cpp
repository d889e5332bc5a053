//===- tests/NNTest.cpp - Matrix/layers/optimizer/distribution tests ------===//

#include "nn/Attention.h"
#include "nn/Distributions.h"
#include "nn/Kernels.h"
#include "nn/Layers.h"
#include "nn/Matrix.h"
#include "nn/Optimizer.h"
#include "nn/Workspace.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

using namespace nv;

namespace {

Matrix randomMatrix(int Rows, int Cols, RNG &Rng) {
  Matrix M(Rows, Cols);
  M.initGaussian(Rng, 1.0);
  return M;
}

void expectNear(const Matrix &A, const Matrix &B, double Tol,
                const char *What) {
  ASSERT_EQ(A.rows(), B.rows()) << What;
  ASSERT_EQ(A.cols(), B.cols()) << What;
  for (int I = 0; I < A.rows(); ++I)
    for (int J = 0; J < A.cols(); ++J)
      EXPECT_NEAR(A.at(I, J), B.at(I, J), Tol)
          << What << " at (" << I << "," << J << ")";
}

TEST(Matrix, BasicOps) {
  Matrix A(2, 3, 1.0);
  Matrix B(2, 3, 2.0);
  A += B;
  EXPECT_DOUBLE_EQ(A.at(1, 2), 3.0);
  A *= 2.0;
  EXPECT_DOUBLE_EQ(A.at(0, 0), 6.0);
  A -= B;
  EXPECT_DOUBLE_EQ(A.at(0, 1), 4.0);
}

TEST(Matrix, Matmul) {
  Matrix A(2, 3);
  Matrix B(3, 2);
  int K = 0;
  for (int I = 0; I < 2; ++I)
    for (int J = 0; J < 3; ++J)
      A.at(I, J) = ++K;
  K = 0;
  for (int I = 0; I < 3; ++I)
    for (int J = 0; J < 2; ++J)
      B.at(I, J) = ++K;
  Matrix C = matmul(A, B);
  EXPECT_DOUBLE_EQ(C.at(0, 0), 22.0);
  EXPECT_DOUBLE_EQ(C.at(0, 1), 28.0);
  EXPECT_DOUBLE_EQ(C.at(1, 0), 49.0);
  EXPECT_DOUBLE_EQ(C.at(1, 1), 64.0);
}

TEST(Matrix, TransposedMultiplies) {
  RNG R(5);
  Matrix A(4, 3), B(4, 2), C(1, 3);
  A.initGaussian(R, 1.0);
  B.initGaussian(R, 1.0);
  C.initGaussian(R, 1.0);
  // A^T B == matmul of explicit transpose.
  Matrix TA = matmulTA(A, B);
  for (int I = 0; I < 3; ++I)
    for (int J = 0; J < 2; ++J) {
      double Want = 0;
      for (int K = 0; K < 4; ++K)
        Want += A.at(K, I) * B.at(K, J);
      EXPECT_NEAR(TA.at(I, J), Want, 1e-12);
    }
  // A C^T.
  Matrix TB = matmulTB(A, C); // (4x3) * (1x3)^T = 4x1.
  for (int I = 0; I < 4; ++I) {
    double Want = 0;
    for (int K = 0; K < 3; ++K)
      Want += A.at(I, K) * C.at(0, K);
    EXPECT_NEAR(TB.at(I, 0), Want, 1e-12);
  }
}

TEST(Matrix, SumRowsAndBroadcast) {
  Matrix A(2, 2);
  A.at(0, 0) = 1;
  A.at(0, 1) = 2;
  A.at(1, 0) = 3;
  A.at(1, 1) = 4;
  Matrix S = sumRows(A);
  EXPECT_DOUBLE_EQ(S.at(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(S.at(0, 1), 6.0);
  Matrix B = addRowBroadcast(A, S);
  EXPECT_DOUBLE_EQ(B.at(1, 0), 7.0);
}

TEST(Kernels, GemmMatchesNaiveReference) {
  RNG Rng(31);
  // Shapes straddle the MR=4 row-panel and NB=64 column-block boundaries
  // on purpose (exact, one-under, one-over in each dimension).
  const int Shapes[][3] = {{1, 1, 1},    {3, 5, 2},    {4, 48, 63},
                           {5, 7, 65},   {17, 40, 64}, {64, 64, 64},
                           {130, 33, 97}};
  for (const auto &S : Shapes) {
    const int M = S[0], K = S[1], N = S[2];
    Matrix A = randomMatrix(M, K, Rng);
    Matrix B = randomMatrix(K, N, Rng);
    Matrix C;
    gemmInto(C, A, B);
    expectNear(C, matmul(A, B), 1e-12, "gemmInto");

    Matrix TA = randomMatrix(K, M, Rng); // (R x M) with R = K.
    Matrix TB = randomMatrix(K, N, Rng);
    Matrix CTA;
    gemmTAInto(CTA, TA, TB);
    expectNear(CTA, matmulTA(TA, TB), 1e-12, "gemmTAInto");

    Matrix BT = randomMatrix(N, K, Rng);
    Matrix CTB;
    gemmTBInto(CTB, A, BT);
    expectNear(CTB, matmulTB(A, BT), 1e-12, "gemmTBInto");
  }
}

TEST(Kernels, GemmTAAccumulates) {
  RNG Rng(32);
  Matrix A = randomMatrix(9, 6, Rng), B = randomMatrix(9, 5, Rng);
  Matrix C(6, 5, 1.5);
  gemmTAInto(C, A, B, /*Accumulate=*/true);
  Matrix Want = matmulTA(A, B);
  for (int I = 0; I < 6; ++I)
    for (int J = 0; J < 5; ++J)
      EXPECT_NEAR(C.at(I, J), Want.at(I, J) + 1.5, 1e-12);
}

TEST(Kernels, FusedBiasActivationMatchesSeparateOps) {
  RNG Rng(33);
  Matrix X = randomMatrix(10, 13, Rng);
  Matrix W = randomMatrix(13, 50, Rng);
  Matrix Bias = randomMatrix(1, 50, Rng);

  Matrix Want = addRowBroadcast(matmul(X, W), Bias);
  Matrix Fused;
  gemmInto(Fused, X, W, &Bias, Activation::Identity);
  expectNear(Fused, Want, 1e-12, "fused bias");

  applyActivation(Want, Activation::Tanh);
  gemmInto(Fused, X, W, &Bias, Activation::Tanh);
  expectNear(Fused, Want, 1e-12, "fused bias+tanh");

  Matrix WantRelu = addRowBroadcast(matmul(X, W), Bias);
  applyActivation(WantRelu, Activation::ReLU);
  gemmInto(Fused, X, W, &Bias, Activation::ReLU);
  expectNear(Fused, WantRelu, 1e-12, "fused bias+relu");
}

TEST(Kernels, BitIdenticalAcrossPoolSizes) {
  // The determinism contract of the blocked kernels: every output
  // element's reduction order is fixed, so thread count never changes a
  // single bit. (PR 2's training determinism guarantee rests on this.)
  RNG Rng(34);
  Matrix A = randomMatrix(101, 37, Rng);
  Matrix B = randomMatrix(37, 53, Rng);
  Matrix Bias = randomMatrix(1, 53, Rng);
  // gemmTA computes A^T * B: the operands must agree on ROWS (the
  // contraction dimension), unlike plain gemm's cols-vs-rows.
  Matrix BTall = randomMatrix(101, 53, Rng);

  Matrix Serial;
  gemmInto(Serial, A, B, &Bias, Activation::Tanh, nullptr);
  for (int Threads : {1, 2, 4}) {
    ThreadPool Pool(Threads);
    Matrix Pooled;
    gemmInto(Pooled, A, B, &Bias, Activation::Tanh, &Pool);
    EXPECT_EQ(Serial.raw(), Pooled.raw()) << Threads << " threads";

    Matrix TASerial, TAPooled;
    gemmTAInto(TASerial, A, BTall);
    gemmTAInto(TAPooled, A, BTall, /*Accumulate=*/false, &Pool);
    EXPECT_EQ(TASerial.raw(), TAPooled.raw()) << Threads << " threads";

    Matrix BT = randomMatrix(53, 37, Rng);
    Matrix TBSerial, TBPooled;
    gemmTBInto(TBSerial, A, BT);
    gemmTBInto(TBPooled, A, BT, &Pool);
    EXPECT_EQ(TBSerial.raw(), TBPooled.raw()) << Threads << " threads";
  }
}

TEST(Kernels, WorkspaceReusesSlots) {
  Workspace WS;
  Matrix &A = WS.get(0, 8, 8);
  const double *Data = A.rowPtr(0);
  Matrix &B = WS.get(0, 4, 4); // Smaller shape: same allocation.
  EXPECT_EQ(&A, &B);
  EXPECT_EQ(B.rowPtr(0), Data);
  Matrix &C = WS.get(7, 2, 2); // Growing the table keeps references valid.
  (void)C;
  EXPECT_EQ(WS.get(0, 4, 4).rowPtr(0), Data);
}

TEST(Layers, ForwardIntoMatchesLegacyForward) {
  RNG R1(41), R2(41);
  MLP NetA({6, 9, 5, 3}, Activation::Tanh, R1);
  MLP NetB({6, 9, 5, 3}, Activation::Tanh, R2); // Same init stream.
  RNG RX(5);
  Matrix X = randomMatrix(7, 6, RX);

  Matrix Legacy = NetA.forward(X);
  Matrix InPlace;
  NetB.forwardInto(X, InPlace);
  EXPECT_EQ(Legacy.raw(), InPlace.raw());

  // Pooled forward is bit-identical too, and so is a repeat on the warm
  // buffers.
  ThreadPool Pool(2);
  Matrix Pooled;
  NetB.forwardInto(X, Pooled, &Pool);
  EXPECT_EQ(Legacy.raw(), Pooled.raw());
  NetB.forwardInto(X, Pooled, &Pool);
  EXPECT_EQ(Legacy.raw(), Pooled.raw());
}

/// Finite-difference gradient check of an MLP through a linear loss.
TEST(Layers, MLPGradientsMatchFiniteDifferences) {
  RNG R(11);
  MLP Net({5, 7, 4}, Activation::Tanh, R);
  Matrix X(3, 5);
  X.initGaussian(R, 1.0);
  Matrix G(3, 4);
  G.initGaussian(R, 1.0);

  auto LossOf = [&]() {
    Matrix Y = Net.forward(X);
    double L = 0;
    for (size_t I = 0; I < Y.size(); ++I)
      L += Y.raw()[I] * G.raw()[I];
    return L;
  };

  for (Param *P : Net.params())
    P->zeroGrad();
  (void)Net.forward(X);
  Matrix dX = Net.backward(G);

  const double Eps = 1e-6;
  double MaxRel = 0.0;
  for (Param *P : Net.params()) {
    for (size_t I = 0; I < P->Value.size(); I += 3) {
      const double Old = P->Value.raw()[I];
      P->Value.raw()[I] = Old + Eps;
      const double L1 = LossOf();
      P->Value.raw()[I] = Old - Eps;
      const double L2 = LossOf();
      P->Value.raw()[I] = Old;
      const double Num = (L1 - L2) / (2 * Eps);
      const double Ana = P->Grad.raw()[I];
      if (std::fabs(Num) + std::fabs(Ana) > 1e-10)
        MaxRel = std::max(MaxRel, std::fabs(Num - Ana) /
                                      (std::fabs(Num) + std::fabs(Ana)));
    }
  }
  EXPECT_LT(MaxRel, 1e-6);

  // Input gradient too.
  for (int Row = 0; Row < 3; ++Row)
    for (int Col = 0; Col < 5; ++Col) {
      const double Old = X.at(Row, Col);
      X.at(Row, Col) = Old + Eps;
      const double L1 = LossOf();
      X.at(Row, Col) = Old - Eps;
      const double L2 = LossOf();
      X.at(Row, Col) = Old;
      EXPECT_NEAR(dX.at(Row, Col), (L1 - L2) / (2 * Eps), 1e-5);
    }
}

TEST(Layers, ReLUBlocksNegativeGradient) {
  RNG R(3);
  ActivationLayer A(Activation::ReLU);
  Matrix X(1, 2);
  X.at(0, 0) = -1.0;
  X.at(0, 1) = 2.0;
  Matrix Y = A.forward(X);
  EXPECT_DOUBLE_EQ(Y.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(Y.at(0, 1), 2.0);
  Matrix G(1, 2, 1.0);
  Matrix dX = A.backward(G);
  EXPECT_DOUBLE_EQ(dX.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(dX.at(0, 1), 1.0);
}

TEST(Optimizer, SGDMinimizesQuadratic) {
  Param P(1, 1);
  P.Value.at(0, 0) = 5.0;
  SGD Opt(0.1);
  for (int I = 0; I < 200; ++I) {
    P.zeroGrad();
    P.Grad.at(0, 0) = 2.0 * P.Value.at(0, 0); // d/dx x^2.
    Opt.step({&P});
  }
  EXPECT_NEAR(P.Value.at(0, 0), 0.0, 1e-6);
}

TEST(Optimizer, AdamMinimizesQuadratic) {
  Param P(1, 2);
  P.Value.at(0, 0) = 4.0;
  P.Value.at(0, 1) = -3.0;
  Adam Opt(0.1);
  for (int I = 0; I < 500; ++I) {
    P.zeroGrad();
    P.Grad.at(0, 0) = 2.0 * (P.Value.at(0, 0) - 1.0);
    P.Grad.at(0, 1) = 2.0 * (P.Value.at(0, 1) + 2.0);
    Opt.step({&P});
  }
  EXPECT_NEAR(P.Value.at(0, 0), 1.0, 1e-3);
  EXPECT_NEAR(P.Value.at(0, 1), -2.0, 1e-3);
}

TEST(Optimizer, GradClipScalesDown) {
  Param P(1, 2);
  P.Grad.at(0, 0) = 3.0;
  P.Grad.at(0, 1) = 4.0; // Norm 5.
  const double Norm = clipGradNorm({&P}, 1.0);
  EXPECT_NEAR(Norm, 5.0, 1e-12);
  EXPECT_NEAR(P.Grad.at(0, 0), 0.6, 1e-12);
  EXPECT_NEAR(P.Grad.at(0, 1), 0.8, 1e-12);
}

TEST(Distributions, SoftmaxNormalizes) {
  std::vector<double> Probs = softmax({1.0, 2.0, 3.0});
  double Sum = 0;
  for (double P : Probs)
    Sum += P;
  EXPECT_NEAR(Sum, 1.0, 1e-12);
  EXPECT_GT(Probs[2], Probs[1]);
  EXPECT_GT(Probs[1], Probs[0]);
}

TEST(Distributions, SoftmaxStableForHugeLogits) {
  std::vector<double> Probs = softmax({1000.0, 1001.0});
  EXPECT_NEAR(Probs[0] + Probs[1], 1.0, 1e-12);
  EXPECT_FALSE(std::isnan(Probs[0]));
}

TEST(Distributions, LogSoftmaxMatchesSoftmax) {
  std::vector<double> Logits = {0.3, -1.2, 2.0, 0.0};
  std::vector<double> Probs = softmax(Logits);
  for (int I = 0; I < 4; ++I)
    EXPECT_NEAR(logSoftmaxAt(Logits, I), std::log(Probs[I]), 1e-12);
}

TEST(Distributions, EntropyMaxAtUniform) {
  EXPECT_NEAR(softmaxEntropy({1.0, 1.0, 1.0, 1.0}), std::log(4.0), 1e-12);
  EXPECT_LT(softmaxEntropy({10.0, 0.0, 0.0, 0.0}), 0.1);
}

TEST(Distributions, CategoricalSamplingFollowsProbs) {
  RNG R(19);
  std::vector<double> Logits = {0.0, std::log(3.0)}; // probs 1/4, 3/4.
  int Ones = 0;
  for (int I = 0; I < 8000; ++I)
    Ones += sampleCategorical(Logits, R);
  EXPECT_NEAR(Ones / 8000.0, 0.75, 0.03);
}

TEST(Distributions, CategoricalGradIsOneHotMinusProbs) {
  std::vector<double> Logits = {0.5, -0.5, 1.5};
  std::vector<double> Probs = softmax(Logits);
  std::vector<double> Grad = categoricalLogProbGrad(Logits, 1);
  EXPECT_NEAR(Grad[0], -Probs[0], 1e-12);
  EXPECT_NEAR(Grad[1], 1.0 - Probs[1], 1e-12);
  EXPECT_NEAR(Grad[2], -Probs[2], 1e-12);
}

TEST(Distributions, GaussianLogProbAndGrad) {
  const double LP = gaussianLogProb(0.0, 0.0, 0.0);
  EXPECT_NEAR(LP, -0.5 * std::log(2.0 * M_PI), 1e-12);
  // Finite-difference check of the gradients.
  const double X = 0.7, Mean = 0.2, LogStd = -0.3, Eps = 1e-6;
  double dMean, dLogStd;
  gaussianLogProbGrad(X, Mean, LogStd, dMean, dLogStd);
  EXPECT_NEAR(dMean,
              (gaussianLogProb(X, Mean + Eps, LogStd) -
               gaussianLogProb(X, Mean - Eps, LogStd)) /
                  (2 * Eps),
              1e-6);
  EXPECT_NEAR(dLogStd,
              (gaussianLogProb(X, Mean, LogStd + Eps) -
               gaussianLogProb(X, Mean, LogStd - Eps)) /
                  (2 * Eps),
              1e-6);
}

} // namespace

//===----------------------------------------------------------------------===//
// Kernel ISA dispatch + cross-tier equivalence (docs/kernels.md contract)
//===----------------------------------------------------------------------===//

namespace {

/// Restores the dispatched tier on scope exit so ISA-switching tests
/// cannot leak a clamped tier into later tests.
struct IsaGuard {
  KernelIsa Saved;
  IsaGuard() : Saved(kernelIsa()) {}
  ~IsaGuard() { setKernelIsa(Saved); }
};

/// Every tier this binary + machine can actually run (always >= {Scalar}).
std::vector<KernelIsa> availableIsas() {
  std::vector<KernelIsa> Tiers = {KernelIsa::Scalar};
  if (detectKernelIsa() >= KernelIsa::Avx2)
    Tiers.push_back(KernelIsa::Avx2);
  if (detectKernelIsa() >= KernelIsa::Avx512)
    Tiers.push_back(KernelIsa::Avx512);
  return Tiers;
}

} // namespace

TEST(KernelIsa, SetClampsToDetected) {
  IsaGuard Guard;
  // Requests above the detected tier clamp down; Scalar always applies.
  EXPECT_LE(setKernelIsa(KernelIsa::Avx512), detectKernelIsa());
  EXPECT_EQ(setKernelIsa(KernelIsa::Scalar), KernelIsa::Scalar);
  EXPECT_EQ(kernelIsa(), KernelIsa::Scalar);
  EXPECT_STREQ(kernelIsaName(KernelIsa::Scalar), "scalar");
  EXPECT_STREQ(kernelIsaName(KernelIsa::Avx2), "avx2");
  EXPECT_STREQ(kernelIsaName(KernelIsa::Avx512), "avx512");
}

TEST(KernelIsa, GemmBitIdenticalAcrossTiers) {
  // The strong half of the contract: gemmInto and gemmTAInto promise
  // bit-identical results on every tier (each output element is one
  // ascending-k FMA chain regardless of vector width). The shapes cross
  // the 4/8/16-column vector boundaries and their scalar tails.
  IsaGuard Guard;
  RNG Rng(71);
  const int Shapes[][3] = {{1, 1, 1},   {3, 5, 2},    {4, 32, 15},
                           {2, 8, 9},   {5, 7, 65},   {17, 40, 64},
                           {64, 64, 64}, {130, 33, 97}};
  const Activation Acts[] = {Activation::Identity, Activation::ReLU,
                             Activation::Tanh};
  for (const auto &S : Shapes) {
    const int M = S[0], K = S[1], N = S[2];
    Matrix A = randomMatrix(M, K, Rng);
    Matrix B = randomMatrix(K, N, Rng);
    Matrix Bias = randomMatrix(1, N, Rng);
    Matrix TA = randomMatrix(K, M, Rng);

    for (Activation Act : Acts) {
      setKernelIsa(KernelIsa::Scalar);
      Matrix Ref;
      gemmInto(Ref, A, B, &Bias, Act);
      for (KernelIsa Isa : availableIsas()) {
        setKernelIsa(Isa);
        Matrix C;
        gemmInto(C, A, B, &Bias, Act);
        EXPECT_EQ(Ref.raw(), C.raw())
            << kernelIsaName(Isa) << " " << M << "x" << K << "x" << N;
      }
    }

    setKernelIsa(KernelIsa::Scalar);
    Matrix TARef, TAAccRef(M, N, 0.25);
    gemmTAInto(TARef, TA, B);
    gemmTAInto(TAAccRef, TA, B, /*Accumulate=*/true);
    for (KernelIsa Isa : availableIsas()) {
      setKernelIsa(Isa);
      Matrix C, CAcc(M, N, 0.25);
      gemmTAInto(C, TA, B);
      gemmTAInto(CAcc, TA, B, /*Accumulate=*/true);
      EXPECT_EQ(TARef.raw(), C.raw()) << kernelIsaName(Isa);
      EXPECT_EQ(TAAccRef.raw(), CAcc.raw()) << kernelIsaName(Isa);
    }
  }
}

TEST(KernelIsa, GemmTBDeterministicPerTier) {
  // The weak half: gemmTBInto vectorizes over k with per-lane partial
  // sums, so tiers agree only within rounding — but each tier is
  // deterministic and pool-size-invariant on its own.
  IsaGuard Guard;
  RNG Rng(72);
  Matrix A = randomMatrix(23, 37, Rng);
  Matrix B = randomMatrix(19, 37, Rng);

  setKernelIsa(KernelIsa::Scalar);
  Matrix Ref;
  gemmTBInto(Ref, A, B);
  for (KernelIsa Isa : availableIsas()) {
    setKernelIsa(Isa);
    Matrix C1, C2;
    gemmTBInto(C1, A, B);
    gemmTBInto(C2, A, B);
    EXPECT_EQ(C1.raw(), C2.raw()) << kernelIsaName(Isa) << " reruns";
    ThreadPool Pool(3);
    Matrix Pooled;
    gemmTBInto(Pooled, A, B, &Pool);
    EXPECT_EQ(C1.raw(), Pooled.raw()) << kernelIsaName(Isa) << " pooled";
    expectNear(Ref, C1, 1e-11, kernelIsaName(Isa));
  }
}

TEST(KernelIsa, EnvOverrideNamesParse) {
  // setKernelIsa mirrors the NV_KERNEL_ISA parsing (same clamp); the env
  // knob itself is read once at startup, so here we only pin the clamp
  // semantics the knob relies on.
  IsaGuard Guard;
  const KernelIsa Detected = detectKernelIsa();
  EXPECT_EQ(setKernelIsa(Detected), Detected);
  EXPECT_EQ(setKernelIsa(KernelIsa::Avx512),
            std::min(KernelIsa::Avx512, Detected));
}

//===----------------------------------------------------------------------===//
// Int8 quantized inference kernels (docs/quantization.md)
//===----------------------------------------------------------------------===//

TEST(KernelsInt8, MatchesFp32WithinQuantTolerance) {
  RNG Rng(81);
  // In = 33 exercises the zero-padded KPad tail; Out = 300 crosses the
  // dispatcher's 256-column accumulator chunk.
  const int Shapes[][3] = {{1, 1, 1}, {4, 33, 7}, {9, 64, 300}, {17, 40, 64}};
  const Activation Acts[] = {Activation::Identity, Activation::ReLU,
                             Activation::Tanh};
  for (const auto &S : Shapes) {
    const int M = S[0], K = S[1], N = S[2];
    Matrix X = randomMatrix(M, K, Rng);
    Matrix W = randomMatrix(K, N, Rng);
    Matrix Bias = randomMatrix(1, N, Rng);
    QuantizedLinear Q;
    quantizeLinearWeights(W, Q);
    EXPECT_TRUE(Q.ready());
    EXPECT_EQ(Q.KPad % 32, 0);
    for (Activation Act : Acts) {
      Matrix F, I8;
      gemmInto(F, X, W, &Bias, Act);
      QuantScratch Scratch;
      gemmQuantInto(I8, X, Q, &Bias, Act, Scratch);
      ASSERT_EQ(F.rows(), I8.rows());
      ASSERT_EQ(F.cols(), I8.cols());
      // Symmetric per-row x per-output scales: each product carries
      // ~1/127 relative error per factor and the errors accumulate like
      // a random walk over k, so the bound grows with sqrt(K). Loose
      // enough for Gaussian data at any K here, tight enough that a
      // broken kernel (errors ~ output magnitude) fails outright.
      double MaxAbs = 0.0;
      for (double V : F.raw())
        MaxAbs = std::max(MaxAbs, std::fabs(V));
      const double Tol = 0.05 * std::sqrt(static_cast<double>(K)) *
                         (1.0 + MaxAbs);
      for (size_t E = 0; E < F.raw().size(); ++E)
        EXPECT_NEAR(F.raw()[E], I8.raw()[E], Tol)
            << M << "x" << K << "x" << N;
    }
  }
}

TEST(KernelsInt8, BitIdenticalAcrossTiersAndPools) {
  // Integer accumulation is exact, so the int8 path is bit-identical not
  // just across pool sizes but across ISA tiers too — stronger than the
  // fp64 gemmTB story, and what lets a quantized deployment pin plans
  // across heterogeneous serving hosts.
  IsaGuard Guard;
  RNG Rng(82);
  Matrix X = randomMatrix(13, 47, Rng);
  Matrix W = randomMatrix(47, 66, Rng);
  Matrix Bias = randomMatrix(1, 66, Rng);
  QuantizedLinear Q;
  quantizeLinearWeights(W, Q);

  setKernelIsa(KernelIsa::Scalar);
  Matrix Ref;
  QuantScratch RefScratch;
  gemmQuantInto(Ref, X, Q, &Bias, Activation::Tanh, RefScratch);
  for (KernelIsa Isa : availableIsas()) {
    setKernelIsa(Isa);
    QuantScratch Scratch;
    Matrix C;
    gemmQuantInto(C, X, Q, &Bias, Activation::Tanh, Scratch);
    EXPECT_EQ(Ref.raw(), C.raw()) << kernelIsaName(Isa);
    ThreadPool Pool(3);
    Matrix Pooled;
    gemmQuantInto(Pooled, X, Q, &Bias, Activation::Tanh, Scratch, &Pool);
    EXPECT_EQ(Ref.raw(), Pooled.raw()) << kernelIsaName(Isa) << " pooled";
  }
}

TEST(KernelsInt8, ZeroAndTinyWeightsStayFinite) {
  // All-zero weight columns take the scale-1.0 fallback; the output must
  // be exactly bias (then activation), never NaN.
  Matrix W(16, 3, 0.0);
  W.at(0, 1) = 1e-30; // Denormal-ish column still quantizes cleanly.
  Matrix X(2, 16, 0.5);
  Matrix Bias(1, 3, 0.25);
  QuantizedLinear Q;
  quantizeLinearWeights(W, Q);
  QuantScratch Scratch;
  Matrix Y;
  gemmQuantInto(Y, X, Q, &Bias, Activation::Identity, Scratch);
  EXPECT_DOUBLE_EQ(Y.at(0, 0), 0.25);
  EXPECT_DOUBLE_EQ(Y.at(1, 2), 0.25);
  for (double V : Y.raw())
    EXPECT_TRUE(std::isfinite(V));
}

TEST(KernelsInt8, LinearLayerQuantizesInferenceOnly) {
  RNG R1(91), R2(91);
  LinearLayer Plain(12, 8, R1);
  LinearLayer Quant(12, 8, R2); // Identical init stream.
  Quant.quantizeForInference();
  EXPECT_TRUE(Quant.isQuantized());
  EXPECT_FALSE(Plain.isQuantized());

  RNG Rx(92);
  Matrix X = randomMatrix(5, 12, Rx);
  // Training-shaped forward (CacheInput = true): the quantized layer must
  // take the fp32 path bit for bit — gradients depend on it.
  Matrix YPlain, YQuant;
  Plain.forwardInto(X, YPlain, Activation::Tanh, nullptr,
                    /*CacheInput=*/true);
  Quant.forwardInto(X, YQuant, Activation::Tanh, nullptr,
                    /*CacheInput=*/true);
  EXPECT_EQ(YPlain.raw(), YQuant.raw());

  // Inference forward: int8 path — near fp32, not (generally) equal.
  Matrix YInfer;
  Quant.forwardInto(X, YInfer, Activation::Tanh, nullptr,
                    /*CacheInput=*/false);
  expectNear(YPlain, YInfer, 0.1, "int8 inference forward");

  Quant.clearQuantized();
  EXPECT_FALSE(Quant.isQuantized());
  Quant.forwardInto(X, YInfer, Activation::Tanh, nullptr,
                    /*CacheInput=*/false);
  EXPECT_EQ(YPlain.raw(), YInfer.raw()); // Back to fp32 exactly.
}

TEST(KernelsInt8, MLPQuantizeRoundTrip) {
  RNG R(93);
  MLP Net({10, 16, 4}, Activation::Tanh, R);
  EXPECT_FALSE(Net.isQuantized());
  Net.quantizeForInference();
  EXPECT_TRUE(Net.isQuantized());

  RNG Rx(94);
  Matrix X = randomMatrix(3, 10, Rx);
  Matrix Fp32, Int8;
  Net.forwardInto(X, Fp32, nullptr, /*ActivateLast=*/false,
                  /*ForBackward=*/true); // Training path: fp32.
  Net.forwardInto(X, Int8, nullptr, /*ActivateLast=*/false,
                  /*ForBackward=*/false); // Inference path: int8.
  expectNear(Fp32, Int8, 0.15, "quantized MLP forward");

  Net.clearQuantized();
  EXPECT_FALSE(Net.isQuantized());
}

//===----------------------------------------------------------------------===//
// Element loops with a fixed operation order: bit-equal to scalar loops
//===----------------------------------------------------------------------===//

namespace {

void expectSameBits(const double *A, const double *B, size_t N,
                    const std::string &What) {
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(std::memcmp(&A[I], &B[I], sizeof(double)), 0)
        << What << " differs at " << I << ": " << A[I] << " vs " << B[I];
}

/// Adam as a plain one-element-at-a-time loop.
struct ReferenceAdam {
  double LearningRate, Beta1 = 0.9, Beta2 = 0.999, Epsilon = 1e-8;
  long long StepCount = 0;
  std::vector<double> M, V;

  void step(Param &P) {
    M.resize(P.Value.size(), 0.0);
    V.resize(P.Value.size(), 0.0);
    ++StepCount;
    const double BiasCorrection1 =
        1.0 - std::pow(Beta1, static_cast<double>(StepCount));
    const double BiasCorrection2 =
        1.0 - std::pow(Beta2, static_cast<double>(StepCount));
    for (size_t I = 0; I < P.Value.size(); ++I) {
      const double G = P.Grad.raw()[I];
      M[I] = Beta1 * M[I] + (1.0 - Beta1) * G;
      V[I] = Beta2 * V[I] + (1.0 - Beta2) * G * G;
      const double MHat = M[I] / BiasCorrection1;
      const double VHat = V[I] / BiasCorrection2;
      P.Value.raw()[I] -= LearningRate * MHat / (std::sqrt(VHat) + Epsilon);
    }
  }
};

/// The attention pooling forward as one row at a time.
void referenceAttentionForward(const Matrix &C, const double *Attn,
                               std::vector<double> &Alpha,
                               std::vector<double> &V) {
  const int N = C.rows(), D = C.cols();
  Alpha.assign(N, 0.0);
  V.assign(D, 0.0);
  double MaxScore = -1e300;
  for (int I = 0; I < N; ++I) {
    double Dot = 0.0;
    for (int K = 0; K < D; ++K)
      Dot += C.at(I, K) * Attn[K];
    Alpha[I] = Dot;
    MaxScore = std::max(MaxScore, Dot);
  }
  double Norm = 0.0;
  for (int I = 0; I < N; ++I) {
    Alpha[I] = std::exp(Alpha[I] - MaxScore);
    Norm += Alpha[I];
  }
  for (int I = 0; I < N; ++I)
    Alpha[I] /= Norm;
  for (int I = 0; I < N; ++I)
    for (int K = 0; K < D; ++K)
      V[K] += Alpha[I] * C.at(I, K);
}

/// Its backward through tanh rows, one row and one step at a time.
void referenceAttentionBackward(const Matrix &C, const double *Attn,
                                const std::vector<double> &Alpha,
                                const double *dV, double *dAttn,
                                Matrix &dC) {
  const int N = C.rows(), D = C.cols();
  std::vector<double> dAlpha(N, 0.0), dScore(N);
  dC.resize(N, D);
  for (int I = 0; I < N; ++I) {
    double Dot = 0.0;
    for (int K = 0; K < D; ++K) {
      Dot += C.at(I, K) * dV[K];
      dC.at(I, K) = Alpha[I] * dV[K];
    }
    dAlpha[I] = Dot;
  }
  double Weighted = 0.0;
  for (int I = 0; I < N; ++I)
    Weighted += Alpha[I] * dAlpha[I];
  for (int I = 0; I < N; ++I)
    dScore[I] = Alpha[I] * (dAlpha[I] - Weighted);
  for (int I = 0; I < N; ++I)
    for (int K = 0; K < D; ++K) {
      dAttn[K] += dScore[I] * C.at(I, K);
      dC.at(I, K) += dScore[I] * Attn[K];
    }
  for (int I = 0; I < N; ++I)
    for (int K = 0; K < D; ++K)
      dC.at(I, K) *= 1.0 - C.at(I, K) * C.at(I, K);
}

} // namespace

TEST(KernelIsa, AdamStepBitEqualToScalarLoop) {
  IsaGuard Guard;
  for (KernelIsa Isa : availableIsas()) {
    setKernelIsa(Isa);
    // Odd sizes leave a tail after the vector loop.
    for (int Cols : {1, 2, 3, 5, 8, 17, 64, 67}) {
      RNG Rng(100 + Cols);
      Param P(3, Cols), Q(3, Cols);
      P.Value = randomMatrix(3, Cols, Rng);
      Q.Value = P.Value;
      Adam Opt(1e-2);
      ReferenceAdam Ref{1e-2};
      for (int Step = 0; Step < 4; ++Step) {
        P.Grad = randomMatrix(3, Cols, Rng);
        P.Grad.at(0, 0) = 0.0; // A zero gradient still moves the moments.
        Q.Grad = P.Grad;
        Opt.step({&P});
        Ref.step(Q);
        expectSameBits(P.Value.raw().data(), Q.Value.raw().data(),
                       P.Value.size(),
                       std::string("Adam ") + kernelIsaName(Isa) + " cols " +
                           std::to_string(Cols));
      }
    }
  }
}

TEST(KernelIsa, AttentionPoolBitEqualToScalarLoops) {
  IsaGuard Guard;
  for (KernelIsa Isa : availableIsas()) {
    setKernelIsa(Isa);
    for (int N : {1, 2, 3, 4, 5, 7, 8, 9, 13}) {
      for (int D : {1, 3, 4, 5, 16, 17, 64}) {
        const std::string What = std::string(kernelIsaName(Isa)) + " N " +
                                 std::to_string(N) + " D " +
                                 std::to_string(D);
        RNG Rng(7 * N + D);
        Matrix C = randomMatrix(N, D, Rng);
        applyActivation(C, Activation::Tanh);
        const Matrix AttnRow = randomMatrix(1, D, Rng);
        const Matrix dVRow = randomMatrix(1, D, Rng);
        const double *Attn = AttnRow.rowPtr(0);

        std::vector<double> Alpha(N), V(D), RefAlpha, RefV;
        attentionPoolForward(C, Attn, Alpha.data(), V.data());
        referenceAttentionForward(C, Attn, RefAlpha, RefV);
        expectSameBits(Alpha.data(), RefAlpha.data(), N, "alpha " + What);
        expectSameBits(V.data(), RefV.data(), D, "v " + What);

        // Accumulate into a non-zero attention gradient, twice, as
        // backward() does across the rows of a batch.
        Matrix dAttn = randomMatrix(1, D, Rng), RefdAttn = dAttn;
        Matrix dPre, RefdC;
        std::vector<double> Scratch;
        for (int Pass = 0; Pass < 2; ++Pass) {
          attentionPoolBackward(C, Attn, Alpha.data(), dVRow.rowPtr(0),
                                dAttn.rowPtr(0), dPre, Scratch);
          referenceAttentionBackward(C, Attn, RefAlpha, dVRow.rowPtr(0),
                                     RefdAttn.rowPtr(0), RefdC);
        }
        expectSameBits(dAttn.raw().data(), RefdAttn.raw().data(), D,
                       "dAttn " + What);
        expectSameBits(dPre.raw().data(), RefdC.raw().data(), N * D,
                       "dPre " + What);
      }
    }
  }
}

TEST(KernelIsa, SumRowsBitEqualToScalarLoop) {
  IsaGuard Guard;
  for (KernelIsa Isa : availableIsas()) {
    setKernelIsa(Isa);
    for (int Rows : {1, 3, 4, 5, 9}) {
      for (int Cols : {1, 3, 16, 17}) {
        RNG Rng(31 * Rows + Cols);
        const Matrix A = randomMatrix(Rows, Cols, Rng);
        Matrix Out = randomMatrix(1, Cols, Rng), Ref = Out;
        sumRowsInto(Out, A, /*Accumulate=*/true);
        for (int I = 0; I < Rows; ++I)
          for (int J = 0; J < Cols; ++J)
            Ref.at(0, J) += A.at(I, J);
        expectSameBits(Out.raw().data(), Ref.raw().data(), Cols,
                       std::string("sumRows ") + kernelIsaName(Isa));
      }
    }
  }
}
