//===- tests/IRTest.cpp - ConstEval/affine/dependence/lowering tests ------===//

#include "ir/AccessAnalysis.h"
#include "ir/ConstEval.h"
#include "ir/Legality.h"
#include "ir/Lowering.h"
#include "lang/LoopExtractor.h"
#include "lang/Parser.h"

#include <gtest/gtest.h>

using namespace nv;

namespace {

/// Parses and lowers the first vectorization site of \p Source.
LoopSummary summarize(const std::string &Source, int HWMaxVF = 64) {
  std::string Error;
  std::optional<Program> P = parseSource(Source, &Error);
  EXPECT_TRUE(P.has_value()) << Error;
  static std::vector<std::unique_ptr<Program>> Keep; // Keep AST alive.
  Keep.push_back(std::make_unique<Program>(std::move(*P)));
  std::vector<LoopSite> Sites = extractLoops(*Keep.back());
  EXPECT_FALSE(Sites.empty());
  return lowerLoop(*Keep.back(), Sites[0], HWMaxVF);
}

TEST(ConstEval, LiteralArithmetic) {
  std::string Error;
  std::optional<Program> P = parseSource(
      "int a[8]; void f() { for (int i = 0; i < 512 / 2 - 1; i++) { a[0] = "
      "1; } }",
      &Error);
  ASSERT_TRUE(P.has_value()) << Error;
  std::vector<LoopSite> Sites = extractLoops(*P);
  ValueEnv Empty;
  EXPECT_EQ(tripCount(*Sites[0].Inner, Empty).value_or(-1), 255);
}

TEST(ConstEval, SymbolicBoundNeedsEnv) {
  std::string Error;
  std::optional<Program> P = parseSource(
      "int n = 100; int a[128]; void f() { for (int i = 0; i < n; i++) { "
      "a[0] = 1; } }",
      &Error);
  ASSERT_TRUE(P.has_value()) << Error;
  std::vector<LoopSite> Sites = extractLoops(*P);
  ValueEnv Empty;
  EXPECT_FALSE(tripCount(*Sites[0].Inner, Empty).has_value());
  ValueEnv Runtime = runtimeEnv(*P);
  EXPECT_EQ(tripCount(*Sites[0].Inner, Runtime).value_or(-1), 100);
}

TEST(ConstEval, LEConditionAndStep) {
  std::string Error;
  std::optional<Program> P = parseSource(
      "int a[64]; void f() { for (int i = 0; i <= 30; i += 3) { a[i] = 1; "
      "} }",
      &Error);
  ASSERT_TRUE(P.has_value()) << Error;
  std::vector<LoopSite> Sites = extractLoops(*P);
  ValueEnv Empty;
  EXPECT_EQ(tripCount(*Sites[0].Inner, Empty).value_or(-1), 11);
}

TEST(AccessAnalysis, SimpleAffine) {
  std::string Error;
  // b[2*i + 1]: coefficient 2, constant 1.
  std::optional<Program> P = parseSource(
      "float a[8]; float b[64]; void f() { for (int i = 0; i < 8; i++) { "
      "a[i] = b[2 * i + 1]; } }",
      &Error);
  ASSERT_TRUE(P.has_value()) << Error;
  std::vector<LoopSite> Sites = extractLoops(*P);
  LoopSummary S = lowerLoop(*P, Sites[0], 64);
  ASSERT_EQ(S.Accesses.size(), 2u);
  const MemAccess &Load = S.Accesses[0];
  EXPECT_EQ(Load.Array, "b");
  EXPECT_TRUE(Load.IsAffine);
  EXPECT_EQ(Load.InnerStride, 2);
  EXPECT_EQ(Load.Flat.Const, 1);
}

TEST(AccessAnalysis, TwoDimensionalFlattening) {
  std::string Error;
  // A[i][j] in a 32-wide array: flat = 32*i + j.
  std::optional<Program> P = parseSource(
      "float A[16][32]; void f() { for (int i = 0; i < 16; i++) { for "
      "(int j = 0; j < 32; j++) { A[i][j] = 0; } } }",
      &Error);
  ASSERT_TRUE(P.has_value()) << Error;
  std::vector<LoopSite> Sites = extractLoops(*P);
  LoopSummary S = lowerLoop(*P, Sites[0], 64);
  ASSERT_EQ(S.Accesses.size(), 1u);
  EXPECT_EQ(S.Accesses[0].Flat.coeffOf("i"), 32);
  EXPECT_EQ(S.Accesses[0].Flat.coeffOf("j"), 1);
  EXPECT_EQ(S.Accesses[0].InnerStride, 1);
}

TEST(AccessAnalysis, IndirectIsNonAffine) {
  LoopSummary S = summarize(
      "float d[64]; int idx[8]; float o[8]; void f() { for (int i = 0; i "
      "< 8; i++) { o[i] = d[idx[i]]; } }");
  bool SawNonAffine = false;
  for (const MemAccess &A : S.Accesses)
    if (A.Array == "d")
      SawNonAffine = !A.IsAffine;
  EXPECT_TRUE(SawNonAffine);
}

TEST(Dependence, NoStoreMeansFullWidth) {
  LoopSummary S = summarize(
      "float a[64]; float out; void f() { float s = 0; for (int i = 0; i "
      "< 64; i++) { s += a[i]; } out = s; }");
  EXPECT_EQ(S.MaxSafeVF, 64);
}

TEST(Dependence, FlowDistanceLimitsVF) {
  // a[i + 8] = f(a[i]): distance 8 -> VF capped at 8.
  LoopSummary S = summarize(
      "float a[72]; void f() { for (int i = 0; i < 64; i++) { a[i + 8] = "
      "a[i] * 2.0; } }");
  EXPECT_EQ(S.MaxSafeVF, 8);
}

TEST(Dependence, NonPow2DistanceRoundsDown) {
  LoopSummary S = summarize(
      "float a[72]; void f() { for (int i = 0; i < 64; i++) { a[i + 6] = "
      "a[i] + 1.0; } }");
  EXPECT_EQ(S.MaxSafeVF, 4); // floor_pow2(6).
}

TEST(Dependence, AntiDependenceIsSafe) {
  // a[i] = a[i+1]: loads read old values; any VF is fine.
  LoopSummary S = summarize(
      "float a[65]; void f() { for (int i = 0; i < 64; i++) { a[i] = a[i "
      "+ 1]; } }");
  EXPECT_EQ(S.MaxSafeVF, 64);
}

TEST(Dependence, SameIterationAccessIsSafe) {
  LoopSummary S = summarize(
      "float a[64]; void f() { for (int i = 0; i < 64; i++) { a[i] = a[i] "
      "+ 1.0; } }");
  EXPECT_EQ(S.MaxSafeVF, 64);
}

TEST(Dependence, NonAffineStoreBlocksVectorization) {
  LoopSummary S = summarize(
      "float a[64]; int idx[64]; void f() { for (int i = 0; i < 64; i++) "
      "{ a[idx[i]] = 1.0; } }");
  EXPECT_EQ(S.MaxSafeVF, 1);
}

TEST(Dependence, DifferentArraysNeverAlias) {
  LoopSummary S = summarize(
      "float a[64]; float b[64]; void f() { for (int i = 0; i < 64; i++) "
      "{ a[i] = b[i]; } }");
  EXPECT_EQ(S.MaxSafeVF, 64);
}

TEST(Dependence, FloorPow2) {
  EXPECT_EQ(floorPow2(0), 1);
  EXPECT_EQ(floorPow2(1), 1);
  EXPECT_EQ(floorPow2(2), 2);
  EXPECT_EQ(floorPow2(3), 2);
  EXPECT_EQ(floorPow2(64), 64);
  EXPECT_EQ(floorPow2(100), 64);
}

TEST(Lowering, DotProductShape) {
  LoopSummary S = summarize(
      "int vec[512]; int out; void f() { int sum = 0; for (int i = 0; i < "
      "512; i++) { sum += vec[i] * vec[i]; } out = sum; }");
  EXPECT_EQ(S.Reduction.Kind, ReductionKind::Sum);
  EXPECT_EQ(S.Reduction.Var, "sum");
  EXPECT_EQ(S.countOp(VROp::Load), 2);
  EXPECT_EQ(S.countOp(VROp::Mul), 1);
  EXPECT_EQ(S.countOp(VROp::Add), 1);
  EXPECT_EQ(S.CompileTrip, 512);
  EXPECT_EQ(S.RuntimeTrip, 512);
  // The reduction update is flagged for the latency model.
  bool SawReductionUpdate = false;
  for (const VecInst &I : S.Body)
    SawReductionUpdate |= I.ReductionUpdate;
  EXPECT_TRUE(SawReductionUpdate);
}

TEST(Lowering, ExplicitSumFormIsAReduction) {
  LoopSummary S = summarize(
      "float v[64]; float out; void f() { float s = 0; for (int i = 0; i "
      "< 64; i++) { s = s + v[i]; } out = s; }");
  EXPECT_EQ(S.Reduction.Kind, ReductionKind::Sum);
}

TEST(Lowering, MaxReductionViaCall) {
  LoopSummary S = summarize(
      "float v[64]; float out; void f() { float m = 0; for (int i = 0; i "
      "< 64; i++) { m = max(m, v[i]); } out = m; }");
  EXPECT_EQ(S.Reduction.Kind, ReductionKind::Max);
}

TEST(Lowering, ScalarCycleBlocksVectorization) {
  // t = a[i] + t * 3 is a genuine serial recurrence, not a reduction.
  LoopSummary S = summarize(
      "int a[64]; int out; void f() { int t = 0; for (int i = 0; i < 64; "
      "i++) { t = a[i] + t * 3; } out = t; }");
  EXPECT_EQ(S.MaxSafeVF, 1);
}

TEST(Lowering, PredicationDetected) {
  LoopSummary S = summarize(
      "int a[64]; int b[64]; void f() { for (int i = 0; i < 64; i++) { if "
      "(a[i] > 3) { b[i] = 1; } } }");
  EXPECT_TRUE(S.HasPredicate);
  // Stores under the branch are masked.
  bool SawPredicatedStore = false;
  for (const VecInst &I : S.Body)
    if (I.Op == VROp::Store)
      SawPredicatedStore |= I.Predicated;
  EXPECT_TRUE(SawPredicatedStore);
}

TEST(Lowering, TernaryEmitsSelect) {
  LoopSummary S = summarize(
      "int a[64]; int b[64]; void f() { for (int i = 0; i < 64; i++) { "
      "b[i] = (a[i] > 2 ? 9 : 0); } }");
  EXPECT_GE(S.countOp(VROp::Select), 1);
  EXPECT_GE(S.countOp(VROp::Cmp), 1);
}

TEST(Lowering, CastsAndTypeExtremes) {
  LoopSummary S = summarize(
      "short s[64]; int d[64]; void f() { for (int i = 0; i < 64; i++) { "
      "d[i] = (int) (s[i]); } }");
  EXPECT_GE(S.countOp(VROp::Cast), 1);
  EXPECT_EQ(S.NarrowestType, ScalarType::Short);
  EXPECT_EQ(S.WidestType, ScalarType::Int);
}

TEST(Lowering, UnknownCallBlocksVectorization) {
  LoopSummary S = summarize(
      "float a[64]; void f() { for (int i = 0; i < 64; i++) { a[i] = "
      "mystery(a[i]); } }");
  EXPECT_TRUE(S.HasUnknownCall);
  EXPECT_EQ(S.MaxSafeVF, 1);
}

TEST(Lowering, NestedLoopOuterIterations) {
  LoopSummary S = summarize(
      "float A[32][16]; void f() { for (int i = 0; i < 32; i++) { for "
      "(int j = 0; j < 16; j++) { A[i][j] = 1.0; } } }");
  EXPECT_EQ(S.Depth, 2);
  EXPECT_EQ(S.OuterIterations, 32);
  EXPECT_EQ(S.RuntimeTrip, 16);
}

} // namespace
