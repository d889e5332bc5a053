//===- tests/LegalityTest.cpp - Loop legality analysis tests --------------===//
//
// The legality framework end to end: access classification goldens, the
// dependence-distance matrix checked against a brute-force iteration-space
// oracle across every LoopGenerator template, mask <-> clamp <-> simulator
// agreement over the whole action grid, masked policy sampling, legality
// of every planner's output over >= 1k generated loops, the analysis JSON
// emitter, and the model-format legality-feature flag round trip.
//
//===----------------------------------------------------------------------===//

#include "dataset/LoopGenerator.h"
#include "ir/AnalysisReport.h"
#include "ir/Legality.h"
#include "ir/Lowering.h"
#include "lang/LoopExtractor.h"
#include "lang/Parser.h"
#include "predictors/Search.h"
#include "rl/Policy.h"
#include "serve/ModelSerializer.h"
#include "sim/Compiler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace nv;

namespace {

int floorPow2Local(long long X) {
  int P = 1;
  while (2ll * P <= X)
    P *= 2;
  return X < 1 ? 1 : P;
}

/// Parses and lowers the first vectorization site of \p Source, returning
/// (summary, legality) with the AST kept alive for the process.
struct Analyzed {
  LoopSummary Summary;
  LegalitySummary Legal;
};

Analyzed analyze(const std::string &Source, const TargetInfo &TI = {}) {
  std::string Error;
  std::optional<Program> P = parseSource(Source, &Error);
  EXPECT_TRUE(P.has_value()) << Error << "\n" << Source;
  static std::vector<std::unique_ptr<Program>> Keep;
  Keep.push_back(std::make_unique<Program>(std::move(*P)));
  std::vector<LoopSite> Sites = extractLoops(*Keep.back());
  EXPECT_FALSE(Sites.empty()) << Source;
  Analyzed A;
  A.Summary = lowerLoop(*Keep.back(), Sites[0], TI.MaxVF);
  A.Legal = analyzeLegality(A.Summary, TI);
  return A;
}

// --- Brute-force iteration-space oracle -----------------------------------
// Enumerates the loop's iterations and finds, for every (store at k1,
// access at k2, k1 < k2) pair on the same array, the minimum conflict
// distance k2 - k1 — the ground truth the analysis approximates. Pairs the
// analysis itself cannot evaluate (non-affine, mismatched invariant terms)
// are skipped: the analysis is strictly conservative on those, so skipping
// keeps the oracle an upper bound.

struct OracleResult {
  bool Computable = false;
  int MaxSafeVF = 1;
};

long long addrAt(const MemAccess &A, const std::string &Var, long long Lo,
                 long long Step, long long K) {
  return A.Flat.Const + A.Flat.coeffOf(Var) * (Lo + Step * K);
}

std::vector<std::pair<std::string, long long>>
invariantTermsOf(const AffineIndex &Index, const std::string &Var) {
  std::vector<std::pair<std::string, long long>> Terms;
  for (const auto &Term : Index.Terms)
    if (Term.first != Var)
      Terms.push_back(Term);
  std::sort(Terms.begin(), Terms.end());
  return Terms;
}

OracleResult oracleMaxSafeVF(const LoopSummary &Sum, int HWMaxVF) {
  OracleResult R;
  if (Sum.RuntimeTrip <= 0 || !Sum.Loop)
    return R;
  const long long Trip = Sum.RuntimeTrip;
  const std::string &Var = Sum.Loop->IndexVar;
  long long MinDist = std::numeric_limits<long long>::max();

  for (const MemAccess &Store : Sum.Accesses) {
    if (!Store.IsStore || !Store.IsAffine)
      continue;
    for (const MemAccess &Other : Sum.Accesses) {
      if (Other.Array != Store.Array || !Other.IsAffine)
        continue;
      if (invariantTermsOf(Store.Flat, Var) !=
          invariantTermsOf(Other.Flat, Var))
        continue; // Unknown to the analysis; skipping keeps oracle >= it.
      // Sweep iteration space: store addresses by cell, then for each
      // access iteration find the closest earlier store of that cell.
      std::map<long long, std::vector<long long>> StoreIters;
      for (long long K = 0; K < Trip; ++K)
        StoreIters[addrAt(Store, Var, Sum.InnerVarLo, Sum.InnerStep, K)]
            .push_back(K);
      for (long long K2 = 1; K2 < Trip; ++K2) {
        const auto It = StoreIters.find(
            addrAt(Other, Var, Sum.InnerVarLo, Sum.InnerStep, K2));
        if (It == StoreIters.end())
          continue;
        // Largest store iteration strictly before K2.
        const std::vector<long long> &Ks = It->second;
        auto Lb = std::lower_bound(Ks.begin(), Ks.end(), K2);
        if (Lb == Ks.begin())
          continue;
        MinDist = std::min(MinDist, K2 - *(Lb - 1));
      }
    }
  }

  long long Bound =
      MinDist == std::numeric_limits<long long>::max() ? HWMaxVF : MinDist;
  R.MaxSafeVF = floorPow2Local(std::min<long long>(Bound, HWMaxVF));
  if (Sum.HasUnknownCall || Sum.HasScalarCycle)
    R.MaxSafeVF = 1;
  R.Computable = true;
  return R;
}

/// True when the analysis has a binding edge whose conflict distance
/// varies across iterations (weak-crossing SIV): the analysis assumes
/// distance 1 there, so exact agreement with the oracle is not expected.
bool hasCrossingEdge(const LoopSummary &Sum, const LegalitySummary &Legal) {
  if (!Sum.Loop)
    return false;
  const std::string &Var = Sum.Loop->IndexVar;
  for (const DependenceEdge &E : Legal.Edges) {
    if (!E.BindsVF || E.Unknown || E.HasDistance)
      continue;
    const long long A =
        Sum.Accesses[E.Src].Flat.coeffOf(Var) * Sum.InnerStep;
    const long long B =
        Sum.Accesses[E.Dst].Flat.coeffOf(Var) * Sum.InnerStep;
    if (A != 0 && A == -B)
      return true;
  }
  return false;
}

// --- A minimal strict JSON validator (subset of TelemetryTest's) ----------
namespace minijson {

void skipWs(const std::string &S, size_t &I) {
  while (I < S.size() && std::isspace(static_cast<unsigned char>(S[I])))
    ++I;
}

bool parseValue(const std::string &S, size_t &I);

bool parseString(const std::string &S, size_t &I) {
  if (I >= S.size() || S[I] != '"')
    return false;
  ++I;
  while (I < S.size()) {
    const unsigned char C = static_cast<unsigned char>(S[I]);
    if (C == '"') {
      ++I;
      return true;
    }
    if (C < 0x20)
      return false;
    if (C == '\\') {
      ++I;
      if (I >= S.size())
        return false;
      if (S[I] == 'u') {
        for (int K = 0; K < 4; ++K) {
          ++I;
          if (I >= S.size() ||
              !std::isxdigit(static_cast<unsigned char>(S[I])))
            return false;
        }
      } else if (!std::strchr("\"\\/bfnrt", S[I])) {
        return false;
      }
    }
    ++I;
  }
  return false;
}

bool parseNumber(const std::string &S, size_t &I) {
  const size_t Start = I;
  if (I < S.size() && S[I] == '-')
    ++I;
  while (I < S.size() &&
         (std::isdigit(static_cast<unsigned char>(S[I])) || S[I] == '.' ||
          S[I] == 'e' || S[I] == 'E' || S[I] == '+' || S[I] == '-'))
    ++I;
  return I > Start;
}

bool parseContainer(const std::string &S, size_t &I, char Open, char Close,
                    bool KeyValue) {
  ++I;
  skipWs(S, I);
  if (I < S.size() && S[I] == Close) {
    ++I;
    return true;
  }
  for (;;) {
    skipWs(S, I);
    if (KeyValue) {
      if (!parseString(S, I))
        return false;
      skipWs(S, I);
      if (I >= S.size() || S[I] != ':')
        return false;
      ++I;
    }
    if (!parseValue(S, I))
      return false;
    skipWs(S, I);
    if (I < S.size() && S[I] == ',') {
      ++I;
      continue;
    }
    if (I < S.size() && S[I] == Close) {
      ++I;
      return true;
    }
    return false;
  }
}

bool parseValue(const std::string &S, size_t &I) {
  skipWs(S, I);
  if (I >= S.size())
    return false;
  switch (S[I]) {
  case '{':
    return parseContainer(S, I, '{', '}', true);
  case '[':
    return parseContainer(S, I, '[', ']', false);
  case '"':
    return parseString(S, I);
  case 't':
    if (S.compare(I, 4, "true") == 0) {
      I += 4;
      return true;
    }
    return false;
  case 'f':
    if (S.compare(I, 5, "false") == 0) {
      I += 5;
      return true;
    }
    return false;
  case 'n':
    if (S.compare(I, 4, "null") == 0) {
      I += 4;
      return true;
    }
    return false;
  default:
    return parseNumber(S, I);
  }
}

bool valid(const std::string &S) {
  size_t I = 0;
  if (!parseValue(S, I))
    return false;
  skipWs(S, I);
  return I == S.size();
}

} // namespace minijson

// --- Access classification goldens -----------------------------------------

TEST(Classify, Goldens) {
  Analyzed A = analyze("float a[64]; float b[64]; float c[64]; int x[64]; "
                       "float s[8];"
                       "void f() { for (int i = 0; i < 32; i++) {"
                       "  a[i] = b[2 * i] + c[x[i]] + s[5]; } }");
  // Lowering emits loads in expression order: b[2i], x[i], c[x[i]], s[5],
  // then the store a[i].
  ASSERT_EQ(A.Legal.Classes.size(), A.Summary.Accesses.size());
  std::map<std::string, AccessClass> ByArray;
  for (size_t I = 0; I < A.Summary.Accesses.size(); ++I)
    ByArray[A.Summary.Accesses[I].Array +
            (A.Summary.Accesses[I].IsStore ? "!" : "")] = A.Legal.Classes[I];
  EXPECT_EQ(ByArray.at("a!"), AccessClass::Consecutive);
  EXPECT_EQ(ByArray.at("b"), AccessClass::Strided);
  EXPECT_EQ(ByArray.at("x"), AccessClass::Consecutive);
  EXPECT_EQ(ByArray.at("c"), AccessClass::Gather);
  EXPECT_EQ(ByArray.at("s"), AccessClass::Uniform);
}

TEST(Classify, StepTwoMakesUnitStrideStrided) {
  // Lanes map to iterations: a[i] under i += 2 touches every other cell.
  Analyzed A = analyze("float a[64]; void f() { for (int i = 0; i < 64; "
                       "i += 2) { a[i] = 1.0; } }");
  ASSERT_EQ(A.Legal.Classes.size(), 1u);
  EXPECT_EQ(A.Legal.Classes[0], AccessClass::Strided);
  EXPECT_EQ(A.Legal.digest().ClassCount[
                static_cast<int>(AccessClass::Strided)], 1);
}

// --- The dependence-distance matrix ----------------------------------------

struct DistanceCase {
  const char *Source;
  int ExpectedVF;
};

TEST(Dependence, DistanceMatrix) {
  const TargetInfo TI;
  const DistanceCase Cases[] = {
      // No dependence at all: full hardware width.
      {"float a[256]; float b[256]; void f() { for (int i = 0; i < 256; "
       "i++) { a[i] = b[i] + 1.0; } }",
       64},
      // Loop-carried flow, distance 4.
      {"float a[256]; void f() { for (int i = 4; i < 256; i++) { a[i] = "
       "a[i - 4]; } }",
       4},
      // Distance 3 floors to VF 2.
      {"float a[256]; void f() { for (int i = 3; i < 256; i++) { a[i] = "
       "a[i - 3]; } }",
       2},
      // Distance 1 serializes.
      {"float a[256]; void f() { for (int i = 1; i < 256; i++) { a[i] = "
       "a[i - 1]; } }",
       1},
      // Anti dependence (read-ahead): chunk loads precede stores — free.
      {"float a[256]; void f() { for (int i = 0; i < 252; i++) { a[i] = "
       "a[i + 4]; } }",
       64},
      // Invariant store conflicts with itself every iteration.
      {"float a[8]; float b[256]; void f() { for (int i = 0; i < 256; "
       "i++) { a[0] = b[i]; } }",
       1},
      // Interleaved strides never collide (2i vs 2i+1).
      {"float a[512]; void f() { for (int i = 0; i < 200; i++) { a[2 * i] "
       "= a[2 * i + 1]; } }",
       64},
      // GCD refutation: 2k1 = 4k2 + 1 has no integer solution.
      {"float a[1024]; void f() { for (int i = 0; i < 200; i++) { a[2 * "
       "i] = a[4 * i + 1]; } }",
       64},
      // GCD cannot refute 2k1 = 4k2: unknown, assume serial.
      {"float a[1024]; void f() { for (int i = 0; i < 200; i++) { a[2 * "
       "i] = a[4 * i]; } }",
       1},
      // Weak-zero: store sweeps over an invariant read at a[16].
      {"float a[256]; void f() { for (int i = 0; i < 256; i++) { a[i] = "
       "a[16] + 1.0; } }",
       1},
      // Weak-crossing: i and 126-i collide mid-loop (k1 + k2 = 126).
      {"float a[512]; void f() { for (int i = 0; i < 128; i++) { a[i] = "
       "a[126 - i]; } }",
       1},
      // Weak-crossing refuted: the crossing point lies past the last
      // iteration (k1 + k2 = 400 > 2 * 127).
      {"float a[512]; void f() { for (int i = 0; i < 128; i++) { a[i] = "
       "a[400 - i]; } }",
       64},
      // Step-2 loop: var-space distance 8 is 4 iterations.
      {"float a[512]; void f() { for (int i = 8; i < 512; i += 2) { a[i] "
       "= a[i - 8]; } }",
       4},
  };
  for (const DistanceCase &C : Cases) {
    Analyzed A = analyze(C.Source, TI);
    EXPECT_EQ(A.Legal.MaxSafeVF, C.ExpectedVF) << C.Source;
    // Each verdict agrees with the ground-truth iteration sweep.
    const OracleResult Oracle = oracleMaxSafeVF(A.Summary, TI.MaxVF);
    ASSERT_TRUE(Oracle.Computable) << C.Source;
    EXPECT_LE(A.Legal.MaxSafeVF, Oracle.MaxSafeVF) << C.Source;
  }
}

// --- Satellite regressions --------------------------------------------------

TEST(Regression, ReadOnlyGatherKeepsFullVF) {
  // A gather *load* of another array must not pessimize: only store<->
  // access pairs can carry a dependence, and `b[x[i]]` never pairs with
  // the store to `a`. (This used to collapse the loop to VF 1.)
  Analyzed A = analyze("float a[256]; float b[256]; int x[256]; "
                       "void f() { for (int i = 0; i < 256; i++) { a[i] = "
                       "b[x[i]]; } }");
  EXPECT_EQ(A.Legal.MaxSafeVF, 64);
  EXPECT_FALSE(A.Legal.HasUnknownDep);
  // A scatter *store* is a different story: it aliases unpredictably.
  Analyzed B = analyze("float a[256]; float b[256]; int x[256]; "
                       "void f() { for (int i = 0; i < 256; i++) { a[x[i]] "
                       "= b[i]; } }");
  EXPECT_EQ(B.Legal.MaxSafeVF, 1);
  EXPECT_TRUE(B.Legal.HasUnknownDep);
}

TEST(Regression, WeakZeroTripRangeRefutation) {
  // The conflicting iteration (k* = 200) lies outside the 64-iteration
  // loop, so the invariant read cannot alias the sweeping store.
  Analyzed A = analyze("float a[256]; void f() { for (int i = 0; i < 64; "
                       "i++) { a[i] = a[200] + 1.0; } }");
  EXPECT_EQ(A.Legal.MaxSafeVF, 64);
  EXPECT_FALSE(A.Legal.HasUnknownDep);
  // In range, it binds.
  Analyzed B = analyze("float a[256]; void f() { for (int i = 0; i < 64; "
                       "i++) { a[i] = a[32] + 1.0; } }");
  EXPECT_EQ(B.Legal.MaxSafeVF, 1);
}

// --- Mask / clamp / simulator agreement -------------------------------------

TEST(Mask, AgreesWithClampAndSimulatorOverFullGrid) {
  const SimCompiler Compiler;
  const TargetInfo &TI = Compiler.target();
  LoopGenerator Gen(0xA11CE);
  for (int T = 0; T < LoopGenerator::NumTemplates; ++T) {
    for (int J = 0; J < 4; ++J) {
      const GeneratedLoop G = Gen.generate(T);
      std::string Error;
      std::optional<Program> P = parseSource(G.Source, &Error);
      ASSERT_TRUE(P.has_value()) << G.Source << "\n" << Error;
      std::vector<LoopSite> Sites = extractLoops(*P);
      ASSERT_FALSE(Sites.empty()) << G.Source;
      const std::vector<LoopSummary> Sums =
          lowerAllLoops(*P, Sites, TI.MaxVF);
      for (const LoopSummary &Sum : Sums) {
        const LegalitySummary Legal = analyzeLegality(Sum, TI);
        int LegalRows = 0;
        for (int VF : TI.vfActions())
          LegalRows += VF <= Legal.MaxSafeVF ? 1 : 0;
        EXPECT_EQ(Legal.Mask.count(),
                  LegalRows * static_cast<int>(TI.ifActions().size()));
        for (int VF : TI.vfActions()) {
          for (int IF : TI.ifActions()) {
            const VectorPlan Plan{VF, IF};
            const bool ByMask = Legal.isLegal(Plan, TI);
            const bool ByClamp = Legal.clamp(Plan, TI) == Plan;
            const bool BySim = Compiler.legalize(Sum, Plan) == Plan;
            EXPECT_EQ(ByMask, ByClamp) << G.Source;
            EXPECT_EQ(ByMask, BySim) << G.Source;
            EXPECT_EQ(Legal.explain(Plan, TI) == "legal", ByMask);
          }
        }
      }
    }
  }
}

// --- The iteration-space oracle across every template -----------------------

TEST(Oracle, AnalysisSoundAndExactAcrossTemplates) {
  const TargetInfo TI;
  LoopGenerator Gen(0xBEEF);
  int Exact = 0, Checked = 0;
  for (int T = 0; T < LoopGenerator::NumTemplates; ++T) {
    for (int J = 0; J < 8; ++J) {
      const GeneratedLoop G = Gen.generate(T);
      std::string Error;
      std::optional<Program> P = parseSource(G.Source, &Error);
      ASSERT_TRUE(P.has_value()) << G.Source << "\n" << Error;
      std::vector<LoopSite> Sites = extractLoops(*P);
      const std::vector<LoopSummary> Sums =
          lowerAllLoops(*P, Sites, TI.MaxVF);
      for (const LoopSummary &Sum : Sums) {
        const LegalitySummary Legal = analyzeLegality(Sum, TI);
        // One source of truth: lowering records the analysis' verdict.
        ASSERT_EQ(Sum.MaxSafeVF, Legal.MaxSafeVF)
            << "template " << T << "\n" << G.Source;
        const OracleResult Oracle = oracleMaxSafeVF(Sum, TI.MaxVF);
        if (!Oracle.Computable)
          continue;
        ++Checked;
        // Soundness: the analysis never exceeds the ground truth.
        ASSERT_LE(Legal.MaxSafeVF, Oracle.MaxSafeVF)
            << "template " << T << "\n" << G.Source;
        // Exactness: when every pair was analyzable with a definite
        // distance, the verdict matches the iteration sweep exactly.
        if (!Legal.HasUnknownDep && !hasCrossingEdge(Sum, Legal)) {
          EXPECT_EQ(Legal.MaxSafeVF, Oracle.MaxSafeVF)
              << "template " << T << "\n" << G.Source;
          ++Exact;
        }
      }
    }
  }
  // The sweep must have exercised real loops, mostly exactly.
  EXPECT_GE(Checked, LoopGenerator::NumTemplates * 8);
  EXPECT_GE(Exact, Checked / 2);
}

// --- Masked policy sampling --------------------------------------------------

TEST(Policy, MaskedSamplingNeverPicksIllegal) {
  const TargetInfo TI;
  PlanMask Mask;
  Mask.NumVF = static_cast<int8_t>(TI.vfActions().size());
  Mask.NumIF = static_cast<int8_t>(TI.ifActions().size());
  // Legal: VF in {1, 2, 4} (indices 0..2), all IF.
  for (int V = 0; V < 3; ++V)
    for (int I = 0; I < Mask.NumIF; ++I)
      Mask.set(V, I);
  for (ActionSpaceKind Kind :
       {ActionSpaceKind::Discrete, ActionSpaceKind::Continuous1,
        ActionSpaceKind::Continuous2}) {
    RNG R(7);
    Policy P(Kind, 6, {16}, Mask.NumVF, Mask.NumIF, R);
    Matrix States(4, 6);
    for (int I = 0; I < States.rows() * States.cols(); ++I)
      States.raw()[I] = R.nextGaussian();
    P.forward(States);
    for (int Row = 0; Row < States.rows(); ++Row) {
      for (int Draw = 0; Draw < 200; ++Draw) {
        const ActionRecord A = P.sampleAction(Row, R, &Mask);
        EXPECT_TRUE(Mask.legal(A.VFIdx, A.IFIdx))
            << "kind " << static_cast<int>(Kind) << " VFIdx " << A.VFIdx
            << " IFIdx " << A.IFIdx;
      }
      const ActionRecord G = P.greedyAction(Row, &Mask);
      EXPECT_TRUE(Mask.legal(G.VFIdx, G.IFIdx));
    }
  }
}

// --- Every planner respects legality over >= 1k generated loops -------------

TEST(Property, AllPlannersRespectLegalityOverThousandLoops) {
  constexpr int LoopsPerTemplate = 90; // 12 * 90 = 1080 programs.
  VectorizationEnv Env{SimCompiler(), PathContextConfig()};
  const TargetInfo &TI = Env.compiler().target();
  LoopGenerator Gen(0xD00D);
  for (int T = 0; T < LoopGenerator::NumTemplates; ++T)
    for (int J = 0; J < LoopsPerTemplate; ++J) {
      const GeneratedLoop G = Gen.generate(T);
      ASSERT_TRUE(Env.addProgram(G.Name, G.Source)) << G.Source;
    }
  ASSERT_GE(Env.size(), 1000u);

  RNG R(11);
  Policy Pol(ActionSpaceKind::Discrete, 6,
             {16}, static_cast<int>(TI.vfActions().size()),
             static_cast<int>(TI.ifActions().size()), R);
  Matrix State(1, 6);

  for (size_t I = 0; I < Env.size(); ++I) {
    const size_t Sites = Env.sample(I).Sites.size();
    // Masked policy sampling only ever lands on legal grid points.
    for (size_t S = 0; S < Sites; ++S) {
      const LegalitySummary &Legal = Env.legality(I, S);
      EXPECT_EQ(&Legal.Mask, &Env.actionMask(I, S));
      for (int D = 0; D < State.cols(); ++D)
        State.at(0, D) = R.nextGaussian();
      Pol.forward(State);
      const ActionRecord A = Pol.sampleAction(0, R, &Env.actionMask(I, S));
      EXPECT_TRUE(Legal.isLegal(Pol.toPlan(A, TI), TI));
    }
    // Random search draws only legal plans.
    const std::vector<VectorPlan> Rand = randomPlans(Env, I, R);
    ASSERT_EQ(Rand.size(), Sites);
    for (size_t S = 0; S < Sites; ++S)
      EXPECT_TRUE(Env.legality(I, S).isLegal(Rand[S], TI));
    // Brute force sweeps only legal plans (spot-checked: full sweeps on
    // every 6th program keep the test fast).
    if (I % 6 == 0) {
      const BruteForceResult Best = bruteForceSearch(Env, I, /*Passes=*/1);
      ASSERT_EQ(Best.Plans.size(), Sites);
      for (size_t S = 0; S < Sites; ++S)
        EXPECT_TRUE(Env.legality(I, S).isLegal(Best.Plans[S], TI))
            << Env.sample(I).Name;
    }
  }
}

// --- Analysis report JSON ----------------------------------------------------

TEST(Report, JsonIsStrictAndTextRenders) {
  const TargetInfo TI;
  LoopGenerator Gen(0xFEED);
  for (int T = 0; T < LoopGenerator::NumTemplates; ++T) {
    const GeneratedLoop G = Gen.generate(T);
    const AnalysisReport Report = analyzeProgram(G.Name, G.Source, TI);
    ASSERT_TRUE(Report.Ok) << G.Source << "\n" << Report.Error;
    const std::string Json = analysisJson(Report, TI);
    EXPECT_TRUE(minijson::valid(Json)) << Json;
    std::ostringstream Text;
    printAnalysisText(Report, TI, Text);
    EXPECT_NE(Text.str().find("max safe VF"), std::string::npos);
  }
  // Failure paths stay valid JSON too.
  const AnalysisReport Bad = analyzeProgram("bad", "int x = ;", TI);
  EXPECT_FALSE(Bad.Ok);
  EXPECT_TRUE(minijson::valid(analysisJson(Bad, TI)));
  const AnalysisReport NoLoops =
      analyzeProgram("flat", "int x; void f() { x = 1; }", TI);
  EXPECT_FALSE(NoLoops.Ok);
  EXPECT_TRUE(minijson::valid(analysisJson(NoLoops, TI)));
}

// --- Model-format legality-feature flag --------------------------------------

TEST(ModelFormat, LegalityFeatureFlagRoundTripsAndGuards) {
  const std::string Path =
      ::testing::TempDir() + "nv_legality_flag_model.bin";
  Code2VecConfig CC;
  CC.CodeDim = 12;
  RNG R(5);
  Code2Vec Wide(CC, R);
  Policy WidePol(ActionSpaceKind::Discrete,
                 CC.CodeDim + NumLegalityFeatures, {8}, 7, 5, R);
  ModelMeta Meta;
  Meta.LegalityFeatures = true;
  std::string Error;
  ASSERT_TRUE(ModelSerializer::save(Path, Wide, WidePol, Meta, &Error))
      << Error;

  // Round trip into a matching wide destination.
  Code2Vec DstE(CC, R);
  Policy DstWide(ActionSpaceKind::Discrete,
                 CC.CodeDim + NumLegalityFeatures, {8}, 7, 5, R);
  ModelMeta Loaded;
  EXPECT_EQ(ModelSerializer::tryLoad(Path, DstE, DstWide, &Loaded, nullptr,
                                     &Error),
            LoadStatus::Ok)
      << Error;
  EXPECT_TRUE(Loaded.LegalityFeatures);

  // A widened file must not load into a bare-embedding policy.
  Policy DstNarrow(ActionSpaceKind::Discrete, CC.CodeDim, {8}, 7, 5, R);
  EXPECT_EQ(ModelSerializer::tryLoad(Path, DstE, DstNarrow, nullptr,
                                     nullptr, &Error),
            LoadStatus::ArchMismatch);

  // And a bare file must not load into a widened policy.
  Policy NarrowPol(ActionSpaceKind::Discrete, CC.CodeDim, {8}, 7, 5, R);
  ASSERT_TRUE(ModelSerializer::save(Path, Wide, NarrowPol, ModelMeta(),
                                    &Error))
      << Error;
  EXPECT_EQ(ModelSerializer::tryLoad(Path, DstE, DstWide, nullptr, nullptr,
                                     &Error),
            LoadStatus::ArchMismatch);
}

// --- Legality feature vector -------------------------------------------------

TEST(Features, LayoutAndNormalization) {
  const TargetInfo TI; // MaxVF 64 -> log2 denom 6.
  LegalityDigest D;
  D.MaxSafeVF = 8;
  D.ClassCount[static_cast<int>(AccessClass::Consecutive)] = 3;
  D.ClassCount[static_cast<int>(AccessClass::Gather)] = 1;
  D.HasReduction = 1;
  D.IfConvertible = 0;
  double F[NumLegalityFeatures];
  legalityFeatures(D, TI, F);
  EXPECT_DOUBLE_EQ(F[static_cast<int>(AccessClass::Uniform)], 0.0);
  EXPECT_DOUBLE_EQ(F[static_cast<int>(AccessClass::Consecutive)], 0.75);
  EXPECT_DOUBLE_EQ(F[static_cast<int>(AccessClass::Gather)], 0.25);
  EXPECT_DOUBLE_EQ(F[4], 3.0 / 6.0); // log2(8) / log2(64).
  EXPECT_DOUBLE_EQ(F[5], 1.0);
  EXPECT_DOUBLE_EQ(F[6], 0.0);
}

} // namespace
