//===- tests/CoreTest.cpp - end-to-end framework integration tests --------===//

#include "core/NeuroVectorizer.h"
#include "dataset/LoopGenerator.h"
#include "lang/Parser.h"

#include <gtest/gtest.h>

#include <stdexcept>

using namespace nv;

namespace {

const char *DotProduct =
    "int vec[512]; int out; void f() { int sum = 0; for (int i = 0; i < "
    "512; i++) { sum += vec[i] * vec[i]; } out = sum; }";

/// Small, fast configuration for integration tests.
NeuroVectorizerConfig testConfig() {
  NeuroVectorizerConfig Config;
  Config.PPO.BatchSize = 64;
  Config.PPO.MiniBatchSize = 32;
  Config.PPO.LearningRate = 3e-3;
  Config.PPO.EntropyCoef = 0.05;
  Config.Embedding.CodeDim = 16;
  Config.Embedding.TokenDim = 8;
  Config.Embedding.PathDim = 8;
  return Config;
}

TEST(NeuroVectorizer, AnnotateInjectsPragmas) {
  NeuroVectorizer NV(testConfig());
  ASSERT_TRUE(NV.addTrainingProgram("dot", DotProduct));
  NV.train(256); // Minimal training; we only check plumbing here.
  const std::string Annotated = NV.annotate(DotProduct);
  EXPECT_NE(Annotated.find("#pragma clang loop vectorize_width("),
            std::string::npos)
      << Annotated;
  EXPECT_NE(Annotated.find("interleave_count("), std::string::npos);
}

TEST(NeuroVectorizer, TrainedModelBeatsBaselineOnTrainingKernel) {
  NeuroVectorizer NV(testConfig());
  ASSERT_TRUE(NV.addTrainingProgram("dot", DotProduct));
  NV.train(2000);
  EXPECT_GT(NV.speedupOverBaseline(DotProduct), 1.0);
}

TEST(NeuroVectorizer, BruteForceIsAnUpperBoundForAllMethods) {
  NeuroVectorizer NV(testConfig());
  ASSERT_TRUE(NV.addTrainingProgram("dot", DotProduct));
  NV.train(512);
  NV.fitSupervised();
  const double BF =
      NV.speedupOverBaseline(DotProduct, PredictMethod::BruteForce);
  for (PredictMethod M : {PredictMethod::RL, PredictMethod::NNS,
                          PredictMethod::DecisionTree,
                          PredictMethod::Baseline}) {
    EXPECT_LE(NV.speedupOverBaseline(DotProduct, M), BF + 1e-9);
  }
  EXPECT_NEAR(
      NV.speedupOverBaseline(DotProduct, PredictMethod::Baseline), 1.0,
      1e-9);
}

TEST(NeuroVectorizer, SupervisedMethodsPredictAfterFit) {
  NeuroVectorizer NV(testConfig());
  LoopGenerator Gen(21);
  for (const GeneratedLoop &L : Gen.generateMany(20))
    NV.addTrainingProgram(L.Name, L.Source);
  NV.train(256);
  NV.fitSupervised();
  std::vector<VectorPlan> NNSPlans =
      NV.plansFor(DotProduct, PredictMethod::NNS);
  std::vector<VectorPlan> TreePlans =
      NV.plansFor(DotProduct, PredictMethod::DecisionTree);
  ASSERT_EQ(NNSPlans.size(), 1u);
  ASSERT_EQ(TreePlans.size(), 1u);
  EXPECT_GE(NNSPlans[0].VF, 1);
  EXPECT_GE(TreePlans[0].VF, 1);
}

TEST(NeuroVectorizer, MultiLoopProgramsGetOnePragmaPerSite) {
  NeuroVectorizer NV(testConfig());
  const char *TwoLoops = R"(
    float a[256]; float b[256];
    void f() {
      for (int i = 0; i < 256; i++) { a[i] = 1.0; }
      for (int i = 0; i < 256; i++) { b[i] = 2.0; }
    })";
  ASSERT_TRUE(NV.addTrainingProgram("two", TwoLoops));
  NV.train(128);
  std::vector<VectorPlan> Plans = NV.plansFor(TwoLoops);
  EXPECT_EQ(Plans.size(), 2u);
  const std::string Annotated = NV.annotate(TwoLoops);
  size_t First = Annotated.find("#pragma");
  ASSERT_NE(First, std::string::npos);
  EXPECT_NE(Annotated.find("#pragma", First + 1), std::string::npos);
}

TEST(NeuroVectorizer, AnnotatedOutputIsValidInput) {
  NeuroVectorizer NV(testConfig());
  ASSERT_TRUE(NV.addTrainingProgram("dot", DotProduct));
  NV.train(128);
  const std::string Annotated = NV.annotate(DotProduct);
  // The annotated program must itself be compilable by the framework.
  const double Cycles = NV.cyclesFor(Annotated, PredictMethod::Baseline);
  EXPECT_GT(Cycles, 0.0);
}

TEST(NeuroVectorizer, DeterministicAcrossIdenticalRuns) {
  auto Run = [&]() {
    NeuroVectorizer NV(testConfig());
    NV.addTrainingProgram("dot", DotProduct);
    NV.train(512);
    return NV.annotate(DotProduct);
  };
  EXPECT_EQ(Run(), Run());
}

} // namespace

TEST(NeuroVectorizer, UnparseableSourceThrowsTheParserMessage) {
  NeuroVectorizer NV(testConfig());
  ASSERT_TRUE(NV.addTrainingProgram("dot", DotProduct));
  // Pointer parameters are not LoopLang.
  const std::string Bad = "void f(float* x, float* y, int n) { for (int i = "
                          "0; i < n; i++) y[i] = x[i]; }";
  std::string ParserMessage;
  ASSERT_FALSE(parseSource(Bad, &ParserMessage).has_value());
  ASSERT_FALSE(ParserMessage.empty());

  const auto ExpectThrows = [&](auto Call) {
    try {
      Call();
      ADD_FAILURE() << "no exception";
    } catch (const std::invalid_argument &E) {
      EXPECT_NE(std::string(E.what()).find(ParserMessage), std::string::npos)
          << E.what();
    }
  };
  ExpectThrows([&] { NV.annotate(Bad); });
  ExpectThrows([&] { NV.plansFor(Bad); });
  ExpectThrows([&] { NV.plansFor(Bad, PredictMethod::BruteForce); });
  ExpectThrows([&] { NV.cyclesFor(Bad, PredictMethod::RL); });
  ExpectThrows([&] { NV.speedupOverBaseline(Bad, PredictMethod::RL); });

  // A program without loops parses but has nothing to time.
  EXPECT_THROW(NV.cyclesFor("int x; void f() { x = 1; }", PredictMethod::RL),
               std::invalid_argument);
}
