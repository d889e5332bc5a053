//===- tests/TrainTest.cpp - train/ subsystem tests -----------------------===//
//
// The reproducibility contract of the training subsystem:
//  (a) checkpoint -> resume reproduces the uninterrupted run bit-for-bit,
//  (b) 1-worker and N-worker training with the same seed reach the same
//      final policy (bitwise),
//  (c) curriculum stages advance on trigger and the sample mix widens
//      accordingly,
// plus rollout determinism, checkpoint validation, and evaluator checks.
//
//===----------------------------------------------------------------------===//

#include "core/NeuroVectorizer.h"
#include "dataset/LoopGenerator.h"
#include "train/Checkpoint.h"
#include "train/Curriculum.h"
#include "train/Evaluator.h"
#include "train/RolloutWorkers.h"
#include "train/Trainer.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>

using namespace nv;

namespace {

/// Small-but-real model so training tests run in well under a second each.
NeuroVectorizerConfig smallConfig() {
  NeuroVectorizerConfig Config;
  Config.Embedding.CodeDim = 16;
  Config.Embedding.TokenDim = 8;
  Config.Embedding.PathDim = 8;
  Config.Hidden = {32, 32};
  Config.PPO.BatchSize = 64;
  Config.PPO.MiniBatchSize = 32;
  Config.PPO.LearningRate = 3e-3;
  Config.Seed = 21;
  return Config;
}

/// A tiny two-stage curriculum with a deterministic step trigger.
CurriculumConfig testCurriculum() {
  CurriculumConfig Config;
  Config.Seed = 77;
  CurriculumStageConfig Easy;
  Easy.Name = "easy";
  Easy.Templates = {5, 6};
  Easy.GeneratedCount = 4;
  Easy.AdvanceSteps = 128; // Two 64-step batches.
  Config.Stages.push_back(Easy);
  CurriculumStageConfig Full;
  Full.Name = "full";
  Full.Templates = {0, 1, 8, 9};
  Full.GeneratedCount = 4;
  Config.Stages.push_back(Full);
  return Config;
}

/// Every learnable weight, flattened — bitwise equality of two blobs means
/// two training runs produced the identical model.
std::vector<double> weightsOf(NeuroVectorizer &NV) {
  std::vector<double> Blob;
  for (Param *P : NV.runner().trainableParams())
    Blob.insert(Blob.end(), P->Value.raw().begin(), P->Value.raw().end());
  return Blob;
}

std::string tmpPath(const std::string &Name) {
  return ::testing::TempDir() + Name;
}

void expectSameTransitions(const RolloutBuffer &A, const RolloutBuffer &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    const Transition &TA = A.Transitions[I];
    const Transition &TB = B.Transitions[I];
    EXPECT_EQ(TA.SampleIdx, TB.SampleIdx);
    EXPECT_EQ(TA.SiteIdx, TB.SiteIdx);
    EXPECT_EQ(TA.Reward, TB.Reward);
    EXPECT_EQ(TA.Action.VFIdx, TB.Action.VFIdx);
    EXPECT_EQ(TA.Action.IFIdx, TB.Action.IFIdx);
    EXPECT_EQ(TA.Action.LogProb, TB.Action.LogProb);
    EXPECT_EQ(TA.Action.Value, TB.Action.Value);
  }
}

//===----------------------------------------------------------------------===//
// Rollout workers.
//===----------------------------------------------------------------------===//

struct MasterModel {
  RNG Rng;
  Code2Vec Embedder;
  Policy Pol;

  explicit MasterModel(const RolloutModelSpec &Spec, uint64_t Seed)
      : Rng(Seed), Embedder(Spec.Embedding, Rng),
        Pol(Spec.ActionSpace, Embedder.codeDim(), Spec.Hidden, Spec.NumVF,
            Spec.NumIF, Rng) {}
};

RolloutModelSpec smallSpec() {
  RolloutModelSpec Spec;
  Spec.Embedding.CodeDim = 16;
  Spec.Embedding.TokenDim = 8;
  Spec.Embedding.PathDim = 8;
  Spec.Hidden = {32, 32};
  Spec.NumVF = 7;
  Spec.NumIF = 5;
  return Spec;
}

void fillEnv(VectorizationEnv &Env, int Count, uint64_t Seed = 5) {
  LoopGenerator Gen(Seed);
  while (static_cast<int>(Env.size()) < Count) {
    GeneratedLoop L = Gen.generate();
    Env.addProgram(L.Name, L.Source);
  }
}

TEST(RolloutWorkers, FillsRequestedBatch) {
  VectorizationEnv Env{SimCompiler(), PathContextConfig()};
  fillEnv(Env, 8);
  RolloutModelSpec Spec = smallSpec();
  MasterModel Master(Spec, 3);
  RolloutWorkers Workers(Env, Spec, 2);
  RolloutBuffer Buffer;
  Workers.collect(Master.Embedder, Master.Pol, RNG(42), Env.size(), 100,
                  Buffer);
  EXPECT_GE(Buffer.size(), 100u);
  for (const Transition &T : Buffer.Transitions) {
    EXPECT_LT(T.SampleIdx, Env.size());
    EXPECT_LT(T.SiteIdx, Env.sample(T.SampleIdx).Sites.size());
    EXPECT_GE(T.Reward, VectorizationEnv::TimeoutPenalty);
  }
}

TEST(RolloutWorkers, DeterministicAcrossWorkerCounts) {
  VectorizationEnv Env{SimCompiler(), PathContextConfig()};
  fillEnv(Env, 10);
  RolloutModelSpec Spec = smallSpec();
  MasterModel Master(Spec, 3);

  RolloutBuffer One, Four;
  RolloutWorkers W1(Env, Spec, 1);
  W1.collect(Master.Embedder, Master.Pol, RNG(42), Env.size(), 256, One);
  RolloutWorkers W4(Env, Spec, 4);
  W4.collect(Master.Embedder, Master.Pol, RNG(42), Env.size(), 256, Four);
  expectSameTransitions(One, Four);
}

TEST(RolloutWorkers, DifferentBaseStatesGiveDifferentBatches) {
  VectorizationEnv Env{SimCompiler(), PathContextConfig()};
  fillEnv(Env, 10);
  RolloutModelSpec Spec = smallSpec();
  MasterModel Master(Spec, 3);
  RolloutWorkers Workers(Env, Spec, 2);

  RolloutBuffer A, B;
  Workers.collect(Master.Embedder, Master.Pol, RNG(42), Env.size(), 128, A);
  Workers.collect(Master.Embedder, Master.Pol, RNG(43), Env.size(), 128, B);
  bool Differs = A.size() != B.size();
  for (size_t I = 0; !Differs && I < A.size(); ++I)
    Differs = A.Transitions[I].SampleIdx != B.Transitions[I].SampleIdx ||
              A.Transitions[I].Action.LogProb !=
                  B.Transitions[I].Action.LogProb;
  EXPECT_TRUE(Differs);
}

TEST(RolloutWorkers, ReusedWorkersReencodeAfterAWeightChange) {
  // Workers memoize code vectors within one collect(); after the master
  // weights move, a reused pool must roll out like a fresh one.
  VectorizationEnv Env{SimCompiler(), PathContextConfig()};
  fillEnv(Env, 6);
  RolloutModelSpec Spec = smallSpec();
  MasterModel Master(Spec, 3);
  RolloutWorkers Reused(Env, Spec, 2);
  RolloutBuffer Before, After, Fresh;
  Reused.collect(Master.Embedder, Master.Pol, RNG(42), Env.size(), 64,
                 Before);
  for (Param *P : Master.Embedder.params())
    P->Value *= 1.5;
  Reused.collect(Master.Embedder, Master.Pol, RNG(42), Env.size(), 64, After);
  RolloutWorkers(Env, Spec, 2)
      .collect(Master.Embedder, Master.Pol, RNG(42), Env.size(), 64, Fresh);
  expectSameTransitions(After, Fresh);
}

//===----------------------------------------------------------------------===//
// Curriculum.
//===----------------------------------------------------------------------===//

TEST(Curriculum, MaterializationIsDeterministic) {
  Curriculum A(testCurriculum()), B(testCurriculum());
  ASSERT_EQ(A.numStages(), B.numStages());
  for (int S = 0; S < A.numStages(); ++S) {
    ASSERT_EQ(A.stagePrograms(S).size(), B.stagePrograms(S).size());
    for (size_t I = 0; I < A.stagePrograms(S).size(); ++I)
      EXPECT_EQ(A.stagePrograms(S)[I].Source, B.stagePrograms(S)[I].Source);
  }
}

TEST(Curriculum, AdvancesOnStepTriggerAndWidensMix) {
  Curriculum Cur(testCurriculum());
  VectorizationEnv Env{SimCompiler(), PathContextConfig()};
  Cur.activate(Env);
  const size_t Stage0Count = Env.size();
  EXPECT_EQ(Stage0Count, 4u);
  EXPECT_EQ(Cur.stage(), 0);

  // Reward far below the threshold: only the step trigger can fire.
  EXPECT_FALSE(Cur.observe(-5.0, 64, Env));
  EXPECT_EQ(Env.size(), Stage0Count);
  EXPECT_TRUE(Cur.observe(-5.0, 64, Env)); // 128 steps reached.
  EXPECT_EQ(Cur.stage(), 1);
  EXPECT_EQ(Cur.stepsInStage(), 0);
  ASSERT_GT(Env.size(), Stage0Count);

  // The widened mix must actually be sampled: a batch over the grown env
  // contains programs beyond the stage-0 prefix.
  RolloutModelSpec Spec = smallSpec();
  MasterModel Master(Spec, 3);
  RolloutWorkers Workers(Env, Spec, 2);
  RolloutBuffer Buffer;
  Workers.collect(Master.Embedder, Master.Pol, RNG(7), Env.size(), 256,
                  Buffer);
  bool SawStage1 = false;
  for (const Transition &T : Buffer.Transitions)
    SawStage1 |= T.SampleIdx >= Stage0Count;
  EXPECT_TRUE(SawStage1);
}

TEST(Curriculum, AdvancesOnRewardTrigger) {
  CurriculumConfig Config = testCurriculum();
  Config.Stages[0].AdvanceReward = 0.2;
  Config.Stages[0].AdvanceSteps = 1 << 30;
  Curriculum Cur(Config);
  VectorizationEnv Env{SimCompiler(), PathContextConfig()};
  Cur.activate(Env);
  EXPECT_FALSE(Cur.observe(0.19, 64, Env));
  EXPECT_TRUE(Cur.observe(0.25, 64, Env));
  EXPECT_EQ(Cur.stage(), 1);
}

TEST(Curriculum, LastStageNeverAdvances) {
  Curriculum Cur(testCurriculum());
  VectorizationEnv Env{SimCompiler(), PathContextConfig()};
  Cur.activate(Env);
  ASSERT_TRUE(Cur.observe(-5.0, 128, Env)); // -> stage 1 (step trigger).
  const size_t Size = Env.size();
  for (int I = 0; I < 10; ++I)
    EXPECT_FALSE(Cur.observe(1e9, 1 << 20, Env));
  EXPECT_EQ(Cur.stage(), 1);
  EXPECT_EQ(Env.size(), Size);
}

//===----------------------------------------------------------------------===//
// Evaluator.
//===----------------------------------------------------------------------===//

TEST(Evaluator, ProducesPerSuiteTables) {
  Evaluator Eval{SimCompiler(), PathContextConfig()};
  EXPECT_EQ(Eval.addSuite("vectorizer", vectorizerTestSuite()), 15u);
  RolloutModelSpec Spec = smallSpec();
  MasterModel Master(Spec, 9);
  EvalReport Report = Eval.evaluate(Master.Embedder, Master.Pol);
  ASSERT_EQ(Report.Suites.size(), 1u);
  EXPECT_EQ(Report.NumPrograms, 15u);
  EXPECT_EQ(Report.Suites[0].Programs.size(), 15u);
  for (const EvalProgram &P : Report.Suites[0].Programs) {
    EXPECT_GE(P.Reward, VectorizationEnv::TimeoutPenalty);
    EXPECT_GT(P.Speedup, 0.0);
  }
  EXPECT_EQ(Report.summaryTable().numRows(), 1u);
  EXPECT_EQ(Report.programTable().numRows(), 15u);
  // Greedy evaluation is deterministic.
  EvalReport Again = Eval.evaluate(Master.Embedder, Master.Pol);
  EXPECT_EQ(Report.MeanReward, Again.MeanReward);
}

//===----------------------------------------------------------------------===//
// Checkpointing.
//===----------------------------------------------------------------------===//

TEST(Checkpoint, RoundTripRestoresEverything) {
  NeuroVectorizer A(smallConfig());
  fillEnv(A.env(), 6);
  A.train(128); // Touch weights, optimizer, RNG, and EMA.
  TrainProgress Progress;
  Progress.StepsDone = 128;
  Progress.BatchesDone = 2;
  Progress.BestEvalReward = 0.25;
  Progress.RewardEMAValue = A.runner().rewardEMA().value();
  Progress.RewardEMASeen = true;
  Progress.Stage = {1, 64};
  const std::string Path = tmpPath("roundtrip.nvck");
  std::string Error;
  ASSERT_TRUE(TrainCheckpoint::save(Path, A.runner(), Progress, &Error))
      << Error;

  NeuroVectorizer B(smallConfig());
  fillEnv(B.env(), 6);
  TrainProgress Loaded;
  ASSERT_TRUE(TrainCheckpoint::load(Path, B.runner(), Loaded, &Error))
      << Error;
  EXPECT_EQ(weightsOf(A), weightsOf(B));
  EXPECT_EQ(Loaded.StepsDone, 128);
  EXPECT_EQ(Loaded.BatchesDone, 2);
  EXPECT_EQ(Loaded.BestEvalReward, 0.25);
  EXPECT_EQ(Loaded.Stage.Stage, 1);
  EXPECT_EQ(Loaded.Stage.StepsInStage, 64);
  EXPECT_EQ(B.runner().rewardEMA().value(),
            A.runner().rewardEMA().value());
  EXPECT_EQ(B.runner().optimizer().stepCount(),
            A.runner().optimizer().stepCount());
  // Both RNGs resume the identical sequence.
  EXPECT_EQ(A.runner().rng().next(), B.runner().rng().next());
  std::remove(Path.c_str());
}

TEST(Checkpoint, CorruptFileLeavesRunnerUntouched) {
  NeuroVectorizer A(smallConfig());
  fillEnv(A.env(), 4);
  A.train(64);
  const std::string Path = tmpPath("corrupt.nvck");
  std::string Error;
  ASSERT_TRUE(TrainCheckpoint::save(Path, A.runner(), TrainProgress(),
                                    &Error));
  // Flip one payload byte.
  {
    std::fstream F(Path, std::ios::in | std::ios::out | std::ios::binary);
    F.seekp(64);
    char Byte = 0;
    F.seekg(64);
    F.read(&Byte, 1);
    Byte ^= 0x5A;
    F.seekp(64);
    F.write(&Byte, 1);
  }
  NeuroVectorizer B(smallConfig());
  fillEnv(B.env(), 4);
  const std::vector<double> Before = weightsOf(B);
  TrainProgress Progress;
  EXPECT_FALSE(TrainCheckpoint::load(Path, B.runner(), Progress, &Error));
  EXPECT_NE(Error.find("checksum"), std::string::npos) << Error;
  EXPECT_EQ(weightsOf(B), Before);
  std::remove(Path.c_str());
}

TEST(Checkpoint, ArchitectureMismatchRejected) {
  NeuroVectorizer A(smallConfig());
  fillEnv(A.env(), 4);
  const std::string Path = tmpPath("mismatch.nvck");
  std::string Error;
  ASSERT_TRUE(TrainCheckpoint::save(Path, A.runner(), TrainProgress(),
                                    &Error));
  NeuroVectorizerConfig Other = smallConfig();
  Other.Hidden = {16};
  NeuroVectorizer B(Other);
  fillEnv(B.env(), 4);
  TrainProgress Progress;
  EXPECT_FALSE(TrainCheckpoint::load(Path, B.runner(), Progress, &Error));
  EXPECT_NE(Error.find("mismatch"), std::string::npos) << Error;
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Trainer: the three headline reproducibility guarantees.
//===----------------------------------------------------------------------===//

TEST(Trainer, WorkerCountDoesNotChangeTheFinalPolicy) {
  auto runWith = [](int Workers) {
    NeuroVectorizer NV(smallConfig());
    fillEnv(NV.env(), 6);
    TrainerConfig Config;
    Config.NumWorkers = Workers;
    Config.TotalSteps = 3 * 64;
    NV.trainParallel(Config);
    return NV;
  };
  NeuroVectorizer One = runWith(1);
  NeuroVectorizer Four = runWith(4);
  EXPECT_EQ(weightsOf(One), weightsOf(Four));
}

TEST(Trainer, ResumeReproducesUninterruptedRunBitForBit) {
  TrainerConfig Base;
  Base.NumWorkers = 2;
  Base.TotalSteps = 6 * 64;
  Base.Curriculum = testCurriculum();
  Base.CheckpointEveryBatches = 2;

  // Uninterrupted reference run (checkpointing on: writing checkpoints
  // must not perturb training).
  NeuroVectorizer A(smallConfig());
  TrainerConfig ConfigA = Base;
  ConfigA.CheckpointPath = tmpPath("ref.nvck");
  TrainReport ReportA = A.trainParallel(ConfigA);
  EXPECT_FALSE(ReportA.Interrupted);
  EXPECT_EQ(ReportA.Stats.Steps, Base.TotalSteps);

  // "Killed" after 3 of 6 batches...
  NeuroVectorizer B(smallConfig());
  TrainerConfig ConfigB = Base;
  ConfigB.CheckpointPath = tmpPath("killed.nvck");
  ConfigB.MaxStepsThisRun = 3 * 64;
  TrainReport ReportB = B.trainParallel(ConfigB);
  EXPECT_TRUE(ReportB.Interrupted);
  EXPECT_NE(weightsOf(A), weightsOf(B));

  // ...and resumed in a fresh process (fresh instance, empty env: the
  // curriculum cursor replays the training distribution).
  NeuroVectorizer C(smallConfig());
  TrainerConfig ConfigC = Base;
  ConfigC.CheckpointPath = ConfigB.CheckpointPath;
  ConfigC.Resume = true;
  TrainReport ReportC = C.trainParallel(ConfigC);
  EXPECT_TRUE(ReportC.Resumed);
  EXPECT_FALSE(ReportC.Interrupted);
  EXPECT_EQ(ReportC.Stats.Steps, Base.TotalSteps);
  EXPECT_EQ(ReportC.BatchesRun, 3);

  EXPECT_EQ(weightsOf(A), weightsOf(C));
  EXPECT_EQ(A.runner().rng().next(), C.runner().rng().next());
  EXPECT_EQ(A.runner().rewardEMA().value(), C.runner().rewardEMA().value());

  std::remove(ConfigA.CheckpointPath.c_str());
  std::remove(ConfigB.CheckpointPath.c_str());
}

TEST(Trainer, RotatedCheckpointsSurviveACorruptNewestGeneration) {
  // With rotation on, a checkpoint that gets corrupted on disk costs
  // CheckpointEveryBatches of progress, not the whole run: resume falls
  // back to the newest *loadable* generation and still reproduces the
  // uninterrupted run bit-for-bit from there.
  TrainerConfig Base;
  Base.NumWorkers = 2;
  Base.TotalSteps = 6 * 64;
  Base.Curriculum = testCurriculum();
  Base.CheckpointEveryBatches = 2;
  Base.CheckpointKeep = 3;

  NeuroVectorizer A(smallConfig());
  TrainerConfig ConfigA = Base;
  ConfigA.CheckpointPath = tmpPath("rot_ref.nvck");
  A.trainParallel(ConfigA);

  // Killed after 3 of 6 batches: rotation leaves batch 3 at Path and
  // batch 2 at Path.1, each individually loadable.
  NeuroVectorizer B(smallConfig());
  TrainerConfig ConfigB = Base;
  ConfigB.CheckpointPath = tmpPath("rot_killed.nvck");
  ConfigB.MaxStepsThisRun = 3 * 64;
  TrainReport ReportB = B.trainParallel(ConfigB);
  EXPECT_TRUE(ReportB.Interrupted);
  const std::string Prev = ConfigB.CheckpointPath + ".1";
  {
    NeuroVectorizer Probe(smallConfig());
    TrainProgress Progress;
    std::string Error;
    ASSERT_TRUE(TrainCheckpoint::load(ConfigB.CheckpointPath,
                                      Probe.runner(), Progress, &Error))
        << Error;
    EXPECT_EQ(Progress.BatchesDone, 3);
    ASSERT_TRUE(
        TrainCheckpoint::load(Prev, Probe.runner(), Progress, &Error))
        << Error;
    EXPECT_EQ(Progress.BatchesDone, 2);
  }

  // Corrupt the newest generation the way a torn disk would.
  {
    std::fstream F(ConfigB.CheckpointPath,
                   std::ios::in | std::ios::out | std::ios::binary);
    F.seekp(64);
    char Byte = 0;
    F.seekg(64);
    F.read(&Byte, 1);
    Byte ^= 0x5A;
    F.seekp(64);
    F.write(&Byte, 1);
  }

  // loadNewest skips the corrupt file and reports where it landed.
  {
    NeuroVectorizer Probe(smallConfig());
    TrainProgress Progress;
    std::string LoadedFrom, Error;
    ASSERT_TRUE(TrainCheckpoint::loadNewest(
        ConfigB.CheckpointPath, Probe.runner(), Progress,
        Base.CheckpointKeep, &LoadedFrom, &Error))
        << Error;
    EXPECT_EQ(LoadedFrom, Prev);
    EXPECT_EQ(Progress.BatchesDone, 2);
  }

  // A full resume takes the same fallback and replays batches 3..6 to
  // the exact same final state as the uninterrupted reference.
  NeuroVectorizer C(smallConfig());
  TrainerConfig ConfigC = Base;
  ConfigC.CheckpointPath = ConfigB.CheckpointPath;
  ConfigC.Resume = true;
  TrainReport ReportC = C.trainParallel(ConfigC);
  EXPECT_TRUE(ReportC.Resumed);
  EXPECT_FALSE(ReportC.Interrupted);
  EXPECT_EQ(ReportC.BatchesRun, 4); // One batch redone vs. the kill point.
  EXPECT_EQ(weightsOf(A), weightsOf(C));
  EXPECT_EQ(A.runner().rng().next(), C.runner().rng().next());

  for (int K = 0; K < Base.CheckpointKeep; ++K) {
    const std::string P =
        K ? ConfigB.CheckpointPath + "." + std::to_string(K)
          : ConfigB.CheckpointPath;
    std::remove(P.c_str());
    std::remove((ConfigA.CheckpointPath +
                 (K ? "." + std::to_string(K) : "")).c_str());
  }
}

TEST(Trainer, CurriculumAdvancesDuringTraining) {
  NeuroVectorizer NV(smallConfig());
  TrainerConfig Config;
  Config.NumWorkers = 2;
  Config.TotalSteps = 4 * 64;
  Config.Curriculum = testCurriculum(); // Advances after 128 steps.
  TrainReport Report = NV.trainParallel(Config);
  EXPECT_EQ(Report.FinalStage, 1);
  // Stage 0 (4 programs) plus stage 1 (4 programs).
  EXPECT_EQ(NV.env().size(), 8u);
}

TEST(Trainer, SecondRunDoesNotDuplicateCurriculumPrograms) {
  NeuroVectorizer NV(smallConfig());
  TrainerConfig Config;
  Config.NumWorkers = 1;
  Config.TotalSteps = 4 * 64; // Far enough to reach stage 1 (both runs).
  Config.Curriculum = testCurriculum();
  NV.trainParallel(Config);
  const size_t SizeAfterFirst = NV.env().size();
  EXPECT_EQ(SizeAfterFirst, 8u); // Both stages active.
  // Train again in the same instance: the fresh Trainer's curriculum must
  // recognize its programs instead of appending duplicates.
  NV.trainParallel(Config);
  EXPECT_EQ(NV.env().size(), SizeAfterFirst);
}

TEST(Trainer, EmptyTrainingSetThrows) {
  NeuroVectorizer NV(smallConfig());
  TrainerConfig Config; // No curriculum, no programs added.
  Config.TotalSteps = 64;
  EXPECT_THROW(NV.trainParallel(Config), std::invalid_argument);
}

TEST(Trainer, TracksBestModelByEvalReward) {
  NeuroVectorizer NV(smallConfig());
  fillEnv(NV.env(), 6);
  TrainerConfig Config;
  Config.NumWorkers = 2;
  Config.TotalSteps = 2 * 64;
  Config.EvalEveryBatches = 1;
  Config.BestModelPath = tmpPath("best.nvm");
  TrainReport Report = NV.trainParallel(Config);
  EXPECT_GT(Report.BestEvalReward, -1e300);
  EXPECT_EQ(Report.FinalEval.NumPrograms, 12u); // evaluationBenchmarks().

  // The artifact is a valid model file loadable into a same-arch instance.
  NeuroVectorizer Fresh(smallConfig());
  std::string Error;
  EXPECT_TRUE(Fresh.load(Config.BestModelPath, &Error)) << Error;
  std::remove(Config.BestModelPath.c_str());
}

TEST(Trainer, SerialWrapperStillTrains) {
  // The refactored PPORunner::train() (collect + trainOnBatch) must still
  // learn the single-program bandit: regression guard for the refactor.
  NeuroVectorizer NV(smallConfig());
  ASSERT_TRUE(NV.addTrainingProgram(
      "dot", "int vec[512]; int out; void f() { int sum = 0; for (int i = "
             "0; i < 512; i++) { sum += vec[i] * vec[i]; } out = sum; }"));
  NV.train(1500);
  const double Reward =
      NV.env().step(0, NV.runner().predictSample(0));
  EXPECT_GT(Reward, 0.1);
}

} // namespace
