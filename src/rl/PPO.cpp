//===- rl/PPO.cpp - Proximal Policy Optimization ---------------------------===//

#include "rl/PPO.h"

#include "rl/StateFeatures.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

using namespace nv;

void PPOConfig::validate() const {
  if (BatchSize <= 0)
    throw std::invalid_argument("PPOConfig: BatchSize must be positive");
  if (MiniBatchSize <= 0)
    throw std::invalid_argument("PPOConfig: MiniBatchSize must be positive");
  if (MiniBatchSize > BatchSize)
    throw std::invalid_argument(
        "PPOConfig: MiniBatchSize must not exceed BatchSize");
  if (Epochs <= 0)
    throw std::invalid_argument("PPOConfig: Epochs must be positive");
  if (ClipEps <= 0.0)
    throw std::invalid_argument("PPOConfig: ClipEps must be positive");
  if (LearningRate <= 0.0)
    throw std::invalid_argument("PPOConfig: LearningRate must be positive");
  if (MaxGradNorm <= 0.0)
    throw std::invalid_argument("PPOConfig: MaxGradNorm must be positive");
  if (EntropyCoef < 0.0 || FinalEntropyCoef < 0.0)
    throw std::invalid_argument(
        "PPOConfig: entropy coefficients must be non-negative");
}

PPORunner::PPORunner(VectorizationEnv &Env, Code2Vec &Embedder, Policy &Pol,
                     const PPOConfig &Config, uint64_t Seed)
    : Env(Env), Embedder(Embedder), Pol(Pol), Config(Config),
      Optimizer(Config.LearningRate), Rng(Seed) {
  Config.validate();
}

std::vector<Param *> PPORunner::trainableParams() {
  std::vector<Param *> AllParams = Pol.params();
  for (Param *P : Embedder.params())
    AllParams.push_back(P);
  return AllParams;
}

std::vector<Transition> PPORunner::collectBatch() {
  std::vector<Transition> Batch;
  Batch.reserve(Config.BatchSize);
  const TargetInfo &TI = Env.compiler().target();

  while (static_cast<int>(Batch.size()) < Config.BatchSize) {
    const size_t SampleIdx = Rng.nextBounded(Env.size());
    const EnvSample &Sample = Env.sample(SampleIdx);
    const size_t NumSites = Sample.Sites.size();

    // Encode all sites of this program and act on each. Rollout forwards
    // never backprop (update() re-forwards per minibatch), so skip the
    // backward caches.
    Embedder.encodeBatchInto(Sample.Contexts, StatesBuf, MathPool);
    DigestBuf.clear();
    for (size_t S = 0; S < NumSites; ++S)
      DigestBuf.push_back(Env.legality(SampleIdx, S).digest());
    const Matrix &States =
        widenStates(StatesBuf, Pol.inputDim(), DigestBuf.data(),
                    DigestBuf.size(), TI, WideStatesBuf);
    Pol.forward(States, MathPool, /*ForBackward=*/false);

    std::vector<VectorPlan> Plans(NumSites);
    std::vector<ActionRecord> Actions(NumSites);
    for (size_t S = 0; S < NumSites; ++S) {
      const PlanMask &Mask = Env.actionMask(SampleIdx, S);
      Actions[S] = Pol.sampleAction(static_cast<int>(S), Rng, &Mask);
      Plans[S] = Pol.toPlan(Actions[S], TI);
    }
    const double Reward = Env.step(SampleIdx, Plans);

    for (size_t S = 0; S < NumSites; ++S) {
      Transition T;
      T.SampleIdx = SampleIdx;
      T.SiteIdx = S;
      T.Action = Actions[S];
      T.Reward = Reward;
      T.Mask = Env.actionMask(SampleIdx, S);
      Batch.push_back(T);
    }
  }
  return Batch;
}

double PPORunner::update(const std::vector<Transition> &Batch,
                         double EntropyCoef) {
  const int B = static_cast<int>(Batch.size());

  // Advantages from the sampling-time critic (single-step episodes:
  // A = r - V(s)).
  std::vector<double> Advantages(B);
  for (int I = 0; I < B; ++I)
    Advantages[I] = Batch[I].Reward - Batch[I].Action.Value;
  if (Config.NormalizeAdvantages && B > 1) {
    const double Mean = nv::mean(Advantages);
    double Std = nv::stddev(Advantages);
    if (Std < 1e-6)
      Std = 1.0;
    for (double &A : Advantages)
      A = (A - Mean) / Std;
  }

  // Borrow each transition's context bag in place (the environment does
  // not change during an update) and gather its legality digest, for
  // feature-widened policies, once. Each (sample, site) gets a dense key so
  // a minibatch can encode every distinct site once.
  std::vector<int> FirstSite(Env.size() + 1, 0);
  for (size_t S = 0; S < Env.size(); ++S)
    FirstSite[S + 1] =
        FirstSite[S] + static_cast<int>(Env.sample(S).Sites.size());
  std::vector<ContextSpan> Spans;
  std::vector<int> SiteKeys;
  std::vector<LegalityDigest> Digests;
  Spans.reserve(B);
  SiteKeys.reserve(B);
  Digests.reserve(B);
  for (const Transition &T : Batch) {
    const std::vector<PathContext> &Bag =
        Env.sample(T.SampleIdx).Contexts[T.SiteIdx];
    Spans.push_back({Bag.data(), Bag.size()});
    SiteKeys.push_back(FirstSite[T.SampleIdx] + static_cast<int>(T.SiteIdx));
    Digests.push_back(Env.legality(T.SampleIdx, T.SiteIdx).digest());
  }

  std::vector<Param *> AllParams = trainableParams();

  // Minibatched SGD epochs over the batch (RLlib-style).
  std::vector<int> Order(B);
  for (int I = 0; I < B; ++I)
    Order[I] = I;
  const int MB = std::max(1, std::min(Config.MiniBatchSize, B));

  // Per-minibatch dedup: the encode slot of each site key (-1 = not yet
  // encoded in this minibatch), the distinct bags, and each row's slot.
  std::vector<int> SlotOfKey(FirstSite.back(), -1);
  std::vector<ContextSpan> UniqueSpans;
  std::vector<int> SlotOfRow;

  double TotalLoss = 0.0;
  int NumMinibatches = 0;
  for (int Epoch = 0; Epoch < Config.Epochs; ++Epoch) {
    Rng.shuffle(Order);
    for (int Start = 0; Start < B; Start += MB) {
      const int End = std::min(Start + MB, B);
      const int M = End - Start;

      for (Param *P : AllParams)
        P->zeroGrad();

      // Encode each distinct site once; its rows share the forward cache
      // (encoding is deterministic, so every copy has the same bits).
      UniqueSpans.clear();
      SlotOfRow.resize(M);
      DigestBuf.clear();
      for (int I = 0; I < M; ++I) {
        const int Row = Order[Start + I];
        int &Slot = SlotOfKey[SiteKeys[Row]];
        if (Slot < 0) {
          Slot = static_cast<int>(UniqueSpans.size());
          UniqueSpans.push_back(Spans[Row]);
        }
        SlotOfRow[I] = Slot;
        DigestBuf.push_back(Digests[Row]);
      }
      for (int I = Start; I < End; ++I)
        SlotOfKey[SiteKeys[Order[I]]] = -1;
      Embedder.encodeSpansForBackwardInto(UniqueSpans, UniqueStatesBuf,
                                          MathPool);
      const int CodeDim = UniqueStatesBuf.cols();
      StatesBuf.resize(M, CodeDim);
      for (int I = 0; I < M; ++I) {
        const double *Code = UniqueStatesBuf.rowPtr(SlotOfRow[I]);
        std::copy(Code, Code + CodeDim, StatesBuf.rowPtr(I));
      }
      const Matrix &States = widenStates(
          StatesBuf, Pol.inputDim(), DigestBuf.data(), DigestBuf.size(),
          Env.compiler().target(), WideStatesBuf);
      Pol.forward(States, MathPool);

      std::vector<ActionRecord> Actions(M);
      std::vector<PlanMask> Masks(M);
      std::vector<double> dLogProb(M, 0.0), dValue(M, 0.0);
      double PolicyLoss = 0.0, ValueLoss = 0.0, EntropyTerm = 0.0;
      for (int I = 0; I < M; ++I) {
        const Transition &T = Batch[Order[Start + I]];
        Actions[I] = T.Action;
        Masks[I] = T.Mask;
        const PlanMask *Mask = T.Mask.empty() ? nullptr : &Masks[I];
        const double LogPNew = Pol.logProb(I, Actions[I], Mask);
        const double Ratio = std::exp(
            std::clamp(LogPNew - T.Action.LogProb, -20.0, 20.0));
        const double A = Advantages[Order[Start + I]];
        const double Unclipped = Ratio * A;
        const double Clipped =
            std::clamp(Ratio, 1.0 - Config.ClipEps, 1.0 + Config.ClipEps) *
            A;
        PolicyLoss += -std::min(Unclipped, Clipped);
        // Gradient flows only through the unclipped branch when active.
        if (Unclipped <= Clipped)
          dLogProb[I] = -A * Ratio / M;

        const double V = Pol.value(I);
        ValueLoss += 0.5 * (V - T.Reward) * (V - T.Reward);
        dValue[I] = Config.ValueCoef * (V - T.Reward) / M;

        EntropyTerm += Pol.entropy(I, Mask, Actions[I].VFIdx);
      }
      PolicyLoss /= M;
      ValueLoss /= M;
      EntropyTerm /= M;
      TotalLoss += PolicyLoss + Config.ValueCoef * ValueLoss -
                   EntropyCoef * EntropyTerm;
      ++NumMinibatches;

      Matrix dStates =
          Pol.backward(Actions, dLogProb, dValue, EntropyCoef / M, &Masks);
      if (dStates.cols() > StatesBuf.cols()) {
        // The legality-feature columns are analysis inputs, not learned
        // state: drop their gradient and backprop the embedding block.
        NarrowGradBuf.resize(dStates.rows(), StatesBuf.cols());
        for (int R = 0; R < dStates.rows(); ++R)
          std::copy(dStates.rowPtr(R), dStates.rowPtr(R) + StatesBuf.cols(),
                    NarrowGradBuf.rowPtr(R));
        Embedder.backward(NarrowGradBuf, SlotOfRow);
      } else {
        Embedder.backward(dStates, SlotOfRow);
      }
      clipGradNorm(AllParams, Config.MaxGradNorm);
      Optimizer.step(AllParams);
    }
  }
  return TotalLoss / std::max(1, NumMinibatches);
}

double PPORunner::trainOnBatch(const std::vector<Transition> &Batch,
                               double EntropyCoef) {
  assert(!Batch.empty() && "trainOnBatch() requires a non-empty batch");
  double BatchReward = 0.0;
  for (const Transition &T : Batch)
    BatchReward += T.Reward;
  BatchReward /= static_cast<double>(Batch.size());
  RewardEMA.add(BatchReward);
  return update(Batch, EntropyCoef);
}

TrainStats PPORunner::train(long long TotalSteps) {
  assert(Env.size() > 0 && "environment has no samples");
  TrainStats Stats;
  long long Steps = 0;
  while (Steps < TotalSteps) {
    std::vector<Transition> Batch = collectBatch();
    Steps += Config.BatchSize;

    // Linear entropy annealing across the training budget.
    const double Progress =
        std::min(1.0, static_cast<double>(Steps) /
                          std::max<long long>(1, TotalSteps));
    const double EntropyCoef =
        Config.EntropyCoef +
        (Config.FinalEntropyCoef - Config.EntropyCoef) * Progress;
    const double Loss = trainOnBatch(Batch, EntropyCoef);
    Stats.RewardMean.add(static_cast<double>(Steps), RewardEMA.value());
    Stats.Loss.add(static_cast<double>(Steps), Loss);
    Stats.FinalRewardMean = RewardEMA.value();
  }
  Stats.Steps = Steps;
  return Stats;
}

VectorPlan PPORunner::predict(const std::vector<PathContext> &Contexts) {
  Embedder.encodeBatchInto({Contexts}, StatesBuf, MathPool);
  // Raw-bag inference has no loop analysis: feature columns are zeros.
  const Matrix &States =
      widenStates(StatesBuf, Pol.inputDim(), nullptr, 0,
                  Env.compiler().target(), WideStatesBuf);
  Pol.forward(States, MathPool, /*ForBackward=*/false);
  return Pol.toPlan(Pol.greedyAction(0), Env.compiler().target());
}

std::vector<VectorPlan> PPORunner::predictSample(size_t Index) {
  const EnvSample &Sample = Env.sample(Index);
  Embedder.encodeBatchInto(Sample.Contexts, StatesBuf, MathPool);
  DigestBuf.clear();
  for (size_t S = 0; S < Sample.Sites.size(); ++S)
    DigestBuf.push_back(Env.legality(Index, S).digest());
  const Matrix &States =
      widenStates(StatesBuf, Pol.inputDim(), DigestBuf.data(),
                  DigestBuf.size(), Env.compiler().target(), WideStatesBuf);
  Pol.forward(States, MathPool, /*ForBackward=*/false);
  std::vector<VectorPlan> Plans;
  Plans.reserve(Sample.Sites.size());
  for (size_t S = 0; S < Sample.Sites.size(); ++S) {
    const PlanMask &Mask = Env.actionMask(Index, S);
    Plans.push_back(Pol.toPlan(Pol.greedyAction(static_cast<int>(S), &Mask),
                               Env.compiler().target()));
  }
  return Plans;
}
