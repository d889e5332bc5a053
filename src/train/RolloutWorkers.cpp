//===- train/RolloutWorkers.cpp - Parallel batch collection ----------------===//

#include "train/RolloutWorkers.h"

#include "rl/StateFeatures.h"

#include <atomic>
#include <cassert>

using namespace nv;

RolloutWorkers::RolloutWorkers(const VectorizationEnv &Env,
                               const RolloutModelSpec &Spec, int NumWorkers)
    : Env(Env), Pool(NumWorkers) {
  const int Count = Pool.size(); // ThreadPool clamps to >= 1.
  Replicas.reserve(Count);
  for (int I = 0; I < Count; ++I)
    Replicas.push_back(std::make_unique<Replica>(Spec));
}

namespace {

/// Copies parameter values \p Src -> \p Dst (shapes must match: both sides
/// were built from the same spec).
void copyParams(const std::vector<Param *> &Src,
                const std::vector<Param *> &Dst) {
  assert(Src.size() == Dst.size() && "replica architecture mismatch");
  for (size_t I = 0; I < Src.size(); ++I) {
    assert(Src[I]->Value.rows() == Dst[I]->Value.rows() &&
           Src[I]->Value.cols() == Dst[I]->Value.cols() &&
           "replica parameter shape mismatch");
    Dst[I]->Value = Src[I]->Value;
  }
}

} // namespace

void RolloutWorkers::runEpisode(Replica &R, RNG Rng, size_t ActiveSamples,
                                Transition *Slots) {
  // The first draw picks the program — it must match the draw made when
  // the episode plan was laid out (same split stream, same first call).
  const size_t SampleIdx = Rng.nextBounded(ActiveSamples);
  const EnvSample &Sample = Env.sample(SampleIdx);
  const TargetInfo &TI = Env.compiler().target();
  const size_t NumSites = Sample.Sites.size();

  // Replica-owned buffers + in-place kernels: steady-state episodes do not
  // touch the heap (the worker threads are the parallelism here, so the
  // kernels themselves run serial — no nested pool). Replicas never
  // backprop, so they encode forward-only from the env's bags, once per
  // program and collect().
  Matrix &Codes = R.Codes[SampleIdx];
  if (!R.CodeValid[SampleIdx]) {
    R.SpanBuf.clear();
    for (const std::vector<PathContext> &Bag : Sample.Contexts)
      R.SpanBuf.push_back({Bag.data(), Bag.size()});
    R.Embedder.encodeSpansInto(R.SpanBuf, Codes);
    R.CodeValid[SampleIdx] = 1;
  }
  R.DigestBuf.clear();
  for (size_t S = 0; S < NumSites; ++S)
    R.DigestBuf.push_back(Env.legality(SampleIdx, S).digest());
  const Matrix &States =
      widenStates(Codes, R.Pol.inputDim(), R.DigestBuf.data(),
                  R.DigestBuf.size(), TI, R.WideStatesBuf);
  R.Pol.forward(States, nullptr, /*ForBackward=*/false);

  std::vector<VectorPlan> Plans(NumSites);
  std::vector<ActionRecord> Actions(NumSites);
  for (size_t S = 0; S < NumSites; ++S) {
    Actions[S] = R.Pol.sampleAction(static_cast<int>(S), Rng,
                                    &Env.actionMask(SampleIdx, S));
    Plans[S] = R.Pol.toPlan(Actions[S], TI);
  }
  const double Reward = Env.step(SampleIdx, Plans);

  for (size_t S = 0; S < NumSites; ++S) {
    Transition T;
    T.SampleIdx = SampleIdx;
    T.SiteIdx = S;
    T.Action = Actions[S];
    T.Reward = Reward;
    T.Mask = Env.actionMask(SampleIdx, S);
    Slots[S] = T;
  }
}

void RolloutWorkers::collect(Code2Vec &MasterEmbedder, Policy &MasterPolicy,
                             const RNG &BaseRng, size_t ActiveSamples,
                             int MinTransitions, RolloutBuffer &Out) {
  assert(ActiveSamples > 0 && ActiveSamples <= Env.size() &&
         "active sample range must be a non-empty prefix of the env");
  assert(MinTransitions > 0 && "batch must request at least one transition");

  // 1. Broadcast master weights to every replica (RLlib-style sync); code
  // vectors encoded under the old weights are stale.
  for (auto &R : Replicas) {
    copyParams(MasterEmbedder.params(), R->Embedder.params());
    copyParams(MasterPolicy.params(), R->Pol.params());
    R->Codes.resize(Env.size());
    R->CodeValid.assign(Env.size(), 0);
  }

  // 2. Lay out the episode plan serially. Each episode's stream starts by
  // picking its program, so the plan (and every slot offset) is a pure
  // function of (BaseRng state, ActiveSamples) — workers never draw from
  // shared randomness.
  struct Episode {
    size_t SampleIdx;
    size_t Offset;
  };
  std::vector<Episode> Episodes;
  size_t Total = 0;
  for (uint64_t E = 0; Total < static_cast<size_t>(MinTransitions); ++E) {
    RNG EpisodeRng = BaseRng.split(E);
    const size_t SampleIdx = EpisodeRng.nextBounded(ActiveSamples);
    Episodes.push_back({SampleIdx, Total});
    Total += Env.sample(SampleIdx).Sites.size();
  }
  Out.Transitions.assign(Total, Transition());

  // 3. Workers drain the episode list through an atomic cursor (load
  // balance adapts to uneven program sizes) and write into pre-assigned
  // disjoint slot ranges (deterministic order, no locking).
  std::atomic<size_t> Cursor{0};
  for (auto &ReplicaPtr : Replicas) {
    Replica *R = ReplicaPtr.get();
    Pool.run([this, R, &Cursor, &Episodes, &BaseRng, ActiveSamples, &Out] {
      for (size_t E; (E = Cursor.fetch_add(1)) < Episodes.size();)
        runEpisode(*R, BaseRng.split(E), ActiveSamples,
                   Out.Transitions.data() + Episodes[E].Offset);
    });
  }
  Pool.wait();
}
