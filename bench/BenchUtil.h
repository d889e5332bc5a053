//===- bench/BenchUtil.h - Shared bench harness helpers ---------*- C++ -*-===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared setup for the figure-reproduction benches: a tuned training
/// configuration (the paper's 64x64 FCNN and discrete action space, with
/// learning rate and batch scaled to this reproduction's much smaller
/// compute budget — see benchConfig()) and a standard synthetic training
/// set.
///
//===----------------------------------------------------------------------===//

#ifndef NV_BENCH_BENCHUTIL_H
#define NV_BENCH_BENCHUTIL_H

#include "core/NeuroVectorizer.h"
#include "dataset/LoopGenerator.h"

#include <iostream>
#include <memory>
#include <string>
#include <vector>

namespace nv {

/// Training configuration tuned for bench-scale budgets (minutes, not the
/// paper's cluster-hours): smaller batches with more SGD updates and a
/// larger Adam step.
inline NeuroVectorizerConfig benchConfig() {
  NeuroVectorizerConfig Config;
  Config.PPO.BatchSize = 256;
  Config.PPO.MiniBatchSize = 64;
  Config.PPO.LearningRate = 2e-3;
  Config.PPO.EntropyCoef = 0.05;
  return Config;
}

/// Builds a framework instance preloaded with \p NumPrograms synthetic
/// training loops (§3.2 generator).
inline std::unique_ptr<NeuroVectorizer>
makeTrainedVectorizer(int NumPrograms, long long TrainSteps,
                      uint64_t Seed = 42,
                      NeuroVectorizerConfig Config = benchConfig()) {
  Config.Seed = Seed;
  auto NV = std::make_unique<NeuroVectorizer>(Config);
  LoopGenerator Gen(Seed);
  for (const GeneratedLoop &L : Gen.generateMany(NumPrograms))
    NV->addTrainingProgram(L.Name, L.Source);
  if (TrainSteps > 0)
    NV->train(TrainSteps);
  return NV;
}

} // namespace nv

#endif // NV_BENCH_BENCHUTIL_H
