//===- bench/micro_components.cpp - Component micro-benchmarks -------------===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
// Throughput measurements of the pipeline stages: parsing, loop extraction
// + lowering, the machine model, path-context extraction, code2vec
// encode/backward — these bound the simulated "compilations per second"
// the RL training loop sustains — plus the batched embed+policy forward
// on the workspace kernels (nn/Kernels.h), serially and on a 4-thread
// pool, and the serving forward in fp32 and int8.
//
// A correctness guard bounds the int8 encode's drift from fp32 and exits
// 1 beyond it; timing is reported, not gated, so contended CI runners
// cannot flake this bench. The end-to-end throughput of these paths is
// measured by perfbench/.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "ir/Lowering.h"
#include "lang/LoopExtractor.h"
#include "lang/Parser.h"
#include "sim/Compiler.h"
#include "support/ThreadPool.h"

#include <chrono>
#include <cmath>
#include <functional>
#include <iostream>

using namespace nv;

namespace {

const char *Kernel = R"(
float A[256][256]; float B[256][256]; float C[256][256]; float alpha;
void kernel() {
  for (int i = 0; i < 256; i++) {
    for (int j = 0; j < 256; j++) {
      float sum = 0;
      for (int k = 0; k < 256; k++) {
        sum += alpha * A[i][k] * B[k][j];
      }
      C[i][j] = sum;
    }
  }
})";

/// Runs Fn repeatedly for at least \p MinMs and returns executions/second.
double opsPerSec(const std::function<void()> &Fn, double MinMs = 150.0) {
  using Clock = std::chrono::steady_clock;
  Fn(); // Warm-up.
  long long Iters = 0;
  const auto Start = Clock::now();
  double Ms = 0.0;
  do {
    Fn();
    ++Iters;
    Ms = std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             Clock::now() - Start)
             .count();
  } while (Ms < MinMs);
  return Iters * 1000.0 / Ms;
}

} // namespace

int main() {
  std::cout << "=== micro: pipeline component throughput ===\n\n";

  // --- Pipeline components (unchanged scope from the gbench version) -----
  {
    const double Ops = opsPerSec([&] {
      std::optional<Program> P = parseSource(Kernel);
      if (!P)
        std::abort();
    });
    std::cout << "parse:                " << static_cast<long long>(Ops)
              << " ops/s\n";
  }

  std::optional<Program> Prog = parseSource(Kernel);
  std::vector<LoopSite> Sites = extractLoops(*Prog);
  {
    const double Ops = opsPerSec([&] {
      std::vector<LoopSite> S = extractLoops(*Prog);
      LoopSummary Summary = lowerLoop(*Prog, S[0], 64);
      (void)Summary;
    });
    std::cout << "extract+lower:        " << static_cast<long long>(Ops)
              << " ops/s\n";
  }
  {
    LoopSummary Summary = lowerLoop(*Prog, Sites[0], 64);
    Machine Mach;
    int VF = 1;
    volatile double Sink = 0.0;
    const double Ops = opsPerSec([&] {
      Sink = Mach.loopCycles(Summary, VF, 4);
      VF = VF == 64 ? 1 : VF * 2;
    });
    (void)Sink;
    std::cout << "machine model:        " << static_cast<long long>(Ops)
              << " ops/s\n";
  }
  {
    SimCompiler Compiler;
    SimCompiler::Precompiled Pre = Compiler.precompile(*Prog);
    std::vector<VectorPlan> Plans(Pre.Summaries.size(), VectorPlan{8, 4});
    volatile double Sink = 0.0;
    const double Ops = opsPerSec([&] {
      bool TimedOut = false;
      Sink = Compiler.runPrecompiled(Pre, Plans, TimedOut);
    });
    (void)Sink;
    std::cout << "precompiled step:     " << static_cast<long long>(Ops)
              << " ops/s\n";
  }
  PathContextConfig PathConfig;
  {
    const double Ops = opsPerSec([&] {
      auto Contexts = extractPathContexts(*Sites[0].Outer, PathConfig);
      if (Contexts.empty())
        std::abort();
    });
    std::cout << "path contexts:        " << static_cast<long long>(Ops)
              << " ops/s\n";
  }

  // --- Batched embed+policy forward on the workspace kernels -------------
  std::cout << "\n=== micro: batched forward (embed+policy) ===\n\n";

  // A serving-shaped batch: distinct generated loops' context bags.
  constexpr int BatchLoops = 48;
  LoopGenerator Gen(/*Seed=*/321);
  std::vector<std::vector<PathContext>> Bags;
  while (static_cast<int>(Bags.size()) < BatchLoops) {
    GeneratedLoop L = Gen.generate();
    std::optional<Program> P = parseSource(L.Source);
    if (!P)
      continue;
    std::vector<LoopSite> LS = extractLoops(*P);
    for (const LoopSite &Site : LS) {
      Bags.push_back(extractPathContexts(*Site.Outer, PathConfig));
      if (static_cast<int>(Bags.size()) == BatchLoops)
        break;
    }
  }

  NeuroVectorizerConfig Config = benchConfig();
  RNG Rng(7);
  Code2Vec Embedder(Config.Embedding, Rng);
  const TargetInfo Target = Config.Target;
  const int NumVF = static_cast<int>(Target.vfActions().size());
  const int NumIF = static_cast<int>(Target.ifActions().size());
  Policy Pol(ActionSpaceKind::Discrete, Embedder.codeDim(), Config.Hidden,
             NumVF, NumIF, Rng);

  Matrix NewStates; // Warm buffers live across iterations, as in serving.
  const double NewOps = opsPerSec([&] {
    Embedder.encodeBatchInto(Bags, NewStates);
    Pol.forward(NewStates);
  });
  ThreadPool Pool(4);
  const double PooledOps = opsPerSec([&] {
    Embedder.encodeBatchInto(Bags, NewStates, &Pool);
    Pol.forward(NewStates, &Pool);
  });

  std::cout << "workspace kernels:    "
            << static_cast<long long>(NewOps * BatchLoops) << " loops/s\n";
  std::cout << "workspace + 4-thread: "
            << static_cast<long long>(PooledOps * BatchLoops) << " loops/s\n";

  // --- Quantized serving forward (int8 shadows, inference path) ----------
  // The serving hot path proper: borrowed-span encode + no-cache policy
  // forward, fp32 vs int8 (docs/quantization.md). The guard is a numeric
  // tolerance on the code vectors, not greedy-action equality — with
  // random bench weights the argmax margins are arbitrarily thin, while a
  // trained policy's margins dwarf the quantization error (that claim is
  // pinned by the plan-equality tests in ServeTest).
  {
    std::vector<ContextSpan> Spans;
    Spans.reserve(Bags.size());
    for (const std::vector<PathContext> &Bag : Bags)
      Spans.push_back({Bag.data(), Bag.size()});

    Matrix Fp32States;
    const double ServeOps = opsPerSec([&] {
      Embedder.encodeSpansInto(Spans, Fp32States);
      Pol.forward(Fp32States, nullptr, /*ForBackward=*/false);
    });

    Embedder.quantizeForInference();
    Pol.quantizeForInference();
    Matrix QuantStates;
    Embedder.encodeSpansInto(Spans, QuantStates);
    double MaxAbs = 0.0, MaxErr = 0.0;
    for (int Row = 0; Row < Fp32States.rows(); ++Row)
      for (int Col = 0; Col < Fp32States.cols(); ++Col) {
        MaxAbs = std::max(MaxAbs, std::fabs(Fp32States.at(Row, Col)));
        MaxErr = std::max(MaxErr, std::fabs(Fp32States.at(Row, Col) -
                                            QuantStates.at(Row, Col)));
      }
    if (MaxErr > 0.05 * (1.0 + MaxAbs)) {
      std::cerr << "MISMATCH: quantized encode drifted " << MaxErr
                << " from fp32 (max |fp32| " << MaxAbs << ")\n";
      return 1;
    }

    const double QuantOps = opsPerSec([&] {
      Embedder.encodeSpansInto(Spans, QuantStates);
      Pol.forward(QuantStates, nullptr, /*ForBackward=*/false);
    });
    Embedder.clearQuantized();
    Pol.clearQuantized();

    const double LoopsServe = ServeOps * BatchLoops;
    const double LoopsQuant = QuantOps * BatchLoops;
    std::cout << "serve fp32 forward:   " << static_cast<long long>(LoopsServe)
              << " loops/s\n";
    std::cout << "serve int8 forward:   " << static_cast<long long>(LoopsQuant)
              << " loops/s   (" << LoopsQuant / LoopsServe << "x)\n";
  }

  // Encode backward (training-side component).
  {
    Matrix dV(static_cast<int>(Bags.size()), Embedder.codeDim(), 0.01);
    std::vector<Param *> Params = Embedder.params();
    const double Ops = opsPerSec([&] {
      for (Param *P : Params)
        P->zeroGrad();
      Embedder.encodeBatchInto(Bags, NewStates);
      Embedder.backward(dV);
    });
    std::cout << "encode+backward:      "
              << static_cast<long long>(Ops * BatchLoops) << " loops/s\n";
  }

  std::cout << "\n";
  // Exit status reflects correctness only (the guard above); timing is
  // reported, not gated, so contended CI runners cannot flake this bench.
  return 0;
}
