//===- bench/telemetry_overhead.cpp - Instrumentation cost bench ----------===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
// Measures what the observability layer costs the serving hot path:
// warm-cache annotateBatch throughput with telemetry on
// (ServeConfig::Telemetry, the default — per-phase histograms + pool
// queue metrics) versus off, and with trace sampling enabled on top.
//
// Methodology: both services run the same warm-cache workload in
// alternating rounds and each configuration keeps its best round, so
// transient machine noise (a background task hitting one round) cannot
// charge its cost to either side. The acceptance bar is overhead within
// NV_TELEMETRY_MAX_OVERHEAD (default 3%); the bench exits 1 beyond it,
// which is how CI pins the bound.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "support/Table.h"
#include "support/Telemetry.h"

#include <chrono>
#include <cstdlib>
#include <iostream>

using namespace nv;

namespace {

double millisSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

/// One warm-cache pass; returns milliseconds.
double runPass(AnnotationService &Service,
               const std::vector<AnnotationRequest> &Requests) {
  const auto Start = std::chrono::steady_clock::now();
  Service.annotateBatch(Requests);
  return millisSince(Start);
}

} // namespace

int main() {
  constexpr int NumPrograms = 128;
  constexpr int DuplicateEvery = 4;
  constexpr int Rounds = 7; ///< Best-of per configuration.

  double MaxOverhead = 0.03;
  if (const char *Env = std::getenv("NV_TELEMETRY_MAX_OVERHEAD"))
    MaxOverhead = std::atof(Env);

  std::cout << "=== telemetry: instrumented vs uninstrumented serve ===\n\n";
  std::cout << "training a small model...\n";
  auto NV = makeTrainedVectorizer(/*NumPrograms=*/100, /*TrainSteps=*/4000);

  LoopGenerator Gen(/*Seed=*/777);
  std::vector<AnnotationRequest> Requests;
  while (static_cast<int>(Requests.size()) < NumPrograms) {
    GeneratedLoop L = Gen.generate();
    Requests.push_back({L.Name, L.Source});
    if (static_cast<int>(Requests.size()) % DuplicateEvery == 0)
      Requests.push_back({L.Name + "_dup", L.Source});
  }
  Requests.resize(NumPrograms);
  std::cout << "requests: " << Requests.size() << " (warm cache, best of "
            << Rounds << " rounds)\n\n";

  // Two services over the same model, differing only in the telemetry
  // knob. Separate instances so each has its own (fully warmed) plan
  // cache; NV->service() would rebuild and share one.
  ServeConfig PlainConfig;
  PlainConfig.Threads = 4;
  PlainConfig.Telemetry = false;
  AnnotationService Plain(NV->embedder(), NV->backends(),
                          NeuroVectorizerConfig().Embedding.Paths,
                          NV->target(), PlainConfig);

  ServeConfig InstrConfig;
  InstrConfig.Threads = 4;
  InstrConfig.Telemetry = true;
  AnnotationService Instrumented(NV->embedder(), NV->backends(),
                                 NeuroVectorizerConfig().Embedding.Paths,
                                 NV->target(), InstrConfig);

  // Warm both caches (and the pools) before measuring anything.
  Plain.annotateBatch(Requests);
  Instrumented.annotateBatch(Requests);

  // Alternating best-of rounds: noise hits both sides equally.
  double PlainMs = 1e300, InstrMs = 1e300;
  for (int R = 0; R < Rounds; ++R) {
    PlainMs = std::min(PlainMs, runPass(Plain, Requests));
    InstrMs = std::min(InstrMs, runPass(Instrumented, Requests));
  }

  // A third configuration: histograms AND trace sampling on (every
  // batch), reported for context but not gated — tracing is an opt-in
  // debugging knob, not the steady state.
  Telemetry::trace().setSampleEvery(1);
  double TracedMs = 1e300;
  for (int R = 0; R < Rounds; ++R)
    TracedMs = std::min(TracedMs, runPass(Instrumented, Requests));
  Telemetry::trace().setSampleEvery(0);

  const double PlainPerSec = Requests.size() * 1000.0 / PlainMs;
  const double InstrPerSec = Requests.size() * 1000.0 / InstrMs;
  const double TracedPerSec = Requests.size() * 1000.0 / TracedMs;
  const double Overhead = (PlainPerSec - InstrPerSec) / PlainPerSec;
  const double TraceOverhead = (PlainPerSec - TracedPerSec) / PlainPerSec;

  Table T({"configuration", "ms", "programs/s", "overhead"});
  T.addRow({"telemetry off", Table::fmt(PlainMs), Table::fmt(PlainPerSec, 0),
            "-"});
  T.addRow({"histograms on (default)", Table::fmt(InstrMs),
            Table::fmt(InstrPerSec, 0),
            Table::fmt(Overhead * 100.0, 1) + "%"});
  T.addRow({"histograms + tracing", Table::fmt(TracedMs),
            Table::fmt(TracedPerSec, 0),
            Table::fmt(TraceOverhead * 100.0, 1) + "%"});
  T.print(std::cout);

  std::cout << "\nper-phase latency distributions (instrumented service):\n";
  Telemetry::metrics().histogramTable().print(std::cout);

  if (Overhead > MaxOverhead) {
    std::cerr << "\nFAIL: telemetry overhead " << Overhead * 100.0
              << "% exceeds the " << MaxOverhead * 100.0
              << "% bound (NV_TELEMETRY_MAX_OVERHEAD to adjust)\n";
    return 1;
  }
  std::cout << "\nok: histogram overhead " << Table::fmt(Overhead * 100.0, 2)
            << "% (bound " << Table::fmt(MaxOverhead * 100.0, 0) << "%)\n";
  return 0;
}
