//===- bench/fig7_benchmarks.cpp - Paper Fig 7 reproduction ---------------===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
// Reproduces Figure 7: twelve held-out benchmarks, comparing the baseline
// cost model, random search, Polly, NNS, decision tree, RL, and the
// brute-force oracle (all normalized to the baseline). Paper findings:
//   - RL 2.67x over baseline on average, only ~3% below brute force;
//   - NNS 2.65x, decision tree 2.47x (the learned embedding transfers to
//     methods that cannot train end-to-end);
//   - random search below baseline;
//   - Polly ~1.17x over baseline, well below RL.
//
// `--smoke` runs the same pipeline at CI scale (small training set, few
// steps): the numbers are not paper-grade, but every stage — training,
// distillation, all seven methods — executes, so the figure path cannot
// bit-rot between full runs.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "dataset/Suites.h"
#include "lang/Parser.h"
#include "lang/PrettyPrinter.h"
#include "polly/Polly.h"
#include "support/Stats.h"
#include "support/Table.h"

#include <cstring>
#include <iostream>

using namespace nv;

int main(int argc, char **argv) {
  bool Smoke = false;
  for (int I = 1; I < argc; ++I)
    Smoke |= std::strcmp(argv[I], "--smoke") == 0;

  const int NumPrograms = Smoke ? 40 : 200;
  const long long TrainSteps = Smoke ? 1536 : 80000;
  const int RandomDraws = Smoke ? 5 : 20;

  std::cout << "=== Fig 7: held-out benchmarks, all methods (speedup over "
               "baseline) ===\n\n";
  if (Smoke)
    std::cout << "[smoke mode: reduced training budget, numbers are not "
                 "paper-grade]\n";
  std::cout << "training end-to-end RL on the synthetic dataset...\n";
  auto NV = makeTrainedVectorizer(NumPrograms, TrainSteps);
  std::cout << "labeling with brute force + fitting NNS/decision tree...\n";
  NV->fitSupervised(/*MaxSamples=*/static_cast<size_t>(NumPrograms));

  Table T({"benchmark", "random", "Polly", "NNS", "dectree", "RL",
           "brute"});
  std::vector<double> Random, Polly, NNS, Tree, RL, Brute;
  for (const NamedProgram &B : evaluationBenchmarks()) {
    const double Base = NV->cyclesFor(B.Source, PredictMethod::Baseline);

    // Random search: expected performance over repeated uniform draws.
    double RandomCycles = 0.0;
    for (int Draw = 0; Draw < RandomDraws; ++Draw)
      RandomCycles += NV->cyclesFor(B.Source, PredictMethod::Random);
    const double R = Base / (RandomCycles / RandomDraws);
    // Polly: transform, then the stock vectorizer decides.
    std::optional<Program> P = parseSource(B.Source);
    Program Transformed = applyPolly(*P);
    const double PollyCycles =
        NV->cyclesFor(printProgram(Transformed), PredictMethod::Baseline);
    const double Po = Base / PollyCycles;
    const double N = NV->speedupOverBaseline(B.Source, PredictMethod::NNS);
    const double D =
        NV->speedupOverBaseline(B.Source, PredictMethod::DecisionTree);
    const double L = NV->speedupOverBaseline(B.Source, PredictMethod::RL);
    const double BF =
        NV->speedupOverBaseline(B.Source, PredictMethod::BruteForce);

    Random.push_back(R);
    Polly.push_back(Po);
    NNS.push_back(N);
    Tree.push_back(D);
    RL.push_back(L);
    Brute.push_back(BF);
    T.addRow({B.Name, Table::fmt(R), Table::fmt(Po), Table::fmt(N),
              Table::fmt(D), Table::fmt(L), Table::fmt(BF)});
  }
  T.print(std::cout);

  std::cout << "\naverages (paper in parentheses):\n";
  std::cout << "  random       " << Table::fmt(mean(Random))
            << "x  (below 1.0)\n";
  std::cout << "  Polly        " << Table::fmt(mean(Polly))
            << "x  (~1.17x)\n";
  std::cout << "  NNS          " << Table::fmt(mean(NNS)) << "x  (2.65x)\n";
  std::cout << "  decision tree " << Table::fmt(mean(Tree))
            << "x (2.47x)\n";
  std::cout << "  RL           " << Table::fmt(mean(RL)) << "x  (2.67x)\n";
  std::cout << "  brute force  " << Table::fmt(mean(Brute)) << "x\n";
  std::cout << "  RL / brute-force = "
            << Table::fmt(100.0 * mean(RL) / mean(Brute), 1)
            << "% (paper: ~97%)\n";
  return 0;
}
