//===- examples/annotate_tool.cpp - Fig 4 style annotation tool -----------===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
// A small command-line auto-vectorizer: reads a LoopLang source file (or
// uses a built-in demo program), trains briefly on the synthetic dataset,
// and prints the pragma-annotated source for several prediction methods,
// with the predicted speedup over the stock cost model — the workflow of
// the paper's Fig 4.
//
//   $ ./annotate_tool [file.c]
//
//===----------------------------------------------------------------------===//

#include "core/NeuroVectorizer.h"
#include "dataset/LoopGenerator.h"
#include "support/Table.h"

#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

using namespace nv;

static const char *DemoSource = R"(
short short_a[2048]; short short_b[2048];
int assign1[2048]; int assign2[2048];
int n = 2047;

void kernel() {
  for (int i = 0; i < n; i += 2) {
    assign1[i] = (int) (short_a[i]);
    assign1[i + 1] = (int) (short_a[i + 1]);
    assign2[i] = (int) (short_b[i]);
    assign2[i + 1] = (int) (short_b[i + 1]);
  }
}
)";

int main(int argc, char **argv) {
  std::string Source = DemoSource;
  if (argc > 1) {
    std::ifstream In(argv[1]);
    if (!In) {
      std::cerr << "error: cannot open " << argv[1] << "\n";
      return 1;
    }
    std::ostringstream Buffer;
    Buffer << In.rdbuf();
    Source = Buffer.str();
  }

  NeuroVectorizerConfig Config;
  Config.PPO.BatchSize = 256;
  Config.PPO.MiniBatchSize = 64;
  Config.PPO.LearningRate = 2e-3;
  Config.PPO.EntropyCoef = 0.05;
  NeuroVectorizer NV(Config);

  std::cout << "training on the synthetic loop dataset...\n";
  LoopGenerator Gen(7);
  for (const GeneratedLoop &L : Gen.generateMany(200))
    NV.addTrainingProgram(L.Name, L.Source);
  NV.train(12000);
  NV.fitSupervised(/*MaxSamples=*/64);

  struct MethodRow {
    const char *Name;
    PredictMethod Method;
  };
  const MethodRow Methods[] = {
      {"RL (deep PPO agent)", PredictMethod::RL},
      {"nearest neighbors", PredictMethod::NNS},
      {"decision tree", PredictMethod::DecisionTree},
      {"brute-force oracle", PredictMethod::BruteForce},
  };

  try {
    const std::string Annotated = NV.annotate(Source, PredictMethod::RL);
    std::cout << "\n=== RL-annotated source (Fig 4 style) ===\n"
              << Annotated << "\n";

    std::cout << "=== predicted speedups over the baseline cost model ===\n";
    for (const MethodRow &M : Methods)
      std::cout << "  " << M.Name << ": "
                << Table::fmt(NV.speedupOverBaseline(Source, M.Method))
                << "x\n";
  } catch (const std::invalid_argument &E) {
    std::cerr << "error: " << E.what() << "\n";
    return 1;
  }
  return 0;
}
