//===- perfbench/stats_test.cpp - Unit tests for perfbench/stats.h --------===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
// Pins the benchmark's percentile, tail-count, ladder and backlog rules on
// known arrays. Exits non-zero on the first failure.
// Run through `python3 perfbench/run.py --selftest`.
//
//===----------------------------------------------------------------------===//

#include "stats.h"

#include <cmath>
#include <cstdio>
#include <vector>

using namespace perfbench;

namespace {

int Failures = 0;

void expectNear(double Got, double Want, const char *What) {
  if (!(std::fabs(Got - Want) <= 1e-9 * std::max(1.0, std::fabs(Want)))) {
    std::printf("FAIL %s: got %.12g, want %.12g\n", What, Got, Want);
    ++Failures;
  }
}

void expectTrue(bool Cond, const char *What) {
  if (!Cond) {
    std::printf("FAIL %s\n", What);
    ++Failures;
  }
}

std::vector<double> iota(int N) {
  std::vector<double> V;
  for (int I = 1; I <= N; ++I)
    V.push_back(I);
  return V;
}

} // namespace

int main() {
  // Percentile: inclusive linear interpolation, order-independent.
  expectNear(percentile({3, 1, 2}, 0.5), 2.0, "median of 3");
  expectNear(percentile({1, 2, 3, 4}, 0.5), 2.5, "median of 4");
  expectNear(percentile({1, 2, 3, 4}, 0.25), 1.75, "q1 of 4");
  expectNear(percentile({1, 2, 3, 4}, 0.75), 3.25, "q3 of 4");
  expectNear(percentile(iota(101), 0.99), 100.0, "p99 of 1..101");
  expectNear(percentile(iota(1000), 0.99), 990.01, "p99 of 1..1000");
  expectNear(percentile({5}, 0.99), 5.0, "single sample");
  expectTrue(std::isnan(percentile({}, 0.5)), "empty is NaN");

  // Matches Python's statistics.quantiles(n=4, method="inclusive") on
  // 1..10: [3.25, 5.5, 7.75].
  expectNear(percentile(iota(10), 0.25), 3.25, "inclusive q1 of 1..10");
  expectNear(median(iota(10)), 5.5, "median of 1..10");
  expectNear(percentile(iota(10), 0.75), 7.75, "inclusive q3 of 1..10");

  // Tail rule: p99 needs >= 10 samples beyond it, so >= 1000 samples.
  expectTrue(samplesForTail(0.99) == 1000, "p99 needs 1000 samples");
  expectTrue(samplesForTail(0.5) == 20, "p50 needs 20 samples");
  expectTrue(samplesBeyond(1000, 0.99) == 10, "1000 samples: 10 beyond p99");
  expectTrue(samplesBeyond(999, 0.99) == 9, "999 samples: 9 beyond p99");
  expectTrue(!tailPercentile(iota(999), 0.99).Valid, "999 samples: no p99");
  const TailValue T = tailPercentile(iota(1000), 0.99);
  expectTrue(T.Valid && T.Count == 1000, "1000 samples: p99 valid");
  expectNear(T.Value, 990.01, "tail p99 value");

  // Ladder: fixed geometric rungs; bisection finds the highest rung that
  // meets a monotone predicate in O(log n) probes.
  RateLadder L{100.0, 2.0, 8};
  expectNear(L.rate(0), 100.0, "rung 0");
  expectNear(L.rate(3), 800.0, "rung 3");
  for (int Cut = -1; Cut < L.Rungs; ++Cut) {
    std::vector<int> Probed;
    const int Got =
        L.highestMeeting([&](int K) { return K <= Cut; }, &Probed);
    if (Got != Cut || Probed.size() > 4) {
      std::printf("FAIL ladder cut %d: got %d after %zu probes\n", Cut, Got,
                  Probed.size());
      ++Failures;
    }
  }
  // Capacity 1000/s: the highest rung with rate <= 1000 is 800 (rung 3).
  expectTrue(L.highestMeeting([&](int K) { return L.rate(K) <= 1000.0; }) ==
                 3,
             "ladder against a capacity");

  // Backlog: flat in-flight counts do not grow; a ramp does.
  expectTrue(!backlogGrows(std::vector<double>(40, 3.0)), "flat backlog");
  std::vector<double> Ramp;
  for (int I = 0; I < 40; ++I)
    Ramp.push_back(I);
  expectTrue(backlogGrows(Ramp), "ramping backlog");
  expectTrue(!backlogGrows({0, 0, 0, 50}), "too few samples");

  if (Failures) {
    std::printf("%d failure(s)\n", Failures);
    return 1;
  }
  std::printf("perfbench stats self-test: all checks passed\n");
  return 0;
}
