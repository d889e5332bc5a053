//===- perfbench/stats.h - Sampling statistics for the benchmark -*- C++ -*-===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own statistics, kept dependency-free so
/// stats_test.cpp can pin them on known arrays:
///
///  - percentile(): linear interpolation between closest ranks, the same
///    definition as Python's statistics.quantiles(method="inclusive");
///  - tailPercentile(): a percentile is only reported when at least
///    MinTail samples lie beyond it (otherwise the value is a guess about
///    the tail, not a measurement of it);
///  - RateLadder: a fixed geometric ladder of offered rates and the
///    bisection that finds the highest rung meeting a latency limit.
///
//===----------------------------------------------------------------------===//

#ifndef NV_PERFBENCH_STATS_H
#define NV_PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <vector>

namespace perfbench {

/// The \p Q quantile (0..1) of \p Samples by linear interpolation between
/// closest ranks. Returns NaN for an empty input.
inline double percentile(std::vector<double> Samples, double Q) {
  if (Samples.empty())
    return std::nan("");
  std::sort(Samples.begin(), Samples.end());
  const double Pos = Q * static_cast<double>(Samples.size() - 1);
  const size_t Lo = static_cast<size_t>(std::floor(Pos));
  const size_t Hi = std::min(Lo + 1, Samples.size() - 1);
  const double Frac = Pos - static_cast<double>(Lo);
  return Samples[Lo] + (Samples[Hi] - Samples[Lo]) * Frac;
}

/// Samples strictly beyond the \p Q quantile when \p N samples were taken.
inline size_t samplesBeyond(size_t N, double Q) {
  return static_cast<size_t>(std::floor(static_cast<double>(N) * (1.0 - Q) +
                                        1e-9));
}

/// A tail percentile with its sample count. Valid only when at least
/// MinTail samples lie beyond it.
struct TailValue {
  double Value = std::nan("");
  size_t Count = 0; ///< Samples the percentile was taken over.
  bool Valid = false;
};

inline TailValue tailPercentile(const std::vector<double> &Samples, double Q,
                                size_t MinTail = 10) {
  TailValue T;
  T.Count = Samples.size();
  T.Valid = !Samples.empty() && samplesBeyond(Samples.size(), Q) >= MinTail;
  if (T.Valid)
    T.Value = percentile(Samples, Q);
  return T;
}

/// Samples needed so that \p Q has at least \p MinTail samples beyond it.
inline size_t samplesForTail(double Q, size_t MinTail = 10) {
  return static_cast<size_t>(
      std::ceil(static_cast<double>(MinTail) / (1.0 - Q) - 1e-9));
}

inline double median(const std::vector<double> &Samples) {
  return percentile(Samples, 0.5);
}

/// A fixed geometric ladder of offered rates: rung K offers
/// Base * Ratio^K, for K in [0, Rungs). The ladder is a constant of the
/// workload, so two commits are always probed at the same rates.
struct RateLadder {
  double Base = 1.0;
  double Ratio = 1.06;
  int Rungs = 24;

  double rate(int K) const { return Base * std::pow(Ratio, K); }

  /// The highest rung for which \p Meets holds, assuming the predicate is
  /// monotone (a rung that fails implies every higher rung fails). Probes
  /// O(log Rungs) rungs by bisection; \p Probed (when non-null) receives
  /// the probe order. Returns -1 when rung 0 already fails.
  int highestMeeting(const std::function<bool(int)> &Meets,
                     std::vector<int> *Probed = nullptr) const {
    int Lo = -1;    // Highest rung known to meet.
    int Hi = Rungs; // Lowest rung known to fail.
    while (Hi - Lo > 1) {
      const int Mid = Lo + (Hi - Lo) / 2;
      if (Probed)
        Probed->push_back(Mid);
      if (Meets(Mid))
        Lo = Mid;
      else
        Hi = Mid;
    }
    return Lo;
  }
};

/// Backlog test over the frames-in-flight samples of one window: the
/// backlog grows when the mean of the last quarter exceeds 1.5 times the
/// mean of the first quarter plus \p Slack frames.
/// Fewer than eight samples never count as growth.
inline bool backlogGrows(const std::vector<double> &InFlight,
                         double Slack = 4.0) {
  if (InFlight.size() < 8)
    return false;
  const size_t Quarter = InFlight.size() / 4;
  double First = 0.0, Last = 0.0;
  for (size_t I = 0; I < Quarter; ++I) {
    First += InFlight[I];
    Last += InFlight[InFlight.size() - Quarter + I];
  }
  First /= static_cast<double>(Quarter);
  Last /= static_cast<double>(Quarter);
  return Last > 1.5 * First + Slack;
}

} // namespace perfbench

#endif // NV_PERFBENCH_STATS_H
