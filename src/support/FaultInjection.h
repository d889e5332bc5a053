//===- support/FaultInjection.h - Deterministic fault-point registry -*- C++
//-*-===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide registry of named fault points compiled into the I/O
/// and serving hot paths (socket reads/writes, file persistence, the
/// request executors, model reload), so the chaos suite and the CI chaos
/// job can make real failures happen on demand — deterministically.
///
/// Arming is env- or call-driven. The `NV_FAULT` grammar is a
/// comma-separated list of `point=spec` pairs:
///
///   NV_FAULT="socket.write=0.01,file.fsync=fail@3,exec.slow=50ms"
///
///   p          probability in [0, 1]: the point fails each hit with
///              probability p (decided by a seeded, hit-indexed stream —
///              the same seed always produces the same fire pattern,
///              regardless of thread interleaving).
///   fail@N     the point fails on exactly its N-th hit (1-based), once.
///   abort@N    the process calls abort() on the N-th hit — a simulated
///              crash for the mid-save kill tests (fork first!).
///   Nms        every hit sleeps N milliseconds, then proceeds normally
///              (latency injection; never reports failure).
///
/// `NV_FAULT_SEED` selects the decision stream (default below); the
/// probability form derives one decorrelated stream per point via the
/// existing RNG::split scheme and indexes it by hit count, so concurrent
/// hooks agree with a serial replay.
///
/// Cost contract: an unarmed process pays ONE relaxed atomic load per
/// hook (see fault::fired) — cheap enough to compile the hooks into
/// release builds permanently, which is the point: the binary that runs
/// the chaos suite is the binary that ships. perfbench's `net_*`
/// workloads serve with the hooks compiled in but unarmed, so their
/// end-to-end bounds cover the hooks' cost.
///
//===----------------------------------------------------------------------===//

#ifndef NV_SUPPORT_FAULTINJECTION_H
#define NV_SUPPORT_FAULTINJECTION_H

#include <atomic>
#include <cstdint>
#include <string>

namespace nv {
namespace fault {

/// What an armed point does when its spec says "this hit fires".
enum class FaultKind : uint8_t {
  Fail,  ///< The hook reports failure (probability and fail@N forms).
  Abort, ///< The process aborts — a simulated crash (abort@N form).
  Delay, ///< Sleep, then proceed normally (Nms form).
};

/// One parsed `point=spec` arm.
struct FaultSpec {
  FaultKind Kind = FaultKind::Fail;
  double Probability = 0.0; ///< Probability form (NthHit == 0).
  uint64_t NthHit = 0;      ///< fail@N / abort@N form (1-based); 0 = off.
  uint64_t DelayMicros = 0; ///< Delay form.
};

/// One named injection site. Stable address for the lifetime of the
/// process (hooks resolve it once into a static local); counters are
/// readable any time for tests and the statsz fault section.
class FaultPoint {
public:
  const std::string &name() const { return Name; }
  uint64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  uint64_t fired() const { return Fired.load(std::memory_order_relaxed); }
  bool armed() const { return Armed.load(std::memory_order_acquire); }

private:
  friend class FaultRegistry;
  friend bool firedSlow(FaultPoint &P);

  std::string Name;
  std::atomic<uint64_t> Hits{0};  ///< Evaluations since last arm().
  std::atomic<uint64_t> Fired{0}; ///< Hits whose spec fired.
  std::atomic<bool> Armed{false}; ///< Spec below is live (release/acquire).
  FaultSpec Spec;                 ///< Written before Armed, under the
                                  ///< registry mutex.
  uint64_t Stream = 0;            ///< Per-point decision stream seed.
};

/// Default decision seed (same constant the RNG default uses).
constexpr uint64_t DefaultSeed = 0x9E3779B97F4A7C15ull;

/// The process-wide registry. instance() parses `NV_FAULT` /
/// `NV_FAULT_SEED` once on first touch (a static initializer in
/// FaultInjection.cpp touches it at startup, so env arming needs no call
/// site at all).
class FaultRegistry {
public:
  static FaultRegistry &instance();

  /// Parses \p Spec (the NV_FAULT grammar) and arms the named points,
  /// replacing any previous arming and resetting every hit counter.
  /// Points named before they are first hit are remembered and applied
  /// on registration. Returns false (and sets \p Error) on a grammar
  /// error — nothing is armed then.
  bool arm(const std::string &Spec, uint64_t Seed = DefaultSeed,
           std::string *Error = nullptr);

  /// Disarms every point (hooks return to the one-load fast path) and
  /// resets hit counters.
  void disarm();

  /// True when any point is armed (mirrors the fast-path flag).
  bool armed() const;

  /// Returns the stable point registered under \p Name (creating it
  /// unarmed on first use). Hooks call this once via a static local.
  FaultPoint &point(const std::string &Name);

  /// One JSON object per armed point (name, hits, fired) as a JSON
  /// array — the statsz "faults" section and the chaos job's evidence
  /// that the profile actually exercised the points.
  std::string statusJson() const;

private:
  FaultRegistry();
  struct Impl;
  Impl *I; ///< Leaked intentionally: hooks may run during shutdown.
};

/// The one-load fast path flag. Never read directly — use fired().
extern std::atomic<bool> ProcessArmed;

/// Armed-path evaluation of \p P (counts the hit, applies the spec,
/// sleeps for Delay kinds, aborts for Abort kinds). Returns true when
/// the hook must report failure.
bool firedSlow(FaultPoint &P);

/// Convenience accessor for hook sites:
///   static fault::FaultPoint &FP = fault::point("socket.write");
inline FaultPoint &point(const std::string &Name) {
  return FaultRegistry::instance().point(Name);
}

/// THE hook. Zero-cost when the process is unarmed: one relaxed load of
/// a process-global flag, no function call, no lock.
inline bool fired(FaultPoint &P) {
  if (!ProcessArmed.load(std::memory_order_relaxed))
    return false;
  return firedSlow(P);
}

} // namespace fault
} // namespace nv

#endif // NV_SUPPORT_FAULTINJECTION_H
