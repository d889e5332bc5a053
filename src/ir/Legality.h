//===- ir/Legality.h - Loop legality analysis -------------------*- C++ -*-===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-loop legality analysis: the static pass that decides which (VF, IF)
/// plans the simulated compiler will honor, and why. It subsumes the old
/// pairwise dependence test with a full classification:
///
///  - Dependence testing per store<->access pair: ZIV, strong SIV (constant
///    distance + direction vector), weak-zero SIV with trip-range
///    refutation, weak-crossing SIV, and a GCD fallback for mismatched
///    coefficients. All tests run in *iteration space* (the induction
///    variable's start value and step are normalized away), so `i += 2`
///    loops no longer pessimize.
///  - Access classification: uniform / consecutive / strided(k) / gather.
///  - Reduction and if-convertible-predicate detection.
///  - A precomputed legal-(VF, IF) bitmask over the action grid, consumed
///    by the RL policy (masked logits), the search baselines, and the
///    serving front-end.
///
/// The contract with the simulated compiler: a plan drawn from the action
/// grid is legal iff legalizing it is the identity — equivalently, iff
/// VF <= MaxSafeVF (interleaving is unrolling and is always legal).
///
//===----------------------------------------------------------------------===//

#ifndef NV_IR_LEGALITY_H
#define NV_IR_LEGALITY_H

#include "ir/VecIR.h"
#include "target/TargetInfo.h"

#include <cstdint>
#include <string>
#include <vector>

namespace nv {

/// Memory access shapes, in the taxonomy of bistra's Analysis/Value.h.
enum class AccessClass {
  Uniform,     ///< Loop-invariant address (broadcast / single lane).
  Consecutive, ///< Unit iteration stride (a vector load/store).
  Strided,     ///< Constant non-unit (or negative) iteration stride.
  Gather,      ///< Indirect index (gather load / scatter store).
};
constexpr int NumAccessClasses = 4;

const char *accessClassName(AccessClass C);

/// Classifies \p Access. \p InnerStep is the induction variable's
/// per-iteration increment: `a[i]` under `i += 2` is Strided, not
/// Consecutive, because vector lanes map to iterations.
AccessClass classifyAccess(const MemAccess &Access, long long InnerStep);

/// Dependence kinds, source fixed as the earlier iteration.
enum class DepKind {
  Flow,   ///< Store then later load of the same address.
  Anti,   ///< Load then later store (safe here: chunk loads precede stores).
  Output, ///< Store then later store.
};
const char *depKindName(DepKind K);

/// Direction of the source iteration relative to the sink (<, =, >). In
/// this single-loop model Lt is a loop-carried dependence, Eq is
/// loop-independent, and Gt only appears on Anti edges.
enum class DepDirection { Lt, Eq, Gt };
const char *depDirectionName(DepDirection D);

/// One dependence fact between two accesses of the same array.
struct DependenceEdge {
  int Src = 0; ///< Index into LoopSummary::Accesses (a store).
  int Dst = 0; ///< Index into LoopSummary::Accesses.
  DepKind Kind = DepKind::Flow;
  DepDirection Direction = DepDirection::Lt;
  bool Unknown = false;     ///< Analysis gave up; assume distance 1.
  bool HasDistance = false; ///< Distance holds a constant iteration count.
  long long Distance = 0;
  /// True when the edge constrains MaxSafeVF (loop-carried Flow/Output or
  /// Unknown). Anti and loop-independent edges are reported but free.
  bool BindsVF = false;
};

/// Iteration domain of the innermost loop, for normalizing affine indices
/// to iteration space and for trip-range refutation.
struct IterationDomain {
  long long Lo = 0;    ///< First induction-variable value.
  long long Step = 1;  ///< Per-iteration increment (nonzero).
  long long Trip = -1; ///< Iteration count; -1 when unknown.
};

/// Tests the pair (store \p Store at index \p SrcIdx, access \p Other at
/// \p DstIdx) along \p InnerVar over \p Domain. Returns an edge with
/// BindsVF/Unknown set, or a non-binding edge, or nothing (no dependence).
/// A returned edge with Src == Dst is a self-dependence (e.g. an invariant
/// store overwriting the same cell every iteration).
bool testAccessPair(const MemAccess &Store, const MemAccess &Other,
                    int SrcIdx, int DstIdx, const std::string &InnerVar,
                    const IterationDomain &Domain, DependenceEdge &Out);

/// Rounds \p X down to a power of two (minimum 1).
int floorPow2(long long X);

/// Largest power-of-two VF (<= \p HWMaxVF) that \p Loop's dependences,
/// calls and scalar recurrences allow, from the iteration domain recorded
/// on the summary. Lowering stores it in LoopSummary::MaxSafeVF;
/// analyzeLegality computes the same value with its edge list.
int maxSafeVF(const LoopSummary &Loop, int HWMaxVF);

/// Legal-(VF, IF) bitmask over the action grid. Bit (VFIdx * NumIF + IFIdx)
/// is set when that grid point is legal. Fits in one word for the default
/// 7x5 grid.
struct PlanMask {
  uint64_t Bits = 0;
  int8_t NumVF = 0;
  int8_t NumIF = 0;

  bool legal(int VFIdx, int IFIdx) const {
    if (VFIdx < 0 || IFIdx < 0 || VFIdx >= NumVF || IFIdx >= NumIF)
      return false;
    return (Bits >> (VFIdx * NumIF + IFIdx)) & 1u;
  }
  void set(int VFIdx, int IFIdx) {
    Bits |= uint64_t(1) << (VFIdx * NumIF + IFIdx);
  }
  /// True when any IF is legal at \p VFIdx (the VF-head mask).
  bool vfLegal(int VFIdx) const {
    for (int I = 0; I < NumIF; ++I)
      if (legal(VFIdx, I))
        return true;
    return false;
  }
  int count() const {
    int N = 0;
    for (int V = 0; V < NumVF; ++V)
      for (int I = 0; I < NumIF; ++I)
        N += legal(V, I) ? 1 : 0;
    return N;
  }
  bool empty() const { return NumVF == 0; }
};

/// Compact, POD legality payload carried by the serving plan cache (and
/// enough to reconstruct the optional embedding features).
struct LegalityDigest {
  uint64_t MaskBits = 0;
  int32_t MaxSafeVF = 1;
  uint16_t ClassCount[NumAccessClasses] = {0, 0, 0, 0};
  uint8_t HasReduction = 0;
  uint8_t IfConvertible = 0;
};

/// Everything the consumers need to gate, mask, and explain plans for one
/// loop. Produced by analyzeLegality().
struct LegalitySummary {
  std::vector<AccessClass> Classes; ///< Parallel to LoopSummary::Accesses.
  std::vector<DependenceEdge> Edges;
  int MaxSafeVF = 1;
  /// Smallest binding constant dependence distance (0 = none binding).
  long long MinDependenceDistance = 0;
  bool HasUnknownDep = false;
  bool HasReduction = false;
  bool HasPredicate = false;
  /// True when any predicate in the body can be turned into a select mask
  /// (always, unless the body also has a call or a scalar recurrence).
  bool IfConvertible = true;
  bool HasUnknownCall = false;
  bool HasScalarCycle = false;
  PlanMask Mask;

  int classCount(AccessClass C) const {
    int N = 0;
    for (AccessClass K : Classes)
      N += K == C ? 1 : 0;
    return N;
  }

  /// True iff \p Plan is a grid point the compiler will honor unchanged.
  bool isLegal(VectorPlan Plan, const TargetInfo &TI) const;

  /// The plan the compiler actually uses for \p Requested — identical to
  /// SimCompiler::legalize() by construction.
  VectorPlan clamp(VectorPlan Requested, const TargetInfo &TI) const;

  /// Human-readable verdict for \p Plan ("legal", or why not).
  std::string explain(VectorPlan Plan, const TargetInfo &TI) const;

  LegalityDigest digest() const;
};

/// Runs the full analysis for one lowered loop over the action grid of
/// \p TI. Uses the iteration domain recorded on the summary by lowering.
LegalitySummary analyzeLegality(const LoopSummary &Loop,
                                const TargetInfo &TI);

/// Shared clamp used by SimCompiler::legalize and LegalitySummary::clamp:
/// round to powers of two, clamp to the target bounds, cap VF at
/// \p MaxSafeVF.
VectorPlan legalizePlan(int MaxSafeVF, VectorPlan Requested,
                        const TargetInfo &TI);

/// Optional embedding features derived from legality (class histogram +
/// normalized max-safe VF + reduction/if-conversion flags), appended to
/// the code2vec state when enabled.
constexpr int NumLegalityFeatures = 7;

/// Writes NumLegalityFeatures values to \p Out.
void legalityFeatures(const LegalityDigest &Digest, const TargetInfo &TI,
                      double *Out);

} // namespace nv

#endif // NV_IR_LEGALITY_H
