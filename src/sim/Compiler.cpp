//===- sim/Compiler.cpp - Simulated clang/LLVM pipeline -------------------===//

#include "sim/Compiler.h"

#include "ir/Legality.h"
#include "ir/Lowering.h"

#include <algorithm>

using namespace nv;

VectorPlan SimCompiler::legalize(const LoopSummary &Loop,
                                 VectorPlan Requested) const {
  // Shared with LegalitySummary::clamp(), so the action masks the policy
  // samples under agree with this clamp by construction.
  return legalizePlan(Loop.MaxSafeVF, Requested, TI);
}

double SimCompiler::loopCompileCycles(const LoopSummary &Loop,
                                      VectorPlan Requested) const {
  // Code-generation work scales with the number of machine instructions
  // the vector body expands to: body size x interleave copies x native
  // register parts. The quadratic term models the superlinear passes
  // (regalloc, scheduling) that make over-wide requests explode — the
  // §3.4 "trying to vectorize more than plausible" effect.
  const double BodySize = std::max<size_t>(1, Loop.Body.size());
  const int WidestBits = static_cast<int>(sizeOf(Loop.WidestType)) * 8;
  const double Parts = std::max(
      1.0, static_cast<double>(WidestBits) * Requested.VF /
               Mach.config().VectorBits);
  const double Units = BodySize * Requested.IF * Parts;
  return 400.0 + 4.0 * Units + Units * Units / 8.0;
}

CompileResult SimCompiler::compileWith(Program &P, bool UsePragmas) const {
  CompileResult Result;
  std::vector<LoopSite> Sites = extractLoops(P);
  for (LoopSite &Site : Sites) {
    CompiledLoop CL;
    CL.Summary = lowerLoop(P, Site, TI.MaxVF);

    const VectorPlan BaselinePlan = Baseline.choose(CL.Summary);
    if (UsePragmas && Site.Inner->Pragma) {
      CL.Requested.VF = Site.Inner->Pragma->VF;
      CL.Requested.IF = Site.Inner->Pragma->IF;
      CL.FromPragma = true;
    } else {
      CL.Requested = BaselinePlan;
    }
    CL.Effective = legalize(CL.Summary, CL.Requested);
    CL.Cycles = Mach.loopCycles(CL.Summary, CL.Effective.VF,
                                CL.Effective.IF);

    Result.CompileCycles += loopCompileCycles(CL.Summary, CL.Requested);
    Result.BaselineCompileCycles +=
        loopCompileCycles(CL.Summary, BaselinePlan);
    Result.ExecutionCycles += CL.Cycles;
    Result.Loops.push_back(std::move(CL));
  }
  if (Result.BaselineCompileCycles > 0.0 &&
      Result.CompileCycles >
          TimeoutFactor * Result.BaselineCompileCycles)
    Result.CompileTimedOut = true;
  return Result;
}

CompileResult SimCompiler::compileAndRun(Program &P) const {
  return compileWith(P, /*UsePragmas=*/true);
}

SimCompiler::Precompiled SimCompiler::precompile(Program &P) const {
  Precompiled Pre;
  std::vector<LoopSite> Sites = extractLoops(P);
  for (const LoopSite &Site : Sites) {
    LoopSummary Summary = lowerLoop(P, Site, TI.MaxVF);
    const VectorPlan Plan = Baseline.choose(Summary);
    Pre.BaselineCompileCycles += loopCompileCycles(Summary, Plan);
    const VectorPlan Legal = legalize(Summary, Plan);
    Pre.BaselineExecutionCycles +=
        Mach.loopCycles(Summary, Legal.VF, Legal.IF);
    Pre.BaselinePlans.push_back(Plan);
    Pre.Legality.push_back(analyzeLegality(Summary, TI));
    Pre.Summaries.push_back(std::move(Summary));
  }
  return Pre;
}

double SimCompiler::runPrecompiled(const Precompiled &Pre,
                                   const std::vector<VectorPlan> &Requested,
                                   bool &TimedOut) const {
  assert(Requested.size() == Pre.Summaries.size() &&
         "one plan per loop required");
  double Cycles = 0.0;
  double CompileCycles = 0.0;
  for (size_t I = 0; I < Pre.Summaries.size(); ++I) {
    const LoopSummary &Summary = Pre.Summaries[I];
    CompileCycles += loopCompileCycles(Summary, Requested[I]);
    const VectorPlan Legal =
        I < Pre.Legality.size()
            ? Pre.Legality[I].clamp(Requested[I], TI)
            : legalize(Summary, Requested[I]);
    Cycles += Mach.loopCycles(Summary, Legal.VF, Legal.IF);
  }
  TimedOut = Pre.BaselineCompileCycles > 0.0 &&
             CompileCycles > TimeoutFactor * Pre.BaselineCompileCycles;
  return Cycles;
}

CompileResult SimCompiler::compileBaseline(Program &P) const {
  return compileWith(P, /*UsePragmas=*/false);
}
