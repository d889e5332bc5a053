//===- ir/Lowering.cpp - AST to vector IR lowering ------------------------===//

#include "ir/Lowering.h"

#include "ir/AccessAnalysis.h"
#include "ir/ConstEval.h"
#include "ir/Legality.h"

#include <cassert>
#include <unordered_map>

using namespace nv;

namespace {

/// An SSA-ish value: instruction index (-1 = loop-invariant/constant) plus
/// its element type.
struct Value {
  int Idx = -1;
  ScalarType Ty = ScalarType::Int;
};

/// Stateful lowering of one innermost loop body.
class LoweringContext {
public:
  LoweringContext(const Program &P, const LoopSite &Site, int HWMaxVF)
      : Prog(P), Site(Site), HWMaxVF(HWMaxVF) {
    for (const ForStmt *Loop : Site.Nest)
      LoopVars.push_back(Loop->IndexVar);
    collectLocalTypes(*Site.Func->Body);
  }

  LoopSummary run();

private:
  // Type environment ------------------------------------------------------
  void collectLocalTypes(const Stmt &S);
  ScalarType typeOfVar(const std::string &Name) const;

  // Expression lowering ----------------------------------------------------
  Value lowerExpr(const Expr &E);
  Value lowerArrayLoad(const ArrayRef &Ref);
  Value emit(VROp Op, ScalarType Ty, Value A = {}, Value B = {},
             Value C = {});
  Value castTo(Value V, ScalarType Ty);
  int addAccess(const ArrayRef &Ref, bool IsStore, ScalarType ElemTy);

  // Statement lowering -----------------------------------------------------
  void lowerStmt(const Stmt &S);
  void lowerAssign(const AssignStmt &A);
  bool detectReduction(const AssignStmt &A, const std::string &Var);

  static bool exprReads(const Expr &E, const std::string &Var);

  const Program &Prog;
  const LoopSite &Site;
  int HWMaxVF;

  std::vector<std::string> LoopVars;
  std::unordered_map<std::string, ScalarType> LocalTypes;
  std::unordered_map<std::string, Value> Defs; ///< Scalar defs in the body.
  LoopSummary Summary;
  int PredicateDepth = 0;
  Value CurrentPredicate; ///< Condition value of the innermost open if.
};

} // namespace

const char *nv::vrOpName(VROp Op) {
  switch (Op) {
  case VROp::Load:
    return "load";
  case VROp::Store:
    return "store";
  case VROp::Add:
    return "add";
  case VROp::Sub:
    return "sub";
  case VROp::Mul:
    return "mul";
  case VROp::Div:
    return "div";
  case VROp::Rem:
    return "rem";
  case VROp::Shl:
    return "shl";
  case VROp::Shr:
    return "shr";
  case VROp::And:
    return "and";
  case VROp::Or:
    return "or";
  case VROp::Xor:
    return "xor";
  case VROp::Neg:
    return "neg";
  case VROp::Not:
    return "not";
  case VROp::Cmp:
    return "cmp";
  case VROp::Select:
    return "select";
  case VROp::Cast:
    return "cast";
  case VROp::Min:
    return "min";
  case VROp::Max:
    return "max";
  case VROp::Abs:
    return "abs";
  case VROp::Sqrt:
    return "sqrt";
  }
  return "?";
}

void LoweringContext::collectLocalTypes(const Stmt &S) {
  switch (S.kind()) {
  case StmtKind::Block:
    for (const auto &Child : static_cast<const BlockStmt &>(S).Stmts)
      collectLocalTypes(*Child);
    return;
  case StmtKind::Decl: {
    const auto &D = static_cast<const DeclStmt &>(S);
    LocalTypes[D.Name] = D.Ty;
    return;
  }
  case StmtKind::For:
    collectLocalTypes(*static_cast<const ForStmt &>(S).Body);
    return;
  case StmtKind::If: {
    const auto &I = static_cast<const IfStmt &>(S);
    collectLocalTypes(*I.Then);
    if (I.Else)
      collectLocalTypes(*I.Else);
    return;
  }
  default:
    return;
  }
}

ScalarType LoweringContext::typeOfVar(const std::string &Name) const {
  auto It = LocalTypes.find(Name);
  if (It != LocalTypes.end())
    return It->second;
  if (const VarDecl *G = Prog.findGlobal(Name))
    return G->Ty;
  // Loop indices and anything unknown behave as int.
  return ScalarType::Int;
}

Value LoweringContext::emit(VROp Op, ScalarType Ty, Value A, Value B,
                            Value C) {
  VecInst Inst;
  Inst.Op = Op;
  Inst.Ty = Ty;
  Inst.Operands[0] = A.Idx;
  Inst.Operands[1] = B.Idx;
  Inst.Operands[2] = C.Idx;
  Inst.Predicated = PredicateDepth > 0;
  Summary.Body.push_back(Inst);
  return {static_cast<int>(Summary.Body.size()) - 1, Ty};
}

Value LoweringContext::castTo(Value V, ScalarType Ty) {
  if (V.Ty == Ty)
    return V;
  Value Result = emit(VROp::Cast, Ty, V);
  Summary.Body.back().SrcTy = V.Ty;
  return Result;
}

int LoweringContext::addAccess(const ArrayRef &Ref, bool IsStore,
                               ScalarType ElemTy) {
  MemAccess Access;
  Access.Array = Ref.Name;
  Access.ElemTy = ElemTy;
  Access.IsStore = IsStore;

  const VarDecl *Decl = Prog.findGlobal(Ref.Name);
  std::vector<long long> Dims;
  if (Decl && Decl->isArray()) {
    Dims = Decl->Dims;
    Access.ArrayElements = Decl->numElements();
  } else {
    // Undeclared array (or scalar used as array): assume 1-D, large.
    Dims.assign(Ref.Indices.size(), 1 << 20);
    Access.ArrayElements = 1 << 20;
  }

  std::vector<AffineIndex> PerDim;
  PerDim.reserve(Ref.Indices.size());
  for (const auto &Index : Ref.Indices)
    PerDim.push_back(analyzeIndex(*Index, LoopVars));
  Access.Flat = flattenIndex(PerDim, Dims);
  Access.IsAffine = Access.Flat.IsAffine;
  if (Access.IsAffine && !Site.Nest.empty())
    Access.InnerStride = Access.Flat.coeffOf(Site.Inner->IndexVar);

  Summary.Accesses.push_back(Access);
  return static_cast<int>(Summary.Accesses.size()) - 1;
}

Value LoweringContext::lowerArrayLoad(const ArrayRef &Ref) {
  // Indirect indices (a[b[i]]) require materializing the inner loads.
  for (const auto &Index : Ref.Indices) {
    AffineIndex AI = analyzeIndex(*Index, LoopVars);
    if (!AI.IsAffine)
      (void)lowerExpr(*Index);
  }
  const ScalarType ElemTy = typeOfVar(Ref.Name);
  const int AccessIdx = addAccess(Ref, /*IsStore=*/false, ElemTy);
  Value Result = emit(VROp::Load, ElemTy);
  Summary.Body.back().AccessIdx = AccessIdx;
  return Result;
}

Value LoweringContext::lowerExpr(const Expr &E) {
  switch (E.kind()) {
  case ExprKind::IntLit:
    return {-1, ScalarType::Int};
  case ExprKind::FloatLit:
    return {-1, ScalarType::Double};
  case ExprKind::VarRef: {
    const std::string &Name = static_cast<const VarRef &>(E).Name;
    auto It = Defs.find(Name);
    if (It != Defs.end())
      return It->second;
    return {-1, typeOfVar(Name)}; // Loop-invariant or induction variable.
  }
  case ExprKind::ArrayRef:
    return lowerArrayLoad(static_cast<const ArrayRef &>(E));
  case ExprKind::Unary: {
    const auto &U = static_cast<const UnaryExpr &>(E);
    Value Sub = lowerExpr(*U.Sub);
    switch (U.Op) {
    case UnaryOp::Neg:
      return emit(VROp::Neg, Sub.Ty, Sub);
    case UnaryOp::Not:
    case UnaryOp::BitNot:
      return emit(VROp::Not, Sub.Ty, Sub);
    }
    return Sub;
  }
  case ExprKind::Binary: {
    const auto &B = static_cast<const BinaryExpr &>(E);
    Value L = lowerExpr(*B.LHS);
    Value R = lowerExpr(*B.RHS);
    const ScalarType Ty = promote(L.Ty, R.Ty);
    if (isComparisonOp(B.Op))
      return emit(VROp::Cmp, Ty, L, R);
    switch (B.Op) {
    case BinaryOp::Add:
      return emit(VROp::Add, Ty, L, R);
    case BinaryOp::Sub:
      return emit(VROp::Sub, Ty, L, R);
    case BinaryOp::Mul:
      return emit(VROp::Mul, Ty, L, R);
    case BinaryOp::Div:
      return emit(VROp::Div, Ty, L, R);
    case BinaryOp::Rem:
      return emit(VROp::Rem, Ty, L, R);
    case BinaryOp::Shl:
      return emit(VROp::Shl, Ty, L, R);
    case BinaryOp::Shr:
      return emit(VROp::Shr, Ty, L, R);
    case BinaryOp::And:
    case BinaryOp::LAnd:
      return emit(VROp::And, Ty, L, R);
    case BinaryOp::Or:
    case BinaryOp::LOr:
      return emit(VROp::Or, Ty, L, R);
    case BinaryOp::Xor:
      return emit(VROp::Xor, Ty, L, R);
    default:
      return emit(VROp::Add, Ty, L, R);
    }
  }
  case ExprKind::Ternary: {
    const auto &T = static_cast<const TernaryExpr &>(E);
    Value Cond = lowerExpr(*T.Cond);
    Value Then = lowerExpr(*T.Then);
    Value Else = lowerExpr(*T.Else);
    const ScalarType Ty = promote(Then.Ty, Else.Ty);
    Summary.HasPredicate = true;
    return emit(VROp::Select, Ty, Cond, Then, Else);
  }
  case ExprKind::Cast: {
    const auto &C = static_cast<const CastExpr &>(E);
    Value Sub = lowerExpr(*C.Sub);
    return castTo(Sub, C.Ty);
  }
  case ExprKind::Call: {
    const auto &C = static_cast<const CallExpr &>(E);
    std::vector<Value> Args;
    for (const auto &Arg : C.Args)
      Args.push_back(lowerExpr(*Arg));
    if (C.Callee == "min" && Args.size() == 2)
      return emit(VROp::Min, promote(Args[0].Ty, Args[1].Ty), Args[0],
                  Args[1]);
    if (C.Callee == "max" && Args.size() == 2)
      return emit(VROp::Max, promote(Args[0].Ty, Args[1].Ty), Args[0],
                  Args[1]);
    if ((C.Callee == "abs" || C.Callee == "fabs") && Args.size() == 1)
      return emit(VROp::Abs, Args[0].Ty, Args[0]);
    if (C.Callee == "sqrt" && Args.size() == 1)
      return emit(VROp::Sqrt,
                  isFloatTy(Args[0].Ty) ? Args[0].Ty : ScalarType::Double,
                  Args[0]);
    // Unknown call: the loop cannot be vectorized (like LLVM without a
    // vector function ABI mapping).
    Summary.HasUnknownCall = true;
    return {-1, ScalarType::Int};
  }
  }
  return {-1, ScalarType::Int};
}

bool LoweringContext::exprReads(const Expr &E, const std::string &Var) {
  switch (E.kind()) {
  case ExprKind::IntLit:
  case ExprKind::FloatLit:
    return false;
  case ExprKind::VarRef:
    return static_cast<const VarRef &>(E).Name == Var;
  case ExprKind::ArrayRef: {
    const auto &Ref = static_cast<const ArrayRef &>(E);
    for (const auto &Index : Ref.Indices)
      if (exprReads(*Index, Var))
        return true;
    return false;
  }
  case ExprKind::Unary:
    return exprReads(*static_cast<const UnaryExpr &>(E).Sub, Var);
  case ExprKind::Binary: {
    const auto &B = static_cast<const BinaryExpr &>(E);
    return exprReads(*B.LHS, Var) || exprReads(*B.RHS, Var);
  }
  case ExprKind::Ternary: {
    const auto &T = static_cast<const TernaryExpr &>(E);
    return exprReads(*T.Cond, Var) || exprReads(*T.Then, Var) ||
           exprReads(*T.Else, Var);
  }
  case ExprKind::Cast:
    return exprReads(*static_cast<const CastExpr &>(E).Sub, Var);
  case ExprKind::Call: {
    const auto &C = static_cast<const CallExpr &>(E);
    for (const auto &Arg : C.Args)
      if (exprReads(*Arg, Var))
        return true;
    return false;
  }
  }
  return false;
}

bool LoweringContext::detectReduction(const AssignStmt &A,
                                      const std::string &Var) {
  // Only loop-carried scalars (no def so far in the body) reduce.
  if (Defs.count(Var))
    return false;

  ReductionKind Kind = ReductionKind::None;
  switch (A.Op) {
  case AssignOp::AddAssign:
  case AssignOp::SubAssign:
    Kind = ReductionKind::Sum;
    break;
  case AssignOp::MulAssign:
    Kind = ReductionKind::Product;
    break;
  case AssignOp::Assign: {
    // Patterns: `s = s + x`, `s = x + s`, `s = s * x`,
    // `s = min/max(s, x)`, `s = c ? x : s`.
    const Expr *RHS = A.RHS.get();
    if (const auto *B = dynCast<BinaryExpr>(RHS)) {
      const bool LhsIsVar =
          dynCast<VarRef>(B->LHS.get()) &&
          static_cast<const VarRef *>(B->LHS.get())->Name == Var;
      const bool RhsIsVar =
          dynCast<VarRef>(B->RHS.get()) &&
          static_cast<const VarRef *>(B->RHS.get())->Name == Var;
      if (LhsIsVar || RhsIsVar) {
        if (B->Op == BinaryOp::Add ||
            (B->Op == BinaryOp::Sub && LhsIsVar))
          Kind = ReductionKind::Sum;
        else if (B->Op == BinaryOp::Mul)
          Kind = ReductionKind::Product;
      }
    } else if (const auto *C = dynCast<CallExpr>(RHS)) {
      if (C->Args.size() == 2 &&
          (exprReads(*C->Args[0], Var) || exprReads(*C->Args[1], Var))) {
        if (C->Callee == "min")
          Kind = ReductionKind::Min;
        else if (C->Callee == "max")
          Kind = ReductionKind::Max;
      }
    } else if (const auto *T = dynCast<TernaryExpr>(RHS)) {
      const auto IsVar = [&](const Expr &E) {
        const auto *V = dynCast<VarRef>(&E);
        return V && V->Name == Var;
      };
      if (IsVar(*T->Then) || IsVar(*T->Else))
        Kind = exprReads(*T->Cond, Var) ? ReductionKind::Max
                                        : ReductionKind::None;
    }
    break;
  }
  }
  if (Kind == ReductionKind::None)
    return false;

  Summary.Reduction.Kind = Kind;
  Summary.Reduction.Var = Var;
  Summary.Reduction.Ty = typeOfVar(Var);
  return true;
}

void LoweringContext::lowerAssign(const AssignStmt &A) {
  if (const auto *Ref = dynCast<ArrayRef>(A.LValue.get())) {
    const ScalarType ElemTy = typeOfVar(Ref->Name);
    Value RHS;
    if (A.Op == AssignOp::Assign) {
      RHS = lowerExpr(*A.RHS);
    } else {
      Value Old = lowerArrayLoad(*Ref);
      Value Update = lowerExpr(*A.RHS);
      const VROp Op = A.Op == AssignOp::AddAssign ? VROp::Add
                      : A.Op == AssignOp::SubAssign ? VROp::Sub
                                                    : VROp::Mul;
      RHS = emit(Op, promote(Old.Ty, Update.Ty), Old, Update);
    }
    RHS = castTo(RHS, ElemTy);
    // Indirect store indices need their loads materialized too.
    for (const auto &Index : Ref->Indices) {
      AffineIndex AI = analyzeIndex(*Index, LoopVars);
      if (!AI.IsAffine)
        (void)lowerExpr(*Index);
    }
    const int AccessIdx = addAccess(*Ref, /*IsStore=*/true, ElemTy);
    (void)emit(VROp::Store, ElemTy, RHS);
    Summary.Body.back().AccessIdx = AccessIdx;
    return;
  }

  const auto *Var = dynCast<VarRef>(A.LValue.get());
  assert(Var && "assignment lvalue is VarRef or ArrayRef by construction");
  const std::string &Name = Var->Name;
  const bool IsReduction = detectReduction(A, Name);
  const bool IsLoopCarried =
      !Defs.count(Name) && !IsReduction &&
      (A.Op != AssignOp::Assign || exprReads(*A.RHS, Name));

  Value Old = Defs.count(Name) ? Defs[Name]
                               : Value{-1, typeOfVar(Name)};
  Value NewVal;
  if (A.Op == AssignOp::Assign) {
    NewVal = lowerExpr(*A.RHS);
  } else {
    Value Update = lowerExpr(*A.RHS);
    const VROp Op = A.Op == AssignOp::AddAssign ? VROp::Add
                    : A.Op == AssignOp::SubAssign ? VROp::Sub
                                                  : VROp::Mul;
    NewVal = emit(Op, promote(Old.Ty, Update.Ty), Old, Update);
  }
  NewVal = castTo(NewVal, typeOfVar(Name));

  if (IsReduction && NewVal.Idx >= 0)
    Summary.Body[NewVal.Idx].ReductionUpdate = true;
  if (IsLoopCarried) {
    // A loop-carried scalar that is not a recognized reduction serializes
    // the loop entirely (e.g. `t = a[i] + t * 3`).
    Summary.HasScalarCycle = true;
  }
  if (PredicateDepth > 0 && !IsReduction) {
    // Conditional scalar def: blend with the incoming value.
    NewVal = emit(VROp::Select, NewVal.Ty, CurrentPredicate, NewVal, Old);
  }
  Defs[Name] = NewVal;
}

void LoweringContext::lowerStmt(const Stmt &S) {
  switch (S.kind()) {
  case StmtKind::Block:
    for (const auto &Child : static_cast<const BlockStmt &>(S).Stmts)
      lowerStmt(*Child);
    return;
  case StmtKind::Decl: {
    const auto &D = static_cast<const DeclStmt &>(S);
    if (D.Init) {
      Value Init = lowerExpr(*D.Init);
      Defs[D.Name] = castTo(Init, D.Ty);
    } else {
      Defs[D.Name] = {-1, D.Ty};
    }
    return;
  }
  case StmtKind::Assign:
    lowerAssign(static_cast<const AssignStmt &>(S));
    return;
  case StmtKind::If: {
    const auto &I = static_cast<const IfStmt &>(S);
    Summary.HasPredicate = true;
    Value SavedPredicate = CurrentPredicate;
    CurrentPredicate = lowerExpr(*I.Cond);
    ++PredicateDepth;
    lowerStmt(*I.Then);
    if (I.Else)
      lowerStmt(*I.Else);
    --PredicateDepth;
    CurrentPredicate = SavedPredicate;
    return;
  }
  case StmtKind::For:
    // The extractor guarantees the site is innermost; a nested loop here
    // means the program mutated since extraction.
    assert(false && "innermost loop body contains a nested loop");
    Summary.HasUnknownCall = true;
    return;
  case StmtKind::Return:
    // Early exit from inside a loop prevents vectorization.
    Summary.HasUnknownCall = true;
    return;
  }
}

LoopSummary LoweringContext::run() {
  Summary.Loop = Site.Inner;
  Summary.Depth = Site.Depth;

  lowerStmt(*Site.Inner->Body);

  // Type extremes over memory accesses (they set the lane count).
  bool SawAccess = false;
  for (const MemAccess &Access : Summary.Accesses) {
    SawAccess = true;
    if (sizeOf(Access.ElemTy) < sizeOf(Summary.NarrowestType))
      Summary.NarrowestType = Access.ElemTy;
    if (sizeOf(Access.ElemTy) > sizeOf(Summary.WidestType))
      Summary.WidestType = Access.ElemTy;
  }
  if (!SawAccess) {
    Summary.NarrowestType = ScalarType::Int;
    Summary.WidestType = ScalarType::Int;
  }

  // Trip counts: compile-time (empty env) and runtime (globals bound).
  ValueEnv Empty;
  if (auto Trip = tripCount(*Site.Inner, Empty))
    Summary.CompileTrip = *Trip;
  ValueEnv Runtime = runtimeEnv(Prog);
  // Outer loop indices may appear in inner bounds (triangular loops); bind
  // them to their midpoints for an average-case runtime trip count.
  long long Outer = 1;
  for (size_t I = 0; I + 1 < Site.Nest.size(); ++I) {
    const ForStmt *Loop = Site.Nest[I];
    long long Trip = tripCount(*Loop, Runtime).value_or(64);
    if (Trip <= 0)
      Trip = 1;
    Outer *= Trip;
    auto Init = evalExpr(*Loop->Init, Runtime);
    Runtime[Loop->IndexVar] =
        Init.value_or(0.0) +
        static_cast<double>(Trip / 2) * static_cast<double>(Loop->Step);
  }
  Summary.OuterIterations = Outer;
  Summary.RuntimeTrip = tripCount(*Site.Inner, Runtime).value_or(64);
  Summary.InnerStep = Site.Inner->Step != 0 ? Site.Inner->Step : 1;
  Summary.InnerVarLo = static_cast<long long>(
      evalExpr(*Site.Inner->Init, Runtime).value_or(0.0));

  Summary.MaxSafeVF = maxSafeVF(Summary, HWMaxVF);

  // Register pressure estimate: distinct arrays + live scalars + masks.
  int DistinctArrays = 0;
  std::vector<std::string> Seen;
  for (const MemAccess &Access : Summary.Accesses) {
    bool Found = false;
    for (const std::string &Name : Seen)
      Found |= Name == Access.Array;
    if (!Found) {
      Seen.push_back(Access.Array);
      ++DistinctArrays;
    }
  }
  Summary.LiveValues = DistinctArrays + static_cast<int>(Defs.size()) +
                       (Summary.HasPredicate ? 1 : 0) + 1;
  return Summary;
}

LoopSummary nv::lowerLoop(const Program &P, const LoopSite &Site,
                          int HWMaxVF) {
  LoweringContext Ctx(P, Site, HWMaxVF);
  return Ctx.run();
}

std::vector<LoopSummary> nv::lowerAllLoops(const Program &P,
                                           std::vector<LoopSite> &Sites,
                                           int HWMaxVF) {
  std::vector<LoopSummary> Summaries;
  Summaries.reserve(Sites.size());
  for (const LoopSite &Site : Sites)
    Summaries.push_back(lowerLoop(P, Site, HWMaxVF));
  return Summaries;
}
