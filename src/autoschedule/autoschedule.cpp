//===- autoschedule/autoschedule.cpp --------------------------------------===//

#include "autoschedule/autoschedule.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <limits>
#include <set>
#include <thread>

#include "analysis/affine.h"
#include "analysis/vector_legality.h"
#include "codegen/jit.h"
#include "ir/compare.h"
#include "ir/func.h"
#include "ir/printer.h"
#include "ir/visitor.h"
#include "pass/const_fold.h"
#include "pass/scalar_prop.h"
#include "pass/shrink_var.h"
#include "support/metrics.h"
#include "support/trace.h"

using namespace ft;

namespace {

struct LoopInfo {
  Ref<ForNode> Node;
  int Depth = 0;       ///< Number of enclosing loops.
  bool Innermost = true;
  int Parent = -1;     ///< Index of the enclosing loop in the list, or -1.
};

void collectLoops(const Stmt &S, int Parent, std::vector<LoopInfo> &Out) {
  switch (S->kind()) {
  case NodeKind::StmtSeq:
    for (const Stmt &Sub : cast<StmtSeqNode>(S)->Stmts)
      collectLoops(Sub, Parent, Out);
    return;
  case NodeKind::VarDef:
    collectLoops(cast<VarDefNode>(S)->Body, Parent, Out);
    return;
  case NodeKind::If: {
    auto I = cast<IfNode>(S);
    collectLoops(I->Then, Parent, Out);
    if (I->Else)
      collectLoops(I->Else, Parent, Out);
    return;
  }
  case NodeKind::For: {
    auto L = cast<ForNode>(S);
    int Mark = static_cast<int>(Out.size());
    Out.push_back({L, Parent < 0 ? 0 : Out[Parent].Depth + 1, true, Parent});
    collectLoops(L->Body, Mark, Out);
    if (static_cast<int>(Out.size()) > Mark + 1)
      Out[Mark].Innermost = false;
    return;
  }
  default:
    return;
  }
}

std::vector<LoopInfo> collectLoops(const Stmt &Root) {
  std::vector<LoopInfo> Out;
  collectLoops(Root, -1, Out);
  return Out;
}

std::optional<int64_t> constLen(const Ref<ForNode> &L) {
  Expr Len = constFold(L->len());
  if (auto I = dyn_cast<IntConstNode>(Len))
    return I->Val;
  return std::nullopt;
}

/// Adjacent sibling For pairs in any StmtSeq.
void collectAdjacentPairs(const Stmt &S,
                          std::vector<std::pair<int64_t, int64_t>> &Out) {
  switch (S->kind()) {
  case NodeKind::StmtSeq: {
    auto Seq = cast<StmtSeqNode>(S);
    for (size_t I = 0; I + 1 < Seq->Stmts.size(); ++I)
      if (isa<ForNode>(Seq->Stmts[I]) && isa<ForNode>(Seq->Stmts[I + 1]))
        Out.push_back({Seq->Stmts[I]->Id, Seq->Stmts[I + 1]->Id});
    for (const Stmt &Sub : Seq->Stmts)
      collectAdjacentPairs(Sub, Out);
    return;
  }
  case NodeKind::VarDef:
    collectAdjacentPairs(cast<VarDefNode>(S)->Body, Out);
    return;
  case NodeKind::For:
    collectAdjacentPairs(cast<ForNode>(S)->Body, Out);
    return;
  case NodeKind::If: {
    auto I = cast<IfNode>(S);
    collectAdjacentPairs(I->Then, Out);
    if (I->Else)
      collectAdjacentPairs(I->Else, Out);
    return;
  }
  default:
    return;
  }
}

/// True if some access in the loop body walks the last tensor dimension
/// with this iterator (the contiguity heuristic of auto_vectorize).
bool accessesContiguously(const Ref<ForNode> &L) {
  bool Found = false;
  std::function<void(const Expr &)> ScanE = [&](const Expr &E) {
    if (auto Ld = dyn_cast<LoadNode>(E)) {
      if (!Ld->Indices.empty())
        if (auto V = dyn_cast<VarNode>(Ld->Indices.back()))
          Found |= V->Name == L->Iter;
      for (const Expr &I : Ld->Indices)
        ScanE(I);
      return;
    }
    if (auto B = dyn_cast<BinaryNode>(E)) {
      ScanE(B->LHS);
      ScanE(B->RHS);
      return;
    }
    if (auto U = dyn_cast<UnaryNode>(E))
      return ScanE(U->Operand);
    if (auto C = dyn_cast<CastNode>(E))
      return ScanE(C->Operand);
    if (auto IE = dyn_cast<IfExprNode>(E)) {
      ScanE(IE->Cond);
      ScanE(IE->Then);
      ScanE(IE->Else);
    }
  };
  std::function<void(const Stmt &)> ScanS = [&](const Stmt &S) {
    switch (S->kind()) {
    case NodeKind::StmtSeq:
      for (const Stmt &Sub : cast<StmtSeqNode>(S)->Stmts)
        ScanS(Sub);
      return;
    case NodeKind::VarDef:
      return ScanS(cast<VarDefNode>(S)->Body);
    case NodeKind::For:
      return ScanS(cast<ForNode>(S)->Body);
    case NodeKind::If: {
      auto I = cast<IfNode>(S);
      ScanS(I->Then);
      if (I->Else)
        ScanS(I->Else);
      return;
    }
    case NodeKind::Store: {
      auto St = cast<StoreNode>(S);
      if (!St->Indices.empty())
        if (auto V = dyn_cast<VarNode>(St->Indices.back()))
          Found |= V->Name == L->Iter;
      ScanE(St->Value);
      return;
    }
    case NodeKind::ReduceTo:
      ScanE(cast<ReduceToNode>(S)->Value);
      return;
    default:
      return;
    }
  };
  ScanS(L->Body);
  return Found;
}

/// For pairs separated by exactly one statement: (loop, stmt, loop).
void collectNearPairs(
    const Stmt &S,
    std::vector<std::tuple<int64_t, int64_t, int64_t>> &Out) {
  if (auto Seq = dyn_cast<StmtSeqNode>(S)) {
    for (size_t I = 0; I + 2 < Seq->Stmts.size(); ++I)
      if (isa<ForNode>(Seq->Stmts[I]) && !isa<ForNode>(Seq->Stmts[I + 1]) &&
          isa<ForNode>(Seq->Stmts[I + 2]))
        Out.push_back({Seq->Stmts[I]->Id, Seq->Stmts[I + 1]->Id,
                       Seq->Stmts[I + 2]->Id});
    for (const Stmt &Sub : Seq->Stmts)
      collectNearPairs(Sub, Out);
    return;
  }
  if (auto D = dyn_cast<VarDefNode>(S))
    return collectNearPairs(D->Body, Out);
  if (auto L = dyn_cast<ForNode>(S))
    return collectNearPairs(L->Body, Out);
  if (auto I = dyn_cast<IfNode>(S)) {
    collectNearPairs(I->Then, Out);
    if (I->Else)
      collectNearPairs(I->Else, Out);
  }
}

int autoFuse(Schedule &S) {
  int N = 0;
  for (int Round = 0; Round < 64; ++Round) {
    std::vector<std::pair<int64_t, int64_t>> Pairs;
    collectAdjacentPairs(S.ast(), Pairs);
    bool Changed = false;
    for (const auto &[A, B] : Pairs)
      if (S.fuse(A, B).ok()) {
        ++N;
        Changed = true;
        break; // IDs shifted; rescan.
      }
    if (Changed)
      continue;
    // "Other transformations like swap may be applied to enable it"
    // (paper §4.3): move an interposed statement out of the way first.
    std::vector<std::tuple<int64_t, int64_t, int64_t>> Near;
    collectNearPairs(S.ast(), Near);
    for (const auto &[L1, Mid, L2] : Near) {
      if (!S.swap(Mid, L2).ok())
        continue;
      if (S.fuse(L1, L2).ok()) {
        ++N;
        Changed = true;
      } else {
        // Undo the swap if the fusion still failed.
        (void)S.swap(L2, Mid);
      }
      break;
    }
    if (!Changed)
      break;
  }
  return N;
}

int autoUseLib(Schedule &S) {
  int N = 0;
  for (int Round = 0; Round < 64; ++Round) {
    bool Changed = false;
    for (const LoopInfo &L : collectLoops(S.ast()))
      if (S.asLib(L.Node->Id).ok()) {
        ++N;
        Changed = true;
        break;
      }
    if (!Changed)
      break;
  }
  return N;
}

int autoVectorize(Schedule &S, int Width) {
  int N = 0;
  for (const LoopInfo &L : collectLoops(S.ast())) {
    if (!L.Innermost || L.Node->Property.Parallel ||
        L.Node->Property.Vectorize)
      continue;
    // The explicit-width form carries its own legality proof (and admits
    // single-accumulator reductions, which the legacy form must reject), so
    // it is attempted on every innermost loop; the contiguity heuristic
    // only gates the unproven hint-only fallback.
    if (Width > 0 && S.vectorize(L.Node->Id, Width).ok()) {
      ++N;
      continue;
    }
    if (!accessesContiguously(L.Node))
      continue;
    if (S.vectorize(L.Node->Id).ok())
      ++N;
  }
  // Multi-accumulator reduction bodies (e.g. GAT's two running dot
  // products) defeat the single-accumulator proof. Fission such a loop into
  // one piece per reduction and prove each piece; the attempt is rolled
  // back unless every piece vectorizes, so a failed try leaves no
  // structural change behind.
  if (Width > 0) {
    for (bool Changed = true; Changed;) {
      Changed = false;
      for (const LoopInfo &L : collectLoops(S.ast())) {
        if (!L.Innermost || L.Node->Property.Parallel ||
            L.Node->Property.Vectorize)
          continue;
        auto Seq = dyn_cast<StmtSeqNode>(L.Node->Body);
        if (!Seq || Seq->Stmts.size() < 2)
          continue;
        bool AllReduce = true;
        for (const Stmt &St : Seq->Stmts)
          AllReduce = AllReduce && isa<ReduceToNode>(St);
        if (!AllReduce)
          continue;
        Func Saved = S.func();
        bool Ok = true;
        int64_t Cur = L.Node->Id;
        size_t Pieces = Seq->Stmts.size();
        for (size_t P = 0; P + 1 < Pieces && Ok; ++P) {
          Ref<ForNode> CurL;
          for (const LoopInfo &L2 : collectLoops(S.ast()))
            if (L2.Node->Id == Cur)
              CurL = L2.Node;
          auto CurSeq = CurL ? dyn_cast<StmtSeqNode>(CurL->Body) : nullptr;
          if (!CurSeq || CurSeq->Stmts.empty()) {
            Ok = false;
            break;
          }
          auto FR = S.fission(Cur, CurSeq->Stmts.front()->Id);
          if (!FR.ok()) {
            Ok = false;
            break;
          }
          Ok = S.vectorize(FR->First, Width).ok();
          Cur = FR->Second;
        }
        Ok = Ok && S.vectorize(Cur, Width).ok();
        if (!Ok) {
          S = Schedule(std::move(Saved));
          continue;
        }
        N += static_cast<int>(Pieces);
        Changed = true;
        break; // Structure changed; rescan.
      }
    }
  }
  return N;
}

int autoParallelize(Schedule &S, int NumThreads) {
  // Architecture-aware rule (the paper's passes are "driven by heuristics
  // considering specific architectures"): with a single hardware thread,
  // threading and the atomics it requires are pure overhead.
  if (NumThreads == 0)
    NumThreads = static_cast<int>(std::thread::hardware_concurrency());
  if (NumThreads <= 1)
    return 0;
  int N = 0;
  // Parallelize top-level loops; when one is rejected, descend one level of
  // its perfect nest and retry.
  std::vector<int64_t> Candidates;
  for (const LoopInfo &L : collectLoops(S.ast()))
    if (L.Depth == 0)
      Candidates.push_back(L.Node->Id);
  for (int64_t Id : Candidates) {
    if (S.parallelize(Id).ok()) {
      ++N;
      continue;
    }
    auto Nest = S.perfectNest(Id);
    if (Nest.size() >= 2 && S.parallelize(Nest[1]->Id).ok())
      ++N;
  }
  return N;
}

/// Elements of the tensor \p Def defines, when its shape is constant.
std::optional<int64_t> constNumel(const Ref<VarDefNode> &Def) {
  int64_t N = 1;
  for (const Expr &E : Def->Info.Shape) {
    auto I = dyn_cast<IntConstNode>(constFold(E));
    if (!I)
      return std::nullopt;
    N *= I->Val;
  }
  return N;
}

int autoMemType(Schedule &S, int64_t Limit) {
  int N = 0;
  std::vector<std::string> Names;
  std::function<void(const Stmt &)> Scan = [&](const Stmt &St) {
    switch (St->kind()) {
    case NodeKind::StmtSeq:
      for (const Stmt &Sub : cast<StmtSeqNode>(St)->Stmts)
        Scan(Sub);
      return;
    case NodeKind::VarDef: {
      auto D = cast<VarDefNode>(St);
      if (D->ATy == AccessType::Cache && D->MTy == MemType::CPU)
        if (auto Numel = constNumel(D); Numel && *Numel <= Limit)
          Names.push_back(D->Name);
      Scan(D->Body);
      return;
    }
    case NodeKind::For:
      return Scan(cast<ForNode>(St)->Body);
    case NodeKind::If: {
      auto I = cast<IfNode>(St);
      Scan(I->Then);
      if (I->Else)
        Scan(I->Else);
      return;
    }
    default:
      return;
    }
  };
  Scan(S.ast());
  for (const std::string &Name : Names)
    if (S.setMemType(Name, MemType::CPULocal).ok())
      ++N;
  return N;
}

int autoUnroll(Schedule &S, int64_t Limit) {
  int N = 0;
  for (int Round = 0; Round < 64; ++Round) {
    bool Changed = false;
    for (const LoopInfo &L : collectLoops(S.ast())) {
      if (!L.Innermost || L.Node->Property.Parallel)
        continue;
      auto Len = constLen(L.Node);
      if (!Len || *Len > Limit || *Len < 2)
        continue;
      if (S.unroll(L.Node->Id, /*Full=*/true).ok()) {
        ++N;
        Changed = true;
        break;
      }
    }
    if (!Changed)
      break;
  }
  return N;
}

/// Read-only integer scalars of \p F: symbols in affine index reasoning.
IsParamFn paramsOf(const Func &F) {
  return [&F](const std::string &N) {
    auto D = findVarDef(F.Body, N);
    return D && D->ATy == AccessType::Input && D->Info.Shape.empty() &&
           isInt(D->Info.Dtype);
  };
}

/// One access of a tensor, as the layout rule sees it.
struct TensorUse {
  std::vector<Expr> Indices;
  AccessKind Kind = AccessKind::Read;
  ReduceOpKind Op = ReduceOpKind::Add; ///< Valid when Kind == Reduce.
};

/// The accesses of every tensor in a subtree, and the tensors it defines.
/// A GemmCall operand counts as an opaque write.
class UseCollector : public Visitor {
public:
  std::map<std::string, std::vector<TensorUse>> Uses;
  std::set<std::string> Defined;

protected:
  void visit(const LoadNode *E) override {
    Uses[E->Var].push_back({E->Indices, AccessKind::Read});
    Visitor::visit(E);
  }
  void visit(const StoreNode *S) override {
    Uses[S->Var].push_back({S->Indices, AccessKind::Write});
    Visitor::visit(S);
  }
  void visit(const ReduceToNode *S) override {
    Uses[S->Var].push_back({S->Indices, AccessKind::Reduce, S->Op});
    Visitor::visit(S);
  }
  void visit(const GemmCallNode *S) override {
    for (const std::string &V : {S->A, S->B, S->C})
      Uses[V].push_back({{}, AccessKind::Write});
    Visitor::visit(S);
  }
  void visit(const VarDefNode *S) override {
    Defined.insert(S->Name);
    Visitor::visit(S);
  }
};

UseCollector usesIn(const Stmt &S) {
  UseCollector C;
  C(S);
  return C;
}

/// True when iterator \p Iter appears in an index of one of \p Uses.
bool indexesWith(const std::vector<TensorUse> &Uses, const std::string &Iter) {
  struct Finder : Visitor {
    const std::string &Name;
    bool Found = false;
    explicit Finder(const std::string &N) : Name(N) {}
    void visit(const VarNode *V) override { Found |= V->Name == Name; }
  } F(Iter);
  for (const TensorUse &U : Uses)
    for (const Expr &I : U.Indices)
      F(I);
  return F.Found;
}

/// Re-proves loop \p Id after \p Copy replaced a tensor inside statement
/// \p Root, or says why the proof fails. Every innermost loop in \p Root
/// must reach the copy with unit stride (or not through its iterator), and
/// a loop proven as a single-accumulator reduction must still match that
/// pattern, which codegen lowers it by. The dependence half of vectorize's
/// proof holds as it was: the copy maps the tensor's elements one to one,
/// so the same iterations conflict.
std::string reproveAfterCopy(const Func &F, const Stmt &Root, int64_t Id,
                             const std::string &Copy) {
  IsParamFn IsParam = paramsOf(F);
  for (const LoopInfo &L : collectLoops(Root)) {
    if (L.Node->Id == Id && L.Node->Property.VectorWidth > 0 &&
        !L.Node->Property.NoDeps && !matchVectorReduction(L.Node))
      return "loop " + std::to_string(Id) +
             " no longer matches the single-accumulator pattern";
    if (!L.Innermost)
      continue;
    for (const VecAccess &A : classifyVectorAccesses(L.Node, IsParam))
      if (A.Var == Copy && (A.Class == VecAccessClass::Strided ||
                            A.Class == VecAccessClass::Gather))
        return "loop " + std::to_string(L.Node->Id) + " reaches `" + Copy +
               "` with a " + nameOf(A.Class) + " access";
  }
  return {};
}

/// auto_layout, the struct-of-arrays copy for SIMD (the cache, cache_reduce
/// and var_reorder primitives of paper §4.2.3). An innermost loop that
/// walks a tensor with its bare iterator in a dimension that is not the
/// last reads its lanes a whole row apart, and GCC leaves such a loop
/// scalar (SoftRas reads `verts[f][j][k]` as an interleaved group of 6
/// floats). When the loop runs at least \p Width iterations and the tensor
/// has a constant shape of at most \p SizeLimit elements, the tensor gets a
/// local copy with that dimension innermost. The copy wraps the outermost
/// enclosing loop that does not index the tensor, so it is made once per
/// reuse:
///   - when every access inside is a read, cache() fills it in front;
///   - when every access is a ReduceTo of one operator, cache_reduce()
///     accumulates into it and reduces it back afterwards, but never while
///     a loop around or inside it runs in parallel, whose adds into the
///     tensor would stay atomic and whose write-back would become so.
/// The loop must then prove again (reproveAfterCopy); otherwise the copy is
/// rolled back, which leaves the program as it was, and an `auto_layout`
/// rejection with the reason goes to the audit log. A loop the vectorize
/// proof rejected keeps its copy: GCC's own vectorizer then sees unit-stride
/// accesses (SoftRas's grad forward, whose tape store beside the
/// accumulator defeats the single-accumulator pattern, vectorizes this
/// way). The rule runs last, so no later rule tries its copy loops.
int autoLayout(Schedule &S, int Width, int64_t SizeLimit, MemType MTy) {
  int N = 0;
  std::set<std::pair<int64_t, std::string>> Tried;
  for (bool Changed = true; Changed;) {
    Changed = false;
    std::vector<LoopInfo> Loops = collectLoops(S.ast());
    for (const LoopInfo &L : Loops) {
      const Ref<ForNode> &Lp = L.Node;
      if (!L.Innermost || L.Parent < 0 || Lp->Property.Parallel)
        continue;
      auto Len = constLen(Lp);
      if (!Len || *Len < Width)
        continue;
      std::vector<int> Chain; // Enclosing loops, innermost first.
      for (int P = L.Parent; P >= 0; P = Loops[P].Parent)
        Chain.push_back(P);
      UseCollector InLoop = usesIn(Lp->Body);
      for (const auto &[Var, Uses] : InLoop.Uses) {
        int Dim = -1;
        for (const TensorUse &U : Uses)
          for (size_t D = 0; Dim < 0 && D + 1 < U.Indices.size(); ++D)
            if (auto V = dyn_cast<VarNode>(U.Indices[D]);
                V && V->Name == Lp->Iter)
              Dim = static_cast<int>(D);
        if (Dim < 0 || !Tried.insert({Lp->Id, Var}).second)
          continue;
        auto Def = findVarDef(S.ast(), Var);
        auto Numel = Def ? constNumel(Def) : std::nullopt;
        if (!Numel || *Numel > SizeLimit)
          continue;
        // Outermost enclosing loop that does not index the tensor.
        Ref<ForNode> Wrap;
        UseCollector Inside;
        for (auto It = Chain.rbegin(); It != Chain.rend() && !Wrap; ++It) {
          Inside = usesIn(Loops[*It].Node);
          if (!indexesWith(Inside.Uses[Var], Loops[*It].Node->Iter))
            Wrap = Loops[*It].Node;
        }
        if (!Wrap || Inside.Defined.count(Var))
          continue;
        bool Reads = true, Reduces = true;
        const std::vector<TensorUse> &All = Inside.Uses[Var];
        for (const TensorUse &U : All) {
          Reads = Reads && U.Kind == AccessKind::Read;
          Reduces = Reduces && U.Kind == AccessKind::Reduce &&
                    U.Op == All.front().Op;
        }
        if (Reduces) {
          bool Parallel = false;
          for (int P : Chain)
            Parallel = Parallel || Loops[P].Node->Property.Parallel;
          for (const LoopInfo &In : collectLoops(Wrap))
            Parallel = Parallel || In.Node->Property.Parallel;
          if (Parallel)
            continue;
        } else if (!Reads) {
          continue;
        }

        Func Saved = S.func();
        auto Copy = Reads ? S.cache(Wrap->Id, Var, MTy)
                          : S.cacheReduction(Wrap->Id, Var, MTy);
        if (!Copy.ok())
          continue;
        std::vector<int> Perm;
        for (int D = 0; D < static_cast<int>(Def->Info.Shape.size()); ++D)
          if (D != Dim)
            Perm.push_back(D);
        Perm.push_back(Dim);
        std::string Why;
        if (Status St = S.varReorder(*Copy, Perm); !St.ok())
          Why = St.message();
        else if (Stmt W = findStmt(S.ast(), Wrap->Id))
          Why = reproveAfterCopy(S.func(), W, Lp->Id, *Copy);
        else
          Why = "the copied statement is gone";
        if (Why.empty()) {
          ++N;
          Changed = true;
          break; // The tree changed; rescan.
        }
        S = Schedule(std::move(Saved));
        trace::ScheduleDecision D;
        D.Primitive = "auto_layout";
        D.Target = "var " + Var + " at stmt " + std::to_string(Wrap->Id);
        D.Reason = "copy rolled back: " + Why;
        D.StmtIds = {Wrap->Id, Lp->Id};
        trace::recordDecision(std::move(D));
      }
      if (Changed)
        break;
    }
  }
  return N;
}

} // namespace

AutoScheduleReport ft::autoSchedule(Schedule &S,
                                    const AutoScheduleOptions &Opts) {
  AutoScheduleReport R;
  trace::Span Sp("autoschedule/run");
  // Force audit-log collection for the duration of the run so the per-rule
  // tallies are available even when tracing is off.
  trace::AuditGuard Audit;
  // Runs one rule pass under an "autoschedule/<name>" span, then tallies
  // the schedule decisions the pass generated.
  auto RunRule = [&](const char *Name, int &Slot, auto &&Rule) {
    size_t Mark = trace::auditSize();
    trace::Span RuleSp(std::string("autoschedule/") + Name);
    Slot = Rule();
    RuleTally &T = R.Rules[Name];
    for (const trace::ScheduleDecision &D : trace::auditLogSince(Mark)) {
      ++T.Tried;
      ++(D.Applied ? T.Applied : T.Rejected);
    }
    if (RuleSp.active()) {
      RuleSp.annotate("applied", static_cast<int64_t>(T.Applied));
      RuleSp.annotate("rejected", static_cast<int64_t>(T.Rejected));
    }
  };
  S.cleanup();
  if (Opts.Cleanup) {
    Func F2 = S.func();
    F2.Body = shrinkVars(propagateScalars(F2.Body));
    S = Schedule(std::move(F2));
    S.cleanup();
  }
  if (Opts.Fuse)
    RunRule("auto_fuse", R.Fused, [&] { return autoFuse(S); });
  if (Opts.Vectorize)
    RunRule("auto_vectorize", R.Vectorized,
            [&] { return autoVectorize(S, Opts.VectorWidth); });
  if (Opts.Parallelize)
    RunRule("auto_parallelize", R.Parallelized,
            [&] { return autoParallelize(S, Opts.NumThreads); });
  if (Opts.MemType)
    RunRule("auto_mem_type", R.Localized,
            [&] { return autoMemType(S, Opts.LocalSizeLimit); });
  if (Opts.UseLib)
    RunRule("auto_use_lib", R.LibCalls, [&] { return autoUseLib(S); });
  if (Opts.Unroll)
    RunRule("auto_unroll", R.Unrolled,
            [&] { return autoUnroll(S, Opts.UnrollLimit); });
  if (Opts.Vectorize && Opts.Unroll && Opts.VectorWidth > 0) {
    // Fully unrolling a short reduction loop (e.g. the 3-neighbor loop of
    // SubdivNet) exposes a new innermost loop whose carried dependences are
    // now provably empty — give the vectorize rule a second look. Width 0
    // keeps the pre-SIMD pass order (and its emission) exactly.
    int More = 0;
    RunRule("auto_vectorize", More,
            [&] { return autoVectorize(S, Opts.VectorWidth); });
    R.Vectorized += More;
  }
  if (Opts.Vectorize && Opts.VectorWidth > 0)
    RunRule("auto_layout", R.Copied, [&] {
      return autoLayout(S, Opts.VectorWidth, Opts.LocalSizeLimit,
                        Opts.MemType ? MemType::CPULocal : MemType::CPU);
    });
  S.cleanup();
  return R;
}

Func ft::autoScheduleFunc(Func F, const AutoScheduleOptions &Opts,
                          AutoScheduleReport *Report) {
  Schedule S(std::move(F));
  AutoScheduleReport R = autoSchedule(S, Opts);
  if (Report)
    *Report = R;
  return S.func();
}

//===----------------------------------------------------------------------===//
// Measurement-driven search
//===----------------------------------------------------------------------===//

namespace {

/// xorshift64: deterministic, seedable, and plenty for picking mutations.
struct Rng {
  uint64_t S;
  uint64_t next() {
    S ^= S << 13;
    S ^= S >> 7;
    S ^= S << 17;
    return S;
  }
  size_t pick(size_t N) { return N ? static_cast<size_t>(next() % N) : 0; }
};

/// Applies one random schedule mutation. Every primitive is legality-checked
/// by Schedule itself; a rejected one leaves the program unchanged, which
/// the caller detects — and skips — via fingerprint dedup.
void mutateOnce(Schedule &S, Rng &R) {
  auto Loops = collectLoops(S.ast());
  if (Loops.empty())
    return;
  switch (R.next() % 8) {
  case 0: {
    static const int64_t Factors[] = {2, 4, 8, 16, 32};
    (void)S.split(Loops[R.pick(Loops.size())].Node->Id,
                  Factors[R.pick(std::size(Factors))]);
    return;
  }
  case 1:
    (void)S.parallelize(Loops[R.pick(Loops.size())].Node->Id);
    return;
  case 2: {
    const LoopInfo &L = Loops[R.pick(Loops.size())];
    if (L.Innermost)
      (void)S.unroll(L.Node->Id, /*Full=*/constLen(L.Node).has_value());
    return;
  }
  case 3: {
    const LoopInfo &L = Loops[R.pick(Loops.size())];
    if (L.Innermost)
      (void)S.vectorize(L.Node->Id);
    return;
  }
  case 4: {
    std::vector<std::pair<int64_t, int64_t>> Pairs;
    collectAdjacentPairs(S.ast(), Pairs);
    if (!Pairs.empty()) {
      const auto &[A, B] = Pairs[R.pick(Pairs.size())];
      (void)S.fuse(A, B);
    }
    return;
  }
  case 5: {
    const LoopInfo &L = Loops[R.pick(Loops.size())];
    auto Nest = S.perfectNest(L.Node->Id);
    if (Nest.size() >= 2)
      (void)S.reorder({Nest[1]->Id, Nest[0]->Id});
    return;
  }
  case 6: {
    // Explicit-width vectorize: unlike case 3's hint-only form, this one
    // proves legality (and admits single-accumulator reductions).
    static const int Widths[] = {4, 8, 16};
    const LoopInfo &L = Loops[R.pick(Loops.size())];
    if (L.Innermost)
      (void)S.vectorize(L.Node->Id, Widths[R.pick(std::size(Widths))]);
    return;
  }
  case 7: {
    // Composite split -> reorder -> vectorize: tile the top two loops of a
    // perfect nest and vectorize the resulting inner point loop.
    static const int64_t Tiles[] = {8, 16, 32};
    const LoopInfo &L = Loops[R.pick(Loops.size())];
    auto Nest = S.perfectNest(L.Node->Id);
    if (Nest.size() < 2)
      return;
    auto R0 = S.split(Nest[0]->Id, Tiles[R.pick(std::size(Tiles))]);
    auto R1 = S.split(Nest[1]->Id, Tiles[R.pick(std::size(Tiles))]);
    if (!R0.ok() || !R1.ok())
      return;
    S.cleanup(); // Simplify away divisible-split guards so the band is
                 // perfectly nested again.
    if (S.reorder({R0->First, R1->First, R0->Second, R1->Second}).ok())
      if (!S.vectorize(R1->Second, 8).ok())
        (void)S.vectorize(R1->Second);
    return;
  }
  }
}

//===----------------------------------------------------------------------===//
// Cache-footprint-driven tile candidates
//===----------------------------------------------------------------------===//

/// One deterministic tiling candidate: tile the top two loops of a perfect
/// nest by (TileI, TileJ) via split -> reorder, then vectorize the inner
/// point loop.
struct TilePlan {
  int64_t OuterId = -1;
  int64_t InnerId = -1;
  int64_t TileI = 1;
  int64_t TileJ = 1;
  double FootprintBytes = 0;
};

/// Estimated bytes one iteration tile touches. For every distinct access in
/// the nest body, each index dimension spans
///   1 + sum_iter |coeff(iter)| * (span(iter) - 1)
/// elements, where span() is the tile size for tiled iterators and the full
/// constant extent for untiled nest iterators; a non-affine index dimension
/// falls back to a pessimistic constant span. The per-access element counts
/// multiply across dimensions and sum across tensors, scaled by element
/// size. Duplicate accesses (same tensor, same index text) count once —
/// reuse is the point of tiling, not extra footprint.
double tileFootprintBytes(const Func &F, const Stmt &Body,
                          const std::map<std::string, int64_t> &IterSpan) {
  IsParamFn IsParam = paramsOf(F);
  constexpr double kNonAffineSpan = 8;
  double Total = 0;
  std::set<std::string> Seen;
  auto Account = [&](const std::string &Var, const std::vector<Expr> &Idx) {
    std::string Key = Var;
    for (const Expr &E : Idx)
      Key += "[" + toString(E) + "]";
    if (!Seen.insert(Key).second)
      return;
    double Elems = 1;
    for (const Expr &E : Idx) {
      auto Lin = toLinear(E, IsParam);
      if (!Lin) {
        Elems *= kNonAffineSpan;
        continue;
      }
      double Span = 1;
      for (const auto &[Iter, Width] : IterSpan)
        Span += static_cast<double>(std::abs(Lin->coeffOf(Iter))) *
                static_cast<double>(Width - 1);
      Elems *= Span;
    }
    double ESize = 4;
    if (auto D = findVarDef(F.Body, Var))
      ESize = static_cast<double>(sizeOf(D->Info.Dtype));
    Total += ESize * Elems;
  };
  std::function<void(const Expr &)> ScanE = [&](const Expr &E) {
    if (auto Ld = dyn_cast<LoadNode>(E)) {
      Account(Ld->Var, Ld->Indices);
      for (const Expr &I : Ld->Indices)
        ScanE(I);
      return;
    }
    if (auto B = dyn_cast<BinaryNode>(E)) {
      ScanE(B->LHS);
      ScanE(B->RHS);
      return;
    }
    if (auto U = dyn_cast<UnaryNode>(E))
      return ScanE(U->Operand);
    if (auto C = dyn_cast<CastNode>(E))
      return ScanE(C->Operand);
    if (auto IE = dyn_cast<IfExprNode>(E)) {
      ScanE(IE->Cond);
      ScanE(IE->Then);
      ScanE(IE->Else);
    }
  };
  std::function<void(const Stmt &)> ScanS = [&](const Stmt &St) {
    switch (St->kind()) {
    case NodeKind::StmtSeq:
      for (const Stmt &Sub : cast<StmtSeqNode>(St)->Stmts)
        ScanS(Sub);
      return;
    case NodeKind::VarDef:
      return ScanS(cast<VarDefNode>(St)->Body);
    case NodeKind::For:
      return ScanS(cast<ForNode>(St)->Body);
    case NodeKind::If: {
      auto I = cast<IfNode>(St);
      ScanE(I->Cond);
      ScanS(I->Then);
      if (I->Else)
        ScanS(I->Else);
      return;
    }
    case NodeKind::Store: {
      auto W = cast<StoreNode>(St);
      Account(W->Var, W->Indices);
      for (const Expr &I : W->Indices)
        ScanE(I);
      ScanE(W->Value);
      return;
    }
    case NodeKind::ReduceTo: {
      auto Red = cast<ReduceToNode>(St);
      Account(Red->Var, Red->Indices);
      for (const Expr &I : Red->Indices)
        ScanE(I);
      ScanE(Red->Value);
      return;
    }
    default:
      return;
    }
  };
  ScanS(Body);
  return Total;
}

/// Enumerates power-of-two tile pairs that exactly divide the constant
/// extents of the first depth>=2 perfect nest, ranked by how well one
/// iteration tile's estimated footprint fills L1 (any L1 fit beats any
/// L2-only fit, which beats any overflow; within a class, fuller is
/// better). Returns the best \p TopK plans.
std::vector<TilePlan> tilePlans(const Func &Seed, size_t TopK) {
  constexpr double kL1Bytes = 32 * 1024.0;
  constexpr double kL2Bytes = 256 * 1024.0;
  std::vector<TilePlan> Plans;
  Schedule S(Seed);
  for (const LoopInfo &L : collectLoops(S.ast())) {
    if (L.Depth != 0)
      continue;
    auto Nest = S.perfectNest(L.Node->Id);
    if (Nest.size() < 2)
      continue;
    auto N0 = constLen(Nest[0]);
    auto N1 = constLen(Nest[1]);
    if (!N0 || !N1 || *N0 < 4 || *N1 < 4)
      continue;
    const Stmt &Body = Nest.back()->Body;
    for (int64_t TI = 2; TI <= *N0 / 2; TI *= 2) {
      if (*N0 % TI != 0)
        continue;
      for (int64_t TJ = 2; TJ <= *N1 / 2; TJ *= 2) {
        if (*N1 % TJ != 0)
          continue;
        std::map<std::string, int64_t> Span;
        Span[Nest[0]->Iter] = TI;
        Span[Nest[1]->Iter] = TJ;
        // Deeper nest loops are not tiled: they sweep their full extent
        // inside one tile (pessimistic 64 when the extent is symbolic).
        for (size_t K = 2; K < Nest.size(); ++K)
          Span[Nest[K]->Iter] = constLen(Nest[K]).value_or(64);
        Plans.push_back({Nest[0]->Id, Nest[1]->Id, TI, TJ,
                         tileFootprintBytes(Seed, Body, Span)});
      }
    }
    break; // First suitable nest only: bounds the candidate count.
  }
  auto Score = [&](const TilePlan &P) {
    if (P.FootprintBytes <= kL1Bytes)
      return kL1Bytes - P.FootprintBytes;
    if (P.FootprintBytes <= kL2Bytes)
      return kL1Bytes + (kL2Bytes - P.FootprintBytes);
    return kL1Bytes + kL2Bytes + P.FootprintBytes;
  };
  std::sort(Plans.begin(), Plans.end(),
            [&](const TilePlan &A, const TilePlan &B) {
              if (Score(A) != Score(B))
                return Score(A) < Score(B);
              return std::make_pair(A.TileI, A.TileJ) <
                     std::make_pair(B.TileI, B.TileJ);
            });
  if (Plans.size() > TopK)
    Plans.resize(TopK);
  return Plans;
}

/// Builds the tiled candidate for one plan. A rejected primitive leaves the
/// program unchanged, and fingerprint dedup then collapses the candidate
/// onto one already measured — failure is cheap by construction.
Func applyTilePlan(const Func &Seed, const TilePlan &P, int VecWidth) {
  Schedule S(Seed);
  auto R0 = S.split(P.OuterId, P.TileI);
  auto R1 = S.split(P.InnerId, P.TileJ);
  if (R0.ok() && R1.ok()) {
    S.cleanup(); // Divisible splits: simplify removes the guards, restoring
                 // a perfectly nested band for reorder.
    (void)S.reorder({R0->First, R1->First, R0->Second, R1->Second});
  }
  for (const LoopInfo &L : collectLoops(S.ast())) {
    if (!L.Innermost || L.Node->Property.Parallel ||
        L.Node->Property.Vectorize)
      continue;
    if (!accessesContiguously(L.Node))
      continue;
    if (VecWidth <= 0 || !S.vectorize(L.Node->Id, VecWidth).ok())
      (void)S.vectorize(L.Node->Id);
  }
  S.cleanup();
  return S.func();
}

/// Compiles \p F (through the kernel cache) and returns the best-of-\p Runs
/// wall time of running it on \p Args, in milliseconds.
Result<double> measureMs(const Func &F,
                         const std::map<std::string, Buffer *> &Args,
                         int Runs, const std::string &OptFlags) {
  auto KR = Kernel::compile(F, OptFlags);
  if (!KR.ok())
    return Result<double>::error(KR.message());
  double Best = std::numeric_limits<double>::infinity();
  for (int I = 0; I < std::max(1, Runs); ++I) {
    auto T0 = std::chrono::steady_clock::now();
    if (Status St = KR->run(Args); !St.ok())
      return Result<double>::error(St.message());
    double Ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - T0)
                    .count();
    Best = std::min(Best, Ms);
  }
  return Best;
}

} // namespace

Result<Func> ft::autoTuneFunc(const Func &F,
                              const std::map<std::string, Buffer *> &Args,
                              const SearchOptions &Opts,
                              AutoScheduleReport *Report) {
  trace::Span Sp("autoschedule/search");
  auto &Dedup = metrics::counter("autoschedule/candidates_deduped");
  AutoScheduleReport R;
  Func Best = Opts.RulesFirst ? autoScheduleFunc(F, Opts.Rules, &R) : F;

  // Measurements memoized per whole-program fingerprint: structurally
  // identical candidates (however their loops happen to be named) compile
  // and run exactly once per search.
  std::map<uint64_t, double> Memo;
  auto Measure = [&](const Func &Cand) -> Result<double> {
    ++R.CandidatesTried;
    uint64_t FP = fingerprint(Cand);
    if (auto It = Memo.find(FP); It != Memo.end()) {
      ++R.CandidatesDeduped;
      Dedup.fetch_add(1);
      return It->second;
    }
    auto MsR = measureMs(Cand, Args, Opts.MeasureRuns, Opts.OptFlags);
    if (!MsR.ok())
      return MsR;
    ++R.CandidatesMeasured;
    Memo[FP] = *MsR;
    return MsR;
  };

  auto SeedMs = Measure(Best);
  if (!SeedMs.ok())
    return Result<Func>::error(SeedMs.message());
  double BestMs = *SeedMs;

  // Deterministic tile candidates from the cache-footprint heuristic run
  // before the random walk: they seed the search with the tilings most
  // likely to fit L1, and the walk then refines from whichever wins.
  const Func TileSeed = Best;
  for (const TilePlan &P : tilePlans(TileSeed, /*TopK=*/4)) {
    Func Cand = applyTilePlan(TileSeed, P, Opts.Rules.VectorWidth);
    auto MsR = Measure(Cand);
    if (MsR.ok() && *MsR < BestMs) {
      BestMs = *MsR;
      Best = std::move(Cand);
    }
  }

  Rng Rand{Opts.Seed ? Opts.Seed : 0x9e3779b97f4a7c15ull};
  for (int Round = 0; Round < Opts.Rounds; ++Round) {
    Schedule S(Best); // Mutators rebuild; the incumbent's tree is safe.
    int NMut = 1 + static_cast<int>(Rand.next() % 2);
    for (int M = 0; M < NMut; ++M)
      mutateOnce(S, Rand);
    S.cleanup();
    Func Cand = S.func();
    auto MsR = Measure(Cand);
    if (!MsR.ok())
      continue; // A candidate that fails to build or run is just discarded.
    if (*MsR < BestMs) {
      BestMs = *MsR;
      Best = std::move(Cand);
    }
  }

  R.BestMs = BestMs;
  if (Sp.active()) {
    Sp.annotate("tried", static_cast<int64_t>(R.CandidatesTried));
    Sp.annotate("deduped", static_cast<int64_t>(R.CandidatesDeduped));
    Sp.annotate("measured", static_cast<int64_t>(R.CandidatesMeasured));
    Sp.annotate("best_ms", BestMs);
  }
  if (Report)
    *Report = R;
  return Best;
}
