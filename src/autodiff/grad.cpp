//===- autodiff/grad.cpp --------------------------------------------------===//

#include "autodiff/grad.h"

#include <functional>
#include <set>

#include "analysis/access.h"
#include "analysis/affine.h"
#include "ir/mutator.h"
#include "pass/const_fold.h"
#include "pass/flatten.h"
#include "pass/replace.h"
#include "support/trace.h"

using namespace ft;

namespace {

std::string gradNameOf(const std::string &N) { return N + ".grad"; }
std::string tapeNameOf(const std::string &N) { return N + ".tape"; }

/// Extent assumed for a loop or dimension that is not a compile-time
/// constant (the pessimistic span tilePlans assumes).
constexpr double kSymbolicExtent = 64;

/// Deepest nesting of recomputed values one backward load may inline.
/// Planning tapes a link before a chain gets deeper than this.
constexpr int kMaxInlineDepth = 16;

/// Cost of one tape store or load relative to one op or cached load, by
/// the tape's footprint class: within L1, within L2 (the cache sizes
/// tilePlans ranks tiles by), or beyond.
double tapeAccessCost(double TapeBytes) {
  constexpr double kL1Bytes = 32 * 1024.0;
  constexpr double kL2Bytes = 256 * 1024.0;
  if (TapeBytes <= kL1Bytes)
    return 4;
  if (TapeBytes <= kL2Bytes)
    return 8;
  return 16;
}

/// The value of a constant extent, else kSymbolicExtent.
double extentOf(const Expr &E) {
  auto C = dyn_cast<IntConstNode>(constFold(E));
  return C ? double(std::max<int64_t>(C->Val, 0)) : kSymbolicExtent;
}

/// Counts non-leaf expression nodes and loads: the cost of evaluating an
/// expression once. Transcendental intrinsics are weighted heavily, so
/// recomputing an exp() per backward use loses to one tape load (§5.2).
void countExpr(const Expr &E, int *Ops, int *Loads) {
  switch (E->kind()) {
  case NodeKind::Load: {
    ++*Loads;
    for (const Expr &I : cast<LoadNode>(E)->Indices)
      countExpr(I, Ops, Loads);
    return;
  }
  case NodeKind::Binary: {
    ++*Ops;
    auto B = cast<BinaryNode>(E);
    countExpr(B->LHS, Ops, Loads);
    countExpr(B->RHS, Ops, Loads);
    return;
  }
  case NodeKind::Unary: {
    auto U = cast<UnaryNode>(E);
    switch (U->Op) {
    case UnOpKind::Exp:
    case UnOpKind::Ln:
    case UnOpKind::Sqrt:
    case UnOpKind::Sigmoid:
    case UnOpKind::Tanh:
      *Ops += 100;
      break;
    default:
      ++*Ops;
      break;
    }
    countExpr(U->Operand, Ops, Loads);
    return;
  }
  case NodeKind::IfExpr: {
    ++*Ops;
    auto IE = cast<IfExprNode>(E);
    countExpr(IE->Cond, Ops, Loads);
    countExpr(IE->Then, Ops, Loads);
    countExpr(IE->Else, Ops, Loads);
    return;
  }
  case NodeKind::Cast:
    countExpr(cast<CastNode>(E)->Operand, Ops, Loads);
    return;
  default:
    return;
  }
}

/// Collects every Load (recursively, including loads inside indices).
void collectLoads(const Expr &E, std::vector<Ref<LoadNode>> &Out) {
  switch (E->kind()) {
  case NodeKind::Load: {
    auto L = cast<LoadNode>(E);
    Out.push_back(L);
    for (const Expr &I : L->Indices)
      collectLoads(I, Out);
    return;
  }
  case NodeKind::Binary: {
    auto B = cast<BinaryNode>(E);
    collectLoads(B->LHS, Out);
    collectLoads(B->RHS, Out);
    return;
  }
  case NodeKind::Unary:
    collectLoads(cast<UnaryNode>(E)->Operand, Out);
    return;
  case NodeKind::IfExpr: {
    auto IE = cast<IfExprNode>(E);
    collectLoads(IE->Cond, Out);
    collectLoads(IE->Then, Out);
    collectLoads(IE->Else, Out);
    return;
  }
  case NodeKind::Cast:
    collectLoads(cast<CastNode>(E)->Operand, Out);
    return;
  default:
    return;
  }
}

/// One (load, partial-derivative) pair of an expression.
struct LoadDeriv {
  Ref<LoadNode> Load;
  Expr Deriv;
};

/// Symbolic differentiation: appends d(E)/d(load) * Seed for every Load in
/// \p E. The derivative expressions reference the original forward
/// subexpressions; the caller resolves those values afterwards.
void diffExpr(const Expr &E, const Expr &Seed, std::vector<LoadDeriv> &Out) {
  switch (E->kind()) {
  case NodeKind::Load:
    Out.push_back({cast<LoadNode>(E), Seed});
    return;
  case NodeKind::IntConst:
  case NodeKind::FloatConst:
  case NodeKind::BoolConst:
  case NodeKind::Var:
    return;
  case NodeKind::Cast: {
    auto C = cast<CastNode>(E);
    if (isFloat(C->Dtype))
      diffExpr(C->Operand, Seed, Out);
    return; // Casts to integer stop gradients.
  }
  case NodeKind::IfExpr: {
    auto IE = cast<IfExprNode>(E);
    diffExpr(IE->Then, makeIfExpr(IE->Cond, Seed, makeFloatConst(0.0)), Out);
    diffExpr(IE->Else, makeIfExpr(IE->Cond, makeFloatConst(0.0), Seed), Out);
    return;
  }
  case NodeKind::Unary: {
    auto U = cast<UnaryNode>(E);
    const Expr &X = U->Operand;
    switch (U->Op) {
    case UnOpKind::Neg:
      diffExpr(X, makeUnary(UnOpKind::Neg, Seed), Out);
      return;
    case UnOpKind::LNot:
      return;
    case UnOpKind::Abs:
      diffExpr(X,
               makeIfExpr(makeGE(X, makeFloatConst(0.0)), Seed,
                          makeUnary(UnOpKind::Neg, Seed)),
               Out);
      return;
    case UnOpKind::Sqrt:
      diffExpr(X,
               makeRealDiv(Seed, makeMul(makeFloatConst(2.0),
                                         makeUnary(UnOpKind::Sqrt, X))),
               Out);
      return;
    case UnOpKind::Exp:
      diffExpr(X, makeMul(Seed, makeUnary(UnOpKind::Exp, X)), Out);
      return;
    case UnOpKind::Ln:
      diffExpr(X, makeRealDiv(Seed, X), Out);
      return;
    case UnOpKind::Sigmoid: {
      Expr S = makeUnary(UnOpKind::Sigmoid, X);
      diffExpr(X,
               makeMul(Seed, makeMul(S, makeSub(makeFloatConst(1.0), S))),
               Out);
      return;
    }
    case UnOpKind::Tanh: {
      Expr T = makeUnary(UnOpKind::Tanh, X);
      diffExpr(X, makeMul(Seed, makeSub(makeFloatConst(1.0), makeMul(T, T))),
               Out);
      return;
    }
    }
    ftUnreachable("unknown unary in diffExpr");
  }
  case NodeKind::Binary: {
    auto B = cast<BinaryNode>(E);
    const Expr &L = B->LHS, &R = B->RHS;
    switch (B->Op) {
    case BinOpKind::Add:
      diffExpr(L, Seed, Out);
      diffExpr(R, Seed, Out);
      return;
    case BinOpKind::Sub:
      diffExpr(L, Seed, Out);
      diffExpr(R, makeUnary(UnOpKind::Neg, Seed), Out);
      return;
    case BinOpKind::Mul:
      diffExpr(L, makeMul(Seed, R), Out);
      diffExpr(R, makeMul(Seed, L), Out);
      return;
    case BinOpKind::RealDiv:
      diffExpr(L, makeRealDiv(Seed, R), Out);
      diffExpr(R,
               makeUnary(UnOpKind::Neg,
                         makeRealDiv(makeMul(Seed, L), makeMul(R, R))),
               Out);
      return;
    case BinOpKind::Min:
      diffExpr(L, makeIfExpr(makeLE(L, R), Seed, makeFloatConst(0.0)), Out);
      diffExpr(R, makeIfExpr(makeLT(R, L), Seed, makeFloatConst(0.0)), Out);
      return;
    case BinOpKind::Max:
      diffExpr(L, makeIfExpr(makeGE(L, R), Seed, makeFloatConst(0.0)), Out);
      diffExpr(R, makeIfExpr(makeGT(R, L), Seed, makeFloatConst(0.0)), Out);
      return;
    default:
      // Comparisons / logic / integer division: no gradient flows.
      return;
    }
  }
  default:
    ftUnreachable("statement kind in diffExpr");
  }
}

/// Differentiates the RHS of a write to Var[Indices]. For Stores whose
/// top-level operation is a transcendental, the derivative reuses the
/// *stored output value* (d exp(x) = out, d sigmoid = out*(1-out), ...)
/// instead of recomputing the intrinsic — the standard output-reuse rule,
/// which makes the stored tensor (tape or recompute) the only value the
/// backward pass needs.
void diffWrite(const std::string &Var, const std::vector<Expr> &Indices,
               DataType DT, const Expr &Value, bool IsStore,
               const Expr &Seed, std::vector<LoadDeriv> &Out) {
  if (IsStore) {
    if (auto U = dyn_cast<UnaryNode>(Value)) {
      Expr OutVal = makeLoad(Var, Indices, DT);
      switch (U->Op) {
      case UnOpKind::Exp:
        diffExpr(U->Operand, makeMul(Seed, OutVal), Out);
        return;
      case UnOpKind::Sqrt:
        diffExpr(U->Operand,
                 makeRealDiv(Seed, makeMul(makeFloatConst(2.0), OutVal)),
                 Out);
        return;
      case UnOpKind::Sigmoid:
        diffExpr(U->Operand,
                 makeMul(Seed, makeMul(OutVal,
                                       makeSub(makeFloatConst(1.0),
                                               OutVal))),
                 Out);
        return;
      case UnOpKind::Tanh:
        diffExpr(U->Operand,
                 makeMul(Seed, makeSub(makeFloatConst(1.0),
                                       makeMul(OutVal, OutVal))),
                 Out);
        return;
      default:
        break;
      }
    }
  }
  diffExpr(Value, Seed, Out);
}

/// Per-tensor facts gathered in one pre-pass.
struct TensorMeta {
  Ref<VarDefNode> Def;
  std::vector<Ref<ForNode>> ScopeLoops;      ///< Loops enclosing the VarDef.
  std::vector<Ref<ForNode>> StoreInnerLoops; ///< Loops around the single
                                             ///  Store, inside the VarDef.
  Ref<StoreNode> SingleStore;
  int StoreOrder = -1; ///< Position of the last Store in program order.
  int NumStores = 0;
  bool HasReduce = false;
  bool HasNonAddReduce = false;
  bool StoreGuarded = false;
  bool ReadBeforeStore = false;
};

class GradGen {
public:
  GradGen(const Func &F, std::vector<std::string> Wrt, TapeStrategy Strategy)
      : F(F), Wrt(std::move(Wrt)), Strategy(Strategy) {}

  Result<GradResult> run() {
    collectMeta(F.Body, {});
    for (const std::string &W : Wrt) {
      auto It = Meta.find(W);
      if (It == Meta.end() || It->second.Def->ATy != AccessType::Input)
        return Result<GradResult>::error("grad: `" + W +
                                         "` is not an Input parameter");
      if (!isFloat(It->second.Def->Info.Dtype))
        return Result<GradResult>::error("grad: `" + W +
                                         "` is not a float tensor");
    }

    if (Status S = planMaterialization(); !S)
      return S;
    if (Status S = validateSupported(); !S)
      return S;

    GradResult Out;
    Out.Decisions = std::move(Decisions);
    if (Status S = buildForward(&Out); !S)
      return S;
    if (Status S = buildBackward(&Out); !S)
      return S;
    return Out;
  }

private:
  //===-- Pre-pass ---------------------------------------------------------===//

  void collectMeta(const Stmt &S, std::vector<Ref<ForNode>> LoopStack,
                   int IfDepth = 0) {
    switch (S->kind()) {
    case NodeKind::StmtSeq:
      for (const Stmt &Sub : cast<StmtSeqNode>(S)->Stmts)
        collectMeta(Sub, LoopStack, IfDepth);
      return;
    case NodeKind::VarDef: {
      auto D = cast<VarDefNode>(S);
      TensorMeta &M = Meta[D->Name];
      ftAssert(M.Def == nullptr, "duplicate tensor name in grad: " + D->Name);
      M.Def = D;
      M.ScopeLoops = LoopStack;
      IfDepthAtDef[D->Name] = IfDepth;
      collectMeta(D->Body, LoopStack, IfDepth);
      return;
    }
    case NodeKind::For: {
      auto L = cast<ForNode>(S);
      LoopStack.push_back(L);
      collectMeta(L->Body, LoopStack, IfDepth);
      return;
    }
    case NodeKind::If: {
      auto I = cast<IfNode>(S);
      collectMeta(I->Then, LoopStack, IfDepth + 1);
      if (I->Else)
        collectMeta(I->Else, LoopStack, IfDepth + 1);
      return;
    }
    case NodeKind::Store: {
      auto St = cast<StoreNode>(S);
      auto It = Meta.find(St->Var);
      if (It == Meta.end())
        return; // Free tensor (tests); no meta.
      TensorMeta &M = It->second;
      ++M.NumStores;
      M.SingleStore = St;
      M.StoreOrder = NumStoresSeen++;
      M.StoreInnerLoops.assign(LoopStack.begin() + M.ScopeLoops.size(),
                               LoopStack.end());
      if (IfDepth > IfDepthAtDef[St->Var])
        M.StoreGuarded = true;
      // Reads of the target inside its own RHS or indices.
      std::vector<Ref<LoadNode>> Loads;
      collectLoads(St->Value, Loads);
      for (const Expr &I : St->Indices)
        collectLoads(I, Loads);
      for (const auto &L : Loads)
        if (L->Var == St->Var)
          M.ReadBeforeStore = true;
      return;
    }
    case NodeKind::ReduceTo: {
      auto R = cast<ReduceToNode>(S);
      auto It = Meta.find(R->Var);
      if (It == Meta.end())
        return;
      It->second.HasReduce = true;
      if (R->Op != ReduceOpKind::Add)
        It->second.HasNonAddReduce = true;
      return;
    }
    default:
      return;
    }
  }

  bool isCache(const std::string &N) const {
    auto It = Meta.find(N);
    return It != Meta.end() && It->second.Def->ATy == AccessType::Cache;
  }

  /// True if a gradient tensor exists for \p N.
  bool differentiable(const std::string &N) const {
    auto It = Meta.find(N);
    if (It == Meta.end())
      return false;
    const VarDefNode *D = It->second.Def.get();
    if (!isFloat(D->Info.Dtype) || D->NoGrad)
      return false;
    if (D->ATy == AccessType::Cache || D->ATy == AccessType::Output)
      return true;
    return std::find(Wrt.begin(), Wrt.end(), N) != Wrt.end();
  }

  /// True if the single Store's indices are exactly the iterators of the
  /// loops between the VarDef and the Store (the invertibility condition of
  /// inline recomputation).
  static bool storeIdxPureIters(const TensorMeta &M) {
    if (!M.SingleStore)
      return false;
    if (M.SingleStore->Indices.size() != M.StoreInnerLoops.size())
      return false;
    for (size_t I = 0; I < M.StoreInnerLoops.size(); ++I) {
      auto V = dyn_cast<VarNode>(M.SingleStore->Indices[I]);
      if (!V || V->Name != M.StoreInnerLoops[I]->Iter)
        return false;
    }
    return true;
  }

  //===-- Materialization planning (paper §5.2) ---------------------------===//

  /// A recompute candidate and its costs under the current plan.
  struct Candidate {
    std::string Name;
    double OpsLoads = 0;            ///< countExpr of the RHS.
    std::vector<std::string> Reads; ///< Intermediates the RHS loads, with
                                    ///  multiplicity.
    double Uses = 0; ///< Evaluations at its own backward uses.
    double TapeElems = 0;
    double TapeBytes = 0;
    double PerEval = 0; ///< One evaluation, recomputed operands inlined.
    double Evals = 0;   ///< Backward evaluations.
    int Depth = 0;      ///< Recomputed values one evaluation nests.

    double recomputeCost() const { return Evals * PerEval; }
    double materializeCost() const {
      return TapeElems * 2 * tapeAccessCost(TapeBytes) + Evals;
    }
  };

  /// Marks the intermediates \p E reads as needed by the backward pass,
  /// each read once per iteration of the \p Trips loop iterations around
  /// the use.
  void addUses(const Expr &E, double Trips) {
    std::vector<Ref<LoadNode>> Loads;
    collectLoads(E, Loads);
    for (const auto &L : Loads)
      if (isCache(L->Var)) {
        Needed.insert(L->Var);
        Uses[L->Var] += Trips;
      }
  }

  Status planMaterialization() {
    // Seed: values appearing in derivative expressions of differentiable
    // writes, plus index expressions of gradient targets, with the trip
    // count of the loops around each use.
    std::function<void(const Stmt &, double)> Scan = [&](const Stmt &S,
                                                         double Trips) {
      switch (S->kind()) {
      case NodeKind::StmtSeq:
        for (const Stmt &Sub : cast<StmtSeqNode>(S)->Stmts)
          Scan(Sub, Trips);
        return;
      case NodeKind::VarDef:
        Scan(cast<VarDefNode>(S)->Body, Trips);
        return;
      case NodeKind::For: {
        auto L = cast<ForNode>(S);
        Scan(L->Body, Trips * extentOf(makeSub(L->End, L->Begin)));
        return;
      }
      case NodeKind::If: {
        auto I = cast<IfNode>(S);
        // Branch conditions re-evaluate in the backward pass.
        addUses(I->Cond, Trips);
        Scan(I->Then, Trips);
        if (I->Else)
          Scan(I->Else, Trips);
        return;
      }
      case NodeKind::Store:
      case NodeKind::ReduceTo: {
        std::string Var;
        Expr Value;
        std::vector<Expr> Indices;
        if (auto St = dyn_cast<StoreNode>(S)) {
          Var = St->Var;
          Value = St->Value;
          Indices = St->Indices;
        } else {
          auto R = cast<ReduceToNode>(S);
          Var = R->Var;
          Value = R->Value;
          Indices = R->Indices;
        }
        if (!differentiable(Var))
          return;
        Expr Seed = makeLoad("$seed", {}, DataType::Float32);
        std::vector<LoadDeriv> Derivs;
        diffWrite(Var, Indices, Meta.at(Var).Def->Info.Dtype, Value,
                  isa<StoreNode>(S), Seed, Derivs);
        for (const LoadDeriv &D : Derivs) {
          if (!differentiable(D.Load->Var))
            continue;
          addUses(D.Deriv, Trips);
          // The load's own indices are re-evaluated for the accumulation.
          for (const Expr &I : D.Load->Indices)
            addUses(I, Trips);
        }
        for (const Expr &I : Indices)
          addUses(I, Trips);
        return;
      }
      case NodeKind::GemmCall: {
        auto G = cast<GemmCallNode>(S);
        if (differentiable(G->C)) {
          Needed.insert(G->A);
          Needed.insert(G->B);
        }
        return;
      }
      default:
        return;
      }
    };
    Scan(F.Body, 1);

    // Selective starts by recomputing every candidate the backward pass
    // can reach, directly or through another candidate's RHS: a value one
    // unguarded store defines from pure-iterator indices, with no
    // reduction.
    std::vector<Candidate> Cands;
    if (Strategy == TapeStrategy::Selective) {
      std::set<std::string> Seen;
      std::vector<std::string> Work(Needed.begin(), Needed.end());
      while (!Work.empty()) {
        std::string T = Work.back();
        Work.pop_back();
        if (!isCache(T) || !Seen.insert(T).second)
          continue;
        const TensorMeta &M = Meta.at(T);
        if (M.NumStores != 1 || M.HasReduce || M.StoreGuarded ||
            !storeIdxPureIters(M))
          continue;
        Candidate C;
        C.Name = T;
        C.Uses = Uses[T];
        int Ops = 0, Loads = 0;
        countExpr(M.SingleStore->Value, &Ops, &Loads);
        C.OpsLoads = Ops + Loads;
        std::vector<Ref<LoadNode>> Reads;
        collectLoads(M.SingleStore->Value, Reads);
        for (const auto &L : Reads)
          if (isCache(L->Var)) {
            C.Reads.push_back(L->Var);
            Work.push_back(L->Var);
          }
        C.TapeElems = 1;
        for (const Expr &D : tapeShapeOf(T))
          C.TapeElems *= extentOf(D);
        C.TapeBytes = C.TapeElems * sizeOf(M.Def->Info.Dtype);
        Cands.push_back(std::move(C));
        Recomputed.insert(T);
      }
      // Program order of the stores: operands before the values they feed.
      std::sort(Cands.begin(), Cands.end(),
                [&](const Candidate &A, const Candidate &B) {
                  return Meta.at(A.Name).StoreOrder <
                         Meta.at(B.Name).StoreOrder;
                });
    }

    // Tape the worst recompute and re-price, until every recomputed value
    // costs less than its tape and nests at most kMaxInlineDepth levels.
    std::map<std::string, size_t> Index;
    for (size_t I = 0; I < Cands.size(); ++I)
      Index[Cands[I].Name] = I;
    while (true) {
      priceCandidates(Cands, Index);
      const Candidate *Worst = nullptr;
      for (const Candidate &C : Cands) {
        if (!Recomputed.count(C.Name))
          continue;
        // The first link past the depth limit: taping it cuts every chain
        // through it.
        if (C.Depth > kMaxInlineDepth) {
          Worst = &C;
          break;
        }
        double Excess = C.recomputeCost() - C.materializeCost();
        if (Excess >= 0 &&
            (!Worst ||
             Excess > Worst->recomputeCost() - Worst->materializeCost()))
          Worst = &C;
      }
      if (!Worst)
        break;
      Recomputed.erase(Worst->Name);
    }

    // The backward pass reads the seeds and, transitively, what recomputed
    // values read; of those, every intermediate not recomputed is taped.
    std::vector<std::string> Work(Needed.begin(), Needed.end());
    while (!Work.empty()) {
      std::string T = Work.back();
      Work.pop_back();
      if (!Recomputed.count(T))
        continue;
      for (const std::string &R : Cands[Index.at(T)].Reads)
        if (Needed.insert(R).second)
          Work.push_back(R);
    }
    std::erase_if(Recomputed,
                  [&](const std::string &T) { return !Needed.count(T); });
    for (const std::string &T : Needed)
      if (isCache(T) && !Recomputed.count(T))
        Materialized.insert(T);

    for (const Candidate &C : Cands)
      if (Needed.count(C.Name))
        recordChoice(C);
    return Status::success();
  }

  /// Prices every candidate under the current Recomputed set. \p Cands is
  /// in store order, so a recomputed operand is priced before its reader
  /// and a reader's evaluations are final before they reach its operands.
  void priceCandidates(std::vector<Candidate> &Cands,
                       const std::map<std::string, size_t> &Index) const {
    for (size_t I = 0; I < Cands.size(); ++I) {
      Candidate &C = Cands[I];
      C.PerEval = C.OpsLoads;
      C.Evals = C.Uses;
      int Deepest = 0;
      for (const std::string &R : C.Reads) {
        if (!Recomputed.count(R))
          continue;
        size_t J = Index.at(R);
        if (J >= I) { // Read before it is stored: inlining would not end.
          Deepest = kMaxInlineDepth;
          continue;
        }
        C.PerEval += Cands[J].PerEval - 1; // Its RHS replaces one load.
        Deepest = std::max(Deepest, Cands[J].Depth);
      }
      C.Depth = Deepest + 1;
    }
    for (size_t I = Cands.size(); I-- > 0;) {
      if (!Recomputed.count(Cands[I].Name))
        continue;
      for (const std::string &R : Cands[I].Reads) {
        auto It = Index.find(R);
        if (It != Index.end() && It->second < I)
          Cands[It->second].Evals += Cands[I].Evals;
      }
    }
  }

  /// Reports one decision in the result and the audit log.
  void recordChoice(const Candidate &C) {
    // Clamped: an estimate over symbolic extents can exceed uint64_t.
    RecomputeDecision D{C.Name,
                        Recomputed.count(C.Name) > 0,
                        C.recomputeCost(),
                        C.materializeCost(),
                        static_cast<uint64_t>(std::min(C.TapeBytes, 1e18)),
                        Meta.at(C.Name).SingleStore->Id};
    if (trace::auditEnabled()) {
      char Costs[96];
      std::snprintf(Costs, sizeof(Costs), "recompute %.4g vs materialize %.4g",
                    D.RecomputeCost, D.MaterializeCost);
      trace::ScheduleDecision A;
      A.Primitive = "grad/recompute";
      A.Target = D.Tensor;
      A.Applied = D.Recomputed;
      A.Reason = Costs;
      A.StmtIds = {D.StoreId};
      trace::recordDecision(std::move(A));
    }
    Decisions.push_back(std::move(D));
  }

  //===-- Structural validation -------------------------------------------===//

  Status validateSupported() {
    IsParamFn IsParam = [&](const std::string &N) {
      auto It = Meta.find(N);
      return It != Meta.end() && It->second.Def->ATy == AccessType::Input &&
             It->second.Def->Info.Shape.empty() &&
             isInt(It->second.Def->Info.Dtype);
    };
    for (const auto &[Name, M] : Meta) {
      bool Involved = differentiable(Name) || Needed.count(Name);
      if (!Involved)
        continue;
      if (M.Def->ATy == AccessType::InOut)
        return Status::error("grad: InOut parameter `" + Name +
                             "` is unsupported");
      if (M.HasNonAddReduce && differentiable(Name))
        return Status::error(
            "grad: Min/Max/Mul reduction into `" + Name +
            "` has no gradient; mark the tensor no_grad (stop-gradient)");
      if (isCache(Name)) {
        if (M.NumStores > 1)
          return Status::error("grad: `" + Name +
                               "` is stored more than once per scope, which "
                               "AD does not support");
        if (M.ReadBeforeStore)
          return Status::error("grad: `" + Name +
                               "` is read while computing its own store");
      }
      if (Materialized.count(Name)) {
        // Tape shape must be expressible outside the scope loops.
        for (const auto &L : M.ScopeLoops) {
          auto B = toLinear(L->Begin, IsParam);
          auto E = toLinear(L->End, IsParam);
          if (!B || !E)
            return Status::error("grad: cannot size the tape of `" + Name +
                                 "`: enclosing loop bounds are not affine "
                                 "in parameters");
          for (const auto &[VarName, C] : B->coeffs())
            if (!VarName.starts_with("$"))
              return Status::error("grad: tape of `" + Name +
                                   "` needs non-rectangular versioning");
          for (const auto &[VarName, C] : E->coeffs())
            if (!VarName.starts_with("$"))
              return Status::error("grad: tape of `" + Name +
                                   "` needs non-rectangular versioning");
        }
      }
    }
    return Status::success();
  }

  //===-- Forward pass ------------------------------------------------------===//

  /// Inserts tape writes at the end of every materialized tensor's VarDef.
  class TapeInserter : public Mutator {
  public:
    TapeInserter(GradGen &G) : G(G) {}

  protected:
    Stmt visit(const VarDefNode *S) override {
      Stmt Out = Mutator::visit(S);
      if (!G.Materialized.count(S->Name))
        return Out;
      auto D = cast<VarDefNode>(Out);
      const TensorMeta &M = G.Meta.at(S->Name);
      // Tape indices: (scope iterator - begin) ... then element indices.
      std::vector<Expr> TapeIdx;
      for (const auto &L : M.ScopeLoops)
        TapeIdx.push_back(makeSub(makeVar(L->Iter), L->Begin));
      std::vector<Expr> ElemIdx;
      std::vector<std::string> Iters;
      for (size_t Dim = 0; Dim < D->Info.Shape.size(); ++Dim) {
        std::string It = "tw." + std::to_string(G.FreshCounter++);
        Iters.push_back(It);
        ElemIdx.push_back(makeVar(It));
      }
      std::vector<Expr> FullIdx = TapeIdx;
      FullIdx.insert(FullIdx.end(), ElemIdx.begin(), ElemIdx.end());
      Stmt Copy = makeStore(tapeNameOf(S->Name), FullIdx,
                            makeLoad(S->Name, ElemIdx, D->Info.Dtype));
      for (size_t Dim = D->Info.Shape.size(); Dim-- > 0;)
        Copy = makeFor(Iters[Dim], makeIntConst(0), D->Info.Shape[Dim],
                       ForProperty{}, Copy);
      Stmt NewBody = makeStmtSeq({D->Body, Copy});
      Stmt New = makeVarDef(D->Name, D->Info, D->ATy, D->MTy, NewBody,
                            D->Id);
      cast<VarDefNode>(New)->NoGrad = D->NoGrad;
      return New;
    }

  private:
    GradGen &G;
  };

  std::vector<Expr> tapeShapeOf(const std::string &Name) {
    const TensorMeta &M = Meta.at(Name);
    std::vector<Expr> Shape;
    for (const auto &L : M.ScopeLoops)
      Shape.push_back(constFold(makeSub(L->End, L->Begin)));
    for (const Expr &D : M.Def->Info.Shape)
      Shape.push_back(D);
    return Shape;
  }

  /// Shape product x element size, or 0 when an extent does not fold.
  static uint64_t tensorBytes(const std::vector<Expr> &Shape, DataType DT) {
    uint64_t Elems = 1;
    for (const Expr &D : Shape) {
      auto C = dyn_cast<IntConstNode>(constFold(D));
      if (!C || C->Val < 0)
        return 0;
      Elems *= static_cast<uint64_t>(C->Val);
    }
    return Elems * sizeOf(DT);
  }

  Status buildForward(GradResult *Out) {
    Func Fwd = F;
    Fwd.Name = F.Name + ".fwd";
    Fwd.Body = TapeInserter(*this)(Fwd.Body);
    for (const std::string &T : Materialized) {
      std::string Tape = tapeNameOf(T);
      Fwd.Params.push_back(Tape);
      std::vector<Expr> Shape = tapeShapeOf(T);
      DataType DT = Meta.at(T).Def->Info.Dtype;
      Out->TapeBytes[Tape] = tensorBytes(Shape, DT);
      Fwd.Body = makeVarDef(Tape, TensorInfo{std::move(Shape), DT},
                            AccessType::Output, MemType::CPU, Fwd.Body);
      Out->Tapes.push_back(Tape);
    }
    Out->Forward = std::move(Fwd);
    return Status::success();
  }

  //===-- Backward pass -----------------------------------------------------===//

  /// Replaces loads of intermediate tensors by their tape entries or their
  /// inlined recomputation. \p Inlined counts the recomputed values being
  /// expanded around \p E; planning keeps it within kMaxInlineDepth.
  Expr resolveValue(const Expr &E, int Inlined = 0) {
    switch (E->kind()) {
    case NodeKind::Load: {
      auto L = cast<LoadNode>(E);
      std::vector<Expr> Idx;
      for (const Expr &I : L->Indices)
        Idx.push_back(resolveValue(I, Inlined));
      if (!isCache(L->Var))
        return makeLoad(L->Var, Idx, L->Dtype);
      if (Materialized.count(L->Var)) {
        const TensorMeta &M = Meta.at(L->Var);
        std::vector<Expr> Full;
        for (const auto &Lp : M.ScopeLoops)
          Full.push_back(makeSub(makeVar(Lp->Iter), Lp->Begin));
        Full.insert(Full.end(), Idx.begin(), Idx.end());
        return makeLoad(tapeNameOf(L->Var), Full, L->Dtype);
      }
      if (Recomputed.count(L->Var)) {
        if (Inlined == kMaxInlineDepth) {
          Fail = Status::error("grad: recompute recursion too deep");
          return E;
        }
        const TensorMeta &M = Meta.at(L->Var);
        Expr V = M.SingleStore->Value;
        for (size_t I = 0; I < M.StoreInnerLoops.size(); ++I)
          V = substituteIter(V, M.StoreInnerLoops[I]->Iter, Idx[I]);
        return resolveValue(V, Inlined + 1);
      }
      Fail = Status::error("grad: value of `" + L->Var +
                           "` is needed by the backward pass but was "
                           "neither taped nor recomputable");
      return E;
    }
    case NodeKind::Binary: {
      auto B = cast<BinaryNode>(E);
      return makeBinary(B->Op, resolveValue(B->LHS, Inlined),
                        resolveValue(B->RHS, Inlined));
    }
    case NodeKind::Unary:
      return makeUnary(cast<UnaryNode>(E)->Op,
                       resolveValue(cast<UnaryNode>(E)->Operand, Inlined));
    case NodeKind::IfExpr: {
      auto IE = cast<IfExprNode>(E);
      return makeIfExpr(resolveValue(IE->Cond, Inlined),
                        resolveValue(IE->Then, Inlined),
                        resolveValue(IE->Else, Inlined));
    }
    case NodeKind::Cast:
      return makeCast(cast<CastNode>(E)->Dtype,
                      resolveValue(cast<CastNode>(E)->Operand, Inlined));
    default:
      return E;
    }
  }

  /// Zero-fills tensor \p Name of the given shape.
  Stmt makeZeroFill(const std::string &Name, const std::vector<Expr> &Shape,
                    DataType DT) {
    std::vector<Expr> Idx;
    std::vector<std::string> Iters;
    for (size_t D = 0; D < Shape.size(); ++D) {
      std::string It = "z." + std::to_string(FreshCounter++);
      Iters.push_back(It);
      Idx.push_back(makeVar(It));
    }
    Stmt Fill = makeStore(Name, Idx,
                          isFloat(DT) ? makeFloatConst(0.0)
                                      : makeIntConst(0));
    for (size_t D = Shape.size(); D-- > 0;)
      Fill = makeFor(Iters[D], makeIntConst(0), Shape[D], ForProperty{},
                     Fill);
    return Fill;
  }

  /// Emits the gradient statements for one forward Store / ReduceTo(Add).
  Stmt reverseWrite(const std::string &Var, const std::vector<Expr> &Indices,
                    const Expr &Value, bool IsStore) {
    if (!differentiable(Var))
      return makeStmtSeq({});
    DataType DT = Meta.at(Var).Def->Info.Dtype;
    std::string G = "g." + std::to_string(FreshCounter++);
    std::vector<Expr> RIdx;
    for (const Expr &I : Indices)
      RIdx.push_back(resolveValue(I));

    std::vector<Stmt> Stmts;
    Stmts.push_back(makeStore(G, {}, makeLoad(gradNameOf(Var), RIdx, DT)));
    if (IsStore && isCache(Var)) {
      // The store begins a new version: earlier (in reverse order, later in
      // forward order) contributions belong to it alone.
      Stmts.push_back(makeStore(gradNameOf(Var), RIdx, makeFloatConst(0.0)));
    }
    Expr Seed = makeLoad(G, {}, DT);
    std::vector<LoadDeriv> Derivs;
    diffWrite(Var, Indices, DT, Value, IsStore, Seed, Derivs);
    for (const LoadDeriv &D : Derivs) {
      if (!differentiable(D.Load->Var))
        continue;
      std::vector<Expr> TIdx;
      for (const Expr &I : D.Load->Indices)
        TIdx.push_back(resolveValue(I));
      Stmts.push_back(makeReduceTo(gradNameOf(D.Load->Var), TIdx,
                                   ReduceOpKind::Add,
                                   resolveValue(D.Deriv)));
    }
    return makeVarDef(G, TensorInfo{{}, DT}, AccessType::Cache,
                      MemType::CPULocal, makeStmtSeq(std::move(Stmts)));
  }

  /// True if every Load in \p E targets an Input tensor (conditions must be
  /// re-evaluable in the backward pass).
  bool condReevaluable(const Expr &E) {
    std::vector<Ref<LoadNode>> Loads;
    collectLoads(E, Loads);
    for (const auto &L : Loads) {
      auto It = Meta.find(L->Var);
      if (It == Meta.end() || It->second.Def->ATy != AccessType::Input)
        return false;
    }
    return true;
  }

  Stmt reverseStmt(const Stmt &S) {
    switch (S->kind()) {
    case NodeKind::StmtSeq: {
      auto Seq = cast<StmtSeqNode>(S);
      std::vector<Stmt> Out;
      for (auto It = Seq->Stmts.rbegin(); It != Seq->Stmts.rend(); ++It)
        Out.push_back(reverseStmt(*It));
      return makeStmtSeq(std::move(Out));
    }
    case NodeKind::VarDef: {
      auto D = cast<VarDefNode>(S);
      Stmt Inner = reverseStmt(D->Body);
      if (!differentiable(D->Name) || D->ATy != AccessType::Cache)
        return Inner;
      std::string GN = gradNameOf(D->Name);
      Stmt Init = makeZeroFill(GN, D->Info.Shape, D->Info.Dtype);
      return makeVarDef(GN, D->Info, AccessType::Cache, D->MTy,
                        makeStmtSeq({Init, Inner}));
    }
    case NodeKind::For: {
      auto L = cast<ForNode>(S);
      Stmt Inner = reverseStmt(L->Body);
      // Iteration order is deliberately NOT reversed: in the supported
      // program class (validated above) every gradient interaction across
      // iterations of one loop flows through commutative += accumulations
      // only — per-iteration gradient VarDefs are re-zeroed each
      // instantiation and element-wise tensors touch distinct elements per
      // iteration — so forward order is equivalent and keeps accesses
      // forward-strided (vectorizable, prefetch-friendly).
      return makeFor(L->Iter, L->Begin, L->End, ForProperty{}, Inner);
    }
    case NodeKind::If: {
      auto I = cast<IfNode>(S);
      if (!condReevaluable(I->Cond)) {
        Fail = Status::error("grad: a branch condition reads a non-input "
                             "tensor and cannot be re-evaluated");
        return makeStmtSeq({});
      }
      return makeIf(I->Cond, reverseStmt(I->Then),
                    I->Else ? reverseStmt(I->Else) : nullptr);
    }
    case NodeKind::Store: {
      auto St = cast<StoreNode>(S);
      return reverseWrite(St->Var, St->Indices, St->Value, /*IsStore=*/true);
    }
    case NodeKind::ReduceTo: {
      auto R = cast<ReduceToNode>(S);
      if (R->Op != ReduceOpKind::Add) {
        if (differentiable(R->Var))
          Fail = Status::error("grad: non-Add reduction into differentiable "
                               "tensor `" +
                               R->Var + "`");
        return makeStmtSeq({});
      }
      return reverseWrite(R->Var, R->Indices, R->Value, /*IsStore=*/false);
    }
    case NodeKind::GemmCall: {
      auto G = cast<GemmCallNode>(S);
      if (!differentiable(G->C))
        return makeStmtSeq({});
      if (G->TransA || G->TransB) {
        Fail = Status::error("grad: transposed GemmCall is unsupported");
        return makeStmtSeq({});
      }
      auto ParamOk = [&](const std::string &N) {
        auto It = Meta.find(N);
        return It != Meta.end() && It->second.Def->ATy != AccessType::Cache;
      };
      if (!ParamOk(G->A) || !ParamOk(G->B)) {
        Fail = Status::error("grad: GemmCall operands must be parameters");
        return makeStmtSeq({});
      }
      std::vector<Stmt> Out;
      // dA[M,K] += dC[M,N] * B[K,N]^T.
      if (differentiable(G->A))
        Out.push_back(makeGemmCall(gradNameOf(G->C), G->B, gradNameOf(G->A),
                                   G->M, G->K, G->N, false, true, G->Dtype));
      // dB[K,N] += A[M,K]^T * dC[M,N].
      if (differentiable(G->B))
        Out.push_back(makeGemmCall(G->A, gradNameOf(G->C), gradNameOf(G->B),
                                   G->K, G->N, G->M, true, false, G->Dtype));
      return makeStmtSeq(std::move(Out));
    }
    default:
      ftUnreachable("expression kind in reverseStmt");
    }
  }

  Status buildBackward(GradResult *Out) {
    // Strip the parameter VarDef chain.
    Stmt Inner = F.Body;
    std::vector<Ref<VarDefNode>> ParamDefs;
    while (auto D = dyn_cast<VarDefNode>(Inner)) {
      if (D->ATy == AccessType::Cache)
        break;
      ParamDefs.push_back(D);
      Inner = D->Body;
    }

    Stmt Body = reverseStmt(Inner);
    if (!Fail)
      return Fail;

    // Zero-fill the requested gradients up front.
    std::vector<Stmt> Top;
    for (const std::string &W : Wrt)
      Top.push_back(makeZeroFill(gradNameOf(W), Meta.at(W).Def->Info.Shape,
                                 Meta.at(W).Def->Info.Dtype));
    Top.push_back(Body);
    Body = makeStmtSeq(std::move(Top));

    Func Bwd;
    Bwd.Name = F.Name + ".bwd";
    // Parameter order: originals, tapes, output seeds, input gradients.
    struct ParamSpec {
      std::string Name;
      TensorInfo Info;
      AccessType ATy;
    };
    std::vector<ParamSpec> Specs;
    for (const auto &D : ParamDefs)
      Specs.push_back({D->Name, D->Info, AccessType::Input});
    for (const std::string &T : Materialized)
      Specs.push_back({tapeNameOf(T),
                       TensorInfo{tapeShapeOf(T),
                                  Meta.at(T).Def->Info.Dtype},
                       AccessType::Input});
    for (const auto &D : ParamDefs)
      if (D->ATy == AccessType::Output && differentiable(D->Name)) {
        std::string SN = gradNameOf(D->Name);
        Specs.push_back({SN, D->Info, AccessType::Input});
        Out->SeedNames[D->Name] = SN;
      }
    for (const std::string &W : Wrt) {
      std::string GN = gradNameOf(W);
      Specs.push_back({GN, Meta.at(W).Def->Info, AccessType::Output});
      Out->GradNames[W] = GN;
    }

    for (auto It = Specs.rbegin(); It != Specs.rend(); ++It)
      Body = makeVarDef(It->Name, It->Info, It->ATy, MemType::CPU, Body);
    for (const ParamSpec &P : Specs)
      Bwd.Params.push_back(P.Name);
    Bwd.Body = flattenStmtSeq(constFold(Body));
    Out->Backward = std::move(Bwd);
    return Status::success();
  }

  const Func &F;
  std::vector<std::string> Wrt;
  TapeStrategy Strategy;

  std::map<std::string, TensorMeta> Meta;
  std::map<std::string, int> IfDepthAtDef;
  std::set<std::string> Needed;
  std::map<std::string, double> Uses; ///< Backward evaluations at derivative
                                      ///  use sites, per intermediate.
  std::set<std::string> Materialized;
  std::set<std::string> Recomputed;
  std::vector<RecomputeDecision> Decisions;
  Status Fail;
  int FreshCounter = 0;
  int NumStoresSeen = 0;
};

} // namespace

Result<GradResult> ft::grad(const Func &F, const std::vector<std::string> &Wrt,
                            TapeStrategy Strategy) {
  trace::Span Sp("autodiff/grad");
  if (Sp.active())
    Sp.annotate("func", F.Name);
  // Fold builder-emitted "(0 + i)" offsets first so the structural checks
  // (e.g. store-indices-are-pure-iterators) see canonical indices.
  Func FF = F;
  FF.Body = constFold(FF.Body);
  return GradGen(FF, Wrt, Strategy).run();
}
