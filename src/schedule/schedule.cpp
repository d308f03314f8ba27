//===- schedule/schedule.cpp ----------------------------------------------===//

#include "schedule/schedule.h"

#include <algorithm>
#include <functional>
#include <set>

#include "analysis/bounds.h"
#include "analysis/vector_legality.h"
#include "ir/compare.h"
#include "ir/printer.h"
#include "pass/const_fold.h"
#include "pass/flatten.h"
#include "pass/replace.h"
#include "pass/simplify.h"
#include "support/metrics.h"
#include "support/trace.h"
#include "support/string_utils.h"

using namespace ft;

namespace {

/// Unwraps a single-statement StmtSeq (the builder sometimes emits them).
Stmt unwrapSingle(const Stmt &S) {
  auto Seq = dyn_cast<StmtSeqNode>(S);
  if (Seq && Seq->Stmts.size() == 1)
    return unwrapSingle(Seq->Stmts[0]);
  return S;
}

/// Finds the StmtSeq that directly contains statement \p Id (treating
/// single-statement bodies as degenerate sequences is not needed: callers
/// requiring siblings fail cleanly when there is no parent sequence).
struct ParentSeq {
  Ref<StmtSeqNode> Seq;
  size_t Index = 0;
};

std::optional<ParentSeq> findParentSeq(const Stmt &Root, int64_t Id) {
  std::optional<ParentSeq> Found;
  auto Recurse = [&](const Stmt &Sub) {
    if (!Found)
      Found = findParentSeq(Sub, Id);
  };
  switch (Root->kind()) {
  case NodeKind::StmtSeq: {
    auto Seq = cast<StmtSeqNode>(Root);
    for (size_t I = 0; I < Seq->Stmts.size(); ++I) {
      if (Seq->Stmts[I]->Id == Id)
        return ParentSeq{Seq, I};
      Recurse(Seq->Stmts[I]);
    }
    return Found;
  }
  case NodeKind::VarDef:
    Recurse(cast<VarDefNode>(Root)->Body);
    return Found;
  case NodeKind::For:
    Recurse(cast<ForNode>(Root)->Body);
    return Found;
  case NodeKind::If: {
    auto I = cast<IfNode>(Root);
    Recurse(I->Then);
    if (I->Else)
      Recurse(I->Else);
    return Found;
  }
  default:
    return std::nullopt;
  }
}

/// Loops (outermost first) strictly enclosing statement \p Id.
std::vector<Ref<ForNode>> loopsEnclosing(const Stmt &Root, int64_t Id) {
  std::vector<Ref<ForNode>> Stack, Found;
  std::function<bool(const Stmt &)> Walk = [&](const Stmt &S) -> bool {
    if (S->Id == Id) {
      Found = Stack;
      return true;
    }
    switch (S->kind()) {
    case NodeKind::StmtSeq:
      for (const Stmt &Sub : cast<StmtSeqNode>(S)->Stmts)
        if (Walk(Sub))
          return true;
      return false;
    case NodeKind::VarDef:
      return Walk(cast<VarDefNode>(S)->Body);
    case NodeKind::For: {
      auto F = cast<ForNode>(S);
      Stack.push_back(F);
      bool R = Walk(F->Body);
      if (!R)
        Stack.pop_back();
      return R;
    }
    case NodeKind::If: {
      auto I = cast<IfNode>(S);
      if (Walk(I->Then))
        return true;
      return I->Else != nullptr && Walk(I->Else);
    }
    default:
      return false;
    }
  };
  Walk(Root);
  return Found;
}

/// Sets the ForProperty of the loop with ID \p Id.
class PropertySetter : public Mutator {
public:
  PropertySetter(int64_t Id, ForProperty P) : Id(Id), P(P) {}

protected:
  Stmt visit(const ForNode *S) override {
    Stmt Out = Mutator::visit(S);
    if (S->Id == Id) {
      auto F = cast<ForNode>(Out);
      return makeFor(F->Iter, F->Begin, F->End, P, F->Body, F->Id);
    }
    return Out;
  }

private:
  int64_t Id;
  ForProperty P;
};

/// Marks the ReduceTo statements with the given IDs atomic.
class AtomicMarker : public Mutator {
public:
  explicit AtomicMarker(std::set<int64_t> Ids) : Ids(std::move(Ids)) {}

protected:
  Stmt visit(const ReduceToNode *S) override {
    Stmt Out = Mutator::visit(S);
    if (Ids.count(S->Id))
      cast<ReduceToNode>(Out)->Atomic = true;
    return Out;
  }

private:
  std::set<int64_t> Ids;
};

/// Rewrites the shape of one VarDef.
class ShapeSetter : public Mutator {
public:
  ShapeSetter(std::string Var, std::vector<Expr> Shape)
      : Var(std::move(Var)), Shape(std::move(Shape)) {}

protected:
  Stmt visit(const VarDefNode *S) override {
    Stmt Out = Mutator::visit(S);
    if (S->Name == Var) {
      auto D = cast<VarDefNode>(Out);
      Stmt New = makeVarDef(D->Name, TensorInfo{Shape, D->Info.Dtype},
                            D->ATy, D->MTy, D->Body, D->Id);
      cast<VarDefNode>(New)->NoGrad = D->NoGrad;
      return New;
    }
    return Out;
  }

private:
  std::string Var;
  std::vector<Expr> Shape;
};

Expr ceilDiv(const Expr &A, const Expr &B) {
  return makeFloorDiv(makeAdd(A, makeSub(B, makeIntConst(1))), B);
}

std::optional<int64_t> constInt(const Expr &E) {
  Expr F = constFold(E);
  if (auto I = dyn_cast<IntConstNode>(F))
    return I->Val;
  return std::nullopt;
}

} // namespace

//===----------------------------------------------------------------------===//
// Schedule basics
//===----------------------------------------------------------------------===//

Schedule::Schedule(Func F) : F(std::move(F)) {}

Result<int64_t> Schedule::findByLabel(const std::string &Label) const {
  Stmt S = findStmtByLabel(F.Body, Label);
  if (!S)
    return Result<int64_t>::error("no statement labeled '" + Label + "'");
  return S->Id;
}

Ref<ForNode> Schedule::getLoop(int64_t LoopId, Status *Err) const {
  Stmt S = findStmt(F.Body, LoopId);
  if (!S) {
    *Err = Status::error("no statement with ID " + std::to_string(LoopId));
    return nullptr;
  }
  auto L = dyn_cast<ForNode>(S);
  if (!L)
    *Err = Status::error("statement " + std::to_string(LoopId) +
                         " is not a loop");
  return L;
}

Stmt Schedule::replaceById(int64_t Id, const Stmt &Repl) {
  setBody(replaceStmt(F.Body, Id, Repl));
  return F.Body;
}

const DepAnalyzer &Schedule::deps() const {
  if (!DA || DAVersion != BodyVersion || accelerationBypassed()) {
    DA = std::make_unique<DepAnalyzer>(F.Body);
    DAVersion = BodyVersion;
  } else {
    static metrics::Counter &Reuses = metrics::counter("deps/analyzer_reuses");
    Reuses.fetch_add(1);
  }
  return *DA;
}

void Schedule::setBody(Stmt Body) {
  F.Body = std::move(Body);
  ++BodyVersion;
}

IsParamFn Schedule::isParamFn() const {
  auto Defs = deps().accesses().Defs;
  return [Defs](const std::string &Name) {
    auto It = Defs.find(Name);
    return It != Defs.end() && It->second->ATy == AccessType::Input &&
           It->second->Info.Shape.empty() && isInt(It->second->Info.Dtype);
  };
}

bool Schedule::provably(const Expr &Cond) const {
  Expr Folded = constFold(Cond);
  if (auto B = dyn_cast<BoolConstNode>(Folded))
    return B->Val;
  ProofContext PC(isParamFn());
  return PC.provablyTrue(Folded);
}

std::vector<Ref<ForNode>> Schedule::perfectNest(int64_t LoopId) const {
  std::vector<Ref<ForNode>> Nest;
  Stmt S = findStmt(F.Body, LoopId);
  auto L = dyn_cast<ForNode>(S);
  while (L) {
    Nest.push_back(L);
    L = dyn_cast<ForNode>(unwrapSingle(L->Body));
  }
  return Nest;
}

void Schedule::cleanup() { setBody(simplify(F.Body)); }

//===----------------------------------------------------------------------===//
// Loop transformations
//===----------------------------------------------------------------------===//

Result<SplitIds> Schedule::splitImpl(int64_t LoopId, int64_t Factor) {
  Status Err;
  auto L = getLoop(LoopId, &Err);
  if (!L)
    return Err;
  if (Factor < 1)
    return Result<SplitIds>::error("split factor must be >= 1");

  auto Fresh = [&](const std::string &Base) {
    return ft::freshName(
        Base, [&](const std::string &N) { return isIterUsed(F.Body, N); });
  };
  std::string OuterIter = Fresh(L->Iter + ".out");
  std::string InnerIter = Fresh(L->Iter + ".in");

  Expr Len = constFold(L->len());
  Expr FactorE = makeIntConst(Factor);
  Expr NewIdx = makeAdd(L->Begin, makeAdd(makeMul(makeVar(OuterIter),
                                                  FactorE),
                                          makeVar(InnerIter)));
  Stmt Body = substituteIter(L->Body, L->Iter, NewIdx);
  Stmt Guarded = makeIf(makeLT(NewIdx, L->End), Body);
  Stmt Inner = makeFor(InnerIter, makeIntConst(0), FactorE, ForProperty{},
                       Guarded);
  Stmt Outer = makeFor(OuterIter, makeIntConst(0),
                       constFold(ceilDiv(Len, FactorE)), ForProperty{},
                       Inner, LoopId);
  replaceById(LoopId, Outer);
  return SplitIds{Outer->Id, Inner->Id};
}

Result<int64_t> Schedule::mergeImpl(int64_t OuterId, int64_t InnerId) {
  Status Err;
  auto Outer = getLoop(OuterId, &Err);
  if (!Outer)
    return Err;
  auto Inner = dyn_cast<ForNode>(unwrapSingle(Outer->Body));
  if (!Inner || Inner->Id != InnerId)
    return Result<int64_t>::error(
        "merge requires the two loops to be perfectly nested");
  if (isIterUsed(makeStore("_", {}, Inner->Begin), Outer->Iter) ||
      isIterUsed(makeStore("_", {}, Inner->End), Outer->Iter))
    return Result<int64_t>::error(
        "merge requires a rectangular nest (inner bounds must not use the "
        "outer iterator)");

  auto Fresh = ft::freshName(Outer->Iter + ".m", [&](const std::string &N) {
    return isIterUsed(F.Body, N);
  });
  Expr LenI = constFold(Inner->len());
  Expr LenO = constFold(Outer->len());
  Expr M = makeVar(Fresh);
  Stmt Body = Inner->Body;
  Body = substituteIter(Body, Inner->Iter,
                        makeAdd(Inner->Begin, makeMod(M, LenI)));
  Body = substituteIter(Body, Outer->Iter,
                        makeAdd(Outer->Begin, makeFloorDiv(M, LenI)));
  Stmt Merged = makeFor(Fresh, makeIntConst(0), constFold(makeMul(LenO, LenI)),
                        ForProperty{}, Body, OuterId);
  replaceById(OuterId, Merged);
  return Merged->Id;
}

Status Schedule::reorderImpl(const std::vector<int64_t> &Order) {
  if (Order.size() < 2)
    return Status::error("reorder needs at least two loops");

  // Identify the current outermost loop of the band: the one enclosing all
  // the others.
  int64_t OutermostId = -1;
  for (int64_t Id : Order) {
    std::vector<Ref<ForNode>> Enclosing = loopsEnclosing(F.Body, Id);
    bool EnclosedByAnother = false;
    for (const auto &L : Enclosing)
      if (std::find(Order.begin(), Order.end(), L->Id) != Order.end())
        EnclosedByAnother = true;
    if (!EnclosedByAnother)
      OutermostId = Id;
  }
  if (OutermostId < 0)
    return Status::error("reorder: could not identify the outermost loop");

  std::vector<Ref<ForNode>> Nest = perfectNest(OutermostId);
  size_t K = Order.size();
  if (Nest.size() < K)
    return Status::error("reorder: the loops do not form a perfect nest");
  Nest.resize(K);
  for (int64_t Id : Order) {
    bool InBand = false;
    for (const auto &L : Nest)
      InBand |= L->Id == Id;
    if (!InBand)
      return Status::error(
          "reorder: loop " + std::to_string(Id) +
          " is not in the perfectly nested band of the outermost loop");
  }

  // Rectangularity: no band loop's bounds may use another band iterator.
  for (const auto &L : Nest)
    for (const auto &M : Nest)
      if (isIterUsed(makeStore("_", {}, L->Begin), M->Iter) ||
          isIterUsed(makeStore("_", {}, L->End), M->Iter))
        return Status::error("reorder requires a rectangular band");

  // New position of each band loop.
  std::vector<size_t> NewPos(K);
  for (size_t I = 0; I < K; ++I) {
    auto It = std::find(Order.begin(), Order.end(), Nest[I]->Id);
    NewPos[I] = static_cast<size_t>(It - Order.begin());
  }

  // Legality: every feasible dependence direction vector over the band must
  // stay lexicographically positive after permutation.
  const DepAnalyzer &DA = deps();
  int64_t InnermostId = Nest.back()->Id;
  std::vector<const AccessPoint *> In, Boundary;
  for (const AccessPoint &P : DA.accesses().Points) {
    if (P.isInside(InnermostId))
      In.push_back(&P);
    else if (P.isInside(OutermostId))
      Boundary.push_back(&P);
  }
  // Accesses between band loops (e.g. reads in inner bounds) must not
  // participate in any dependence with the band.
  for (const AccessPoint *B : Boundary)
    for (const AccessPoint *A : In) {
      if (B->Var != A->Var)
        continue;
      if (B->Kind == AccessKind::Read && A->Kind == AccessKind::Read)
        continue;
      if (DA.mayDepend(*B, *A, {}) || DA.mayDepend(*A, *B, {}))
        return Status::error("reorder: dependence through loop bounds on `" +
                             A->Var + "`");
    }

  std::vector<IterRel> Combo(K, IterRel::Eq);
  std::function<Status(const AccessPoint &, const AccessPoint &, size_t)>
      Check = [&](const AccessPoint &E, const AccessPoint &L,
                  size_t Depth) -> Status {
    if (Depth == K) {
      // Reject combos where the dependence cannot exist in this direction.
      size_t FirstNonEq = K;
      for (size_t I = 0; I < K; ++I)
        if (Combo[I] != IterRel::Eq) {
          FirstNonEq = I;
          break;
        }
      if (FirstNonEq == K)
        return Status::success(); // Equal iterations: order preserved.
      if (Combo[FirstNonEq] != IterRel::Lt)
        return Status::success(); // Not an earlier-to-later direction.
      RelMap Rels;
      for (size_t I = 0; I < K; ++I)
        Rels[Nest[I]->Id] = Combo[I];
      if (!DA.mayDepend(E, L, Rels))
        return Status::success();
      // Feasible dependence: check the permuted direction vector.
      std::vector<IterRel> Permuted(K, IterRel::Eq);
      for (size_t I = 0; I < K; ++I)
        Permuted[NewPos[I]] = Combo[I];
      for (size_t I = 0; I < K; ++I) {
        if (Permuted[I] == IterRel::Eq)
          continue;
        if (Permuted[I] == IterRel::Lt)
          return Status::success();
        return Status::error("reorder would reverse a dependence on `" +
                             E.Var + "`");
      }
      return Status::success();
    }
    for (IterRel R : {IterRel::Eq, IterRel::Lt, IterRel::Gt}) {
      Combo[Depth] = R;
      if (Status S = Check(E, L, Depth + 1); !S)
        return S;
    }
    return Status::success();
  };

  for (const AccessPoint *E : In)
    for (const AccessPoint *L : In) {
      if (E->Var != L->Var)
        continue;
      if (E->Kind == AccessKind::Read && L->Kind == AccessKind::Read)
        continue;
      if (DepAnalyzer::sameOpReducePair(*E, *L))
        continue; // Commutative (Fig. 12(c)).
      if (Status S = Check(*E, *L, 0); !S)
        return S;
    }

  // Rebuild the band in the new order.
  Stmt Body = Nest.back()->Body;
  for (size_t I = K; I-- > 0;) {
    // Loop at new position I is the band loop whose NewPos == I.
    size_t Orig = 0;
    for (size_t J = 0; J < K; ++J)
      if (NewPos[J] == I)
        Orig = J;
    const auto &L = Nest[Orig];
    Body = makeFor(L->Iter, L->Begin, L->End, L->Property, Body, L->Id);
  }
  replaceById(OutermostId, Body);
  return Status::success();
}

Result<SplitIds> Schedule::fissionImpl(int64_t LoopId, int64_t AfterStmtId) {
  Status Err;
  auto L = getLoop(LoopId, &Err);
  if (!L)
    return Err;
  auto Seq = dyn_cast<StmtSeqNode>(L->Body);
  if (!Seq)
    return Result<SplitIds>::error(
        "fission requires the loop body to be a statement sequence");
  size_t Idx = Seq->Stmts.size();
  for (size_t I = 0; I < Seq->Stmts.size(); ++I)
    if (Seq->Stmts[I]->Id == AfterStmtId)
      Idx = I;
  if (Idx + 1 >= Seq->Stmts.size())
    return Result<SplitIds>::error(
        "fission point must be a non-final top-level child of the loop "
        "body");

  std::vector<Stmt> Part1(Seq->Stmts.begin(), Seq->Stmts.begin() + Idx + 1);
  std::vector<Stmt> Part2(Seq->Stmts.begin() + Idx + 1, Seq->Stmts.end());

  // Legality: no dependence from a part-2 access at an earlier iteration to
  // a part-1 access at a later one.
  const DepAnalyzer &DA = deps();
  auto InPart = [&](const AccessPoint &P, const std::vector<Stmt> &Part) {
    for (const Stmt &S : Part)
      if (P.isInside(S->Id))
        return true;
    return false;
  };
  RelMap Rels;
  for (const auto &Enc : loopsEnclosing(F.Body, LoopId))
    Rels[Enc->Id] = IterRel::Eq;
  Rels[LoopId] = IterRel::Lt;
  for (const AccessPoint &E : DA.accesses().Points) {
    if (!InPart(E, Part2))
      continue;
    for (const AccessPoint &La : DA.accesses().Points) {
      if (!InPart(La, Part1) || E.Var != La.Var)
        continue;
      if (E.Kind == AccessKind::Read && La.Kind == AccessKind::Read)
        continue;
      if (DepAnalyzer::sameOpReducePair(E, La))
        continue;
      if (DA.mayDepend(E, La, Rels))
        return Result<SplitIds>::error(
            "fission would reverse a loop-carried dependence on `" + E.Var +
            "`");
    }
  }

  Stmt For1 = makeFor(L->Iter, L->Begin, L->End, L->Property,
                      makeStmtSeq(std::move(Part1)), LoopId);
  Stmt For2 = makeFor(L->Iter, L->Begin, L->End, L->Property,
                      makeStmtSeq(std::move(Part2)));
  int64_t Id2 = For2->Id;
  replaceById(LoopId, makeStmtSeq({For1, For2}));
  return SplitIds{LoopId, Id2};
}

Result<int64_t> Schedule::fuseImpl(int64_t Loop1Id, int64_t Loop2Id) {
  Status Err;
  auto L1 = getLoop(Loop1Id, &Err);
  if (!L1)
    return Err;
  auto L2 = getLoop(Loop2Id, &Err);
  if (!L2)
    return Err;
  auto Parent = findParentSeq(F.Body, Loop1Id);
  if (!Parent || Parent->Index + 1 >= Parent->Seq->Stmts.size() ||
      Parent->Seq->Stmts[Parent->Index + 1]->Id != Loop2Id)
    return Result<int64_t>::error(
        "fuse requires two consecutive sibling loops");
  if (!provably(makeEQ(L1->len(), L2->len())))
    return Result<int64_t>::error(
        "fuse requires loops of provably equal length");

  // Legality: no dependence from an L1 access to an L2 access at a strictly
  // earlier (normalized) iteration.
  const DepAnalyzer &DA = deps();
  IsParamFn IsParam = isParamFn();
  RelMap Rels;
  for (const auto &Enc : loopsEnclosing(F.Body, Loop1Id))
    Rels[Enc->Id] = IterRel::Eq;
  for (const AccessPoint &E : DA.accesses().Points) {
    if (!E.isInsideLoop(Loop1Id))
      continue;
    for (const AccessPoint &La : DA.accesses().Points) {
      if (!La.isInsideLoop(Loop2Id) || E.Var != La.Var)
        continue;
      if (E.Kind == AccessKind::Read && La.Kind == AccessKind::Read)
        continue;
      if (DepAnalyzer::sameOpReducePair(E, La))
        continue;
      AffineSet S = DA.buildPairSet(E, La, Rels);
      // Add: (p.iter1 - begin1) > (q.iter2 - begin2).
      auto B1 = toLinear(L1->Begin, IsParam);
      auto B2 = toLinear(L2->Begin, IsParam);
      if (!B1 || !B2)
        return Result<int64_t>::error(
            "fuse: non-affine loop begins are unsupported");
      std::vector<std::string> Iters1, Iters2;
      for (const LoopAxis &Ax : E.Loops)
        Iters1.push_back(Ax.Iter);
      for (const LoopAxis &Ax : La.Loops)
        Iters2.push_back(Ax.Iter);
      LinearExpr P = LinearExpr::variable("p." + L1->Iter);
      LinearExpr Q = LinearExpr::variable("q." + L2->Iter);
      auto PN = LinearExpr::trySub(P, renameIters(*B1, "p.", Iters1));
      auto QN = LinearExpr::trySub(Q, renameIters(*B2, "q.", Iters2));
      if (!PN || !QN)
        return Result<int64_t>::error("fuse: bound arithmetic overflow");
      S.addLT(*QN, *PN);
      if (!S.isEmpty())
        return Result<int64_t>::error(
            "fuse would reverse a dependence on `" + E.Var + "`");
    }
  }

  Stmt Body2 = substituteIter(
      L2->Body, L2->Iter,
      makeAdd(L2->Begin, makeSub(makeVar(L1->Iter), L1->Begin)));
  Stmt Fused = makeFor(L1->Iter, L1->Begin, L1->End, ForProperty{},
                       makeStmtSeq({L1->Body, Body2}));
  int64_t FusedId = Fused->Id;

  std::vector<Stmt> NewStmts = Parent->Seq->Stmts;
  NewStmts[Parent->Index] = Fused;
  NewStmts.erase(NewStmts.begin() + Parent->Index + 1);
  replaceById(Parent->Seq->Id, makeStmtSeq(std::move(NewStmts),
                                           Parent->Seq->Id));
  setBody(constFold(F.Body));
  return FusedId;
}

Status Schedule::swapImpl(int64_t Stmt1Id, int64_t Stmt2Id) {
  auto Parent = findParentSeq(F.Body, Stmt1Id);
  if (!Parent || Parent->Index + 1 >= Parent->Seq->Stmts.size() ||
      Parent->Seq->Stmts[Parent->Index + 1]->Id != Stmt2Id)
    return Status::error("swap requires two adjacent sibling statements");

  const DepAnalyzer &DA = deps();
  for (const FoundDep &D : DA.betweenAtEqualIters(Stmt1Id, Stmt2Id))
    if (!D.SameOpReduce)
      return Status::error("swap would reverse a dependence on `" +
                           D.Earlier->Var + "`");

  std::vector<Stmt> NewStmts = Parent->Seq->Stmts;
  std::swap(NewStmts[Parent->Index], NewStmts[Parent->Index + 1]);
  replaceById(Parent->Seq->Id,
              makeStmtSeq(std::move(NewStmts), Parent->Seq->Id));
  return Status::success();
}

//===----------------------------------------------------------------------===//
// Parallelizing transformations
//===----------------------------------------------------------------------===//

Status Schedule::parallelizeImpl(int64_t LoopId) {
  Status Err;
  auto L = getLoop(LoopId, &Err);
  if (!L)
    return Err;

  const DepAnalyzer &DA = deps();
  std::set<int64_t> ReduceIds;
  bool AnyDep = false;
  for (const FoundDep &D : DA.carriedBy(LoopId)) {
    AnyDep = true;
    if (!D.SameOpReduce)
      return Status::error("cannot parallelize: loop-carried dependence on "
                           "`" +
                           D.Earlier->Var + "`");
    ReduceIds.insert(D.Earlier->StmtId);
    ReduceIds.insert(D.Later->StmtId);
  }
  if (!ReduceIds.empty())
    setBody(AtomicMarker(ReduceIds)(F.Body));
  ForProperty P = L->Property;
  P.Parallel = true;
  P.NoDeps = !AnyDep;
  setBody(PropertySetter(LoopId, P)(F.Body));
  return Status::success();
}

Status Schedule::unrollImpl(int64_t LoopId, bool Full) {
  Status Err;
  auto L = getLoop(LoopId, &Err);
  if (!L)
    return Err;
  if (!Full) {
    ForProperty P = L->Property;
    P.Unroll = true;
    setBody(PropertySetter(LoopId, P)(F.Body));
    return Status::success();
  }
  auto Len = constInt(L->len());
  if (!Len)
    return Status::error("full unroll requires a constant loop length");
  if (*Len > 64)
    return Status::error("refusing to fully unroll a loop of length " +
                         std::to_string(*Len));
  std::vector<Stmt> Copies;
  for (int64_t I = 0; I < *Len; ++I) {
    Expr Iter = constFold(makeAdd(L->Begin, makeIntConst(I)));
    Copies.push_back(copyWithFreshIds(substituteIter(L->Body, L->Iter, Iter)));
  }
  replaceById(LoopId, makeStmtSeq(std::move(Copies)));
  setBody(flattenStmtSeq(constFold(F.Body)));
  return Status::success();
}

Status Schedule::unrollImpl(int64_t LoopId, int Factor) {
  Status Err;
  auto L = getLoop(LoopId, &Err);
  if (!L)
    return Err;
  if (Factor < 2 || Factor > 64)
    return Status::error("unroll factor must be in [2, 64], got " +
                         std::to_string(Factor));
  ForProperty P = L->Property;
  P.Unroll = true;
  P.UnrollFactor = Factor;
  setBody(PropertySetter(LoopId, P)(F.Body));
  return Status::success();
}

Status Schedule::blendImpl(int64_t LoopId) {
  Status Err;
  auto L = getLoop(LoopId, &Err);
  if (!L)
    return Err;
  auto Len = constInt(L->len());
  if (!Len)
    return Status::error("blend requires a constant loop length");
  if (*Len > 64)
    return Status::error("refusing to blend a loop of length " +
                         std::to_string(*Len));
  Stmt BodyS = unwrapSingle(L->Body);
  std::vector<Stmt> BodyStmts;
  if (auto Seq = dyn_cast<StmtSeqNode>(BodyS))
    BodyStmts = Seq->Stmts;
  else
    BodyStmts = {BodyS};

  // Blend == fission at every boundary + full unroll of each piece; check
  // the fission legality pairwise.
  const DepAnalyzer &DA = deps();
  RelMap Rels;
  for (const auto &Enc : loopsEnclosing(F.Body, LoopId))
    Rels[Enc->Id] = IterRel::Eq;
  Rels[LoopId] = IterRel::Lt;
  for (size_t J1 = 0; J1 < BodyStmts.size(); ++J1)
    for (size_t J2 = J1 + 1; J2 < BodyStmts.size(); ++J2)
      for (const AccessPoint &E : DA.accesses().Points) {
        if (!E.isInside(BodyStmts[J2]->Id))
          continue;
        for (const AccessPoint &La : DA.accesses().Points) {
          if (!La.isInside(BodyStmts[J1]->Id) || E.Var != La.Var)
            continue;
          if (E.Kind == AccessKind::Read && La.Kind == AccessKind::Read)
            continue;
          if (DepAnalyzer::sameOpReducePair(E, La))
            continue;
          if (DA.mayDepend(E, La, Rels))
            return Status::error(
                "blend would reverse a loop-carried dependence on `" + E.Var +
                "`");
        }
      }

  std::vector<Stmt> Out;
  for (const Stmt &S : BodyStmts)
    for (int64_t I = 0; I < *Len; ++I) {
      Expr Iter = constFold(makeAdd(L->Begin, makeIntConst(I)));
      Out.push_back(copyWithFreshIds(substituteIter(S, L->Iter, Iter)));
    }
  replaceById(LoopId, makeStmtSeq(std::move(Out)));
  setBody(flattenStmtSeq(constFold(F.Body)));
  return Status::success();
}

Status Schedule::vectorizeImpl(int64_t LoopId) {
  Status Err;
  auto L = getLoop(LoopId, &Err);
  if (!L)
    return Err;
  const DepAnalyzer &DA = deps();
  if (!DA.carriedBy(LoopId).empty())
    return Status::error(
        "cannot vectorize: the loop carries a dependence");
  ForProperty P = L->Property;
  P.Vectorize = true;
  P.NoDeps = true;
  setBody(PropertySetter(LoopId, P)(F.Body));
  return Status::success();
}

Status Schedule::vectorizeImpl(int64_t LoopId, int Width) {
  Status Err;
  auto L = getLoop(LoopId, &Err);
  if (!L)
    return Err;
  VectorLegality V = analyzeVectorLegality(deps(), L, Width, isParamFn());
  if (!V.Legal)
    return Status::error(V.Reason);
  ForProperty P = L->Property;
  P.Vectorize = true;
  P.VectorWidth = Width;
  // A reduction loop does carry (commuting) dependences; codegen must not
  // treat it as independent.
  P.NoDeps = !V.Reduction;
  setBody(PropertySetter(LoopId, P)(F.Body));
  return Status::success();
}

//===----------------------------------------------------------------------===//
// Memory hierarchy transformations
//===----------------------------------------------------------------------===//

namespace {

/// Shared machinery of cache / cache_reduce: the Fig.-14 region analysis.
struct CacheRegion {
  std::vector<Expr> Lower;  ///< Per-dim start of the bounding box.
  std::vector<Expr> Extent; ///< Per-dim size.
};

Result<CacheRegion> analyzeRegion(const Stmt &Root,
                                  const AccessCollection &AC, int64_t StmtId,
                                  const std::string &Var,
                                  const Ref<VarDefNode> &Def,
                                  const IsParamFn &IsParam) {
  size_t OuterDepth = loopsEnclosing(Root, StmtId).size();
  size_t NDim = Def->Info.Shape.size();

  std::vector<std::vector<Expr>> Lows(NDim), Highs(NDim);
  bool Any = false;
  for (size_t I : AC.pointsOf(Var)) {
    const AccessPoint &P = AC.Points[I];
    if (!P.isInside(StmtId))
      continue;
    Any = true;
    if (P.WholeTensor || P.Indices.size() != NDim)
      return Result<CacheRegion>::error(
          "cache: opaque access to `" + Var + "`");
    for (size_t D = 0; D < NDim; ++D) {
      auto Lin = toLinear(P.Indices[D], IsParam);
      if (!Lin)
        return Result<CacheRegion>::error(
            "cache: non-affine index on `" + Var + "`");
      std::vector<IterRange> Inner;
      for (size_t I = OuterDepth; I < P.Loops.size(); ++I)
        Inner.push_back(
            {P.Loops[I].Iter, P.Loops[I].Begin, P.Loops[I].End});
      auto BP = eliminateIters(*Lin, Inner, IsParam);
      if (!BP)
        return Result<CacheRegion>::error(
            "cache: could not bound index of `" + Var + "`");
      Lows[D].push_back(linearToExpr(BP->Lower));
      Highs[D].push_back(linearToExpr(BP->Upper));
    }
  }
  if (!Any)
    return Result<CacheRegion>::error("cache: `" + Var +
                                      "` is not accessed in the statement");

  // Normalizes affine expressions like ((i + 3) - i) + 1 to 4.
  auto Normalize = [&](const Expr &E) {
    Expr Folded = constFold(E);
    if (auto Lin = toLinear(Folded, IsParam))
      return linearToExpr(*Lin);
    return Folded;
  };

  CacheRegion R;
  for (size_t D = 0; D < NDim; ++D) {
    Expr Lo = Lows[D][0], Hi = Highs[D][0];
    for (size_t I = 1; I < Lows[D].size(); ++I) {
      Lo = makeMin(Lo, Lows[D][I]);
      Hi = makeMax(Hi, Highs[D][I]);
    }
    R.Lower.push_back(Normalize(Lo));
    R.Extent.push_back(Normalize(makeAdd(makeSub(Hi, Lo), makeIntConst(1))));
  }
  return R;
}

/// Builds a copy nest: for c0, c1, ...: if (in-bounds) BodyFn(c...).
Stmt buildCopyNest(const Stmt &Root, const CacheRegion &R,
                   const Ref<VarDefNode> &Def,
                   const std::function<Stmt(const std::vector<Expr> &)>
                       &BodyFn) {
  size_t NDim = R.Extent.size();
  std::vector<std::string> Iters;
  std::vector<Expr> CacheIdx, BaseIdx;
  for (size_t D = 0; D < NDim; ++D) {
    std::string It = ft::freshName(
        "cc." + std::to_string(D),
        [&](const std::string &N) { return isIterUsed(Root, N); });
    Iters.push_back(It);
    CacheIdx.push_back(makeVar(It));
    BaseIdx.push_back(constFold(makeAdd(R.Lower[D], makeVar(It))));
  }
  // A dimension whose constant box lies inside the constant shape needs no
  // guard; leaving it out spares the cleanup a simplify round.
  Expr Guard = makeBoolConst(true);
  for (size_t D = 0; D < NDim; ++D) {
    auto Lo = constInt(R.Lower[D]), Ext = constInt(R.Extent[D]),
         Size = constInt(Def->Info.Shape[D]);
    if (Lo && Ext && Size && *Lo >= 0 && *Lo + *Ext <= *Size)
      continue;
    Guard = makeLAnd(Guard, makeGE(BaseIdx[D], makeIntConst(0)));
    Guard = makeLAnd(Guard, makeLT(BaseIdx[D], Def->Info.Shape[D]));
  }
  Guard = constFold(Guard);
  Stmt Body = BodyFn(CacheIdx);
  if (auto B = dyn_cast<BoolConstNode>(Guard); !B || !B->Val)
    Body = makeIf(Guard, Body);
  for (size_t D = NDim; D-- > 0;)
    Body = makeFor(Iters[D], makeIntConst(0), R.Extent[D], ForProperty{},
                   Body);
  return Body;
}

} // namespace

Result<std::string> Schedule::cacheImpl(int64_t StmtId, const std::string &Var,
                                    MemType MTy) {
  Stmt S0 = findStmt(F.Body, StmtId);
  if (!S0)
    return Result<std::string>::error("no statement with ID " +
                                      std::to_string(StmtId));
  auto Def = findVarDef(F.Body, Var);
  if (!Def)
    return Result<std::string>::error("no tensor named `" + Var + "`");

  IsParamFn IsParam = isParamFn();
  auto Region = analyzeRegion(F.Body, deps().accesses(), StmtId, Var, Def,
                              IsParam);
  if (!Region)
    return Region.status();

  std::string CacheName = ft::freshName(Var + ".cache", [&](const auto &N) {
    return findVarDef(F.Body, N) != nullptr;
  });
  size_t NDim = Region->Extent.size();

  bool Reads = false, Writes = false;
  {
    const AccessCollection &AC = deps().accesses();
    for (size_t I : AC.pointsOf(Var)) {
      const AccessPoint &P = AC.Points[I];
      if (!P.isInside(StmtId))
        continue;
      Reads |= P.Kind != AccessKind::Write;
      Writes |= P.Kind != AccessKind::Read;
    }
  }

  // Fill: cache[c] = var[lower + c]. Always emitted so a later write-back
  // restores untouched cells of the bounding box.
  Stmt Fill = buildCopyNest(
      F.Body, *Region, Def, [&](const std::vector<Expr> &C) {
        std::vector<Expr> Base;
        for (size_t D = 0; D < NDim; ++D)
          Base.push_back(constFold(makeAdd(Region->Lower[D], C[D])));
        return makeStore(CacheName, C,
                         makeLoad(Var, Base, Def->Info.Dtype));
      });

  // Redirect accesses inside the statement.
  Stmt Redirected = renameTensor(S0, Var, CacheName);
  Redirected =
      remapIndices(Redirected, CacheName, [&](const std::vector<Expr> &Idx) {
        std::vector<Expr> Out;
        for (size_t D = 0; D < NDim; ++D)
          Out.push_back(constFold(makeSub(Idx[D], Region->Lower[D])));
        return Out;
      });

  std::vector<Stmt> SeqStmts{Fill, Redirected};
  if (Writes) {
    Stmt WriteBack = buildCopyNest(
        F.Body, *Region, Def, [&](const std::vector<Expr> &C) {
          std::vector<Expr> Base;
          for (size_t D = 0; D < NDim; ++D)
            Base.push_back(constFold(makeAdd(Region->Lower[D], C[D])));
          return makeStore(Var, Base,
                           makeLoad(CacheName, C, Def->Info.Dtype));
        });
    SeqStmts.push_back(WriteBack);
  }
  (void)Reads;

  Stmt Wrapped = makeVarDef(CacheName,
                            TensorInfo{Region->Extent, Def->Info.Dtype},
                            AccessType::Cache, MTy,
                            makeStmtSeq(std::move(SeqStmts)));
  replaceById(StmtId, Wrapped);
  cleanup();
  return CacheName;
}

Result<std::string> Schedule::cacheReductionImpl(int64_t StmtId,
                                             const std::string &Var,
                                             MemType MTy) {
  Stmt S0 = findStmt(F.Body, StmtId);
  if (!S0)
    return Result<std::string>::error("no statement with ID " +
                                      std::to_string(StmtId));
  auto Def = findVarDef(F.Body, Var);
  if (!Def)
    return Result<std::string>::error("no tensor named `" + Var + "`");

  // All accesses inside must be ReduceTo with one operator.
  std::optional<ReduceOpKind> Op;
  {
    const AccessCollection &AC = deps().accesses();
    for (size_t I : AC.pointsOf(Var)) {
      const AccessPoint &P = AC.Points[I];
      if (!P.isInside(StmtId))
        continue;
      if (P.Kind != AccessKind::Reduce || (Op && *Op != P.RedOp))
        return Result<std::string>::error(
            "cache_reduce requires all accesses to be one reduction "
            "operator");
      Op = P.RedOp;
    }
  }
  if (!Op)
    return Result<std::string>::error("cache_reduce: `" + Var +
                                      "` is not accessed in the statement");

  IsParamFn IsParam = isParamFn();
  auto Region = analyzeRegion(F.Body, deps().accesses(), StmtId, Var, Def,
                              IsParam);
  if (!Region)
    return Region.status();

  std::string CacheName = ft::freshName(Var + ".red", [&](const auto &N) {
    return findVarDef(F.Body, N) != nullptr;
  });
  size_t NDim = Region->Extent.size();
  Expr Neutral = neutralValue(*Op, Def->Info.Dtype);

  Stmt Init = buildCopyNest(
      F.Body, *Region, Def, [&](const std::vector<Expr> &C) {
        return makeStore(CacheName, C, Neutral);
      });
  Stmt Redirected = renameTensor(S0, Var, CacheName);
  Redirected =
      remapIndices(Redirected, CacheName, [&](const std::vector<Expr> &Idx) {
        std::vector<Expr> Out;
        for (size_t D = 0; D < NDim; ++D)
          Out.push_back(constFold(makeSub(Idx[D], Region->Lower[D])));
        return Out;
      });
  Stmt Back = buildCopyNest(
      F.Body, *Region, Def, [&](const std::vector<Expr> &C) {
        std::vector<Expr> Base;
        for (size_t D = 0; D < NDim; ++D)
          Base.push_back(constFold(makeAdd(Region->Lower[D], C[D])));
        return makeReduceTo(Var, Base, *Op,
                            makeLoad(CacheName, C, Def->Info.Dtype));
      });

  Stmt Wrapped = makeVarDef(CacheName,
                            TensorInfo{Region->Extent, Def->Info.Dtype},
                            AccessType::Cache, MTy,
                            makeStmtSeq({Init, Redirected, Back}));
  replaceById(StmtId, Wrapped);
  cleanup();
  return CacheName;
}

Status Schedule::setMemTypeImpl(const std::string &Var, MemType MTy) {
  auto Def = findVarDef(F.Body, Var);
  if (!Def)
    return Status::error("no tensor named `" + Var + "`");
  if (Def->ATy != AccessType::Cache)
    return Status::error("set_mtype applies to Cache tensors only");
  Stmt New = makeVarDef(Def->Name, Def->Info, Def->ATy, MTy, Def->Body,
                        Def->Id);
  cast<VarDefNode>(New)->NoGrad = Def->NoGrad;
  replaceById(Def->Id, New);
  return Status::success();
}

//===----------------------------------------------------------------------===//
// Memory layout transformations
//===----------------------------------------------------------------------===//

Status Schedule::varSplitImpl(const std::string &Var, int Dim, int64_t Factor) {
  auto Def = findVarDef(F.Body, Var);
  if (!Def)
    return Status::error("no tensor named `" + Var + "`");
  if (Def->ATy != AccessType::Cache)
    return Status::error("var_split applies to Cache tensors only");
  if (Dim < 0 || Dim >= static_cast<int>(Def->Info.Shape.size()))
    return Status::error("var_split: dimension out of range");
  auto Ext = constInt(Def->Info.Shape[Dim]);
  if (!Ext || *Ext % Factor != 0)
    return Status::error(
        "var_split requires a constant extent divisible by the factor");

  std::vector<Expr> NewShape;
  for (int D = 0; D < static_cast<int>(Def->Info.Shape.size()); ++D) {
    if (D == Dim) {
      NewShape.push_back(makeIntConst(*Ext / Factor));
      NewShape.push_back(makeIntConst(Factor));
    } else {
      NewShape.push_back(Def->Info.Shape[D]);
    }
  }
  setBody(remapIndices(F.Body, Var, [&](const std::vector<Expr> &Idx) {
    std::vector<Expr> Out;
    for (int D = 0; D < static_cast<int>(Idx.size()); ++D) {
      if (D == Dim) {
        Out.push_back(makeFloorDiv(Idx[D], makeIntConst(Factor)));
        Out.push_back(makeMod(Idx[D], makeIntConst(Factor)));
      } else {
        Out.push_back(Idx[D]);
      }
    }
    return Out;
  }));
  setBody(constFold(ShapeSetter(Var, NewShape)(F.Body)));
  return Status::success();
}

Status Schedule::varReorderImpl(const std::string &Var,
                            const std::vector<int> &Perm) {
  auto Def = findVarDef(F.Body, Var);
  if (!Def)
    return Status::error("no tensor named `" + Var + "`");
  if (Def->ATy != AccessType::Cache)
    return Status::error("var_reorder applies to Cache tensors only");
  size_t NDim = Def->Info.Shape.size();
  if (Perm.size() != NDim)
    return Status::error("var_reorder: permutation rank mismatch");
  std::vector<bool> Seen(NDim, false);
  for (int P : Perm) {
    if (P < 0 || P >= static_cast<int>(NDim) || Seen[P])
      return Status::error("var_reorder: invalid permutation");
    Seen[P] = true;
  }

  std::vector<Expr> NewShape;
  for (size_t D = 0; D < NDim; ++D)
    NewShape.push_back(Def->Info.Shape[Perm[D]]);
  setBody(remapIndices(F.Body, Var, [&](const std::vector<Expr> &Idx) {
    std::vector<Expr> Out;
    for (size_t D = 0; D < NDim; ++D)
      Out.push_back(Idx[Perm[D]]);
    return Out;
  }));
  setBody(ShapeSetter(Var, NewShape)(F.Body));
  return Status::success();
}

Status Schedule::varMergeImpl(const std::string &Var, int Dim) {
  auto Def = findVarDef(F.Body, Var);
  if (!Def)
    return Status::error("no tensor named `" + Var + "`");
  if (Def->ATy != AccessType::Cache)
    return Status::error("var_merge applies to Cache tensors only");
  if (Dim < 0 || Dim + 1 >= static_cast<int>(Def->Info.Shape.size()))
    return Status::error("var_merge: dimension out of range");

  Expr InnerExt = Def->Info.Shape[Dim + 1];
  std::vector<Expr> NewShape;
  for (int D = 0; D < static_cast<int>(Def->Info.Shape.size()); ++D) {
    if (D == Dim)
      NewShape.push_back(
          constFold(makeMul(Def->Info.Shape[D], InnerExt)));
    else if (D != Dim + 1)
      NewShape.push_back(Def->Info.Shape[D]);
  }
  setBody(remapIndices(F.Body, Var, [&](const std::vector<Expr> &Idx) {
    std::vector<Expr> Out;
    for (int D = 0; D < static_cast<int>(Idx.size()); ++D) {
      if (D == Dim)
        Out.push_back(makeAdd(makeMul(Idx[D], InnerExt), Idx[D + 1]));
      else if (D != Dim + 1)
        Out.push_back(Idx[D]);
    }
    return Out;
  }));
  setBody(constFold(ShapeSetter(Var, NewShape)(F.Body)));
  return Status::success();
}

//===----------------------------------------------------------------------===//
// Others: as_lib, separate_tail
//===----------------------------------------------------------------------===//

namespace {

/// True if \p E is a Load of \p Var indexed exactly by the two iterators.
bool isLoad2D(const Expr &E, std::string *Var, std::string *I0,
              std::string *I1) {
  auto L = dyn_cast<LoadNode>(E);
  if (!L || L->Indices.size() != 2)
    return false;
  auto V0 = dyn_cast<VarNode>(L->Indices[0]);
  auto V1 = dyn_cast<VarNode>(L->Indices[1]);
  if (!V0 || !V1)
    return false;
  *Var = L->Var;
  *I0 = V0->Name;
  *I1 = V1->Name;
  return true;
}

bool isZeroConst(const Expr &E) {
  if (auto F = dyn_cast<FloatConstNode>(E))
    return F->Val == 0.0;
  if (auto I = dyn_cast<IntConstNode>(E))
    return I->Val == 0;
  return false;
}

} // namespace

Status Schedule::asLibImpl(int64_t LoopId) {
  // Builder-emitted indices contain "(0 + i)" offsets; fold them so the
  // structural matcher sees bare iterators.
  setBody(constFold(F.Body));
  Status Err;
  auto Li = getLoop(LoopId, &Err);
  if (!Li)
    return Err;
  auto Lj = dyn_cast<ForNode>(unwrapSingle(Li->Body));
  if (!Lj)
    return Status::error("as_lib: expected a perfectly nested i-j loop");

  // Body of j: either {C[i,j] = 0; for k: reduce} or just the k loop.
  Stmt JBody = unwrapSingle(Lj->Body);
  Ref<StoreNode> ZeroStore;
  Ref<ForNode> Lk;
  if (auto Seq = dyn_cast<StmtSeqNode>(JBody)) {
    if (Seq->Stmts.size() != 2)
      return Status::error("as_lib: unrecognized loop body");
    ZeroStore = dyn_cast<StoreNode>(unwrapSingle(Seq->Stmts[0]));
    Lk = dyn_cast<ForNode>(unwrapSingle(Seq->Stmts[1]));
  } else {
    Lk = dyn_cast<ForNode>(JBody);
  }
  if (!Lk)
    return Status::error("as_lib: no reduction loop found");
  auto Red = dyn_cast<ReduceToNode>(unwrapSingle(Lk->Body));
  if (!Red || Red->Op != ReduceOpKind::Add)
    return Status::error("as_lib: innermost statement must be `C += ...`");

  // C[i, j] indices.
  if (Red->Indices.size() != 2)
    return Status::error("as_lib: output must be 2-D");
  auto CI = dyn_cast<VarNode>(Red->Indices[0]);
  auto CJ = dyn_cast<VarNode>(Red->Indices[1]);
  if (!CI || !CJ || CI->Name != Li->Iter || CJ->Name != Lj->Iter)
    return Status::error("as_lib: output indices must be the loop "
                         "iterators");

  auto Mul = dyn_cast<BinaryNode>(Red->Value);
  if (!Mul || Mul->Op != BinOpKind::Mul)
    return Status::error("as_lib: reduction value must be a product");
  std::string AVar, BVar, A0, A1, B0, B1;
  if (!isLoad2D(Mul->LHS, &AVar, &A0, &A1) ||
      !isLoad2D(Mul->RHS, &BVar, &B0, &B1))
    return Status::error("as_lib: operands must be 2-D iterator loads");

  const std::string &I = Li->Iter, &J = Lj->Iter, &K = Lk->Iter;
  // Identify which operand carries i and which carries j; both carry k.
  auto UsesIK = [&](const std::string &X0, const std::string &X1) {
    return (X0 == I && X1 == K) || (X0 == K && X1 == I);
  };
  auto UsesKJ = [&](const std::string &X0, const std::string &X1) {
    return (X0 == K && X1 == J) || (X0 == J && X1 == K);
  };
  std::string AName, BName;
  bool TransA, TransB;
  if (UsesIK(A0, A1) && UsesKJ(B0, B1)) {
    AName = AVar;
    BName = BVar;
    TransA = A0 == K;
    TransB = B0 == J;
  } else if (UsesIK(B0, B1) && UsesKJ(A0, A1)) {
    AName = BVar;
    BName = AVar;
    TransA = B0 == K;
    TransB = A0 == J;
  } else {
    return Status::error("as_lib: operand index pattern is not a matmul");
  }

  // Validate zero store if present.
  if (ZeroStore) {
    if (ZeroStore->Var != Red->Var || !isZeroConst(ZeroStore->Value))
      return Status::error("as_lib: unrecognized initialization statement");
  }

  // Begins must be zero and extents must cover the tensors' full shapes.
  auto CDef = findVarDef(F.Body, Red->Var);
  auto ADef = findVarDef(F.Body, AName);
  auto BDef = findVarDef(F.Body, BName);
  if (!CDef || !ADef || !BDef)
    return Status::error("as_lib: tensors must be visible VarDefs");
  if (CDef->Info.Shape.size() != 2 || ADef->Info.Shape.size() != 2 ||
      BDef->Info.Shape.size() != 2)
    return Status::error("as_lib: tensors must be full 2-D arrays");
  for (const auto &L : {Li, Lj, Lk})
    if (!provably(makeEQ(L->Begin, makeIntConst(0))))
      return Status::error("as_lib: loop begins must be 0");
  Expr M = Li->End, N = Lj->End, Kx = Lk->End;
  auto DimOk = [&](const Ref<VarDefNode> &D, int Dim, const Expr &Want) {
    return provably(makeEQ(D->Info.Shape[Dim], Want));
  };
  if (!DimOk(CDef, 0, M) || !DimOk(CDef, 1, N) ||
      !DimOk(ADef, TransA ? 1 : 0, M) || !DimOk(ADef, TransA ? 0 : 1, Kx) ||
      !DimOk(BDef, TransB ? 1 : 0, Kx) || !DimOk(BDef, TransB ? 0 : 1, N))
    return Status::error(
        "as_lib: loop extents must cover the full tensors");

  std::vector<Stmt> Repl;
  if (ZeroStore) {
    // Keep a zero-initialization nest.
    Stmt Zero = makeStore(Red->Var, {makeVar(I), makeVar(J)},
                          ZeroStore->Value);
    Stmt ZJ = makeFor(J, makeIntConst(0), N, ForProperty{}, Zero);
    Repl.push_back(makeFor(I, makeIntConst(0), M, ForProperty{}, ZJ));
  }
  Repl.push_back(makeGemmCall(AName, BName, Red->Var, M, N, Kx, TransA,
                              TransB, CDef->Info.Dtype));
  replaceById(LoopId, makeStmtSeq(std::move(Repl)));
  return Status::success();
}

Result<SplitIds> Schedule::separateTailImpl(int64_t LoopId) {
  Status Err;
  auto L = getLoop(LoopId, &Err);
  if (!L)
    return Err;

  // Find the first If inside the loop body and the loops between.
  Ref<IfNode> Guard;
  std::vector<IterRange> Inner;
  std::function<bool(const Stmt &, std::vector<IterRange> &)> Find =
      [&](const Stmt &S, std::vector<IterRange> &Path) -> bool {
    switch (S->kind()) {
    case NodeKind::If:
      Guard = cast<IfNode>(S);
      Inner = Path;
      return true;
    case NodeKind::StmtSeq:
      for (const Stmt &Sub : cast<StmtSeqNode>(S)->Stmts)
        if (Find(Sub, Path))
          return true;
      return false;
    case NodeKind::VarDef:
      return Find(cast<VarDefNode>(S)->Body, Path);
    case NodeKind::For: {
      auto F2 = cast<ForNode>(S);
      Path.push_back({F2->Iter, F2->Begin, F2->End});
      bool R = Find(F2->Body, Path);
      if (!R)
        Path.pop_back();
      return R;
    }
    default:
      return false;
    }
  };
  std::vector<IterRange> Path;
  if (!Find(L->Body, Path))
    return Result<SplitIds>::error("separate_tail: no guard found");

  // Decompose the condition into affine atoms (conjunction only).
  IsParamFn IsParam = isParamFn();
  std::vector<LinearExpr> Atoms;
  std::function<bool(const Expr &)> Gather = [&](const Expr &C) -> bool {
    auto B = dyn_cast<BinaryNode>(C);
    if (!B)
      return false;
    if (B->Op == BinOpKind::LAnd)
      return Gather(B->LHS) && Gather(B->RHS);
    if (!isCompareOp(B->Op) || B->Op == BinOpKind::EQ ||
        B->Op == BinOpKind::NE)
      return false;
    auto Lh = toLinear(B->LHS, IsParam);
    auto Rh = toLinear(B->RHS, IsParam);
    if (!Lh || !Rh)
      return false;
    // Normalize to GE-zero form.
    std::optional<LinearExpr> D;
    switch (B->Op) {
    case BinOpKind::LT: // L < R  ->  R - L - 1 >= 0
      D = LinearExpr::trySub(*Rh, *Lh);
      if (D)
        D->addConst(-1);
      break;
    case BinOpKind::LE:
      D = LinearExpr::trySub(*Rh, *Lh);
      break;
    case BinOpKind::GT:
      D = LinearExpr::trySub(*Lh, *Rh);
      if (D)
        D->addConst(-1);
      break;
    case BinOpKind::GE:
      D = LinearExpr::trySub(*Lh, *Rh);
      break;
    default:
      return false;
    }
    if (!D)
      return false;
    Atoms.push_back(*D);
    return true;
  };
  if (!Gather(Guard->Cond) || Atoms.empty())
    return Result<SplitIds>::error(
        "separate_tail: guard is not an affine conjunction");

  // For each atom a*t + R >= 0 (t the split iterator), compute the interval
  // of t where it holds for all inner iterations.
  Expr Lo = L->Begin, Hi = L->End;
  bool AnyUseful = false;
  for (const LinearExpr &Atom : Atoms) {
    int64_t A = Atom.coeffOf(L->Iter);
    if (A == 0)
      continue;
    LinearExpr R = Atom;
    R.setCoeff(L->Iter, 0);
    auto BP = eliminateIters(R, Inner, IsParam);
    if (!BP)
      continue;
    Expr MinR = linearToExpr(BP->Lower);
    if (A > 0) {
      // Holds for t >= ceil(-minR / A).
      Expr Cut = makeFloorDiv(
          makeAdd(makeUnary(UnOpKind::Neg, MinR), makeIntConst(A - 1)),
          makeIntConst(A));
      Lo = makeMax(Lo, Cut);
    } else {
      // Holds for t <= floor(minR / -A), i.e. t < floor(minR / -A) + 1.
      Expr Cut = makeAdd(makeFloorDiv(MinR, makeIntConst(-A)),
                         makeIntConst(1));
      Hi = makeMin(Hi, Cut);
    }
    AnyUseful = true;
  }
  if (!AnyUseful)
    return Result<SplitIds>::error(
        "separate_tail: the guard does not depend on the loop iterator");

  Lo = constFold(makeMin(makeMax(Lo, L->Begin), L->End));
  Hi = constFold(makeMax(makeMin(Hi, L->End), Lo));

  Stmt Head = makeFor(L->Iter, L->Begin, Lo, L->Property,
                      copyWithFreshIds(L->Body));
  Stmt Mid = makeFor(L->Iter, Lo, Hi, L->Property, L->Body, LoopId);
  Stmt Tail = makeFor(L->Iter, Hi, L->End, L->Property,
                      copyWithFreshIds(L->Body));
  SplitIds Ids{Head->Id, Tail->Id};
  replaceById(LoopId, makeStmtSeq({Head, Mid, Tail}));
  cleanup();
  return Ids;
}

//===----------------------------------------------------------------------===//
// Audit wrappers
//===----------------------------------------------------------------------===//
//
// Every public primitive funnels through trace::ScheduleAudit so the
// observability layer sees one schedule decision per call: primitive name,
// operand summary, applied/rejected with the legality reason, and the
// dependence-engine work the check cost. When tracing and auditing are both
// off the wrapper cost is a couple of short string builds — noise next to
// the dependence analysis every primitive runs.

namespace {

std::string fmtLoop(int64_t Id) {
  return trace::auditEnabled() ? "loop " + std::to_string(Id) : std::string();
}

std::string fmtLoops(int64_t A, int64_t B) {
  return trace::auditEnabled()
             ? "loops " + std::to_string(A) + ", " + std::to_string(B)
             : std::string();
}

std::string fmtIdList(const std::vector<int64_t> &Ids) {
  if (!trace::auditEnabled())
    return {};
  std::string Out = "loops [";
  for (size_t I = 0; I < Ids.size(); ++I)
    Out += (I ? ", " : "") + std::to_string(Ids[I]);
  return Out + "]";
}

std::string fmtVar(const std::string &Var) {
  return trace::auditEnabled() ? "var " + Var : std::string();
}

} // namespace

Result<SplitIds> Schedule::split(int64_t LoopId, int64_t Factor) {
  trace::ScheduleAudit A("split", fmtLoop(LoopId) + " factor " +
                                      std::to_string(Factor));
  auto R = splitImpl(LoopId, Factor);
  A.noteStmtIds({LoopId});
  if (R)
    A.noteStmtIds({R->First, R->Second});
  return A.finish(std::move(R));
}

Result<int64_t> Schedule::merge(int64_t OuterId, int64_t InnerId) {
  trace::ScheduleAudit A("merge", fmtLoops(OuterId, InnerId));
  auto R = mergeImpl(OuterId, InnerId);
  A.noteStmtIds({OuterId, InnerId});
  if (R)
    A.noteStmtIds({*R});
  return A.finish(std::move(R));
}

Status Schedule::reorder(const std::vector<int64_t> &Order) {
  trace::ScheduleAudit A("reorder", fmtIdList(Order));
  A.noteStmtIds(Order);
  return A.finish(reorderImpl(Order));
}

Result<SplitIds> Schedule::fission(int64_t LoopId, int64_t AfterStmtId) {
  trace::ScheduleAudit A("fission", fmtLoop(LoopId) + " after " +
                                        std::to_string(AfterStmtId));
  auto R = fissionImpl(LoopId, AfterStmtId);
  A.noteStmtIds({LoopId, AfterStmtId});
  if (R)
    A.noteStmtIds({R->First, R->Second});
  return A.finish(std::move(R));
}

Result<int64_t> Schedule::fuse(int64_t Loop1Id, int64_t Loop2Id) {
  trace::ScheduleAudit A("fuse", fmtLoops(Loop1Id, Loop2Id));
  auto R = fuseImpl(Loop1Id, Loop2Id);
  A.noteStmtIds({Loop1Id, Loop2Id});
  if (R)
    A.noteStmtIds({*R});
  return A.finish(std::move(R));
}

Status Schedule::swap(int64_t Stmt1Id, int64_t Stmt2Id) {
  trace::ScheduleAudit A("swap", fmtLoops(Stmt1Id, Stmt2Id));
  A.noteStmtIds({Stmt1Id, Stmt2Id});
  return A.finish(swapImpl(Stmt1Id, Stmt2Id));
}

Status Schedule::parallelize(int64_t LoopId) {
  trace::ScheduleAudit A("parallelize", fmtLoop(LoopId));
  A.noteStmtIds({LoopId});
  return A.finish(parallelizeImpl(LoopId));
}

Status Schedule::unroll(int64_t LoopId, bool Full) {
  trace::ScheduleAudit A("unroll", fmtLoop(LoopId) +
                                       (Full ? " (full)" : " (backend)"));
  A.noteStmtIds({LoopId});
  return A.finish(unrollImpl(LoopId, Full));
}

Status Schedule::unroll(int64_t LoopId, int Factor) {
  trace::ScheduleAudit A("unroll", fmtLoop(LoopId) + " factor " +
                                       std::to_string(Factor));
  A.noteStmtIds({LoopId});
  return A.finish(unrollImpl(LoopId, Factor));
}

Status Schedule::blend(int64_t LoopId) {
  trace::ScheduleAudit A("blend", fmtLoop(LoopId));
  A.noteStmtIds({LoopId});
  return A.finish(blendImpl(LoopId));
}

Status Schedule::vectorize(int64_t LoopId) {
  trace::ScheduleAudit A("vectorize", fmtLoop(LoopId));
  A.noteStmtIds({LoopId});
  return A.finish(vectorizeImpl(LoopId));
}

Status Schedule::vectorize(int64_t LoopId, int Width) {
  trace::ScheduleAudit A("vectorize", fmtLoop(LoopId) + " width " +
                                          std::to_string(Width));
  A.noteStmtIds({LoopId});
  return A.finish(vectorizeImpl(LoopId, Width));
}

Result<std::string> Schedule::cache(int64_t StmtId, const std::string &Var,
                                    MemType MTy) {
  trace::ScheduleAudit A("cache", fmtVar(Var) + " at stmt " +
                                      std::to_string(StmtId));
  A.noteStmtIds({StmtId});
  return A.finish(cacheImpl(StmtId, Var, MTy));
}

Result<std::string> Schedule::cacheReduction(int64_t StmtId,
                                             const std::string &Var,
                                             MemType MTy) {
  trace::ScheduleAudit A("cache_reduction", fmtVar(Var) + " at stmt " +
                                                std::to_string(StmtId));
  A.noteStmtIds({StmtId});
  return A.finish(cacheReductionImpl(StmtId, Var, MTy));
}

Status Schedule::setMemType(const std::string &Var, MemType MTy) {
  trace::ScheduleAudit A("set_mem_type", fmtVar(Var));
  return A.finish(setMemTypeImpl(Var, MTy));
}

Status Schedule::varSplit(const std::string &Var, int Dim, int64_t Factor) {
  trace::ScheduleAudit A("var_split", fmtVar(Var) + " dim " +
                                          std::to_string(Dim) + " factor " +
                                          std::to_string(Factor));
  return A.finish(varSplitImpl(Var, Dim, Factor));
}

Status Schedule::varReorder(const std::string &Var,
                            const std::vector<int> &Perm) {
  trace::ScheduleAudit A("var_reorder", fmtVar(Var));
  return A.finish(varReorderImpl(Var, Perm));
}

Status Schedule::varMerge(const std::string &Var, int Dim) {
  trace::ScheduleAudit A("var_merge", fmtVar(Var) + " dim " +
                                          std::to_string(Dim));
  return A.finish(varMergeImpl(Var, Dim));
}

Status Schedule::asLib(int64_t LoopId) {
  trace::ScheduleAudit A("as_lib", fmtLoop(LoopId));
  A.noteStmtIds({LoopId});
  return A.finish(asLibImpl(LoopId));
}

Result<SplitIds> Schedule::separateTail(int64_t LoopId) {
  trace::ScheduleAudit A("separate_tail", fmtLoop(LoopId));
  auto R = separateTailImpl(LoopId);
  A.noteStmtIds({LoopId});
  if (R)
    A.noteStmtIds({R->First, R->Second});
  return A.finish(std::move(R));
}
