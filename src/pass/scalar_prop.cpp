//===- pass/scalar_prop.cpp -----------------------------------------------===//

#include "pass/scalar_prop.h"

#include <functional>
#include <map>
#include <optional>

#include "analysis/access.h"
#include "ir/visitor.h"
#include "pass/flatten.h"
#include "pass/pass_trace.h"
#include "pass/remove_writes.h"
#include "pass/replace.h"

using namespace ft;

namespace {

/// One propagation opportunity.
struct Candidate {
  std::string Var;
  int64_t StoreId = -1;
  Expr Value;
};

/// Whether re-evaluating \p E costs no more than reading the scalar it
/// replaces: a constant, a variable, or a single load (possibly cast).
/// Anything with arithmetic — and especially transcendentals like the
/// per-segment `exp(e[j] - max) / sum` of softmax — is NOT cheap.
bool cheapToReplicate(const Expr &E) {
  Expr Cur = E;
  while (Cur && Cur->kind() == NodeKind::Cast)
    Cur = cast<CastNode>(Cur)->Operand;
  if (!Cur)
    return false;
  switch (Cur->kind()) {
  case NodeKind::IntConst:
  case NodeKind::FloatConst:
  case NodeKind::Var:
  case NodeKind::Load:
    return true;
  default:
    return false;
  }
}

/// Finds a propagatable scalar inside \p Def's body, or nullopt.
std::optional<Candidate> findCandidate(const Ref<VarDefNode> &Def) {
  if (Def->ATy != AccessType::Cache || !Def->Info.Shape.empty())
    return std::nullopt;
  AccessCollection AC = collectAccesses(Def->Body);

  const AccessPoint *Write = nullptr, *Read = nullptr;
  for (const AccessPoint &P : AC.Points) {
    if (P.Var != Def->Name)
      continue;
    if (P.Kind == AccessKind::Reduce)
      return std::nullopt;
    if (P.Kind == AccessKind::Write) {
      if (Write)
        return std::nullopt; // More than one write.
      Write = &P;
    } else {
      if (Read)
        return std::nullopt; // More than one read.
      Read = &P;
    }
  }
  if (!Write || !Read || Read->Seq < Write->Seq)
    return std::nullopt;
  // The store must be unconditional and not inside a loop of the body, so
  // its RHS is evaluated once per instantiation and its iterators are in
  // scope at the read site.
  if (!Write->Loops.empty() || !Write->Conds.empty())
    return std::nullopt;
  // If the read sits in a loop the store is not in, folding re-evaluates
  // the RHS once per iteration of that loop — a net loss unless the RHS
  // is no more expensive than the scalar read it replaces. The segment
  // idiom hits this hard: `w = exp(e[j] - mx) / sum` read in the feature
  // loop would recompute the exp() Feats times per edge.
  Stmt StoreStmt = findStmt(Def->Body, Write->StmtId);
  auto St = dyn_cast<StoreNode>(StoreStmt);
  if (!St)
    return std::nullopt;
  if (!Read->Loops.empty() && !cheapToReplicate(St->Value))
    return std::nullopt;

  // Interference: none of the RHS's operand tensors may be written inside
  // the body (so re-evaluating the RHS at the read site sees the same
  // values), and the RHS must not read the scalar itself.
  std::vector<std::string> Operands;
  std::function<void(const Expr &)> Gather = [&](const Expr &E) {
    if (auto L = dyn_cast<LoadNode>(E)) {
      Operands.push_back(L->Var);
      for (const Expr &I : L->Indices)
        Gather(I);
      return;
    }
    if (auto B = dyn_cast<BinaryNode>(E)) {
      Gather(B->LHS);
      Gather(B->RHS);
      return;
    }
    if (auto U = dyn_cast<UnaryNode>(E))
      return Gather(U->Operand);
    if (auto C = dyn_cast<CastNode>(E))
      return Gather(C->Operand);
    if (auto IE = dyn_cast<IfExprNode>(E)) {
      Gather(IE->Cond);
      Gather(IE->Then);
      Gather(IE->Else);
    }
  };
  Gather(St->Value);
  for (const std::string &Op : Operands) {
    if (Op == Def->Name)
      return std::nullopt;
    for (const AccessPoint &P : AC.Points)
      if (P.Var == Op && P.Kind != AccessKind::Read)
        return std::nullopt;
  }
  return Candidate{Def->Name, St->Id, St->Value};
}

/// Substitutes the (single) Load of Var by Value and deletes the store.
class Propagator : public Mutator {
public:
  explicit Propagator(Candidate C) : C(std::move(C)) {}

  using Mutator::operator();
  Stmt operator()(const Stmt &S) override {
    if (S->Id == C.StoreId)
      return makeStmtSeq({});
    return Mutator::operator()(S);
  }

protected:
  Expr visit(const LoadNode *E) override {
    if (E->Var == C.Var)
      return C.Value;
    return Mutator::visit(E);
  }

private:
  Candidate C;
};

/// Reads, writes and reductions of each scalar Cache VarDef's name inside
/// its body, keyed by VarDef id. An access counts toward every enclosing
/// definition of its name, as collectAccesses over each body would see it;
/// the count skips shape expressions and GemmCall operands, so it never
/// exceeds what findCandidate sees.
class UseCounter : public Visitor {
public:
  struct Uses {
    int Reads = 0, Writes = 0, Reduces = 0;
  };
  std::map<int64_t, Uses> Counts;

protected:
  void visit(const VarDefNode *S) override {
    bool Scalar = S->ATy == AccessType::Cache && S->Info.Shape.empty();
    if (Scalar)
      Open[S->Name].push_back(S->Id);
    (*this)(S->Body);
    if (Scalar)
      Open[S->Name].pop_back();
  }
  void visit(const LoadNode *E) override {
    bump(E->Var, &Uses::Reads);
    Visitor::visit(E);
  }
  void visit(const StoreNode *S) override {
    bump(S->Var, &Uses::Writes);
    Visitor::visit(S);
  }
  void visit(const ReduceToNode *S) override {
    bump(S->Var, &Uses::Reduces);
    Visitor::visit(S);
  }
  void visit(const GemmCallNode *) override {}

private:
  void bump(const std::string &Var, int Uses::*Field) {
    auto It = Open.find(Var);
    if (It != Open.end())
      for (int64_t Id : It->second)
        ++(Counts[Id].*Field);
  }
  std::map<std::string, std::vector<int64_t>> Open;
};

/// Walks the tree looking for one candidate; applies it; reports success.
/// \p Counts rules out, in one walk, the scalars that are read or written
/// twice or reduced, so the full check (an access collection of the body)
/// runs only on the rest instead of on every nested scalar.
class OneRound : public Mutator {
public:
  explicit OneRound(const std::map<int64_t, UseCounter::Uses> &Counts)
      : Counts(Counts) {}
  bool Changed = false;

protected:
  Stmt visit(const VarDefNode *S) override {
    auto It = Counts.find(S->Id);
    bool Excluded = It != Counts.end() &&
                    (It->second.Reads > 1 || It->second.Writes > 1 ||
                     It->second.Reduces > 0);
    if (!Changed && !Excluded) {
      // Re-wrap to get a shared handle for analysis.
      Stmt Self = makeVarDef(S->Name, S->Info, S->ATy, S->MTy, S->Body,
                             S->Id);
      if (auto C = findCandidate(cast<VarDefNode>(Self))) {
        Changed = true;
        Stmt NewBody = Propagator(*C)(S->Body);
        Stmt Out =
            makeVarDef(S->Name, S->Info, S->ATy, S->MTy, NewBody, S->Id);
        cast<VarDefNode>(Out)->NoGrad = S->NoGrad;
        return Out;
      }
    }
    return Mutator::visit(S);
  }

private:
  const std::map<int64_t, UseCounter::Uses> &Counts;
};

} // namespace

Stmt ft::propagateScalars(const Stmt &S) {
  return pass_detail::tracedPass("pass/scalar_prop", S, [&] {
    Stmt Cur = S;
    for (int Round = 0; Round < 32; ++Round) {
      UseCounter UC;
      UC(Cur);
      OneRound R(UC.Counts);
      Stmt Next = R(Cur);
      Cur = std::move(Next);
      if (!R.Changed)
        break;
    }
    return removeDeadWrites(flattenStmtSeq(Cur));
  });
}
