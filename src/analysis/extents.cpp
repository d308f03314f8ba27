//===- analysis/extents.cpp -----------------------------------------------===//

#include "analysis/extents.h"

#include <algorithm>
#include <set>

#include "ir/ast.h"

using namespace ft;

namespace {

/// Collects names loaded with an empty index list (0-D scalar reads) into
/// \p Out — the only way an extent parameter can appear in a shape.
void collectScalarLoads(const Expr &E, std::set<std::string> &Out) {
  if (!E)
    return;
  switch (E->kind()) {
  case NodeKind::Load: {
    auto L = cast<LoadNode>(E);
    if (L->Indices.empty())
      Out.insert(L->Var);
    for (const Expr &I : L->Indices)
      collectScalarLoads(I, Out);
    return;
  }
  case NodeKind::Binary: {
    auto B = cast<BinaryNode>(E);
    collectScalarLoads(B->LHS, Out);
    collectScalarLoads(B->RHS, Out);
    return;
  }
  case NodeKind::Unary:
    collectScalarLoads(cast<UnaryNode>(E)->Operand, Out);
    return;
  case NodeKind::Cast:
    collectScalarLoads(cast<CastNode>(E)->Operand, Out);
    return;
  case NodeKind::IfExpr: {
    auto I = cast<IfExprNode>(E);
    collectScalarLoads(I->Cond, Out);
    collectScalarLoads(I->Then, Out);
    collectScalarLoads(I->Else, Out);
    return;
  }
  default:
    return;
  }
}

/// Walks every shape expression, loop bound, and gemm extent in \p S.
void collectExtentUses(const Stmt &S, std::set<std::string> &Out) {
  if (!S)
    return;
  switch (S->kind()) {
  case NodeKind::StmtSeq:
    for (const Stmt &C : cast<StmtSeqNode>(S)->Stmts)
      collectExtentUses(C, Out);
    return;
  case NodeKind::VarDef: {
    auto D = cast<VarDefNode>(S);
    for (const Expr &Dim : D->Info.Shape)
      collectScalarLoads(Dim, Out);
    collectExtentUses(D->Body, Out);
    return;
  }
  case NodeKind::For: {
    auto F = cast<ForNode>(S);
    collectScalarLoads(F->Begin, Out);
    collectScalarLoads(F->End, Out);
    collectExtentUses(F->Body, Out);
    return;
  }
  case NodeKind::If: {
    auto I = cast<IfNode>(S);
    collectExtentUses(I->Then, Out);
    collectExtentUses(I->Else, Out);
    return;
  }
  case NodeKind::GemmCall: {
    auto G = cast<GemmCallNode>(S);
    collectScalarLoads(G->M, Out);
    collectScalarLoads(G->N, Out);
    collectScalarLoads(G->K, Out);
    return;
  }
  default:
    return;
  }
}

} // namespace

bool ExtentSpec::contains(const std::string &Name) const {
  return std::binary_search(Params.begin(), Params.end(), Name);
}

std::vector<std::string> ft::scalarLoadsOf(const Expr &E) {
  std::set<std::string> Out;
  collectScalarLoads(E, Out);
  return {Out.begin(), Out.end()};
}

ExtentSpec ft::extentParamsOf(const Func &F) {
  std::set<std::string> Used;
  collectExtentUses(F.Body, Used);

  ExtentSpec Spec;
  for (const std::string &P : F.Params) {
    if (!Used.count(P))
      continue;
    auto D = findVarDef(F.Body, P);
    if (!D || D->ATy == AccessType::Cache)
      continue;
    if (!D->Info.Shape.empty() || !isInt(D->Info.Dtype))
      continue;
    Spec.Params.push_back(P);
  }
  std::sort(Spec.Params.begin(), Spec.Params.end());
  return Spec;
}

std::optional<int64_t>
ft::evalExtentExpr(const Expr &E,
                   const std::map<std::string, int64_t> &Bindings) {
  if (!E)
    return std::nullopt;
  switch (E->kind()) {
  case NodeKind::IntConst:
    return cast<IntConstNode>(E)->Val;
  case NodeKind::Load: {
    auto L = cast<LoadNode>(E);
    if (!L->Indices.empty())
      return std::nullopt;
    auto It = Bindings.find(L->Var);
    if (It == Bindings.end())
      return std::nullopt;
    return It->second;
  }
  case NodeKind::Binary: {
    auto B = cast<BinaryNode>(E);
    auto L = evalExtentExpr(B->LHS, Bindings);
    auto R = evalExtentExpr(B->RHS, Bindings);
    if (!L || !R)
      return std::nullopt;
    switch (B->Op) {
    case BinOpKind::Add:
      return *L + *R;
    case BinOpKind::Sub:
      return *L - *R;
    case BinOpKind::Mul:
      return *L * *R;
    case BinOpKind::FloorDiv: {
      if (*R == 0)
        return std::nullopt;
      int64_t Q = *L / *R;
      if ((*L % *R != 0) && ((*L < 0) != (*R < 0)))
        --Q;
      return Q;
    }
    case BinOpKind::Mod: {
      if (*R == 0)
        return std::nullopt;
      int64_t M = *L % *R;
      if (M != 0 && ((M < 0) != (*R < 0)))
        M += *R;
      return M;
    }
    case BinOpKind::Min:
      return std::min(*L, *R);
    case BinOpKind::Max:
      return std::max(*L, *R);
    default:
      return std::nullopt;
    }
  }
  case NodeKind::Unary: {
    auto U = cast<UnaryNode>(E);
    if (U->Op != UnOpKind::Neg)
      return std::nullopt;
    auto V = evalExtentExpr(U->Operand, Bindings);
    return V ? std::optional<int64_t>(-*V) : std::nullopt;
  }
  case NodeKind::Cast: {
    auto C = cast<CastNode>(E);
    if (!isInt(C->Dtype))
      return std::nullopt;
    return evalExtentExpr(C->Operand, Bindings);
  }
  default:
    return std::nullopt;
  }
}

Status ft::bindExtentArgs(const ExtentSpec &Spec,
                          const std::map<std::string, Buffer *> &Args,
                          std::map<std::string, int64_t> &Out) {
  for (const std::string &Name : Spec.Params) {
    auto It = Args.find(Name);
    if (It == Args.end() || It->second == nullptr)
      return Status::error("missing extent argument `" + Name + "`");
    const Buffer &B = *It->second;
    if (!B.shape().empty())
      return Status::error("extent argument `" + Name +
                           "` must be a 0-D scalar, got rank " +
                           std::to_string(B.shape().size()));
    if (!isInt(B.dtype()))
      return Status::error("extent argument `" + Name +
                           "` must be an integer scalar");
    Out[Name] = B.getI(0);
  }
  return Status::success();
}

ArgContract ft::argContractOf(const Func &F) {
  ArgContract C;
  for (const std::string &P : F.Params)
    C.Params.push_back({P, findVarDef(F.Body, P)});
  C.Extents = extentParamsOf(F);
  C.Ragged = analyzeRagged(F);
  return C;
}

Status ArgContract::check(const std::map<std::string, Buffer *> &Args,
                          std::vector<void *> *Data) const {
  // Shape-generic functions: extent arguments must be bound and positive
  // (a non-positive extent would zero or invert every loop bound computed
  // from it) before the dimensions they determine can be checked.
  std::map<std::string, int64_t> Bindings;
  if (!Extents.empty()) {
    if (Status S = bindExtentArgs(Extents, Args, Bindings); !S.ok())
      return S;
    for (const auto &[Name, Val] : Bindings)
      if (Val < 1)
        return Status::error("extent argument `" + Name +
                             "` must be >= 1, got " + std::to_string(Val));
  }
  if (Data) {
    Data->clear();
    Data->reserve(Params.size());
  }
  for (const Param &P : Params) {
    auto It = Args.find(P.Name);
    if (It == Args.end() || It->second == nullptr)
      return Status::error("missing argument `" + P.Name + "`");
    if (!P.Def)
      return Status::error("parameter `" + P.Name + "` has no VarDef");
    const Buffer &B = *It->second;
    const TensorInfo &Info = P.Def->Info;
    if (B.dtype() != Info.Dtype)
      return Status::error("dtype mismatch for argument `" + P.Name + "`");
    if (B.shape().size() != Info.Shape.size())
      return Status::error("rank mismatch for argument `" + P.Name +
                           "`: got " + std::to_string(B.shape().size()) +
                           ", want " + std::to_string(Info.Shape.size()));
    // Every dimension that folds to a constant under the bindings must
    // match: the generated code indexes with the declared extents, not
    // with the buffer's.
    for (size_t Dim = 0; Dim < Info.Shape.size(); ++Dim) {
      auto Want = evalExtentExpr(Info.Shape[Dim], Bindings);
      if (Want && B.shape()[Dim] != *Want)
        return Status::error(
            "shape mismatch for argument `" + P.Name + "` in dimension " +
            std::to_string(Dim) + ": got " + std::to_string(B.shape()[Dim]) +
            ", want " + std::to_string(*Want) +
            (isa<IntConstNode>(Info.Shape[Dim])
                 ? ""
                 : " (from the bound extent arguments)"));
    }
    if (Data)
      Data->push_back(It->second->raw());
  }
  // Ragged functions: index tensors must be non-negative, monotonically
  // non-decreasing, and within the extents they gate — the contract
  // dependence analysis assumed when it proved schedules.
  if (!Ragged.empty())
    return checkIndptrArgs(Ragged, Args);
  return Status::success();
}
