//===- analysis/ragged.cpp ------------------------------------------------===//

#include "analysis/ragged.h"

#include <algorithm>

#include "analysis/extents.h"
#include "ir/visitor.h"

using namespace ft;

std::optional<RaggedBound> ft::raggedBoundOf(const Expr &Bound) {
  Expr E = Bound;
  while (E && E->kind() == NodeKind::Cast)
    E = cast<CastNode>(E)->Operand;
  if (!E || E->kind() != NodeKind::Load)
    return std::nullopt;
  auto L = cast<LoadNode>(E);
  if (L->Indices.size() != 1)
    return std::nullopt;
  return RaggedBound{L->Var, L->Indices[0]};
}

bool RaggedInfo::isRaggedExtent(const std::string &Name) const {
  return std::binary_search(RaggedExtents.begin(), RaggedExtents.end(), Name);
}

namespace {

/// Walks one function body collecting segment loops and ragged sizes.
class RaggedAnalyzer : public Visitor {
public:
  RaggedInfo Info;

  void finalize() {
    std::set<std::string> Extents;
    for (const auto &[Param, Dims] : Info.RaggedDims) {
      auto It = Shapes.find(Param);
      if (It == Shapes.end())
        continue;
      for (int D : Dims) {
        if (D >= static_cast<int>(It->second.size()))
          continue;
        for (const std::string &N : scalarLoadsOf(It->second[D]))
          Extents.insert(N);
      }
    }
    Info.RaggedExtents.assign(Extents.begin(), Extents.end());
    Info.IndexTensors.assign(IndexSet.begin(), IndexSet.end());
  }

protected:
  void visit(const VarDefNode *S) override {
    Defs[S->Name] = S;
    // Shapes outlives the scope stack: finalize() reads it after the walk.
    Shapes[S->Name] = S->Info.Shape;
    Visitor::visit(S);
    Defs.erase(S->Name);
  }

  void visit(const ForNode *S) override {
    (*this)(S->Begin);
    (*this)(S->End);
    std::string Tensor;
    for (const Expr &B : {S->Begin, S->End})
      if (auto RB = raggedBoundOf(B); RB && isIndexTensor(RB->Tensor))
        Tensor = RB->Tensor;
    if (!Tensor.empty()) {
      Info.Loops.push_back({S->Id, S->Iter, Tensor});
      IndexSet.insert(Tensor);
      SegIters[S->Iter] = Tensor;
      (*this)(S->Body);
      SegIters.erase(S->Iter);
      return;
    }
    (*this)(S->Body);
  }

  void visit(const LoadNode *E) override {
    noteAccess(E->Var, E->Indices);
    Visitor::visit(E);
  }

  void visit(const StoreNode *S) override {
    noteAccess(S->Var, S->Indices);
    Visitor::visit(S);
  }

  void visit(const ReduceToNode *S) override {
    noteAccess(S->Var, S->Indices);
    Visitor::visit(S);
  }

private:
  bool isIndexTensor(const std::string &Name) const {
    auto It = Defs.find(Name);
    return It != Defs.end() && It->second->ATy == AccessType::Input &&
           It->second->Info.Shape.size() == 1 &&
           isInt(It->second->Info.Dtype);
  }

  bool isParam(const std::string &Name) const {
    auto It = Defs.find(Name);
    return It != Defs.end() && It->second->ATy != AccessType::Cache;
  }

  /// The variable an index expression reduces to, if it is an iterator up
  /// to the frontend's `0 + idx` offset wrapping and integer casts.
  static const VarNode *bareVarOf(const Expr &E) {
    Expr Cur = E;
    for (;;) {
      if (!Cur)
        return nullptr;
      if (Cur->kind() == NodeKind::Cast) {
        Cur = cast<CastNode>(Cur)->Operand;
        continue;
      }
      if (Cur->kind() == NodeKind::Binary) {
        auto A = cast<BinaryNode>(Cur);
        if (A->Op != BinOpKind::Add)
          return nullptr;
        if (auto L = dyn_cast<IntConstNode>(A->LHS); L && L->Val == 0) {
          Cur = A->RHS;
          continue;
        }
        if (auto R = dyn_cast<IntConstNode>(A->RHS); R && R->Val == 0) {
          Cur = A->LHS;
          continue;
        }
        return nullptr;
      }
      return Cur->kind() == NodeKind::Var ? cast<VarNode>(Cur).get() : nullptr;
    }
  }

  /// A dimension addressed by the *bare* iterator of a segment loop is
  /// ragged-sized; its leading-dim tensors bound the index tensor's values.
  void noteAccess(const std::string &Var, const std::vector<Expr> &Indices) {
    if (!isParam(Var))
      return;
    for (size_t D = 0; D < Indices.size(); ++D) {
      const VarNode *I = bareVarOf(Indices[D]);
      if (!I)
        continue;
      auto It = SegIters.find(I->Name);
      if (It == SegIters.end())
        continue;
      Info.RaggedDims[Var].insert(static_cast<int>(D));
      if (D == 0)
        Info.BoundedParams[It->second].insert(Var);
    }
  }

  std::map<std::string, const VarDefNode *> Defs;
  std::map<std::string, std::vector<Expr>> Shapes;
  std::map<std::string, std::string> SegIters; ///< iterator -> index tensor.
  std::set<std::string> IndexSet;
};

} // namespace

RaggedInfo ft::analyzeRagged(const Func &F) {
  RaggedAnalyzer A;
  A(F.Body);
  A.finalize();
  return A.Info;
}

Status ft::checkIndptrArgs(const RaggedInfo &RI,
                           const std::map<std::string, Buffer *> &Args) {
  for (const std::string &T : RI.IndexTensors) {
    auto It = Args.find(T);
    if (It == Args.end() || It->second == nullptr)
      return Status::error("index tensor `" + T + "` is not bound");
    const Buffer &B = *It->second;
    if (B.shape().size() != 1 || !isInt(B.dtype()))
      return Status::error("index tensor `" + T +
                           "` must be a 1-D integer tensor");
    int64_t N = B.shape()[0];
    if (N > 0 && B.getI(0) < 0)
      return Status::error("index tensor `" + T + "` starts below zero (" +
                           std::to_string(B.getI(0)) +
                           "); segment offsets must be >= 0");
    for (int64_t I = 0; I + 1 < N; ++I)
      if (B.getI(I) > B.getI(I + 1))
        return Status::error(
            "index tensor `" + T + "` is not monotonically non-decreasing: " +
            T + "[" + std::to_string(I) + "]=" + std::to_string(B.getI(I)) +
            " > " + T + "[" + std::to_string(I + 1) +
            "]=" + std::to_string(B.getI(I + 1)));
    if (N == 0)
      continue;
    int64_t Last = B.getI(N - 1);
    auto BP = RI.BoundedParams.find(T);
    if (BP == RI.BoundedParams.end())
      continue;
    for (const std::string &P : BP->second) {
      auto AIt = Args.find(P);
      if (AIt == Args.end() || AIt->second == nullptr ||
          AIt->second->shape().empty())
        continue; // Unbound / rank errors are validateArgs's findings.
      int64_t Extent = AIt->second->shape()[0];
      if (Last > Extent)
        return Status::error("index tensor `" + T + "` ends at " +
                             std::to_string(Last) +
                             ", past the leading extent " +
                             std::to_string(Extent) + " of `" + P +
                             "` it indexes");
    }
  }
  return Status::success();
}
