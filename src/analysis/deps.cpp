//===- analysis/deps.cpp --------------------------------------------------===//

#include "analysis/deps.h"

#include <algorithm>

#include "analysis/affine.h"
#include "analysis/extents.h"
#include "analysis/ragged.h"
#include "support/metrics.h"

using namespace ft;

namespace {

/// True when \p Name is a valid ragged index tensor in this function: a
/// 1-D integer Input that is never written. Loads of it in loop bounds may
/// then be modeled as opaque symbols constrained by the runtime contract
/// of analysis/ragged.h (checkIndptrArgs).
bool isRaggedIndexTensor(const AccessCollection &AC, const std::string &Name) {
  auto It = AC.Defs.find(Name);
  if (It == AC.Defs.end())
    return false;
  const Ref<VarDefNode> &D = It->second;
  if (D->ATy != AccessType::Input || D->Info.Shape.size() != 1 ||
      !isInt(D->Info.Dtype))
    return false;
  auto BV = AC.ByVar.find(Name);
  if (BV != AC.ByVar.end())
    for (size_t I : BV->second)
      if (AC.Points[I].Kind != AccessKind::Read)
        return false;
  return true;
}

/// One opaque ragged-bound symbol occurring in a pair set: the value of
/// `Tensor[Idx]` with Idx already renamed into the p./q. iteration space.
struct RaggedSym {
  std::string Tensor;
  LinearExpr Idx;
  std::string Name;
};

/// The canonical symbol for a ragged bound. Both addDomain and the
/// monotonicity bridging below must render identically, so the name is
/// derived from the renamed index's canonical string form.
RaggedSym raggedSymOf(const std::string &Tensor, const LinearExpr &Idx) {
  return {Tensor, Idx, "$rg:" + Tensor + "[" + Idx.toString() + "]"};
}

/// Matches a loop bound that addDomain models as a ragged symbol: the
/// idiom load of a valid index tensor with an affine index. Returns the
/// symbol with \p Prefix applied to iterator names.
std::optional<RaggedSym>
raggedSymForBound(const AccessCollection &AC, const Expr &Bound,
                  const IsParamFn &IsParam, const std::string &Prefix,
                  const std::vector<std::string> &Iters) {
  auto RB = raggedBoundOf(Bound);
  if (!RB || !isRaggedIndexTensor(AC, RB->Tensor))
    return std::nullopt;
  auto Idx = toLinear(RB->Index, IsParam);
  if (!Idx)
    return std::nullopt;
  return raggedSymOf(RB->Tensor, renameIters(*Idx, Prefix, Iters));
}

} // namespace

DepAnalyzer::DepAnalyzer(const Stmt &Root) : AC(collectAccesses(Root)) {
  static metrics::Counter &Builds = metrics::counter("deps/analyzer_builds");
  Builds.fetch_add(1);
  DomEarlier.resize(AC.Points.size());
  DomLater.resize(AC.Points.size());
}

std::vector<LoopAxis> DepAnalyzer::commonLoops(const AccessPoint &A,
                                               const AccessPoint &B) {
  std::vector<LoopAxis> Out;
  size_t N = std::min(A.Loops.size(), B.Loops.size());
  for (size_t I = 0; I < N; ++I) {
    if (A.Loops[I].ForId != B.Loops[I].ForId)
      break;
    Out.push_back(A.Loops[I]);
  }
  return Out;
}

DepType DepAnalyzer::classify(const AccessPoint &E, const AccessPoint &L) {
  bool EWrites = E.Kind != AccessKind::Read;
  bool LWrites = L.Kind != AccessKind::Read;
  ftAssert(EWrites || LWrites, "classifying a read-read pair");
  if (EWrites && LWrites)
    return DepType::WAW;
  return EWrites ? DepType::RAW : DepType::WAR;
}

bool DepAnalyzer::sameOpReducePair(const AccessPoint &E,
                                   const AccessPoint &L) {
  return E.Kind == AccessKind::Reduce && L.Kind == AccessKind::Reduce &&
         E.RedOp == L.RedOp;
}

bool DepAnalyzer::orderingPossible(const AccessPoint &E, const AccessPoint &L,
                                   const RelMap &Rels) const {
  for (const LoopAxis &Loop : commonLoops(E, L)) {
    auto It = Rels.find(Loop.ForId);
    IterRel R = It == Rels.end() ? IterRel::Any : It->second;
    switch (R) {
    case IterRel::Eq:
      continue;
    case IterRel::Lt:
    case IterRel::Any:
      // The earlier access can run in a strictly earlier iteration of this
      // loop, so it precedes the later access regardless of inner structure.
      return true;
    case IterRel::Gt:
      return false;
    }
  }
  // All common loops at equal iterations: textual order decides, with reads
  // (phase 0) preceding the write (phase 1) inside one statement instance.
  if (E.Seq != L.Seq)
    return E.Seq < L.Seq;
  return E.Phase < L.Phase;
}

bool DepAnalyzer::addDomain(AffineSet &S, const AccessPoint &P,
                            const std::string &Prefix) const {
  IsParamFn IsParam = [this](const std::string &N) { return AC.isParam(N); };
  std::vector<std::string> Iters;
  Iters.reserve(P.Loops.size());
  for (const LoopAxis &L : P.Loops)
    Iters.push_back(L.Iter);

  for (const LoopAxis &L : P.Loops) {
    LinearExpr IterVar = LinearExpr::variable(Prefix + L.Iter);
    // Data-dependent (ragged) bounds become opaque symbols instead of
    // dropped constraints: `Begin = indptr[i]` contributes
    // `$rg:indptr[p.i] <= p.j` with the symbol >= 0 by the runtime
    // contract (analysis/ragged.h). buildPairSet later bridges symbols of
    // the same tensor with monotonicity facts, which is what lets segment
    // loops over distinct rows prove independent.
    if (auto B = toLinear(L.Begin, IsParam)) {
      S.addLE(renameIters(*B, Prefix, Iters), IterVar);
    } else if (auto Sym =
                   raggedSymForBound(AC, L.Begin, IsParam, Prefix, Iters)) {
      LinearExpr SymVar = LinearExpr::variable(Sym->Name);
      S.addLE(SymVar, IterVar);
      S.addLE(LinearExpr::constant(0), SymVar);
    } else {
      S.markInexact();
    }
    if (auto Ed = toLinear(L.End, IsParam)) {
      S.addLT(IterVar, renameIters(*Ed, Prefix, Iters));
    } else if (auto Sym =
                   raggedSymForBound(AC, L.End, IsParam, Prefix, Iters)) {
      LinearExpr SymVar = LinearExpr::variable(Sym->Name);
      S.addLT(IterVar, SymVar);
      S.addLE(LinearExpr::constant(0), SymVar);
    } else {
      S.markInexact();
    }
    // Extent parameters in the bounds are opaque runtime values, but the
    // request-side contract (analysis/extents.h) guarantees them >= 1;
    // recording that tightens the domain without assuming any value.
    for (const Expr &Bound : {L.Begin, L.End})
      for (const std::string &N : scalarLoadsOf(Bound))
        if (AC.isParam(N))
          S.addLE(LinearExpr::constant(1), LinearExpr::variable("$" + N));
  }
  for (const Expr &Cond : P.Conds) {
    AffineSet Tmp;
    addCondConstraints(Tmp, Cond, /*Negate=*/false, IsParam);
    if (!Tmp.isExact())
      S.markInexact();
    for (const LinConstraint &C : Tmp.constraints()) {
      LinConstraint RC{renameIters(C.E, Prefix, Iters), C.IsEq};
      if (RC.IsEq)
        S.addEq0(RC.E);
      else
        S.addGe0(RC.E);
    }
  }
  return true;
}

std::optional<size_t> DepAnalyzer::indexOf(const AccessPoint &P) const {
  if (AC.Points.empty())
    return std::nullopt;
  const AccessPoint *Base = AC.Points.data();
  if (&P < Base || &P >= Base + AC.Points.size())
    return std::nullopt;
  return static_cast<size_t>(&P - Base);
}

void DepAnalyzer::appendDomain(AffineSet &S, const AccessPoint &P,
                               bool Later) const {
  std::optional<size_t> Idx = indexOf(P);
  if (!Idx || accelerationBypassed()) {
    // Foreign point (or bypass mode): compute without caching. The cached
    // and direct paths produce the identical constraint sequence.
    addDomain(S, P, Later ? "q." : "p.");
    return;
  }
  auto &Cache = Later ? DomLater : DomEarlier;
  std::optional<AffineSet> &Slot = Cache[*Idx];
  static metrics::Counter &Hits = metrics::counter("deps/domain_cache_hits");
  static metrics::Counter &Misses =
      metrics::counter("deps/domain_cache_misses");
  if (!Slot) {
    Misses.fetch_add(1);
    AffineSet D;
    addDomain(D, P, Later ? "q." : "p.");
    Slot = std::move(D);
  } else {
    Hits.fetch_add(1);
  }
  S.addAll(*Slot);
}

AffineSet DepAnalyzer::buildPairSet(const AccessPoint &E,
                                    const AccessPoint &L,
                                    const RelMap &Rels) const {
  static metrics::Counter &Built = metrics::counter("deps/pair_sets_built");
  Built.fetch_add(1);
  IsParamFn IsParam = [this](const std::string &N) { return AC.isParam(N); };
  AffineSet S;
  appendDomain(S, E, /*Later=*/false);
  appendDomain(S, L, /*Later=*/true);

  std::vector<LoopAxis> Common = commonLoops(E, L);

  // Stack-scope filtering (paper Fig. 12(d)): iterations of loops enclosing
  // the tensor's VarDef each see a fresh instance, so dependences require
  // equal iterations there.
  int ScopeDepth = std::min(E.ScopeDepth, L.ScopeDepth);
  ftAssert(ScopeDepth <= static_cast<int>(Common.size()),
           "VarDef-enclosing loops must be common to both accesses");
  for (int I = 0; I < ScopeDepth; ++I)
    S.addEQ(LinearExpr::variable("p." + Common[I].Iter),
            LinearExpr::variable("q." + Common[I].Iter));

  // Caller-required relations on common loops.
  for (const LoopAxis &Loop : Common) {
    auto It = Rels.find(Loop.ForId);
    if (It == Rels.end())
      continue;
    LinearExpr P = LinearExpr::variable("p." + Loop.Iter);
    LinearExpr Q = LinearExpr::variable("q." + Loop.Iter);
    switch (It->second) {
    case IterRel::Any:
      break;
    case IterRel::Eq:
      S.addEQ(P, Q);
      break;
    case IterRel::Lt:
      S.addLT(P, Q);
      break;
    case IterRel::Gt:
      S.addLT(Q, P);
      break;
    }
  }

  // Same-location constraints: equate affine index dimensions. Non-affine
  // dimensions (indirect indexing) contribute no constraint, i.e. they may
  // alias anything.
  if (!E.WholeTensor && !L.WholeTensor) {
    std::vector<std::string> EIters, LIters;
    for (const LoopAxis &Lp : E.Loops)
      EIters.push_back(Lp.Iter);
    for (const LoopAxis &Lp : L.Loops)
      LIters.push_back(Lp.Iter);
    size_t Dims = std::min(E.Indices.size(), L.Indices.size());
    for (size_t D = 0; D < Dims; ++D) {
      auto IA = toLinear(E.Indices[D], IsParam);
      auto IB = toLinear(L.Indices[D], IsParam);
      if (!IA || !IB) {
        S.markInexact();
        continue;
      }
      S.addEQ(renameIters(*IA, "p.", EIters), renameIters(*IB, "q.", LIters));
    }
  } else {
    S.markInexact();
  }

  // Monotonicity bridging for ragged bounds (DESIGN.md §17): the runtime
  // contract makes index tensors non-decreasing, so whenever the set
  // already proves idxA <= idxB for two loads of the same index tensor,
  // `T[idxA] <= T[idxB]` is a fact. With the caller's `p.i < q.i` this
  // chains `p.j < indptr[p.i+1] <= indptr[q.i] <= q.j`, which contradicts
  // same-location constraints like `p.j == q.j` — distinct rows' segments
  // are disjoint. Facts are judged against the set before any are added
  // (one-round bridging): sound, and sufficient since the implications
  // come from iterator constraints, not from other bridged facts.
  std::vector<RaggedSym> Syms;
  auto CollectSyms = [&](const AccessPoint &P, const std::string &Prefix) {
    std::vector<std::string> Iters;
    for (const LoopAxis &Lp : P.Loops)
      Iters.push_back(Lp.Iter);
    for (const LoopAxis &Lp : P.Loops)
      for (const Expr &Bound : {Lp.Begin, Lp.End}) {
        if (toLinear(Bound, IsParam))
          continue;
        if (auto Sym = raggedSymForBound(AC, Bound, IsParam, Prefix, Iters))
          if (std::none_of(Syms.begin(), Syms.end(),
                           [&](const RaggedSym &O) {
                             return O.Name == Sym->Name;
                           }))
            Syms.push_back(std::move(*Sym));
      }
  };
  CollectSyms(E, "p.");
  CollectSyms(L, "q.");
  if (Syms.size() > 1) {
    std::vector<std::pair<const RaggedSym *, const RaggedSym *>> Facts;
    for (const RaggedSym &A : Syms)
      for (const RaggedSym &B : Syms) {
        if (&A == &B || A.Tensor != B.Tensor)
          continue;
        auto Diff = LinearExpr::trySub(B.Idx, A.Idx);
        if (Diff && S.implies(*Diff))
          Facts.emplace_back(&A, &B);
      }
    for (const auto &[A, B] : Facts)
      S.addLE(LinearExpr::variable(A->Name), LinearExpr::variable(B->Name));
  }
  return S;
}

bool DepAnalyzer::mayDepend(const AccessPoint &E, const AccessPoint &L,
                            const RelMap &Rels) const {
  static metrics::Counter &Queries = metrics::counter("deps/dep_queries");
  Queries.fetch_add(1);
  if (E.Var != L.Var)
    return false;
  if (E.Kind == AccessKind::Read && L.Kind == AccessKind::Read)
    return false;
  if (!orderingPossible(E, L, Rels))
    return false;
  return !buildPairSet(E, L, Rels).isEmpty();
}

namespace {

/// A found dependence plus the point indices of its endpoints, used to
/// emit results in the historical Points-major order regardless of the
/// per-tensor bucket iteration.
struct IndexedDep {
  size_t EIdx, LIdx;
  FoundDep D;
};

std::vector<FoundDep> sortedDeps(std::vector<IndexedDep> Found) {
  std::sort(Found.begin(), Found.end(),
            [](const IndexedDep &A, const IndexedDep &B) {
              return A.EIdx != B.EIdx ? A.EIdx < B.EIdx : A.LIdx < B.LIdx;
            });
  std::vector<FoundDep> Out;
  Out.reserve(Found.size());
  for (IndexedDep &I : Found)
    Out.push_back(I.D);
  return Out;
}

} // namespace

std::vector<FoundDep> DepAnalyzer::carriedBy(int64_t LoopId) const {
  std::vector<IndexedDep> Found;
  std::vector<size_t> In; // Bucket members inside the carrier loop.
  for (const auto &[Var, Bucket] : AC.ByVar) {
    In.clear();
    bool AnyWrite = false;
    for (size_t I : Bucket) {
      const AccessPoint &P = AC.Points[I];
      if (!P.isInsideLoop(LoopId))
        continue;
      In.push_back(I);
      AnyWrite |= P.Kind != AccessKind::Read;
    }
    // Hoisted filters: a pair needs a common tensor (the bucket), both
    // endpoints inside the carrier, and at least one writer.
    if (In.empty() || !AnyWrite)
      continue;
    for (size_t EI : In) {
      const AccessPoint &E = AC.Points[EI];
      // Position of the carrier in the (shared) loop stack, and the
      // relation pattern: equal iterations outside, strictly ordered at
      // the carrier.
      RelMap Rels;
      int CarrierPos = 0;
      for (const LoopAxis &Loop : E.Loops) {
        if (Loop.ForId == LoopId) {
          Rels[Loop.ForId] = IterRel::Lt;
          break;
        }
        Rels[Loop.ForId] = IterRel::Eq;
        ++CarrierPos;
      }
      for (size_t LI : In) {
        const AccessPoint &L = AC.Points[LI];
        if (E.Kind == AccessKind::Read && L.Kind == AccessKind::Read)
          continue;
        // Stack-scope early reject: when the tensor's VarDef sits inside
        // the carrier loop for both endpoints, every carrier iteration
        // sees a fresh instance, so p(carrier) < q(carrier) contradicts
        // the scope equality — provably no dependence (the pair set the
        // full query would build is empty for the same reason).
        if (std::min(E.ScopeDepth, L.ScopeDepth) > CarrierPos)
          continue;
        if (!mayDepend(E, L, Rels))
          continue;
        Found.push_back(
            {EI, LI, {&E, &L, classify(E, L), sameOpReducePair(E, L)}});
      }
    }
  }
  return sortedDeps(std::move(Found));
}

std::vector<FoundDep> DepAnalyzer::betweenAtEqualIters(int64_t AId,
                                                       int64_t BId) const {
  std::vector<IndexedDep> Found;
  std::vector<size_t> InA, InB;
  for (const auto &[Var, Bucket] : AC.ByVar) {
    InA.clear();
    InB.clear();
    bool AnyWrite = false;
    for (size_t I : Bucket) {
      const AccessPoint &P = AC.Points[I];
      bool A = P.isInside(AId), B = P.isInside(BId);
      if (!A && !B)
        continue;
      if (A)
        InA.push_back(I);
      if (B)
        InB.push_back(I);
      AnyWrite |= P.Kind != AccessKind::Read;
    }
    if (InA.empty() || InB.empty() || !AnyWrite)
      continue;
    for (size_t EI : InA) {
      const AccessPoint &E = AC.Points[EI];
      for (size_t LI : InB) {
        const AccessPoint &L = AC.Points[LI];
        // A point paired with itself at equal iterations is the same
        // access instance: no ordering, no dependence.
        if (EI == LI)
          continue;
        if (E.Kind == AccessKind::Read && L.Kind == AccessKind::Read)
          continue;
        RelMap Rels;
        for (const LoopAxis &Loop : commonLoops(E, L))
          Rels[Loop.ForId] = IterRel::Eq;
        if (!mayDepend(E, L, Rels))
          continue;
        Found.push_back(
            {EI, LI, {&E, &L, classify(E, L), sameOpReducePair(E, L)}});
      }
    }
  }
  return sortedDeps(std::move(Found));
}
