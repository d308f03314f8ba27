//===- math/affine_set.cpp ------------------------------------------------===//

#include "math/affine_set.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <unordered_map>

#include "support/error.h"
#include "support/metrics.h"

using namespace ft;

void AffineSet::addGe0(const LinearExpr &E) { Cs.push_back({E, false}); }

void AffineSet::addEq0(const LinearExpr &E) { Cs.push_back({E, true}); }

void AffineSet::addLE(const LinearExpr &A, const LinearExpr &B) {
  auto D = LinearExpr::trySub(B, A);
  if (!D) {
    markInexact();
    return;
  }
  addGe0(*D);
}

void AffineSet::addLT(const LinearExpr &A, const LinearExpr &B) {
  auto D = LinearExpr::trySub(B, A);
  if (!D) {
    markInexact();
    return;
  }
  D->addConst(-1);
  addGe0(*D);
}

void AffineSet::addEQ(const LinearExpr &A, const LinearExpr &B) {
  auto D = LinearExpr::trySub(B, A);
  if (!D) {
    markInexact();
    return;
  }
  addEq0(*D);
}

void AffineSet::addAll(const AffineSet &Other) {
  Cs.insert(Cs.end(), Other.Cs.begin(), Other.Cs.end());
  if (!Other.Exact)
    Exact = false;
}

namespace {

/// Caps on the Fourier–Motzkin working set: exceeding them makes the check
/// give up (returning "cannot prove empty", the safe answer).
constexpr size_t MaxConstraints = 4000;
constexpr int MaxVars = 64;

enum class SolveResult { Empty, NonEmpty, Unknown };

/// Normalizes one constraint in place.
///   - Equalities: divide by the coefficient GCD; if it does not divide the
///     constant, the constraint (and the whole set) is integrally
///     infeasible (the classic GCD test).
///   - Inequalities sum a_i x_i + c >= 0 with g = gcd(a_i): tighten to
///     sum (a_i/g) x_i + floor(c/g) >= 0, which is exact over integers.
/// Returns false if the constraint alone is infeasible.
bool normalizeConstraint(LinConstraint &C) {
  int64_t G = C.E.coeffGcd();
  if (G == 0) {
    // Constant constraint; leave it to the constant check.
    return true;
  }
  if (C.IsEq) {
    if (mod64(C.E.constTerm(), G) != 0)
      return false; // GCD test: no integer solution.
    if (G > 1) {
      LinearExpr E;
      for (const auto &[Name, Coef] : C.E.coeffs())
        E.setCoeff(Name, Coef / G);
      E.addConst(C.E.constTerm() / G);
      C.E = E;
    }
    return true;
  }
  if (G > 1) {
    LinearExpr E;
    for (const auto &[Name, Coef] : C.E.coeffs())
      E.setCoeff(Name, Coef / G);
    E.addConst(floorDiv64(C.E.constTerm(), G));
    C.E = E;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Layer 1: canonical form
//===----------------------------------------------------------------------===//

/// The canonical form of a constraint system: every constraint
/// GCD-normalized, equalities sign-oriented (first variable coefficient
/// positive), tautologies dropped, the rest sorted and deduplicated by
/// their rendered text. Decided is set when canonicalization alone settles
/// emptiness (a single-constraint contradiction, or no constraints left).
struct CanonicalSystem {
  std::vector<LinConstraint> Cs;
  std::vector<std::string> Texts; ///< Rendered form of each constraint.
  std::optional<bool> DecidedEmpty;
  std::string Key; ///< Memo key: all Texts joined.
};

CanonicalSystem canonicalize(const std::vector<LinConstraint> &In) {
  CanonicalSystem Out;
  std::vector<std::pair<std::string, LinConstraint>> Keyed;
  Keyed.reserve(In.size());
  for (const LinConstraint &C0 : In) {
    LinConstraint C = C0;
    if (!normalizeConstraint(C)) {
      Out.DecidedEmpty = true;
      return Out;
    }
    if (C.E.isConstant()) {
      int64_t V = C.E.constTerm();
      if (C.IsEq ? (V != 0) : (V < 0)) {
        Out.DecidedEmpty = true;
        return Out;
      }
      continue; // Tautology.
    }
    if (C.IsEq) {
      // Orient so the first (lexicographically smallest) variable has a
      // positive coefficient: E == 0 and -E == 0 are the same constraint.
      if (C.E.coeffs().begin()->second < 0) {
        auto Neg = LinearExpr::tryScale(C.E, -1);
        if (Neg) // Overflow cannot occur for coefficients > INT64_MIN.
          C.E = *Neg;
      }
    }
    Keyed.push_back({C.toString(), std::move(C)});
  }
  if (Keyed.empty()) {
    Out.DecidedEmpty = false; // No constraints: trivially satisfiable.
    return Out;
  }
  std::sort(Keyed.begin(), Keyed.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  Keyed.erase(std::unique(Keyed.begin(), Keyed.end(),
                          [](const auto &A, const auto &B) {
                            return A.first == B.first;
                          }),
              Keyed.end());
  Out.Cs.reserve(Keyed.size());
  Out.Texts.reserve(Keyed.size());
  size_t KeyLen = 0;
  for (auto &[Text, C] : Keyed)
    KeyLen += Text.size() + 1;
  Out.Key.reserve(KeyLen);
  for (auto &[Text, C] : Keyed) {
    Out.Key += Text;
    Out.Key += ';';
    Out.Texts.push_back(std::move(Text));
    Out.Cs.push_back(std::move(C));
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Layer 2: interval/GCD pre-filter
//===----------------------------------------------------------------------===//

/// Cheap decision attempts before Fourier–Motzkin:
///   - derive per-variable integer intervals from single-variable
///     constraints; an empty interval proves the system empty;
///   - evaluate the system at candidate points assembled from those
///     intervals; a satisfying point is an integer witness of
///     non-emptiness.
/// Expects canonicalized constraints (single-variable constraints then have
/// coefficient ±1). Returns Unknown when neither test fires.
SolveResult prefilter(const std::vector<LinConstraint> &Cs) {
  struct Interval {
    std::optional<int64_t> Lo, Hi;
  };
  std::map<std::string, Interval> Bounds;
  for (const LinConstraint &C : Cs) {
    if (C.E.coeffs().size() != 1)
      continue;
    const auto &[Name, A] = *C.E.coeffs().begin();
    int64_t K = C.E.constTerm();
    Interval &B = Bounds[Name];
    // Canonicalized single-variable constraints have |A| == 1.
    if (C.IsEq) {
      // A*x + K == 0  =>  x == -K/A == -A*K for A in {+1, -1}.
      auto V = checkedMul(-A, K);
      if (!V)
        continue;
      if (!B.Lo || *B.Lo < *V)
        B.Lo = *V;
      if (!B.Hi || *B.Hi > *V)
        B.Hi = *V;
    } else if (A > 0) {
      // x + K >= 0  =>  x >= -K.
      auto V = checkedMul(-1, K);
      if (V && (!B.Lo || *B.Lo < *V))
        B.Lo = *V;
    } else {
      // -x + K >= 0  =>  x <= K.
      if (!B.Hi || *B.Hi > K)
        B.Hi = K;
    }
  }
  for (const auto &[Name, B] : Bounds)
    if (B.Lo && B.Hi && *B.Lo > *B.Hi)
      return SolveResult::Empty;

  // Witness test: clamp a candidate value per variable into its interval
  // and evaluate every constraint with checked arithmetic. Two candidates
  // (low-biased and high-biased) catch most obviously-feasible systems.
  auto Evaluate = [&](bool PreferLow) -> bool {
    std::map<std::string, int64_t> Val;
    auto ValueOf = [&](const std::string &Name) {
      auto It = Val.find(Name);
      if (It != Val.end())
        return It->second;
      int64_t V = 0;
      auto BIt = Bounds.find(Name);
      if (BIt != Bounds.end()) {
        const Interval &B = BIt->second;
        if (PreferLow)
          V = B.Lo ? *B.Lo : (B.Hi ? std::min<int64_t>(*B.Hi, 0) : 0);
        else
          V = B.Hi ? *B.Hi : (B.Lo ? std::max<int64_t>(*B.Lo, 0) : 0);
      }
      Val[Name] = V;
      return V;
    };
    for (const LinConstraint &C : Cs) {
      int64_t Sum = C.E.constTerm();
      for (const auto &[Name, Coef] : C.E.coeffs()) {
        auto T = checkedMul(Coef, ValueOf(Name));
        if (!T)
          return false;
        auto S = checkedAdd(Sum, *T);
        if (!S)
          return false;
        Sum = *S;
      }
      if (C.IsEq ? (Sum != 0) : (Sum < 0))
        return false;
    }
    return true;
  };
  if (Evaluate(/*PreferLow=*/true) || Evaluate(/*PreferLow=*/false))
    return SolveResult::NonEmpty;
  return SolveResult::Unknown;
}

//===----------------------------------------------------------------------===//
// Layer 3: process-wide memoized emptiness
//===----------------------------------------------------------------------===//

/// The memo cache maps a canonical constraint text to its emptiness
/// answer. The answer is a pure function of the canonical text (variable
/// names only tie constraints together within one system), so sharing the
/// cache across programs and threads is sound.
struct EmptinessMemo {
  std::mutex M;
  std::unordered_map<std::string, bool> Map;
};

EmptinessMemo &memo() {
  static EmptinessMemo M;
  return M;
}

/// Backstop against unbounded growth in very long-running processes; at
/// the cap the cache stops admitting new keys (hits keep working).
constexpr size_t MaxMemoEntries = 1 << 20;

/// One elimination step plus bookkeeping. Works on a private copy of the
/// constraints.
class EmptinessChecker {
public:
  explicit EmptinessChecker(std::vector<LinConstraint> Cs)
      : Work(std::move(Cs)) {}

  SolveResult run() {
    for (int Round = 0; Round < MaxVars; ++Round) {
      SolveResult R = simplifyAndCheckConstants();
      if (R != SolveResult::Unknown)
        return R;
      if (Work.empty())
        return SolveResult::NonEmpty;

      // Gather variables still present.
      std::set<std::string> Vars;
      for (const LinConstraint &C : Work)
        for (const auto &[Name, Coef] : C.E.coeffs())
          Vars.insert(Name);
      if (Vars.empty())
        return SolveResult::NonEmpty;

      // Prefer exact substitution through a unit-coefficient equality.
      bool Substituted = false;
      for (size_t I = 0; I < Work.size() && !Substituted; ++I) {
        if (!Work[I].IsEq)
          continue;
        for (const auto &[Name, Coef] : Work[I].E.coeffs()) {
          if (Coef != 1 && Coef != -1)
            continue;
          if (!substitute(I, Name, Coef))
            return SolveResult::Unknown; // Overflow.
          Substituted = true;
          break;
        }
      }
      if (Substituted)
        continue;

      // Expand remaining equalities into inequality pairs, then FM.
      // Index-based: push_back may reallocate Work, so re-index on every
      // access instead of holding a reference across the append.
      bool Expanded = false;
      size_t NumOrig = Work.size();
      for (size_t I = 0; I < NumOrig; ++I) {
        if (!Work[I].IsEq)
          continue;
        auto Neg = LinearExpr::tryScale(Work[I].E, -1);
        if (!Neg)
          return SolveResult::Unknown;
        Work[I].IsEq = false;
        Work.push_back({*Neg, false});
        Expanded = true;
      }
      if (Expanded)
        continue;

      // Pick the variable minimizing the pos*neg product.
      std::string Best;
      size_t BestCost = SIZE_MAX;
      for (const std::string &V : Vars) {
        size_t NumPos = 0, NumNeg = 0;
        for (const LinConstraint &C : Work) {
          int64_t Coef = C.E.coeffOf(V);
          if (Coef > 0)
            ++NumPos;
          else if (Coef < 0)
            ++NumNeg;
        }
        size_t Cost = NumPos * NumNeg;
        if (Cost < BestCost) {
          BestCost = Cost;
          Best = V;
        }
      }
      if (!fourierMotzkin(Best))
        return SolveResult::Unknown;
      if (Work.size() > MaxConstraints)
        return SolveResult::Unknown;
    }
    return SolveResult::Unknown;
  }

private:
  /// Normalizes all constraints, drops tautologies, and checks constant
  /// constraints. Returns Empty on contradiction, NonEmpty never (caller
  /// decides), Unknown to continue.
  SolveResult simplifyAndCheckConstants() {
    std::vector<LinConstraint> Kept;
    std::set<std::string> Seen;
    for (LinConstraint &C : Work) {
      if (!normalizeConstraint(C))
        return SolveResult::Empty;
      if (C.E.isConstant()) {
        int64_t V = C.E.constTerm();
        if (C.IsEq ? (V != 0) : (V < 0))
          return SolveResult::Empty;
        continue; // Tautology.
      }
      std::string Key = C.toString();
      if (Seen.insert(Key).second)
        Kept.push_back(std::move(C));
    }
    Work = std::move(Kept);
    return SolveResult::Unknown;
  }

  /// Substitutes variable \p Name using the equality Work[EqIdx] where it
  /// has coefficient \p Coef in {+1, -1}. Returns false on overflow.
  bool substitute(size_t EqIdx, const std::string &Name, int64_t Coef) {
    // Coef * Name + Rest == 0  =>  Name = -Rest / Coef = -Coef * Rest
    // (since Coef is +-1).
    LinearExpr Rest = Work[EqIdx].E;
    Rest.setCoeff(Name, 0);
    auto Repl = LinearExpr::tryScale(Rest, -Coef);
    if (!Repl)
      return false;
    std::vector<LinConstraint> Next;
    Next.reserve(Work.size() - 1);
    for (size_t I = 0; I < Work.size(); ++I) {
      if (I == EqIdx)
        continue;
      auto E2 = Work[I].E.substitute(Name, *Repl);
      if (!E2)
        return false;
      Next.push_back({*E2, Work[I].IsEq});
    }
    Work = std::move(Next);
    return true;
  }

  /// Eliminates \p Name from all (inequality) constraints. Returns false on
  /// overflow.
  bool fourierMotzkin(const std::string &Name) {
    static metrics::Counter &Eliminations =
        metrics::counter("deps/fm_eliminations");
    Eliminations.fetch_add(1);
    std::vector<LinConstraint> Lower, Upper, Rest;
    for (LinConstraint &C : Work) {
      ftAssert(!C.IsEq, "equality left before FM elimination");
      int64_t Coef = C.E.coeffOf(Name);
      if (Coef > 0)
        Lower.push_back(std::move(C)); // a*x + p >= 0: lower bound on x.
      else if (Coef < 0)
        Upper.push_back(std::move(C)); // -b*x + n >= 0: upper bound on x.
      else
        Rest.push_back(std::move(C));
    }
    for (const LinConstraint &L : Lower) {
      int64_t A = L.E.coeffOf(Name);
      LinearExpr P = L.E;
      P.setCoeff(Name, 0);
      for (const LinConstraint &U : Upper) {
        int64_t B = -U.E.coeffOf(Name);
        LinearExpr N = U.E;
        N.setCoeff(Name, 0);
        // From a*x >= -p and b*x <= n: b*p + a*n >= 0.
        auto BP = LinearExpr::tryScale(P, B);
        auto AN = LinearExpr::tryScale(N, A);
        if (!BP || !AN)
          return false;
        auto Sum = LinearExpr::tryAdd(*BP, *AN);
        if (!Sum)
          return false;
        Rest.push_back({*Sum, false});
      }
    }
    Work = std::move(Rest);
    return true;
  }

  std::vector<LinConstraint> Work;
};

} // namespace

namespace {
std::atomic<bool> Bypass{false};
} // namespace

void ft::setAccelerationBypass(bool B) {
  Bypass.store(B, std::memory_order_relaxed);
}

bool ft::accelerationBypassed() {
  return Bypass.load(std::memory_order_relaxed);
}

void ft::clearEmptinessCache() {
  EmptinessMemo &M = memo();
  std::lock_guard<std::mutex> Lock(M.M);
  M.Map.clear();
}

bool AffineSet::isEmpty() const {
  static metrics::Counter &Queries =
      metrics::counter("deps/emptiness_queries");
  static metrics::Counter &CanonicalDecided =
      metrics::counter("deps/canonical_decided");
  static metrics::Counter &PrefilterEmpty =
      metrics::counter("deps/prefilter_empty");
  static metrics::Counter &PrefilterFeasible =
      metrics::counter("deps/prefilter_feasible");
  static metrics::Counter &CacheHits =
      metrics::counter("deps/emptiness_cache_hits");
  static metrics::Counter &CacheMisses =
      metrics::counter("deps/emptiness_cache_misses");
  Queries.fetch_add(1);

  if (accelerationBypassed())
    return EmptinessChecker(Cs).run() == SolveResult::Empty;

  CanonicalSystem Canon = canonicalize(Cs);
  if (Canon.DecidedEmpty) {
    CanonicalDecided.fetch_add(1);
    return *Canon.DecidedEmpty;
  }

  switch (prefilter(Canon.Cs)) {
  case SolveResult::Empty:
    PrefilterEmpty.fetch_add(1);
    return true;
  case SolveResult::NonEmpty:
    PrefilterFeasible.fetch_add(1);
    return false;
  case SolveResult::Unknown:
    break;
  }

  EmptinessMemo &M = memo();
  {
    std::lock_guard<std::mutex> Lock(M.M);
    auto It = M.Map.find(Canon.Key);
    if (It != M.Map.end()) {
      CacheHits.fetch_add(1);
      return It->second;
    }
  }
  CacheMisses.fetch_add(1);

  bool Empty = EmptinessChecker(Canon.Cs).run() == SolveResult::Empty;
  {
    std::lock_guard<std::mutex> Lock(M.M);
    if (M.Map.size() < MaxMemoEntries)
      M.Map.emplace(std::move(Canon.Key), Empty);
  }
  return Empty;
}

bool AffineSet::implies(const LinearExpr &GeZero) const {
  AffineSet Neg = *this;
  // ¬(E >= 0) over integers is E <= -1, i.e. -E - 1 >= 0.
  auto NegE = LinearExpr::tryScale(GeZero, -1);
  if (!NegE)
    return false;
  NegE->addConst(-1);
  Neg.addGe0(*NegE);
  return Neg.isEmpty();
}

std::string AffineSet::toString() const {
  std::string Out = "{";
  for (size_t I = 0; I < Cs.size(); ++I) {
    if (I > 0)
      Out += " and ";
    Out += Cs[I].toString();
  }
  return Out + "}";
}
