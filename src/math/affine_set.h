//===- math/affine_set.h - Conjunctions of affine constraints ----*- C++ -*-===//
///
/// \file
/// A Presburger-lite engine: an AffineSet is a conjunction of affine
/// equalities and inequalities over named integer variables. The one
/// decision procedure everything else reduces to is emptiness, implemented
/// with Fourier–Motzkin elimination plus integer GCD tests.
///
/// Emptiness is layered for speed (the dependence analysis issues the same
/// systems over and over across schedule primitives):
///   1. canonicalization — GCD-normalize each constraint, orient equalities,
///      drop tautologies, sort and deduplicate; a single-constraint
///      contradiction decides the query outright;
///   2. an interval/GCD pre-filter — propagate single-variable bounds to
///      reject obviously-empty systems, and test a candidate point to
///      accept obviously-feasible ones with an integer witness;
///   3. a process-wide memo cache keyed by the canonical constraint text —
///      repeated queries (the common case under schedule search) return
///      without touching Fourier–Motzkin.
/// All three layers are exact: they never change the answer, only how fast
/// it is produced. setAccelerationBypass(true) disables them for
/// differential testing.
///
/// Soundness contract: isEmpty() == true is a proof that no integer point
/// satisfies the constraints; isEmpty() == false means "could not prove
/// empty" (the set may be rationally non-empty yet integrally empty, or an
/// internal overflow occurred). All clients use emptiness only in the safe
/// direction: dependence analysis keeps a dependence unless the dependence
/// set is *proved* empty, and the simplifier keeps a branch unless its
/// negation is *proved* empty. This mirrors how the paper uses isl (§4.2).
///
//===----------------------------------------------------------------------===//

#ifndef FT_MATH_AFFINE_SET_H
#define FT_MATH_AFFINE_SET_H

#include <string>
#include <vector>

#include "math/linear.h"

namespace ft {

/// One affine constraint: E == 0 (IsEq) or E >= 0.
struct LinConstraint {
  LinearExpr E;
  bool IsEq = false;

  std::string toString() const {
    return E.toString() + (IsEq ? " == 0" : " >= 0");
  }
};

/// A conjunction of affine constraints over integer variables.
class AffineSet {
public:
  /// Adds E >= 0.
  void addGe0(const LinearExpr &E);

  /// Adds E == 0.
  void addEq0(const LinearExpr &E);

  /// Adds A <= B, A < B, A == B as convenience wrappers.
  void addLE(const LinearExpr &A, const LinearExpr &B);
  void addLT(const LinearExpr &A, const LinearExpr &B);
  void addEQ(const LinearExpr &A, const LinearExpr &B);

  /// Adds all constraints of \p Other.
  void addAll(const AffineSet &Other);

  /// Marks the set as inexact (e.g. a non-affine condition was dropped).
  /// An inexact set can still prove emptiness of what remains; callers that
  /// need exactness check isExact().
  void markInexact() { Exact = false; }
  bool isExact() const { return Exact; }

  const std::vector<LinConstraint> &constraints() const { return Cs; }

  /// Attempts to prove the set has no integer points. Sound, incomplete.
  /// Answers through the canonicalization / pre-filter / memo layers
  /// unless accelerationBypassed().
  bool isEmpty() const;

  /// Returns true if every point of this set provably satisfies E >= 0
  /// (i.e. this ∧ (E <= -1) is empty).
  bool implies(const LinearExpr &GeZero) const;

  /// Renders all constraints for diagnostics.
  std::string toString() const;

private:
  std::vector<LinConstraint> Cs;
  bool Exact = true;
};

/// Global switch disabling every acceleration layer (memoized emptiness,
/// canonicalization, pre-filter, and the analyzer and domain caches of the
/// dependence analysis). With the bypass on, emptiness runs the raw
/// Fourier–Motzkin path and Schedule rebuilds a DepAnalyzer per primitive,
/// reproducing the pre-acceleration behaviour bit for bit: the reference
/// path of the differential tests and the before/after benchmarks.
void setAccelerationBypass(bool Bypass);
bool accelerationBypassed();

/// RAII helper: bypasses acceleration for one scope.
struct BypassGuard {
  explicit BypassGuard(bool Bypass = true) : Saved(accelerationBypassed()) {
    setAccelerationBypass(Bypass);
  }
  ~BypassGuard() { setAccelerationBypass(Saved); }
  BypassGuard(const BypassGuard &) = delete;
  BypassGuard &operator=(const BypassGuard &) = delete;

private:
  bool Saved;
};

/// Clears the process-wide emptiness memo cache (benchmarks measure
/// cold-cache behaviour with it).
void clearEmptinessCache();

} // namespace ft

#endif // FT_MATH_AFFINE_SET_H
