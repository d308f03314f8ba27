//===- autodiff/grad.h - Fine-grained reverse-mode AD ------------*- C++ -*-===//
///
/// \file
/// Source-to-source reverse-mode automatic differentiation as an AST
/// transformation (paper §5): the result is ordinary IR that enjoys the
/// same schedules and codegen as the original program.
///
/// Intermediate tensors needed by the backward pass are either
/// *materialized* — stored into a tape tensor whose leading dimensions are
/// the loops enclosing the tensor's VarDef, i.e. a compile-time symbolic
/// version number (§5.1) — or *recomputed* inline in the backward pass
/// (§5.2, Fig. 15(c)). The TapeStrategy selects between materialize-all
/// (the FT(−) configuration of Fig. 18) and the selective policy (FT(+)),
/// which prices both choices per value from loop trip counts and the
/// tape's footprint (DESIGN.md §5).
///
/// Supported program class (checked, not assumed — violations produce a
/// diagnostic): within one instantiation of a tensor's VarDef each element
/// is produced by at most one Store statement, optionally followed by
/// Add-ReduceTo accumulations, and is never read before it is written.
/// Min/Max reductions participate only as stop-gradient values (NoGrad),
/// the idiom used for softmax stabilization.
///
//===----------------------------------------------------------------------===//

#ifndef FT_AUTODIFF_GRAD_H
#define FT_AUTODIFF_GRAD_H

#include <map>
#include <vector>

#include "ir/func.h"
#include "support/error.h"

namespace ft {

/// Intermediate-tensor policy for the backward pass.
enum class TapeStrategy {
  All,       ///< Materialize every needed intermediate (FT(−) in Fig. 18).
  Selective, ///< Recompute where that costs less than a tape (FT(+)).
};

/// One Selective tape-or-recompute decision. Costs are in units of one
/// arithmetic op or one cached load; trip counts come from constant loop
/// extents, with 64 standing in for a symbolic one.
struct RecomputeDecision {
  std::string Tensor;
  bool Recomputed = false;
  /// Backward evaluations of the value times the ops and loads of one
  /// evaluation (recomputed operands inlined).
  double RecomputeCost = 0;
  /// Tape elements times one forward store plus one backward load,
  /// weighted by the tape's footprint class, plus one tape load per
  /// backward evaluation.
  double MaterializeCost = 0;
  uint64_t TapeBytes = 0; ///< What the tape takes, or would take.
  int64_t StoreId = -1;   ///< The Store that defines the value.
};

/// The differentiated program pair.
struct GradResult {
  /// The forward pass: the original Func plus one appended Output
  /// parameter per materialized intermediate (its tape).
  Func Forward;

  /// The backward pass: parameters are the original parameters, the tapes,
  /// one gradient seed "y.grad" per original Output (Input), and one
  /// gradient result "x.grad" per requested input (Output, zero-filled by
  /// the pass itself).
  Func Backward;

  /// Names of the tape tensors (parameters of both passes).
  std::vector<std::string> Tapes;

  /// Tape name -> its storage footprint in bytes (shape product x element
  /// size after constant folding; 0 when an extent is not compile-time
  /// constant). This is the memory half of the Fig. 18 materialize vs
  /// recompute ablation: FT(-) tapes everything, FT(+) trades recompute
  /// time against these bytes.
  std::map<std::string, uint64_t> TapeBytes;

  /// Sum of TapeBytes over every tape.
  uint64_t totalTapeBytes() const {
    uint64_t Sum = 0;
    for (const auto &[Name, Bytes] : TapeBytes)
      Sum += Bytes;
    return Sum;
  }

  /// Requested input -> its gradient parameter name.
  std::map<std::string, std::string> GradNames;

  /// Original output -> its gradient-seed parameter name.
  std::map<std::string, std::string> SeedNames;

  /// Every value Selective priced, in the program order of their stores;
  /// empty under All. Each is also written to the audit log as a
  /// "grad/recompute" decision.
  std::vector<RecomputeDecision> Decisions;

  /// Subexpressions the partial derivatives of one forward statement
  /// share, bound to scalar locals of the backward pass, summed over the
  /// statements.
  size_t SharedValues = 0;
};

/// Differentiates \p F with respect to the Input parameters listed in
/// \p Wrt. All Output parameters are treated as the function results.
Result<GradResult> grad(const Func &F, const std::vector<std::string> &Wrt,
                        TapeStrategy Strategy = TapeStrategy::Selective);

} // namespace ft

#endif // FT_AUTODIFF_GRAD_H
