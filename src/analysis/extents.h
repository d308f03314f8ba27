//===- analysis/extents.h - Symbolic extent parameters -----------*- C++ -*-===//
///
/// \file
/// Symbolic-extent discovery and runtime binding checks (DESIGN.md §16).
///
/// A function is *shape-generic* when some tensor extents are not integer
/// literals but loads of 0-D integer Input parameters ("extent parameters",
/// the frontend's `scalarInput`). One compiled kernel then serves every
/// shape: the extents travel with the request as ordinary scalar arguments,
/// loop bounds and buffer strides are computed from them at run time, and
/// the whole-program fingerprint — which never sees a literal extent —
/// stays the same across shapes.
///
/// This header centralizes the request-side contract both execution tiers
/// enforce (validateArgs for the interpreter, Kernel::run for the JIT, the
/// serving executor per request): ArgContract. Every parameter is bound
/// with its declared dtype and rank, constant extents match exactly, every
/// extent parameter is bound to a value >= 1, every tensor dimension whose
/// symbolic shape folds to a constant under those bindings matches the
/// bound buffer, and index tensors keep the ragged contract
/// (analysis/ragged.h).
///
//===----------------------------------------------------------------------===//

#ifndef FT_ANALYSIS_EXTENTS_H
#define FT_ANALYSIS_EXTENTS_H

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/ragged.h"
#include "interp/buffer.h"
#include "ir/func.h"
#include "support/error.h"

namespace ft {

/// The extent-parameter signature of a function: the 0-D integer Input
/// parameters whose values appear in some tensor shape, loop bound, or
/// gemm extent. Sorted by name; empty for fully static programs.
struct ExtentSpec {
  std::vector<std::string> Params;

  bool empty() const { return Params.empty(); }
  bool contains(const std::string &Name) const;
};

/// Discovers the extent parameters of \p F (one full body walk; serving
/// code paths compute this once per fingerprint and reuse it per request).
ExtentSpec extentParamsOf(const Func &F);

/// Names loaded with an empty index list (0-D scalar reads) anywhere in
/// \p E — the only form an extent parameter can take inside a shape
/// expression. Sorted, deduplicated.
std::vector<std::string> scalarLoadsOf(const Expr &E);

/// Folds a shape/bound expression to a constant under \p Bindings
/// (extent-parameter name -> value). Handles integer constants, 0-D loads
/// of bound names, integer arithmetic (+ - * floordiv mod min max), unary
/// negation, and integer casts. Returns nullopt when the expression
/// references an unbound name or a non-foldable node.
std::optional<int64_t>
evalExtentExpr(const Expr &E, const std::map<std::string, int64_t> &Bindings);

/// Reads the extent values of \p Spec out of \p Args into \p Out. Error
/// when an extent parameter is unbound, non-scalar, or non-integer.
/// Positivity is checked by ArgContract::check, not here.
Status bindExtentArgs(const ExtentSpec &Spec,
                      const std::map<std::string, Buffer *> &Args,
                      std::map<std::string, int64_t> &Out);

/// The request-side contract of a function (see the file comment), built
/// once per function so that checking a request walks no IR.
struct ArgContract {
  struct Param {
    std::string Name;
    Ref<VarDefNode> Def; ///< Null when the body declares no such VarDef.
  };
  std::vector<Param> Params; ///< In ABI order (Func::Params).
  ExtentSpec Extents;
  RaggedInfo Ragged;

  /// Checks \p Args against the contract and returns the first violation
  /// as a typed error: extent arguments first, then each parameter in ABI
  /// order, then index tensors. On success, \p Data (when non-null) holds
  /// each bound buffer's data pointer in ABI order.
  Status check(const std::map<std::string, Buffer *> &Args,
               std::vector<void *> *Data = nullptr) const;
};

/// Builds the contract of \p F: the VarDef of every parameter, the extent
/// parameters and the ragged structure (a few body walks).
ArgContract argContractOf(const Func &F);

} // namespace ft

#endif // FT_ANALYSIS_EXTENTS_H
