//===- analysis/ragged.h - Ragged (data-dependent) iteration ----*- C++ -*-===//
///
/// \file
/// The ragged iteration model (DESIGN.md §17): a *segment loop* is a For
/// whose begin/end are loads from a 1-D integer Input tensor (the *index
/// tensor*, CSR's `indptr`):
///
///     for j in indptr[i] .. indptr[i+1]:   # row i's segment
///
/// The loop's trip count is data, not shape, so nothing about it is known
/// at compile time — except the runtime contract this header centralizes,
/// mirroring the extent contract of analysis/extents.h:
///
///   (1) every index-tensor value is >= 0,
///   (2) values are monotonically non-decreasing, and
///   (3) values never exceed the leading extent of any tensor the segment
///       iterator addresses directly (`val[j]`, `indices[j]`).
///
/// Both execution tiers enforce the contract per request (`checkIndptrArgs`
/// from ArgContract::check, which validateArgs and Kernel::run share),
/// which is what entitles dependence analysis to assume
/// `indptr[i] <= indptr[i+1]` when proving row segments independent
/// (analysis/deps.cpp).
///
/// analyzeRagged() also discovers which tensor dimensions and which extent
/// parameters are *ragged-sized* (nnz-like): dimensions addressed directly
/// by a segment iterator, and the extent parameters appearing in their
/// symbolic shapes. The serving plane buckets those by powers of two in
/// shape keys, so sparse traffic with churning nnz still aggregates into
/// stable telemetry rows and specialization buckets (serve/shape_key.h).
///
//===----------------------------------------------------------------------===//

#ifndef FT_ANALYSIS_RAGGED_H
#define FT_ANALYSIS_RAGGED_H

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "interp/buffer.h"
#include "ir/func.h"
#include "support/error.h"

namespace ft {

/// A data-dependent loop bound: the load `Tensor[Index]` of a 1-D index
/// tensor. Matched purely syntactically; whether Tensor actually is a
/// valid index tensor is the analyzer's business.
struct RaggedBound {
  std::string Tensor;
  Expr Index;
};

/// Matches the ragged-bound idiom on a loop bound expression: a Load with
/// exactly one index (possibly wrapped in integer casts). Returns nullopt
/// for affine bounds and scalar (0-D) extent loads.
std::optional<RaggedBound> raggedBoundOf(const Expr &Bound);

/// One segment loop of a function.
struct SegmentLoop {
  int64_t ForId = 0;
  std::string Iter;
  /// An index tensor read by the loop's bounds (when both bounds read
  /// index tensors, the one read by End — CSR's `indptr[i+1]`).
  std::string IndexTensor;
};

/// Everything the rest of the pipeline needs to know about a function's
/// ragged structure. Computed by one body walk; serving code paths compute
/// it once per fingerprint and reuse it per request.
struct RaggedInfo {
  std::vector<SegmentLoop> Loops;

  /// Sorted unique names of all index tensors (1-D integer Inputs read by
  /// segment-loop bounds).
  std::vector<std::string> IndexTensors;

  /// Index tensor -> parameter tensors whose leading dimension is
  /// addressed directly (bare iterator) by one of its segment iterators.
  /// Contract (3) above: every index-tensor value must be <= that
  /// dimension's runtime extent.
  std::map<std::string, std::set<std::string>> BoundedParams;

  /// Parameter -> dimensions whose extent is ragged-sized (addressed
  /// directly by a segment iterator). Bucketed in sparse shape keys.
  std::map<std::string, std::set<int>> RaggedDims;

  /// Sorted unique extent parameters (analysis/extents.h) appearing in the
  /// symbolic shape of some ragged dimension — `nnz` and friends. Serving
  /// buckets their values and keeps them *symbolic* under specialization,
  /// so one specialized kernel serves a whole nnz bucket.
  std::vector<std::string> RaggedExtents;

  bool empty() const { return IndexTensors.empty(); }
  bool isRaggedExtent(const std::string &Name) const;
};

/// Discovers the segment loops, index tensors, and ragged sizes of \p F.
RaggedInfo analyzeRagged(const Func &F);

/// The per-request index-tensor contract, part of ArgContract::check
/// (analysis/extents.h): every index tensor of \p RI is bound in \p Args
/// to a 1-D integer buffer whose values are >= 0, monotonically
/// non-decreasing, and within the leading extents of the tensors it gates.
/// Returns a typed error, never aborts.
Status checkIndptrArgs(const RaggedInfo &RI,
                       const std::map<std::string, Buffer *> &Args);

} // namespace ft

#endif // FT_ANALYSIS_RAGGED_H
