//===- serve/shape_key.h - Canonical argument-shape signature ----*- C++ -*-===//
///
/// \file
/// The canonical signature of one request's argument bindings — the row key
/// of the telemetry shape table and the bucket key of profile-guided
/// specialization (DESIGN.md §16). The key is sorted by parameter name
/// regardless of the container the caller iterates, so the same bindings
/// always produce the same string:
///
///   tensors:        "x:f32[256x64]"
///   0-D scalars:    "n:i64=256"   (the *value*, not just the rank — an
///                    extent that only appears in loop bounds still has to
///                    distinguish shape buckets)
///
/// joined with single spaces. parseScalarExtents() inverts the scalar
/// entries, which is how `ftc --advise --specialize` turns a nominated
/// shape key back into the extent bindings to specialize at.
///
/// Ragged (nnz-sized) programs get a *bucketed* variant: sizes the ragged
/// analysis (analysis/ragged.h) marks data-dependent are rounded up to the
/// next power of two and spelled with `~` instead of an exact size
/// (`nnz:i64~8192`, `val:f32[~8192]`), so sparse traffic whose nnz churns
/// request-to-request still lands in a handful of stable telemetry rows and
/// specialization buckets (DESIGN.md §17).
///
//===----------------------------------------------------------------------===//

#ifndef FT_SERVE_SHAPE_KEY_H
#define FT_SERVE_SHAPE_KEY_H

#include <cstdint>
#include <map>
#include <string>

#include "analysis/extents.h"
#include "interp/buffer.h"
#include "support/error.h"

namespace ft::serve {

/// The canonical sorted-by-name signature of \p Args. Null bindings are
/// skipped (their absence is validateArgs' error to report).
std::string shapeKeyOf(const std::map<std::string, Buffer *> &Args);

/// The ragged-aware signature: like shapeKeyOf, but every size \p RI marks
/// ragged — ragged scalar extents (`nnz`) and ragged tensor dimensions
/// (`val`'s leading dim) — is rounded up to the next power of two and
/// prefixed with `~`. With an empty \p RI this is exactly shapeKeyOf.
std::string bucketedShapeKeyOf(const std::map<std::string, Buffer *> &Args,
                               const RaggedInfo &RI);

/// The key every request that satisfies \p C with exactly its parameters
/// has, when that is one key: no extent parameters, no ragged sizes and no
/// 0-D integer parameters (whose values the key spells). Empty otherwise.
/// The executor computes it once per static-shape fingerprint instead of
/// once per request.
std::string staticShapeKeyOf(const ArgContract &C);

/// Extracts the `name:iNN=value` scalar entries of a shape key produced by
/// shapeKeyOf. Tensor entries (`[...]`) and bucketed entries (`~`) are
/// skipped — a bucket names a range, not a bindable value. A scalar entry
/// whose dtype is not an integer type is a typed error (a float cannot bind
/// an extent parameter), as is an unparsable value after `=`.
Result<std::map<std::string, int64_t>>
parseScalarExtents(const std::string &Key);

} // namespace ft::serve

#endif // FT_SERVE_SHAPE_KEY_H
