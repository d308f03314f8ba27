//===- autoschedule/autoschedule.h - Rule-based auto-transform ---*- C++ -*-===//
///
/// \file
/// The rule-based auto-transforming strategy of paper §4.3: six passes,
/// invoked one by one, that aggressively *try* transformations — legality is
/// guaranteed by the dependence analysis inside Schedule, so a rejected
/// attempt simply leaves the program unchanged.
///
///   1. auto_fuse        fuse nearby loops for locality
///   2. auto_vectorize   mark contiguous innermost loops for SIMD
///   3. auto_parallelize merge outer loops and run them on threads
///   4. auto_mem_type    put small tensors close to the processor
///   5. auto_use_lib     call the vendor GEMM for matmul patterns
///   6. auto_unroll      unroll very short innermost loops
///
/// A seventh pass, auto_layout, runs last when SIMD is on: it gives a small
/// tensor that an innermost loop walks along a non-last dimension a local
/// copy with that dimension innermost (DESIGN.md §13).
///
/// On top of the rules sits a measurement-driven search (autoTuneFunc): a
/// deterministic random walk over schedule mutations that compiles and
/// times each candidate, keeping the fastest. Candidates are deduplicated
/// by whole-program fingerprint (ir/compare.h) *before* compiling — a
/// rejected primitive leaves the program unchanged, so many mutation
/// rounds collapse onto already-measured programs — and every compile goes
/// through the kernel cache, so re-running a search is nearly free.
///
//===----------------------------------------------------------------------===//

#ifndef FT_AUTOSCHEDULE_AUTOSCHEDULE_H
#define FT_AUTOSCHEDULE_AUTOSCHEDULE_H

#include <map>
#include <string>

#include "interp/buffer.h"
#include "schedule/schedule.h"
#include "support/error.h"

namespace ft {

/// Tuning knobs for the rule passes.
struct AutoScheduleOptions {
  /// Pre-pass cleanups: fold single-use scalar temporaries and shrink
  /// over-sized Cache tensors before the rule passes run.
  bool Cleanup = true;
  bool Fuse = true;
  bool Vectorize = true;
  bool Parallelize = true;
  bool MemType = true;
  bool UseLib = true;
  bool Unroll = true;
  /// Tensors with at most this many (constant) elements move to CPULocal.
  int64_t LocalSizeLimit = 4096;
  /// Loops with at most this constant length are marked for unrolling.
  int64_t UnrollLimit = 8;
  /// Explicit SIMD width auto_vectorize proves loops at (the two-argument
  /// vectorize(LoopId, Width), falling back to the legacy hint-only form
  /// when the proof fails). 0 skips the proof entirely and keeps the
  /// legacy ivdep-hint lowering — benchmarks use that as the baseline.
  int VectorWidth = 16;
  /// Thread count the parallelize rule targets; 0 = autodetect. With one
  /// thread, parallelization (and its atomics) is skipped as pure
  /// overhead — the paper's rules are architecture-aware (§4.3).
  int NumThreads = 0;
};

/// Per-rule primitive tally, sourced from the schedule decision audit log
/// (support/trace.h): how many primitives the rule tried, and of those how
/// many the dependence analysis let through vs rejected.
struct RuleTally {
  int Tried = 0;
  int Applied = 0;
  int Rejected = 0;
};

/// Statistics of what the rules applied (for tests and reporting).
struct AutoScheduleReport {
  int Fused = 0;
  int Vectorized = 0;
  int Parallelized = 0;
  int Localized = 0;
  int LibCalls = 0;
  int Unrolled = 0;
  int Copied = 0; ///< Struct-of-arrays copies made by auto_layout.
  /// Keyed by rule name ("auto_fuse", "auto_vectorize", ...). Collected
  /// even when tracing is off — autoSchedule forces the audit log on for
  /// the duration of its run.
  std::map<std::string, RuleTally> Rules;

  // Filled by the measurement-driven search (autoTuneFunc) only.
  int CandidatesTried = 0; ///< Mutation rounds evaluated (incl. the seed).
  int CandidatesDeduped =
      0; ///< Skipped: fingerprint seen before, measurement reused.
  int CandidatesMeasured = 0; ///< Actually compiled and timed.
  double BestMs = 0;          ///< Best-of-runs time of the winner.
};

/// Runs the six passes on \p S in order. Returns what was applied.
AutoScheduleReport autoSchedule(Schedule &S,
                                const AutoScheduleOptions &Opts = {});

/// Convenience: schedules a Func and returns the optimized one.
Func autoScheduleFunc(Func F, const AutoScheduleOptions &Opts = {},
                      AutoScheduleReport *Report = nullptr);

/// Knobs for the measurement-driven search (autoTuneFunc).
struct SearchOptions {
  int Rounds = 24;     ///< Mutation rounds after the seed candidate.
  int MeasureRuns = 3; ///< Timed runs per candidate; best-of is kept.
  /// Mutation stream seed. The same seed draws the same random stream,
  /// but each round mutates the incumbent, which is whichever candidate
  /// measured fastest so far, so two runs walk the same candidates only
  /// while their timings rank the candidates alike.
  uint64_t Seed = 0x5eed;
  bool RulesFirst = true; ///< Seed the search with the rule passes' output.
  AutoScheduleOptions Rules; ///< Options for that rule pre-pass.
  std::string OptFlags = "-O2"; ///< Host-compiler flags for candidates.
};

/// Measurement-driven schedule search over \p F. Each round copies the
/// incumbent, applies one or two random schedule mutations (split /
/// parallelize / unroll / vectorize / fuse / reorder — an illegal one is
/// rejected by the dependence analysis and leaves the program unchanged),
/// fingerprints the result, and only compiles + times candidates whose
/// fingerprint has not been measured yet (`autoschedule/candidates_deduped`
/// counts the skips; measurements are memoized per fingerprint). \p Args
/// must bind every parameter of \p F to a live Buffer; output buffers are
/// overwritten by the timing runs. Returns the fastest schedule found.
Result<Func> autoTuneFunc(const Func &F,
                          const std::map<std::string, Buffer *> &Args,
                          const SearchOptions &Opts = {},
                          AutoScheduleReport *Report = nullptr);

} // namespace ft

#endif // FT_AUTOSCHEDULE_AUTOSCHEDULE_H
