//===- codegen/profile.h - Kernel profile: source map & reports --*- C++ -*-===//
///
/// \file
/// Host side of the statement-level kernel profiler (DESIGN.md §10). The
/// generated kernel counts calls/iterations/time per For and GemmCall in
/// per-thread slots (see CodegenOptions::Profile) that Kernel::run sums up
/// after every call; this layer turns those counters into something a
/// human can act on:
///
///  - SourceMap: stmt-Id -> {frontend label, extent, nesting path, and the
///    schedule-audit decisions that created or moved the statement}, so a
///    report row reads "subdivnet/faces#3 (after split(...), cache(...))"
///    instead of a bare id. Built from the *scheduled* Func at compile
///    time, joined with trace::auditLog() through ScheduleDecision::StmtIds.
///  - KernelProfile: the merged runtime samples + memory accounting for one
///    kernel, with renderers for a hierarchical per-loop table, a
///    collapsed-stack flamegraph (flamegraph.pl / speedscope format), and a
///    JSON snapshot.
///  - A process-wide registry + FT_PROFILE env sink:
///      FT_PROFILE=1           per-loop table on stderr at exit
///      FT_PROFILE=out.folded  collapsed-stack flamegraph file
///      FT_PROFILE=out.json    JSON snapshot file
///      FT_PROFILE=out.txt     per-loop table into a file
///    Setting FT_PROFILE also switches Kernel::compile into profile mode,
///    so existing drivers gain profiling without code changes.
///
//===----------------------------------------------------------------------===//

#ifndef FT_CODEGEN_PROFILE_H
#define FT_CODEGEN_PROFILE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ir/func.h"
#include "support/trace.h"

namespace ft::json {
class Writer;
} // namespace ft::json

namespace ft::profile {

/// Merged runtime counters for one instrumented statement, summed over a
/// kernel's calls and threads. Calls and Iters are exact;
/// Ns covers only the timed entries (leaf loops sample 1-in-64 calls), so
/// estimates extrapolate through TimedCalls/TimedIters.
struct LoopSample {
  int64_t StmtId = -1; ///< -1 is the kernel body itself.
  uint64_t Calls = 0;
  uint64_t Iters = 0;
  uint64_t Ns = 0;
  uint64_t TimedCalls = 0;
  uint64_t TimedIters = 0;

  /// Extrapolated total wall-clock nanoseconds for this statement.
  double estNs() const {
    if (TimedIters > 0)
      return double(Ns) * (double(Iters) / double(TimedIters));
    if (TimedCalls > 0)
      return double(Ns) * (double(Calls) / double(TimedCalls));
    return 0;
  }
};

/// Static description of one instrumented statement, from the scheduled IR.
struct StmtSourceInfo {
  int64_t Id = -1;
  std::string Kind;  ///< "kernel", "for", or "gemm".
  std::string Label; ///< Frontend label, may be empty.
  std::string Name;  ///< Display name: label (or iterator) + "#" + id.
  std::string Iter;  ///< Loop iterator name ("" for gemm/kernel).
  std::string Extent; ///< "begin:end" in IR syntax ("" for gemm/kernel).
  bool Parallel = false;
  int64_t ParentId = -2; ///< Enclosing instrumented stmt; -2 above the root.
  int Depth = 0;         ///< Nesting depth (kernel root = 0).
  std::vector<std::string> Path; ///< Root-to-here names, Path[0] = func.
  std::string QualName;          ///< "<func>/<name>" ("<func>" for root).
  /// Applied schedule decisions whose StmtIds include this statement,
  /// formatted "primitive(target)", in application order.
  std::vector<std::string> Provenance;
  /// Statically estimated bytes touched per iteration by accesses directly
  /// in this statement's body (nested instrumented statements excluded —
  /// they account for their own). Multiplied by the runtime Iters this
  /// gives the table's "est. bytes moved" column.
  uint64_t DirectAccessBytesPerIter = 0;
};

/// The stmt-Id -> source-info table emitted alongside a profiled kernel.
struct SourceMap {
  std::string FuncName;
  std::vector<StmtSourceInfo> Stmts; ///< Pre-order; [0] is the kernel root.
  std::map<int64_t, size_t> ById;

  const StmtSourceInfo *find(int64_t Id) const {
    auto It = ById.find(Id);
    return It == ById.end() ? nullptr : &Stmts[It->second];
  }
};

/// Builds the source map for (scheduled) \p F, joining \p Audit entries to
/// statements through ScheduleDecision::StmtIds (ids are globally unique,
/// so decisions about other functions never match).
SourceMap buildSourceMap(const Func &F,
                         const std::vector<trace::ScheduleDecision> &Audit);

/// One kernel's complete profile: source map, merged samples, and the
/// memory accounting of its runtime counters. Counters are cumulative over
/// every run of the kernel.
struct KernelProfile {
  std::string Symbol;
  SourceMap Map;
  std::vector<LoopSample> Samples; ///< Export order; [0] is the kernel root.
  uint64_t Invocations = 0;
  uint64_t CurrentBytes = 0;
  uint64_t PeakBytes = 0;
  uint64_t TotalAllocBytes = 0;
  uint64_t AllocCount = 0;
  /// Serving-request join (DESIGN.md §15): runs of this kernel that
  /// carried a request id, and the most recent of those ids (oldest
  /// first, bounded) — filled from requestAttribution() when the profile
  /// is pulled, so hot-loop rows can be joined back to the requests that
  /// produced them.
  uint64_t AttributedRuns = 0;
  std::vector<uint64_t> RecentRequestIds;

  const LoopSample *sample(int64_t StmtId) const;
  /// estNs() of \p StmtId minus its direct children's (clamped at 0).
  double selfNs(int64_t StmtId) const;
};

/// Hierarchical per-loop table (the FT_PROFILE=1 report).
std::string formatTable(const KernelProfile &P);

/// Collapsed-stack flamegraph: one "frame;frame;frame selfNs" line per
/// statement with a positive sample.
std::string toFolded(const KernelProfile &P);

/// Writes \p P as one JSON object (schema in DESIGN.md §10) through \p W;
/// the telemetry snapshot embeds profiles this way.
void writeJson(json::Writer &W, const KernelProfile &P);

/// JSON snapshot of one kernel profile: writeJson into a fresh document.
std::string toJson(const KernelProfile &P);

/// Appends \p P to the process-wide registry consumed by the FT_PROFILE
/// sink and snapshotJson(). Also re-emits the profile as synthetic
/// "profile/<loop>" spans into the trace stream when tracing is enabled,
/// so flame-style per-loop timing shows up inside the FT_TRACE Chrome
/// trace.
void record(KernelProfile P);

/// Copies of every profile recorded so far.
std::vector<KernelProfile> snapshotProfiles();

/// Drops all recorded profiles and the request-attribution table (tests).
void clearProfiles();

/// Serving-request join: notes that request \p RequestId ran the profiled
/// kernel \p Symbol. Kernel::run calls this when it executes on behalf of
/// a serving request, so the per-loop rows a profile reports can be tied
/// back to the requests that produced them. Keeps a bounded ring of the
/// most recent ids per symbol. No-op when \p RequestId == 0.
void noteRequest(const std::string &Symbol, uint64_t RequestId);

/// The attribution recorded for \p Symbol so far: total attributed runs
/// and the most recent request ids, oldest first (empty when none).
struct RequestAttribution {
  uint64_t AttributedRuns = 0;
  std::vector<uint64_t> RecentRequestIds;
};
RequestAttribution requestAttribution(const std::string &Symbol);

/// All recorded profiles as one JSON document: {"profiles":[...]}.
std::string snapshotJson();

/// True when FT_PROFILE requests profiling (anything but unset/""/"0").
/// Kernel::compile(F) consults this to auto-enable profile codegen.
bool envEnabled();

/// Renders \p P as synthetic nested spans via trace::emitSpan (no-op when
/// tracing is disabled). Time is reconstructed from the per-loop estimates
/// starting at the current trace clock, children laid out sequentially
/// inside their parent.
void emitTraceSpans(const KernelProfile &P);

} // namespace ft::profile

#endif // FT_CODEGEN_PROFILE_H
