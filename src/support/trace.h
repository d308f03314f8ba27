//===- support/trace.h - Compiler-wide tracing & audit log -------*- C++ -*-===//
///
/// \file
/// The observability layer: RAII spans with nesting, wall-clock timing and
/// key/value annotations, threaded through every stage of the pipeline
/// (frontend lowering, IR passes, schedule primitives, the auto-scheduler,
/// codegen, the JIT and kernel execution), plus the *schedule decision
/// audit log* recording every primitive tried, whether it applied, and the
/// legality reason when it was rejected.
///
/// Span taxonomy (documented in DESIGN.md §9): names are
/// `<layer>/<detail>` with layers `frontend/`, `pass/`, `schedule/`,
/// `autoschedule/`, `autodiff/`, `codegen/`, `rt/`.
///
/// Sinks:
///   FT_TRACE=out.json   write Chrome trace-event JSON at process exit
///                       (loadable in chrome://tracing or Perfetto)
///   FT_METRICS=1        print a hierarchical span summary + every
///                       registered metrics counter at process exit
///                       (the dependence engine's deps/ counters too)
///   ft::trace::snapshot()  programmatic access for tests and benches
///
/// Cost model: when disabled (the default), constructing a span is one
/// relaxed atomic load and one branch — no allocation, no clock read — so
/// instrumented hot paths are unaffected. When enabled, spans pay one
/// clock read at open/close and one mutex-guarded push at close.
///
//===----------------------------------------------------------------------===//

#ifndef FT_SUPPORT_TRACE_H
#define FT_SUPPORT_TRACE_H

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "support/error.h"

namespace ft::trace {

namespace detail {
extern std::atomic<bool> Enabled;
extern std::atomic<bool> AuditOn;
} // namespace detail

/// True when span recording is on (FT_TRACE / FT_METRICS at startup, or
/// setEnabled). The single relaxed load on every instrumentation site.
inline bool enabled() {
  return detail::Enabled.load(std::memory_order_relaxed);
}

/// Programmatic switch (tests, benches). Does not arm the atexit sinks;
/// use snapshot()/writeChromeTrace() to consume what was recorded.
void setEnabled(bool On);

/// True when schedule decisions are being appended to the audit log
/// (follows enabled(), or forced by setAuditEnabled — the auto-scheduler
/// forces it for the duration of its run to compute per-rule tallies).
inline bool auditEnabled() {
  return enabled() || detail::AuditOn.load(std::memory_order_relaxed);
}

void setAuditEnabled(bool On);

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// One completed span, as returned by snapshot().
struct SpanEvent {
  std::string Name; ///< e.g. "pass/simplify".
  std::vector<std::pair<std::string, std::string>> Args;
  double StartUs = 0; ///< Microseconds since the trace epoch.
  double DurUs = 0;   ///< Wall-clock duration in microseconds.
  int Tid = 0;        ///< Small per-thread index (0 = first seen).
  int Depth = 0;      ///< Nesting depth on its thread when opened.
  uint64_t Seq = 0;   ///< Global completion order.
};

/// RAII span. Inert (no allocation, no clock read) unless enabled() was
/// true at construction.
class Span {
public:
  explicit Span(const char *Name) {
    if (enabled())
      open(Name);
  }
  explicit Span(const std::string &Name) {
    if (enabled())
      open(Name.c_str());
  }
  ~Span() {
    if (Active)
      close();
  }

  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// True when this span is recording (callers gate expensive annotation
  /// computation — e.g. IR node counts — on this).
  bool active() const { return Active; }

  /// Attaches a key/value annotation; exported into the JSON sink's
  /// "args" object. No-op when inactive.
  void annotate(const std::string &Key, std::string Value) {
    if (Active)
      Args.emplace_back(Key, std::move(Value));
  }
  void annotate(const std::string &Key, uint64_t Value) {
    if (Active)
      Args.emplace_back(Key, std::to_string(Value));
  }
  void annotate(const std::string &Key, int64_t Value) {
    if (Active)
      Args.emplace_back(Key, std::to_string(Value));
  }
  void annotate(const std::string &Key, double Value);

private:
  void open(const char *Name);
  void close();

  bool Active = false;
  int Depth = 0;
  double StartUs = 0;
  std::string Name;
  std::vector<std::pair<std::string, std::string>> Args;
};

//===----------------------------------------------------------------------===//
// Flow events (cross-thread correlation arrows)
//===----------------------------------------------------------------------===//

/// One flow event: a point on a named, id-keyed arrow the Chrome trace
/// viewer draws between the slices the points land inside. The serving
/// runtime emits one flow per request id — start ('s') inside the
/// submit-side enqueue span, step ('t') inside the worker's serve/request
/// span, finish ('f') inside the background serve/compile span — so
/// Perfetto can follow a cold request from enqueue to the deduplicated
/// compile it triggered.
struct FlowEvent {
  std::string Name; ///< Arrow name, e.g. "serve/req".
  uint64_t Id = 0;  ///< Binds the points of one arrow (the request id).
  char Phase = 's'; ///< 's' start, 't' step, 'f' finish.
  double TsUs = 0;  ///< Microseconds since the trace epoch.
  int Tid = 0;      ///< Same thread index space as SpanEvent::Tid.
  uint64_t Seq = 0; ///< Global emission order.
};

/// Appends one flow point at the current time on the current thread
/// (no-op when disabled). Chrome binds a flow point to the innermost
/// enclosing slice on its thread, so call this while the span the arrow
/// should attach to is open.
void emitFlow(const char *Name, uint64_t Id, char Phase);

#define FT_SPAN_CONCAT_IMPL(A, B) A##B
#define FT_SPAN_CONCAT(A, B) FT_SPAN_CONCAT_IMPL(A, B)
/// Opens an anonymous RAII span for the enclosing scope.
#define FT_SPAN(NAME)                                                          \
  ::ft::trace::Span FT_SPAN_CONCAT(FtSpan_, __COUNTER__)(NAME)

//===----------------------------------------------------------------------===//
// Schedule decision audit log
//===----------------------------------------------------------------------===//

/// One schedule-primitive attempt: applied or rejected, with the legality
/// reason and the dependence-engine work the check cost.
struct ScheduleDecision {
  std::string Primitive; ///< e.g. "reorder".
  std::string Target;    ///< Operand summary, e.g. "loops [3, 5]".
  bool Applied = false;
  /// Rejection diagnostic, empty when applied; "grad/recompute" entries
  /// hold their recompute and materialize costs either way.
  std::string Reason;
  uint64_t DepQueries = 0;       ///< mayDepend calls the check issued.
  uint64_t EmptinessQueries = 0; ///< AffineSet::isEmpty calls issued.
  double DurUs = 0;              ///< Wall-clock microseconds.
  double TsUs = 0; ///< Microseconds since the trace epoch (stamped by
                   ///< recordDecision).
  /// Statements this primitive targeted or created (targets first, then
  /// new ids). Statement ids are globally unique, so the kernel profiler's
  /// source map joins report rows to the decisions that shaped them
  /// through this field.
  std::vector<int64_t> StmtIds;
};

/// Appends \p D to the audit log (no-op unless auditEnabled()).
void recordDecision(ScheduleDecision D);

/// Number of decisions recorded so far (use with auditLogSince to scope a
/// range, e.g. one auto-schedule rule pass).
size_t auditSize();

/// Copy of the audit log entries from index \p From to the end.
std::vector<ScheduleDecision> auditLogSince(size_t From);

/// Copy of the whole audit log.
std::vector<ScheduleDecision> auditLog();

/// Instruments one schedule primitive: opens a "schedule/<primitive>"
/// span, captures the dependence-counter baseline, and on finish() records
/// the ScheduleDecision (applied/rejected + reason + counter deltas) and
/// mirrors it onto the span's annotations.
///
/// Usage (the wrapper pattern in schedule.cpp):
/// \code
///   Status Schedule::reorder(const std::vector<int64_t> &Order) {
///     trace::ScheduleAudit A("reorder", fmtIds(Order));
///     return A.finish(reorderImpl(Order));
///   }
/// \endcode
class ScheduleAudit {
public:
  /// \p Target is only evaluated by callers when cheap; pass an empty
  /// string when there is no useful operand summary.
  ScheduleAudit(const char *Primitive, std::string Target);
  ~ScheduleAudit();

  ScheduleAudit(const ScheduleAudit &) = delete;
  ScheduleAudit &operator=(const ScheduleAudit &) = delete;

  /// Records the outcome and passes the status through.
  Status finish(Status S) {
    finishImpl(S);
    return S;
  }

  /// Records the outcome of a Result-returning primitive.
  template <typename T> Result<T> finish(Result<T> R) {
    finishImpl(R.status());
    return R;
  }

  /// Appends statement ids to the decision's provenance set (targets
  /// first, then ids of statements the primitive created). Negative ids
  /// (the "no second loop" convention of SplitIds) are skipped. No-op
  /// unless the audit is armed; call before finish().
  void noteStmtIds(std::initializer_list<int64_t> Ids) {
    if (!Armed)
      return;
    for (int64_t Id : Ids)
      if (Id >= 0)
        StmtIds.push_back(Id);
  }
  void noteStmtIds(const std::vector<int64_t> &Ids) {
    if (!Armed)
      return;
    for (int64_t Id : Ids)
      if (Id >= 0)
        StmtIds.push_back(Id);
  }

private:
  void finishImpl(const Status &S);

  Span Sp;
  bool Armed = false;
  bool Finished = false;
  const char *Primitive;
  std::string Target;
  double StartUs = 0;
  uint64_t DepQ0 = 0;
  uint64_t EmptyQ0 = 0;
  std::vector<int64_t> StmtIds;
};

//===----------------------------------------------------------------------===//
// Sinks
//===----------------------------------------------------------------------===//

/// Everything recorded so far: completed spans (in completion order), the
/// audit log, and a snapshot of every metrics counter.
struct Snapshot {
  std::vector<SpanEvent> Spans;
  std::vector<FlowEvent> Flows;
  std::vector<ScheduleDecision> Audit;
  std::vector<std::pair<std::string, uint64_t>> Counters;
};

Snapshot snapshot();

/// Microseconds since the trace epoch — the clock SpanEvent timestamps
/// are expressed in. For layers that build SpanEvents by hand (emitSpan).
double nowMicros();

/// Appends a pre-built span to the recorded stream (no-op when disabled).
/// Fill Name/Args/StartUs/DurUs/Depth; Tid and Seq are stamped here. Used
/// by layers that reconstruct timing from outside sources — the kernel
/// profiler synthesizes per-loop spans from the counters a generated
/// kernel reports, so they nest under the rt/kernel span in the Chrome
/// trace.
void emitSpan(SpanEvent E);

/// Discards recorded spans and audit entries (counters are left alone; use
/// metrics::resetAll for those).
void clear();

/// Writes the recorded spans + audit log as a Chrome trace-event JSON file
/// (the `{"traceEvents": [...]}` schema; see DESIGN.md §9). Spans become
/// complete ("ph":"X") events; audit entries become instant ("ph":"i")
/// events in category "audit"; flow points become "ph":"s"/"t"/"f" events
/// in category "flow" (finish points carry "bp":"e" so they bind to their
/// enclosing slice, not the next one).
Status writeChromeTrace(const std::string &Path);

/// Prints the hierarchical span summary and all metrics counters to \p Out
/// (stderr when null). This is the FT_METRICS=1 atexit sink.
void writeMetricsSummary(std::FILE *Out = nullptr);

/// RAII: enables span recording (and with \p Audit also decision
/// recording) for one scope, restoring the previous flags after.
struct EnabledGuard {
  explicit EnabledGuard(bool On = true, bool Audit = true)
      : SavedEnabled(enabled()),
        SavedAudit(detail::AuditOn.load(std::memory_order_relaxed)) {
    setEnabled(On);
    setAuditEnabled(Audit);
  }
  ~EnabledGuard() {
    setEnabled(SavedEnabled);
    setAuditEnabled(SavedAudit);
  }
  EnabledGuard(const EnabledGuard &) = delete;
  EnabledGuard &operator=(const EnabledGuard &) = delete;

private:
  bool SavedEnabled;
  bool SavedAudit;
};

/// RAII: forces audit-log collection only (spans untouched). Used by the
/// auto-scheduler to compute per-rule tallies even when tracing is off.
struct AuditGuard {
  explicit AuditGuard(bool On = true)
      : Saved(detail::AuditOn.load(std::memory_order_relaxed)) {
    setAuditEnabled(On);
  }
  ~AuditGuard() { setAuditEnabled(Saved); }
  AuditGuard(const AuditGuard &) = delete;
  AuditGuard &operator=(const AuditGuard &) = delete;

private:
  bool Saved;
};

} // namespace ft::trace

#endif // FT_SUPPORT_TRACE_H
