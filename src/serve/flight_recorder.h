//===- serve/flight_recorder.h - Per-request flight recorder -----*- C++ -*-===//
///
/// \file
/// A bounded ring buffer of structured request events — the serving
/// runtime's black box. Every completed (or rejected) request leaves one
/// FlightEvent behind: request id + tenant, fingerprint, tier served,
/// queue-wait/run/total nanoseconds, micro-batch id and size, the deadline
/// verdict when the request carried one, and a typed outcome (ok, invalid
/// arguments, runtime error, rejected-full, rejected-shutdown) with the
/// error message when there was one. The ring keeps the last N events
/// (FT_FLIGHT_CAP, default 512), so the recent history of a node is always
/// reconstructible: drain() hands the events to a caller (ordered, oldest
/// first, removing them), peek() copies without consuming (the telemetry
/// snapshot exporter), and the exporter dumps the ring on process exit.
///
/// Cumulative per-outcome totals are kept next to the ring so a summary
/// survives however many times the ring wrapped.
///
/// Recording takes one short mutex hold and, once the ring is full,
/// reuses the oldest event's slot instead of allocating. The recorder is
/// only fed when serve::telemetry::enabled() — the disabled request path
/// never touches it (see serve/telemetry.h for the gate).
///
//===----------------------------------------------------------------------===//

#ifndef FT_SERVE_FLIGHT_RECORDER_H
#define FT_SERVE_FLIGHT_RECORDER_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ft::serve {

/// How one request left the system.
enum class Outcome : uint8_t {
  Ok,               ///< Served successfully.
  InvalidArgs,      ///< Rejected by validateArgs (bad binding/shape/type).
  RunError,         ///< Backend executed and returned an error.
  RejectedFull,     ///< Bounced at submit: queue full (reject policy).
  RejectedShutdown, ///< Bounced at submit: executor shut down.
};

/// Returns "ok" / "invalid_args" / "run_error" / "rejected_full" /
/// "rejected_shutdown".
const char *nameOf(Outcome O);

/// One recorded request. Tier is kept as the tier name ("jit"/"interp";
/// "-" for requests that never executed) so the event is self-describing
/// in dumps.
struct FlightEvent {
  uint64_t Seq = 0;         ///< Monotonic per-process event number.
  double TsUs = 0;          ///< Completion time, trace-epoch microseconds.
  uint64_t Fingerprint = 0; ///< Whole-program cache key (0 when unknown).
  uint64_t ReqId = 0;       ///< RequestContext::Id (0 when unknown).
  std::string Tenant;       ///< SLO bucket label; empty = unattributed.
  const char *Tier = "-";
  Outcome Out = Outcome::Ok;
  uint64_t QueueNs = 0; ///< submit -> execution start.
  uint64_t RunNs = 0;   ///< execution start -> completion.
  uint64_t TotalNs = 0; ///< submit -> completion.
  uint32_t BatchSize = 1;
  uint64_t BatchId = 0;
  uint64_t DeadlineNs = 0;     ///< The request's budget; 0 = none.
  bool DeadlineMissed = false; ///< TotalNs > DeadlineNs (deadline set).
  std::string Error; ///< Truncated message; empty when Out == Ok.
};

/// Cumulative totals since process start (not reset by drain()).
struct FlightSummary {
  uint64_t Recorded = 0;
  uint64_t Ok = 0;
  uint64_t InvalidArgs = 0;
  uint64_t RunErrors = 0;
  uint64_t RejectedFull = 0;
  uint64_t RejectedShutdown = 0;
};

/// The ring buffer. One process-wide instance, obtained via
/// flightRecorder(); separate instances exist only in tests.
class FlightRecorder {
public:
  explicit FlightRecorder(size_t Cap = 512);

  /// Appends \p E (stamping Seq), evicting the oldest event when full.
  /// Error messages are truncated to 160 bytes.
  void record(FlightEvent E);

  /// Removes and returns all buffered events, oldest first. The summary
  /// is unaffected.
  std::vector<FlightEvent> drain();

  /// Copies the buffered events, oldest first, without consuming them;
  /// at most \p Max (0 = all).
  std::vector<FlightEvent> peek(size_t Max = 0) const;

  FlightSummary summary() const;

  size_t capacity() const;
  size_t size() const;

  /// Resizes the ring (keeps the newest events that fit). Also resets
  /// nothing else — capacity changes are cheap and rare (env/init, tests).
  void setCapacity(size_t Cap);

  /// Drops buffered events and zeroes the summary (tests).
  void reset();

private:
  struct Impl;
  // Leaked-on-purpose singleton pattern is handled by flightRecorder();
  // the recorder itself is a normal value type.
  std::unique_ptr<Impl> I;

public:
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder &) = delete;
  FlightRecorder &operator=(const FlightRecorder &) = delete;
};

/// The process-wide recorder (capacity from FT_FLIGHT_CAP on first use).
FlightRecorder &flightRecorder();

} // namespace ft::serve

#endif // FT_SERVE_FLIGHT_RECORDER_H
