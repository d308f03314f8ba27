//===- perfbench/src/spans.h - In-memory spans around layer calls -*- C++ -*-===//
///
/// \file
/// The traced mode's recorder. The benchmark wraps every call it makes into
/// a layer's public API (`build*`, `grad`, `autoScheduleFunc`,
/// `generateCpp`, `kernel_cache::cacheKey`, `Kernel::compile`,
/// `Kernel::run`, `Executor::submit`, `future::get`) in a Span. A span
/// records its name, start, end, the enclosing span and a request id. Spans
/// stay in memory and are written once, at exit, as JSON. When tracing is
/// off a Span costs one branch.
///
//===----------------------------------------------------------------------===//

#ifndef FT_PERFBENCH_SPANS_H
#define FT_PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace pb {

/// Seconds on the monotonic clock.
inline double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char *Name = ""; ///< A string literal naming the layer call.
  uint64_t Id = 0;
  uint64_t Parent = 0; ///< Id of the enclosing span; 0 at top level.
  uint64_t Req = 0;    ///< Serve request id; 0 outside serve.
  double Start = 0, End = 0;

  double seconds() const { return End - Start; }
};

/// Turns recording on or off for spans opened afterwards.
void setTracing(bool On);
bool tracing();

/// Number of spans recorded so far; a mark to aggregate from.
size_t spanCount();

/// Sum of the durations (seconds) and the count of spans named \p Name
/// recorded at index \p From or later.
double spanSeconds(const char *Name, size_t From = 0);
size_t spanCalls(const char *Name, size_t From = 0);

/// Writes every recorded span to \p Path as a JSON array. Returns false
/// when the file cannot be written.
bool writeSpans(const std::string &Path);

/// Records one span over its lifetime when tracing is on.
class Span {
public:
  explicit Span(const char *Name, uint64_t Req = 0);
  ~Span();

  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  bool On;
  SpanRecord Rec;
};

} // namespace pb

#endif // FT_PERFBENCH_SPANS_H
