//===- perfbench/src/spans.cpp --------------------------------------------===//

#include "spans.h"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <mutex>

namespace pb {
namespace {

std::atomic<bool> TracingOn{false};
std::atomic<uint64_t> NextId{1};

std::mutex RecordsMu;
std::vector<SpanRecord> Records; // Guarded by RecordsMu.

/// Innermost open span of this thread.
thread_local uint64_t CurrentSpan = 0;

} // namespace

void setTracing(bool On) { TracingOn.store(On, std::memory_order_relaxed); }
bool tracing() { return TracingOn.load(std::memory_order_relaxed); }

size_t spanCount() {
  std::lock_guard<std::mutex> Lock(RecordsMu);
  return Records.size();
}

double spanSeconds(const char *Name, size_t From) {
  std::lock_guard<std::mutex> Lock(RecordsMu);
  double Sum = 0;
  for (size_t I = From; I < Records.size(); ++I)
    if (std::strcmp(Records[I].Name, Name) == 0)
      Sum += Records[I].seconds();
  return Sum;
}

size_t spanCalls(const char *Name, size_t From) {
  std::lock_guard<std::mutex> Lock(RecordsMu);
  size_t N = 0;
  for (size_t I = From; I < Records.size(); ++I)
    N += std::strcmp(Records[I].Name, Name) == 0;
  return N;
}

bool writeSpans(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (F == nullptr)
    return false;
  std::lock_guard<std::mutex> Lock(RecordsMu);
  std::fprintf(F, "[\n");
  for (size_t I = 0; I < Records.size(); ++I) {
    const SpanRecord &R = Records[I];
    std::fprintf(F,
                 "  {\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                 "\"req\": %llu, \"start_s\": %.9f, \"end_s\": %.9f}%s\n",
                 R.Name, (unsigned long long)R.Id,
                 (unsigned long long)R.Parent, (unsigned long long)R.Req,
                 R.Start, R.End, I + 1 < Records.size() ? "," : "");
  }
  std::fprintf(F, "]\n");
  return std::fclose(F) == 0;
}

Span::Span(const char *Name, uint64_t Req) : On(tracing()) {
  if (!On)
    return;
  Rec.Name = Name;
  Rec.Id = NextId.fetch_add(1, std::memory_order_relaxed);
  Rec.Parent = CurrentSpan;
  Rec.Req = Req;
  CurrentSpan = Rec.Id;
  Rec.Start = now();
}

Span::~Span() {
  if (!On)
    return;
  Rec.End = now();
  CurrentSpan = Rec.Parent;
  std::lock_guard<std::mutex> Lock(RecordsMu);
  Records.push_back(Rec);
}

} // namespace pb
