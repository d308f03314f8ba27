//===- support/metrics.h - Named counter & histogram registry ----*- C++ -*-===//
///
/// \file
/// A process-wide registry of named metrics, the quantitative half of the
/// observability layer (the qualitative half — spans and the schedule
/// decision audit log — lives in support/trace.h). Two metric types:
///
///  - Counter: a monotonic uint64, one relaxed atomic add per bump.
///  - Histogram: a latency/size distribution over 64 fixed log2 buckets
///    (bucket i covers [2^(i-1), 2^i); bucket 0 is exactly zero, the last
///    bucket is open-ended), with count/sum/min/max tracked alongside so
///    snapshots can estimate p50/p95/p99 by geometric interpolation within
///    a bucket, clamped to the observed range. The record path is
///    lock-free: a handful of relaxed atomic ops, no allocation, no lock —
///    cheap enough for the serving runtime's per-request path.
///
/// Metrics are created on first use by hierarchical name
/// ("deps/dep_queries", "serve/queue_wait_ns", ...) and live for the whole
/// process; references returned by counter()/histogram() are stable, so
/// hot paths resolve their metric once (a function-local
/// `static metrics::Counter &`) and then pay only relaxed atomics.
/// FT_METRICS=1 prints every registered counter at exit, the dependence
/// engine's "deps/" counters included (support/trace.h).
///
//===----------------------------------------------------------------------===//

#ifndef FT_SUPPORT_METRICS_H
#define FT_SUPPORT_METRICS_H

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ft::metrics {

/// One named counter. Obtain instances through counter(); never constructed
/// directly. The mutation API mirrors std::atomic<uint64_t>.
class Counter {
public:
  void fetch_add(uint64_t N = 1,
                 std::memory_order O = std::memory_order_relaxed) {
    Val.fetch_add(N, O);
  }

  uint64_t load(std::memory_order O = std::memory_order_relaxed) const {
    return Val.load(O);
  }

  void store(uint64_t V,
             std::memory_order O = std::memory_order_relaxed) {
    Val.store(V, O);
  }

  const std::string &name() const { return Name; }

  Counter(const Counter &) = delete;
  Counter &operator=(const Counter &) = delete;

private:
  friend Counter &counter(const std::string &Name);
  explicit Counter(std::string Name) : Name(std::move(Name)) {}

  std::string Name;
  std::atomic<uint64_t> Val{0};
};

/// The counter registered under \p Name; created (at zero) on first use.
/// Thread-safe; the returned reference is valid for the process lifetime.
Counter &counter(const std::string &Name);

/// Name/value pairs of every registered counter, sorted by name.
std::vector<std::pair<std::string, uint64_t>> snapshot();

/// Resets every registered counter and histogram to zero (tests and
/// benchmarks).
void resetAll();

/// Resets every counter and histogram whose name starts with \p Prefix
/// (e.g. "deps/" between compiles, "serve/" between bench phases).
void resetPrefix(const std::string &Prefix);

/// A relaxed-consistency copy of one histogram, taken by
/// Histogram::snapshot(). Also the unit the telemetry snapshot exporter
/// serializes, and what merge() combines across shards or processes.
struct HistogramSnapshot {
  static constexpr int kBuckets = 64;

  std::string Name;
  uint64_t Count = 0;
  uint64_t Sum = 0;
  uint64_t Min = 0; ///< 0 when Count == 0.
  uint64_t Max = 0;
  std::array<uint64_t, kBuckets> Buckets{};

  /// The bucket index a value falls into: 0 holds exactly zero, bucket i
  /// (1 <= i < 63) covers [2^(i-1), 2^i), bucket 63 is open-ended.
  static int bucketOf(uint64_t V) {
    if (V == 0)
      return 0;
    int B = std::bit_width(V);
    return B > kBuckets - 1 ? kBuckets - 1 : B;
  }
  /// Inclusive lower bound of bucket \p I.
  static uint64_t bucketLo(int I) {
    return I == 0 ? 0 : uint64_t(1) << (I - 1);
  }
  /// Exclusive upper bound of bucket \p I (UINT64_MAX for the last).
  static uint64_t bucketHi(int I);

  double mean() const { return Count ? double(Sum) / double(Count) : 0.0; }

  /// Estimated value at quantile \p Q in [0, 1], using the same rank
  /// convention as indexing a sorted sample vector at Q * (n - 1):
  /// geometric interpolation inside the bucket, clamped to [Min, Max] so
  /// single-bucket distributions estimate exactly. The estimate is always
  /// within one bucket width (a factor of 2) of the true sample quantile.
  double quantile(double Q) const;

  /// Accumulates \p Other into this snapshot (bucket-wise add; min/max
  /// widen). Names are not required to match — merging shards of one
  /// logical metric is the caller's contract.
  void merge(const HistogramSnapshot &Other);

  /// Records one value directly into this snapshot. Not thread-safe —
  /// for aggregation tables that already hold a lock (e.g. the telemetry
  /// shape table), where a registry-backed atomic Histogram per row would
  /// be waste.
  void add(uint64_t V);
};

/// One named histogram. Obtain instances through histogram(); never
/// constructed directly. record() is wait-free: one bucket add plus
/// count/sum adds and relaxed min/max CAS — no lock, no allocation.
class Histogram {
public:
  static constexpr int kBuckets = HistogramSnapshot::kBuckets;

  void record(uint64_t V) {
    Buckets[HistogramSnapshot::bucketOf(V)].fetch_add(
        1, std::memory_order_relaxed);
    Cnt.fetch_add(1, std::memory_order_relaxed);
    Total.fetch_add(V, std::memory_order_relaxed);
    uint64_t Cur = MinV.load(std::memory_order_relaxed);
    while (V < Cur &&
           !MinV.compare_exchange_weak(Cur, V, std::memory_order_relaxed)) {
    }
    Cur = MaxV.load(std::memory_order_relaxed);
    while (V > Cur &&
           !MaxV.compare_exchange_weak(Cur, V, std::memory_order_relaxed)) {
    }
  }

  uint64_t count() const { return Cnt.load(std::memory_order_relaxed); }
  uint64_t sum() const { return Total.load(std::memory_order_relaxed); }

  /// Relaxed-consistency copy (counts racing with record() may be off by
  /// the in-flight operations; quiesce writers for exact numbers).
  HistogramSnapshot snapshot() const;

  /// Zeroes the histogram (tests and benchmarks; racing record() calls
  /// may survive partially).
  void reset();

  const std::string &name() const { return Name; }

  Histogram(const Histogram &) = delete;
  Histogram &operator=(const Histogram &) = delete;

private:
  friend Histogram &histogram(const std::string &Name);
  explicit Histogram(std::string Name) : Name(std::move(Name)) {}

  std::string Name;
  std::atomic<uint64_t> Cnt{0};
  std::atomic<uint64_t> Total{0};
  std::atomic<uint64_t> MinV{UINT64_MAX};
  std::atomic<uint64_t> MaxV{0};
  std::array<std::atomic<uint64_t>, kBuckets> Buckets{};
};

/// The histogram registered under \p Name; created (empty) on first use.
/// Thread-safe; the returned reference is valid for the process lifetime.
Histogram &histogram(const std::string &Name);

/// Snapshots of every registered histogram, sorted by name.
std::vector<HistogramSnapshot> snapshotHistograms();

} // namespace ft::metrics

#endif // FT_SUPPORT_METRICS_H
