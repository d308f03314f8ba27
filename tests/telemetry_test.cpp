//===- tests/telemetry_test.cpp - Serving telemetry plane -----------------===//
//
// The telemetry plane (serve/telemetry.h) piece by piece:
//
//   - the log2-bucketed Histogram: bucket geometry, exact concurrent-free
//     counting, quantile estimation within one bucket of the true sample
//     quantile, merge across shards;
//   - the minimal JSON parser (support/json.h): documents, escapes,
//     numbers, error offsets; and the json::Writer round-trip through it;
//   - one json::Writer for every sink: hostile strings round-trip through
//     both the Chrome-trace writer and the telemetry snapshot, byte for
//     byte, via the parser;
//   - the flight recorder: wrap-around, drain order, typed outcomes,
//     cumulative summary;
//   - hot-kernel ranking: heaviest total-ns first;
//   - hooks are inert when telemetry is off;
//   - the snapshot exporter: schema-versioned parsable files, monotone
//     sequence numbers, retention bound; stopExporter is idempotent,
//     safe under concurrent stops, and start/stop cycles restart cleanly;
//   - the per-fingerprint shape table: ranking, cap + "other" overflow
//     bucket with a distinct-shape count;
//   - per-tenant SLO accounting: met/missed verdicts, slack histogram,
//     deadline counters;
//   - the v2 snapshot sections ("shapes", "tenants") round-trip through
//     the JSON parser with counts that sum to the requests served;
//   - telemetry never perturbs compilation (generateCpp is byte-identical
//     with telemetry on and off).
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <gtest/gtest.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "codegen/codegen.h"
#include "frontend/builder.h"
#include "serve/telemetry.h"
#include "support/json.h"
#include "support/metrics.h"
#include "support/trace.h"

using namespace ft;
using namespace ft::serve;

namespace {

class TelemetryTest : public ::testing::Test {
protected:
  void SetUp() override {
    for (const char *V : {"FT_TELEMETRY_DIR", "FT_TELEMETRY_INTERVAL_MS",
                          "FT_TELEMETRY_KEEP", "FT_FLIGHT_CAP"})
      ::unsetenv(V);
    telemetry::stopExporter();
    telemetry::setEnabled(false);
    telemetry::reset();
    telemetry::setShapeTableCap(32); // the FT_SHAPE_TABLE_CAP default
    metrics::resetPrefix("serve/");
    metrics::resetPrefix("test/");
  }
  void TearDown() override { SetUp(); }
};

/// The true sample quantile with the Q*(n-1) rank convention the
/// histogram estimator mirrors.
uint64_t rawQuantile(std::vector<uint64_t> V, double Q) {
  std::sort(V.begin(), V.end());
  return V[size_t(Q * double(V.size() - 1))];
}

} // namespace

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

TEST_F(TelemetryTest, HistogramBucketGeometry) {
  using HS = metrics::HistogramSnapshot;
  EXPECT_EQ(HS::bucketOf(0), 0);
  EXPECT_EQ(HS::bucketOf(1), 1);
  EXPECT_EQ(HS::bucketOf(2), 2);
  EXPECT_EQ(HS::bucketOf(3), 2);
  EXPECT_EQ(HS::bucketOf(4), 3);
  EXPECT_EQ(HS::bucketOf(1023), 10);
  EXPECT_EQ(HS::bucketOf(1024), 11);
  EXPECT_EQ(HS::bucketOf(UINT64_MAX), HS::kBuckets - 1);
  // Every value lands in [bucketLo, bucketHi) of its own bucket.
  for (uint64_t V : {uint64_t(0), uint64_t(1), uint64_t(7), uint64_t(4096),
                     uint64_t(1) << 40, UINT64_MAX}) {
    int B = HS::bucketOf(V);
    EXPECT_GE(V, HS::bucketLo(B)) << V;
    if (B < HS::kBuckets - 1)
      EXPECT_LT(V, HS::bucketHi(B)) << V;
  }
}

TEST_F(TelemetryTest, HistogramCountsSumsMinMax) {
  metrics::Histogram &H = metrics::histogram("test/hist_counts");
  H.reset();
  uint64_t Sum = 0;
  for (uint64_t V : {uint64_t(0), uint64_t(3), uint64_t(17), uint64_t(17),
                     uint64_t(100000)}) {
    H.record(V);
    Sum += V;
  }
  metrics::HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, 5u);
  EXPECT_EQ(S.Sum, Sum);
  EXPECT_EQ(S.Min, 0u);
  EXPECT_EQ(S.Max, 100000u);
  EXPECT_EQ(S.Buckets[0], 1u);                                   // the zero
  EXPECT_EQ(S.Buckets[metrics::HistogramSnapshot::bucketOf(17)], 2u);
}

TEST_F(TelemetryTest, HistogramQuantileWithinOneBucketOfRaw) {
  metrics::Histogram &H = metrics::histogram("test/hist_quant");
  H.reset();
  // A skewed latency-like distribution over several decades.
  std::vector<uint64_t> Raw;
  uint64_t Seed = 12345;
  for (int I = 0; I < 5000; ++I) {
    Seed = Seed * 6364136223846793005ull + 1442695040888963407ull;
    uint64_t V = 200 + (Seed >> 33) % 1000;  // bulk: 200..1200 ns
    if (I % 50 == 0)
      V *= 100;                              // tail: ~2% at 100x
    Raw.push_back(V);
    H.record(V);
  }
  metrics::HistogramSnapshot S = H.snapshot();
  using HS = metrics::HistogramSnapshot;
  for (double Q : {0.5, 0.9, 0.95, 0.99}) {
    int HB = HS::bucketOf(uint64_t(S.quantile(Q)));
    int RB = HS::bucketOf(rawQuantile(Raw, Q));
    EXPECT_LE(std::abs(HB - RB), 1) << "q=" << Q;
  }
}

TEST_F(TelemetryTest, HistogramSingleValueQuantilesAreExact) {
  metrics::Histogram &H = metrics::histogram("test/hist_single");
  H.reset();
  for (int I = 0; I < 10; ++I)
    H.record(777);
  metrics::HistogramSnapshot S = H.snapshot();
  // Clamping to [Min, Max] makes degenerate distributions exact.
  EXPECT_DOUBLE_EQ(S.quantile(0.5), 777.0);
  EXPECT_DOUBLE_EQ(S.quantile(0.99), 777.0);
  EXPECT_DOUBLE_EQ(S.mean(), 777.0);
}

TEST_F(TelemetryTest, HistogramMergeAccumulates) {
  metrics::Histogram &A = metrics::histogram("test/hist_merge_a");
  metrics::Histogram &B = metrics::histogram("test/hist_merge_b");
  A.reset();
  B.reset();
  A.record(10);
  A.record(20);
  B.record(5);
  B.record(40000);
  metrics::HistogramSnapshot SA = A.snapshot();
  SA.merge(B.snapshot());
  EXPECT_EQ(SA.Count, 4u);
  EXPECT_EQ(SA.Sum, 10u + 20 + 5 + 40000);
  EXPECT_EQ(SA.Min, 5u);
  EXPECT_EQ(SA.Max, 40000u);
  uint64_t BucketSum = 0;
  for (int I = 0; I < metrics::HistogramSnapshot::kBuckets; ++I)
    BucketSum += SA.Buckets[I];
  EXPECT_EQ(BucketSum, 4u);
}

TEST_F(TelemetryTest, HistogramMergeAfterResetPrefixStartsClean) {
  metrics::Histogram &A = metrics::histogram("test/merge_reset_a");
  metrics::Histogram &B = metrics::histogram("test/merge_reset_b");
  A.record(100);
  B.record(200);
  metrics::resetPrefix("test/");

  // Merging two post-reset (empty) snapshots must stay empty — no stale
  // counts, and no min/max sentinel leaking through the merge.
  metrics::HistogramSnapshot SA = A.snapshot();
  SA.merge(B.snapshot());
  EXPECT_EQ(SA.Count, 0u);
  EXPECT_EQ(SA.Sum, 0u);
  EXPECT_EQ(SA.Min, 0u);
  EXPECT_EQ(SA.Max, 0u);

  // Empty-into-nonempty keeps the nonempty side exact; nonempty-into-
  // empty adopts the other side's min/max instead of widening from the
  // empty side's zeros.
  A.record(7);
  SA = A.snapshot();
  SA.merge(B.snapshot());
  EXPECT_EQ(SA.Count, 1u);
  EXPECT_EQ(SA.Min, 7u);
  EXPECT_EQ(SA.Max, 7u);
  EXPECT_DOUBLE_EQ(SA.quantile(0.5), 7.0);
  metrics::HistogramSnapshot SB = B.snapshot();
  SB.merge(A.snapshot());
  EXPECT_EQ(SB.Count, 1u);
  EXPECT_EQ(SB.Min, 7u);
  EXPECT_EQ(SB.Max, 7u);
}

TEST_F(TelemetryTest, HistogramMergeAtExtremesMatchesRecordAll) {
  // Differential: shard A holds tiny values (incl. the zero bucket),
  // shard B huge ones (incl. the open-ended top bucket). Merging the two
  // snapshots must be indistinguishable from recording every value into
  // one histogram — counts, sum, min/max, every bucket, and therefore
  // every quantile estimate.
  std::vector<uint64_t> Small = {0, 1, 2, 3, 500};
  std::vector<uint64_t> Huge = {uint64_t(1) << 40, uint64_t(1) << 62,
                                UINT64_MAX, UINT64_MAX};
  metrics::Histogram &A = metrics::histogram("test/merge_ext_a");
  metrics::Histogram &B = metrics::histogram("test/merge_ext_b");
  metrics::Histogram &Ref = metrics::histogram("test/merge_ext_ref");
  for (uint64_t V : Small) {
    A.record(V);
    Ref.record(V);
  }
  for (uint64_t V : Huge) {
    B.record(V);
    Ref.record(V);
  }
  metrics::HistogramSnapshot M = A.snapshot();
  M.merge(B.snapshot());
  metrics::HistogramSnapshot R = Ref.snapshot();
  EXPECT_EQ(M.Count, R.Count);
  EXPECT_EQ(M.Sum, R.Sum); // u64 wrap-around is deterministic either way
  EXPECT_EQ(M.Min, R.Min);
  EXPECT_EQ(M.Max, R.Max);
  for (int I = 0; I < metrics::HistogramSnapshot::kBuckets; ++I)
    EXPECT_EQ(M.Buckets[I], R.Buckets[I]) << "bucket " << I;
  for (double Q : {0.0, 0.25, 0.5, 0.75, 0.95, 1.0})
    EXPECT_DOUBLE_EQ(M.quantile(Q), R.quantile(Q)) << "q=" << Q;
  // Merge order must not matter either.
  metrics::HistogramSnapshot M2 = B.snapshot();
  M2.merge(A.snapshot());
  for (double Q : {0.25, 0.5, 0.95})
    EXPECT_DOUBLE_EQ(M2.quantile(Q), M.quantile(Q));
}

TEST_F(TelemetryTest, HistogramSnapshotAddMatchesRecord) {
  // HistogramSnapshot::add (the lock-held local recorder the shape/SLO
  // tables use) must agree exactly with Histogram::record + snapshot.
  metrics::Histogram &H = metrics::histogram("test/snapshot_add_ref");
  metrics::HistogramSnapshot Local;
  for (uint64_t V : {uint64_t(0), uint64_t(5), uint64_t(5), uint64_t(1000),
                     uint64_t(1) << 50}) {
    H.record(V);
    Local.add(V);
  }
  metrics::HistogramSnapshot R = H.snapshot();
  EXPECT_EQ(Local.Count, R.Count);
  EXPECT_EQ(Local.Sum, R.Sum);
  EXPECT_EQ(Local.Min, R.Min);
  EXPECT_EQ(Local.Max, R.Max);
  for (int I = 0; I < metrics::HistogramSnapshot::kBuckets; ++I)
    EXPECT_EQ(Local.Buckets[I], R.Buckets[I]) << "bucket " << I;
}

//===----------------------------------------------------------------------===//
// JSON parser
//===----------------------------------------------------------------------===//

namespace {
/// Quotes, backslashes, newlines, tabs, and a raw control byte — the
/// characters that break naive JSON emitters.
const std::string kHostile = "evil\"name\\with\nnew\tline\x01end";
} // namespace

TEST_F(TelemetryTest, JsonParsesDocuments) {
  auto R = json::parse(
      R"({"a": 1.5, "b": [1, 2, 3], "c": {"d": "x", "e": true}, "f": null})");
  ASSERT_TRUE(R.ok()) << R.message();
  EXPECT_DOUBLE_EQ(R->num("a"), 1.5);
  ASSERT_NE(R->get("b"), nullptr);
  EXPECT_EQ(R->get("b")->items().size(), 3u);
  EXPECT_DOUBLE_EQ(R->get("b")->items()[2].asNumber(), 3.0);
  const json::Value *D = R->at("c.d");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->asString(), "x");
  EXPECT_TRUE(R->at("c.e")->asBool());
  EXPECT_TRUE(R->get("f")->isNull());
}

TEST_F(TelemetryTest, JsonParsesEscapesAndUnicode) {
  auto R = json::parse(R"({"s": "a\"b\\c\ndAé😀"})");
  ASSERT_TRUE(R.ok()) << R.message();
  // A = 'A', é = e-acute (2 UTF-8 bytes), the surrogate pair is
  // U+1F600 (4 UTF-8 bytes).
  EXPECT_EQ(R->str("s"),
            std::string("a\"b\\c\nd") + "A" + "\xc3\xa9" + "\xf0\x9f\x98\x80");
}

TEST_F(TelemetryTest, JsonRejectsGarbageWithOffsets) {
  EXPECT_FALSE(json::parse("{").ok());
  EXPECT_FALSE(json::parse("[1, 2,]").ok());
  EXPECT_FALSE(json::parse("{\"a\": 1} trailing").ok());
  EXPECT_FALSE(json::parse("\"unterminated").ok());
  auto R = json::parse("[1, x]");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.message().find("byte"), std::string::npos) << R.message();
}

TEST_F(TelemetryTest, JsonWriterRoundTripsThroughParser) {
  std::string Out;
  json::Writer W(Out);
  W.beginObject().key(kHostile).value(kHostile);
  W.key("min").value(INT64_MIN).key("two53").value(uint64_t(1) << 53);
  W.key("doubles").beginArray().value(0.1).value(1e-300).value(12.345);
  W.endArray();
  W.key("flags").beginArray().value(true).value(false).endArray();
  W.key("empty_obj").beginObject().endObject();
  W.key("empty_arr").beginArray().endArray();
  W.key("nested").beginObject().key("rows").beginArray();
  W.beginObject().key("id").value(-7).endObject();
  W.beginArray().endArray().beginObject().endObject();
  W.endArray().endObject().endObject();

  // Compact: the sink tests match substrings such as
  // "cat":"flow","ph":"s","id":7, so no whitespace may sit between tokens
  // (kHostile's newline and tab are escaped inside its strings).
  EXPECT_EQ(Out.find_first_of(" \t\n\r"), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"min\":-9223372036854775808,\"two53\":"
                     "9007199254740992,"),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("\"doubles\":[0.1,1e-300,12.345]"), std::string::npos)
      << Out;

  auto R = json::parse(Out);
  ASSERT_TRUE(R.ok()) << R.message() << "\n" << Out;
  ASSERT_EQ(R->size(), 8u);
  EXPECT_EQ(R->members()[0].first, kHostile);
  EXPECT_EQ(R->str(kHostile), kHostile);
  EXPECT_EQ(R->num("min"), double(INT64_MIN));
  EXPECT_EQ(R->num("two53"), 9007199254740992.0);
  const json::Value *D = R->get("doubles");
  ASSERT_NE(D, nullptr);
  ASSERT_EQ(D->size(), 3u);
  EXPECT_EQ(D->items()[0].asNumber(), 0.1);
  EXPECT_EQ(D->items()[1].asNumber(), 1e-300);
  EXPECT_EQ(D->items()[2].asNumber(), 12.345);
  const json::Value *Flags = R->get("flags");
  ASSERT_NE(Flags, nullptr);
  ASSERT_EQ(Flags->size(), 2u);
  EXPECT_TRUE(Flags->items()[0].isBool() && Flags->items()[0].asBool());
  EXPECT_TRUE(Flags->items()[1].isBool() && !Flags->items()[1].asBool(true));
  ASSERT_TRUE(R->get("empty_obj") && R->get("empty_obj")->isObject());
  EXPECT_EQ(R->get("empty_obj")->size(), 0u);
  ASSERT_TRUE(R->get("empty_arr") && R->get("empty_arr")->isArray());
  EXPECT_EQ(R->get("empty_arr")->size(), 0u);
  const json::Value *Rows = R->at("nested.rows");
  ASSERT_NE(Rows, nullptr);
  ASSERT_EQ(Rows->size(), 3u);
  EXPECT_EQ(Rows->items()[0].num("id"), -7.0);
  EXPECT_TRUE(Rows->items()[1].isArray());
  EXPECT_EQ(Rows->items()[1].size(), 0u);
  EXPECT_TRUE(Rows->items()[2].isObject());
  EXPECT_EQ(Rows->items()[2].size(), 0u);
}

//===----------------------------------------------------------------------===//
// Hostile strings round-trip through every sink
//===----------------------------------------------------------------------===//

TEST_F(TelemetryTest, HostileStringsRoundTripThroughChromeTrace) {
  trace::EnabledGuard G(true, false);
  trace::clear();
  {
    trace::Span Sp(kHostile.c_str());
    Sp.annotate(kHostile, kHostile);
  }
  char Tmpl[] = "/tmp/fttrace.XXXXXX.json";
  int Fd = ::mkstemps(Tmpl, 5);
  ASSERT_GE(Fd, 0);
  ::close(Fd);
  Status S = trace::writeChromeTrace(Tmpl);
  ASSERT_TRUE(S.ok()) << S.message();
  auto R = json::parseFile(Tmpl);
  ::unlink(Tmpl);
  trace::clear();
  ASSERT_TRUE(R.ok()) << R.message();

  const json::Value *Events = R->get("traceEvents");
  ASSERT_NE(Events, nullptr);
  bool Found = false;
  for (const json::Value &E : Events->items())
    if (E.str("name") == kHostile) {
      Found = true;
      const json::Value *Args = E.get("args");
      ASSERT_NE(Args, nullptr);
      ASSERT_NE(Args->get(kHostile), nullptr);
      EXPECT_EQ(Args->get(kHostile)->asString(), kHostile);
    }
  EXPECT_TRUE(Found) << "hostile span name did not survive the round trip";
}

TEST_F(TelemetryTest, HostileStringsRoundTripThroughSnapshot) {
  telemetry::setEnabled(true);
  telemetry::RequestSample RS;
  RS.Fingerprint = 0xabcdef;
  RS.Out = Outcome::RunError;
  RS.Error = kHostile;
  telemetry::onRequestComplete(RS);
  // A hostile metric name exercises the counter-key escaping too.
  metrics::counter("test/hostile\"\n\x02name").fetch_add(1);

  std::string Snap = telemetry::writeSnapshotString();
  auto R = json::parse(Snap);
  ASSERT_TRUE(R.ok()) << R.message() << "\n" << Snap;

  const json::Value *Recent = R->at("flight.recent");
  ASSERT_NE(Recent, nullptr);
  ASSERT_EQ(Recent->items().size(), 1u);
  EXPECT_EQ(Recent->items()[0].str("error"), kHostile);
  EXPECT_EQ(Recent->items()[0].str("outcome"), "run_error");
  ASSERT_NE(R->get("counters"), nullptr);
  const json::Value *C = R->get("counters")->get("test/hostile\"\n\x02name");
  ASSERT_NE(C, nullptr);
  EXPECT_DOUBLE_EQ(C->asNumber(), 1.0);
}

//===----------------------------------------------------------------------===//
// Flight recorder
//===----------------------------------------------------------------------===//

TEST_F(TelemetryTest, FlightRecorderWrapsAndDrainsInOrder) {
  FlightRecorder FR(4);
  auto Rec = [&FR](uint64_t Fp) {
    FlightEvent E;
    E.Fingerprint = Fp;
    FR.record(std::move(E));
  };
  auto Fps = [](const std::vector<FlightEvent> &Evs) {
    std::vector<uint64_t> Out;
    for (const FlightEvent &E : Evs)
      Out.push_back(E.Fingerprint);
    return Out;
  };
  for (uint64_t I = 0; I < 10; ++I)
    Rec(I);
  EXPECT_EQ(FR.size(), 4u);
  EXPECT_EQ(FR.capacity(), 4u);
  EXPECT_EQ(Fps(FR.peek(2)), (std::vector<uint64_t>{8, 9}));
  std::vector<FlightEvent> Got = FR.drain();
  ASSERT_EQ(Got.size(), 4u);
  // The newest four, oldest first, with the stamped Seq preserved.
  for (size_t I = 0; I < 4; ++I) {
    EXPECT_EQ(Got[I].Fingerprint, 6 + I);
    EXPECT_EQ(Got[I].Seq, 6 + I);
  }
  EXPECT_EQ(FR.size(), 0u);
  // drain() leaves the cumulative summary alone.
  EXPECT_EQ(FR.summary().Recorded, 10u);

  // Resizing a wrapped ring: shrinking keeps the newest events, growing
  // keeps them all and fills the new slots before evicting again.
  for (uint64_t I = 10; I < 16; ++I)
    Rec(I);
  FR.setCapacity(3);
  EXPECT_EQ(Fps(FR.peek()), (std::vector<uint64_t>{13, 14, 15}));
  Rec(16);
  FR.setCapacity(5);
  for (uint64_t I = 17; I < 20; ++I)
    Rec(I);
  EXPECT_EQ(Fps(FR.drain()), (std::vector<uint64_t>{15, 16, 17, 18, 19}));
}

TEST_F(TelemetryTest, FlightRecorderOutcomeTalliesAndTruncation) {
  FlightRecorder FR(8);
  auto Rec = [&FR](Outcome O) {
    FlightEvent E;
    E.Out = O;
    FR.record(std::move(E));
  };
  Rec(Outcome::Ok);
  Rec(Outcome::Ok);
  Rec(Outcome::InvalidArgs);
  Rec(Outcome::RunError);
  Rec(Outcome::RejectedFull);
  Rec(Outcome::RejectedShutdown);
  FlightSummary S = FR.summary();
  EXPECT_EQ(S.Recorded, 6u);
  EXPECT_EQ(S.Ok, 2u);
  EXPECT_EQ(S.InvalidArgs, 1u);
  EXPECT_EQ(S.RunErrors, 1u);
  EXPECT_EQ(S.RejectedFull, 1u);
  EXPECT_EQ(S.RejectedShutdown, 1u);

  FlightEvent Long;
  Long.Error = std::string(4096, 'x');
  FR.record(std::move(Long));
  std::vector<FlightEvent> All = FR.drain();
  EXPECT_LE(All.back().Error.size(), 160u);

  EXPECT_STREQ(nameOf(Outcome::Ok), "ok");
  EXPECT_STREQ(nameOf(Outcome::InvalidArgs), "invalid_args");
  EXPECT_STREQ(nameOf(Outcome::RunError), "run_error");
  EXPECT_STREQ(nameOf(Outcome::RejectedFull), "rejected_full");
  EXPECT_STREQ(nameOf(Outcome::RejectedShutdown), "rejected_shutdown");
}

//===----------------------------------------------------------------------===//
// Hooks, ranking, and the off switch
//===----------------------------------------------------------------------===//

TEST_F(TelemetryTest, HooksRecordNothingWhenDisabled) {
  telemetry::setEnabled(false);
  telemetry::RequestSample RS;
  RS.Fingerprint = 42;
  RS.QueueNs = 100;
  telemetry::onRequestComplete(RS);
  telemetry::onReject(42, Outcome::RejectedFull);
  EXPECT_EQ(telemetry::onBatch(4), 0u);
  telemetry::onCompile(1000, true);

  EXPECT_EQ(metrics::histogram("serve/queue_wait_ns").count(), 0u);
  EXPECT_EQ(metrics::histogram("serve/batch_size").count(), 0u);
  EXPECT_EQ(metrics::histogram("serve/compile_ns").count(), 0u);
  EXPECT_EQ(flightRecorder().summary().Recorded, 0u);
  EXPECT_TRUE(telemetry::hotKernels().empty());
}

TEST_F(TelemetryTest, HotKernelsRankByTotalServedTime) {
  telemetry::setEnabled(true);
  auto Feed = [](uint64_t Fp, int N, uint64_t TotalNsEach, Tier T,
                 Outcome O = Outcome::Ok) {
    for (int I = 0; I < N; ++I) {
      telemetry::RequestSample RS;
      RS.Fingerprint = Fp;
      RS.ServedBy = T;
      RS.Out = O;
      RS.TotalNs = TotalNsEach;
      RS.QueueNs = 1;
      RS.RunNs = TotalNsEach - 1;
      telemetry::onRequestComplete(RS);
    }
  };
  Feed(0x1, 100, 1000, Tier::Jit);              // 100k ns total
  Feed(0x2, 2, 1'000'000, Tier::Interp);        // 2M ns: hottest
  Feed(0x3, 10, 500, Tier::Jit, Outcome::RunError);

  std::vector<telemetry::HotKernel> Hot = telemetry::hotKernels();
  ASSERT_EQ(Hot.size(), 3u);
  EXPECT_EQ(Hot[0].Fingerprint, 0x2u);
  EXPECT_EQ(Hot[0].Requests, 2u);
  EXPECT_EQ(Hot[0].TotalNs, 2'000'000u);
  EXPECT_DOUBLE_EQ(Hot[0].MeanNs, 1'000'000.0);
  EXPECT_EQ(Hot[0].Interp, 2u);
  EXPECT_EQ(Hot[1].Fingerprint, 0x1u);
  EXPECT_EQ(Hot[2].Fingerprint, 0x3u);
  EXPECT_EQ(Hot[2].Errors, 10u);

  // TopK truncation.
  EXPECT_EQ(telemetry::hotKernels(1).size(), 1u);
}

//===----------------------------------------------------------------------===//
// Shape table (workload characterization)
//===----------------------------------------------------------------------===//

namespace {

/// Feeds one completed request with a shape key into the hooks.
void feedShape(uint64_t Fp, const std::string &Shape, uint64_t TotalNs,
               const std::string &Tenant = "default",
               uint64_t DeadlineNs = 0) {
  serve::telemetry::RequestSample RS;
  RS.Fingerprint = Fp;
  RS.ReqId = serve::nextRequestId();
  RS.Tenant = Tenant;
  RS.DeadlineNs = DeadlineNs;
  RS.ShapeKey = Shape;
  RS.TotalNs = TotalNs;
  RS.RunNs = TotalNs;
  serve::telemetry::onRequestComplete(RS);
}

} // namespace

TEST_F(TelemetryTest, HotShapesRankByTotalServedTime) {
  telemetry::setEnabled(true);
  feedShape(0x9, "x:f32[64]", 1000);
  feedShape(0x9, "x:f32[64]", 1000);
  feedShape(0x9, "x:f32[8192]", 50'000); // hottest: 1 req x 50k ns
  feedShape(0x7, "x:f32[16]", 10'000);

  std::vector<telemetry::ShapeStat> Hot = telemetry::hotShapes();
  ASSERT_EQ(Hot.size(), 3u);
  EXPECT_EQ(Hot[0].ShapeKey, "x:f32[8192]");
  EXPECT_EQ(Hot[0].Fingerprint, 0x9u);
  EXPECT_EQ(Hot[0].Requests, 1u);
  EXPECT_EQ(Hot[0].TotalNs, 50'000u);
  EXPECT_EQ(Hot[1].Fingerprint, 0x7u);
  EXPECT_EQ(Hot[2].ShapeKey, "x:f32[64]");
  EXPECT_EQ(Hot[2].Requests, 2u);
  EXPECT_DOUBLE_EQ(Hot[2].MeanNs, 1000.0);
  EXPECT_EQ(Hot[2].Lat.Count, 2u);
  EXPECT_DOUBLE_EQ(Hot[2].Lat.quantile(0.5), 1000.0);
  EXPECT_EQ(telemetry::hotShapes(1).size(), 1u);

  // Requests without a shape key (telemetry enabled mid-flight, say)
  // count for the kernel aggregate but add no shape row.
  telemetry::RequestSample NoShape;
  NoShape.Fingerprint = 0x9;
  NoShape.TotalNs = 99;
  telemetry::onRequestComplete(NoShape);
  EXPECT_EQ(telemetry::hotShapes().size(), 3u);
}

TEST_F(TelemetryTest, ShapeTableCapFoldsOverflowIntoOtherBucket) {
  telemetry::setEnabled(true);
  telemetry::setShapeTableCap(2);
  EXPECT_EQ(telemetry::shapeTableCap(), 2u);
  feedShape(0x5, "a", 100);
  feedShape(0x5, "b", 200);
  feedShape(0x5, "c", 300); // past the cap -> other
  feedShape(0x5, "d", 400); // other, second distinct shape
  feedShape(0x5, "c", 300); // other again, already counted as distinct
  feedShape(0x5, "a", 100); // existing row still updates past the cap

  std::vector<telemetry::ShapeStat> All = telemetry::shapeTable();
  ASSERT_EQ(All.size(), 3u); // a, b, other
  const telemetry::ShapeStat *Other = nullptr;
  uint64_t TrackedReqs = 0;
  for (const telemetry::ShapeStat &S : All) {
    if (S.ShapeKey == "other")
      Other = &S;
    else
      TrackedReqs += S.Requests;
  }
  ASSERT_NE(Other, nullptr);
  EXPECT_EQ(Other->Requests, 3u); // c, d, c
  EXPECT_EQ(Other->TotalNs, 1000u);
  EXPECT_EQ(TrackedReqs, 3u); // a x2 + b
  // hotShapes never nominates the overflow bucket.
  for (const telemetry::ShapeStat &S : telemetry::hotShapes())
    EXPECT_NE(S.ShapeKey, "other");
}

//===----------------------------------------------------------------------===//
// Per-tenant SLO accounting
//===----------------------------------------------------------------------===//

TEST_F(TelemetryTest, TenantSloTalliesMetMissedAndSlack) {
  telemetry::setEnabled(true);
  // acme: two met (slack 900, 500 ns), one missed (overrun 1000 ns).
  feedShape(0x1, "s", /*TotalNs=*/100, "acme", /*DeadlineNs=*/1000);
  feedShape(0x1, "s", 500, "acme", 1000);
  feedShape(0x1, "s", 2000, "acme", 1000);
  // beta: no deadline — counts requests, no verdict.
  feedShape(0x1, "s", 100, "beta", 0);

  std::vector<telemetry::TenantSlo> Slo = telemetry::tenantSlo();
  ASSERT_EQ(Slo.size(), 2u); // sorted by tenant name
  EXPECT_EQ(Slo[0].Tenant, "acme");
  EXPECT_EQ(Slo[0].Requests, 3u);
  EXPECT_EQ(Slo[0].Met, 2u);
  EXPECT_EQ(Slo[0].Missed, 1u);
  EXPECT_EQ(Slo[0].Slack.Count, 2u);
  EXPECT_EQ(Slo[0].Slack.Min, 500u);
  EXPECT_EQ(Slo[0].Slack.Max, 900u);
  EXPECT_EQ(Slo[1].Tenant, "beta");
  EXPECT_EQ(Slo[1].Requests, 1u);
  EXPECT_EQ(Slo[1].Met, 0u);
  EXPECT_EQ(Slo[1].Missed, 0u);

  // Process-wide counters and the met/missed histograms agree.
  EXPECT_EQ(metrics::counter("serve/deadline_met").load(), 2u);
  EXPECT_EQ(metrics::counter("serve/deadline_missed").load(), 1u);
  EXPECT_EQ(metrics::histogram("serve/slo_slack_ns").count(), 2u);
  EXPECT_EQ(metrics::histogram("serve/slo_overrun_ns").count(), 1u);
  metrics::HistogramSnapshot Overrun =
      metrics::histogram("serve/slo_overrun_ns").snapshot();
  EXPECT_EQ(Overrun.Min, 1000u); // 2000 - 1000
}

TEST_F(TelemetryTest, DeadlineExceededRequestsAreFlaggedInFlightRecorder) {
  telemetry::setEnabled(true);
  feedShape(0x1, "s", 100, "acme", 1000);  // met
  feedShape(0x1, "s", 5000, "acme", 1000); // missed
  std::vector<FlightEvent> Evs = flightRecorder().drain();
  ASSERT_EQ(Evs.size(), 2u);
  EXPECT_FALSE(Evs[0].DeadlineMissed);
  EXPECT_TRUE(Evs[1].DeadlineMissed);
  EXPECT_EQ(Evs[1].DeadlineNs, 1000u);
  EXPECT_EQ(Evs[1].Tenant, "acme");
  EXPECT_NE(Evs[1].ReqId, 0u);
  // Queue-vs-run breakdown survives into the event.
  EXPECT_EQ(Evs[1].TotalNs, 5000u);
  EXPECT_EQ(Evs[1].RunNs, 5000u);
}

//===----------------------------------------------------------------------===//
// Snapshot exporter
//===----------------------------------------------------------------------===//

TEST_F(TelemetryTest, ExporterWritesValidMonotoneSnapshotsWithRetention) {
  namespace fs = std::filesystem;
  char Tmpl[] = "/tmp/fttelem.XXXXXX";
  ASSERT_NE(::mkdtemp(Tmpl), nullptr);
  std::string Dir = Tmpl;

  telemetry::Config C;
  C.Dir = Dir;
  C.IntervalMs = 20;
  C.Keep = 3;
  ASSERT_TRUE(telemetry::startExporter(C).ok());
  EXPECT_TRUE(telemetry::enabled());

  telemetry::RequestSample RS;
  RS.Fingerprint = 0xdeadbeefcafef00dull;
  RS.TotalNs = 12345;
  telemetry::onRequestComplete(RS);

  // Long enough for several intervals; stop writes one more (the exit
  // dump), so retention must still hold afterwards.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  telemetry::stopExporter();

  std::vector<std::string> Names;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir))
    Names.push_back(E.path().filename().string());
  std::sort(Names.begin(), Names.end());
  ASSERT_GE(Names.size(), 2u) << "exporter wrote too few snapshots";
  EXPECT_LE(Names.size(), 3u) << "retention did not prune";

  double PrevSeq = 0;
  for (const std::string &N : Names) {
    ASSERT_EQ(N.rfind("snap-", 0), 0u) << N;
    auto R = json::parseFile((fs::path(Dir) / N).string());
    ASSERT_TRUE(R.ok()) << R.message();
    EXPECT_EQ(R->str("schema"), "freetensor-telemetry/v2");
    double Seq = R->num("seq");
    EXPECT_GT(Seq, PrevSeq) << "sequence numbers must be strictly monotone";
    PrevSeq = Seq;
    // The served fingerprint travels as a hex string.
    const json::Value *Kernels = R->get("kernels");
    ASSERT_NE(Kernels, nullptr);
    ASSERT_EQ(Kernels->items().size(), 1u);
    EXPECT_EQ(Kernels->items()[0].str("fingerprint"), "0xdeadbeefcafef00d");
    EXPECT_DOUBLE_EQ(Kernels->items()[0].num("total_ns"), 12345.0);
  }
  EXPECT_GE(telemetry::snapshotsWritten(), Names.size());

  std::system(("rm -rf '" + Dir + "'").c_str());
}

TEST_F(TelemetryTest, ExporterStopIsIdempotentConcurrentAndRestartable) {
  char Tmpl[] = "/tmp/fttelemstop.XXXXXX";
  ASSERT_NE(::mkdtemp(Tmpl), nullptr);
  std::string Dir = Tmpl;
  telemetry::Config C;
  C.Dir = Dir;
  C.IntervalMs = 10;
  C.Keep = 4;

  // Stop with nothing running is a no-op, any number of times.
  telemetry::stopExporter();
  telemetry::stopExporter();

  // The regression this guards: a start -> stop -> start cycle must
  // never let the new run's state clear a stopping run's flag (the old
  // single-struct exporter wedged the stopper's join exactly this way),
  // and concurrent stops must all return with exactly one joining.
  for (int Cycle = 0; Cycle < 5; ++Cycle) {
    ASSERT_TRUE(telemetry::startExporter(C).ok()) << "cycle " << Cycle;
    // Restart while running: stops the displaced run internally.
    ASSERT_TRUE(telemetry::startExporter(C).ok()) << "cycle " << Cycle;
    std::vector<std::thread> Stoppers;
    for (int I = 0; I < 8; ++I)
      Stoppers.emplace_back([] { telemetry::stopExporter(); });
    for (std::thread &T : Stoppers)
      T.join();
    telemetry::stopExporter(); // double stop after the race
  }

  // After all that churn a fresh exporter still exports.
  uint64_t Before = telemetry::snapshotsWritten();
  ASSERT_TRUE(telemetry::startExporter(C).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  telemetry::stopExporter();
  EXPECT_GT(telemetry::snapshotsWritten(), Before);

  std::system(("rm -rf '" + Dir + "'").c_str());
}

TEST_F(TelemetryTest, SnapshotCarriesShapeAndTenantSections) {
  telemetry::setEnabled(true);
  telemetry::setShapeTableCap(1);
  feedShape(0xabc, "x:f32[64]", 1000, "acme", 10'000); // met
  feedShape(0xabc, "x:f32[64]", 3000, "acme", 10'000); // met
  feedShape(0xabc, "x:f32[128]", 20'000, "acme", 10'000); // other, missed

  auto R = json::parse(telemetry::writeSnapshotString());
  ASSERT_TRUE(R.ok()) << R.message();
  EXPECT_EQ(R->str("schema"), "freetensor-telemetry/v2");

  const json::Value *Shapes = R->get("shapes");
  ASSERT_NE(Shapes, nullptr);
  ASSERT_EQ(Shapes->items().size(), 1u);
  const json::Value &Fp = Shapes->items()[0];
  EXPECT_EQ(Fp.str("fingerprint"), "0x0000000000000abc");
  EXPECT_DOUBLE_EQ(Fp.num("table_cap"), 1.0);
  const json::Value *Rows = Fp.get("rows");
  ASSERT_NE(Rows, nullptr);
  ASSERT_EQ(Rows->items().size(), 1u);
  const json::Value &Row = Rows->items()[0];
  EXPECT_EQ(Row.str("shape"), "x:f32[64]");
  EXPECT_DOUBLE_EQ(Row.num("requests"), 2.0);
  EXPECT_DOUBLE_EQ(Row.num("total_ns"), 4000.0);
  EXPECT_DOUBLE_EQ(Row.num("mean_ns"), 2000.0);
  EXPECT_DOUBLE_EQ(Row.num("min_ns"), 1000.0);
  EXPECT_DOUBLE_EQ(Row.num("max_ns"), 3000.0);
  const json::Value *Other = Fp.get("other");
  ASSERT_NE(Other, nullptr);
  EXPECT_DOUBLE_EQ(Other->num("requests"), 1.0);
  EXPECT_DOUBLE_EQ(Other->num("distinct_shapes"), 1.0);
  // Row + other requests sum to the fingerprint's served requests.
  std::vector<telemetry::HotKernel> Hot = telemetry::hotKernels();
  ASSERT_EQ(Hot.size(), 1u);
  EXPECT_EQ(Row.num("requests") + Other->num("requests"),
            double(Hot[0].Requests));

  const json::Value *Tenants = R->get("tenants");
  ASSERT_NE(Tenants, nullptr);
  ASSERT_EQ(Tenants->items().size(), 1u);
  const json::Value &T = Tenants->items()[0];
  EXPECT_EQ(T.str("tenant"), "acme");
  EXPECT_DOUBLE_EQ(T.num("requests"), 3.0);
  EXPECT_DOUBLE_EQ(T.num("met"), 2.0);
  EXPECT_DOUBLE_EQ(T.num("missed"), 1.0);
  const json::Value *Slack = T.get("slack");
  ASSERT_NE(Slack, nullptr);
  EXPECT_DOUBLE_EQ(Slack->num("count"), 2.0);
  EXPECT_DOUBLE_EQ(Slack->num("min_ns"), 7000.0);
  EXPECT_DOUBLE_EQ(Slack->num("max_ns"), 9000.0);

  // Flight events carry the request identity + deadline verdict.
  const json::Value *Flight = R->get("flight");
  ASSERT_NE(Flight, nullptr);
  const json::Value *Recent = Flight->get("recent");
  ASSERT_NE(Recent, nullptr);
  ASSERT_EQ(Recent->items().size(), 3u);
  const json::Value &Missed = Recent->items()[2];
  EXPECT_GT(Missed.num("req_id"), 0.0);
  EXPECT_EQ(Missed.str("tenant"), "acme");
  EXPECT_DOUBLE_EQ(Missed.num("deadline_ns"), 10'000.0);
  EXPECT_TRUE(Missed.get("deadline_missed") != nullptr &&
              Missed.get("deadline_missed")->asBool());
}

TEST_F(TelemetryTest, SnapshotStringParsesAndCarriesHistograms) {
  telemetry::setEnabled(true);
  metrics::histogram("serve/queue_wait_ns").record(1000);
  metrics::histogram("serve/queue_wait_ns").record(2000);

  auto R = json::parse(telemetry::writeSnapshotString());
  ASSERT_TRUE(R.ok()) << R.message();
  const json::Value *Hs = R->get("histograms");
  ASSERT_NE(Hs, nullptr);
  bool Found = false;
  for (const json::Value &H : Hs->items()) {
    if (H.str("name") != "serve/queue_wait_ns")
      continue;
    Found = true;
    EXPECT_DOUBLE_EQ(H.num("count"), 2.0);
    EXPECT_DOUBLE_EQ(H.num("sum"), 3000.0);
    EXPECT_DOUBLE_EQ(H.num("min"), 1000.0);
    EXPECT_DOUBLE_EQ(H.num("max"), 2000.0);
    ASSERT_NE(H.get("buckets"), nullptr);
    uint64_t Total = 0;
    for (const json::Value &B : H.get("buckets")->items()) {
      ASSERT_EQ(B.items().size(), 2u);
      Total += uint64_t(B.items()[1].asNumber());
    }
    EXPECT_EQ(Total, 2u);
  }
  EXPECT_TRUE(Found);
}

//===----------------------------------------------------------------------===//
// Telemetry must not perturb compilation
//===----------------------------------------------------------------------===//

TEST_F(TelemetryTest, GeneratedCodeIsByteIdenticalWithTelemetryOnOrOff) {
  FunctionBuilder B("telemaxpy");
  View X = B.input("x", {makeIntConst(64)});
  View Y = B.output("y", {makeIntConst(64)});
  B.loop("i", 0, 64, [&](Expr I) {
    Y[I].assign(X[I].load() * makeFloatConst(2.0) + makeFloatConst(1.0));
  });
  Func F = B.build();

  telemetry::setEnabled(false);
  std::string Off = generateCpp(F);
  telemetry::setEnabled(true);
  std::string On = generateCpp(F);
  EXPECT_EQ(Off, On);
}
