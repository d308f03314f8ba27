//===- tests/trace_test.cpp - Observability layer ---------------------------===//
//
// The tracing & metrics subsystem: span nesting/ordering invariants,
// annotations surviving to the Chrome-trace JSON sink, zero recording in
// disabled mode, the schedule decision audit log (a known-rejected reorder
// with its dependence reason), and snapshot() counters agreeing with the
// FT_METRICS counter table.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "autoschedule/autoschedule.h"
#include "frontend/builder.h"
#include "schedule/schedule.h"
#include "support/metrics.h"
#include "support/trace.h"

using namespace ft;

namespace {

Expr ic(int64_t V) { return makeIntConst(V); }

/// y[i][j] = y[i-1][j+1] + 1: the dependence direction over (i, j) is
/// (<, >), so swapping the two loops reverses it — the textbook illegal
/// reorder.
struct AntiDiagonal {
  Func F;
  int64_t Li = -1, Lj = -1;
};

AntiDiagonal buildAntiDiagonal() {
  FunctionBuilder B("r");
  View Y = B.output("y", {ic(8), ic(8)});
  AntiDiagonal T;
  T.Li = B.loop("i", 1, 8, [&](Expr I) {
    T.Lj = B.loop("j", 0, 7, [&](Expr J) {
      Y[I][J].assign(Y[makeSub(I, ic(1))][makeAdd(J, ic(1))].load() +
                     makeFloatConst(1.0));
    });
  });
  T.F = B.build();
  return T;
}

} // namespace

TEST(TraceTest, SpanNestingAndOrdering) {
  trace::EnabledGuard G;
  trace::clear();
  {
    trace::Span Outer("test/outer");
    {
      FT_SPAN("test/inner");
      trace::Span Innermost("test/innermost");
    }
  }
  auto Snap = trace::snapshot();
  ASSERT_EQ(Snap.Spans.size(), 3u);
  // Spans are recorded at close: innermost completes first.
  EXPECT_EQ(Snap.Spans[0].Name, "test/innermost");
  EXPECT_EQ(Snap.Spans[1].Name, "test/inner");
  EXPECT_EQ(Snap.Spans[2].Name, "test/outer");
  // Depth reflects nesting on the opening thread.
  EXPECT_EQ(Snap.Spans[2].Depth, 0);
  EXPECT_EQ(Snap.Spans[1].Depth, 1);
  EXPECT_EQ(Snap.Spans[0].Depth, 2);
  // Seq is the global completion order.
  EXPECT_LT(Snap.Spans[0].Seq, Snap.Spans[1].Seq);
  EXPECT_LT(Snap.Spans[1].Seq, Snap.Spans[2].Seq);
  // A child opens no earlier than its parent and fits inside it.
  EXPECT_GE(Snap.Spans[1].StartUs, Snap.Spans[2].StartUs);
  EXPECT_LE(Snap.Spans[1].StartUs + Snap.Spans[1].DurUs,
            Snap.Spans[2].StartUs + Snap.Spans[2].DurUs + 1e-3);
  trace::clear();
}

TEST(TraceTest, AnnotationsSurviveToJsonSink) {
  trace::EnabledGuard G;
  trace::clear();
  {
    trace::Span Sp("test/annotated");
    Sp.annotate("str_key", std::string("str value"));
    Sp.annotate("int_key", uint64_t(42));
  }
  const char *Path = "/tmp/ft_trace_test.json";
  Status St = trace::writeChromeTrace(Path);
  ASSERT_TRUE(St.ok()) << St.message();
  std::ifstream In(Path);
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::string Json = Buf.str();
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"test/annotated\""), std::string::npos);
  EXPECT_NE(Json.find("\"cat\":\"test\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(Json.find("\"str_key\":\"str value\""), std::string::npos);
  EXPECT_NE(Json.find("\"int_key\":\"42\""), std::string::npos);
  std::remove(Path);
  trace::clear();
}

TEST(TraceTest, JsonEscaping) {
  trace::EnabledGuard G;
  trace::clear();
  {
    trace::Span Sp("test/escape");
    Sp.annotate("quote", std::string("a \"b\" \\ c\nd"));
  }
  const char *Path = "/tmp/ft_trace_escape_test.json";
  ASSERT_TRUE(trace::writeChromeTrace(Path).ok());
  std::ifstream In(Path);
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::string Json = Buf.str();
  EXPECT_NE(Json.find("a \\\"b\\\" \\\\ c\\nd"), std::string::npos);
  std::remove(Path);
  trace::clear();
}

TEST(TraceTest, FlowEventsLinkSpansAcrossThreads) {
  trace::EnabledGuard G;
  trace::clear();
  {
    trace::Span Producer("test/enqueue");
    trace::emitFlow("test/req", 7, 's');
  }
  {
    trace::Span Step("test/request");
    trace::emitFlow("test/req", 7, 't');
  }
  {
    trace::Span Consumer("test/compile");
    trace::emitFlow("test/req", 7, 'f');
  }
  auto Snap = trace::snapshot();
  ASSERT_EQ(Snap.Flows.size(), 3u);
  EXPECT_EQ(Snap.Flows[0].Phase, 's');
  EXPECT_EQ(Snap.Flows[1].Phase, 't');
  EXPECT_EQ(Snap.Flows[2].Phase, 'f');
  for (const trace::FlowEvent &E : Snap.Flows) {
    EXPECT_EQ(E.Name, "test/req");
    EXPECT_EQ(E.Id, 7u);
  }
  // Timestamps are monotone in emission order so each point binds to the
  // span that was open when it was emitted.
  EXPECT_LE(Snap.Flows[0].TsUs, Snap.Flows[1].TsUs);
  EXPECT_LE(Snap.Flows[1].TsUs, Snap.Flows[2].TsUs);

  const char *Path = "/tmp/ft_trace_flow_test.json";
  ASSERT_TRUE(trace::writeChromeTrace(Path).ok());
  std::ifstream In(Path);
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::string Json = Buf.str();
  EXPECT_NE(Json.find("\"cat\":\"flow\",\"ph\":\"s\",\"id\":7"),
            std::string::npos);
  EXPECT_NE(Json.find("\"cat\":\"flow\",\"ph\":\"t\",\"id\":7"),
            std::string::npos);
  // The finish carries bp:"e" so it binds to its enclosing slice.
  EXPECT_NE(Json.find("\"cat\":\"flow\",\"ph\":\"f\",\"id\":7"),
            std::string::npos);
  size_t FPos = Json.find("\"ph\":\"f\",\"id\":7");
  ASSERT_NE(FPos, std::string::npos);
  EXPECT_NE(Json.find("\"bp\":\"e\"", FPos), std::string::npos);
  std::remove(Path);
  trace::clear();
}

TEST(TraceTest, FlowEventsRespectDisabledModeAndClear) {
  {
    trace::EnabledGuard G(/*On=*/false, /*Audit=*/false);
    trace::emitFlow("test/req", 9, 's');
    EXPECT_EQ(trace::snapshot().Flows.size(), 0u);
  }
  {
    trace::EnabledGuard G;
    trace::clear();
    trace::emitFlow("test/req", 9, 's');
    EXPECT_EQ(trace::snapshot().Flows.size(), 1u);
    trace::clear();
    EXPECT_EQ(trace::snapshot().Flows.size(), 0u);
  }
}

TEST(TraceTest, DisabledModeEmitsNothing) {
  trace::EnabledGuard G(/*On=*/false, /*Audit=*/false);
  trace::clear();
  size_t Before = trace::snapshot().Spans.size();
  {
    FT_SPAN("test/should_not_record");
    trace::Span Sp("test/also_not");
    Sp.annotate("k", std::string("v"));
    EXPECT_FALSE(Sp.active());
  }
  Schedule S(buildAntiDiagonal().F);
  (void)S.split(987654321, 2); // Audit off: no decision either.
  auto Snap = trace::snapshot();
  EXPECT_EQ(Snap.Spans.size(), Before);
  EXPECT_EQ(Snap.Audit.size(), 0u);
}

TEST(TraceTest, AuditLogRecordsRejectedReorder) {
  trace::AuditGuard G; // Audit forced on, spans untouched.
  AntiDiagonal T = buildAntiDiagonal();
  Schedule S(T.F);
  size_t Mark = trace::auditSize();
  Status St = S.reorder({T.Lj, T.Li});
  ASSERT_FALSE(St.ok());
  EXPECT_NE(St.message().find("reverse a dependence"), std::string::npos);

  auto Log = trace::auditLogSince(Mark);
  ASSERT_EQ(Log.size(), 1u);
  const trace::ScheduleDecision &D = Log[0];
  EXPECT_EQ(D.Primitive, "reorder");
  EXPECT_FALSE(D.Applied);
  EXPECT_EQ(D.Reason, St.message());
  EXPECT_NE(D.Target.find("loops ["), std::string::npos);
  // The legality check issued real dependence queries.
  EXPECT_GT(D.DepQueries, 0u);

  // An applied primitive records Applied=true with an empty reason.
  Mark = trace::auditSize();
  auto R = S.split(T.Lj, 7);
  ASSERT_TRUE(R.ok()) << R.message();
  Log = trace::auditLogSince(Mark);
  ASSERT_EQ(Log.size(), 1u);
  EXPECT_EQ(Log[0].Primitive, "split");
  EXPECT_TRUE(Log[0].Applied);
  EXPECT_TRUE(Log[0].Reason.empty());
}

TEST(TraceTest, SnapshotCountersMatchLegacyStats) {
  metrics::resetPrefix("deps/");
  AntiDiagonal T = buildAntiDiagonal();
  Schedule S(T.F);
  (void)S.vectorize(T.Lj); // Issues dependence queries.
  uint64_t Queries = metrics::counter("deps/dep_queries").load();
  ASSERT_GT(Queries, 0u);

  // Programmatic snapshot sees the same value under the registry name.
  auto Snap = trace::snapshot();
  uint64_t FromSnapshot = 0;
  bool Found = false;
  for (const auto &[Name, Val] : Snap.Counters)
    if (Name == "deps/dep_queries") {
      FromSnapshot = Val;
      Found = true;
    }
  ASSERT_TRUE(Found);
  EXPECT_EQ(FromSnapshot, Queries);

  // And the FT_METRICS=1 counter table prints the same number.
  const char *Path = "/tmp/ft_metrics_summary_test.txt";
  std::FILE *F = std::fopen(Path, "w");
  ASSERT_NE(F, nullptr);
  trace::writeMetricsSummary(F);
  std::fclose(F);
  std::ifstream In(Path);
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::string Table = Buf.str();
  std::remove(Path);
  size_t Row = Table.find("  deps/dep_queries ");
  ASSERT_NE(Row, std::string::npos) << Table;
  std::istringstream Line(Table.substr(Row, Table.find('\n', Row) - Row));
  std::string Name;
  uint64_t Printed = 0;
  Line >> Name >> Printed;
  EXPECT_EQ(Printed, Queries) << Table;
}

TEST(TraceTest, MetricsRegistryBasics) {
  metrics::Counter &C = metrics::counter("test/basics");
  metrics::Counter &Same = metrics::counter("test/basics");
  EXPECT_EQ(&C, &Same); // Stable identity per name.
  C.store(0);
  C.fetch_add(3);
  EXPECT_EQ(C.load(), 3u);
  bool Seen = false;
  for (const auto &[Name, Val] : metrics::snapshot())
    if (Name == "test/basics") {
      EXPECT_EQ(Val, 3u);
      Seen = true;
    }
  EXPECT_TRUE(Seen);
}

TEST(TraceTest, AutoScheduleRuleTally) {
  AntiDiagonal T = buildAntiDiagonal();
  AutoScheduleReport Rep;
  // Collected even with tracing off: autoSchedule forces the audit log.
  (void)autoScheduleFunc(T.F, {}, &Rep);
  int Tried = 0;
  for (const auto &[Rule, Tally] : Rep.Rules) {
    EXPECT_EQ(Tally.Tried, Tally.Applied + Tally.Rejected) << Rule;
    Tried += Tally.Tried;
  }
  EXPECT_GT(Tried, 0);
}
