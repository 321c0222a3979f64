#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "sim/dag.hpp"
#include "sim/engine.hpp"
#include "obs/critical_path.hpp"
#include "sim/flow_network.hpp"
#include "util/check.hpp"

namespace psdns::sim {
namespace {

using obs::SpanKind;

TEST(Engine, EventsFireInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(2.0, [&] { order.push_back(2); });
  eng.schedule_at(1.0, [&] { order.push_back(1); });
  eng.schedule_at(3.0, [&] { order.push_back(3); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(eng.now(), 3.0);
}

TEST(Engine, TiesFireInSchedulingOrder) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    eng.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, NestedSchedulingAdvancesClock) {
  Engine eng;
  double fired_at = -1.0;
  eng.schedule_at(1.0, [&] {
    eng.schedule_after(0.5, [&] { fired_at = eng.now(); });
  });
  eng.run();
  EXPECT_DOUBLE_EQ(fired_at, 1.5);
}

TEST(Engine, RejectsPastEvents) {
  Engine eng;
  eng.schedule_at(1.0, [&] {
    EXPECT_THROW(eng.schedule_at(0.5, [] {}), util::Error);
  });
  eng.run();
}

// --- FlowNetwork ---

TEST(FlowNetwork, SingleFlowRunsAtCapacity) {
  Engine eng;
  FlowNetwork net(eng);
  const LinkId link = net.add_link("nic", 100.0);  // 100 B/s
  double done_at = -1.0;
  net.start_flow({link}, 500.0, 1e12, [&] { done_at = eng.now(); });
  eng.run();
  EXPECT_NEAR(done_at, 5.0, 1e-9);
}

TEST(FlowNetwork, RateCapLimitsBelowCapacity) {
  Engine eng;
  FlowNetwork net(eng);
  const LinkId link = net.add_link("nic", 100.0);
  double done_at = -1.0;
  net.start_flow({link}, 500.0, 50.0, [&] { done_at = eng.now(); });
  eng.run();
  EXPECT_NEAR(done_at, 10.0, 1e-9);
}

TEST(FlowNetwork, TwoFlowsShareFairly) {
  Engine eng;
  FlowNetwork net(eng);
  const LinkId link = net.add_link("bus", 100.0);
  double t1 = -1.0, t2 = -1.0;
  net.start_flow({link}, 100.0, 1e12, [&] { t1 = eng.now(); });
  net.start_flow({link}, 100.0, 1e12, [&] { t2 = eng.now(); });
  eng.run();
  // Both run at 50 B/s -> both complete at t=2.
  EXPECT_NEAR(t1, 2.0, 1e-9);
  EXPECT_NEAR(t2, 2.0, 1e-9);
}

TEST(FlowNetwork, DepartureSpeedsUpRemainingFlow) {
  Engine eng;
  FlowNetwork net(eng);
  const LinkId link = net.add_link("bus", 100.0);
  double t_small = -1.0, t_big = -1.0;
  net.start_flow({link}, 50.0, 1e12, [&] { t_small = eng.now(); });
  net.start_flow({link}, 150.0, 1e12, [&] { t_big = eng.now(); });
  eng.run();
  // Shared at 50 B/s until t=1 (small done); big has 100 left, then runs at
  // 100 B/s -> finishes at t=2.
  EXPECT_NEAR(t_small, 1.0, 1e-9);
  EXPECT_NEAR(t_big, 2.0, 1e-9);
}

TEST(FlowNetwork, LateArrivalSlowsExistingFlow) {
  Engine eng;
  FlowNetwork net(eng);
  const LinkId link = net.add_link("bus", 100.0);
  double t1 = -1.0, t2 = -1.0;
  net.start_flow({link}, 100.0, 1e12, [&] { t1 = eng.now(); });
  eng.schedule_at(0.5, [&] {
    net.start_flow({link}, 100.0, 1e12, [&] { t2 = eng.now(); });
  });
  eng.run();
  // Flow 1: 50 B alone (0.5 s), then 50 B at 50 B/s -> t=1.5.
  // Flow 2: 50 B at 50 B/s (until t=1.5), then 50 B at 100 B/s -> t=2.0.
  EXPECT_NEAR(t1, 1.5, 1e-9);
  EXPECT_NEAR(t2, 2.0, 1e-9);
}

TEST(FlowNetwork, MultiLinkPathTakesBottleneck) {
  Engine eng;
  FlowNetwork net(eng);
  const LinkId fast = net.add_link("nvlink", 1000.0);
  const LinkId slow = net.add_link("nic", 10.0);
  double t = -1.0;
  net.start_flow({fast, slow}, 100.0, 1e12, [&] { t = eng.now(); });
  eng.run();
  EXPECT_NEAR(t, 10.0, 1e-9);
}

TEST(FlowNetwork, MaxMinWithHeterogeneousPaths) {
  // Flow A uses only link1 (cap 100); flow B uses link1+link2 (link2 cap 30).
  // B is bottlenecked at 30 by link2, A gets the rest (70).
  Engine eng;
  FlowNetwork net(eng);
  const LinkId l1 = net.add_link("l1", 100.0);
  const LinkId l2 = net.add_link("l2", 30.0);
  double ta = -1.0, tb = -1.0;
  net.start_flow({l1}, 700.0, 1e12, [&] { ta = eng.now(); });
  net.start_flow({l1, l2}, 300.0, 1e12, [&] { tb = eng.now(); });
  eng.run();
  EXPECT_NEAR(ta, 10.0, 1e-6);
  EXPECT_NEAR(tb, 10.0, 1e-6);
}

TEST(FlowNetwork, ZeroByteFlowCompletesImmediately) {
  Engine eng;
  FlowNetwork net(eng);
  const LinkId l = net.add_link("l", 10.0);
  bool done = false;
  net.start_flow({l}, 0.0, 1e12, [&] { done = true; });
  eng.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(eng.now(), 0.0);
}

TEST(FlowNetwork, EmptyPathUsesRateCapOnly) {
  Engine eng;
  FlowNetwork net(eng);
  double t = -1.0;
  net.start_flow({}, 100.0, 20.0, [&] { t = eng.now(); });
  eng.run();
  EXPECT_NEAR(t, 5.0, 1e-9);
}

// --- DagRunner ---

TEST(Dag, LaneSerializesOps) {
  Engine eng;
  FlowNetwork net(eng);
  DagRunner dag(eng, net);
  const LaneId lane = dag.add_lane("stream");
  const OpId a = dag.add_op("a", lane, SpanKind::Compute, 1.0, {});
  const OpId b = dag.add_op("b", lane, SpanKind::Compute, 2.0, {});
  const double makespan = dag.run();
  EXPECT_DOUBLE_EQ(makespan, 3.0);
  EXPECT_DOUBLE_EQ(dag.start_time(b), dag.finish_time(a));
}

TEST(Dag, IndependentLanesOverlap) {
  Engine eng;
  FlowNetwork net(eng);
  DagRunner dag(eng, net);
  const LaneId l1 = dag.add_lane("compute");
  const LaneId l2 = dag.add_lane("transfer");
  dag.add_op("a", l1, SpanKind::Compute, 2.0, {});
  dag.add_op("b", l2, SpanKind::Transfer, 2.0, {});
  EXPECT_DOUBLE_EQ(dag.run(), 2.0);
}

TEST(Dag, CrossLaneDependencyEnforced) {
  // Event-style sync: compute waits on the H2D in the other lane.
  Engine eng;
  FlowNetwork net(eng);
  DagRunner dag(eng, net);
  const LaneId transfer = dag.add_lane("transfer");
  const LaneId compute = dag.add_lane("compute");
  const OpId h2d = dag.add_op("h2d", transfer, SpanKind::Transfer, 1.5, {});
  const OpId fft = dag.add_op("fft", compute, SpanKind::Compute, 1.0, {h2d});
  EXPECT_DOUBLE_EQ(dag.run(), 2.5);
  EXPECT_DOUBLE_EQ(dag.start_time(fft), 1.5);
}

TEST(Dag, OverheadChargedBeforeBody) {
  Engine eng;
  FlowNetwork net(eng);
  DagRunner dag(eng, net);
  const LaneId lane = dag.add_lane("s");
  const OpId op =
      dag.add_op("k", lane, SpanKind::Compute, 1.0, {}, /*overhead=*/0.25);
  EXPECT_DOUBLE_EQ(dag.run(), 1.25);
  EXPECT_DOUBLE_EQ(dag.start_time(op), 0.0);
}

TEST(Dag, FlowOpsContendOnSharedLink) {
  // Two 100-byte transfers in different lanes over one 100 B/s link: fair
  // sharing makes both finish at t=2, so the makespan sees the contention.
  Engine eng;
  FlowNetwork net(eng);
  const LinkId bus = net.add_link("bus", 100.0);
  DagRunner dag(eng, net);
  const LaneId l1 = dag.add_lane("a");
  const LaneId l2 = dag.add_lane("b");
  dag.add_flow_op("x", l1, SpanKind::Transfer, 100.0, {bus}, 1e12, {});
  dag.add_flow_op("y", l2, SpanKind::Comm, 100.0, {bus}, 1e12, {});
  EXPECT_NEAR(dag.run(), 2.0, 1e-9);
}

TEST(Dag, DiamondDependencyJoins) {
  Engine eng;
  FlowNetwork net(eng);
  DagRunner dag(eng, net);
  const LaneId l1 = dag.add_lane("a");
  const LaneId l2 = dag.add_lane("b");
  const LaneId l3 = dag.add_lane("c");
  const OpId src = dag.add_op("src", l1, SpanKind::Compute, 1.0, {});
  const OpId left = dag.add_op("left", l1, SpanKind::Compute, 1.0, {src});
  const OpId right = dag.add_op("right", l2, SpanKind::Compute, 3.0, {src});
  const OpId join =
      dag.add_op("join", l3, SpanKind::Compute, 0.5, {left, right});
  EXPECT_DOUBLE_EQ(dag.run(), 4.5);
  EXPECT_DOUBLE_EQ(dag.start_time(join), 4.0);
}

TEST(Dag, RecordsCaptureCategories) {
  Engine eng;
  FlowNetwork net(eng);
  DagRunner dag(eng, net);
  const LaneId lane = dag.add_lane("s", /*rank=*/2);
  dag.add_op("a", lane, SpanKind::Transfer, 1.0, {});
  dag.add_op("b", lane, SpanKind::Compute, 2.0, {});
  dag.add_op("c", lane, SpanKind::Transfer, 0.5, {});
  dag.run();
  const obs::SpanTrace trace = dag.trace();
  EXPECT_DOUBLE_EQ(obs::busy_time(trace, SpanKind::Transfer), 1.5);
  EXPECT_DOUBLE_EQ(obs::busy_time(trace, SpanKind::Compute), 2.0);
  ASSERT_EQ(trace.spans.size(), 3u);
  EXPECT_EQ(trace.spans[1].name, "b");
  EXPECT_EQ(trace.spans[1].id, 2u);
  EXPECT_EQ(trace.spans[1].kind, SpanKind::Compute);
  EXPECT_EQ(trace.spans[1].thread, 0);
  EXPECT_EQ(trace.spans[1].rank, 2);
  EXPECT_DOUBLE_EQ(trace.spans[1].start_s, 1.0);
  EXPECT_DOUBLE_EQ(trace.spans[1].end_s, 3.0);
  EXPECT_EQ(trace.thread_names, std::vector<std::string>{"s"});
  EXPECT_TRUE(trace.edges.empty());  // in-lane order is implicit
}

TEST(Dag, TraceSortsSpansByStartAndKeepsExplicitDependencies) {
  Engine eng;
  FlowNetwork net(eng);
  DagRunner dag(eng, net);
  const LaneId transfer = dag.add_lane("r0.transfer", 0);
  const LaneId compute = dag.add_lane("r0.compute", 0);
  const LaneId mpi = dag.add_lane("r1.mpi", 1);
  const OpId late = dag.add_op("late", mpi, SpanKind::Comm, 1.0, {});
  const OpId h2d = dag.add_op("h2d", transfer, SpanKind::Transfer, 2.0, {});
  dag.add_op("fft", compute, SpanKind::Compute, 1.0, {h2d, late});
  dag.run();
  const obs::SpanTrace trace = dag.trace();
  ASSERT_EQ(trace.spans.size(), 3u);
  // Ties keep issue order; the dependent op comes last.
  EXPECT_EQ(trace.spans[0].name, "late");
  EXPECT_EQ(trace.spans[1].name, "h2d");
  EXPECT_EQ(trace.spans[2].name, "fft");
  EXPECT_EQ(trace.spans[2].thread, 1);
  EXPECT_EQ(trace.spans[0].rank, 1);
  EXPECT_DOUBLE_EQ(trace.spans[2].start_s, 2.0);
  ASSERT_EQ(trace.edges.size(), 2u);
  EXPECT_EQ(trace.edges[0].src, h2d.index + 1);
  EXPECT_EQ(trace.edges[1].src, late.index + 1);
  EXPECT_EQ(trace.edges[0].dst, 3u);
  EXPECT_NE(trace.edges[0].flow, trace.edges[1].flow);
  EXPECT_EQ(trace.thread_names,
            (std::vector<std::string>{"r0.transfer", "r0.compute", "r1.mpi"}));
}

// --- interference classes ---

TEST(FlowNetwork, InterferenceDegradesVictimWhileAggressorActive) {
  Engine eng;
  FlowNetwork net(eng);
  const LinkId bus = net.add_link("bus", 1000.0);
  net.set_interference(/*victim=*/1, /*aggressor=*/0);

  // Victim: 100 B at cap 100, factor 0.5 -> runs at 50 while the aggressor
  // (200 B at cap 200) is active (finishes at t=1), then at 100.
  double victim_done = -1.0, aggressor_done = -1.0;
  net.start_flow({bus}, 100.0, 100.0, [&] { victim_done = eng.now(); },
                 /*klass=*/1, /*interference_factor=*/0.5);
  net.start_flow({bus}, 200.0, 200.0, [&] { aggressor_done = eng.now(); },
                 /*klass=*/0);
  eng.run();
  EXPECT_NEAR(aggressor_done, 1.0, 1e-9);
  // Victim: 50 B by t=1, remaining 50 B at rate 100 -> t=1.5.
  EXPECT_NEAR(victim_done, 1.5, 1e-9);
}

TEST(FlowNetwork, NoInterferenceWithoutSharedLink) {
  Engine eng;
  FlowNetwork net(eng);
  const LinkId l1 = net.add_link("l1", 1000.0);
  const LinkId l2 = net.add_link("l2", 1000.0);
  net.set_interference(1, 0);
  double victim_done = -1.0;
  net.start_flow({l1}, 100.0, 100.0, [&] { victim_done = eng.now(); }, 1,
                 0.5);
  net.start_flow({l2}, 1000.0, 500.0, [] {}, 0);
  eng.run();
  EXPECT_NEAR(victim_done, 1.0, 1e-9);  // full cap: different link
}

TEST(FlowNetwork, FactorOneMeansNoDegradation) {
  Engine eng;
  FlowNetwork net(eng);
  const LinkId bus = net.add_link("bus", 1000.0);
  net.set_interference(1, 0);
  double victim_done = -1.0;
  net.start_flow({bus}, 100.0, 100.0, [&] { victim_done = eng.now(); }, 1,
                 1.0);
  net.start_flow({bus}, 500.0, 500.0, [] {}, 0);
  eng.run();
  EXPECT_NEAR(victim_done, 1.0, 1e-9);
}

TEST(FlowNetwork, AggressorsUnaffectedByVictims) {
  Engine eng;
  FlowNetwork net(eng);
  const LinkId bus = net.add_link("bus", 1000.0);
  net.set_interference(1, 0);
  double aggressor_done = -1.0;
  net.start_flow({bus}, 100.0, 100.0, [] {}, 1, 0.1);
  net.start_flow({bus}, 200.0, 200.0, [&] { aggressor_done = eng.now(); }, 0);
  eng.run();
  EXPECT_NEAR(aggressor_done, 1.0, 1e-9);
}

// --- busy time of a trace ---

/// Spans of one kind, [start, end) each, on one untagged track.
obs::SpanTrace comm_spans(
    const std::vector<std::pair<double, double>>& intervals) {
  obs::SpanTrace trace;
  for (const auto& [start, end] : intervals) {
    obs::SpanRecord s;
    s.id = trace.spans.size() + 1;
    s.kind = SpanKind::Comm;
    s.start_s = start;
    s.end_s = end;
    trace.spans.push_back(s);
  }
  return trace;
}

TEST(Trace, BusyTimeMergesOverlaps) {
  const obs::SpanTrace recs = comm_spans({{0.0, 2.0}, {1.0, 3.0}, {5.0, 6.0}});
  EXPECT_DOUBLE_EQ(obs::busy_time(recs, SpanKind::Comm), 4.0);
  EXPECT_DOUBLE_EQ(obs::busy_time(recs, SpanKind::Transfer), 0.0);
}

TEST(Trace, BusyTimeEmptyRecords) {
  EXPECT_DOUBLE_EQ(obs::busy_time(obs::SpanTrace{}, SpanKind::Comm), 0.0);
}

TEST(Trace, BusyTimeZeroLengthOpsContributeNothing) {
  // An inverted interval (finish < start) is also length zero for busy time.
  const obs::SpanTrace recs = comm_spans({{1.0, 1.0}, {2.0, 2.0}, {5.0, 4.0}});
  EXPECT_DOUBLE_EQ(obs::busy_time(recs, SpanKind::Comm), 0.0);
}

TEST(Trace, BusyTimeBackToBackIntervalsMergeWithoutDoubleCount) {
  // [0,1] and [1,2] share only the endpoint: busy time is 2, not 2 + 0.
  const obs::SpanTrace recs = comm_spans({{0.0, 1.0}, {1.0, 2.0}});
  EXPECT_DOUBLE_EQ(obs::busy_time(recs, SpanKind::Comm), 2.0);
}

TEST(Trace, BusyTimeNegativeStartTimes) {
  // Spans before t=0 must not be swallowed by a sentinel "start" value.
  const obs::SpanTrace recs = comm_spans({{-3.0, -1.0}, {1.0, 2.0}});
  EXPECT_DOUBLE_EQ(obs::busy_time(recs, SpanKind::Comm), 3.0);
}

TEST(Trace, BusyTimeDuplicateAndNestedSpans) {
  const obs::SpanTrace recs = comm_spans({{0.0, 4.0}, {0.0, 4.0}, {1.0, 2.0}});
  EXPECT_DOUBLE_EQ(obs::busy_time(recs, SpanKind::Comm), 4.0);
}

TEST(Trace, BusyTimeZeroLengthOpsMixedWithRealOnes) {
  // A zero-length op at t=10 must not seed a merge interval that bridges
  // to later real work.
  const obs::SpanTrace recs =
      comm_spans({{10.0, 10.0}, {0.0, 1.0}, {20.0, 21.0}});
  EXPECT_DOUBLE_EQ(obs::busy_time(recs, SpanKind::Comm), 2.0);
}

}  // namespace
}  // namespace psdns::sim
