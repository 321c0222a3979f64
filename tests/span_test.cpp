// Causal span tracing (obs/span.hpp), critical-path / overlap analysis
// (obs/critical_path.hpp) and the perf-regression diff (obs/perfdiff.hpp).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "dns/spectral_core.hpp"
#include "obs/bench_report.hpp"
#include "obs/critical_path.hpp"
#include "obs/json.hpp"
#include "obs/perfdiff.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "obs/trace_export.hpp"
#include "pipeline/dns_step_model.hpp"
#include "transpose/dist_fft.hpp"

namespace {

using namespace psdns;
using obs::SpanKind;
using obs::SpanRecord;
using obs::SpanTrace;
using obs::TraceSpan;

/// Every test starts with tracing off, default capacity, empty buffers.
class SpanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_tracing(false);
    obs::set_trace_capacity(1 << 16);
    obs::set_trace_file("");
    obs::clear_trace();
  }
  void TearDown() override { SetUp(); }
};

const SpanRecord* find_span(const SpanTrace& trace, const std::string& name) {
  for (const auto& s : trace.spans) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

TEST_F(SpanTest, DisabledTracingRecordsNothing) {
  {
    TraceSpan outer("outer", SpanKind::Compute);
    EXPECT_EQ(outer.id(), 0u);
    EXPECT_EQ(obs::current_span(), 0u);
  }
  const auto trace = obs::collect_trace();
  EXPECT_TRUE(trace.spans.empty());
  EXPECT_TRUE(trace.edges.empty());
}

TEST_F(SpanTest, NestingRecordsParentsAndTiming) {
  obs::set_tracing(true);
  {
    TraceSpan outer("outer", SpanKind::Compute);
    EXPECT_NE(outer.id(), 0u);
    EXPECT_EQ(obs::current_span(), outer.id());
    {
      TraceSpan inner("inner", SpanKind::Transfer);
      EXPECT_EQ(obs::current_span(), inner.id());
    }
    EXPECT_EQ(obs::current_span(), outer.id());
  }
  const auto trace = obs::collect_trace();
  ASSERT_EQ(trace.spans.size(), 2u);
  const auto* outer = find_span(trace, "outer");
  const auto* inner = find_span(trace, "inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->parent, 0u);
  EXPECT_EQ(inner->parent, outer->id);
  EXPECT_EQ(outer->kind, SpanKind::Compute);
  EXPECT_EQ(inner->kind, SpanKind::Transfer);
  // The inner span nests temporally inside the outer one.
  EXPECT_LE(outer->start_s, inner->start_s);
  EXPECT_LE(inner->end_s, outer->end_s);
  EXPECT_GE(inner->duration(), 0.0);
}

TEST_F(SpanTest, EndIsIdempotentAndEarly) {
  obs::set_tracing(true);
  TraceSpan span("early", SpanKind::Other);
  span.end();
  span.end();  // no-op
  EXPECT_EQ(span.id(), 0u);
  EXPECT_EQ(obs::current_span(), 0u);
  const auto trace = obs::collect_trace();
  ASSERT_EQ(trace.spans.size(), 1u);
  EXPECT_EQ(trace.spans[0].name, "early");
}

std::int64_t histogram_count(std::string_view name) {
  return obs::registry().histogram(name).count;
}

TEST_F(SpanTest, EndFeedsTheRegistryHistogram) {
  // Every span observes its seconds into the histogram named after it,
  // with tracing off and on, exactly once however it is ended.
  for (const bool on : {false, true}) {
    obs::set_tracing(on);
    const char* name =
        on ? "span_test.histogram.traced" : "span_test.histogram.untraced";
    const std::int64_t before = histogram_count(name);
    { TraceSpan span(name, SpanKind::Compute); }
    EXPECT_EQ(histogram_count(name) - before, 1);
    {
      TraceSpan span(name, SpanKind::Compute);
      const double elapsed = span.end();
      EXPECT_GE(elapsed, 0.0);
      EXPECT_DOUBLE_EQ(span.end(), 0.0);  // a second end is a no-op
      EXPECT_EQ(histogram_count(name) - before, 2);
    }
    // The destructor of an ended span does not count it again.
    EXPECT_EQ(histogram_count(name) - before, 2);
    EXPECT_GE(obs::registry().histogram(name).sum, 0.0);
    const auto trace = obs::collect_trace();
    EXPECT_EQ(trace.spans.size(), on ? 2u : 0u);
  }
}

TEST_F(SpanTest, TogglingTracingWhileSpansRunIsRaceFree) {
  // Restarts and clears on one thread race spans opened, closed and
  // recorded on others (the campaign driver re-applies PSDNS_TRACE on
  // every rank thread while peers already run spans). Under TSan this is
  // the data-race check for the trace epoch and clock origin. Small rings
  // keep the per-restart re-registration cheap.
  obs::set_trace_capacity(64);
  std::atomic<bool> stop{false};
  std::atomic<int> iterations{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([&stop, &iterations] {
      for (; !stop.load(std::memory_order_relaxed); ++iterations) {
        TraceSpan outer("span_test.toggle.outer", SpanKind::Compute);
        { TraceSpan inner("span_test.toggle.inner", SpanKind::Other); }
        const double t0 = obs::trace_clock();
        obs::record_span("span_test.toggle.explicit", SpanKind::Other, t0,
                         obs::trace_clock(), obs::current_span());
      }
    });
  }
  // Keep restarting until the workers have run 2000 iterations between
  // the restarts.
  for (int i = 0; i < 200 || iterations.load() < 2000; ++i) {
    obs::set_tracing(true);
    obs::clear_trace();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : workers) w.join();
  // Whatever the interleaving, the surviving records are well formed.
  for (const auto& s : obs::collect_trace().spans) {
    EXPECT_NE(s.id, 0u);
    EXPECT_FALSE(s.name.empty());
  }
  EXPECT_GE(histogram_count("span_test.toggle.outer"), 2000);
}

TEST_F(SpanTest, RingWrapKeepsNewestAndCountsDropped) {
  obs::set_trace_capacity(8);
  obs::set_tracing(true);
  for (int i = 0; i < 13; ++i) {
    // The span holds its name by reference: it must outlive the span.
    const std::string name = "s" + std::to_string(i);
    TraceSpan span(name, SpanKind::Compute);
  }
  const auto trace = obs::collect_trace();
  EXPECT_EQ(trace.spans.size(), 8u);
  EXPECT_EQ(trace.dropped, 5);
  // The oldest five were overwritten; the newest survive in order.
  EXPECT_EQ(find_span(trace, "s4"), nullptr);
  ASSERT_NE(find_span(trace, "s5"), nullptr);
  ASSERT_NE(find_span(trace, "s12"), nullptr);
}

TEST_F(SpanTest, ReenablingClearsAndRestartsClock) {
  obs::set_tracing(true);
  { TraceSpan span("first", SpanKind::Compute); }
  obs::set_tracing(true);  // restart
  { TraceSpan span("second", SpanKind::Compute); }
  const auto trace = obs::collect_trace();
  ASSERT_EQ(trace.spans.size(), 1u);
  EXPECT_EQ(trace.spans[0].name, "second");
}

TEST_F(SpanTest, FlowEdgeTiesEmitterToConsumer) {
  obs::set_tracing(true);
  const obs::FlowId flow = obs::new_flow();
  ASSERT_NE(flow, 0u);
  obs::SpanId src = 0, dst = 0;
  {
    TraceSpan post("post", SpanKind::Transfer);
    src = post.id();
    obs::flow_emit(flow);
  }
  {
    TraceSpan wait("wait", SpanKind::Transfer);
    dst = wait.id();
    obs::flow_consume(flow);
    obs::flow_consume(obs::new_flow());  // never emitted: silent no-op
  }
  const auto trace = obs::collect_trace();
  ASSERT_EQ(trace.edges.size(), 1u);
  EXPECT_EQ(trace.edges[0].flow, flow);
  EXPECT_EQ(trace.edges[0].src, src);
  EXPECT_EQ(trace.edges[0].dst, dst);
}

TEST_F(SpanTest, RecordSpanAppendsExplicitIntervalsAndLinks) {
  // The campaign service's queue-wait span: no single thread was inside
  // the interval, so it is recorded after the fact with explicit
  // trace-clock times and linked to its neighbours by id.
  obs::set_tracing(true);
  const double t0 = obs::trace_clock();
  obs::SpanId admit = 0;
  {
    TraceSpan span("svc.admit", SpanKind::Other);
    admit = span.id();
  }
  const double t1 = obs::trace_clock();
  EXPECT_GE(t1, t0);
  const obs::SpanId queue =
      obs::record_span("svc.queue", SpanKind::Other, t0, t1);
  ASSERT_NE(queue, 0u);
  obs::link_spans(admit, queue);
  obs::link_spans(0, queue);  // zero endpoint: silent no-op

  const auto trace = obs::collect_trace();
  const auto* rec = find_span(trace, "svc.queue");
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->id, queue);
  EXPECT_DOUBLE_EQ(rec->start_s, t0);
  EXPECT_DOUBLE_EQ(rec->end_s, t1);
  ASSERT_EQ(trace.edges.size(), 1u);
  EXPECT_EQ(trace.edges[0].src, admit);
  EXPECT_EQ(trace.edges[0].dst, queue);
}

TEST_F(SpanTest, RecordSpanAndClockAreNoOpsWhileTracingIsOff) {
  EXPECT_DOUBLE_EQ(obs::trace_clock(), 0.0);
  EXPECT_EQ(obs::record_span("off", SpanKind::Other, 0.0, 1.0), 0u);
  obs::link_spans(1, 2);  // ids from a disabled world: nothing to link
  const auto trace = obs::collect_trace();
  EXPECT_TRUE(trace.spans.empty());
  EXPECT_TRUE(trace.edges.empty());
}

TEST_F(SpanTest, SelfEdgesAreNotRecorded) {
  obs::set_tracing(true);
  const obs::FlowId flow = obs::new_flow();
  {
    TraceSpan span("both", SpanKind::Other);
    obs::flow_emit(flow);
    obs::flow_consume(flow);  // same span: dropped
  }
  EXPECT_TRUE(obs::collect_trace().edges.empty());
}

TEST_F(SpanTest, SlabInverseExchangesProduceCrossRankEdges) {
  // Two pencils, one per all-to-all: the inverse's z_to_y makes two
  // alltoall_strided exchanges per rank, and each exchange joins the two
  // ranks' spans with one edge per direction.
  obs::set_tracing(true);
  comm::run_ranks(2, [](comm::Communicator& comm) {
    const std::size_t n = 8;
    transpose::SlabFft3d fft(comm, n);
    fft.set_batching(2, 1);
    std::vector<fft::Complex> spec(fft.spectral_elems());
    std::vector<fft::Real> phys(fft.physical_elems());
    spec[0] = fft::Complex{1.0, 0.0};
    fft.inverse(spec, phys);
  });
  const auto trace = obs::collect_trace();
  // Each rank's comm.alltoall spans in call order: index = exchange.
  std::vector<const SpanRecord*> by_rank[2];
  for (const auto& s : trace.spans) {
    if (s.name != "comm.alltoall") continue;
    ASSERT_TRUE(s.rank == 0 || s.rank == 1);
    by_rank[s.rank].push_back(&s);
  }
  for (auto& spans : by_rank) {
    ASSERT_EQ(spans.size(), 2u);
    std::sort(spans.begin(), spans.end(),
              [](const SpanRecord* a, const SpanRecord* b) {
                return a->start_s < b->start_s;
              });
  }
  const auto exchange_of = [&](obs::SpanId id) {
    for (int r = 0; r < 2; ++r) {
      for (int i = 0; i < 2; ++i) {
        if (by_rank[r][static_cast<std::size_t>(i)]->id == id) {
          return std::pair{r, i};
        }
      }
    }
    return std::pair{-1, -1};
  };
  ASSERT_EQ(trace.edges.size(), 4u);
  for (const auto& e : trace.edges) {
    const auto [src_rank, src_exchange] = exchange_of(e.src);
    const auto [dst_rank, dst_exchange] = exchange_of(e.dst);
    ASSERT_GE(src_rank, 0) << "edge source is not a comm.alltoall span";
    ASSERT_GE(dst_rank, 0) << "edge target is not a comm.alltoall span";
    EXPECT_NE(src_rank, dst_rank);
    EXPECT_EQ(src_exchange, dst_exchange);
  }
}

TEST_F(SpanTest, EngineStepSpanCountsAreExact) {
  // One traced, warmed, forced step. Per rank and RHS evaluation (RK2
  // makes two, RK4 four): one band-energy reduction for the forcing, one
  // round trip (one group-loop span for all its groups, inside it one
  // summed span per pass and one for the kernel), one allreduce of the CFL
  // max, and one spectral pass, which also writes the stage or the update.
  // No x pass runs outside a group loop, and no other spectral-space span
  // runs.
  struct Case {
    int ranks;
    transpose::Decomposition decomposition;
    dns::TimeScheme scheme;
  };
  const std::vector<std::string> slab_groups = {
      "slab_fft.planes", "slab_fft.group.inverse.z",
      "slab_fft.group.inverse.x", "slab_fft.group.kernel",
      "slab_fft.group.forward.x", "slab_fft.group.forward.z"};
  const std::vector<std::string> pencil_groups = {
      "pencil_fft.lines", "pencil_fft.group.inverse.x",
      "pencil_fft.group.kernel", "pencil_fft.group.forward.x"};
  for (const Case& c :
       {Case{1, transpose::Decomposition::Slab, dns::TimeScheme::RK2},
        Case{2, transpose::Decomposition::Slab, dns::TimeScheme::RK2},
        Case{2, transpose::Decomposition::Pencil, dns::TimeScheme::RK2},
        Case{1, transpose::Decomposition::Slab, dns::TimeScheme::RK4},
        Case{2, transpose::Decomposition::Pencil, dns::TimeScheme::RK4}}) {
    obs::set_tracing(false);
    comm::run_ranks(c.ranks, [&](comm::Communicator& comm) {
      dns::SolverConfig config;
      config.n = 16;
      config.viscosity = 0.02;
      config.decomposition = c.decomposition;
      config.scheme = c.scheme;
      config.forcing.enabled = true;
      config.forcing.power = 0.05;
      dns::SpectralEngine engine(comm, config);
      engine.init_isotropic(7, 3.0, 0.5);
      engine.step(1e-3);
      comm.barrier();
      if (comm.rank() == 0) obs::set_tracing(true);
      comm.barrier();
      engine.step(1e-3);
      comm.barrier();
    });
    const auto trace = obs::collect_trace();
    const bool slab = c.decomposition == transpose::Decomposition::Slab;
    const int rhs = c.scheme == dns::TimeScheme::RK4 ? 4 : 2;
    std::vector<std::pair<std::string, int>> expected = {
        {"dns.band_energy", rhs},      {"dns.round_trip", rhs},
        {"dns.cfl_allreduce", rhs},    {"dns.spectral_pass", rhs},
        {"dns.rhs_epilogue", 0},       {"dns.assemble_rhs", 0},
        {"dns.forcing", 0},            {"dns.apply_linear", 0},
        {"dns.rk_update", 0},          {"slab_fft.inverse.x", 0},
        {"slab_fft.forward.x", 0},     {"pencil_fft.inverse.x", 0},
        {"pencil_fft.forward.x", 0}};
    for (const auto& name : slab ? slab_groups : pencil_groups) {
      expected.emplace_back(name, rhs);
    }
    for (const auto& name : slab ? pencil_groups : slab_groups) {
      expected.emplace_back(name, 0);
    }
    for (const auto& [name, per_rank] : expected) {
      for (int r = 0; r < c.ranks; ++r) {
        const auto count = std::count_if(
            trace.spans.begin(), trace.spans.end(),
            [&](const SpanRecord& s) { return s.name == name && s.rank == r; });
        EXPECT_EQ(count, per_rank)
            << name << " rank " << r << " of " << c.ranks << " "
            << transpose::to_string(c.decomposition) << " RK" << rhs;
      }
    }
    // The summed group spans are children of their group-loop span, laid
    // end to end inside it.
    const std::string& loop = (slab ? slab_groups : pencil_groups)[0];
    for (const auto& s : trace.spans) {
      if (s.name.find("_fft.group.") == std::string::npos) continue;
      const auto parent = std::find_if(
          trace.spans.begin(), trace.spans.end(),
          [&](const SpanRecord& p) { return p.id == s.parent; });
      ASSERT_NE(parent, trace.spans.end()) << s.name;
      EXPECT_EQ(parent->name, loop);
      EXPECT_GE(s.start_s, parent->start_s);
      EXPECT_LE(s.end_s, parent->end_s + 1e-9);
    }
  }
}

TEST_F(SpanTest, AlltoallRecordsCrossRankEdges) {
  obs::set_tracing(true);
  comm::run_ranks(2, [](comm::Communicator& comm) {
    std::vector<int> send{comm.rank(), comm.rank()};
    std::vector<int> recv(2, -1);
    comm.alltoall(send.data(), recv.data(), 1);
  });
  const auto trace = obs::collect_trace();
  // One comm.alltoall span per rank, tagged with its rank.
  int rank0 = 0, rank1 = 0;
  for (const auto& s : trace.spans) {
    if (s.name != "comm.alltoall") continue;
    if (s.rank == 0) ++rank0;
    if (s.rank == 1) ++rank1;
  }
  EXPECT_EQ(rank0, 1);
  EXPECT_EQ(rank1, 1);
  // Each rank consumes the other's flow: two cross-rank edges.
  ASSERT_EQ(trace.edges.size(), 2u);
  for (const auto& e : trace.edges) {
    const SpanRecord *src = nullptr, *dst = nullptr;
    for (const auto& s : trace.spans) {
      if (s.id == e.src) src = &s;
      if (s.id == e.dst) dst = &s;
    }
    ASSERT_NE(src, nullptr);
    ASSERT_NE(dst, nullptr);
    EXPECT_NE(src->rank, dst->rank);
  }
}

TEST_F(SpanTest, TextTimelineDrawsARealSlabStep) {
  // Fig. 10 for a measured run: a traced 2-rank slab NS step rendered by
  // the same reader as a simulated one, with the all-to-alls on the MPI
  // row and the FFT passes on the compute row.
  comm::run_ranks(2, [](comm::Communicator& comm) {
    dns::SolverConfig config;
    config.n = 16;
    config.viscosity = 0.02;
    dns::SpectralEngine engine(comm, config);
    engine.init_isotropic(7, 3.0, 0.5);
    engine.step(1e-3);
    comm.barrier();
    if (comm.rank() == 0) obs::set_tracing(true);
    comm.barrier();
    engine.step(1e-3);
    comm.barrier();
  });
  const auto trace = obs::collect_trace();
  ASSERT_TRUE(std::any_of(
      trace.spans.begin(), trace.spans.end(), [](const SpanRecord& s) {
        return s.name == "comm.alltoall" && s.kind == SpanKind::Comm;
      }));
  const std::string text = obs::render_timeline(trace, 0.0, {.columns = 60});
  const auto row = [&](const std::string& label) {
    const auto at = text.find(label);
    EXPECT_NE(at, std::string::npos) << text;
    if (at == std::string::npos) return std::string();
    const auto bar = text.find('|', at);
    return text.substr(bar + 1, 60);
  };
  EXPECT_NE(row("MPI").find('#'), std::string::npos) << text;
  EXPECT_NE(row("compute").find('#'), std::string::npos) << text;
}

TEST_F(SpanTest, WritesChromeTraceFileWhenConfigured) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "psdns_span_trace.json")
          .string();
  obs::set_trace_file(path);
  obs::set_tracing(true);
  { TraceSpan span("traced", SpanKind::Io); }
  obs::write_trace_if_configured();
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream ss;
  ss << in.rdbuf();
  // The repo emits the JSON-array flavor of the Chrome trace format.
  const auto doc = obs::json_parse(ss.str());
  ASSERT_TRUE(doc.is_array());
  bool found = false;
  for (const auto& ev : doc.array) {
    if (ev.at("name").string == "traced") found = true;
  }
  EXPECT_TRUE(found);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------- env gating

TEST_F(SpanTest, EnvEnablesAndDisables) {
  ::setenv("PSDNS_TRACE", "on", 1);
  obs::init_tracing_from_env();
  EXPECT_TRUE(obs::tracing());
  ::setenv("PSDNS_TRACE", "0", 1);
  obs::init_tracing_from_env();
  EXPECT_FALSE(obs::tracing());
  ::unsetenv("PSDNS_TRACE");
}

TEST_F(SpanTest, UnknownEnvValueThrows) {
  ::setenv("PSDNS_TRACE", "maybe", 1);
  EXPECT_THROW(obs::init_tracing_from_env(), std::exception);
  ::unsetenv("PSDNS_TRACE");
}

TEST_F(SpanTest, ProgrammaticSettingWinsOverEnv) {
  // Same precedence as PSDNS_LOG_*: the env is applied (lazily, once); a
  // later programmatic call overrides it because it runs after.
  ::setenv("PSDNS_TRACE", "off", 1);
  obs::init_tracing_from_env();
  obs::set_tracing(true);
  EXPECT_TRUE(obs::tracing());
  ::unsetenv("PSDNS_TRACE");
}

TEST_F(SpanTest, EnvTraceFileIsApplied) {
  ::setenv("PSDNS_TRACE_FILE", "/tmp/psdns_env_trace.json", 1);
  obs::init_tracing_from_env();
  EXPECT_EQ(obs::trace_file(), "/tmp/psdns_env_trace.json");
  ::unsetenv("PSDNS_TRACE_FILE");
  obs::set_trace_file("");
}

// ------------------------------------------------- critical path and overlap

SpanRecord make_span(obs::SpanId id, const std::string& name, SpanKind kind,
                     int thread, int rank, double start, double end) {
  SpanRecord s;
  s.id = id;
  s.name = name;
  s.kind = kind;
  s.thread = thread;
  s.rank = rank;
  s.start_s = start;
  s.end_s = end;
  return s;
}

TEST(CriticalPathTest, FollowsFlowEdgesAcrossThreads) {
  SpanTrace trace;
  trace.spans.push_back(
      make_span(1, "fft", SpanKind::Compute, 1, 0, 0.0, 4.0));
  trace.spans.push_back(make_span(2, "a2a", SpanKind::Comm, 2, 0, 4.0, 9.0));
  trace.spans.push_back(
      make_span(3, "unpack", SpanKind::Transfer, 1, 0, 9.0, 10.0));
  // A concurrent distractor that is not on the critical path.
  trace.spans.push_back(
      make_span(4, "side", SpanKind::Compute, 3, 0, 0.0, 2.0));
  trace.edges.push_back({10, 1, 2});
  trace.edges.push_back({11, 2, 3});

  const auto path = obs::critical_path(trace);
  ASSERT_EQ(path.spans.size(), 3u);
  EXPECT_EQ(path.spans[0].id, 1u);
  EXPECT_EQ(path.spans[1].id, 2u);
  EXPECT_EQ(path.spans[2].id, 3u);
  EXPECT_DOUBLE_EQ(path.path_seconds, 10.0);
  EXPECT_DOUBLE_EQ(path.attribution.compute, 4.0);
  EXPECT_DOUBLE_EQ(path.attribution.comm, 5.0);
  EXPECT_DOUBLE_EQ(path.attribution.transfer, 1.0);
  EXPECT_DOUBLE_EQ(path.attribution.idle, 0.0);
}

TEST(CriticalPathTest, SameLaneOrderAndGapsBecomeIdle) {
  SpanTrace trace;
  trace.spans.push_back(
      make_span(1, "a", SpanKind::Compute, 1, 0, 0.0, 1.0));
  trace.spans.push_back(make_span(2, "b", SpanKind::Comm, 1, 0, 3.0, 5.0));
  const auto path = obs::critical_path(trace);
  ASSERT_EQ(path.spans.size(), 2u);
  EXPECT_DOUBLE_EQ(path.path_seconds, 3.0);  // durations only
  EXPECT_DOUBLE_EQ(path.attribution.idle, 2.0);  // the [1,3] gap
  EXPECT_DOUBLE_EQ(path.attribution.total, 5.0);
}

TEST(CriticalPathTest, ParentSpansAreExcludedFromLeaves) {
  SpanTrace trace;
  auto phase = make_span(1, "phase", SpanKind::Other, 1, 0, 0.0, 10.0);
  auto leaf = make_span(2, "work", SpanKind::Compute, 1, 0, 1.0, 9.0);
  leaf.parent = 1;
  trace.spans.push_back(phase);
  trace.spans.push_back(leaf);
  const auto path = obs::critical_path(trace);
  ASSERT_EQ(path.spans.size(), 1u);
  EXPECT_EQ(path.spans[0].id, 2u);
  EXPECT_DOUBLE_EQ(path.path_seconds, 8.0);
}

TEST(CriticalPathTest, ConcurrentFlowEdgesDoNotCycle) {
  // An all-to-all records edges both ways between its (concurrent) rank
  // spans; the DAG walk must stay acyclic and finite.
  SpanTrace trace;
  trace.spans.push_back(make_span(1, "a2a", SpanKind::Comm, 1, 0, 0.0, 2.0));
  trace.spans.push_back(make_span(2, "a2a", SpanKind::Comm, 2, 1, 0.0, 2.1));
  trace.edges.push_back({10, 1, 2});
  trace.edges.push_back({11, 2, 1});
  const auto path = obs::critical_path(trace);
  ASSERT_EQ(path.spans.size(), 2u);
  EXPECT_NEAR(path.path_seconds, 4.1, 1e-12);
}

TEST(OverlapTest, SerializedSpansHaveZeroEfficiency) {
  SpanTrace trace;
  trace.spans.push_back(
      make_span(1, "fft", SpanKind::Compute, 1, 0, 0.0, 1.0));
  trace.spans.push_back(make_span(2, "a2a", SpanKind::Comm, 1, 0, 1.0, 2.0));
  const auto ov = obs::overlap_stats(trace);
  EXPECT_DOUBLE_EQ(ov.hidden, 0.0);
  EXPECT_DOUBLE_EQ(ov.exposed, 1.0);
  EXPECT_DOUBLE_EQ(ov.overlap_efficiency, 0.0);
}

TEST(OverlapTest, FullyOverlappedSpansReachEfficiencyOne) {
  SpanTrace trace;
  trace.spans.push_back(
      make_span(1, "fft", SpanKind::Compute, 1, 0, 0.0, 2.0));
  trace.spans.push_back(make_span(2, "a2a", SpanKind::Comm, 2, 0, 0.0, 2.0));
  const auto ov = obs::overlap_stats(trace);
  EXPECT_DOUBLE_EQ(ov.hidden, 2.0);
  EXPECT_DOUBLE_EQ(ov.overlap_efficiency, 1.0);
}

TEST(OverlapTest, CrossRankCoincidenceDoesNotCount) {
  SpanTrace trace;
  trace.spans.push_back(
      make_span(1, "fft", SpanKind::Compute, 1, 0, 0.0, 1.0));
  trace.spans.push_back(make_span(2, "a2a", SpanKind::Comm, 2, 1, 0.0, 1.0));
  const auto ov = obs::overlap_stats(trace);
  EXPECT_DOUBLE_EQ(ov.hidden, 0.0);
  EXPECT_DOUBLE_EQ(ov.overlap_efficiency, 0.0);
}

/// Acceptance: on the pipeline step model, the Fig.-4 batched schedule
/// hides > 0.8 of the achievable overlap while the serialized ablation
/// hides nothing. Config A (1 GPU per rank) keeps per-rank attribution
/// exact; the ablation also serializes the unpack (the zero-copy kernel
/// would otherwise overlap by design).
TEST(OverlapTest, StepModelAsyncBeatsSerializedAblation) {
  const pipeline::DnsStepModel model;
  pipeline::PipelineConfig cfg;
  cfg.n = 3072;
  cfg.nodes = 16;
  cfg.pencils = 8;
  cfg.pencils_per_a2a = 1;
  cfg.mpi = pipeline::MpiConfig::A;

  cfg.async = true;
  const auto async = model.simulate_gpu_step(cfg);
  EXPECT_GT(async.overlap_efficiency, 0.8);

  cfg.async = false;
  cfg.unpack_method = gpu::CopyMethod::Memcpy2DAsync;
  const auto sync = model.simulate_gpu_step(cfg);
  EXPECT_NEAR(sync.overlap_efficiency, 0.0, 1e-9);

  // The schedule that hides more finishes sooner.
  EXPECT_LT(async.seconds, sync.seconds);
}

/// The DES trace through the span critical path, for Fig. 10's three MPI
/// configurations and the serialized ablation. Every simulated op starts
/// exactly when the last of its lane predecessor and explicit dependencies
/// finishes, and each of those is a predecessor in the span DAG walk, so
/// the longest chain runs from t = 0 to the makespan without a gap.
TEST(CriticalPathTest, SimulatedStepChainCoversTheStep) {
  const pipeline::DnsStepModel model;
  pipeline::PipelineConfig base;
  base.n = 12288;
  base.nodes = 1024;
  base.pencils = 3;
  std::vector<pipeline::PipelineConfig> configs;
  for (const auto mpi : {pipeline::MpiConfig::A, pipeline::MpiConfig::B,
                         pipeline::MpiConfig::C}) {
    configs.push_back(base);
    configs.back().mpi = mpi;
  }
  configs.push_back(base);
  configs.back().mpi = pipeline::MpiConfig::A;
  configs.back().async = false;
  for (const auto& cfg : configs) {
    const auto step = model.simulate_gpu_step(cfg);
    const auto path = obs::critical_path(step.trace);
    const std::string what = std::string(pipeline::to_string(cfg.mpi)) +
                             (cfg.async ? "" : " sync");
    ASSERT_FALSE(path.spans.empty()) << what;
    EXPECT_NEAR(path.path_seconds, step.seconds, 1e-12 * step.seconds)
        << what;
    EXPECT_NEAR(path.attribution.idle, 0.0, 1e-12 * step.seconds) << what;
    EXPECT_DOUBLE_EQ(path.spans.front().start_s, 0.0) << what;
  }
}

// ------------------------------------------------------------------ perfdiff

std::string report_json(const std::vector<std::pair<std::string, double>>&
                            metrics,
                        const std::string& name = "demo") {
  obs::BenchReport report(name);
  for (const auto& [k, v] : metrics) report.metric(k, v);
  return report.to_json();
}

TEST(PerfDiffTest, IdenticalReportsPass) {
  const std::string doc = report_json(
      {{"step_seconds.case", 1.25}, {"best_speedup.case", 4.0}});
  const auto result = obs::perf_diff(doc, doc);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.regressions, 0);
  EXPECT_EQ(result.missing, 0);
  EXPECT_EQ(result.deltas.size(), 2u);
}

TEST(PerfDiffTest, TwentyPercentSlowdownFails) {
  const auto base = report_json({{"step_seconds.case", 10.0}});
  const auto curr = report_json({{"step_seconds.case", 12.0}});
  const auto result = obs::perf_diff(base, curr);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.regressions, 1);
  ASSERT_EQ(result.deltas.size(), 1u);
  EXPECT_NEAR(result.deltas[0].worsening, 0.2, 1e-12);
}

TEST(PerfDiffTest, HigherIsBetterKeysInvertDirection) {
  const auto base =
      report_json({{"best_speedup.case", 5.0}, {"bandwidth.x", 10.0}});
  const auto lower =
      report_json({{"best_speedup.case", 4.0}, {"bandwidth.x", 12.0}});
  const auto result = obs::perf_diff(base, lower);
  EXPECT_EQ(result.regressions, 1);  // the dropped speedup
  EXPECT_EQ(result.improvements, 1);  // the bandwidth gain
  for (const auto& d : result.deltas) {
    EXPECT_EQ(d.direction, obs::MetricDirection::HigherIsBetter);
  }
}

TEST(PerfDiffTest, ToleranceAndAbsFloorAbsorbNoise) {
  const auto base = report_json(
      {{"step_seconds.case", 10.0}, {"tiny_seconds", 1e-9}});
  const auto curr = report_json(
      {{"step_seconds.case", 10.4}, {"tiny_seconds", 1.5e-9}});
  // 4% slower is inside the 5% tolerance; the 50% tiny-metric jump is
  // below the absolute floor.
  const auto result = obs::perf_diff(base, curr);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.regressions, 0);
}

TEST(PerfDiffTest, MissingMetricFailsUnlessAllowed) {
  const auto base =
      report_json({{"step_seconds.a", 1.0}, {"step_seconds.b", 2.0}});
  const auto curr = report_json({{"step_seconds.a", 1.0}});
  const auto result = obs::perf_diff(base, curr);
  EXPECT_EQ(result.missing, 1);
  EXPECT_FALSE(result.ok());
  obs::PerfDiffOptions lax;
  lax.fail_on_missing = false;
  EXPECT_TRUE(obs::perf_diff(report_json({{"step_seconds.a", 1.0},
                                          {"step_seconds.b", 2.0}}),
                             report_json({{"step_seconds.a", 1.0}}), lax)
                  .ok(lax));
}

TEST(PerfDiffTest, AddedMetricsAreInformational) {
  const auto base = report_json({{"step_seconds.a", 1.0}});
  const auto curr =
      report_json({{"step_seconds.a", 1.0}, {"step_seconds.new", 9.0}});
  const auto result = obs::perf_diff(base, curr);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.added, 1);
}

TEST(PerfDiffTest, MismatchedReportNamesThrow) {
  EXPECT_THROW(obs::perf_diff(report_json({{"m", 1.0}}, "alpha"),
                              report_json({{"m", 1.0}}, "beta")),
               std::exception);
}

TEST(PerfDiffTest, FormatReportMentionsRegressions) {
  const auto base = report_json({{"step_seconds.case", 10.0}});
  const auto curr = report_json({{"step_seconds.case", 13.0}});
  const auto result = obs::perf_diff(base, curr);
  const std::string text = obs::format_report(result, {});
  EXPECT_NE(text.find("step_seconds.case"), std::string::npos);
  EXPECT_NE(text.find("REGRESSION"), std::string::npos);
  // A regressing diff also prints both run manifests (schema-v2 reports
  // embed them), so the gate log answers "what changed between runs".
  EXPECT_NE(text.find("baseline run: sha="), std::string::npos);
  EXPECT_NE(text.find("current run:  sha="), std::string::npos);
}

TEST(PerfDiffTest, SchemaV1BaselineStillCompares) {
  // Committed baselines predate the manifest; they carry no manifest and
  // schema_version 1, and must keep diffing against v2 reports.
  const std::string v1 =
      "{\"name\": \"demo\", \"schema_version\": 1, \"git_sha\": \"x\","
      " \"metadata\": {}, \"metrics\": {\"step_seconds.case\": 10.0}}";
  const auto curr = report_json({{"step_seconds.case", 10.1}});
  const auto result = obs::perf_diff(v1, curr);
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(result.baseline_manifest.empty());
  EXPECT_FALSE(result.current_manifest.empty());
}

TEST(PerfDiffTest, JsonOutputIsMachineReadable) {
  const auto base = report_json({{"step_seconds.case", 10.0}});
  const auto curr = report_json({{"step_seconds.case", 13.0}});
  const auto result = obs::perf_diff(base, curr);
  const auto doc = obs::json_parse(obs::to_json(result));
  EXPECT_EQ(doc.at("name").string, "demo");
  EXPECT_FALSE(doc.at("ok").boolean);
  EXPECT_DOUBLE_EQ(doc.at("regressions").number, 1.0);
  ASSERT_EQ(doc.at("metrics").array.size(), 1u);
  const auto& d = doc.at("metrics").array[0];
  EXPECT_EQ(d.at("key").string, "step_seconds.case");
  EXPECT_EQ(d.at("status").string, "regression");
  EXPECT_NEAR(d.at("worsening").number, 0.3, 1e-12);
  EXPECT_NE(doc.at("current_manifest").string.find("sha="),
            std::string::npos);
}

TEST(PerfDiffTest, DirectionInference) {
  using obs::MetricDirection;
  EXPECT_EQ(obs::infer_direction("step_seconds.x"),
            MetricDirection::LowerIsBetter);
  EXPECT_EQ(obs::infer_direction("best_speedup.x"),
            MetricDirection::HigherIsBetter);
  EXPECT_EQ(obs::infer_direction("overlap_efficiency.case"),
            MetricDirection::HigherIsBetter);
  EXPECT_EQ(obs::infer_direction("a2a_bandwidth_gb"),
            MetricDirection::HigherIsBetter);
}

}  // namespace
