// Tests for the live telemetry plane: cross-rank metric reduction, the
// step-series ring/JSONL, the health monitor's invariants, the Prometheus/
// JSON exposition, the rank-0 HTTP endpoint, and the full campaign
// integration - including the acceptance drill where a silent bit flip is
// caught by the NaN guard within one step and no corrupt checkpoint is
// written.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "driver/campaign.hpp"
#include "obs/exposition.hpp"
#include "obs/health.hpp"
#include "obs/json.hpp"
#include "obs/metric_series.hpp"
#include "obs/metrics_server.hpp"
#include "obs/reduce.hpp"
#include "obs/registry.hpp"
#include "resilience/fault.hpp"
#include "util/check.hpp"
#include "util/file.hpp"

namespace psdns::obs {
namespace {

std::string tmp(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void remove_all_variants(const std::string& path) {
  std::filesystem::remove(path);
  for (int i = 1; i <= 4; ++i) {
    std::filesystem::remove(path + "." + std::to_string(i));
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// --- merge_snapshots / ReducedSnapshot ---

TEST(ReduceTest, MergesCountersAndGaugesAcrossRanks) {
  MetricsSnapshot r0;
  r0.counters["steps"] = 10;
  r0.gauges["wall"] = 2.0;
  r0.gauges["only_rank0"] = 7.0;
  MetricsSnapshot r1;
  r1.counters["steps"] = 14;
  r1.gauges["wall"] = 6.0;

  const ReducedSnapshot merged =
      merge_snapshots({serialize_snapshot(r0), serialize_snapshot(r1)});
  ASSERT_EQ(merged.ranks, 2);

  const ReducedValue* steps = merged.counter("steps");
  ASSERT_NE(steps, nullptr);
  EXPECT_DOUBLE_EQ(steps->sum, 24.0);
  EXPECT_DOUBLE_EQ(steps->min, 10.0);
  EXPECT_DOUBLE_EQ(steps->max, 14.0);
  EXPECT_DOUBLE_EQ(steps->mean, 12.0);
  EXPECT_EQ(steps->min_rank, 0);
  EXPECT_EQ(steps->max_rank, 1);
  EXPECT_EQ(steps->count, 2);

  const ReducedValue* wall = merged.gauge("wall");
  ASSERT_NE(wall, nullptr);
  EXPECT_DOUBLE_EQ(wall->mean, 4.0);
  EXPECT_EQ(wall->max_rank, 1);

  // A key only one rank carries still appears, reduced over that rank.
  const ReducedValue* solo = merged.gauge("only_rank0");
  ASSERT_NE(solo, nullptr);
  EXPECT_EQ(solo->count, 1);
  EXPECT_EQ(solo->min_rank, 0);
  EXPECT_EQ(solo->max_rank, 0);
  EXPECT_DOUBLE_EQ(solo->mean, 7.0);
}

TEST(ReduceTest, MergesHistogramsCountWeighted) {
  MetricsSnapshot r0, r1, r2;
  r0.histograms["svc.tenant.alice.queue_wait_seconds"] =
      HistogramSummary{1, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0};
  r1.histograms["svc.tenant.alice.queue_wait_seconds"] =
      HistogramSummary{3, 12.0, 1.0, 6.0, 4.0, 6.0, 6.0};
  r2.gauges["unrelated"] = 1.0;  // a rank with no histograms still merges

  const ReducedSnapshot merged = merge_snapshots(
      {serialize_snapshot(r0), serialize_snapshot(r1),
       serialize_snapshot(r2)});
  const HistogramSummary* h =
      merged.histogram("svc.tenant.alice.queue_wait_seconds");
  ASSERT_NE(h, nullptr);
  // count/sum/min/max merge exactly; the quantiles are the count-weighted
  // mean of the per-rank quantiles (1:3 weighting here).
  EXPECT_EQ(h->count, 4);
  EXPECT_DOUBLE_EQ(h->sum, 14.0);
  EXPECT_DOUBLE_EQ(h->min, 1.0);
  EXPECT_DOUBLE_EQ(h->max, 6.0);
  EXPECT_DOUBLE_EQ(h->p50, 0.25 * 2.0 + 0.75 * 4.0);
  EXPECT_DOUBLE_EQ(h->p95, 0.25 * 2.0 + 0.75 * 6.0);
  EXPECT_DOUBLE_EQ(h->p99, 0.25 * 2.0 + 0.75 * 6.0);
  EXPECT_EQ(merged.histogram("missing"), nullptr);
}

TEST(ReduceTest, SingleRankHistogramPassesThroughExactly) {
  // The campaign-service case: one process holds all the samples, so the
  // "approximate" merge must be the identity.
  MetricsSnapshot local;
  local.histograms["lat"] = HistogramSummary{7, 3.5, 0.1, 1.0, 0.4, 0.9, 1.0};
  const ReducedSnapshot merged = merge_snapshots({serialize_snapshot(local)});
  const HistogramSummary* h = merged.histogram("lat");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 7);
  EXPECT_DOUBLE_EQ(h->sum, 3.5);
  EXPECT_DOUBLE_EQ(h->min, 0.1);
  EXPECT_DOUBLE_EQ(h->max, 1.0);
  EXPECT_DOUBLE_EQ(h->p50, 0.4);
  EXPECT_DOUBLE_EQ(h->p95, 0.9);
  EXPECT_DOUBLE_EQ(h->p99, 1.0);
}

TEST(ReduceTest, HistogramsSurviveJsonRoundTrip) {
  MetricsSnapshot local;
  local.histograms["lat"] = HistogramSummary{5, 2.5, 0.1, 0.9, 0.5, 0.8, 0.9};
  ReducedSnapshot snap = merge_snapshots({serialize_snapshot(local)});
  snap.step = 9;
  const std::string json = snap.to_json();
  const ReducedSnapshot back = ReducedSnapshot::parse(json);
  const HistogramSummary* h = back.histogram("lat");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 5);
  EXPECT_DOUBLE_EQ(h->p95, 0.8);
  EXPECT_EQ(back.to_json(), json);

  // Rows written before histograms were reduced still parse.
  const ReducedSnapshot old = ReducedSnapshot::parse(
      "{\"step\":1,\"time\":0,\"ranks\":1,\"counters\":{},\"gauges\":{}}");
  EXPECT_TRUE(old.histograms.empty());
}

TEST(ReduceTest, TiesResolveToLowestRank) {
  MetricsSnapshot a, b, c;
  a.gauges["g"] = 5.0;
  b.gauges["g"] = 5.0;
  c.gauges["g"] = 5.0;
  const ReducedSnapshot merged = merge_snapshots(
      {serialize_snapshot(a), serialize_snapshot(b), serialize_snapshot(c)});
  const ReducedValue* g = merged.gauge("g");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->min_rank, 0);
  EXPECT_EQ(g->max_rank, 0);
}

TEST(ReduceTest, JsonRoundTripsExactly) {
  MetricsSnapshot r0;
  r0.counters["c"] = 3;
  r0.gauges["g"] = 1.25;
  ReducedSnapshot snap = merge_snapshots({serialize_snapshot(r0)});
  snap.step = 42;
  snap.time = 0.5;
  snap.health_verdict = "degraded";
  snap.health_events = {"cfl_bound", "ckpt_lag"};

  const std::string json = snap.to_json();
  const ReducedSnapshot back = ReducedSnapshot::parse(json);
  EXPECT_EQ(back.step, 42);
  EXPECT_DOUBLE_EQ(back.time, 0.5);
  EXPECT_EQ(back.health_verdict, "degraded");
  ASSERT_EQ(back.health_events.size(), 2u);
  EXPECT_EQ(back.health_events[1], "ckpt_lag");
  EXPECT_EQ(back.to_json(), json);
}

TEST(ReduceTest, ParseRejectsMalformedInput) {
  EXPECT_THROW(ReducedSnapshot::parse("not json"), util::Error);
  EXPECT_THROW(ReducedSnapshot::parse("[1,2]"), util::Error);
}

TEST(ReduceTest, CollectiveReductionIsIdenticalOnEveryRank) {
  constexpr int kRanks = 4;
  std::mutex mu;
  std::vector<std::string> per_rank_json(kRanks);
  comm::run_ranks(kRanks, [&](comm::Communicator& comm) {
    MetricsSnapshot local;
    local.gauges["probe.value"] = static_cast<double>(comm.rank());
    local.counters["probe.calls"] = 10 + comm.rank();
    const ReducedSnapshot reduced = reduce_metrics(comm, local);
    std::lock_guard<std::mutex> lock(mu);
    per_rank_json[static_cast<std::size_t>(comm.rank())] = reduced.to_json();
  });
  for (int r = 1; r < kRanks; ++r) {
    EXPECT_EQ(per_rank_json[static_cast<std::size_t>(r)], per_rank_json[0])
        << "rank " << r << " reduced to a different snapshot";
  }
  const ReducedSnapshot reduced = ReducedSnapshot::parse(per_rank_json[0]);
  EXPECT_EQ(reduced.ranks, kRanks);
  const ReducedValue* v = reduced.gauge("probe.value");
  ASSERT_NE(v, nullptr);
  EXPECT_DOUBLE_EQ(v->sum, 6.0);
  EXPECT_DOUBLE_EQ(v->mean, 1.5);
  EXPECT_EQ(v->min_rank, 0);
  EXPECT_EQ(v->max_rank, kRanks - 1);
  EXPECT_EQ(v->count, kRanks);
}

// --- SeriesRing / JSONL ---

ReducedSnapshot snapshot_for_step(std::int64_t step) {
  MetricsSnapshot local;
  local.gauges["g"] = static_cast<double>(step) * 0.5;
  ReducedSnapshot snap = merge_snapshots({serialize_snapshot(local)});
  snap.step = step;
  snap.time = static_cast<double>(step) * 0.01;
  return snap;
}

TEST(SeriesTest, RingKeepsNewestRowsAndCountsDrops) {
  SeriesRing ring(3);
  EXPECT_EQ(ring.latest(), nullptr);
  for (std::int64_t s = 1; s <= 5; ++s) ring.push(snapshot_for_step(s));
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.total_pushed(), 5);
  EXPECT_EQ(ring.dropped(), 2);
  EXPECT_EQ(ring.at(0).step, 3);  // oldest retained
  EXPECT_EQ(ring.at(2).step, 5);
  ASSERT_NE(ring.latest(), nullptr);
  EXPECT_EQ(ring.latest()->step, 5);
}

TEST(SeriesTest, JsonlRoundTripsExactly) {
  const std::string path = tmp("psdns_telemetry_series_rt.jsonl");
  {
    util::LineLog writer(path);
    for (std::int64_t s = 1; s <= 3; ++s) {
      writer.append(snapshot_for_step(s).to_json());
    }
  }
  const auto rows = read_series_jsonl(path);
  ASSERT_EQ(rows.size(), 3u);
  for (std::int64_t s = 1; s <= 3; ++s) {
    EXPECT_EQ(rows[static_cast<std::size_t>(s - 1)].to_json(),
              snapshot_for_step(s).to_json());
  }
  std::filesystem::remove(path);
}

TEST(SeriesTest, ReaderNamesTheBadLine) {
  const std::string path = tmp("psdns_telemetry_series_bad.jsonl");
  {
    std::ofstream out(path);
    out << snapshot_for_step(1).to_json() << "\n" << "garbage\n";
  }
  EXPECT_THROW(read_series_jsonl(path), util::Error);
  std::filesystem::remove(path);
  EXPECT_THROW(read_series_jsonl(path), util::Error);  // missing file
}

// --- HealthMonitor ---

HealthInput healthy_input(std::int64_t step) {
  HealthInput in;
  in.step = step;
  in.dt = 0.01;
  in.dx = 0.4;
  in.energy = 0.5;
  in.dissipation = 0.1;
  in.u_max = 1.0;
  return in;
}

TEST(HealthTest, NonFiniteDiagnosticsAbort) {
  HealthMonitor monitor;
  EXPECT_EQ(monitor.evaluate(healthy_input(1)), HealthVerdict::Healthy);
  HealthInput bad = healthy_input(2);
  bad.energy = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(monitor.evaluate(bad), HealthVerdict::Abort);
  const auto events = monitor.last_events();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events[0].code, "nan_energy");
  EXPECT_EQ(events[0].severity, HealthSeverity::Critical);
  EXPECT_EQ(events[0].step, 2);
  EXPECT_EQ(monitor.report().worst, HealthVerdict::Abort);
}

TEST(HealthTest, EnergyDriftSkipsFirstSampleThenFires) {
  HealthConfig cfg;
  cfg.energy_drift_tol = 0.5;
  HealthMonitor monitor(cfg);
  HealthInput first = healthy_input(1);
  first.energy = 100.0;  // no prior sample: cannot drift
  EXPECT_EQ(monitor.evaluate(first), HealthVerdict::Healthy);
  HealthInput jump = healthy_input(2);
  jump.energy = 300.0;  // 200% jump against a 50% tolerance
  EXPECT_EQ(monitor.evaluate(jump), HealthVerdict::Abort);
  ASSERT_FALSE(monitor.last_events().empty());
  EXPECT_EQ(monitor.last_events()[0].code, "energy_drift");
}

TEST(HealthTest, CflBoundAborts) {
  HealthMonitor monitor;
  HealthInput in = healthy_input(1);
  in.u_max = 100.0;  // CFL = 100 * 0.01 / 0.4 = 2.5 > 1.5
  EXPECT_EQ(monitor.evaluate(in), HealthVerdict::Abort);
  EXPECT_EQ(monitor.last_events()[0].code, "cfl_bound");
  EXPECT_DOUBLE_EQ(monitor.last_events()[0].value, 2.5);
}

TEST(HealthTest, WarnLevelInvariantsDegrade) {
  HealthConfig cfg;
  cfg.kmax_eta_min = 1.5;
  cfg.checkpoint_lag_max = 10;
  cfg.recoveries_max = 2;
  HealthMonitor monitor(cfg);

  HealthInput in = healthy_input(1);
  in.kmax = 5.0;
  in.kolmogorov_eta = 0.1;    // kmax*eta = 0.5 < 1.5
  in.steps_since_checkpoint = 50;
  in.recoveries = 3;
  EXPECT_EQ(monitor.evaluate(in), HealthVerdict::Degraded);
  const auto events = monitor.last_events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].code, "kmax_eta");
  EXPECT_EQ(events[1].code, "ckpt_lag");
  EXPECT_EQ(events[2].code, "recoveries");
  for (const auto& e : events) {
    EXPECT_EQ(e.severity, HealthSeverity::Warn);
  }
}

TEST(HealthTest, DisabledThresholdsSkipChecks) {
  HealthConfig cfg;
  cfg.energy_drift_tol = 0.0;
  cfg.cfl_max = 0.0;
  HealthMonitor monitor(cfg);
  HealthInput in = healthy_input(1);
  in.u_max = 1e6;
  EXPECT_EQ(monitor.evaluate(in), HealthVerdict::Healthy);
  in.step = 2;
  in.energy = 1e9;
  EXPECT_EQ(monitor.evaluate(in), HealthVerdict::Healthy);
}

TEST(HealthTest, ModeParsesAndEnvOverrides) {
  EXPECT_EQ(parse_health_mode("off"), HealthMode::Off);
  EXPECT_EQ(parse_health_mode("warn"), HealthMode::Warn);
  EXPECT_EQ(parse_health_mode("strict"), HealthMode::Strict);
  EXPECT_THROW(parse_health_mode("loose"), util::Error);

  HealthConfig base;
  base.mode = HealthMode::Warn;
  ::setenv("PSDNS_HEALTH", "strict", 1);
  EXPECT_EQ(HealthConfig::from_env(base).mode, HealthMode::Strict);
  ::setenv("PSDNS_HEALTH", "bogus", 1);
  EXPECT_THROW(HealthConfig::from_env(base), util::Error);
  ::unsetenv("PSDNS_HEALTH");
  EXPECT_EQ(HealthConfig::from_env(base).mode, HealthMode::Warn);
}

TEST(HealthTest, ReportJsonIsMachineReadable) {
  HealthMonitor monitor;
  HealthInput bad = healthy_input(1);
  bad.u_max = std::numeric_limits<double>::infinity();
  monitor.evaluate(bad);
  const JsonValue doc = json_parse(monitor.report().to_json());
  EXPECT_EQ(doc.at("verdict").string, "abort");
  EXPECT_EQ(doc.at("evaluations").number, 1.0);
  ASSERT_FALSE(doc.at("events").array.empty());
  EXPECT_EQ(doc.at("events").array[0].at("code").string, "nan_umax");
}

// --- exposition ---

TEST(ExpositionTest, PrometheusNamesAreSanitizedAndPrefixed) {
  EXPECT_EQ(prometheus_name("comm.alltoall.bytes"),
            "psdns_comm_alltoall_bytes");
  EXPECT_EQ(prometheus_name("a-b c"), "psdns_a_b_c");
}

TEST(ExpositionTest, RendersStatLabelsAndHealthStatus) {
  ReducedSnapshot snap = snapshot_for_step(7);
  HealthReport report;
  report.verdict = HealthVerdict::Degraded;
  const std::string text = to_prometheus(snap, report);
  EXPECT_NE(text.find("psdns_up 1"), std::string::npos);
  EXPECT_NE(text.find("psdns_step 7"), std::string::npos);
  EXPECT_NE(text.find("psdns_g{stat=\"mean\"}"), std::string::npos);
  EXPECT_NE(text.find("psdns_health_status 1"), std::string::npos);
}

TEST(ExpositionTest, HistogramsRenderAsPrometheusSummaries) {
  MetricsSnapshot local;
  local.histograms["svc.tenant.alice.queue_wait_seconds"] =
      HistogramSummary{4, 2.0, 0.1, 0.9, 0.5, 0.8, 0.9};
  const ReducedSnapshot snap = merge_snapshots({serialize_snapshot(local)});
  const std::string text = to_prometheus(snap, HealthReport{});
  const std::string name = "psdns_svc_tenant_alice_queue_wait_seconds";
  EXPECT_NE(text.find("# TYPE " + name + " summary"), std::string::npos);
  EXPECT_NE(text.find(name + "{quantile=\"0.5\"} 0.5"), std::string::npos);
  EXPECT_NE(text.find(name + "{quantile=\"0.95\"} 0.8"), std::string::npos);
  EXPECT_NE(text.find(name + "{quantile=\"0.99\"} 0.9"), std::string::npos);
  EXPECT_NE(text.find(name + "_sum 2"), std::string::npos);
  EXPECT_NE(text.find(name + "_count 4"), std::string::npos);
  EXPECT_NE(text.find(name + "_min 0.1"), std::string::npos);
  EXPECT_NE(text.find(name + "_max 0.9"), std::string::npos);
}

TEST(ExpositionTest, JsonDocumentCarriesSnapshotAndHealth) {
  const ReducedSnapshot snap = snapshot_for_step(3);
  HealthReport report;
  const JsonValue doc = json_parse(to_exposition_json(snap, report));
  EXPECT_EQ(doc.at("snapshot").at("step").number, 3.0);
  EXPECT_EQ(doc.at("health").at("verdict").string, "healthy");
}

// --- metrics server ---

TEST(MetricsServerTest, ServesAllRoutesOnEphemeralPort) {
  MetricsServer server(MetricsServer::Options{});
  ASSERT_GT(server.port(), 0);

  HealthReport report;
  server.publish(to_prometheus(snapshot_for_step(1), report),
                 to_exposition_json(snapshot_for_step(1), report),
                 report.to_json());

  int status = 0;
  const std::string metrics =
      http_get("127.0.0.1", server.port(), "/metrics", &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(metrics.find("psdns_up 1"), std::string::npos);

  const std::string json =
      http_get("127.0.0.1", server.port(), "/json", &status);
  EXPECT_EQ(status, 200);
  EXPECT_EQ(json_parse(json).at("snapshot").at("step").number, 1.0);

  http_get("127.0.0.1", server.port(), "/health", &status);
  EXPECT_EQ(status, 200);

  // Publishing an abort verdict flips the liveness probe to 503.
  report.verdict = HealthVerdict::Abort;
  server.publish(to_prometheus(snapshot_for_step(2), report),
                 to_exposition_json(snapshot_for_step(2), report),
                 report.to_json(), /*unhealthy=*/true);
  http_get("127.0.0.1", server.port(), "/health", &status);
  EXPECT_EQ(status, 503);

  http_get("127.0.0.1", server.port(), "/nope", &status);
  EXPECT_EQ(status, 404);
  EXPECT_GE(server.requests(), 5);
}

TEST(MetricsServerTest, FromEnvHonorsVariable) {
  ::unsetenv("PSDNS_METRICS_PORT");
  EXPECT_EQ(MetricsServer::from_env(), nullptr);
  ::setenv("PSDNS_METRICS_PORT", "0", 1);
  const auto server = MetricsServer::from_env();
  ASSERT_NE(server, nullptr);
  EXPECT_GT(server->port(), 0);
  ::setenv("PSDNS_METRICS_PORT", "not-a-port", 1);
  EXPECT_THROW(MetricsServer::from_env(), util::Error);
  ::unsetenv("PSDNS_METRICS_PORT");
}

// --- campaign integration ---

driver::CampaignConfig drill_base_config() {
  driver::CampaignConfig cfg;
  cfg.solver.n = 16;
  cfg.solver.viscosity = 0.02;
  cfg.seed = 11;
  cfg.max_steps = 6;
  cfg.max_dt = 0.01;
  cfg.diagnostics_every = 1;
  return cfg;
}

TEST(TelemetryCampaignTest, LiveEndpointServesReducedMetricsWhileStepping) {
  const std::string series_path = tmp("psdns_telemetry_live.jsonl");
  std::filesystem::remove(series_path);

  driver::CampaignConfig cfg = drill_base_config();
  cfg.max_steps = 4;
  cfg.metrics_port = 0;  // ephemeral: parallel test jobs must not collide
  cfg.telemetry_path = series_path;
  cfg.health.mode = HealthMode::Warn;

  std::atomic<int> live_fetches{0};
  std::atomic<bool> live_saw_step{false};
  std::atomic<bool> live_health_ok{false};
  driver::CampaignResult result;
  std::mutex mu;

  comm::run_ranks(2, [&](comm::Communicator& comm) {
    // The observer runs on rank 0 inside the stepping loop - this IS the
    // "scrape while the campaign is live" scenario. The endpoint publishes
    // after the observer fires, so rows lag one step; fetch from step 2 on.
    const auto observer = [&](std::int64_t step, double, const dns::Diagnostics&) {
      if (step < 2) return;
      const int port =
          static_cast<int>(registry().gauge("telemetry.metrics_port"));
      ASSERT_GT(port, 0);
      int status = 0;
      const std::string text =
          http_get("127.0.0.1", port, "/metrics", &status);
      EXPECT_EQ(status, 200);
      EXPECT_NE(text.find("psdns_up 1"), std::string::npos);
      EXPECT_NE(text.find("psdns_rank_steps"), std::string::npos);
      const JsonValue doc = json_parse(
          http_get("127.0.0.1", port, "/json", &status));
      EXPECT_EQ(status, 200);
      if (doc.at("snapshot").at("step").number >= 1.0) {
        live_saw_step = true;
      }
      http_get("127.0.0.1", port, "/health", &status);
      if (status == 200) live_health_ok = true;
      ++live_fetches;
    };
    const auto r = driver::run_campaign_supervised(comm, cfg, {}, observer);
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lock(mu);
      result = r;
    }
  });

  EXPECT_GE(live_fetches.load(), 2);
  EXPECT_TRUE(live_saw_step.load());
  EXPECT_TRUE(live_health_ok.load());
  EXPECT_GT(result.metrics_port, 0);
  EXPECT_EQ(result.health.verdict, HealthVerdict::Healthy);

  // One reduced row per step, with genuine per-rank spread: both ranks
  // report rank.steps, and the straggler gauge covers both ranks.
  ASSERT_EQ(result.telemetry.size(), 4u);
  const ReducedSnapshot& last = result.telemetry.back();
  EXPECT_EQ(last.step, 4);
  const ReducedValue* steps = last.counter("rank.steps");
  ASSERT_NE(steps, nullptr);
  EXPECT_EQ(steps->count, 2);
  EXPECT_DOUBLE_EQ(steps->sum, 8.0);  // 2 ranks x 4 steps
  const ReducedValue* wall = last.gauge("rank.step.wall_seconds");
  ASSERT_NE(wall, nullptr);
  EXPECT_EQ(wall->count, 2);
  EXPECT_GE(wall->max_rank, 0);

  // The JSONL series replays the run identically, row for row.
  const auto rows = read_series_jsonl(series_path);
  ASSERT_EQ(rows.size(), result.telemetry.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].to_json(), result.telemetry[i].to_json());
  }
  std::filesystem::remove(series_path);
}

/// What a bit-flip drill run left behind: each rank's HealthAbort step and
/// event codes, and from the telemetry series the step at which
/// fault.injected first moved, the first abort row and the last row.
struct BitFlipDrill {
  std::vector<std::int64_t> abort_steps;
  std::vector<std::string> abort_codes;
  std::int64_t inject_step = -1;
  std::int64_t first_abort_step = -1;
  std::int64_t last_row_step = -1;
};

/// Runs `cfg` (telemetry_path set, Strict health) on 2 ranks under `plan`,
/// expecting every rank to abort.
BitFlipDrill run_bit_flip_drill(const driver::CampaignConfig& cfg,
                                const std::string& plan_text) {
  BitFlipDrill out;
  std::mutex mu;
  // Every rank snapshots the one process-wide registry, so a row's max
  // over ranks is the global count; earlier tests may have moved it.
  const auto injected_before =
      static_cast<double>(registry().counter("fault.injected"));
  {
    resilience::ScopedPlan plan(plan_text);
    comm::run_ranks(2, [&](comm::Communicator& comm) {
      try {
        driver::run_campaign_supervised(comm, cfg);
        ADD_FAILURE() << "rank " << comm.rank()
                      << ": corrupted campaign completed without abort";
      } catch (const HealthAbort& abort) {
        std::lock_guard<std::mutex> lock(mu);
        out.abort_steps.push_back(abort.step());
        for (const auto& e : abort.events()) out.abort_codes.push_back(e.code);
      }
    });
  }

  // The series pins down detection latency: the first row where the
  // fault.injected counter moves is also the first (and only) abort row.
  const auto rows = read_series_jsonl(cfg.telemetry_path);
  if (rows.empty()) return out;
  for (const auto& row : rows) {
    const ReducedValue* injected = row.counter("fault.injected");
    const double now = injected != nullptr ? injected->max : 0.0;
    if (out.inject_step < 0 && now > injected_before) {
      out.inject_step = row.step;
    }
    if (out.first_abort_step < 0 && row.health_verdict == "abort") {
      out.first_abort_step = row.step;
    }
  }
  out.last_row_step = rows.back().step;
  return out;
}

// The acceptance drill: a silent bit flip in an all-to-all mid-step-3 sends
// the velocity field non-finite; a Strict health monitor must abort at that
// same step on every rank, and the checkpoint chain must contain only
// pre-fault state.
TEST(TelemetryDrillTest, BitFlipIsCaughtWithinOneStepAndCheckpointsStayClean) {
  const std::string ckpt = tmp("psdns_telemetry_drill.ckp");
  const std::string clean_ckpt = tmp("psdns_telemetry_drill_clean.ckp");
  const std::string series_path = tmp("psdns_telemetry_drill.jsonl");
  remove_all_variants(ckpt);
  remove_all_variants(clean_ckpt);
  std::filesystem::remove(series_path);

  driver::CampaignConfig cfg = drill_base_config();
  cfg.checkpoint_every = 2;
  cfg.checkpoint_path = ckpt;
  cfg.telemetry_path = series_path;
  cfg.health.mode = HealthMode::Strict;

  // Call index 13 lands inside step 3's transposes (4 all-to-alls per step
  // at n=16 on 2 ranks; steps 1-2 plus init consume 11 calls). The flipped
  // exponent bit makes the field non-finite during step 3.
  const BitFlipDrill drill =
      run_bit_flip_drill(cfg, "comm.alltoall@13=bit_flip");

  // Every rank aborted, at the same step, with the NaN guard fired.
  ASSERT_EQ(drill.abort_steps.size(), 2u);
  EXPECT_EQ(drill.abort_steps[0], drill.abort_steps[1]);
  const std::int64_t abort_step = drill.abort_steps[0];
  EXPECT_EQ(abort_step, 3) << "injection at call 13 should strike step 3";
  EXPECT_TRUE(std::find(drill.abort_codes.begin(), drill.abort_codes.end(),
                        "nan_energy") != drill.abort_codes.end())
      << "NaN guard did not fire";

  ASSERT_GE(drill.last_row_step, 0) << "empty telemetry series";
  ASSERT_GE(drill.inject_step, 0) << "fault never fired";
  EXPECT_EQ(drill.first_abort_step, drill.inject_step)
      << "abort verdict lagged the injection step";
  EXPECT_EQ(drill.first_abort_step, abort_step);
  EXPECT_EQ(drill.last_row_step, abort_step)
      << "campaign kept stepping past the abort";

  // No corrupt checkpoint: the abort fired before the post-fault cadence
  // point, so the newest file on disk is the step-2 checkpoint - bitwise
  // identical to one written by a fault-free run of the same config.
  ASSERT_TRUE(std::filesystem::exists(ckpt));
  driver::CampaignConfig clean = cfg;
  clean.max_steps = 2;
  clean.checkpoint_path = clean_ckpt;
  clean.telemetry_path.clear();
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    driver::run_campaign(comm, clean);
  });
  const std::string faulted_bytes = read_file(ckpt);
  const std::string clean_bytes = read_file(clean_ckpt);
  ASSERT_FALSE(faulted_bytes.empty());
  EXPECT_EQ(faulted_bytes, clean_bytes)
      << "checkpoint written by the faulted run diverges from clean state";

  remove_all_variants(ckpt);
  remove_all_variants(clean_ckpt);
  std::filesystem::remove(series_path);
}

// The pencil twin: the row and column exchanges are the same one-copy
// collective as the slab transpose, so a bit_flip entry corrupts the
// received payload there too (on the row exchange it used to throw
// InjectedFault) and the Strict monitor aborts at the injection step.
// A 1x2 pencil transform makes two all-to-alls per variable: init's
// 3-field forward takes calls 0-5, the throwaway RHS evaluation of the
// first cfl_dt() calls 6-23 (so call 13 would corrupt discarded data), and
// each step 36 (an RHS evaluation runs the 3 velocity inverses, column
// then row exchange each, then the 6 product forwards). Call 97 is the row
// exchange of the first velocity inverse in step 3; it used to throw.
TEST(TelemetryDrillTest, PencilBitFlipIsCaughtAtTheInjectionStep) {
  const std::string series_path = tmp("psdns_telemetry_drill_pencil.jsonl");
  std::filesystem::remove(series_path);

  driver::CampaignConfig cfg = drill_base_config();
  cfg.solver.decomposition = transpose::Decomposition::Pencil;  // 1x2
  cfg.telemetry_path = series_path;
  cfg.health.mode = HealthMode::Strict;

  const BitFlipDrill drill =
      run_bit_flip_drill(cfg, "comm.alltoall@97=bit_flip");

  ASSERT_EQ(drill.abort_steps.size(), 2u);
  EXPECT_EQ(drill.abort_steps[0], drill.abort_steps[1]);
  EXPECT_EQ(drill.abort_steps[0], 3)
      << "injection at call 97 should strike step 3";
  EXPECT_TRUE(std::find(drill.abort_codes.begin(), drill.abort_codes.end(),
                        "nan_energy") != drill.abort_codes.end())
      << "NaN guard did not fire";
  ASSERT_GE(drill.inject_step, 0) << "fault never fired";
  EXPECT_EQ(drill.first_abort_step, drill.inject_step)
      << "abort verdict lagged the injection step";
  EXPECT_EQ(drill.abort_steps[0], drill.inject_step);
  EXPECT_EQ(drill.last_row_step, drill.inject_step)
      << "campaign kept stepping past the abort";
  std::filesystem::remove(series_path);
}

}  // namespace
}  // namespace psdns::obs
