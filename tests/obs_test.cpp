#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <thread>

#include "obs/bench_report.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "obs/trace_export.hpp"
#include "pipeline/dns_step_model.hpp"
#include "util/check.hpp"

namespace psdns::obs {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// --- JSON primitives ---

TEST(Json, EscapesSpecialCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(json_quote("a\"b"), "\"a\\\"b\"");
}

TEST(Json, NumbersRoundTripAndNonFiniteBecomesNull) {
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(1.5), "1.5");
  const double pi = 3.141592653589793;
  EXPECT_DOUBLE_EQ(std::strtod(json_number(pi).c_str(), nullptr), pi);
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
}

TEST(Json, ParsesDocuments) {
  const auto v = json_parse(
      R"({"a": 1.5, "b": [true, false, null], "s": "x\ny", "o": {"k": -2}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.at("a").number, 1.5);
  ASSERT_TRUE(v.at("b").is_array());
  ASSERT_EQ(v.at("b").array.size(), 3u);
  EXPECT_TRUE(v.at("b").array[0].boolean);
  EXPECT_TRUE(v.at("b").array[2].is_null());
  EXPECT_EQ(v.at("s").string, "x\ny");
  EXPECT_DOUBLE_EQ(v.at("o").at("k").number, -2.0);
  EXPECT_TRUE(v.has("a"));
  EXPECT_FALSE(v.has("missing"));
  EXPECT_THROW(v.at("missing"), util::Error);
}

TEST(Json, ParsesUnicodeEscapes) {
  // A unicode escape for e-acute decodes to its two UTF-8 bytes; raw
  // multi-byte input passes through untouched. (The escape sequence is
  // assembled from adjacent literals so this source file stays ASCII.)
  const std::string escaped = std::string("\"A\\") + "u00e9\"";
  EXPECT_EQ(json_parse(escaped).string, "A\xc3\xa9");
  EXPECT_EQ(json_parse("\"A\xc3\xa9\"").string, "A\xc3\xa9");
  const std::string ascii_escape = std::string("\"\\") + "u0041\"";
  EXPECT_EQ(json_parse(ascii_escape).string, "A");
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(json_parse(""), util::Error);
  EXPECT_THROW(json_parse("{"), util::Error);
  EXPECT_THROW(json_parse("[1,]"), util::Error);
  EXPECT_THROW(json_parse("{\"a\":1} trailing"), util::Error);
  EXPECT_THROW(json_parse("\"unterminated"), util::Error);
  EXPECT_THROW(json_parse("nul"), util::Error);
  EXPECT_THROW(json_parse("\"raw\ncontrol\""), util::Error);
}

// --- metrics registry ---

TEST(Registry, CountersAndGauges) {
  Registry reg;
  EXPECT_EQ(reg.counter("c"), 0);
  reg.counter_add("c");
  reg.counter_add("c", 41);
  EXPECT_EQ(reg.counter("c"), 42);
  reg.gauge_set("g", 2.5);
  EXPECT_DOUBLE_EQ(reg.gauge("g"), 2.5);
  reg.gauge_set("g", -1.0);
  EXPECT_DOUBLE_EQ(reg.gauge("g"), -1.0);
  reg.reset();
  EXPECT_EQ(reg.counter("c"), 0);
}

TEST(Registry, HistogramPercentiles) {
  Registry reg;
  // One bucket per unit: observations k=1..100 land one per bucket, so the
  // interpolated percentiles are exact.
  std::vector<double> bounds;
  for (int i = 1; i <= 100; ++i) bounds.push_back(static_cast<double>(i));
  reg.declare_histogram("h", bounds);
  for (int k = 1; k <= 100; ++k) reg.observe("h", static_cast<double>(k));
  const auto s = reg.histogram("h");
  EXPECT_EQ(s.count, 100);
  EXPECT_DOUBLE_EQ(s.sum, 5050.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_NEAR(s.p50, 50.0, 1.0);
  EXPECT_NEAR(s.p95, 95.0, 1.0);
  EXPECT_NEAR(s.p99, 99.0, 1.0);
}

TEST(Registry, SmallSamplePercentilesAreExactR7) {
  // Below the raw-sample reservoir cap the summary must use the documented
  // exact rule: sorted samples, rank p/100 * (count-1), linear
  // interpolation between the adjacent ranks (numpy default / R type 7).
  Registry reg;
  for (double v : {10.0, 20.0, 30.0, 40.0}) reg.observe("q", v);
  const auto s = reg.histogram("q");
  EXPECT_EQ(s.count, 4);
  EXPECT_DOUBLE_EQ(s.p50, 25.0);  // rank 1.5 between 20 and 30
  EXPECT_DOUBLE_EQ(s.p95, 38.5);  // rank 2.85 between 30 and 40
  EXPECT_DOUBLE_EQ(s.p99, 39.7);  // rank 2.97

  Registry one;
  one.observe("single", 7.5);
  const auto s1 = one.histogram("single");
  EXPECT_DOUBLE_EQ(s1.p50, 7.5);
  EXPECT_DOUBLE_EQ(s1.p95, 7.5);
  EXPECT_DOUBLE_EQ(s1.p99, 7.5);

  Registry two;
  two.observe("pair", 1.0);
  two.observe("pair", 3.0);
  EXPECT_DOUBLE_EQ(two.histogram("pair").p50, 2.0);
}

TEST(Registry, PercentilesFallBackToBucketsPastTheReservoir) {
  // Past Registry::kExactSampleCap observations the reservoir no longer
  // holds everything; the summary interpolates inside the matching bucket
  // and must stay within the observed range.
  Registry reg;
  std::vector<double> bounds;
  for (int i = 10; i <= 1000; i += 10) bounds.push_back(i);
  reg.declare_histogram("big", bounds);
  const int n = 1000;  // > kExactSampleCap (256)
  for (int k = 1; k <= n; ++k) reg.observe("big", static_cast<double>(k));
  const auto s = reg.histogram("big");
  EXPECT_EQ(s.count, n);
  EXPECT_NEAR(s.p50, 500.0, 10.0);
  EXPECT_NEAR(s.p95, 950.0, 10.0);
  EXPECT_NEAR(s.p99, 990.0, 10.0);
  EXPECT_GE(s.p50, s.min);
  EXPECT_LE(s.p99, s.max);
}

TEST(Registry, ConcurrentObserversAreSafe) {
  // Counters, gauges, histograms and spans hammered from many threads:
  // nothing may be lost and the summary must stay self-consistent. Run
  // under TSan this is also the data-race check for the registry. Spans
  // always observe into the global registry, so their histogram is read
  // there as a count delta.
  Registry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  const std::int64_t timed0 =
      registry().histogram("obs_test.concurrent.timed").count;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg, t] {
      for (int i = 0; i < kIters; ++i) {
        reg.counter_add("ops", 1);
        reg.gauge_set("last." + std::to_string(t), i);
        reg.observe("lat", static_cast<double>(i % 100));
        if (i % 100 == 0) TraceSpan span("obs_test.concurrent.timed");
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(reg.counter("ops"), kThreads * kIters);
  const auto s = reg.histogram("lat");
  EXPECT_EQ(s.count, kThreads * kIters);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 99.0);
  EXPECT_GE(s.p50, s.min);
  EXPECT_LE(s.p99, s.max);
  EXPECT_EQ(registry().histogram("obs_test.concurrent.timed").count - timed0,
            kThreads * (kIters / 100));
}

TEST(Registry, HistogramDefaultBoundsAndClamping) {
  Registry reg;
  // Undeclared histograms spring into existence with default bounds.
  reg.observe("auto", 1e-9);   // below the lowest bound
  reg.observe("auto", 1e9);    // above the highest (overflow bucket)
  const auto s = reg.histogram("auto");
  EXPECT_EQ(s.count, 2);
  // Percentile estimates stay within the observed range.
  EXPECT_GE(s.p50, s.min);
  EXPECT_LE(s.p99, s.max);
  EXPECT_THROW(reg.declare_histogram("auto", {1.0}), util::Error);
}

TEST(Registry, SnapshotAndJson) {
  Registry reg;
  reg.counter_add("ops", 3);
  reg.gauge_set("temp", 1.25);
  reg.observe("lat", 0.5);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("ops"), 3);
  EXPECT_DOUBLE_EQ(snap.gauges.at("temp"), 1.25);
  EXPECT_EQ(snap.histograms.at("lat").count, 1);

  const auto v = json_parse(reg.to_json());
  EXPECT_DOUBLE_EQ(v.at("counters").at("ops").number, 3.0);
  EXPECT_DOUBLE_EQ(v.at("gauges").at("temp").number, 1.25);
  EXPECT_DOUBLE_EQ(v.at("histograms").at("lat").at("count").number, 1.0);
  EXPECT_TRUE(v.at("histograms").at("lat").has("p99"));
}

TEST(Registry, ThreadIndexIsDenseAndStable) {
  const int self = thread_index();
  EXPECT_GE(self, 0);
  EXPECT_EQ(thread_index(), self);
  int other = -1;
  std::thread([&] { other = thread_index(); }).join();
  EXPECT_GE(other, 0);
  EXPECT_NE(other, self);
}

// --- structured logging ---

class LogToFile : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "obs_log_test.jsonl";
    std::remove(path_.c_str());
    set_log_file(path_);
  }
  void TearDown() override {
    set_log_file("");
    set_log_level(LogLevel::Warn);
    std::remove(path_.c_str());
  }
  std::string path_;
};

TEST_F(LogToFile, LevelFilteringAndJsonLines) {
  set_log_level(LogLevel::Info);
  log_event(LogLevel::Debug, "test", "filtered out");
  log_event(LogLevel::Info, "test", "kept",
            {{"n", 42}, {"ratio", 0.5}, {"tag", "a\"b"}, {"ok", true}});
  set_log_level(LogLevel::Off);
  log_event(LogLevel::Error, "test", "also filtered");

  const std::string text = read_file(path_);
  std::istringstream lines(text);
  std::string line;
  std::vector<JsonValue> events;
  while (std::getline(lines, line)) {
    if (!line.empty()) events.push_back(json_parse(line));
  }
  ASSERT_EQ(events.size(), 1u);
  const auto& e = events[0];
  EXPECT_EQ(e.at("level").string, "info");
  EXPECT_EQ(e.at("subsystem").string, "test");
  EXPECT_EQ(e.at("msg").string, "kept");
  EXPECT_DOUBLE_EQ(e.at("n").number, 42.0);
  EXPECT_DOUBLE_EQ(e.at("ratio").number, 0.5);
  EXPECT_EQ(e.at("tag").string, "a\"b");
  EXPECT_TRUE(e.at("ok").boolean);
  EXPECT_TRUE(e.has("ts_ms"));
  EXPECT_TRUE(e.has("thread"));
}

TEST_F(LogToFile, RankTagStampedOnLines) {
  set_log_level(LogLevel::Info);
  const int before = rank_tag();
  set_rank_tag(7);
  log_event(LogLevel::Info, "test", "tagged");
  set_rank_tag(before);

  const auto e = json_parse(read_file(path_).substr(
      0, read_file(path_).find('\n')));
  EXPECT_DOUBLE_EQ(e.at("rank").number, 7.0);
}

TEST(Log, SinkOnFullDeviceNeverThrows) {
  // /dev/full opens, then refuses every flush; the line is lost but the
  // caller (often on its way to another error) goes on.
  set_log_file("/dev/full");
  set_log_level(LogLevel::Info);
  EXPECT_NO_THROW(log_event(LogLevel::Error, "test", "disk full",
                            {{"n", 1}}));
  set_log_file("");
  set_log_level(LogLevel::Warn);
}

TEST(Log, ParseLevelNames) {
  EXPECT_EQ(parse_log_level("trace"), LogLevel::Trace);
  EXPECT_EQ(parse_log_level("debug"), LogLevel::Debug);
  EXPECT_EQ(parse_log_level("info"), LogLevel::Info);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::Warn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::Error);
  EXPECT_EQ(parse_log_level("off"), LogLevel::Off);
  EXPECT_THROW(parse_log_level("verbose"), util::Error);
  EXPECT_STREQ(to_string(LogLevel::Warn), "warn");
}

TEST(Log, EnabledRespectsThreshold) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::Warn);
  EXPECT_FALSE(log_enabled(LogLevel::Info));
  EXPECT_TRUE(log_enabled(LogLevel::Warn));
  EXPECT_TRUE(log_enabled(LogLevel::Error));
  set_log_level(before);
}

// --- Chrome trace export ---

namespace {
SpanRecord span_rec(SpanId id, const std::string& name, SpanKind kind,
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
}  // namespace

TEST(TraceExport, SpansBecomeValidChromeTrace) {
  SpanTrace trace;
  trace.spans.push_back(
      span_rec(1, "a2a pencil 0", SpanKind::Comm, 0, 0, 0.0, 1.5));
  trace.spans.push_back(
      span_rec(2, "fft \"quoted\"", SpanKind::Compute, 1, 0, 0.5, 2.0));
  trace.spans.push_back(
      span_rec(3, "h2d", SpanKind::Transfer, 2, 0, 2.0, 2.25));
  trace.edges.push_back({1, 1, 3});
  trace.thread_names = {"rank0.mpi", "rank0.compute", "rank0.transfer"};
  const std::string text = to_chrome_trace(trace);

  const auto v = json_parse(text);
  ASSERT_TRUE(v.is_array());
  ASSERT_FALSE(v.array.empty());
  // Every event, flow events included, carries the complete-event schema
  // the viewers expect.
  for (const auto& e : v.array) {
    ASSERT_TRUE(e.is_object());
    EXPECT_TRUE(e.has("name"));
    EXPECT_TRUE(e.has("ph"));
    EXPECT_TRUE(e.has("ts"));
    EXPECT_TRUE(e.has("dur"));
    EXPECT_TRUE(e.has("pid"));
    EXPECT_TRUE(e.has("tid"));
  }
  std::size_t complete = 0;
  bool saw_quoted = false;
  for (const auto& e : v.array) {
    if (e.at("ph").string != "X") continue;
    ++complete;
    if (e.at("name").string == "fft \"quoted\"") {
      saw_quoted = true;
      EXPECT_DOUBLE_EQ(e.at("ts").number, 0.5e6);
      EXPECT_DOUBLE_EQ(e.at("dur").number, 1.5e6);
    }
  }
  EXPECT_EQ(complete, trace.spans.size());
  EXPECT_TRUE(saw_quoted);
}

TEST(TraceExport, OneTrackPerLane) {
  SpanTrace trace;
  trace.spans.push_back(span_rec(1, "a", SpanKind::Comm, 0, 0, 0.0, 1.0));
  trace.spans.push_back(span_rec(2, "b", SpanKind::Compute, 1, 0, 0.0, 1.0));
  trace.spans.push_back(span_rec(3, "c", SpanKind::Comm, 0, 0, 1.0, 2.0));
  trace.thread_names = {"lane.x", "lane.y"};
  const auto v = json_parse(to_chrome_trace(trace));
  double tid_x = -1.0, tid_y = -1.0;
  std::set<std::string> track_names;
  for (const auto& e : v.array) {
    if (e.at("ph").string == "M" && e.at("name").string == "thread_name") {
      track_names.insert(e.at("args").at("name").string);
    }
    if (e.at("ph").string != "X") continue;
    if (e.at("name").string == "a") tid_x = e.at("tid").number;
    if (e.at("name").string == "b") tid_y = e.at("tid").number;
    if (e.at("name").string == "c") {
      EXPECT_DOUBLE_EQ(e.at("tid").number, tid_x);
    }
  }
  EXPECT_NE(tid_x, tid_y);
  EXPECT_EQ(track_names, (std::set<std::string>{"lane.x", "lane.y"}));
}

TEST(TraceExport, SimulatedStepExportsRoundTrip) {
  // The fig10 path end-to-end: a real co-simulated step's trace parses as
  // a Chrome trace with events on every stream.
  pipeline::DnsStepModel model;
  pipeline::PipelineConfig cfg;
  cfg.n = 3072;
  cfg.nodes = 16;
  cfg.pencils = 6;
  cfg.mpi = pipeline::MpiConfig::B;
  const auto r = model.simulate_gpu_step(cfg);
  ASSERT_FALSE(r.trace.spans.empty());
  const auto v = json_parse(to_chrome_trace(r.trace));
  std::size_t complete = 0;
  for (const auto& e : v.array) {
    if (e.at("ph").string == "X") ++complete;
  }
  EXPECT_EQ(complete, r.trace.spans.size());
}

TEST(TraceExport, ColorsAreStableChromeNames) {
  EXPECT_STREQ(chrome_color(SpanKind::Comm), "terrible");
  EXPECT_NE(chrome_color(SpanKind::Compute), nullptr);
  EXPECT_NE(chrome_color(SpanKind::Transfer),
            chrome_color(SpanKind::Compute));
}

TEST(TraceExport, SpanTraceRoundTripsWithFlowEvents) {
  // A two-rank trace with one causal edge: every emitted document must
  // parse back through obs::json_parse, complete events must map rank ->
  // pid (options.pid + rank + 1) and thread -> tid, and the edge must
  // become a Chrome flow pair: ph "s" leaving the source span's end, ph
  // "f" (with bp "e") landing on the destination span's start, same id.
  SpanTrace trace;
  trace.spans.push_back(
      span_rec(1, "pack", SpanKind::Transfer, 3, 0, 0.0, 1.0));
  trace.spans.push_back(span_rec(2, "a2a", SpanKind::Comm, 5, 1, 1.0, 2.5));
  trace.edges.push_back({42, 1, 2});

  ChromeTraceOptions opt;
  opt.pid = 100;
  const auto v = json_parse(to_chrome_trace(trace, opt));
  ASSERT_TRUE(v.is_array());

  const JsonValue* pack = nullptr;
  const JsonValue* a2a = nullptr;
  const JsonValue* flow_s = nullptr;
  const JsonValue* flow_f = nullptr;
  for (const auto& e : v.array) {
    ASSERT_TRUE(e.is_object());
    const std::string& ph = e.at("ph").string;
    if (ph == "X" && e.at("name").string == "pack") pack = &e;
    if (ph == "X" && e.at("name").string == "a2a") a2a = &e;
    if (ph == "s") flow_s = &e;
    if (ph == "f") flow_f = &e;
  }
  ASSERT_NE(pack, nullptr);
  ASSERT_NE(a2a, nullptr);
  EXPECT_DOUBLE_EQ(pack->at("pid").number, 101.0);  // rank 0 -> pid+1
  EXPECT_DOUBLE_EQ(pack->at("tid").number, 3.0);
  EXPECT_DOUBLE_EQ(a2a->at("pid").number, 102.0);  // rank 1 -> pid+2
  EXPECT_DOUBLE_EQ(a2a->at("tid").number, 5.0);
  EXPECT_EQ(pack->at("cat").string, std::string(to_string(SpanKind::Transfer)));

  ASSERT_NE(flow_s, nullptr);
  ASSERT_NE(flow_f, nullptr);
  EXPECT_EQ(flow_s->at("cat").string, "flow");
  EXPECT_DOUBLE_EQ(flow_s->at("id").number, flow_f->at("id").number);
  // Arrow leaves the source at its end, lands on the destination at its
  // start (binding point "e" = enclosing slice).
  EXPECT_DOUBLE_EQ(flow_s->at("ts").number, 1.0e6);
  EXPECT_DOUBLE_EQ(flow_s->at("pid").number, 101.0);
  EXPECT_DOUBLE_EQ(flow_s->at("tid").number, 3.0);
  EXPECT_DOUBLE_EQ(flow_f->at("ts").number, 1.0e6);
  EXPECT_DOUBLE_EQ(flow_f->at("pid").number, 102.0);
  EXPECT_DOUBLE_EQ(flow_f->at("tid").number, 5.0);
  EXPECT_EQ(flow_f->at("bp").string, "e");
  EXPECT_FALSE(flow_s->has("bp"));
}

TEST(TraceExport, UntaggedSpansShareTheBasePid) {
  // rank = -1 (untagged, e.g. a single-process tool) stays on options.pid;
  // process metadata still names every used pid.
  SpanTrace trace;
  trace.spans.push_back(
      span_rec(1, "solo", SpanKind::Compute, 0, -1, 0.0, 1.0));
  trace.spans.push_back(span_rec(2, "r0", SpanKind::Compute, 0, 0, 0.0, 1.0));
  ChromeTraceOptions opt;
  opt.pid = 7;
  const auto v = json_parse(to_chrome_trace(trace, opt));
  std::set<double> meta_pids;
  for (const auto& e : v.array) {
    if (e.at("ph").string == "M" && e.at("name").string == "process_name") {
      meta_pids.insert(e.at("pid").number);
    }
    if (e.at("ph").string == "X" && e.at("name").string == "solo") {
      EXPECT_DOUBLE_EQ(e.at("pid").number, 7.0);
    }
    if (e.at("ph").string == "X" && e.at("name").string == "r0") {
      EXPECT_DOUBLE_EQ(e.at("pid").number, 8.0);
    }
  }
  EXPECT_EQ(meta_pids, (std::set<double>{7.0, 8.0}));
}

TEST(TraceExport, DanglingEdgesAreDroppedFromTheExport) {
  // Edges whose spans were lost to ring wrap must not emit half a flow
  // pair; the export silently skips them.
  SpanTrace trace;
  trace.spans.push_back(
      span_rec(1, "kept", SpanKind::Compute, 0, 0, 0.0, 1.0));
  trace.edges.push_back({9, 1, 999});  // dst was dropped
  trace.edges.push_back({10, 998, 1});  // src was dropped
  const auto v = json_parse(to_chrome_trace(trace));
  for (const auto& e : v.array) {
    EXPECT_NE(e.at("ph").string, "s");
    EXPECT_NE(e.at("ph").string, "f");
  }
}

// --- bench reports ---

TEST(BenchReport, JsonSchemaAndDedup) {
  BenchReport report("unit_test");
  report.meta("description", "schema check");
  report.metric("alpha", 1.0);
  report.metric("alpha", 2.0);  // last write wins
  report.metric("beta.sub", -0.25);
  report.seed(42);

  const auto v = json_parse(report.to_json());
  EXPECT_EQ(v.at("name").string, "unit_test");
  EXPECT_DOUBLE_EQ(v.at("schema_version").number, 2.0);
  EXPECT_TRUE(v.at("git_sha").is_string());
  EXPECT_FALSE(v.at("git_sha").string.empty());
  EXPECT_EQ(v.at("metadata").at("description").string, "schema check");
  EXPECT_DOUBLE_EQ(v.at("metrics").at("alpha").number, 2.0);
  EXPECT_DOUBLE_EQ(v.at("metrics").at("beta.sub").number, -0.25);
}

TEST(BenchReport, ManifestCarriesProvenance) {
  ASSERT_EQ(setenv("PSDNS_MANIFEST_PROBE", "on", 1), 0);
  BenchReport report("manifest_test");
  report.seed(1234);
  unsetenv("PSDNS_MANIFEST_PROBE");

  const auto v = json_parse(report.to_json());
  const auto& m = v.at("manifest");
  EXPECT_EQ(m.at("git_sha").string, v.at("git_sha").string);
  EXPECT_FALSE(m.at("compiler").string.empty());
  EXPECT_FALSE(m.at("hostname").string.empty());
  EXPECT_EQ(m.at("seed").string, "1234");
  // Every PSDNS_* variable in effect at collection is recorded.
  EXPECT_EQ(m.at("env").at("PSDNS_MANIFEST_PROBE").string, "on");
}

TEST(BenchReport, WritesToBenchDir) {
  const std::string dir = ::testing::TempDir();
  ASSERT_EQ(setenv("PSDNS_BENCH_DIR", dir.c_str(), 1), 0);
  BenchReport report("dir_test");
  report.metric("x", 1.0);
  const std::string path = report.write();
  unsetenv("PSDNS_BENCH_DIR");

  EXPECT_EQ(path,
            (std::filesystem::path(dir) / "BENCH_dir_test.json").string());
  const auto v = json_parse(read_file(path));
  EXPECT_DOUBLE_EQ(v.at("metrics").at("x").number, 1.0);
  std::remove(path.c_str());
}

TEST(BenchReport, GitShaResolvesInThisCheckout) {
  // The tests run from the build tree inside the repo: the upward .git
  // search should find the real HEAD (40 hex chars), and the env override
  // must win over it.
  const std::string sha = current_git_sha();
  EXPECT_FALSE(sha.empty());
  ASSERT_EQ(setenv("PSDNS_GIT_SHA", "deadbeef", 1), 0);
  EXPECT_EQ(current_git_sha(), "deadbeef");
  unsetenv("PSDNS_GIT_SHA");
}

}  // namespace
}  // namespace psdns::obs
