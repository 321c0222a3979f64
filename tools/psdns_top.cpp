// psdns_top: terminal dashboard for the live telemetry plane.
//
//   psdns_top --port 9188 [--host 127.0.0.1] [--watch SECS]
//       scrape a running campaign's metrics endpoint (/json) and render
//       the latest reduced snapshot + health verdict; --watch polls until
//       the endpoint goes away (campaign finished).
//
//   psdns_top --series telemetry.jsonl
//       replay a recorded step series offline: one summary line per row,
//       then the full table for the final row. The same rendering path as
//       live mode - the series is the endpoint's flight recorder.
//
//   psdns_top --service --port N [--host H] [--watch SECS]
//       the campaign-service view: scrapes GET /queue and GET /json and
//       renders a per-tenant table - weight, target vs achieved fair
//       share, submissions, completions, cache-hit rate, and the SLO
//       latency quantiles (queue-wait / run / end-to-end p50 and p95)
//       from the per-tenant summary histograms - followed by a per-job
//       table (id, tenant, equation system, state, grid size, cache hit).
//
// --json switches both modes to machine-readable output: live mode prints
// the endpoint's /json document verbatim (one line per poll), series mode
// one ReducedSnapshot JSON object per row. Exit codes are unchanged.
//
// Exit codes: 0 healthy/degraded, 2 when the latest verdict is abort,
// 1 on usage or fetch errors, or when a one-shot scrape finds no row
// published yet (lets CI scripts retry, then gate on campaign health).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/metric_series.hpp"
#include "obs/metrics_server.hpp"
#include "obs/reduce.hpp"
#include "util/check.hpp"

namespace {

using psdns::obs::JsonValue;

struct Options {
  std::string host = "127.0.0.1";
  int port = -1;
  std::string series;
  double watch_seconds = 0.0;  // 0 = single shot
  bool json = false;           // raw JSON instead of the rendered table
  bool service = false;        // campaign-service tenant/SLO view
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --port N [--host H] [--watch SECS] [--json]\n"
               "       %s --service --port N [--host H] [--watch SECS]"
               " [--json]\n"
               "       %s --series FILE.jsonl [--json]\n",
               argv0, argv0, argv0);
  return 1;
}

const JsonValue* find(const JsonValue& object, const std::string& key) {
  if (!object.has(key)) return nullptr;
  return &object.at(key);
}

double number_or(const JsonValue& object, const std::string& key,
                 double fallback) {
  const JsonValue* v = find(object, key);
  return v != nullptr ? v->number : fallback;
}

std::string verdict_of(const JsonValue& doc) {
  if (const JsonValue* health = find(doc, "health")) {
    if (const JsonValue* v = find(*health, "verdict")) return v->string;
  }
  if (const JsonValue* v = find(doc, "verdict")) return v->string;
  return "";
}

/// Renders one reduced snapshot (the "snapshot" object of the endpoint's
/// /json document, or one series row) as a metric table.
void render_snapshot(const JsonValue& snap, const std::string& verdict) {
  std::printf("step %-8.0f time %-12.6g ranks %-4.0f health %s\n",
              number_or(snap, "step", -1), number_or(snap, "time", 0.0),
              number_or(snap, "ranks", 0),
              verdict.empty() ? "(off)" : verdict.c_str());
  std::printf("%-36s %14s %14s %14s %6s\n", "metric", "mean", "min[rank]",
              "max[rank]", "n");
  const auto render_family = [](const JsonValue& family, const char* tag) {
    for (const auto& [name, value] : family.object) {
      char min_buf[32], max_buf[32];
      std::snprintf(min_buf, sizeof(min_buf), "%.4g[%d]",
                    number_or(value, "min", 0.0),
                    static_cast<int>(number_or(value, "min_rank", -1)));
      std::snprintf(max_buf, sizeof(max_buf), "%.4g[%d]",
                    number_or(value, "max", 0.0),
                    static_cast<int>(number_or(value, "max_rank", -1)));
      std::printf("%c %-34s %14.6g %14s %14s %6d\n", tag[0], name.c_str(),
                  number_or(value, "mean", 0.0), min_buf, max_buf,
                  static_cast<int>(number_or(value, "count", 0)));
    }
  };
  if (const JsonValue* gauges = find(snap, "gauges")) {
    render_family(*gauges, "g");
  }
  if (const JsonValue* counters = find(snap, "counters")) {
    render_family(*counters, "c");
  }
}

void render_health_events(const JsonValue& health) {
  const JsonValue* events = find(health, "events");
  if (events == nullptr || events->array.empty()) return;
  std::printf("health events:\n");
  for (const auto& e : events->array) {
    std::printf("  [%s] %s @ step %.0f: %s\n",
                find(e, "severity") ? e.at("severity").string.c_str() : "?",
                find(e, "code") ? e.at("code").string.c_str() : "?",
                number_or(e, "step", -1),
                find(e, "message") ? e.at("message").string.c_str() : "");
  }
}

/// p50/p95 of one per-tenant SLO histogram from the /json snapshot,
/// rendered "p50/p95" in seconds ("-" while the histogram is empty).
std::string slo_cell(const JsonValue* snap, const std::string& tenant,
                     const char* metric) {
  if (snap == nullptr) return "-";
  const JsonValue* hists = find(*snap, "histograms");
  if (hists == nullptr) return "-";
  const std::string key = "svc.tenant." + tenant + "." + metric;
  if (!hists->has(key)) return "-";
  const JsonValue& h = hists->at(key);
  if (number_or(h, "count", 0.0) <= 0.0) return "-";
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3g/%.3g", number_or(h, "p50", 0.0),
                number_or(h, "p95", 0.0));
  return buf;
}

int run_service(const Options& opt) {
  for (;;) {
    std::string queue_body;
    std::string metrics_body;
    try {
      int status = 0;
      queue_body = psdns::obs::http_get(opt.host, opt.port, "/queue",
                                        &status);
      if (status != 200) {
        std::fprintf(stderr, "GET /queue returned HTTP %d\n", status);
        return 1;
      }
      metrics_body = psdns::obs::http_get(opt.host, opt.port, "/json",
                                          &status);
      if (status != 200) {
        std::fprintf(stderr, "GET /json returned HTTP %d\n", status);
        return 1;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cannot reach %s:%d: %s\n", opt.host.c_str(),
                   opt.port, e.what());
      return 1;
    }
    if (opt.json) {
      std::printf("{\"queue\":%s,\"metrics\":%s}\n", queue_body.c_str(),
                  metrics_body.c_str());
    } else {
      if (opt.watch_seconds > 0.0) std::printf("\x1b[2J\x1b[H");
      const JsonValue queue = psdns::obs::json_parse(queue_body);
      const JsonValue metrics = psdns::obs::json_parse(metrics_body);
      const JsonValue* snap = find(metrics, "snapshot");
      std::printf(
          "service %s:%d  queued %.0f running %.0f completed %.0f "
          "failed %.0f rejected %.0f  %s\n",
          opt.host.c_str(), opt.port, number_or(queue, "queued", 0.0),
          number_or(queue, "running", 0.0),
          number_or(queue, "completed", 0.0),
          number_or(queue, "failed", 0.0),
          number_or(queue, "rejected", 0.0),
          find(queue, "accepting") != nullptr &&
                  queue.at("accepting").boolean
              ? "accepting"
              : "draining");
      if (const JsonValue* cache = find(queue, "cache")) {
        std::printf("cache: hits %.0f misses %.0f entries %.0f "
                    "evictions %.0f\n",
                    number_or(*cache, "hits", 0.0),
                    number_or(*cache, "misses", 0.0),
                    number_or(*cache, "entries", 0.0),
                    number_or(*cache, "evictions", 0.0));
      }
      std::printf("%-14s %6s %7s %7s %5s %5s %5s %12s %12s %12s\n",
                  "tenant", "weight", "target", "achiev", "sub", "done",
                  "hits", "wait p50/95", "run p50/95", "e2e p50/95");
      if (const JsonValue* tenants = find(queue, "tenants")) {
        for (const auto& [name, t] : tenants->object) {
          std::printf(
              "%-14s %6.3g %7.3f %7.3f %5.0f %5.0f %5.0f %12s %12s %12s\n",
              name.c_str(), number_or(t, "weight", 1.0),
              number_or(t, "target_share", 0.0),
              number_or(t, "achieved_share", 0.0),
              number_or(t, "submitted", 0.0),
              number_or(t, "completed", 0.0),
              number_or(t, "cache_hits", 0.0),
              slo_cell(snap, name, "queue_wait_seconds").c_str(),
              slo_cell(snap, name, "run_seconds").c_str(),
              slo_cell(snap, name, "e2e_seconds").c_str());
        }
      }
      // Per-job rows: which equation system each submission runs, along
      // with its lifecycle state and whether the result came from cache.
      if (const JsonValue* jobs = find(queue, "jobs");
          jobs != nullptr && jobs->is_array() && !jobs->array.empty()) {
        std::printf("%-5s %-14s %-13s %-10s %6s %6s\n", "job", "tenant",
                    "system", "state", "n", "cached");
        for (const auto& job : jobs->array) {
          const JsonValue* req = find(job, "request");
          const char* system = "?";
          double n = 0.0;
          if (req != nullptr) {
            if (const JsonValue* s = find(*req, "system")) {
              system = s->string.c_str();
            }
            n = number_or(*req, "n", 0.0);
          }
          const JsonValue* state = find(job, "state");
          const JsonValue* tenant = find(job, "tenant");
          const JsonValue* cached = find(job, "cached");
          std::printf("%-5.0f %-14s %-13s %-10s %6.0f %6s\n",
                      number_or(job, "id", -1.0),
                      tenant != nullptr ? tenant->string.c_str() : "?",
                      system,
                      state != nullptr ? state->string.c_str() : "?", n,
                      cached != nullptr && cached->boolean ? "yes" : "no");
        }
      }
    }
    if (opt.watch_seconds <= 0.0) break;
    std::fflush(stdout);
    std::this_thread::sleep_for(
        std::chrono::duration<double>(opt.watch_seconds));
  }
  return 0;
}

int run_live(const Options& opt) {
  bool fetched_any = false;
  std::string last_verdict;
  for (;;) {
    std::string body;
    try {
      int status = 0;
      body = psdns::obs::http_get(opt.host, opt.port, "/json", &status);
      if (status != 200) {
        std::fprintf(stderr, "endpoint returned HTTP %d\n", status);
        return 1;
      }
    } catch (const std::exception& e) {
      if (fetched_any) break;  // campaign finished and took the endpoint down
      std::fprintf(stderr, "cannot reach %s:%d: %s\n", opt.host.c_str(),
                   opt.port, e.what());
      return 1;
    }
    const JsonValue doc = psdns::obs::json_parse(body);
    if (find(doc, "snapshot") == nullptr && opt.watch_seconds <= 0.0) {
      std::fprintf(stderr, "%s:%d has published no row yet\n",
                   opt.host.c_str(), opt.port);
      return 1;
    }
    fetched_any = true;
    last_verdict = verdict_of(doc);
    if (opt.json) {
      std::printf("%s\n", body.c_str());
    } else {
      if (opt.watch_seconds > 0.0) std::printf("\x1b[2J\x1b[H");
      if (const JsonValue* snap = find(doc, "snapshot")) {
        render_snapshot(*snap, last_verdict);
      }
      if (const JsonValue* health = find(doc, "health")) {
        render_health_events(*health);
      }
    }
    if (opt.watch_seconds <= 0.0) break;
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::duration<double>(
        opt.watch_seconds));
  }
  return last_verdict == "abort" ? 2 : 0;
}

int run_series(const Options& opt) {
  const auto rows = psdns::obs::read_series_jsonl(opt.series);
  if (rows.empty()) {
    std::fprintf(stderr, "%s: empty series\n", opt.series.c_str());
    return 1;
  }
  if (opt.json) {
    for (const auto& row : rows) {
      std::printf("%s\n", row.to_json().c_str());
    }
    return rows.back().health_verdict == "abort" ? 2 : 0;
  }
  std::printf("%s: %zu rows\n", opt.series.c_str(), rows.size());
  for (const auto& row : rows) {
    const psdns::obs::ReducedValue* wall =
        row.gauge("rank.step.wall_seconds");
    std::printf("  step %-6lld t=%-12.6g health=%-9s wall(max)=%s\n",
                static_cast<long long>(row.step), row.time,
                row.health_verdict.empty() ? "(off)"
                                           : row.health_verdict.c_str(),
                wall != nullptr
                    ? (std::to_string(wall->max) + "[" +
                       std::to_string(wall->max_rank) + "]")
                          .c_str()
                    : "-");
  }
  const auto& last = rows.back();
  std::printf("\nfinal row:\n");
  render_snapshot(psdns::obs::json_parse(last.to_json()),
                  last.health_verdict);
  return last.health_verdict == "abort" ? 2 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--json") {
      opt.json = true;
    } else if (arg == "--service") {
      opt.service = true;
    } else if (arg == "--port") {
      opt.port = std::atoi(value());
    } else if (arg == "--host") {
      opt.host = value();
    } else if (arg == "--series") {
      opt.series = value();
    } else if (arg == "--watch") {
      opt.watch_seconds = std::atof(value());
    } else {
      return usage(argv[0]);
    }
  }
  if (opt.series.empty() == (opt.port < 0)) return usage(argv[0]);
  if (opt.service && opt.port < 0) return usage(argv[0]);
  try {
    if (opt.service) return run_service(opt);
    return opt.series.empty() ? run_live(opt) : run_series(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "psdns_top: %s\n", e.what());
    return 1;
  }
}
