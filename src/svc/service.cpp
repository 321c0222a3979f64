#include "svc/service.hpp"

#include <cstdlib>
#include <sstream>
#include <string>
#include <unordered_set>

#include "obs/exposition.hpp"
#include "obs/health.hpp"
#include "obs/json.hpp"
#include "obs/reduce.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "obs/trace_export.hpp"
#include "util/check.hpp"

namespace psdns::svc {

namespace {

std::string error_json(const std::string& message) {
  return "{\"error\":" + obs::json_quote(message) + "}";
}

/// "/jobs/17/result" -> id 17, rest "/result"; false when <id> is not a
/// plain decimal number.
bool parse_job_path(const std::string& path, std::int64_t* id,
                    std::string* rest) {
  const std::string prefix = "/jobs/";
  if (path.compare(0, prefix.size(), prefix) != 0) return false;
  std::size_t end = prefix.size();
  while (end < path.size() && path[end] >= '0' && path[end] <= '9') ++end;
  if (end == prefix.size()) return false;
  *id = std::strtoll(path.substr(prefix.size(), end - prefix.size()).c_str(),
                     nullptr, 10);
  *rest = path.substr(end);
  return true;
}

/// The subgraph of the process trace reachable from the job's svc.admit
/// span - over parent -> child nesting and flow edges - rendered as
/// Chrome trace JSON. This is the merged submit-to-result journey: the
/// admit/store spans on the handler thread, the queue/schedule/run spans
/// on the worker, and the solver's driver.step spans the run flow fans
/// out to.
std::string job_trace_json(obs::SpanId root) {
  const obs::SpanTrace full = obs::collect_trace();
  std::unordered_set<obs::SpanId> reachable{root};
  // Fixpoint over the two edge kinds; the graph is acyclic in time but
  // the span list is unordered, so iterate until no growth.
  for (bool grew = true; grew;) {
    grew = false;
    for (const auto& span : full.spans) {
      if (span.parent != 0 && reachable.count(span.parent) != 0 &&
          reachable.insert(span.id).second) {
        grew = true;
      }
    }
    for (const auto& edge : full.edges) {
      if (reachable.count(edge.src) != 0 &&
          reachable.insert(edge.dst).second) {
        grew = true;
      }
    }
  }
  obs::SpanTrace job;
  for (const auto& span : full.spans) {
    if (reachable.count(span.id) != 0) job.spans.push_back(span);
  }
  for (const auto& edge : full.edges) {
    if (reachable.count(edge.src) != 0 && reachable.count(edge.dst) != 0) {
      job.edges.push_back(edge);
    }
  }
  return obs::to_chrome_trace(job);
}

/// The service is one process: its exposition is the campaign row's
/// builder over one read of the registry (count == 1 everywhere).
obs::ReducedSnapshot snapshot() {
  return obs::build_reduced(obs::registry().snapshot());
}

}  // namespace

Service::Service(ServiceConfig config)
    : config_(config),
      store_(ResultStore::Options{config.cache_dir, config.cache_keep}),
      scheduler_(config, store_) {
  net::HttpServer::Options opts;
  opts.port = config_.port;
  server_ = std::make_unique<net::HttpServer>(
      opts,
      [this](const net::HttpRequest& request) { return handle(request); });
}

Service::~Service() {
  // Stop answering before tearing down the scheduler the handler routes
  // into.
  server_.reset();
  scheduler_.shutdown();
}

void Service::request_shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

void Service::wait_shutdown() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutdown_cv_.wait(lock, [this] { return shutdown_requested_; });
  }
  scheduler_.drain();
}

std::string Service::metrics_text() const {
  return obs::to_prometheus(snapshot(), obs::HealthReport{});
}

net::HttpResponse Service::handle(const net::HttpRequest& request) {
  obs::registry().counter_add("svc.http.requests");
  if (request.path == "/jobs" && request.method == "POST") {
    JobRequest job;
    try {
      job = JobRequest::from_json(request.body);
      job.validate();
    } catch (const std::exception& e) {
      return net::HttpResponse::json(error_json(e.what()), 400);
    }
    const Scheduler::Submission sub =
        scheduler_.submit(job, request.header("X-Psdns-Trace"));
    if (!sub.accepted) {
      return net::HttpResponse::json(error_json(sub.error), 503);
    }
    std::ostringstream os;
    os << "{\"id\":" << sub.id << ",\"hash\":\"" << job.hash() << "\""
       << ",\"trace\":" << obs::json_quote(sub.trace)
       << ",\"cached\":" << (sub.cached ? "true" : "false") << "}";
    net::HttpResponse response = net::HttpResponse::json(os.str(), 202);
    if (!sub.trace.empty()) {
      response.headers.emplace_back("X-Psdns-Trace", sub.trace);
    }
    return response;
  }
  if (request.path.rfind("/jobs/", 0) == 0 && request.method == "GET") {
    return handle_jobs_route(request);
  }
  if (request.path == "/queue" && request.method == "GET") {
    return net::HttpResponse::json(scheduler_.queue_json());
  }
  if (request.path == "/metrics" && request.method == "GET") {
    return net::HttpResponse{200,
                             "text/plain; version=0.0.4; charset=utf-8",
                             metrics_text(),
                             {}};
  }
  if (request.path == "/json" && request.method == "GET") {
    return net::HttpResponse::json(
        obs::to_exposition_json(snapshot(), obs::HealthReport{}));
  }
  if (request.path == "/health" && request.method == "GET") {
    const std::lock_guard<std::mutex> lock(mutex_);
    const bool draining = shutdown_requested_;
    const std::string body =
        std::string("{\"status\":\"") + (draining ? "draining" : "ok") +
        "\",\"queued\":" + std::to_string(scheduler_.queue_depth()) +
        ",\"running\":" + std::to_string(scheduler_.running()) + "}";
    return net::HttpResponse::json(body, draining ? 503 : 200);
  }
  if (request.path == "/shutdown" && request.method == "POST") {
    request_shutdown();
    return net::HttpResponse::json("{\"status\":\"draining\"}", 202);
  }
  return net::HttpResponse::not_found();
}

net::HttpResponse Service::handle_jobs_route(const net::HttpRequest& request) {
  std::int64_t id = -1;
  std::string rest;
  if (!parse_job_path(request.path, &id, &rest)) {
    return net::HttpResponse::not_found();
  }
  if (rest.empty()) {
    const auto record = scheduler_.job(id);
    if (!record) {
      return net::HttpResponse::json(error_json("unknown job id"), 404);
    }
    return net::HttpResponse::json(record->to_json());
  }
  if (rest == "/result") {
    const auto record = scheduler_.job(id);
    if (!record) {
      return net::HttpResponse::json(error_json("unknown job id"), 404);
    }
    const auto result = scheduler_.result(id);
    if (!result) {
      return net::HttpResponse::json(
          error_json("no result (job is " +
                     std::string(to_string(record->state)) + ")"),
          404);
    }
    return net::HttpResponse::json(*result);
  }
  if (rest == "/trace") {
    const auto record = scheduler_.job(id);
    if (!record) {
      return net::HttpResponse::json(error_json("unknown job id"), 404);
    }
    if (record->root_span == 0 || !obs::tracing()) {
      return net::HttpResponse::json(
          error_json("no trace for this job (enable service.trace or "
                     "PSDNS_SVC_TRACE=1 before submitting)"),
          404);
    }
    return net::HttpResponse::json(job_trace_json(record->root_span));
  }
  return net::HttpResponse::not_found();
}

}  // namespace psdns::svc
