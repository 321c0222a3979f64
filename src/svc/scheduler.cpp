#include "svc/scheduler.hpp"

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <sstream>

#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "svc/runner.hpp"
#include "util/check.hpp"

namespace psdns::svc {

namespace {

/// Deterministic journey id for submissions that did not bring their own:
/// "t" + 16-hex FNV-1a64 of "<hash>:<job id>", a pure function of the
/// submission sequence.
std::string mint_trace(const std::string& hash, std::int64_t id) {
  const std::uint64_t h = fnv1a64(hash + ":" + std::to_string(id));
  static const char* digits = "0123456789abcdef";
  std::string out = "t";
  for (int i = 15; i >= 0; --i) {
    out.push_back(digits[(h >> (4 * i)) & 0xF]);
  }
  return out;
}

int env_int(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  PSDNS_REQUIRE(end != value && *end == '\0',
                std::string(name) + " must be an integer");
  return static_cast<int>(parsed);
}

std::string env_str(const char* name, const std::string& fallback) {
  const char* value = std::getenv(name);
  return (value == nullptr || *value == '\0') ? fallback : value;
}

bool env_bool(const char* name, bool fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  const std::string s(value);
  if (s == "1" || s == "true" || s == "on") return true;
  if (s == "0" || s == "false" || s == "off") return false;
  util::raise(std::string(name) + " must be 1|true|on|0|false|off");
}

}  // namespace

ServiceConfig ServiceConfig::from(const util::Config& file) {
  ServiceConfig cfg;
  cfg.port = static_cast<int>(file.get_int("service.port", cfg.port));
  cfg.max_concurrent = static_cast<int>(
      file.get_int("service.max_concurrent", cfg.max_concurrent));
  cfg.queue_capacity = static_cast<int>(
      file.get_int("service.queue_capacity", cfg.queue_capacity));
  cfg.cache_dir = file.get("service.cache_dir", cfg.cache_dir);
  cfg.cache_keep =
      static_cast<int>(file.get_int("service.cache_keep", cfg.cache_keep));
  cfg.workdir = file.get("service.workdir", cfg.workdir);
  cfg.trace = file.get_bool("service.trace", cfg.trace);
  cfg.audit_file = file.get("service.audit_file", cfg.audit_file);

  // Everything left must be a tenant weight: service.tenant.<name>.weight.
  const std::string prefix = "service.tenant.";
  const std::string suffix = ".weight";
  for (const std::string& key : file.unused_keys()) {
    PSDNS_REQUIRE(key.size() > prefix.size() + suffix.size() &&
                      key.compare(0, prefix.size(), prefix) == 0 &&
                      key.compare(key.size() - suffix.size(), suffix.size(),
                                  suffix) == 0,
                  "unknown service config key \"" + key + "\"");
    const std::string name = key.substr(
        prefix.size(), key.size() - prefix.size() - suffix.size());
    PSDNS_REQUIRE(!name.empty(), "empty tenant name in \"" + key + "\"");
    const double weight = file.get_double(key, 1.0);
    PSDNS_REQUIRE(weight > 0.0,
                  "tenant weight must be positive in \"" + key + "\"");
    cfg.tenant_weights[name] = weight;
  }
  cfg.validate();
  return cfg;
}

ServiceConfig ServiceConfig::with_env(ServiceConfig base) {
  base.port = env_int("PSDNS_SVC_PORT", base.port);
  base.max_concurrent =
      env_int("PSDNS_SVC_MAX_CONCURRENT", base.max_concurrent);
  base.queue_capacity =
      env_int("PSDNS_SVC_QUEUE_CAPACITY", base.queue_capacity);
  base.cache_dir = env_str("PSDNS_SVC_CACHE_DIR", base.cache_dir);
  base.cache_keep = env_int("PSDNS_SVC_CACHE_KEEP", base.cache_keep);
  base.workdir = env_str("PSDNS_SVC_WORKDIR", base.workdir);
  base.trace = env_bool("PSDNS_SVC_TRACE", base.trace);
  base.audit_file = env_str("PSDNS_SVC_AUDIT_FILE", base.audit_file);
  base.validate();
  return base;
}

void ServiceConfig::validate() const {
  PSDNS_REQUIRE(port >= 0 && port <= 65535,
                "service.port must be in [0, 65535]");
  PSDNS_REQUIRE(max_concurrent >= 1 && max_concurrent <= 64,
                "service.max_concurrent must be in [1, 64]");
  PSDNS_REQUIRE(queue_capacity >= 1,
                "service.queue_capacity must be >= 1");
  PSDNS_REQUIRE(!cache_dir.empty(), "service.cache_dir must be non-empty");
  PSDNS_REQUIRE(cache_keep >= 1, "service.cache_keep must be >= 1");
  PSDNS_REQUIRE(!workdir.empty(), "service.workdir must be non-empty");
  for (const auto& [name, weight] : tenant_weights) {
    PSDNS_REQUIRE(weight > 0.0,
                  "tenant weight must be positive for \"" + name + "\"");
  }
}

Scheduler::Scheduler(ServiceConfig config, ResultStore& store, bool autostart)
    : config_(std::move(config)), store_(store) {
  config_.validate();
  // Enable-without-restart: set_tracing(true) wipes rings and resets the
  // clock origin, which would destroy spans an embedding process (or an
  // earlier PSDNS_TRACE=1) already captured.
  if (config_.trace && !obs::tracing()) obs::set_tracing(true);
  if (!config_.audit_file.empty()) {
    audit_.emplace(config_.audit_file);
  }
  if (autostart) start();
}

Scheduler::~Scheduler() { shutdown(); }

void Scheduler::start() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (started_) return;
  started_ = true;
  workers_.reserve(static_cast<std::size_t>(config_.max_concurrent));
  for (int w = 0; w < config_.max_concurrent; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Scheduler::TenantState& Scheduler::tenant_locked(const std::string& name) {
  const auto it = tenants_.find(name);
  if (it != tenants_.end()) return it->second;
  TenantState fresh;
  const auto weight = config_.tenant_weights.find(name);
  if (weight != config_.tenant_weights.end()) fresh.weight = weight->second;
  // Join at the current minimum pass: a newcomer competes from "now", it
  // does not cash in credit for the time it was absent.
  double min_pass = std::numeric_limits<double>::max();
  for (const auto& [other, state] : tenants_) {
    min_pass = std::min(min_pass, state.pass);
  }
  if (!tenants_.empty()) fresh.pass = min_pass;
  return tenants_.emplace(name, fresh).first->second;
}

void Scheduler::publish_gauges_locked() {
  auto& reg = obs::registry();
  reg.gauge_set("svc.queue.depth", static_cast<double>(queue_.size()));
  reg.gauge_set("svc.jobs.running", static_cast<double>(running_));
  double weight_total = 0.0;
  for (const auto& [name, state] : tenants_) weight_total += state.weight;
  for (const auto& [name, state] : tenants_) {
    const std::string prefix = "svc.tenant." + name + ".";
    reg.gauge_set(prefix + "completed", static_cast<double>(state.completed));
    reg.gauge_set(prefix + "weight", state.weight);
    // Target share is the tenant's weight fraction among tenants seen so
    // far; achieved share is its fraction of contended dispatches (see
    // TenantState::contended_dispatched). Under sustained contention the
    // two converge - the fairness tests assert exact equality on a
    // pinned interleaving.
    reg.gauge_set(prefix + "target_share",
                  weight_total > 0.0 ? state.weight / weight_total : 0.0);
    const double achieved =
        contended_total_ > 0
            ? static_cast<double>(state.contended_dispatched) /
                  static_cast<double>(contended_total_)
            : (dispatch_counter_ > 0
                   ? static_cast<double>(state.dispatched) /
                         static_cast<double>(dispatch_counter_)
                   : 0.0);
    reg.gauge_set(prefix + "achieved_share", achieved);
    reg.gauge_set(prefix + "cache_hit_rate",
                  state.submitted > 0
                      ? static_cast<double>(state.cache_hits) /
                            static_cast<double>(state.submitted)
                      : 0.0);
  }
}

void Scheduler::audit_locked(const char* event, const JobRecord& rec,
                             const std::string& detail) {
  if (!audit_) return;
  const AuditEvent e{audit_seq_++, now(), event, rec.id, rec.trace,
                     rec.request.tenant, rec.hash, rec.cached, detail};
  // Called from worker threads outside any try: an audit write error must
  // not end the daemon.
  try {
    audit_->append(e.to_json());
  } catch (const std::exception& ex) {
    obs::registry().counter_add("svc.audit.write_failures");
    obs::log_event(obs::LogLevel::Error, "svc", "audit write failed",
                   {{"path", config_.audit_file}, {"error", ex.what()}});
  }
}

Scheduler::Submission Scheduler::submit(const JobRequest& request,
                                        const std::string& trace_id) {
  request.validate();
  const std::string hash = request.hash();
  // The admission leg of the journey runs on the submitting (HTTP
  // handler) thread; the worker side links back to this span's id.
  obs::TraceSpan admit_span("svc.admit", obs::SpanKind::Other);

  const std::lock_guard<std::mutex> lock(mutex_);
  Submission out;
  const auto reject = [&](const char* why) {
    ++rejected_;
    obs::registry().counter_add("svc.jobs.rejected");
    out.error = why;
    JobRecord none;  // no record is created: the events carry job id -1
    none.request = request;
    none.hash = hash;
    none.trace = trace_id;
    audit_locked("submitted", none);
    audit_locked("rejected", none, why);
    return out;
  };
  if (!accepting_) return reject("service is draining");

  TenantState& tenant = tenant_locked(request.tenant);
  std::optional<std::string> cached;
  {
    obs::TraceSpan store_span("svc.store", obs::SpanKind::Io);
    cached = store_.lookup(hash);
  }
  if (cached) {
    // Born Done: the stored bytes are exactly what a fresh run would
    // produce, so there is nothing to schedule.
    JobRecord rec;
    rec.id = next_id_++;
    rec.request = request;
    rec.hash = hash;
    rec.state = JobState::Done;
    rec.cached = true;
    rec.queued_s = rec.started_s = rec.finished_s = now();
    rec.trace = trace_id.empty() ? mint_trace(hash, rec.id) : trace_id;
    rec.root_span = admit_span.id();
    ++tenant.submitted;
    ++tenant.cache_hits;
    jobs_.emplace(rec.id, rec);
    audit_locked("submitted", rec);
    audit_locked("cache_hit", rec);
    publish_gauges_locked();
    out.accepted = true;
    out.id = rec.id;
    out.cached = true;
    out.trace = rec.trace;
    return out;
  }

  if (queue_.size() >= static_cast<std::size_t>(config_.queue_capacity)) {
    return reject("admission queue full");
  }

  JobRecord rec;
  rec.id = next_id_++;
  rec.request = request;
  rec.hash = hash;
  rec.queued_s = now();
  rec.trace = trace_id.empty() ? mint_trace(hash, rec.id) : trace_id;
  rec.root_span = admit_span.id();
  rec.trace_queued_s = obs::trace_clock();
  ++tenant.submitted;
  jobs_.emplace(rec.id, rec);
  queue_.push_back(rec.id);
  audit_locked("submitted", rec);
  audit_locked("admitted", rec);
  publish_gauges_locked();
  work_cv_.notify_one();
  out.accepted = true;
  out.id = rec.id;
  out.trace = rec.trace;
  return out;
}

std::int64_t Scheduler::pick_next_locked() {
  if (queue_.empty()) return -1;
  // Tenants with at least one queued job, then the minimum-pass tenant
  // (name breaks ties so the order is total).
  const TenantState* best_state = nullptr;
  std::string best_name;
  for (const std::int64_t id : queue_) {
    const std::string& name = jobs_.at(id).request.tenant;
    const TenantState& state = tenants_.at(name);
    if (best_state == nullptr || state.pass < best_state->pass ||
        (state.pass == best_state->pass && name < best_name)) {
      best_state = &state;
      best_name = name;
    }
  }
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (jobs_.at(*it).request.tenant == best_name) {
      const std::int64_t id = *it;
      queue_.erase(it);
      return id;
    }
  }
  return -1;  // unreachable
}

void Scheduler::worker_loop() {
  for (;;) {
    std::unique_lock<std::mutex> lock(mutex_);
    work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stopping_) return;
      continue;
    }
    // A dispatch is "contended" when fair share actually had a choice:
    // at least two distinct tenants queued at pick time.
    std::vector<std::string> seen;
    for (const std::int64_t queued : queue_) {
      const std::string& name = jobs_.at(queued).request.tenant;
      if (std::find(seen.begin(), seen.end(), name) == seen.end()) {
        seen.push_back(name);
      }
      if (seen.size() >= 2) break;
    }
    const bool contended = seen.size() >= 2;
    obs::TraceSpan schedule_span("svc.schedule", obs::SpanKind::Other);
    const std::int64_t id = pick_next_locked();
    JobRecord& rec = jobs_.at(id);
    rec.state = JobState::Running;
    rec.started_s = now();
    rec.dispatch_index = dispatch_counter_++;
    TenantState& tenant = tenant_locked(rec.request.tenant);
    tenant.pass += 1.0 / tenant.weight;
    ++tenant.dispatched;
    if (contended) {
      ++tenant.contended_dispatched;
      ++contended_total_;
    }
    // SLO: queue wait is observed at dispatch (cache hits never reach
    // here, so they cannot distort the latency distributions).
    obs::registry().observe(
        "svc.tenant." + rec.request.tenant + ".queue_wait_seconds",
        rec.started_s - rec.queued_s);
    // Journey: materialize the cross-thread wait as a svc.queue span
    // (admitted on the handler thread, dispatched here) and link
    // admit -> queue -> schedule.
    if (rec.root_span != 0) {
      const obs::SpanId queue_span =
          obs::record_span("svc.queue", obs::SpanKind::Other,
                           rec.trace_queued_s, obs::trace_clock());
      obs::link_spans(rec.root_span, queue_span);
      obs::link_spans(queue_span, schedule_span.id());
    }
    audit_locked("scheduled", rec);
    ++running_;
    publish_gauges_locked();
    const JobRequest request = rec.request;
    const std::string hash = rec.hash;
    audit_locked("started", rec);
    lock.unlock();

    const obs::SpanId sched_id = schedule_span.id();
    schedule_span.end();
    JobOutcome outcome;
    std::string error;
    {
      obs::TraceSpan run_span("svc.run", obs::SpanKind::Compute);
      obs::link_spans(sched_id, run_span.id());
      // The rank threads the runner spawns consume this flow, nesting the
      // solver's driver.step spans under the job's journey.
      const obs::FlowId run_flow = obs::new_flow();
      obs::flow_emit(run_flow);
      try {
        outcome = run_job(request, config_.workdir, run_flow);
        obs::TraceSpan store_span("svc.store", obs::SpanKind::Io);
        store_.insert(hash, outcome.result_json);
      } catch (const std::exception& e) {
        error = e.what();
      }
    }

    lock.lock();
    JobRecord& done = jobs_.at(id);
    done.finished_s = now();
    done.recoveries = outcome.recoveries;
    done.checkpoints_discarded = outcome.checkpoints_discarded;
    if (error.empty()) {
      done.state = JobState::Done;
      ++completed_;
      ++tenant_locked(request.tenant).completed;
      obs::registry().counter_add("svc.jobs.completed");
      const std::string prefix = "svc.tenant." + request.tenant + ".";
      obs::registry().observe(prefix + "run_seconds",
                              done.finished_s - done.started_s);
      obs::registry().observe(prefix + "e2e_seconds",
                              done.finished_s - done.queued_s);
      audit_locked("completed", done);
    } else {
      done.state = JobState::Failed;
      done.error = error;
      ++failed_;
      obs::registry().counter_add("svc.jobs.failed");
      audit_locked("failed", done, error);
    }
    --running_;
    publish_gauges_locked();
    if (queue_.empty() && running_ == 0) idle_cv_.notify_all();
  }
}

std::optional<JobRecord> Scheduler::job(std::int64_t id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::string> Scheduler::result(std::int64_t id) {
  std::string hash;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end() || it->second.state != JobState::Done) {
      return std::nullopt;
    }
    hash = it->second.hash;
  }
  return store_.read(hash);
}

bool Scheduler::cancel(std::int64_t id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto queued = std::find(queue_.begin(), queue_.end(), id);
  if (queued == queue_.end()) return false;
  queue_.erase(queued);
  JobRecord& rec = jobs_.at(id);
  rec.state = JobState::Cancelled;
  rec.finished_s = now();
  audit_locked("cancelled", rec);
  publish_gauges_locked();
  if (queue_.empty() && running_ == 0) idle_cv_.notify_all();
  return true;
}

std::string Scheduler::queue_json() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  os << "{\"queued\":" << queue_.size()
     << ",\"running\":" << running_
     << ",\"completed\":" << completed_
     << ",\"failed\":" << failed_
     << ",\"rejected\":" << rejected_
     << ",\"accepting\":" << (accepting_ ? "true" : "false")
     << ",\"cache\":{\"hits\":" << store_.hits()
     << ",\"misses\":" << store_.misses()
     << ",\"evictions\":" << store_.evictions()
     << ",\"entries\":" << store_.size() << "}";
  double weight_total = 0.0;
  for (const auto& [name, state] : tenants_) weight_total += state.weight;
  os << ",\"tenants\":{";
  bool first = true;
  for (const auto& [name, state] : tenants_) {
    if (!first) os << ",";
    first = false;
    os << obs::json_quote(name) << ":{\"weight\":"
       << obs::json_number(state.weight)
       << ",\"submitted\":" << state.submitted
       << ",\"completed\":" << state.completed
       << ",\"dispatched\":" << state.dispatched
       << ",\"cache_hits\":" << state.cache_hits
       << ",\"target_share\":"
       << obs::json_number(weight_total > 0.0 ? state.weight / weight_total
                                              : 0.0)
       << ",\"achieved_share\":"
       << obs::json_number(
              contended_total_ > 0
                  ? static_cast<double>(state.contended_dispatched) /
                        static_cast<double>(contended_total_)
                  : (dispatch_counter_ > 0
                         ? static_cast<double>(state.dispatched) /
                               static_cast<double>(dispatch_counter_)
                         : 0.0))
       << "}";
  }
  // Per-job rows for the psdns_top --service jobs table: equation system
  // and grid size come from the request so mixed-physics campaigns are
  // distinguishable at a glance. Finished jobs stay visible (the table
  // would otherwise be empty the moment a queue drains), bounded to the
  // most recent kQueueJobsMax by id to keep the payload small on
  // long-lived services; jobs_ is id-ordered so the tail is the newest.
  constexpr std::size_t kQueueJobsMax = 32;
  os << "},\"jobs\":[";
  first = true;
  auto it = jobs_.begin();
  if (jobs_.size() > kQueueJobsMax) {
    std::advance(it, jobs_.size() - kQueueJobsMax);
  }
  for (; it != jobs_.end(); ++it) {
    const JobRecord& rec = it->second;
    if (!first) os << ",";
    first = false;
    os << "{\"id\":" << it->first << ",\"tenant\":"
       << obs::json_quote(rec.request.tenant)
       << ",\"state\":\"" << to_string(rec.state)
       << "\",\"cached\":" << (rec.cached ? "true" : "false")
       << ",\"request\":{\"system\":" << obs::json_quote(rec.request.system)
       << ",\"n\":" << rec.request.n << "}}";
  }
  os << "]}";
  return os.str();
}

std::size_t Scheduler::queue_depth() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

std::size_t Scheduler::running() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<std::size_t>(running_);
}

void Scheduler::drain() {
  start();  // a never-started scheduler must still be able to drain
  std::unique_lock<std::mutex> lock(mutex_);
  accepting_ = false;
  idle_cv_.wait(lock, [this] { return queue_.empty() && running_ == 0; });
}

void Scheduler::shutdown() {
  drain();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

}  // namespace psdns::svc
