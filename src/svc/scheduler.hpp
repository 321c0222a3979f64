#pragma once
// The campaign service's job scheduler: a bounded admission queue drained
// by a fixed pool of worker threads, with deterministic per-tenant
// fair-share ordering (stride scheduling). Submissions first consult the
// content-addressed ResultStore - a hit is answered instantly (the record
// is born Done with cached=true) and never occupies a worker.
//
// Fair share: each tenant carries a `pass` value advanced by
// 1/weight on every dispatch. The next job always comes from the queued
// tenant with the minimum pass (ties broken by tenant name, then FIFO by
// job id within the tenant), so a weight-2 tenant is dispatched twice as
// often as a weight-1 tenant under contention, and the whole order is a
// pure function of the submission sequence - the acceptance tests assert
// the exact interleaving. A tenant first seen mid-run starts at the
// current minimum pass so it cannot monopolize the queue with backlog
// credit.
//
// Lifecycle: queued -> running -> done | failed; cancel() takes a still-
// queued job to cancelled. drain() stops admission and waits until the
// queue and all workers are idle - the graceful-shutdown path the serve
// daemon runs on SIGTERM.
//
// Observability: with tracing on, every job gets a journey of causally
// linked spans - svc.admit (handler thread) -> svc.queue (the cross-
// thread wait interval) -> svc.schedule -> svc.run (worker thread, with
// the solver's driver.step spans nested below via a flow edge) ->
// svc.store - keyed by a trace id that is client-supplied or minted
// deterministically from (hash, job id). Per-tenant SLO histograms
// (queue_wait/run/e2e seconds) and fair-share gauges are published into
// the metrics registry; cache hits bump hit counters but never the
// latency histograms, so one tenant's hit-heavy traffic cannot distort
// another's distributions. Every lifecycle transition is appended to the
// JSONL audit log when configured (svc/audit.hpp), never fatally.

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "svc/audit.hpp"
#include "svc/job.hpp"
#include "svc/result_store.hpp"
#include "util/config.hpp"
#include "util/file.hpp"
#include "util/stopwatch.hpp"

namespace psdns::svc {

struct ServiceConfig {
  int port = 0;                 // HTTP port (0 = ephemeral)
  int max_concurrent = 1;       // worker threads
  int queue_capacity = 64;      // queued (not running) jobs admitted
  std::string cache_dir = "psdns_svc_cache";
  int cache_keep = 32;          // ResultStore keep-K
  std::string workdir = "psdns_svc_work";
  bool trace = false;           // job-journey span tracing (obs/span)
  std::string audit_file;       // JSONL lifecycle audit log ("" = off)
  // Fair-share weights; tenants absent here weigh 1.0.
  std::map<std::string, double> tenant_weights;

  /// Parses the service.* schema: service.port, service.max_concurrent,
  /// service.queue_capacity, service.cache_dir, service.cache_keep,
  /// service.workdir, service.trace, service.audit_file and
  /// service.tenant.<name>.weight. Unknown keys and out-of-range values
  /// are rejected.
  static ServiceConfig from(const util::Config& file);

  /// PSDNS_SVC_{PORT,MAX_CONCURRENT,QUEUE_CAPACITY,CACHE_DIR,CACHE_KEEP,
  /// WORKDIR,TRACE,AUDIT_FILE} override the corresponding fields of
  /// `base`.
  static ServiceConfig with_env(ServiceConfig base);

  void validate() const;
};

class Scheduler {
 public:
  /// The store must outlive the scheduler. `autostart=false` defers the
  /// worker pool until start() - tests submit a whole batch first so the
  /// fair-share dispatch order is independent of worker timing.
  Scheduler(ServiceConfig config, ResultStore& store, bool autostart = true);
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  void start();

  struct Submission {
    bool accepted = false;
    std::int64_t id = -1;
    bool cached = false;   // answered from the result store
    std::string trace;     // journey trace id of the accepted job
    std::string error;     // why a rejected submission was refused
  };

  /// Validates, consults the cache, then either answers instantly
  /// (cached), enqueues, or rejects (queue full / draining). Throws
  /// util::Error only on an invalid request. `trace_id` (the POST's
  /// X-Psdns-Trace) names the job's journey; when empty a deterministic
  /// id is minted from (hash, job id). Every outcome is audited.
  Submission submit(const JobRequest& request,
                    const std::string& trace_id = "");

  /// Snapshot of one job's record; nullopt for unknown ids.
  std::optional<JobRecord> job(std::int64_t id) const;

  /// The stored result document for a Done job (cache lookup by the job's
  /// hash); nullopt while queued/running/failed or for unknown ids.
  std::optional<std::string> result(std::int64_t id);

  /// Takes a still-queued job to Cancelled; false once it is running or
  /// finished (running jobs are not interrupted - determinism over haste).
  bool cancel(std::int64_t id);

  /// The GET /queue document: depths, per-tenant accounting, cache
  /// counters, and every non-terminal job.
  std::string queue_json() const;

  std::size_t queue_depth() const;
  std::size_t running() const;

  /// Stops admission and blocks until queue and workers are idle.
  /// Submissions after drain() are rejected.
  void drain();

  /// drain() + worker-pool teardown; idempotent (the destructor calls it).
  void shutdown();

 private:
  struct TenantState {
    double weight = 1.0;
    double pass = 0.0;
    std::int64_t submitted = 0;
    std::int64_t completed = 0;
    std::int64_t dispatched = 0;
    // Dispatches picked while >= 2 distinct tenants were queued: the only
    // moments fair share had a choice to make, so achieved-vs-target
    // share is measured over these (an uncontended queue trivially gets
    // 100% regardless of weights).
    std::int64_t contended_dispatched = 0;
    std::int64_t cache_hits = 0;
  };

  void worker_loop();
  /// Picks the next job id per fair share; -1 when the queue is empty.
  /// Caller holds mutex_.
  std::int64_t pick_next_locked();
  TenantState& tenant_locked(const std::string& name);
  void publish_gauges_locked();
  /// Appends one lifecycle event to the audit log (no-op when off); never
  /// throws. Caller holds mutex_ so seq numbers follow dispatch order.
  void audit_locked(const char* event, const JobRecord& rec,
                    const std::string& detail = "");
  double now() const { return uptime_.seconds(); }

  ServiceConfig config_;
  ResultStore& store_;
  util::Stopwatch uptime_;
  std::optional<util::LineLog> audit_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   // workers: queue non-empty / stopping
  std::condition_variable idle_cv_;   // drain(): queue empty and none running
  std::map<std::int64_t, JobRecord> jobs_;
  std::vector<std::int64_t> queue_;   // queued ids, submission order
  std::map<std::string, TenantState> tenants_;
  std::vector<std::thread> workers_;
  std::int64_t next_id_ = 1;
  std::int64_t audit_seq_ = 0;
  std::int64_t contended_total_ = 0;
  int dispatch_counter_ = 0;
  int running_ = 0;
  std::int64_t completed_ = 0;
  std::int64_t failed_ = 0;
  std::int64_t rejected_ = 0;
  bool accepting_ = true;
  bool stopping_ = false;
  bool started_ = false;
};

}  // namespace psdns::svc
