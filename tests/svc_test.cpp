#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "net/http.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "resilience/fault.hpp"
#include "svc/audit.hpp"
#include "svc/client.hpp"
#include "svc/job.hpp"
#include "svc/result_store.hpp"
#include "svc/runner.hpp"
#include "svc/scheduler.hpp"
#include "svc/service.hpp"
#include "util/check.hpp"
#include "util/config.hpp"
#include "util/file.hpp"
#include "util/stopwatch.hpp"

namespace psdns::svc {
namespace {

namespace fs = std::filesystem;

std::string tmp_dir(const std::string& name) {
  const std::string path = (fs::temp_directory_path() / name).string();
  fs::remove_all(path);
  return path;
}

JobRequest small_request(std::uint64_t seed = 1, const std::string& tenant =
                                                     "default") {
  JobRequest req;
  req.tenant = tenant;
  req.n = 16;
  req.ranks = 1;
  req.steps = 2;
  req.seed = seed;
  return req;
}

// --- job model -----------------------------------------------------------

TEST(JobRequest, HashIsContentAddressedAndExcludesTenant) {
  JobRequest a = small_request(1, "alice");
  JobRequest b = small_request(1, "bob");
  EXPECT_EQ(a.canonical(), b.canonical());
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_EQ(a.hash().size(), 16u);
  for (const char c : a.hash()) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'));
  }

  JobRequest c = small_request(2, "alice");
  EXPECT_NE(a.hash(), c.hash());
  JobRequest d = small_request(1, "alice");
  d.decomposition = transpose::Decomposition::Pencil;
  EXPECT_NE(a.hash(), d.hash());
  JobRequest e = small_request(1, "alice");
  e.dealias = DealiasMode::PhaseShift;
  EXPECT_NE(a.hash(), e.hash());
}

TEST(JobRequest, JsonRoundTrip) {
  JobRequest a = small_request(42, "alice");
  a.scheme = "rk4";
  a.decomposition = transpose::Decomposition::Pencil;
  a.dealias = DealiasMode::PhaseShift;
  a.forcing = true;
  a.forcing_power = 0.25;
  a.scalars = 2;
  const JobRequest b = JobRequest::from_json(a.to_json());
  EXPECT_EQ(a.canonical(), b.canonical());
  EXPECT_EQ(a.tenant, b.tenant);
}

TEST(JobRequest, LegacyNavierStokesHashesAreStable) {
  // Hashes pinned from the release predating pluggable equation systems:
  // a navier_stokes request's canonical form must never mention the
  // system fields, or every cached result minted before the split would
  // be orphaned.
  const JobRequest def;
  EXPECT_EQ(def.hash(), "9c5acb91c2b2d0ad");

  JobRequest rich;
  rich.tenant = "acme";
  rich.n = 64;
  rich.decomposition = transpose::Decomposition::Pencil;
  rich.ranks = 4;
  rich.scheme = "rk4";
  rich.viscosity = 0.008;
  rich.seed = 42;
  rich.steps = 12;
  rich.dealias = DealiasMode::PhaseShift;
  rich.forcing = true;
  rich.forcing_power = 0.25;
  rich.scalars = 2;
  rich.cfl = 0.4;
  rich.max_dt = 0.005;
  EXPECT_EQ(rich.hash(), "661f5f787e00feae");

  // Parameters no system reads never fragment the cache...
  JobRequest irrelevant;
  irrelevant.rotation_omega = 7.0;
  irrelevant.brunt_vaisala = 3.0;
  irrelevant.resistivity = 0.5;
  EXPECT_EQ(irrelevant.hash(), def.hash());

  // ...but the selected system and its own parameter are content.
  JobRequest rot;
  rot.system = "rotating";
  rot.rotation_omega = 2.0;
  EXPECT_NE(rot.hash(), def.hash());
  JobRequest faster = rot;
  faster.rotation_omega = 3.0;
  EXPECT_NE(faster.hash(), rot.hash());
  JobRequest same = rot;
  same.brunt_vaisala = 99.0;  // rotating does not read N
  EXPECT_EQ(same.hash(), rot.hash());
}

TEST(JobRequest, SystemFieldsRoundTripAndValidate) {
  JobRequest a = small_request();
  a.system = "mhd";
  a.resistivity = 0.02;
  const JobRequest b = JobRequest::from_json(a.to_json());
  EXPECT_EQ(b.system, "mhd");
  EXPECT_EQ(a.canonical(), b.canonical());

  JobRequest bad = small_request();
  bad.system = "navier-stokes";  // unknown name
  EXPECT_THROW(bad.validate(), util::Error);

  bad = small_request();
  bad.system = "rotating";
  bad.rotation_omega = 0.0;
  EXPECT_THROW(bad.validate(), util::Error);

  bad = small_request();
  bad.system = "boussinesq";
  bad.brunt_vaisala = -1.0;
  EXPECT_THROW(bad.validate(), util::Error);

  bad = small_request();
  bad.system = "mhd";
  bad.scalars = 1;  // MHD's extra fields are the induction components
  EXPECT_THROW(bad.validate(), util::Error);
  bad.scalars = 0;
  bad.resistivity = -0.1;
  EXPECT_THROW(bad.validate(), util::Error);
}

TEST(JobRequest, FromJsonRejectsUnknownAndMalformed) {
  EXPECT_THROW(JobRequest::from_json("{\"grid\":32}"), util::Error);
  EXPECT_THROW(JobRequest::from_json("{\"n\":\"big\"}"), util::Error);
  EXPECT_THROW(JobRequest::from_json("not json"), util::Error);
  EXPECT_THROW(JobRequest::from_json("[1,2]"), util::Error);
}

TEST(JobRequest, ValidateRejectsUnserviceableValues) {
  EXPECT_NO_THROW(small_request().validate());

  JobRequest bad = small_request();
  bad.ranks = 3;  // does not divide n = 16
  EXPECT_THROW(bad.validate(), util::Error);

  bad = small_request();
  bad.scheme = "euler";
  EXPECT_THROW(bad.validate(), util::Error);

  bad = small_request();
  bad.steps = 0;
  EXPECT_THROW(bad.validate(), util::Error);

  bad = small_request();
  bad.viscosity = -1.0;
  EXPECT_THROW(bad.validate(), util::Error);

  bad = small_request();
  bad.tenant = "no spaces";
  EXPECT_THROW(bad.validate(), util::Error);

  bad = small_request();
  bad.n = 4;  // below the serviceable floor
  EXPECT_THROW(bad.validate(), util::Error);
}

TEST(JobRequest, FromConfigParsesAndRejectsUnknownKeys) {
  const auto file = util::Config::from_string(R"(
tenant = alice
n = 32
decomposition = pencil
ranks = 4
scheme = rk4
viscosity = 0.005
seed = 9
steps = 12
dealias = phase_shift
forcing = true
forcing_power = 0.2
scalars = 1
)");
  const JobRequest req = JobRequest::from_config(file);
  EXPECT_EQ(req.tenant, "alice");
  EXPECT_EQ(req.n, 32u);
  EXPECT_EQ(req.decomposition, transpose::Decomposition::Pencil);
  EXPECT_EQ(req.ranks, 4);
  EXPECT_EQ(req.scheme, "rk4");
  EXPECT_EQ(req.seed, 9u);
  EXPECT_EQ(req.steps, 12);
  EXPECT_EQ(req.dealias, DealiasMode::PhaseShift);
  EXPECT_TRUE(req.forcing);
  EXPECT_EQ(req.scalars, 1);
  EXPECT_NO_THROW(req.validate());

  EXPECT_THROW(
      JobRequest::from_config(util::Config::from_string("grid = 32\n")),
      util::Error);
}

// --- service config (new util::config keys) ------------------------------

TEST(ServiceConfig, ParsesServiceKeysAndTenantWeights) {
  const auto file = util::Config::from_string(R"(
service.port = 9999
service.max_concurrent = 3
service.queue_capacity = 8
service.cache_dir = /tmp/psdns_cache
service.cache_keep = 5
service.workdir = /tmp/psdns_work
service.tenant.alice.weight = 2.0
service.tenant.bob.weight = 0.5
)");
  const ServiceConfig cfg = ServiceConfig::from(file);
  EXPECT_EQ(cfg.port, 9999);
  EXPECT_EQ(cfg.max_concurrent, 3);
  EXPECT_EQ(cfg.queue_capacity, 8);
  EXPECT_EQ(cfg.cache_dir, "/tmp/psdns_cache");
  EXPECT_EQ(cfg.cache_keep, 5);
  EXPECT_EQ(cfg.workdir, "/tmp/psdns_work");
  ASSERT_EQ(cfg.tenant_weights.size(), 2u);
  EXPECT_DOUBLE_EQ(cfg.tenant_weights.at("alice"), 2.0);
  EXPECT_DOUBLE_EQ(cfg.tenant_weights.at("bob"), 0.5);
}

TEST(ServiceConfig, RejectsUnknownKeysAndBadValues) {
  EXPECT_THROW(
      ServiceConfig::from(util::Config::from_string("service.prot = 1\n")),
      util::Error);
  EXPECT_THROW(ServiceConfig::from(
                   util::Config::from_string("service.port = 123456\n")),
               util::Error);
  EXPECT_THROW(ServiceConfig::from(util::Config::from_string(
                   "service.max_concurrent = 0\n")),
               util::Error);
  EXPECT_THROW(ServiceConfig::from(
                   util::Config::from_string("service.cache_keep = 0\n")),
               util::Error);
  EXPECT_THROW(ServiceConfig::from(util::Config::from_string(
                   "service.tenant.alice.weight = -1\n")),
               util::Error);
  EXPECT_THROW(ServiceConfig::from(util::Config::from_string(
                   "service.tenant..weight = 1\n")),
               util::Error);
  EXPECT_THROW(ServiceConfig::from(
                   util::Config::from_string("service.port = nine\n")),
               util::Error);
}

TEST(ServiceConfig, EnvironmentOverrides) {
  ::setenv("PSDNS_SVC_PORT", "7777", 1);
  ::setenv("PSDNS_SVC_MAX_CONCURRENT", "2", 1);
  ::setenv("PSDNS_SVC_CACHE_DIR", "/tmp/env_cache", 1);
  const ServiceConfig cfg = ServiceConfig::with_env(ServiceConfig{});
  ::unsetenv("PSDNS_SVC_PORT");
  ::unsetenv("PSDNS_SVC_MAX_CONCURRENT");
  ::unsetenv("PSDNS_SVC_CACHE_DIR");
  EXPECT_EQ(cfg.port, 7777);
  EXPECT_EQ(cfg.max_concurrent, 2);
  EXPECT_EQ(cfg.cache_dir, "/tmp/env_cache");

  ::setenv("PSDNS_SVC_CACHE_KEEP", "0", 1);
  EXPECT_THROW(ServiceConfig::with_env(ServiceConfig{}), util::Error);
  ::unsetenv("PSDNS_SVC_CACHE_KEEP");
}

TEST(ServiceConfig, ParsesTraceAndAuditKeys) {
  const auto file = util::Config::from_string(R"(
service.trace = true
service.audit_file = /tmp/psdns_audit.jsonl
)");
  const ServiceConfig cfg = ServiceConfig::from(file);
  EXPECT_TRUE(cfg.trace);
  EXPECT_EQ(cfg.audit_file, "/tmp/psdns_audit.jsonl");
  EXPECT_FALSE(ServiceConfig{}.trace);  // off unless asked for

  ::setenv("PSDNS_SVC_TRACE", "on", 1);
  ::setenv("PSDNS_SVC_AUDIT_FILE", "/tmp/psdns_env_audit.jsonl", 1);
  const ServiceConfig env_cfg = ServiceConfig::with_env(ServiceConfig{});
  ::unsetenv("PSDNS_SVC_TRACE");
  ::unsetenv("PSDNS_SVC_AUDIT_FILE");
  EXPECT_TRUE(env_cfg.trace);
  EXPECT_EQ(env_cfg.audit_file, "/tmp/psdns_env_audit.jsonl");

  // Unknown boolean spellings are errors, not silent defaults.
  ::setenv("PSDNS_SVC_TRACE", "maybe", 1);
  EXPECT_THROW(ServiceConfig::with_env(ServiceConfig{}), util::Error);
  ::unsetenv("PSDNS_SVC_TRACE");
}

// --- result store --------------------------------------------------------

TEST(ResultStore, RoundTripPersistenceAndCounters) {
  const std::string dir = tmp_dir("psdns_store_roundtrip");
  const std::string hash = small_request().hash();
  {
    ResultStore store({dir, 4});
    EXPECT_FALSE(store.lookup(hash).has_value());
    EXPECT_EQ(store.misses(), 1);
    store.insert(hash, "{\"x\":1}");
    const auto back = store.lookup(hash);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, "{\"x\":1}");
    EXPECT_EQ(store.hits(), 1);
  }
  // A fresh instance over the same directory serves the persisted entry.
  ResultStore reopened({dir, 4});
  EXPECT_EQ(reopened.size(), 1u);
  const auto back = reopened.lookup(hash);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, "{\"x\":1}");
  fs::remove_all(dir);
}

TEST(ResultStore, CorruptEntryIsDroppedAsMiss) {
  const std::string dir = tmp_dir("psdns_store_corrupt");
  ResultStore store({dir, 4});
  const std::string hash = small_request().hash();
  store.insert(hash, "the result payload, CRC protected");
  // Flip one payload byte behind the store's back.
  {
    std::fstream f(store.path_for(hash),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(30);
    f.put('X');
  }
  EXPECT_FALSE(store.lookup(hash).has_value());
  EXPECT_FALSE(fs::exists(store.path_for(hash)));
  EXPECT_EQ(store.misses(), 1);
  EXPECT_EQ(obs::registry().counter("svc.cache.corrupt") > 0, true);
  fs::remove_all(dir);
}

TEST(ResultStore, KeepKEvictsLeastRecentlyUsed) {
  const std::string dir = tmp_dir("psdns_store_evict");
  ResultStore store({dir, 2});
  const std::string h1 = small_request(1).hash();
  const std::string h2 = small_request(2).hash();
  const std::string h3 = small_request(3).hash();
  store.insert(h1, "one");
  store.insert(h2, "two");
  EXPECT_TRUE(store.lookup(h1).has_value());  // refresh h1; h2 is now LRU
  store.insert(h3, "three");
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.evictions(), 1);
  EXPECT_TRUE(store.contains(h1));
  EXPECT_FALSE(store.contains(h2));
  EXPECT_TRUE(store.contains(h3));
  EXPECT_FALSE(fs::exists(store.path_for(h2)));
  fs::remove_all(dir);
}

// --- scheduler -----------------------------------------------------------

ServiceConfig test_config(const std::string& tag, int max_concurrent = 1) {
  ServiceConfig cfg;
  cfg.max_concurrent = max_concurrent;
  cfg.cache_dir = tmp_dir("psdns_svc_cache_" + tag);
  cfg.workdir = tmp_dir("psdns_svc_work_" + tag);
  return cfg;
}

TEST(Scheduler, FairShareDispatchOrderIsDeterministic) {
  ServiceConfig cfg = test_config("fairshare");
  cfg.tenant_weights["alice"] = 1.0;
  cfg.tenant_weights["bob"] = 2.0;
  ResultStore store({cfg.cache_dir, cfg.cache_keep});
  Scheduler sched(cfg, store, /*autostart=*/false);

  // Distinct seeds -> no cache hits; all jobs queued before any dispatch.
  std::vector<std::int64_t> alice_ids, bob_ids;
  for (int j = 0; j < 4; ++j) {
    alice_ids.push_back(
        sched.submit(small_request(100 + static_cast<std::uint64_t>(j),
                                   "alice")).id);
    bob_ids.push_back(
        sched.submit(small_request(200 + static_cast<std::uint64_t>(j),
                                   "bob")).id);
  }
  EXPECT_EQ(sched.queue_depth(), 8u);
  sched.start();
  sched.drain();

  // Stride order with weights {alice:1, bob:2} and the name tie-break:
  // A B B A B B A A (bob is dispatched twice as often under contention).
  std::map<int, char> order;
  for (const std::int64_t id : alice_ids) {
    order[sched.job(id)->dispatch_index] = 'A';
  }
  for (const std::int64_t id : bob_ids) {
    order[sched.job(id)->dispatch_index] = 'B';
  }
  std::string sequence;
  for (const auto& [index, who] : order) {
    EXPECT_GE(index, 0);
    sequence += who;
  }
  EXPECT_EQ(sequence, "ABBABBAA");
  for (const std::int64_t id : alice_ids) {
    EXPECT_EQ(sched.job(id)->state, JobState::Done);
  }

  // Fairness SLO gauges on the same pinned interleaving: the first six
  // dispatches are contended (both tenants queued at pick time) and split
  // alice 2 : bob 4, so the achieved contended share equals the 1:2
  // weight target exactly. The trailing two uncontended A dispatches must
  // not count against alice.
  auto& reg = obs::registry();
  EXPECT_DOUBLE_EQ(reg.gauge("svc.tenant.alice.target_share"), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(reg.gauge("svc.tenant.bob.target_share"), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(reg.gauge("svc.tenant.alice.achieved_share"), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(reg.gauge("svc.tenant.bob.achieved_share"), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(reg.gauge("svc.tenant.alice.completed"), 4.0);
  EXPECT_DOUBLE_EQ(reg.gauge("svc.tenant.bob.weight"), 2.0);

  // /queue reports the same shares (the psdns_top --service view).
  const obs::JsonValue qdoc = obs::json_parse(sched.queue_json());
  const obs::JsonValue& alice = qdoc.at("tenants").at("alice");
  const obs::JsonValue& bob = qdoc.at("tenants").at("bob");
  EXPECT_DOUBLE_EQ(alice.at("target_share").number, 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(alice.at("achieved_share").number, 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(bob.at("achieved_share").number, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(alice.at("dispatched").number, 4.0);
  EXPECT_DOUBLE_EQ(bob.at("dispatched").number, 4.0);
  fs::remove_all(cfg.cache_dir);
  fs::remove_all(cfg.workdir);
}

TEST(Scheduler, IdenticalResubmissionIsACacheHitWithIdenticalBytes) {
  ServiceConfig cfg = test_config("cachehit");
  ResultStore store({cfg.cache_dir, cfg.cache_keep});
  Scheduler sched(cfg, store);

  const auto first = sched.submit(small_request(7, "alice"));
  ASSERT_TRUE(first.accepted);
  EXPECT_FALSE(first.cached);
  sched.drain();  // run it
  const auto cold = sched.result(first.id);
  ASSERT_TRUE(cold.has_value());

  // Note drain() stopped admission; a fresh scheduler over the same store
  // is the "service restarted" case - the cache must still answer.
  Scheduler again(cfg, store);
  const auto second = again.submit(small_request(7, "bob"));
  ASSERT_TRUE(second.accepted);
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(again.job(second.id)->state, JobState::Done);
  const auto hit = again.result(second.id);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*cold, *hit);  // bitwise-identical document, no re-run
  EXPECT_EQ(store.hits(), 1);

  // /queue keeps finished jobs visible with the request's equation system
  // and grid size plus the cached flag - the psdns_top --service jobs
  // table reads exactly these fields.
  const obs::JsonValue qdoc = obs::json_parse(again.queue_json());
  const auto& jobs = qdoc.at("jobs").array;
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].at("state").string, "done");
  EXPECT_TRUE(jobs[0].at("cached").boolean);
  EXPECT_EQ(jobs[0].at("request").at("system").string, "navier_stokes");
  EXPECT_EQ(jobs[0].at("request").at("n").number, small_request(7).n);
  fs::remove_all(cfg.cache_dir);
  fs::remove_all(cfg.workdir);
}

TEST(Scheduler, CacheHitsDoNotDistortLatencySlos) {
  ServiceConfig cfg = test_config("sloiso");
  ResultStore store({cfg.cache_dir, cfg.cache_keep});
  {
    Scheduler cold(cfg, store);
    ASSERT_TRUE(cold.submit(small_request(31, "victim")).accepted);
    cold.drain();
  }
  const auto before =
      obs::registry().histogram("svc.tenant.victim.queue_wait_seconds");
  EXPECT_GE(before.count, 1);

  // A hit-heavy tenant replays the same content over and over. Hits never
  // reach the dispatch path, so they must not add samples to any latency
  // histogram - neither its own nor the victim's.
  Scheduler hot(cfg, store);
  for (int i = 0; i < 5; ++i) {
    const auto hit = hot.submit(small_request(31, "hog"));
    ASSERT_TRUE(hit.accepted);
    EXPECT_TRUE(hit.cached);
  }
  const auto after =
      obs::registry().histogram("svc.tenant.victim.queue_wait_seconds");
  EXPECT_EQ(after.count, before.count);
  EXPECT_DOUBLE_EQ(after.sum, before.sum);
  EXPECT_EQ(
      obs::registry().histogram("svc.tenant.hog.queue_wait_seconds").count,
      0);
  EXPECT_EQ(obs::registry().histogram("svc.tenant.hog.e2e_seconds").count, 0);
  // The hits land in the hit-rate gauge instead.
  EXPECT_DOUBLE_EQ(obs::registry().gauge("svc.tenant.hog.cache_hit_rate"),
                   1.0);
  fs::remove_all(cfg.cache_dir);
  fs::remove_all(cfg.workdir);
}

// --- audit log -----------------------------------------------------------

TEST(Audit, EventJsonRoundTripsAndReplayDropsTime) {
  AuditEvent e;
  e.seq = 3;
  e.t_s = 1.5;
  e.event = "completed";
  e.job = 7;
  e.trace = "tdeadbeefdeadbeef";
  e.tenant = "alice";
  e.hash = "0123456789abcdef";
  e.cached = true;
  e.detail = "with \"quotes\"";
  const AuditEvent back = AuditEvent::parse(e.to_json());
  EXPECT_EQ(back.to_json(), e.to_json());
  EXPECT_EQ(back.seq, 3);
  EXPECT_EQ(back.event, "completed");
  EXPECT_EQ(back.job, 7);
  EXPECT_EQ(back.trace, "tdeadbeefdeadbeef");
  EXPECT_TRUE(back.cached);
  EXPECT_EQ(back.detail, "with \"quotes\"");
  // The replay form is the event minus its wall-clock stamp.
  EXPECT_EQ(e.replay_json().find("t_s"), std::string::npos);
  EXPECT_NE(e.replay_json().find("\"seq\":3"), std::string::npos);
  EXPECT_THROW(AuditEvent::parse("not json"), util::Error);
}

/// Submits seed `s` for "alice", waits for the run, then resubmits the
/// identical content as "bob" (a cache hit), against a scheduler logging
/// to `audit_path`. The fixed sequence the lifecycle tests key on.
void run_audited_workload(ServiceConfig cfg, const std::string& audit_path,
                          std::uint64_t s) {
  cfg.audit_file = audit_path;
  ResultStore store({cfg.cache_dir, cfg.cache_keep});
  Scheduler sched(cfg, store);
  const auto first = sched.submit(small_request(s, "alice"));
  ASSERT_TRUE(first.accepted);
  while (sched.job(first.id)->state != JobState::Done) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto second = sched.submit(small_request(s, "bob"));
  ASSERT_TRUE(second.accepted);
  EXPECT_TRUE(second.cached);
  sched.drain();
}

TEST(Audit, SchedulerLogsLifecycleEventsInOrder) {
  ServiceConfig cfg = test_config("audit");
  const std::string path =
      (fs::temp_directory_path() / "psdns_audit_events.jsonl").string();
  run_audited_workload(cfg, path, 41);

  const auto events = read_audit_jsonl(path);
  std::vector<std::string> names;
  for (const auto& e : events) names.push_back(e.event);
  EXPECT_EQ(names,
            (std::vector<std::string>{"submitted", "admitted", "scheduled",
                                      "started", "completed", "submitted",
                                      "cache_hit"}));
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, static_cast<std::int64_t>(i));
  }
  // The cold job's events share one trace id and job id end to end.
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(events[i].job, events[0].job);
    EXPECT_EQ(events[i].trace, events[0].trace);
    EXPECT_EQ(events[i].tenant, "alice");
    EXPECT_FALSE(events[i].cached);
  }
  EXPECT_FALSE(events[0].trace.empty());
  // The hit is marked as served from cache, under its own trace.
  EXPECT_EQ(events[6].tenant, "bob");
  EXPECT_TRUE(events[5].cached);
  EXPECT_TRUE(events[6].cached);
  EXPECT_NE(events[6].trace, events[0].trace);
  EXPECT_EQ(events[5].hash, events[0].hash);  // same content address

  // The file round-trips exactly: each row is its event's to_json().
  std::ifstream in(path);
  std::string line;
  std::size_t row = 0;
  while (std::getline(in, line)) {
    ASSERT_LT(row, events.size());
    EXPECT_EQ(line, events[row].to_json());
    ++row;
  }
  EXPECT_EQ(row, events.size());
  fs::remove(path);
  fs::remove_all(cfg.cache_dir);
  fs::remove_all(cfg.workdir);
}

TEST(Audit, ReplayIsBitwiseDeterministicAcrossFreshRuns) {
  // Two identical submission sequences against fresh services: the replay
  // documents (events minus wall-clock stamps) must match byte for byte -
  // trace ids are minted from (content hash, job id), so the journeys
  // align too.
  const auto replay_of = [](const std::string& tag) {
    ServiceConfig cfg = test_config("replay_" + tag);
    const std::string path =
        (fs::temp_directory_path() / ("psdns_audit_replay_" + tag + ".jsonl"))
            .string();
    run_audited_workload(cfg, path, 51);
    const std::string replay = audit_replay(read_audit_jsonl(path));
    fs::remove(path);
    fs::remove_all(cfg.cache_dir);
    fs::remove_all(cfg.workdir);
    return replay;
  };
  const std::string a = replay_of("a");
  const std::string b = replay_of("b");
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"event\":\"cache_hit\""), std::string::npos);
  EXPECT_NE(a.find("\"cached\":true"), std::string::npos);
  EXPECT_EQ(a.find("t_s"), std::string::npos);
}

TEST(Audit, ReaderNamesTheBadLineAndMissingFile) {
  const std::string path =
      (fs::temp_directory_path() / "psdns_audit_bad.jsonl").string();
  {
    util::LineLog log(path);
    log.append(AuditEvent{}.to_json());
  }
  {
    std::ofstream out(path, std::ios::app);
    out << "garbage\n";
  }
  try {
    read_audit_jsonl(path);
    FAIL() << "malformed row must throw";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find(":2"), std::string::npos);
  }
  fs::remove(path);
  EXPECT_THROW(read_audit_jsonl(path), util::Error);
}

TEST(Audit, WriteFailuresDoNotStopTheScheduler) {
  // /dev/full opens, then refuses every flush: each audit append fails on
  // the handler and worker threads alike, and the job must still finish.
  ServiceConfig cfg = test_config("audit_full");
  cfg.audit_file = "/dev/full";
  const auto failures = obs::registry().counter("svc.audit.write_failures");
  ResultStore store({cfg.cache_dir, cfg.cache_keep});
  Scheduler sched(cfg, store);
  const auto sub = sched.submit(small_request(61));
  ASSERT_TRUE(sub.accepted);
  sched.drain();
  EXPECT_EQ(sched.job(sub.id)->state, JobState::Done);
  EXPECT_TRUE(sched.result(sub.id).has_value());
  EXPECT_GT(obs::registry().counter("svc.audit.write_failures") - failures, 0);
  sched.shutdown();
  fs::remove_all(cfg.cache_dir);
  fs::remove_all(cfg.workdir);
}

TEST(Scheduler, BoundedQueueRejectsOverflow) {
  ServiceConfig cfg = test_config("overflow");
  cfg.queue_capacity = 2;
  ResultStore store({cfg.cache_dir, cfg.cache_keep});
  Scheduler sched(cfg, store, /*autostart=*/false);
  const auto first = sched.submit(small_request(1));
  EXPECT_TRUE(first.accepted);
  EXPECT_TRUE(sched.submit(small_request(2)).accepted);
  const auto rejected = sched.submit(small_request(3));
  EXPECT_FALSE(rejected.accepted);
  EXPECT_EQ(rejected.error, "admission queue full");
  // Cancel one queued job, freeing a slot.
  EXPECT_TRUE(sched.cancel(first.id));
  EXPECT_TRUE(sched.submit(small_request(3)).accepted);
  sched.shutdown();
  fs::remove_all(cfg.cache_dir);
  fs::remove_all(cfg.workdir);
}

/// The stored result of `request` in a fresh fault-free service.
std::string clean_result_of(const JobRequest& request) {
  ServiceConfig cfg = test_config("result_clean");
  std::string result;
  {
    ResultStore store({cfg.cache_dir, cfg.cache_keep});
    Scheduler sched(cfg, store);
    const auto sub = sched.submit(request);
    sched.drain();
    result = sched.result(sub.id).value_or("");
  }
  fs::remove_all(cfg.cache_dir);
  fs::remove_all(cfg.workdir);
  return result;
}

TEST(Scheduler, ShortResultWriteIsRetried) {
  const JobRequest request = small_request(71);
  const std::string clean = clean_result_of(request);
  ASSERT_FALSE(clean.empty());

  ServiceConfig cfg = test_config("result_short");
  const auto retries = obs::registry().counter("resilience.retries");
  {
    ResultStore store({cfg.cache_dir, cfg.cache_keep});
    resilience::ScopedPlan plan("svc.result.write@0=short_write");
    Scheduler sched(cfg, store);
    const auto sub = sched.submit(request);
    sched.drain();
    EXPECT_EQ(sched.job(sub.id)->state, JobState::Done);
    EXPECT_EQ(sched.result(sub.id).value_or(""), clean);
  }
  EXPECT_EQ(obs::registry().counter("resilience.retries") - retries, 1);
  // The failed attempt's tmp file went with it.
  for (const auto& entry : fs::directory_iterator(cfg.cache_dir)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
  fs::remove_all(cfg.cache_dir);
  fs::remove_all(cfg.workdir);
}

TEST(Scheduler, BitFlippedResultIsCaughtAndReRun) {
  const JobRequest request = small_request(72);
  const std::string clean = clean_result_of(request);
  ASSERT_FALSE(clean.empty());

  ServiceConfig cfg = test_config("result_flip");
  {
    ResultStore store({cfg.cache_dir, cfg.cache_keep});
    resilience::ScopedPlan plan("svc.result.write@0=bit_flip");
    Scheduler sched(cfg, store);
    const auto first = sched.submit(request);
    while (sched.job(first.id)->state == JobState::Queued ||
           sched.job(first.id)->state == JobState::Running) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // The write itself "succeeds": the job is done.
    EXPECT_EQ(sched.job(first.id)->state, JobState::Done);

    // The resubmission's lookup sees the CRC mismatch and re-runs.
    const auto corrupt = obs::registry().counter("svc.cache.corrupt");
    const auto second = sched.submit(request);
    EXPECT_EQ(obs::registry().counter("svc.cache.corrupt") - corrupt, 1);
    ASSERT_TRUE(second.accepted);
    EXPECT_FALSE(second.cached);
    sched.drain();
    EXPECT_EQ(sched.job(second.id)->state, JobState::Done);
    EXPECT_EQ(sched.result(second.id).value_or(""), clean);
  }
  fs::remove_all(cfg.cache_dir);
  fs::remove_all(cfg.workdir);
}

TEST(Scheduler, FaultedJobRecoversAndMatchesCleanResult) {
  // Same shape as the driver's supervised drill: 16^3, 2 ranks, 4 steps,
  // so the @5 fault lands mid-run with a checkpoint behind it. Slab and
  // pencil (1x2) jobs run the same supervised campaign.
  for (const auto decomposition :
       {transpose::Decomposition::Slab, transpose::Decomposition::Pencil}) {
    SCOPED_TRACE(transpose::to_string(decomposition));
    JobRequest drill = small_request(11, "alice");
    drill.decomposition = decomposition;
    drill.ranks = 2;
    drill.steps = 4;

    // Clean reference run.
    ServiceConfig clean_cfg = test_config("drill_clean");
    ResultStore clean_store({clean_cfg.cache_dir, clean_cfg.cache_keep});
    Scheduler clean(clean_cfg, clean_store);
    const auto clean_sub = clean.submit(drill);
    clean.drain();
    const auto clean_result = clean.result(clean_sub.id);
    ASSERT_TRUE(clean_result.has_value());
    EXPECT_EQ(clean.job(clean_sub.id)->recoveries, 0);

    // Same request with a mid-job comm fault: the supervisor rolls back and
    // replays; the job still completes and stores the identical bytes.
    ServiceConfig faulted_cfg = test_config("drill_faulted");
    ResultStore faulted_store(
        {faulted_cfg.cache_dir, faulted_cfg.cache_keep});
    std::int64_t id = -1;
    {
      resilience::ScopedPlan plan("comm.alltoall@5=throw");
      Scheduler faulted(faulted_cfg, faulted_store);
      id = faulted.submit(drill).id;
      faulted.drain();
      const auto record = faulted.job(id);
      ASSERT_TRUE(record.has_value());
      EXPECT_EQ(record->state, JobState::Done);
      EXPECT_EQ(record->recoveries, 1);  // reported in GET /jobs/<id>
      const auto faulted_result = faulted.result(id);
      ASSERT_TRUE(faulted_result.has_value());
      EXPECT_EQ(*faulted_result, *clean_result);
    }
    fs::remove_all(clean_cfg.cache_dir);
    fs::remove_all(clean_cfg.workdir);
    fs::remove_all(faulted_cfg.cache_dir);
    fs::remove_all(faulted_cfg.workdir);
  }
}

TEST(Scheduler, UnrecoverableJobIsReportedFailed) {
  // Every job runs supervised, so failing one takes more faults than the
  // runner's recovery budget of 5: six one-shot faults on consecutive
  // all-to-alls fail the first segment and all five replays. The failed
  // job must not take the service down with it.
  ServiceConfig cfg = test_config("failed");
  ResultStore store({cfg.cache_dir, cfg.cache_keep});
  resilience::ScopedPlan plan(
      "comm.alltoall@3=throw;comm.alltoall@4=throw;comm.alltoall@5=throw;"
      "comm.alltoall@6=throw;comm.alltoall@7=throw;comm.alltoall@8=throw");
  Scheduler sched(cfg, store);
  JobRequest req = small_request(5);
  req.decomposition = transpose::Decomposition::Pencil;
  req.ranks = 2;
  const auto sub = sched.submit(req);
  sched.drain();
  const auto record = sched.job(sub.id);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->state, JobState::Failed);
  EXPECT_NE(record->error.find("injected fault"), std::string::npos);
  EXPECT_FALSE(sched.result(sub.id).has_value());
  // The scheduler keeps serving after the failure.
  EXPECT_GT(obs::registry().counter("svc.jobs.failed"), 0);
  fs::remove_all(cfg.cache_dir);
  fs::remove_all(cfg.workdir);
}

TEST(Runner, SlabAndPencilDecompositionsCacheSeparately) {
  JobRequest slab = small_request(3);
  JobRequest pencil = small_request(3);
  pencil.decomposition = transpose::Decomposition::Pencil;
  EXPECT_NE(slab.hash(), pencil.hash());

  const std::string workdir = tmp_dir("psdns_runner_pencil");
  const JobOutcome outcome = run_job(pencil, workdir);
  const obs::JsonValue doc = obs::json_parse(outcome.result_json);
  EXPECT_EQ(doc.at("schema").string, "psdns.svc.result.v1");
  EXPECT_EQ(doc.at("hash").string, pencil.hash());
  EXPECT_EQ(static_cast<std::int64_t>(doc.at("steps_run").number), 2);
  EXPECT_GT(doc.at("diagnostics").at("energy").number, 0.0);
  EXPECT_FALSE(doc.at("spectrum").array.empty());
  fs::remove_all(workdir);
}

// --- HTTP front end ------------------------------------------------------

TEST(Service, EndToEndSubmitPollResultAndMetrics) {
  ServiceConfig cfg = test_config("http", /*max_concurrent=*/2);
  Service service(cfg);
  const int port = service.port();

  // Invalid request -> 400 naming the problem.
  int status = 0;
  net::http_post("127.0.0.1", port, "/jobs", "{\"grid\":16}", &status);
  EXPECT_EQ(status, 400);

  // Submit two tenants' jobs over HTTP.
  const std::string a = net::http_post(
      "127.0.0.1", port, "/jobs", small_request(21, "alice").to_json(),
      &status);
  EXPECT_EQ(status, 202);
  const std::string b = net::http_post(
      "127.0.0.1", port, "/jobs", small_request(22, "bob").to_json(),
      &status);
  EXPECT_EQ(status, 202);
  const auto id_a =
      static_cast<std::int64_t>(obs::json_parse(a).at("id").number);
  const auto id_b =
      static_cast<std::int64_t>(obs::json_parse(b).at("id").number);

  const auto wait_done = [&](std::int64_t id) {
    for (;;) {
      const std::string record = net::http_get(
          "127.0.0.1", port, "/jobs/" + std::to_string(id), &status);
      const std::string state = obs::json_parse(record).at("state").string;
      if (state == "done" || state == "failed") return state;
    }
  };
  EXPECT_EQ(wait_done(id_a), "done");
  EXPECT_EQ(wait_done(id_b), "done");

  // Result route serves the stored document.
  const std::string result = net::http_get(
      "127.0.0.1", port, "/jobs/" + std::to_string(id_a) + "/result",
      &status);
  EXPECT_EQ(status, 200);
  EXPECT_EQ(obs::json_parse(result).at("schema").string,
            "psdns.svc.result.v1");

  // Identical resubmission -> cache hit without a re-run.
  const std::string again = net::http_post(
      "127.0.0.1", port, "/jobs", small_request(21, "bob").to_json(),
      &status);
  EXPECT_EQ(status, 202);
  EXPECT_TRUE(obs::json_parse(again).at("cached").boolean);

  // Observability routes.
  const std::string queue =
      net::http_get("127.0.0.1", port, "/queue", &status);
  EXPECT_EQ(status, 200);
  const obs::JsonValue qdoc = obs::json_parse(queue);
  EXPECT_GE(qdoc.at("completed").number, 2.0);
  EXPECT_GE(qdoc.at("cache").at("hits").number, 1.0);
  const std::string metrics =
      net::http_get("127.0.0.1", port, "/metrics", &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(metrics.find("psdns_svc_cache_hits{stat=\"sum\"}"),
            std::string::npos);
  EXPECT_NE(metrics.find("psdns_svc_jobs_completed"), std::string::npos);

  net::http_get("127.0.0.1", port, "/jobs/9999", &status);
  EXPECT_EQ(status, 404);
  net::http_get("127.0.0.1", port, "/nope", &status);
  EXPECT_EQ(status, 404);

  // Graceful drain: health flips to 503 and new submissions are refused.
  net::http_post("127.0.0.1", port, "/shutdown", "", &status);
  EXPECT_EQ(status, 202);
  service.wait_shutdown();
  net::http_get("127.0.0.1", port, "/health", &status);
  EXPECT_EQ(status, 503);
  net::http_post("127.0.0.1", port, "/jobs",
                 small_request(23, "alice").to_json(), &status);
  EXPECT_EQ(status, 503);
  fs::remove_all(cfg.cache_dir);
  fs::remove_all(cfg.workdir);
}

TEST(Service, JobJourneyTraceIsServedAsChromeJson) {
  // Tracing is process-global state; start clean and restore at the end.
  obs::set_tracing(false);
  obs::clear_trace();
  ServiceConfig cfg = test_config("journey");
  cfg.trace = true;  // the ctor enables span capture
  {
    Service service(cfg);
    const int port = service.port();
    ASSERT_TRUE(obs::tracing());

    // The client names the journey via X-Psdns-Trace; the id is echoed in
    // both the response document and the response header.
    int status = 0;
    net::HttpHeaders response_headers;
    const std::string body = net::http_post(
        "127.0.0.1", port, "/jobs", small_request(61, "alice").to_json(),
        &status, 30.0, {{"X-Psdns-Trace", "tjourney61"}}, &response_headers);
    ASSERT_EQ(status, 202);
    const obs::JsonValue sub = obs::json_parse(body);
    EXPECT_EQ(sub.at("trace").string, "tjourney61");
    EXPECT_EQ(net::header_get(response_headers, "x-psdns-trace"),
              "tjourney61");
    const auto id = static_cast<std::int64_t>(sub.at("id").number);

    for (;;) {
      const std::string record = net::http_get(
          "127.0.0.1", port, "/jobs/" + std::to_string(id), &status);
      const std::string state = obs::json_parse(record).at("state").string;
      if (state == "done") break;
      ASSERT_NE(state, "failed");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    // GET /jobs/<id>/trace returns the merged journey: the service lanes
    // (admit/queue/schedule/run/store) plus the solver's driver.step spans
    // reached through the run flow, with Chrome flow events linking them.
    const std::string trace_json = net::http_get(
        "127.0.0.1", port, "/jobs/" + std::to_string(id) + "/trace",
        &status);
    ASSERT_EQ(status, 200);
    const obs::JsonValue doc = obs::json_parse(trace_json);
    ASSERT_TRUE(doc.is_array());
    std::map<std::string, int> names;
    int flow_starts = 0, flow_finishes = 0;
    for (const auto& ev : doc.array) {
      const std::string ph = ev.at("ph").string;
      if (ph == "X") ++names[ev.at("name").string];
      if (ph == "s") ++flow_starts;
      if (ph == "f") ++flow_finishes;
    }
    for (const char* lane : {"svc.admit", "svc.queue", "svc.schedule",
                             "svc.run", "svc.store", "driver.step"}) {
      EXPECT_GE(names[lane], 1) << "missing journey span " << lane;
    }
    EXPECT_EQ(names["driver.step"], 2);  // steps = 2, nothing else's steps
    EXPECT_GE(flow_starts, 1);
    EXPECT_EQ(flow_starts, flow_finishes);

    // A second job's trace id is minted deterministically: "t" + 16 hex.
    const std::string other = net::http_post(
        "127.0.0.1", port, "/jobs", small_request(62, "alice").to_json(),
        &status);
    ASSERT_EQ(status, 202);
    const std::string minted = obs::json_parse(other).at("trace").string;
    ASSERT_EQ(minted.size(), 17u);
    EXPECT_EQ(minted[0], 't');
    for (std::size_t i = 1; i < minted.size(); ++i) {
      EXPECT_TRUE((minted[i] >= '0' && minted[i] <= '9') ||
                  (minted[i] >= 'a' && minted[i] <= 'f'));
    }

    net::http_get("127.0.0.1", port, "/jobs/9999/trace", &status);
    EXPECT_EQ(status, 404);
  }
  obs::set_tracing(false);
  obs::clear_trace();
  fs::remove_all(cfg.cache_dir);
  fs::remove_all(cfg.workdir);
}

TEST(Service, TraceRouteExplainsWhenTracingIsOff) {
  ServiceConfig cfg = test_config("notrace");
  ASSERT_FALSE(obs::tracing());
  Service service(cfg);
  int status = 0;
  const std::string body = net::http_post(
      "127.0.0.1", service.port(), "/jobs",
      small_request(63, "alice").to_json(), &status);
  ASSERT_EQ(status, 202);
  const auto id =
      static_cast<std::int64_t>(obs::json_parse(body).at("id").number);
  const std::string trace = net::http_get(
      "127.0.0.1", service.port(), "/jobs/" + std::to_string(id) + "/trace",
      &status);
  EXPECT_EQ(status, 404);
  EXPECT_NE(trace.find("PSDNS_SVC_TRACE"), std::string::npos);
  fs::remove_all(cfg.cache_dir);
  fs::remove_all(cfg.workdir);
}

// --- header parsing and propagation (net/http) ---------------------------

/// Writes raw bytes to the server and returns the raw response - the only
/// way to exercise malformed heads the client renderer refuses to emit.
std::string raw_http(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::size_t done = 0;
  while (done < request.size()) {
    const ssize_t n = ::write(fd, request.data() + done,
                              request.size() - done);
    if (n <= 0) break;
    done += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[1024];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(HttpHeaders, CustomRequestAndResponseHeadersRoundTrip) {
  net::HttpServer server({}, [](const net::HttpRequest& req) {
    // Case-insensitive lookup server-side, custom header on the way back.
    net::HttpResponse resp =
        net::HttpResponse::text(req.header("x-psdns-trace"));
    resp.headers.emplace_back("X-Echo", req.header("X-Psdns-Trace"));
    return resp;
  });
  int status = 0;
  net::HttpHeaders response_headers;
  const std::string body = net::http_get(
      "127.0.0.1", server.port(), "/", &status, 30.0,
      {{"X-Psdns-Trace", "tjourney42"}}, &response_headers);
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "tjourney42");
  EXPECT_EQ(net::header_get(response_headers, "x-echo"), "tjourney42");
  EXPECT_NE(net::header_get(response_headers, "content-length"), "");
  // Absent header -> "", not a throw.
  EXPECT_EQ(net::header_get(response_headers, "x-missing"), "");
}

TEST(HttpHeaders, FetchOptionsForwardHeadersAndCaptureResponse) {
  // The retrying svc client rides the same header plumbing (psdns_submit
  // sends X-Psdns-Trace through it).
  net::HttpServer server({}, [](const net::HttpRequest& req) {
    net::HttpResponse resp = net::HttpResponse::text("ok");
    resp.headers.emplace_back("X-Echo", req.header("X-Psdns-Trace"));
    return resp;
  });
  FetchOptions options;
  options.headers.emplace_back("X-Psdns-Trace", "tclient1");
  net::HttpHeaders response_headers;
  options.response_headers = &response_headers;
  int status = 0;
  const std::string body =
      fetch("127.0.0.1", server.port(), "/", &status, options);
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "ok");
  EXPECT_EQ(net::header_get(response_headers, "x-echo"), "tclient1");
}

TEST(HttpHeaders, FoldedContinuationJoinsWithOneSpace) {
  net::HttpServer server({}, [](const net::HttpRequest& req) {
    return net::HttpResponse::text(req.header("X-Long"));
  });
  const std::string response = raw_http(
      server.port(),
      "GET / HTTP/1.1\r\nHost: t\r\nX-Long: part one\r\n\t and two\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(response.find("part one and two"), std::string::npos);
}

TEST(HttpHeaders, MalformedHeaderLinesAreRefusedWith400) {
  net::HttpServer server({}, [](const net::HttpRequest&) {
    return net::HttpResponse::text("handler must not run");
  });
  const std::string no_colon = raw_http(
      server.port(), "GET / HTTP/1.1\r\nHost no colon here\r\n\r\n");
  EXPECT_NE(no_colon.find("HTTP/1.1 400"), std::string::npos);
  EXPECT_NE(no_colon.find("no colon"), std::string::npos);

  const std::string bad_name = raw_http(
      server.port(), "GET / HTTP/1.1\r\nBad Name: value\r\n\r\n");
  EXPECT_NE(bad_name.find("HTTP/1.1 400"), std::string::npos);

  const std::string orphan_fold = raw_http(
      server.port(), "GET / HTTP/1.1\r\n continued-from-nothing\r\n\r\n");
  EXPECT_NE(orphan_fold.find("HTTP/1.1 400"), std::string::npos);
  EXPECT_EQ(orphan_fold.find("handler must not run"), std::string::npos);
}

TEST(HttpHeaders, OversizedHeadIsRefusedNotHung) {
  net::HttpServer server({}, [](const net::HttpRequest&) {
    return net::HttpResponse::text("handler must not run");
  });
  const util::Stopwatch watch;
  // 16 KiB of head without a terminator in the first 8 KiB: the server
  // must answer 400 after its bounded read, never buffer without limit.
  const std::string response = raw_http(
      server.port(),
      "GET / HTTP/1.1\r\nX-Big: " + std::string(16 * 1024, 'x') + "\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos);
  EXPECT_NE(response.find("request head too large"), std::string::npos);
  EXPECT_LT(watch.seconds(), 5.0);
}

TEST(HttpHeaders, TooManyHeadersAreRefused) {
  net::HttpServer server({}, [](const net::HttpRequest&) {
    return net::HttpResponse::text("handler must not run");
  });
  std::string head = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 120; ++i) {
    head += "X-H" + std::to_string(i) + ": v\r\n";  // stays under 8 KiB
  }
  head += "\r\n";
  const std::string response = raw_http(server.port(), head);
  EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos);
  EXPECT_NE(response.find("too many headers"), std::string::npos);
}

// --- client timeout + retry (the hardened http_get) ----------------------

TEST(HttpClient, TimesOutOnSilentPeer) {
  // A listening socket that never answers: accept backlog lets connect()
  // succeed, then the exchange must hit the deadline instead of blocking
  // forever (the seed behavior).
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr),
                          &len),
            0);
  const int port = ntohs(addr.sin_port);

  const util::Stopwatch watch;
  EXPECT_THROW(net::http_get("127.0.0.1", port, "/", nullptr, 0.3),
               util::Error);
  EXPECT_LT(watch.seconds(), 5.0);
  ::close(listener);
}

TEST(HttpClient, FetchRetriesPerPolicy) {
  // Find a port that is certainly closed by binding then closing it.
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const int port = ntohs(addr.sin_port);
  ::close(probe);

  FetchOptions options;
  options.timeout_s = 0.2;
  options.retry.max_attempts = 3;
  options.retry.base_delay_s = 1e-4;
  const std::int64_t before =
      obs::registry().counter("resilience.retries");
  EXPECT_THROW(fetch("127.0.0.1", port, "/metrics", nullptr, options),
               util::Error);
  EXPECT_EQ(obs::registry().counter("resilience.retries"), before + 2);
}

}  // namespace
}  // namespace psdns::svc
