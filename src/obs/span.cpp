#include "obs/span.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "obs/log.hpp"
#include "obs/registry.hpp"
#include "obs/trace_export.hpp"
#include "util/check.hpp"

namespace psdns::obs {

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t now_ticks() { return Clock::now().time_since_epoch().count(); }

double ticks_to_seconds(std::int64_t ticks) {
  return std::chrono::duration<double>(Clock::duration(ticks)).count();
}

struct ThreadRing {
  std::mutex mutex;  // owner-writes, collector-reads; uncontended in the hot path
  std::vector<SpanRecord> ring;
  std::size_t capacity = 0;
  std::size_t next = 0;           // next write slot (mod capacity)
  std::uint64_t written = 0;      // total spans ever written
};

struct TraceState {
  std::mutex mutex;
  std::atomic<bool> enabled{false};
  // Written under `mutex`, read lock-free by every span: atomics, so a
  // set_tracing(true) racing a span on another thread is not a data race.
  std::atomic<std::int64_t> origin{now_ticks()};  // trace clock zero, ticks
  std::atomic<std::uint64_t> epoch{0};  // bumped on restart; stale rings reset
  std::size_t capacity = 1 << 16;
  std::string file;
  std::vector<std::shared_ptr<ThreadRing>> rings;
  // Flow bookkeeping. `pending` keeps its entries after a consume so a
  // broadcast-shaped flow can fan out to several consumers.
  std::unordered_map<FlowId, SpanId> pending;
  std::vector<FlowEdge> edges;
  // Counter tracks (trace_counter). Bounded; overflow counts as dropped.
  std::vector<CounterSample> counters;
  std::int64_t counters_dropped = 0;
  static constexpr std::size_t kCounterCap = 1 << 20;
  std::atomic<std::uint64_t> next_span{1};
  std::atomic<std::uint64_t> next_flow{1};
};

TraceState& trace_state() {
  static TraceState state;
  return state;
}

struct OpenSpan {
  SpanId id;
};

struct ThreadLocalTrace {
  std::shared_ptr<ThreadRing> ring;
  std::uint64_t epoch = ~std::uint64_t{0};
  std::vector<OpenSpan> stack;
};

ThreadLocalTrace& tl_trace() {
  thread_local ThreadLocalTrace t;
  return t;
}

/// This thread's ring for the current epoch, (re)registering as needed.
ThreadRing& my_ring() {
  auto& st = trace_state();
  auto& tl = tl_trace();
  const std::uint64_t epoch = st.epoch.load();
  if (tl.ring == nullptr || tl.epoch != epoch) {
    auto ring = std::make_shared<ThreadRing>();
    {
      std::lock_guard lock(st.mutex);
      ring->capacity = st.capacity;
      ring->ring.resize(ring->capacity);
      st.rings.push_back(ring);
    }
    tl.ring = std::move(ring);
    tl.epoch = epoch;
    tl.stack.clear();
  }
  return *tl.ring;
}

std::once_flag env_once;

/// Set by any explicit set_tracing / init_tracing_from_env call; the lazy
/// first-use env read must not run after (and override) a programmatic
/// setting.
std::atomic<bool> env_settled{false};

void ensure_env_init() {
  std::call_once(env_once, [] {
    if (!env_settled.load(std::memory_order_acquire)) {
      init_tracing_from_env();
    }
  });
}

void write_trace_at_exit() {
  try {
    write_trace_if_configured();
  } catch (...) {
    // Exit paths must not throw; the trace is best-effort by design.
  }
}

}  // namespace

const char* to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::Compute:
      return "compute";
    case SpanKind::Transfer:
      return "transfer";
    case SpanKind::Comm:
      return "comm";
    case SpanKind::Io:
      return "io";
    case SpanKind::Other:
      return "other";
  }
  return "?";
}

void set_tracing(bool on) {
  env_settled.store(true, std::memory_order_release);
  auto& st = trace_state();
  std::lock_guard lock(st.mutex);
  if (on) {
    // Restart: drop every thread's ring (threads re-register lazily via the
    // epoch check) and the flow bookkeeping, and reset the clock origin.
    st.rings.clear();
    st.pending.clear();
    st.edges.clear();
    st.counters.clear();
    st.counters_dropped = 0;
    st.origin.store(now_ticks());
    ++st.epoch;
  }
  st.enabled.store(on, std::memory_order_release);
}

bool tracing() {
  ensure_env_init();
  return trace_state().enabled.load(std::memory_order_relaxed);
}

void init_tracing_from_env() {
  env_settled.store(true, std::memory_order_release);
  auto& st = trace_state();
  if (const char* v = std::getenv("PSDNS_TRACE")) {
    const std::string s(v);
    if (s == "1" || s == "true" || s == "on") {
      // Leave already-enabled tracing undisturbed: set_tracing(true) is a
      // restart (rings cleared, clock origin reset), and callers like the
      // campaign driver re-apply the environment on every run - inside
      // the service that would wipe the journey spans of earlier jobs.
      if (!st.enabled.load(std::memory_order_acquire)) set_tracing(true);
    } else if (s == "0" || s == "false" || s == "off") {
      set_tracing(false);
    } else {
      util::raise("unknown PSDNS_TRACE value: " + s +
                  " (expected 1|true|on|0|false|off)");
    }
  }
  if (const char* path = std::getenv("PSDNS_TRACE_FILE")) {
    static std::once_flag exit_once;
    set_trace_file(path);
    // The state singleton above is alive before the handler registers, so
    // the exit-time write runs before its destruction.
    std::call_once(exit_once, [] { std::atexit(write_trace_at_exit); });
  }
  (void)st;
}

void set_trace_file(const std::string& path) {
  auto& st = trace_state();
  std::lock_guard lock(st.mutex);
  st.file = path;
}

std::string trace_file() {
  auto& st = trace_state();
  std::lock_guard lock(st.mutex);
  return st.file;
}

void set_trace_capacity(std::size_t spans_per_thread) {
  PSDNS_REQUIRE(spans_per_thread >= 1, "trace capacity must be >= 1");
  auto& st = trace_state();
  std::lock_guard lock(st.mutex);
  st.capacity = spans_per_thread;
}

SpanTrace collect_trace() {
  auto& st = trace_state();
  SpanTrace out;
  std::vector<std::shared_ptr<ThreadRing>> rings;
  {
    std::lock_guard lock(st.mutex);
    rings = st.rings;
    out.edges = st.edges;
    out.counters = st.counters;
    out.dropped += st.counters_dropped;
  }
  for (const auto& ring : rings) {
    std::lock_guard lock(ring->mutex);
    const std::uint64_t kept =
        std::min<std::uint64_t>(ring->written, ring->capacity);
    out.dropped += static_cast<std::int64_t>(ring->written - kept);
    // Oldest surviving span first: the ring wraps at `next`.
    for (std::uint64_t i = 0; i < kept; ++i) {
      const std::size_t slot =
          (ring->next + ring->capacity - kept + i) % ring->capacity;
      out.spans.push_back(ring->ring[slot]);
    }
  }
  std::stable_sort(out.spans.begin(), out.spans.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     return a.start_s < b.start_s;
                   });
  return out;
}

void clear_trace() {
  auto& st = trace_state();
  std::lock_guard lock(st.mutex);
  st.rings.clear();
  st.pending.clear();
  st.edges.clear();
  st.counters.clear();
  st.counters_dropped = 0;
  ++st.epoch;
}

void write_trace_if_configured() {
  const std::string path = trace_file();
  if (path.empty()) return;
  const SpanTrace trace = collect_trace();
  if (trace.spans.empty()) return;
  write_text_file(path, to_chrome_trace(trace));
  log_event(LogLevel::Info, "obs", "trace written",
            {{"path", path},
             {"spans", static_cast<std::int64_t>(trace.spans.size())},
             {"edges", static_cast<std::int64_t>(trace.edges.size())},
             {"dropped", trace.dropped}});
}

SpanId current_span() {
  if (!tracing()) return 0;
  auto& tl = tl_trace();
  if (tl.epoch != trace_state().epoch.load() || tl.stack.empty()) return 0;
  return tl.stack.back().id;
}

double trace_clock() {
  if (!tracing()) return 0.0;
  return ticks_to_seconds(now_ticks() - trace_state().origin.load());
}

SpanId record_span(std::string_view name, SpanKind kind, double start_s,
                   double end_s, SpanId parent) {
  if (!tracing()) return 0;
  auto& st = trace_state();
  SpanRecord rec;
  const SpanId id = st.next_span.fetch_add(1, std::memory_order_relaxed);
  rec.id = id;
  rec.parent = parent;
  rec.name = std::string(name);
  rec.kind = kind;
  rec.thread = thread_index();
  rec.rank = rank_tag();
  rec.start_s = start_s;
  rec.end_s = end_s;
  auto& ring = my_ring();
  std::lock_guard lock(ring.mutex);
  ring.ring[ring.next] = std::move(rec);
  ring.next = (ring.next + 1) % ring.capacity;
  ++ring.written;
  return id;
}

void link_spans(SpanId src, SpanId dst) {
  if (!tracing() || src == 0 || dst == 0 || src == dst) return;
  auto& st = trace_state();
  const FlowId flow = st.next_flow.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard lock(st.mutex);
  st.edges.push_back(FlowEdge{flow, src, dst});
}

FlowId new_flow() {
  return trace_state().next_flow.fetch_add(1, std::memory_order_relaxed);
}

void flow_emit(FlowId flow) {
  if (!tracing() || flow == 0) return;
  const SpanId src = current_span();
  if (src == 0) return;
  auto& st = trace_state();
  std::lock_guard lock(st.mutex);
  st.pending[flow] = src;
}

void flow_consume(FlowId flow) {
  if (!tracing() || flow == 0) return;
  const SpanId dst = current_span();
  if (dst == 0) return;
  auto& st = trace_state();
  std::lock_guard lock(st.mutex);
  const auto it = st.pending.find(flow);
  if (it == st.pending.end() || it->second == dst) return;
  st.edges.push_back(FlowEdge{flow, it->second, dst});
}

void trace_counter(std::string_view name, double value) {
  if (!tracing()) return;
  auto& st = trace_state();
  CounterSample sample;
  sample.name = std::string(name);
  sample.rank = rank_tag();
  sample.t_s = ticks_to_seconds(now_ticks() - st.origin.load());
  sample.value = value;
  std::lock_guard lock(st.mutex);
  if (st.counters.size() >= TraceState::kCounterCap) {
    ++st.counters_dropped;
    return;
  }
  st.counters.push_back(std::move(sample));
}

double SpanSum::flush(double start_s) {
  const double seconds = std::chrono::duration<double>(sum_).count();
  sum_ = {};
  registry().observe(name_, seconds);
  record_span(name_, kind_, start_s, start_s + seconds, current_span());
  return start_s + seconds;
}

TraceSpan::TraceSpan(std::string_view name, SpanKind kind)
    : name_(name), kind_(kind) {
  if (tracing()) {
    my_ring();  // registers this thread for the current epoch
    id_ = trace_state().next_span.fetch_add(1, std::memory_order_relaxed);
    tl_trace().stack.push_back(OpenSpan{id_});
  }
  start_ticks_ = now_ticks();  // last, so the bookkeeping is not timed
}

TraceSpan::~TraceSpan() { end(); }

double TraceSpan::end() {
  if (ended_) return 0.0;
  ended_ = true;
  const std::int64_t end_ticks = now_ticks();
  const double seconds = ticks_to_seconds(end_ticks - start_ticks_);
  registry().observe(name_, seconds);
  if (id_ == 0) return seconds;

  auto& st = trace_state();
  auto& tl = tl_trace();
  SpanRecord rec;
  rec.id = std::exchange(id_, 0);
  // A set_tracing(true) or clear_trace() between construction and end
  // invalidates the record: its stack belongs to the previous epoch.
  if (tl.epoch != st.epoch.load()) return seconds;
  // Unwind to this span (tolerates spans ended out of declaration order).
  while (!tl.stack.empty() && tl.stack.back().id != rec.id) tl.stack.pop_back();
  if (tl.stack.empty()) return seconds;
  tl.stack.pop_back();
  const std::int64_t origin = st.origin.load();
  rec.parent = tl.stack.empty() ? 0 : tl.stack.back().id;
  rec.name = std::string(name_);
  rec.kind = kind_;
  rec.thread = thread_index();
  rec.rank = rank_tag();
  rec.start_s = ticks_to_seconds(start_ticks_ - origin);
  rec.end_s = ticks_to_seconds(end_ticks - origin);
  auto& ring = my_ring();
  std::lock_guard lock(ring.mutex);
  ring.ring[ring.next] = std::move(rec);
  ring.next = (ring.next + 1) % ring.capacity;
  ++ring.written;
  return seconds;
}

}  // namespace psdns::obs
