#pragma once
// Timed intervals and causal span tracing. obs::TraceSpan is the one
// instrumentation primitive: every span times its interval on the steady
// clock and observes the seconds into the obs::registry() histogram named
// after it, whether tracing is on or off, so /metrics always carries the
// per-phase timings. With tracing on, the span is also recorded with its
// hierarchy and explicit cross-lane / cross-rank causal edges - the
// substrate for the critical-path and overlap analyses
// (obs/critical_path.hpp).
//
// Each thread records completed spans into its own fixed-capacity ring
// buffer (oldest spans are overwritten, the drop count is reported). A
// span costs two clock reads and one registry observation (a mutex plus a
// map lookup); with tracing on, add an uncontended ring mutex and a ring
// store. Spans nest: a thread-local stack links each span to its parent,
// giving the per-thread hierarchy, and flow edges (flow_emit in the
// producing span, flow_consume in the consuming span) record causality
// across threads, lanes and SPMD ranks - the instrumented sites are the
// comm all-to-alls and the campaign service's hand-off of a job to its
// rank threads. trace_export renders the edges as Chrome flow events (ph
// "s"/"f") so the overlap structure is visible in Perfetto.
//
// Environment gating follows the same precedence rules as PSDNS_LOG_*:
// PSDNS_TRACE=1|true|on enables capture (0|false|off disables),
// PSDNS_TRACE_FILE=path arranges for the collected trace to be written as
// Chrome JSON at process exit (and by driver::run_campaign on
// completion). The variables are applied lazily before the first span is
// recorded; programmatic set_tracing / set_trace_file win because they
// run eagerly, and init_tracing_from_env is safe to call more than once.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace psdns::obs {

/// Process-unique span identifier; 0 means "no span".
using SpanId = std::uint64_t;
/// Identifier tying a flow_emit to its flow_consume(s); 0 is reserved.
using FlowId = std::uint64_t;

/// Coarse cost classes, matching the paper's Fig.-4 stream coloring and
/// the critical-path attribution buckets.
enum class SpanKind { Compute, Transfer, Comm, Io, Other };

const char* to_string(SpanKind kind);

struct SpanRecord {
  SpanId id = 0;
  SpanId parent = 0;     // 0 = top-level span of its thread
  std::string name;
  SpanKind kind = SpanKind::Other;
  int thread = 0;        // obs::thread_index() of the emitting thread
  int rank = -1;         // obs::rank_tag() at span end (-1 = untagged)
  double start_s = 0.0;  // seconds since tracing was (re)enabled
  double end_s = 0.0;

  double duration() const { return end_s - start_s; }
};

/// Causal edge: `src` happened-before `dst`, tied together by `flow`.
struct FlowEdge {
  FlowId flow = 0;
  SpanId src = 0;
  SpanId dst = 0;
};

/// One sample of a numeric counter track (Chrome trace ph "C"): per-step
/// gauges like overlap efficiency or arena residency plotted alongside
/// the span lanes.
struct CounterSample {
  std::string name;
  int rank = -1;       // obs::rank_tag() of the sampling thread
  double t_s = 0.0;    // seconds since tracing was (re)enabled
  double value = 0.0;
};

struct SpanTrace {
  std::vector<SpanRecord> spans;  // sorted by start time
  std::vector<FlowEdge> edges;
  std::vector<CounterSample> counters;  // in sampling order
  std::int64_t dropped = 0;       // spans lost to ring-buffer wrap
};

/// Enables/disables capture. Enabling clears all rings and edges and
/// restarts the trace clock origin.
void set_tracing(bool on);

/// Fast gate: a relaxed atomic load (plus a one-time lazy application of
/// PSDNS_TRACE / PSDNS_TRACE_FILE on first use).
bool tracing();

/// Applies PSDNS_TRACE and PSDNS_TRACE_FILE when set; unknown values
/// throw rather than being ignored. Safe to call more than once.
void init_tracing_from_env();

/// Chrome-trace output path for write_trace_if_configured (empty = none).
void set_trace_file(const std::string& path);
std::string trace_file();

/// Per-thread ring capacity in spans (default 65536). Applies to rings
/// created after the call; enabling tracing re-creates all rings.
void set_trace_capacity(std::size_t spans_per_thread);

/// Snapshot of every thread's completed spans (sorted by start time)
/// plus all flow edges. Open spans are not included.
SpanTrace collect_trace();
void clear_trace();

/// Writes collect_trace() as Chrome trace JSON to trace_file(); no-op
/// when the path is empty or tracing never captured anything.
void write_trace_if_configured();

/// Innermost open span of this thread (0 when none or tracing is off).
SpanId current_span();

/// Seconds since tracing was (re)enabled - the clock SpanRecord start/end
/// times are on. 0.0 while tracing is off.
double trace_clock();

/// Appends an already-completed span with explicit trace-clock times to
/// this thread's ring - the escape hatch for intervals that no single
/// thread was inside (e.g. the campaign service's queue-wait, which
/// starts on the HTTP handler thread and ends on the worker that
/// dispatches the job). Returns the new span's id, 0 while tracing is
/// off.
SpanId record_span(std::string_view name, SpanKind kind, double start_s,
                   double end_s, SpanId parent = 0);

/// Appends a causal edge src -> dst between two known span ids (a fresh
/// FlowId is minted). The explicit-id sibling of flow_emit/flow_consume
/// for call sites that hold both ends; no-op when either id is 0 or
/// tracing is off.
void link_spans(SpanId src, SpanId dst);

/// Process-unique flow id for hand-rolled post/wait pairs.
FlowId new_flow();

/// Marks the current span as the producer of `flow`. The last emit wins.
void flow_emit(FlowId flow);

/// Appends a causal edge from the span that emitted `flow` to the current
/// span. Multiple consumers each get their own edge; consuming a flow
/// that was never emitted is a silent no-op (the producer's ring may have
/// wrapped, or its site may not be instrumented).
void flow_consume(FlowId flow);

/// Samples a counter track at the current trace time. No-op (one relaxed
/// atomic load) while tracing is off; samples beyond the per-trace cap
/// (1M) are counted into SpanTrace::dropped.
void trace_counter(std::string_view name, double value);

/// RAII timed interval. On end it observes the elapsed seconds into the
/// obs::registry() histogram named `name`; while tracing is on it also
/// appends a SpanRecord to this thread's ring. The name is held by
/// reference and must outlive the span (every site passes a literal); it
/// is copied into owned storage only when the record enters a ring.
class TraceSpan {
 public:
  explicit TraceSpan(std::string_view name, SpanKind kind = SpanKind::Other);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// 0 when tracing was off at construction, and after end().
  SpanId id() const { return id_; }

  /// Ends the span early and returns its elapsed seconds; later calls
  /// (and the destructor) are no-ops returning 0.
  double end();

 private:
  std::string_view name_;
  std::int64_t start_ticks_ = 0;  // steady-clock ticks
  SpanId id_ = 0;
  SpanKind kind_ = SpanKind::Other;
  bool ended_ = false;
};

}  // namespace psdns::obs
