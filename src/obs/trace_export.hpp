#pragma once
// Readers that turn an obs::SpanTrace - recorded from a real run, or
// predicted by the discrete-event model (sim::DagRunner::trace) - into
// pictures of the step:
//  - Chrome trace-event JSON, loadable by Perfetto (ui.perfetto.dev) and
//    chrome://tracing: the paper's Fig.-10 timeline view, but interactive.
//    Every span becomes a complete event (ph "X") with microsecond
//    timestamps on its rank's process and its thread's track; span kinds
//    map to stable Chrome color names so the transfer/compute/network
//    streams render in the paper's blue/green/red scheme.
//  - A text timeline, the Fig.-10 view itself: one row per stream of
//    Fig. 4 (MPI, transfer, compute), or one row per track.

#include <string>
#include <vector>

#include "obs/span.hpp"

namespace psdns::obs {

struct ChromeTraceOptions {
  int pid = 1;
  double seconds_to_us = 1e6;  // sim/wall seconds -> trace microseconds
  std::string process_name = "psdns";
};

/// Chrome color-name for a span kind (the `cname` event field).
const char* chrome_color(SpanKind kind);

/// Span trace -> Chrome trace. Ranks map to processes (pid = options.pid +
/// rank + 1, untagged spans to options.pid) and threads to tids, so every
/// SPMD rank renders as its own named track group (tracks are named by
/// trace.thread_names where it has an entry, else "thread <N>"); each
/// flow edge becomes a Chrome flow-event pair (ph "s" at the source
/// span's end, ph "f" with bp "e" at the destination span's start) that
/// Perfetto/chrome://tracing draw as arrows between the tracks.
std::string to_chrome_trace(const SpanTrace& trace,
                            const ChromeTraceOptions& options = {});

struct TimelineOptions {
  int columns = 100;
  bool show_lane_per_stream = false;  // true: one row per track instead
                                      // of one row per span kind
};

/// Renders the leaf spans (obs::leaf_spans) in [0, t_end] (t_end defaults
/// to the last end) as text rows of `columns` characters, '#' where at
/// least one span of the row's kind (MPI = Comm, transfer, compute) or
/// track is active.
std::string render_timeline(const SpanTrace& trace, double t_end = 0.0,
                            const TimelineOptions& options = {});

/// One line: busy seconds (busy_time) of MPI, transfer and compute spans
/// and their share of t_end.
std::string summarize_busy(const SpanTrace& trace, double t_end);

/// Replaces `path` with `text` through a util::AtomicFile. Throws
/// util::Error naming the path on failure.
void write_text_file(const std::string& path, const std::string& text);

}  // namespace psdns::obs
