#pragma once
// Chrome trace-event export: converts simulated sim::OpRecord traces and
// recorded obs::TraceSpan traces into the JSON array form of the Trace
// Event Format, loadable by Perfetto (ui.perfetto.dev) and chrome://tracing
// - the paper's Fig.-10 timeline view, but interactive. Every op becomes a
// complete event (ph "X") with microsecond timestamps; each DAG lane (or
// span thread) becomes one named track; op categories map to stable
// Chrome color names so the transfer/compute/network streams render in
// the paper's blue/green/red scheme.

#include <string>
#include <vector>

#include "obs/span.hpp"
#include "sim/trace.hpp"

namespace psdns::obs {

struct ChromeTraceOptions {
  int pid = 1;
  double seconds_to_us = 1e6;  // sim/wall seconds -> trace microseconds
  std::string process_name = "psdns";
};

/// Chrome color-name for an op category (the `cname` event field).
const char* chrome_color(sim::OpCategory category);

/// Chrome color-name for a causal-span kind (same Fig.-4 scheme).
const char* chrome_color(SpanKind kind);

/// One track per distinct OpRecord::lane, in order of first appearance.
std::string to_chrome_trace(const std::vector<sim::OpRecord>& records,
                            const ChromeTraceOptions& options = {});

/// Causal span trace -> Chrome trace. Ranks map to processes (pid =
/// options.pid + rank + 1, untagged spans to options.pid) and threads to
/// tids, so every SPMD rank renders as its own named track group; each
/// flow edge becomes a Chrome flow-event pair (ph "s" at the source
/// span's end, ph "f" with bp "e" at the destination span's start) that
/// Perfetto/chrome://tracing draw as arrows between the tracks.
std::string to_chrome_trace(const SpanTrace& trace,
                            const ChromeTraceOptions& options = {});

/// Replaces `path` with `text` through a util::AtomicFile. Throws
/// util::Error naming the path on failure.
void write_text_file(const std::string& path, const std::string& text);

}  // namespace psdns::obs
