#include "obs/trace_export.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <sstream>
#include <utility>

#include "obs/critical_path.hpp"
#include "obs/json.hpp"
#include "util/file.hpp"
#include "util/format.hpp"

namespace psdns::obs {

namespace {

void append_metadata(std::ostringstream& os, int pid, const std::string& kind,
                     int tid, const std::string& name, bool& first) {
  os << (first ? "" : ",\n") << "{\"name\":" << json_quote(kind)
     << ",\"ph\":\"M\",\"ts\":0,\"dur\":0,\"pid\":" << pid
     << ",\"tid\":" << tid << ",\"args\":{\"name\":" << json_quote(name)
     << "}}";
  first = false;
}

void append_complete_event(std::ostringstream& os,
                           const ChromeTraceOptions& opt,
                           const std::string& name, const char* category,
                           const char* cname, int pid, int tid,
                           double start_s, double dur_s, bool& first) {
  os << (first ? "" : ",\n") << "{\"name\":" << json_quote(name)
     << ",\"cat\":" << json_quote(category) << ",\"ph\":\"X\",\"ts\":"
     << json_number(start_s * opt.seconds_to_us)
     << ",\"dur\":" << json_number(dur_s * opt.seconds_to_us)
     << ",\"pid\":" << pid << ",\"tid\":" << tid;
  if (cname != nullptr) os << ",\"cname\":" << json_quote(cname);
  os << "}";
  first = false;
}

/// Counter-track sample (ph "C"): Perfetto renders each distinct name as
/// a stacked-area track alongside the span lanes.
void append_counter_event(std::ostringstream& os,
                          const ChromeTraceOptions& opt,
                          const std::string& name, int pid, double ts_s,
                          double value, bool& first) {
  os << (first ? "" : ",\n") << "{\"name\":" << json_quote(name)
     << ",\"ph\":\"C\",\"ts\":" << json_number(ts_s * opt.seconds_to_us)
     << ",\"pid\":" << pid << ",\"tid\":0,\"args\":{\"value\":"
     << json_number(value) << "}}";
  first = false;
}

/// One half of a Chrome flow-event pair ("s" start / "f" finish).
void append_flow_event(std::ostringstream& os, const ChromeTraceOptions& opt,
                       const char* phase, std::uint64_t id, int pid, int tid,
                       double ts_s, bool& first) {
  os << (first ? "" : ",\n")
     << "{\"name\":\"dep\",\"cat\":\"flow\",\"ph\":\"" << phase
     << "\",\"id\":" << id
     << ",\"ts\":" << json_number(ts_s * opt.seconds_to_us)
     << ",\"dur\":0,\"pid\":" << pid << ",\"tid\":" << tid;
  if (phase[0] == 'f') os << ",\"bp\":\"e\"";
  os << "}";
  first = false;
}

std::string track_name(const SpanTrace& trace, int thread) {
  return thread >= 0 &&
                 static_cast<std::size_t>(thread) < trace.thread_names.size()
             ? trace.thread_names[static_cast<std::size_t>(thread)]
             : "thread " + std::to_string(thread);
}

std::string paint_row(const std::vector<const SpanRecord*>& spans,
                      double t_end, int columns) {
  std::string row(static_cast<std::size_t>(columns), '.');
  for (const SpanRecord* s : spans) {
    if (s->end_s <= s->start_s) continue;
    // Clip to [0, t_end]: spans entirely outside the window paint nothing
    // (instead of smearing into the first/last column).
    if (s->start_s >= t_end || s->end_s <= 0.0) continue;
    const double start = std::max(s->start_s, 0.0);
    const double end = std::min(s->end_s, t_end);
    const int c0 = std::clamp(static_cast<int>(start / t_end * columns), 0,
                              columns - 1);
    const int c1 = std::clamp(static_cast<int>(end / t_end * columns), c0,
                              columns - 1);
    for (int c = c0; c <= c1; ++c) row[static_cast<std::size_t>(c)] = '#';
  }
  return row;
}

/// The text rows of Fig. 10: the three streams of Fig. 4.
constexpr std::pair<SpanKind, const char*> kStreamRows[] = {
    {SpanKind::Comm, "MPI"},
    {SpanKind::Transfer, "transfer"},
    {SpanKind::Compute, "compute"},
};

}  // namespace

const char* chrome_color(SpanKind kind) {
  switch (kind) {
    case SpanKind::Compute:
      return "thread_state_running";  // green
    case SpanKind::Transfer:
      return "thread_state_iowait";  // blue
    case SpanKind::Comm:
      return "terrible";  // red
    case SpanKind::Io:
      return "thread_state_sleeping";  // light blue-grey
    case SpanKind::Other:
      return "generic_work";
  }
  return "generic_work";
}

std::string to_chrome_trace(const SpanTrace& trace,
                            const ChromeTraceOptions& options) {
  // Rank -> process, thread -> track. thread_index() is process-unique, so
  // tids never collide across the rank processes.
  const auto pid_of = [&](int rank) {
    return rank >= 0 ? options.pid + rank + 1 : options.pid;
  };
  std::map<int, std::vector<int>> rank_threads;  // rank -> sorted tids
  std::map<SpanId, const SpanRecord*> by_id;
  for (const auto& s : trace.spans) {
    auto& threads = rank_threads[s.rank];
    if (std::find(threads.begin(), threads.end(), s.thread) == threads.end()) {
      threads.push_back(s.thread);
    }
    by_id.emplace(s.id, &s);
  }

  std::ostringstream os;
  os << "[\n";
  bool first = true;
  for (auto& [rank, threads] : rank_threads) {
    std::sort(threads.begin(), threads.end());
    const std::string pname =
        rank >= 0 ? options.process_name + " rank " + std::to_string(rank)
                  : options.process_name;
    append_metadata(os, pid_of(rank), "process_name", 0, pname, first);
    for (const int tid : threads) {
      append_metadata(os, pid_of(rank), "thread_name", tid,
                      track_name(trace, tid), first);
    }
  }
  for (const auto& s : trace.spans) {
    append_complete_event(os, options, s.name, to_string(s.kind),
                          chrome_color(s.kind), pid_of(s.rank), s.thread,
                          s.start_s, s.duration(), first);
  }
  // Causal edges as flow-event pairs: the arrow leaves the source span at
  // its end and lands on the destination span at its start.
  std::uint64_t flow_seq = 0;
  for (const auto& e : trace.edges) {
    const auto src = by_id.find(e.src);
    const auto dst = by_id.find(e.dst);
    if (src == by_id.end() || dst == by_id.end()) continue;
    ++flow_seq;
    append_flow_event(os, options, "s", flow_seq, pid_of(src->second->rank),
                      src->second->thread, src->second->end_s, first);
    append_flow_event(os, options, "f", flow_seq, pid_of(dst->second->rank),
                      dst->second->thread, dst->second->start_s, first);
  }
  // Per-step gauge samples as counter tracks, grouped under the process
  // of the rank that sampled them (untagged samples under the base pid).
  for (const auto& c : trace.counters) {
    append_counter_event(os, options, c.name, pid_of(c.rank), c.t_s,
                         c.value, first);
  }
  os << "\n]\n";
  return os.str();
}

std::string render_timeline(const SpanTrace& trace, double t_end,
                            const TimelineOptions& options) {
  if (t_end <= 0.0) {
    for (const auto& s : trace.spans) t_end = std::max(t_end, s.end_s);
  }
  if (t_end <= 0.0) return "(empty timeline)\n";

  const std::vector<SpanRecord> leaves = leaf_spans(trace);
  std::ostringstream os;
  if (options.show_lane_per_stream) {
    std::map<std::string, std::vector<const SpanRecord*>> lanes;
    for (const auto& s : leaves) {
      lanes[track_name(trace, s.thread)].push_back(&s);
    }
    std::size_t width = 0;
    for (const auto& [name, spans] : lanes) {
      width = std::max(width, name.size());
    }
    for (const auto& [name, spans] : lanes) {
      os << name << std::string(width - name.size(), ' ') << " |"
         << paint_row(spans, t_end, options.columns) << "|\n";
    }
  } else {
    for (const auto& [kind, label] : kStreamRows) {
      std::vector<const SpanRecord*> spans;
      for (const auto& s : leaves) {
        if (s.kind == kind) spans.push_back(&s);
      }
      os << label << std::string(9 - std::strlen(label), ' ') << "|"
         << paint_row(spans, t_end, options.columns) << "|\n";
    }
  }
  const int pad = std::max(0, options.columns - 10);
  os << "          0" << std::string(static_cast<std::size_t>(pad), ' ')
     << util::format_time(t_end) << "\n";
  return os.str();
}

std::string summarize_busy(const SpanTrace& trace, double t_end) {
  std::ostringstream os;
  for (const auto& [kind, label] : kStreamRows) {
    const double busy = busy_time(trace, kind);
    os << label << ": " << util::format_time(busy) << " ("
       << util::format_fixed(100.0 * busy / t_end, 1) << "%)  ";
  }
  os << "\n";
  return os.str();
}

void write_text_file(const std::string& path, const std::string& text) {
  util::AtomicFile file(path);
  file.write(text);
  file.commit();
}

}  // namespace psdns::obs
