#include "obs/trace_export.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>

#include "obs/json.hpp"
#include "util/file.hpp"

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
     << ",\"pid\":" << pid << ",\"tid\":" << tid;
  if (phase[0] == 'f') os << ",\"bp\":\"e\"";
  os << "}";
  first = false;
}

}  // namespace

const char* chrome_color(sim::OpCategory category) {
  // Stable chrome://tracing palette names, matching the paper's Fig.-4
  // scheme: transfers blue, compute green, network red.
  switch (category) {
    case sim::OpCategory::H2D:
      return "thread_state_iowait";  // blue
    case sim::OpCategory::D2H:
      return "thread_state_sleeping";  // light blue-grey
    case sim::OpCategory::Compute:
      return "thread_state_running";  // green
    case sim::OpCategory::Unpack:
      return "thread_state_runnable";  // teal
    case sim::OpCategory::Mpi:
      return "terrible";  // red
    case sim::OpCategory::Cpu:
      return "good";  // dark green
    case sim::OpCategory::Wait:
      return "grey";
    case sim::OpCategory::Other:
      return "generic_work";
  }
  return "generic_work";
}

std::string to_chrome_trace(const std::vector<sim::OpRecord>& records,
                            const ChromeTraceOptions& options) {
  // Lane -> tid in order of first appearance, so related streams of one
  // rank stay adjacent in the viewer.
  std::map<std::string, int> lane_tid;
  std::vector<const std::string*> lane_order;
  for (const auto& r : records) {
    if (lane_tid.emplace(r.lane, static_cast<int>(lane_tid.size())).second) {
      lane_order.push_back(&r.lane);
    }
  }

  std::ostringstream os;
  os << "[\n";
  bool first = true;
  append_metadata(os, options.pid, "process_name", 0, options.process_name,
                  first);
  for (const std::string* lane : lane_order) {
    append_metadata(os, options.pid, "thread_name", lane_tid[*lane], *lane,
                    first);
  }
  for (const auto& r : records) {
    append_complete_event(os, options, r.label, sim::to_string(r.category),
                          chrome_color(r.category), options.pid,
                          lane_tid[r.lane], r.start, r.duration(), first);
  }
  os << "\n]\n";
  return os.str();
}

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
                      "thread " + std::to_string(tid), first);
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

void write_text_file(const std::string& path, const std::string& text) {
  util::AtomicFile file(path);
  file.write(text);
  file.commit();
}

}  // namespace psdns::obs
