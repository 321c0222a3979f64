#include "obs/critical_path.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace psdns::obs {

namespace {

// Priority-ordered attribution buckets; lower wins the segment.
enum Bucket { kCompute = 0, kComm = 1, kTransfer = 2, kOther = 3 };
constexpr int kBuckets = 4;

struct Interval {
  double start = 0.0;
  double end = 0.0;
  int bucket = kOther;
};

int bucket_of(SpanKind k) {
  switch (k) {
    case SpanKind::Compute:
      return kCompute;
    case SpanKind::Comm:
      return kComm;
    case SpanKind::Transfer:
      return kTransfer;
    case SpanKind::Io:
    case SpanKind::Other:
      return kOther;
  }
  return kOther;
}

/// Sweeps the elementary segments between interval boundaries, calling
/// visit(segment_length, active_count_per_bucket) for each.
template <class Visit>
void sweep(const std::vector<Interval>& intervals, const Visit& visit) {
  struct Event {
    double t;
    int bucket;
    int delta;
  };
  std::vector<Event> events;
  events.reserve(intervals.size() * 2);
  for (const auto& iv : intervals) {
    if (!(iv.end > iv.start)) continue;  // also drops NaNs
    events.push_back({iv.start, iv.bucket, +1});
    events.push_back({iv.end, iv.bucket, -1});
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.t < b.t; });
  int active[kBuckets] = {0, 0, 0, 0};
  std::size_t i = 0;
  while (i < events.size()) {
    const double t = events[i].t;
    while (i < events.size() && events[i].t == t) {
      active[events[i].bucket] += events[i].delta;
      ++i;
    }
    if (i < events.size()) visit(events[i].t - t, active);
  }
}

/// Overlap within one rank's intervals; returns the rank's achievable
/// overlap (min of its compute and traffic busy time) so the caller can
/// normalize the summed hidden time.
double overlap_accumulate(const std::vector<Interval>& intervals,
                          OverlapStats& s) {
  double compute_busy = 0.0, traffic_busy = 0.0;
  sweep(intervals, [&](double len, const int* active) {
    const bool compute = active[kCompute] > 0;
    const bool traffic = active[kComm] > 0 || active[kTransfer] > 0;
    if (compute) compute_busy += len;
    if (traffic) {
      traffic_busy += len;
      (compute ? s.hidden : s.exposed) += len;
    }
  });
  s.compute_busy += compute_busy;
  s.traffic_busy += traffic_busy;
  return std::min(compute_busy, traffic_busy);
}

PathAttribution attribute_from(const std::vector<Interval>& intervals) {
  PathAttribution a;
  sweep(intervals, [&](double len, const int* active) {
    a.total += len;
    if (active[kCompute] > 0) {
      a.compute += len;
    } else if (active[kComm] > 0) {
      a.comm += len;
    } else if (active[kTransfer] > 0) {
      a.transfer += len;
    } else if (active[kOther] > 0) {
      a.other += len;
    } else {
      a.idle += len;
    }
  });
  return a;
}

std::vector<Interval> to_intervals(const std::vector<SpanRecord>& spans) {
  std::vector<Interval> out;
  out.reserve(spans.size());
  for (const auto& s : spans) {
    out.push_back({s.start_s, s.end_s, bucket_of(s.kind)});
  }
  return out;
}

void add_chain_span(PathAttribution& a, const SpanRecord& s, double& cursor) {
  if (s.start_s > cursor) a.idle += s.start_s - cursor;
  const double seg = s.end_s - std::max(s.start_s, cursor);
  if (seg > 0.0) {
    switch (bucket_of(s.kind)) {
      case kCompute:
        a.compute += seg;
        break;
      case kComm:
        a.comm += seg;
        break;
      case kTransfer:
        a.transfer += seg;
        break;
      default:
        a.other += seg;
        break;
    }
  }
  cursor = std::max(cursor, s.end_s);
}

}  // namespace

std::vector<SpanRecord> leaf_spans(const SpanTrace& trace) {
  std::unordered_set<SpanId> parents;
  for (const auto& s : trace.spans) {
    if (s.parent != 0) parents.insert(s.parent);
  }
  std::vector<SpanRecord> out;
  for (const auto& s : trace.spans) {
    if (parents.count(s.id) == 0) out.push_back(s);
  }
  return out;
}

OverlapStats overlap_stats(const SpanTrace& trace) {
  std::map<int, std::vector<Interval>> per_rank;
  for (const auto& s : leaf_spans(trace)) {
    per_rank[s.rank].push_back({s.start_s, s.end_s, bucket_of(s.kind)});
  }
  OverlapStats stats;
  double achievable = 0.0;
  for (const auto& [rank, intervals] : per_rank) {
    (void)rank;
    achievable += overlap_accumulate(intervals, stats);
  }
  if (achievable > 0.0) stats.overlap_efficiency = stats.hidden / achievable;
  return stats;
}

PathAttribution attribute_wall_time(const SpanTrace& trace) {
  return attribute_from(to_intervals(leaf_spans(trace)));
}

double busy_time(const SpanTrace& trace, SpanKind kind) {
  // Zero-length spans contribute no busy time; dropping them here also
  // keeps them from seeding a bogus merge interval.
  std::vector<std::pair<double, double>> spans;
  for (const auto& s : leaf_spans(trace)) {
    if (s.kind == kind && s.end_s > s.start_s) {
      spans.emplace_back(s.start_s, s.end_s);
    }
  }
  if (spans.empty()) return 0.0;
  std::sort(spans.begin(), spans.end());
  // Sweep the sorted spans, merging overlapping AND back-to-back touching
  // intervals (s == cur_end) so shared endpoints are not double-counted.
  // No sentinel start value: the first span seeds the merge interval, so
  // spans at negative times are handled like any other.
  double busy = 0.0;
  double cur_start = spans.front().first;
  double cur_end = spans.front().second;
  for (const auto& [s, e] : spans) {
    if (s > cur_end) {
      busy += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  busy += cur_end - cur_start;
  return busy;
}

CriticalPath critical_path(const SpanTrace& trace) {
  CriticalPath result;
  std::vector<SpanRecord> leaves = leaf_spans(trace);
  if (leaves.empty()) return result;

  // Topological order: by (end, id). Lane edges always point forward in
  // this order; flow edges between concurrent spans (an all-to-all records
  // edges both ways between its ranks) are filtered to the same order, so
  // the DP below never sees a cycle.
  std::sort(leaves.begin(), leaves.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.end_s != b.end_s ? a.end_s < b.end_s : a.id < b.id;
            });
  std::unordered_map<SpanId, std::size_t> index;
  index.reserve(leaves.size());
  for (std::size_t i = 0; i < leaves.size(); ++i) index[leaves[i].id] = i;

  std::vector<std::vector<std::size_t>> preds(leaves.size());
  const auto ordered = [&](std::size_t a, std::size_t b) {
    return leaves[a].end_s != leaves[b].end_s
               ? leaves[a].end_s < leaves[b].end_s
               : leaves[a].id < leaves[b].id;
  };
  for (const auto& e : trace.edges) {
    const auto src = index.find(e.src);
    const auto dst = index.find(e.dst);
    if (src == index.end() || dst == index.end()) continue;
    if (ordered(src->second, dst->second)) {
      preds[dst->second].push_back(src->second);
    }
  }
  // Same-lane program order: the latest leaf on the same (thread, rank)
  // lane completing no later than this one starts.
  std::map<std::pair<int, int>, std::vector<std::size_t>> lanes;
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    lanes[{leaves[i].thread, leaves[i].rank}].push_back(i);
  }
  for (const auto& [lane, members] : lanes) {
    (void)lane;
    for (std::size_t k = 1; k < members.size(); ++k) {
      // members are end-sorted; walk back to the newest one finishing
      // before this span starts.
      for (std::size_t j = k; j-- > 0;) {
        if (leaves[members[j]].end_s <= leaves[members[k]].start_s) {
          preds[members[k]].push_back(members[j]);
          break;
        }
      }
    }
  }

  std::vector<double> value(leaves.size(), 0.0);
  std::vector<std::ptrdiff_t> back(leaves.size(), -1);
  std::size_t best = 0;
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    double best_pred = 0.0;
    for (const std::size_t p : preds[i]) {
      if (value[p] > best_pred) {
        best_pred = value[p];
        back[i] = static_cast<std::ptrdiff_t>(p);
      }
    }
    value[i] = leaves[i].duration() + best_pred;
    if (value[i] > value[best]) best = i;
  }

  for (std::ptrdiff_t i = static_cast<std::ptrdiff_t>(best); i >= 0;
       i = back[static_cast<std::size_t>(i)]) {
    result.spans.push_back(leaves[static_cast<std::size_t>(i)]);
  }
  std::reverse(result.spans.begin(), result.spans.end());
  result.path_seconds = value[best];

  double cursor = result.spans.front().start_s;
  for (const auto& s : result.spans) {
    add_chain_span(result.attribution, s, cursor);
  }
  result.attribution.total = cursor - result.spans.front().start_s;
  return result;
}

std::string to_string(const OverlapStats& s) {
  std::ostringstream os;
  os.precision(4);
  os << "overlap_efficiency=" << s.overlap_efficiency << " (hidden "
     << s.hidden << "s of " << s.traffic_busy << "s traffic, compute busy "
     << s.compute_busy << "s)";
  return os.str();
}

std::string to_string(const PathAttribution& a) {
  std::ostringstream os;
  os.precision(4);
  os << "total=" << a.total << "s: compute " << a.compute << "s, exposed comm "
     << a.comm << "s, exposed transfer " << a.transfer << "s, other "
     << a.other << "s, idle " << a.idle << "s";
  return os.str();
}

}  // namespace psdns::obs
