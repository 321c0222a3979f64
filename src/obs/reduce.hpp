#pragma once
// The per-step metrics row: one ReducedSnapshot built from one read of the
// process-wide registry plus the few values that genuinely differ per rank.
//
// Rank threads share one process and so one obs::registry(): every
// counter, gauge and histogram in it is already the process total. A row
// carries each of them once, as read (count 1, min_rank = max_rank = 0).
// Only per-rank keys - the driver's rank.steps and rank.step.wall_seconds -
// are reduced over ranks: sum/min/max/mean plus the rank holding the min
// and max, so stragglers are identified by name, not hunted through
// per-rank dumps. The campaign driver gathers those values to rank 0 as
// fixed-size blocks of doubles and builds the row there; rank 0 is its only
// reader (the live endpoint, the step-series JSONL, the campaign result).
// The campaign service renders its /metrics and /json from the same
// builder over its single process.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/registry.hpp"

namespace psdns::obs {

/// One metric reduced across ranks. min_rank/max_rank identify the
/// extreme ranks (ties resolve to the lowest rank); count is the number
/// of ranks that reported the key (1 for a process-wide metric).
struct ReducedValue {
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  int min_rank = -1;
  int max_rank = -1;
  int count = 0;
};

/// The per-step view: every process-wide counter and gauge as a
/// ReducedValue of one sample, every per-rank key reduced over the ranks,
/// and every histogram summary as the registry holds it.
struct ReducedSnapshot {
  std::int64_t step = -1;
  double time = 0.0;
  int ranks = 0;
  std::map<std::string, ReducedValue> counters;
  std::map<std::string, ReducedValue> gauges;
  std::map<std::string, HistogramSummary> histograms;
  // Health annotation stamped by the campaign driver (empty = health
  // monitoring off for this row).
  std::string health_verdict;
  std::vector<std::string> health_events;  // event codes fired this step

  /// One JSON object (single line, JSONL-ready):
  ///   {"step":N,"time":T,"ranks":R,
  ///    "counters":{name:{sum,min,max,mean,min_rank,max_rank,count}},
  ///    "gauges":{...},
  ///    "histograms":{name:{count,sum,min,max,p50,p95,p99}}
  ///    [,"health":{"verdict":v,"events":[...]}]}
  std::string to_json() const;

  /// Inverse of to_json(); throws util::Error on malformed input. Rows
  /// written before histograms were reduced (no "histograms" key) parse
  /// with an empty histogram map.
  static ReducedSnapshot parse(const std::string& json);

  /// Convenience lookups; nullptr when the key is absent.
  const ReducedValue* counter(const std::string& name) const;
  const ReducedValue* gauge(const std::string& name) const;
  const HistogramSummary* histogram(const std::string& name) const;
};

/// Per-rank values by key: values[r] is rank r's value.
using RankValues = std::map<std::string, std::vector<double>>;

/// The one builder of a ReducedSnapshot: `process` (one read of the
/// process-wide registry) appears once, and each per-rank key is reduced
/// over its values. `ranks` is the group size recorded in the row;
/// step/time are stamped by the caller.
ReducedSnapshot build_reduced(const MetricsSnapshot& process, int ranks = 1,
                              const RankValues& rank_counters = {},
                              const RankValues& rank_gauges = {});

}  // namespace psdns::obs
