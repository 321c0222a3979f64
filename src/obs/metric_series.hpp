#pragma once
// Per-step time series of reduced snapshots: a bounded in-memory ring
// (what the live endpoint and a future online auto-tuner read) plus the
// JSONL reader (what offline tooling and psdns_top replay). The campaign
// driver appends one ReducedSnapshot::to_json() row per step to
// PSDNS_SERIES_FILE when set, through a util::LineLog (flushed per row, so
// a killed run keeps every row). The format round-trips exactly, which is
// what makes the series replayable evidence rather than a log.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/reduce.hpp"

namespace psdns::obs {

/// Fixed-capacity ring of the most recent reduced snapshots, oldest
/// first. Not thread-safe; the campaign driver owns it on rank 0.
class SeriesRing {
 public:
  explicit SeriesRing(std::size_t capacity = 1024);

  void push(ReducedSnapshot snap);

  std::size_t size() const { return rows_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::int64_t total_pushed() const { return pushed_; }
  std::int64_t dropped() const {
    return pushed_ - static_cast<std::int64_t>(rows_.size());
  }

  /// i in [0, size()), 0 = oldest retained row.
  const ReducedSnapshot& at(std::size_t i) const;
  /// nullptr while empty.
  const ReducedSnapshot* latest() const;

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;  // index of the oldest row once the ring is full
  std::int64_t pushed_ = 0;
  std::vector<ReducedSnapshot> rows_;
};

/// Reads every row of a series JSONL file (blank lines skipped). Throws
/// util::Error on open failure or a malformed row (naming the line).
std::vector<ReducedSnapshot> read_series_jsonl(const std::string& path);

}  // namespace psdns::obs
