#include "obs/metric_series.hpp"

#include "util/check.hpp"
#include "util/file.hpp"

namespace psdns::obs {

SeriesRing::SeriesRing(std::size_t capacity) : capacity_(capacity) {
  PSDNS_REQUIRE(capacity_ > 0, "series ring capacity must be positive");
  rows_.reserve(capacity_);
}

void SeriesRing::push(ReducedSnapshot snap) {
  if (rows_.size() < capacity_) {
    rows_.push_back(std::move(snap));
  } else {
    rows_[head_] = std::move(snap);
    head_ = (head_ + 1) % capacity_;
  }
  ++pushed_;
}

const ReducedSnapshot& SeriesRing::at(std::size_t i) const {
  PSDNS_REQUIRE(i < rows_.size(), "series ring index out of range");
  return rows_[(head_ + i) % rows_.size()];
}

const ReducedSnapshot* SeriesRing::latest() const {
  if (rows_.empty()) return nullptr;
  return &rows_[(head_ + rows_.size() - 1) % rows_.size()];
}

std::vector<ReducedSnapshot> read_series_jsonl(const std::string& path) {
  std::vector<ReducedSnapshot> rows;
  util::read_lines(path, "telemetry series", [&](const std::string& line) {
    rows.push_back(ReducedSnapshot::parse(line));
  });
  return rows;
}

}  // namespace psdns::obs
