#include "obs/registry.hpp"

#include <algorithm>
#include <atomic>
#include <sstream>

#include "obs/json.hpp"
#include "util/check.hpp"

namespace psdns::obs {

void Registry::counter_add(std::string_view name, std::int64_t delta) {
  std::lock_guard lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), 0).first;
  }
  it->second += delta;
}

std::int64_t Registry::counter(std::string_view name) const {
  std::lock_guard lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

void Registry::gauge_set(std::string_view name, double value) {
  std::lock_guard lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), 0.0).first;
  }
  it->second = value;
}

double Registry::gauge(std::string_view name) const {
  std::lock_guard lock(mutex_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

void Registry::declare_histogram(std::string_view name,
                                 std::vector<double> bounds) {
  PSDNS_REQUIRE(!bounds.empty(), "histogram needs at least one bound");
  PSDNS_REQUIRE(std::is_sorted(bounds.begin(), bounds.end()),
                "histogram bounds must ascend");
  std::lock_guard lock(mutex_);
  PSDNS_REQUIRE(histograms_.find(name) == histograms_.end(),
                "histogram already declared: " + std::string(name));
  Histogram h;
  h.buckets.assign(bounds.size() + 1, 0);
  h.bounds = std::move(bounds);
  h.samples.reserve(kExactSampleCap);
  histograms_.emplace(std::string(name), std::move(h));
}

void Registry::observe(std::string_view name, double value) {
  std::lock_guard lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    Histogram h;
    h.bounds = default_bounds();
    h.buckets.assign(h.bounds.size() + 1, 0);
    h.samples.reserve(kExactSampleCap);
    it = histograms_.emplace(std::string(name), std::move(h)).first;
  }
  Histogram& h = it->second;
  const auto bucket = static_cast<std::size_t>(
      std::lower_bound(h.bounds.begin(), h.bounds.end(), value) -
      h.bounds.begin());
  ++h.buckets[bucket];
  if (h.count == 0) {
    h.min = h.max = value;
  } else {
    h.min = std::min(h.min, value);
    h.max = std::max(h.max, value);
  }
  if (h.samples.size() < kExactSampleCap) h.samples.push_back(value);
  ++h.count;
  h.sum += value;
}

HistogramSummary Registry::summarize(const Histogram& h) const {
  HistogramSummary s;
  s.count = h.count;
  s.sum = h.sum;
  s.min = h.min;
  s.max = h.max;
  if (h.count == 0) return s;

  if (h.count <= static_cast<std::int64_t>(h.samples.size())) {
    // Every observation is still in the reservoir: report exact
    // percentiles by linear interpolation between the closest ranks of
    // the sorted samples (rank p/100 * (count-1); numpy default / R-7).
    std::vector<double> sorted = h.samples;
    std::sort(sorted.begin(), sorted.end());
    const auto exact = [&](double p) {
      const double rank =
          p / 100.0 * static_cast<double>(sorted.size() - 1);
      const auto lo = static_cast<std::size_t>(rank);
      const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
      const double frac = rank - static_cast<double>(lo);
      return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
    };
    s.p50 = exact(50.0);
    s.p95 = exact(95.0);
    s.p99 = exact(99.0);
    return s;
  }

  const auto percentile = [&](double p) {
    const double target = p / 100.0 * static_cast<double>(h.count);
    std::int64_t seen = 0;
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (h.buckets[b] == 0) continue;
      const auto next = seen + h.buckets[b];
      if (static_cast<double>(next) >= target) {
        // Linear interpolation inside the bucket, clamped to the observed
        // range so single-bucket histograms report sane values.
        const double lo =
            b == 0 ? h.min : std::max(h.min, h.bounds[b - 1]);
        const double hi =
            b < h.bounds.size() ? std::min(h.max, h.bounds[b]) : h.max;
        const double frac =
            (target - static_cast<double>(seen)) /
            static_cast<double>(h.buckets[b]);
        return std::clamp(lo + (hi - lo) * frac, h.min, h.max);
      }
      seen = next;
    }
    return h.max;
  };
  s.p50 = percentile(50.0);
  s.p95 = percentile(95.0);
  s.p99 = percentile(99.0);
  return s;
}

HistogramSummary Registry::histogram(std::string_view name) const {
  std::lock_guard lock(mutex_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? HistogramSummary{} : summarize(it->second);
}

MetricsSnapshot Registry::snapshot() const {
  std::lock_guard lock(mutex_);
  MetricsSnapshot snap;
  snap.counters.insert(counters_.begin(), counters_.end());
  snap.gauges.insert(gauges_.begin(), gauges_.end());
  for (const auto& [name, h] : histograms_) {
    snap.histograms[name] = summarize(h);
  }
  return snap;
}

std::string Registry::to_json() const {
  const MetricsSnapshot snap = snapshot();
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : snap.counters) {
    os << (first ? "" : ",") << json_quote(name) << ":" << v;
    first = false;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : snap.gauges) {
    os << (first ? "" : ",") << json_quote(name) << ":" << json_number(v);
    first = false;
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    os << (first ? "" : ",") << json_quote(name) << ":{\"count\":" << h.count
       << ",\"sum\":" << json_number(h.sum)
       << ",\"min\":" << json_number(h.min)
       << ",\"max\":" << json_number(h.max)
       << ",\"p50\":" << json_number(h.p50)
       << ",\"p95\":" << json_number(h.p95)
       << ",\"p99\":" << json_number(h.p99) << "}";
    first = false;
  }
  os << "}}";
  return os.str();
}

void Registry::reset() {
  std::lock_guard lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

std::vector<double> Registry::default_bounds() {
  // 1 us .. 1000 s, four buckets per decade.
  std::vector<double> bounds;
  for (double decade = 1e-6; decade < 1.5e3; decade *= 10.0) {
    for (const double m : {1.0, 2.0, 4.0, 7.0}) {
      bounds.push_back(decade * m);
    }
  }
  return bounds;
}

Registry& registry() {
  static Registry instance;
  return instance;
}

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int mine = next.fetch_add(1);
  return mine;
}

}  // namespace psdns::obs
