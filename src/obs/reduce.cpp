#include "obs/reduce.hpp"

#include <sstream>

#include "obs/json.hpp"
#include "util/check.hpp"

namespace psdns::obs {

namespace {

/// Folds one value per rank (index = rank); ties resolve to the lowest
/// rank.
ReducedValue reduce_over_ranks(const std::vector<double>& values) {
  ReducedValue v;
  for (std::size_t r = 0; r < values.size(); ++r) {
    const double value = values[r];
    const int rank = static_cast<int>(r);
    if (r == 0 || value < v.min) {
      v.min = value;
      v.min_rank = rank;
    }
    if (r == 0 || value > v.max) {
      v.max = value;
      v.max_rank = rank;
    }
    v.sum += value;
  }
  v.count = static_cast<int>(values.size());
  v.mean = v.count > 0 ? v.sum / v.count : 0.0;
  return v;
}

/// A process-wide value: one sample, read by rank 0.
ReducedValue once(double value) {
  return ReducedValue{value, value, value, value, 0, 0, 1};
}

void write_reduced_map(std::ostringstream& os, const char* section,
                       const std::map<std::string, ReducedValue>& map) {
  os << json_quote(section) << ":{";
  bool first = true;
  for (const auto& [key, v] : map) {
    if (!first) os << ",";
    first = false;
    os << json_quote(key) << ":{\"sum\":" << json_number(v.sum)
       << ",\"min\":" << json_number(v.min)
       << ",\"max\":" << json_number(v.max)
       << ",\"mean\":" << json_number(v.mean)
       << ",\"min_rank\":" << v.min_rank << ",\"max_rank\":" << v.max_rank
       << ",\"count\":" << v.count << "}";
  }
  os << "}";
}

void write_histogram_map(std::ostringstream& os,
                         const std::map<std::string, HistogramSummary>& map) {
  os << "\"histograms\":{";
  bool first = true;
  for (const auto& [key, h] : map) {
    if (!first) os << ",";
    first = false;
    os << json_quote(key) << ":{\"count\":" << h.count
       << ",\"sum\":" << json_number(h.sum)
       << ",\"min\":" << json_number(h.min)
       << ",\"max\":" << json_number(h.max)
       << ",\"p50\":" << json_number(h.p50)
       << ",\"p95\":" << json_number(h.p95)
       << ",\"p99\":" << json_number(h.p99) << "}";
  }
  os << "}";
}

HistogramSummary parse_histogram(const JsonValue& val) {
  HistogramSummary h;
  h.count = static_cast<std::int64_t>(val.at("count").number);
  h.sum = val.at("sum").number;
  h.min = val.at("min").number;
  h.max = val.at("max").number;
  h.p50 = val.at("p50").number;
  h.p95 = val.at("p95").number;
  h.p99 = val.at("p99").number;
  return h;
}

std::map<std::string, ReducedValue> parse_reduced_map(const JsonValue& obj) {
  std::map<std::string, ReducedValue> out;
  for (const auto& [key, val] : obj.object) {
    ReducedValue v;
    v.sum = val.at("sum").number;
    v.min = val.at("min").number;
    v.max = val.at("max").number;
    v.mean = val.at("mean").number;
    v.min_rank = static_cast<int>(val.at("min_rank").number);
    v.max_rank = static_cast<int>(val.at("max_rank").number);
    v.count = static_cast<int>(val.at("count").number);
    out.emplace(key, v);
  }
  return out;
}

}  // namespace

std::string ReducedSnapshot::to_json() const {
  std::ostringstream os;
  os << "{\"step\":" << step << ",\"time\":" << json_number(time)
     << ",\"ranks\":" << ranks << ",";
  write_reduced_map(os, "counters", counters);
  os << ",";
  write_reduced_map(os, "gauges", gauges);
  os << ",";
  write_histogram_map(os, histograms);
  if (!health_verdict.empty()) {
    os << ",\"health\":{\"verdict\":" << json_quote(health_verdict)
       << ",\"events\":[";
    for (std::size_t i = 0; i < health_events.size(); ++i) {
      os << (i == 0 ? "" : ",") << json_quote(health_events[i]);
    }
    os << "]}";
  }
  os << "}";
  return os.str();
}

ReducedSnapshot ReducedSnapshot::parse(const std::string& json) {
  const JsonValue doc = json_parse(json);
  PSDNS_REQUIRE(doc.is_object(), "reduced snapshot is not a JSON object");
  ReducedSnapshot snap;
  snap.step = static_cast<std::int64_t>(doc.at("step").number);
  snap.time = doc.at("time").number;
  snap.ranks = static_cast<int>(doc.at("ranks").number);
  snap.counters = parse_reduced_map(doc.at("counters"));
  snap.gauges = parse_reduced_map(doc.at("gauges"));
  if (doc.has("histograms")) {
    for (const auto& [key, val] : doc.at("histograms").object) {
      snap.histograms.emplace(key, parse_histogram(val));
    }
  }
  if (doc.has("health")) {
    const JsonValue& h = doc.at("health");
    snap.health_verdict = h.at("verdict").string;
    for (const auto& e : h.at("events").array) {
      snap.health_events.push_back(e.string);
    }
  }
  return snap;
}

const ReducedValue* ReducedSnapshot::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? nullptr : &it->second;
}

const ReducedValue* ReducedSnapshot::gauge(const std::string& name) const {
  const auto it = gauges.find(name);
  return it == gauges.end() ? nullptr : &it->second;
}

const HistogramSummary* ReducedSnapshot::histogram(
    const std::string& name) const {
  const auto it = histograms.find(name);
  return it == histograms.end() ? nullptr : &it->second;
}

ReducedSnapshot build_reduced(const MetricsSnapshot& process, int ranks,
                              const RankValues& rank_counters,
                              const RankValues& rank_gauges) {
  ReducedSnapshot out;
  out.ranks = ranks;
  for (const auto& [key, value] : process.counters) {
    out.counters[key] = once(static_cast<double>(value));
  }
  for (const auto& [key, value] : process.gauges) out.gauges[key] = once(value);
  out.histograms = process.histograms;
  for (const auto& [key, values] : rank_counters) {
    out.counters[key] = reduce_over_ranks(values);
  }
  for (const auto& [key, values] : rank_gauges) {
    out.gauges[key] = reduce_over_ranks(values);
  }
  return out;
}

}  // namespace psdns::obs
