#include "resilience/fault.hpp"

#include <atomic>
#include <cstdlib>
#include <map>
#include <mutex>
#include <sstream>

#include "obs/log.hpp"
#include "obs/registry.hpp"

namespace psdns::resilience {

namespace {

struct Global {
  std::mutex mutex;
  FaultPlan plan;
  std::uint64_t generation = 0;  // bumped on every arm()
};

Global& global() {
  static Global g;
  return g;
}

// 0 = disarmed; otherwise the generation of the armed plan. Hooks read this
// without the mutex so the disarmed hot path costs one relaxed load.
std::atomic<std::uint64_t> g_armed_generation{0};

// Per-thread call counters and one-shot fired flags, lazily reset when the
// armed generation changes. Per-thread counting is what makes SPMD rank
// threads fire symmetrically (every rank's k-th call trips the same entry),
// so a thrown fault unwinds all ranks at the same collective point instead
// of deadlocking the barrier.
struct ThreadState {
  std::uint64_t generation = 0;
  std::map<std::string, std::int64_t> counts;
  std::vector<bool> fired;
};

thread_local ThreadState t_state;

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

FaultKind parse_kind(const std::string& name, const std::string& entry) {
  if (name == "throw") return FaultKind::Throw;
  if (name == "short_write" || name == "shortwrite") {
    return FaultKind::ShortWrite;
  }
  if (name == "bit_flip" || name == "bitflip") return FaultKind::BitFlip;
  util::raise("unknown fault kind '" + name + "' in plan entry '" + entry +
              "' (expected throw, short_write, or bit_flip)");
}

bool is_known_site(const std::string& s) {
  for (const auto& k : known_sites()) {
    if (k == s) return true;
  }
  return false;
}

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::Throw:
      return "throw";
    case FaultKind::ShortWrite:
      return "short_write";
    case FaultKind::BitFlip:
      return "bit_flip";
  }
  return "?";
}

const std::vector<std::string>& known_sites() {
  static const std::vector<std::string> sites = {
      site::comm_alltoall, site::ckpt_write, site::ckpt_read,
      site::gpu_memcpy2d, site::result_write};
  return sites;
}

FaultPlan FaultPlan::parse(const std::string& text) {
  FaultPlan plan;
  std::string entry;
  // Accept both ';' and ',' as separators by normalising first.
  std::string normalised = text;
  for (auto& c : normalised) {
    if (c == ',') c = ';';
  }
  std::stringstream in(normalised);
  while (std::getline(in, entry, ';')) {
    entry = trim(entry);
    if (entry.empty()) continue;
    const auto at = entry.find('@');
    const auto eq = entry.find('=', at == std::string::npos ? 0 : at);
    PSDNS_REQUIRE(at != std::string::npos && eq != std::string::npos &&
                      at > 0 && eq > at + 1 && eq + 1 < entry.size(),
                  "malformed fault plan entry '" + entry +
                      "' (expected site@call=kind)");
    FaultSpec spec;
    spec.site = trim(entry.substr(0, at));
    PSDNS_REQUIRE(is_known_site(spec.site),
                  "unknown fault injection site '" + spec.site +
                      "' in plan entry '" + entry + "'");
    const std::string index = trim(entry.substr(at + 1, eq - at - 1));
    try {
      std::size_t used = 0;
      spec.call = std::stoll(index, &used);
      PSDNS_REQUIRE(used == index.size() && spec.call >= 0,
                    "bad call index in plan entry '" + entry + "'");
    } catch (const std::logic_error&) {
      util::raise("bad call index '" + index + "' in plan entry '" + entry +
                  "'");
    }
    spec.kind = parse_kind(trim(entry.substr(eq + 1)), entry);
    plan.faults.push_back(std::move(spec));
  }
  return plan;
}

std::string FaultPlan::to_string() const {
  std::string out;
  for (const auto& f : faults) {
    if (!out.empty()) out += ";";
    out += f.site + "@" + std::to_string(f.call) + "=" +
           resilience::to_string(f.kind);
  }
  return out;
}

void arm(FaultPlan plan) {
  auto& g = global();
  std::lock_guard lock(g.mutex);
  g.plan = std::move(plan);
  ++g.generation;
  g_armed_generation.store(g.plan.empty() ? 0 : g.generation,
                           std::memory_order_release);
  if (!g.plan.empty()) {
    obs::log_event(obs::LogLevel::Info, "resilience", "fault plan armed",
                   {{"plan", g.plan.to_string()}});
  }
}

bool arm_from_env() {
  const char* text = std::getenv("PSDNS_FAULT_PLAN");
  if (text == nullptr || *text == '\0') return false;
  arm(FaultPlan::parse(text));
  return true;
}

void disarm() {
  auto& g = global();
  std::lock_guard lock(g.mutex);
  g.plan = FaultPlan{};
  ++g.generation;
  g_armed_generation.store(0, std::memory_order_release);
}

bool armed() {
  return g_armed_generation.load(std::memory_order_acquire) != 0;
}

std::optional<FaultKind> poll(const char* fault_site) {
  const std::uint64_t gen =
      g_armed_generation.load(std::memory_order_acquire);
  if (gen == 0) return std::nullopt;  // disarmed hot path

  auto& g = global();
  std::lock_guard lock(g.mutex);
  if (g.generation != gen || g.plan.empty()) return std::nullopt;
  if (t_state.generation != gen) {
    t_state.generation = gen;
    t_state.counts.clear();
    t_state.fired.assign(g.plan.faults.size(), false);
  }
  const std::int64_t index = t_state.counts[fault_site]++;
  for (std::size_t i = 0; i < g.plan.faults.size(); ++i) {
    const auto& spec = g.plan.faults[i];
    if (t_state.fired[i] || spec.site != fault_site || spec.call != index) {
      continue;
    }
    t_state.fired[i] = true;
    obs::registry().counter_add("fault.injected");
    obs::registry().counter_add(std::string("fault.injected.") + fault_site);
    obs::log_event(obs::LogLevel::Warn, "resilience", "fault injected",
                   {{"site", fault_site},
                    {"call", index},
                    {"kind", resilience::to_string(spec.kind)}});
    return spec.kind;
  }
  return std::nullopt;
}

void maybe_throw(const char* fault_site) {
  if (const auto kind = poll(fault_site)) {
    throw InjectedFault(fault_site, *kind);
  }
}

}  // namespace psdns::resilience
