#include "svc/job.hpp"

#include <sstream>

#include "dns/solver_config.hpp"
#include "obs/json.hpp"
#include "util/check.hpp"

namespace psdns::svc {

const char* to_string(DealiasMode m) {
  return m == DealiasMode::Truncation ? "truncation" : "phase_shift";
}

DealiasMode parse_dealias_mode(const std::string& name) {
  if (name == "truncation") return DealiasMode::Truncation;
  if (name == "phase_shift") return DealiasMode::PhaseShift;
  util::raise("unknown dealias mode \"" + name +
              "\" (truncation|phase_shift)");
}

const char* to_string(JobState state) {
  switch (state) {
    case JobState::Queued:    return "queued";
    case JobState::Running:   return "running";
    case JobState::Done:      return "done";
    case JobState::Failed:    return "failed";
    case JobState::Cancelled: return "cancelled";
  }
  return "unknown";
}

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

void JobRequest::validate() const {
  PSDNS_REQUIRE(!tenant.empty(), "job tenant must be non-empty");
  PSDNS_REQUIRE(tenant.size() <= 64, "job tenant name too long");
  for (const char c : tenant) {
    PSDNS_REQUIRE((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '_',
                  "job tenant must be [A-Za-z0-9_-]");
  }
  PSDNS_REQUIRE(n >= 8 && n <= 1024, "job n must be in [8, 1024]");
  PSDNS_REQUIRE(ranks >= 1 && ranks <= 64, "job ranks must be in [1, 64]");
  PSDNS_REQUIRE(scheme == "rk2" || scheme == "rk4",
                "job scheme must be rk2 or rk4");
  PSDNS_REQUIRE(viscosity > 0.0, "job viscosity must be positive");
  PSDNS_REQUIRE(steps >= 1 && steps <= 100000,
                "job steps must be in [1, 100000]");
  PSDNS_REQUIRE(!forcing || forcing_power > 0.0,
                "job forcing_power must be positive when forcing is on");
  PSDNS_REQUIRE(scalars >= 0 && scalars <= 4,
                "job scalars must be in [0, 4]");
  PSDNS_REQUIRE(cfl > 0.0 && max_dt > 0.0,
                "job cfl and max_dt must be positive");
  // Rejects unknown system names with the full expected list.
  const dns::SystemType sys = dns::parse_system_type(system);
  switch (sys) {
    case dns::SystemType::NavierStokes:
      break;
    case dns::SystemType::RotatingNS:
      PSDNS_REQUIRE(rotation_omega > 0.0,
                    "rotating job needs rotation_omega > 0");
      break;
    case dns::SystemType::Boussinesq:
      PSDNS_REQUIRE(brunt_vaisala > 0.0,
                    "boussinesq job needs brunt_vaisala > 0");
      break;
    case dns::SystemType::Mhd:
      PSDNS_REQUIRE(scalars == 0, "mhd job cannot carry passive scalars");
      PSDNS_REQUIRE(resistivity >= 0.0,
                    "mhd job resistivity must be >= 0 (0 means eta = nu)");
      break;
  }
  if (decomposition == transpose::Decomposition::Slab) {
    PSDNS_REQUIRE(n % static_cast<std::size_t>(ranks) == 0,
                  "slab job needs ranks dividing n");
  } else {
    // The pencil engine runs on the most square pr x pc grid; both factors
    // must divide the grid.
    const auto [pr, pc] = transpose::square_grid(ranks);
    PSDNS_REQUIRE(n % static_cast<std::size_t>(pr) == 0 &&
                      n % static_cast<std::size_t>(pc) == 0,
                  "pencil job needs the process-grid factors dividing n");
  }
}

std::string JobRequest::canonical() const {
  std::ostringstream os;
  os << "jobv1"
     << "|n=" << n
     << "|decomposition=" << to_string(decomposition)
     << "|ranks=" << ranks
     << "|scheme=" << scheme
     << "|viscosity=" << obs::json_number(viscosity)
     << "|seed=" << seed
     << "|steps=" << steps
     << "|dealias=" << to_string(dealias)
     << "|forcing=" << (forcing ? 1 : 0)
     << "|forcing_power=" << obs::json_number(forcing_power)
     << "|scalars=" << scalars
     << "|cfl=" << obs::json_number(cfl)
     << "|max_dt=" << obs::json_number(max_dt);
  // Appended only for non-default systems, with only the parameter that
  // system reads: every navier_stokes hash (and cached result) predating
  // pluggable systems stays valid, and irrelevant parameters cannot
  // fragment the cache.
  if (system != "navier_stokes") {
    os << "|system=" << system;
    if (system == "rotating") {
      os << "|rotation_omega=" << obs::json_number(rotation_omega);
    } else if (system == "boussinesq") {
      os << "|brunt_vaisala=" << obs::json_number(brunt_vaisala);
    } else if (system == "mhd") {
      os << "|resistivity=" << obs::json_number(resistivity);
    }
  }
  return os.str();
}

std::string JobRequest::hash() const {
  const std::uint64_t h = fnv1a64(canonical());
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 0; i < 16; ++i) {
    out[static_cast<std::size_t>(15 - i)] = digits[(h >> (4 * i)) & 0xF];
  }
  return out;
}

std::string JobRequest::to_json() const {
  std::ostringstream os;
  os << "{\"tenant\":" << obs::json_quote(tenant)
     << ",\"n\":" << n
     << ",\"decomposition\":\"" << to_string(decomposition) << "\""
     << ",\"ranks\":" << ranks
     << ",\"scheme\":\"" << scheme << "\""
     << ",\"viscosity\":" << obs::json_number(viscosity)
     << ",\"seed\":" << seed
     << ",\"steps\":" << steps
     << ",\"dealias\":\"" << to_string(dealias) << "\""
     << ",\"forcing\":" << (forcing ? "true" : "false")
     << ",\"forcing_power\":" << obs::json_number(forcing_power)
     << ",\"scalars\":" << scalars
     << ",\"cfl\":" << obs::json_number(cfl)
     << ",\"max_dt\":" << obs::json_number(max_dt)
     << ",\"system\":" << obs::json_quote(system)
     << ",\"rotation_omega\":" << obs::json_number(rotation_omega)
     << ",\"brunt_vaisala\":" << obs::json_number(brunt_vaisala)
     << ",\"resistivity\":" << obs::json_number(resistivity) << "}";
  return os.str();
}

namespace {

double number_field(const obs::JsonValue& v, const std::string& key) {
  PSDNS_REQUIRE(v.is_number(), "job field \"" + key + "\" must be a number");
  return v.number;
}

std::string string_field(const obs::JsonValue& v, const std::string& key) {
  PSDNS_REQUIRE(v.is_string(), "job field \"" + key + "\" must be a string");
  return v.string;
}

}  // namespace

JobRequest JobRequest::from_json(const std::string& text) {
  const obs::JsonValue doc = obs::json_parse(text);
  PSDNS_REQUIRE(doc.is_object(), "job request must be a JSON object");
  JobRequest req;
  for (const auto& [key, value] : doc.object) {
    if (key == "tenant") {
      req.tenant = string_field(value, key);
    } else if (key == "n") {
      req.n = static_cast<std::size_t>(number_field(value, key));
    } else if (key == "decomposition") {
      req.decomposition =
          transpose::parse_decomposition(string_field(value, key));
    } else if (key == "ranks") {
      req.ranks = static_cast<int>(number_field(value, key));
    } else if (key == "scheme") {
      req.scheme = string_field(value, key);
    } else if (key == "viscosity") {
      req.viscosity = number_field(value, key);
    } else if (key == "seed") {
      req.seed = static_cast<std::uint64_t>(number_field(value, key));
    } else if (key == "steps") {
      req.steps = static_cast<std::int64_t>(number_field(value, key));
    } else if (key == "dealias") {
      req.dealias = parse_dealias_mode(string_field(value, key));
    } else if (key == "forcing") {
      PSDNS_REQUIRE(value.is_bool(), "job field \"forcing\" must be a bool");
      req.forcing = value.boolean;
    } else if (key == "forcing_power") {
      req.forcing_power = number_field(value, key);
    } else if (key == "scalars") {
      req.scalars = static_cast<int>(number_field(value, key));
    } else if (key == "cfl") {
      req.cfl = number_field(value, key);
    } else if (key == "max_dt") {
      req.max_dt = number_field(value, key);
    } else if (key == "system") {
      req.system = string_field(value, key);
    } else if (key == "rotation_omega") {
      req.rotation_omega = number_field(value, key);
    } else if (key == "brunt_vaisala") {
      req.brunt_vaisala = number_field(value, key);
    } else if (key == "resistivity") {
      req.resistivity = number_field(value, key);
    } else {
      util::raise("unknown job request field \"" + key + "\"");
    }
  }
  return req;
}

JobRequest JobRequest::from_config(const util::Config& file) {
  JobRequest req;
  req.tenant = file.get("tenant", req.tenant);
  req.n = static_cast<std::size_t>(
      file.get_int("n", static_cast<std::int64_t>(req.n)));
  req.decomposition = transpose::parse_decomposition(
      file.get("decomposition", to_string(req.decomposition)));
  req.ranks = static_cast<int>(file.get_int("ranks", req.ranks));
  req.scheme = file.get("scheme", req.scheme);
  req.viscosity = file.get_double("viscosity", req.viscosity);
  req.seed = static_cast<std::uint64_t>(
      file.get_int("seed", static_cast<std::int64_t>(req.seed)));
  req.steps = file.get_int("steps", req.steps);
  req.dealias = parse_dealias_mode(file.get("dealias", to_string(req.dealias)));
  req.forcing = file.get_bool("forcing", req.forcing);
  req.forcing_power = file.get_double("forcing_power", req.forcing_power);
  req.scalars = static_cast<int>(file.get_int("scalars", req.scalars));
  req.cfl = file.get_double("cfl", req.cfl);
  req.max_dt = file.get_double("max_dt", req.max_dt);
  req.system = file.get("system", req.system);
  req.rotation_omega = file.get_double("rotation_omega", req.rotation_omega);
  req.brunt_vaisala = file.get_double("brunt_vaisala", req.brunt_vaisala);
  req.resistivity = file.get_double("resistivity", req.resistivity);
  const auto unused = file.unused_keys();
  if (!unused.empty()) {
    std::string msg = "unknown job config keys:";
    for (const auto& k : unused) msg += " " + k;
    util::raise(msg);
  }
  return req;
}

std::string JobRecord::to_json() const {
  std::ostringstream os;
  os << "{\"id\":" << id
     << ",\"hash\":" << obs::json_quote(hash)
     << ",\"trace\":" << obs::json_quote(trace)
     << ",\"state\":\"" << svc::to_string(state) << "\""
     << ",\"tenant\":" << obs::json_quote(request.tenant)
     << ",\"cached\":" << (cached ? "true" : "false")
     << ",\"dispatch_index\":" << dispatch_index
     << ",\"recoveries\":" << recoveries
     << ",\"checkpoints_discarded\":" << checkpoints_discarded
     << ",\"queued_s\":" << obs::json_number(queued_s)
     << ",\"started_s\":" << obs::json_number(started_s)
     << ",\"finished_s\":" << obs::json_number(finished_s)
     << ",\"error\":" << obs::json_quote(error)
     << ",\"request\":" << request.to_json() << "}";
  return os.str();
}

}  // namespace psdns::svc
