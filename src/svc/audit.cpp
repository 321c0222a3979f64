#include "svc/audit.hpp"

#include <sstream>

#include "obs/json.hpp"
#include "util/check.hpp"
#include "util/file.hpp"

namespace psdns::svc {

namespace {

/// Shared body of to_json/replay_json; the wall-clock timestamp is the
/// only field the replay form omits.
std::string event_json(const AuditEvent& e, bool with_time) {
  std::ostringstream os;
  os << "{\"seq\":" << e.seq;
  if (with_time) os << ",\"t_s\":" << obs::json_number(e.t_s);
  os << ",\"event\":" << obs::json_quote(e.event);
  os << ",\"job\":" << e.job;
  os << ",\"trace\":" << obs::json_quote(e.trace);
  os << ",\"tenant\":" << obs::json_quote(e.tenant);
  os << ",\"hash\":" << obs::json_quote(e.hash);
  os << ",\"cached\":" << (e.cached ? "true" : "false");
  os << ",\"detail\":" << obs::json_quote(e.detail);
  os << "}";
  return os.str();
}

}  // namespace

std::string AuditEvent::to_json() const { return event_json(*this, true); }

std::string AuditEvent::replay_json() const {
  return event_json(*this, false);
}

AuditEvent AuditEvent::parse(const std::string& json) {
  const obs::JsonValue doc = obs::json_parse(json);
  PSDNS_REQUIRE(doc.is_object(), "audit event must be a JSON object");
  AuditEvent e;
  e.seq = static_cast<std::int64_t>(doc.at("seq").number);
  e.t_s = doc.at("t_s").number;
  e.event = doc.at("event").string;
  e.job = static_cast<std::int64_t>(doc.at("job").number);
  e.trace = doc.at("trace").string;
  e.tenant = doc.at("tenant").string;
  e.hash = doc.at("hash").string;
  e.cached = doc.at("cached").boolean;
  e.detail = doc.at("detail").string;
  return e;
}

std::vector<AuditEvent> read_audit_jsonl(const std::string& path) {
  std::vector<AuditEvent> out;
  util::read_lines(path, "audit", [&](const std::string& line) {
    out.push_back(AuditEvent::parse(line));
  });
  return out;
}

std::string audit_replay(const std::vector<AuditEvent>& events) {
  std::string out;
  for (const auto& e : events) {
    out += e.replay_json();
    out += '\n';
  }
  return out;
}

}  // namespace psdns::svc
