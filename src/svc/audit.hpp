#pragma once
// Structured job-lifecycle audit log for the campaign service: one JSONL
// line per lifecycle transition (submitted, admitted, rejected,
// cache_hit, scheduled, started, completed, failed, cancelled), keyed by
// the job's trace id so a journey can be joined against the span trace
// and the per-tenant SLO metrics. The scheduler appends each event's
// to_json() to a util::LineLog (flushed per event, so a killed daemon keeps
// every event; a failed write is logged and counted, never fatal), and
// read_audit_jsonl round-trips the file exactly.
//
// Replay determinism: replay_json() is the event minus its wall-clock
// timestamp. Trace ids are minted deterministically from (content hash,
// job id), and the scheduler emits events under its mutex in dispatch
// order, so two identical submission sequences against fresh services
// produce bitwise-identical replay documents - cache hits marked. That
// makes the audit log evidence (diffable across runs), not just a log.

#include <cstdint>
#include <string>
#include <vector>

namespace psdns::svc {

struct AuditEvent {
  std::int64_t seq = 0;   // per-log monotonic sequence number
  double t_s = 0.0;       // seconds since service start (wall clock)
  std::string event;      // lifecycle transition name (see header comment)
  std::int64_t job = -1;  // service job id; -1 when no record was created
  std::string trace;      // trace id (joins the span journey)
  std::string tenant;
  std::string hash;       // request content address
  bool cached = false;    // answered from the result store
  std::string detail;     // error text for rejected/failed, else ""

  /// One JSON object (single line, JSONL-ready).
  std::string to_json() const;

  /// Inverse of to_json(); throws util::Error on malformed input.
  static AuditEvent parse(const std::string& json);

  /// The deterministic replay form: to_json() without the "t_s" field.
  std::string replay_json() const;
};

/// Reads every row of an audit JSONL file (blank lines skipped). Throws
/// util::Error on open failure or a malformed row (naming the line).
std::vector<AuditEvent> read_audit_jsonl(const std::string& path);

/// The canonical replay document: one replay_json() line per event.
/// Bitwise-identical across identical submission sequences.
std::string audit_replay(const std::vector<AuditEvent>& events);

}  // namespace psdns::svc
