#pragma once
// Deterministic, seeded fault injection: the drill harness that proves the
// recovery machinery (hardened checkpoints, retry policies, the campaign
// supervisor) actually works. Production runs on Summit-class machines see
// node failures and job kills as routine events; reproducing them on demand
// is the only way to test the reaction paths.
//
// A *fault plan* is a list of (site, call-index, kind) triples armed process
// wide, either programmatically or from the PSDNS_FAULT_PLAN environment
// variable:
//
//   PSDNS_FAULT_PLAN="comm.alltoall@12=throw;io.ckpt.write@0=short_write"
//
// Sites are fixed names compiled into the hooked subsystems (see
// known_sites()). The call index is 0-based and counted PER THREAD: in the
// SPMD communicator every rank thread executes the same call sequence, so a
// plan entry fires on every rank at the same logical point - which is
// exactly what keeps collectives from deadlocking when the fault is thrown.
// Each plan entry fires at most once per thread (one-shot), so a recovered
// replay does not re-trip the same fault.
//
// Fault kinds:
//   throw       - the hook throws InjectedFault.
//   short_write - IO sites produce a truncated artifact / read; data-movement
//                 sites copy fewer elements than asked (silent truncation).
//   bit_flip    - flips one bit of the payload (silent corruption; detected
//                 downstream by the checkpoint and result-store CRCs).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace psdns::resilience {

enum class FaultKind { Throw, ShortWrite, BitFlip };

const char* to_string(FaultKind kind);

/// Injection-site names (the registry every hook and plan entry refers to).
namespace site {
inline constexpr const char* comm_alltoall = "comm.alltoall";
inline constexpr const char* ckpt_write = "io.ckpt.write";
inline constexpr const char* ckpt_read = "io.ckpt.read";
inline constexpr const char* gpu_memcpy2d = "gpu.memcpy2d";
inline constexpr const char* result_write = "svc.result.write";  // per try
}  // namespace site

/// All site names a plan may reference, in a stable order.
const std::vector<std::string>& known_sites();

struct FaultSpec {
  std::string site;
  std::int64_t call = 0;  // 0-based per-thread call index at which to fire
  FaultKind kind = FaultKind::Throw;
};

struct FaultPlan {
  std::vector<FaultSpec> faults;

  bool empty() const { return faults.empty(); }

  /// Parses "site@call=kind[;site@call=kind...]" (',' also separates
  /// entries; whitespace around tokens is ignored; the empty string is the
  /// empty plan). Unknown sites, kinds, or malformed entries throw
  /// util::Error - a typo'd drill must not silently run fault-free.
  static FaultPlan parse(const std::string& text);

  /// Round-trips through parse().
  std::string to_string() const;
};

/// Thrown by hooks when a plan entry of kind `throw` fires.
class InjectedFault : public util::Error {
 public:
  InjectedFault(std::string fault_site, FaultKind kind,
                std::source_location loc = std::source_location::current())
      : util::Error("injected fault at site " + fault_site + " (" +
                        resilience::to_string(kind) + ")",
                    loc),
        site_(std::move(fault_site)),
        kind_(kind) {}

  const std::string& site() const { return site_; }
  FaultKind kind() const { return kind_; }

 private:
  std::string site_;
  FaultKind kind_;
};

/// Arms `plan` process-wide, resetting every thread's call counters and
/// one-shot state. An empty plan is equivalent to disarm().
void arm(FaultPlan plan);

/// Arms the plan in PSDNS_FAULT_PLAN if the variable is set (throws on a
/// malformed value); no-op otherwise. Returns true when a plan was armed.
bool arm_from_env();

void disarm();
bool armed();

/// Called by subsystem hooks: counts one call of `site` on this thread and
/// returns the fault kind if an armed entry fires at this index. Cheap
/// (one relaxed atomic load) while disarmed. Increments the
/// `fault.injected` and `fault.injected.<site>` counters when firing.
std::optional<FaultKind> poll(const char* fault_site);

/// poll(); any firing kind throws InjectedFault. For sites where partial or
/// corrupt completion has no meaningful functional model.
void maybe_throw(const char* fault_site);

/// RAII plan for tests and drills: arms on construction, disarms on scope
/// exit.
class ScopedPlan {
 public:
  explicit ScopedPlan(const std::string& text) { arm(FaultPlan::parse(text)); }
  explicit ScopedPlan(FaultPlan plan) { arm(std::move(plan)); }
  ~ScopedPlan() { disarm(); }
  ScopedPlan(const ScopedPlan&) = delete;
  ScopedPlan& operator=(const ScopedPlan&) = delete;
};

}  // namespace psdns::resilience
