#pragma once
// The production main loop: initialize (or restart), advance with
// CFL-adaptive steps, emit periodic diagnostics and checkpoints, stop at a
// step or simulated-time budget. This is the glue every long-running DNS
// campaign wraps around the solver - declared here so examples and tests
// exercise the same code path production would.
//
// Two entry points:
//   run_campaign            - one segment; any failure propagates.
//   run_campaign_supervised - the self-recovering wrapper: a failed segment
//     is caught on every rank, the checkpoint chain is rolled back to the
//     newest file that passes verification, and the segment is replayed
//     from there. Because stepping and restart are deterministic, the
//     recovered run reaches the same final state as a fault-free one.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "comm/communicator.hpp"
#include "dns/spectral_core.hpp"
#include "io/series.hpp"
#include "obs/health.hpp"
#include "obs/reduce.hpp"
#include "util/config.hpp"

namespace psdns::driver {

struct CampaignConfig {
  dns::SolverConfig solver;
  // Initial condition (used when no restart checkpoint exists).
  std::uint64_t seed = 1;
  double k_peak = 3.0;
  double energy = 0.5;
  double b0 = 0.0;  // MHD: uniform mean field along z (Alfven units)
  // Stepping.
  std::int64_t max_steps = 100;
  double max_time = 1e30;       // stop at whichever budget hits first
  double cfl = 0.5;
  double max_dt = 0.02;
  // Cadences (steps; 0 disables).
  int diagnostics_every = 10;
  int checkpoint_every = 0;
  // Paths (empty disables the artifact).
  std::string checkpoint_path;  // also the restart source if it exists
  std::string series_path;
  std::string spectrum_path;    // written once at the end
  // Resilience knobs.
  int checkpoint_keep = 2;      // rotation depth (io::CheckpointOptions)
  int io_retries = 3;           // write-transaction retry budget
  // Telemetry plane (env wins over these: PSDNS_METRICS_PORT,
  // PSDNS_SERIES_FILE, PSDNS_HEALTH).
  int metrics_port = -1;        // -1 off, 0 ephemeral, >0 fixed (rank 0)
  std::string telemetry_path;   // reduced-snapshot JSONL (rank 0)
  obs::HealthConfig health;     // per-step invariant thresholds + mode
  // Whether run completion writes PSDNS_TRACE_FILE. An embedding process
  // that runs many campaigns in one trace (the campaign service) turns
  // this off and writes once, at its own end of life.
  bool write_trace_at_end = true;
  // Set by run_campaign_supervised so replayed segments report the
  // rollback count to the health monitor; not a config-file key.
  int recoveries_so_far = 0;

  /// Parses the "key = value" schema (n, viscosity, scheme, system,
  /// rotation_omega, brunt_vaisala, resistivity, b0, forcing.*, scalar.*,
  /// steps, cfl, checkpoint_keep, io_retries, ... - see
  /// driver/campaign.cpp). Throws on unknown keys.
  static CampaignConfig from(const util::Config& file);
};

/// Per-step observer (rank 0 only): step count, time, diagnostics.
using CampaignObserver =
    std::function<void(std::int64_t, double, const dns::Diagnostics&)>;

struct CampaignResult {
  std::int64_t steps_run = 0;  // steps executed in completed segments
  double final_time = 0.0;
  dns::Diagnostics final_diagnostics;
  std::vector<double> final_spectrum;  // shell spectrum of the final state
  bool restarted = false;  // resumed from an existing checkpoint
  // Supervisor bookkeeping (0 for plain run_campaign).
  int recoveries = 0;              // failed segments rolled back and replayed
  int checkpoints_discarded = 0;   // corrupt checkpoints dropped on rollback
  // Telemetry plane (rank 0; empty/0 when the plane was off).
  int metrics_port = 0;            // bound live-endpoint port
  obs::HealthReport health;        // final monitor state
  std::vector<obs::ReducedSnapshot> telemetry;  // ring of reduced rows
};

/// Runs one campaign segment on the calling rank group. Collective.
/// If cfg.checkpoint_path exists, the run resumes from it; otherwise the
/// isotropic initial condition is generated. The observer (optional) fires
/// on rank 0 at the diagnostics cadence.
CampaignResult run_campaign(comm::Communicator& comm,
                            const CampaignConfig& cfg,
                            const CampaignObserver& observer = nullptr);

struct SupervisorConfig {
  /// Failed segments tolerated before the last error is rethrown.
  int max_recoveries = 5;
};

/// Self-recovering campaign: like run_campaign, but a failing segment
/// (thrown fault, corrupt checkpoint, IO error) is caught collectively,
/// the checkpoint chain is rolled back to the newest verifiable file
/// (falling back to the initial condition when none survives), and the
/// remaining steps are replayed. The step budget is absolute: the
/// supervised campaign finishes at start_step + cfg.max_steps regardless
/// of how many recoveries happened. Recovery counts are surfaced in the
/// result and in the `resilience.recoveries` / `ckpt.discarded` counters.
///
/// Relies on faults striking every rank at the same logical point (see
/// resilience/fault.hpp) or being agreed collectively (checkpoint IO), so
/// all ranks unwind together and the group can synchronize for rollback.
CampaignResult run_campaign_supervised(comm::Communicator& comm,
                                       const CampaignConfig& cfg,
                                       const SupervisorConfig& sup = {},
                                       const CampaignObserver& observer =
                                           nullptr);

}  // namespace psdns::driver
