#pragma once
// Executes one JobRequest to completion inside the service process. A job
// is a self-contained supervised campaign: the runner spins up the job's
// rank group with comm::run_ranks, advances the requested step budget, and
// renders the outcome as the canonical result JSON the content-addressed
// store persists.
//
// Determinism contract: the result document is a pure function of the
// request's canonical form. It carries no wall-clock values, no service
// identifiers and no recovery counts, so a run that survived injected
// faults (the supervisor rolls back and replays deterministically) stores
// byte-identical results to a fault-free run of the same request.
//
// Every job, slab or pencil (ranks factored into the most square pr x pc
// grid), runs under run_campaign_supervised with a per-hash checkpoint
// chain in the service work directory (checkpointing every 2 steps, so a
// mid-job fault replays from the newest checkpoint instead of step 0).
// Any stale chain for the hash is removed first - run_campaign would
// otherwise resume from a finished run's checkpoint and overshoot the step
// budget.

#include <string>

#include "obs/span.hpp"
#include "svc/job.hpp"

namespace psdns::svc {

struct JobOutcome {
  std::string result_json;       // the stored/served result document
  int recoveries = 0;            // supervisor rollbacks
  int checkpoints_discarded = 0;
};

/// Runs `request` (validated by the caller) with scratch space under
/// `workdir` (created if missing). Throws on unrecoverable failure - an
/// exhausted recovery budget, an unserviceable request - and the scheduler
/// marks the job Failed with the message. When `flow` is non-zero each
/// rank thread opens an svc.run span consuming it, so with tracing on the
/// solver's driver.step spans hang off the scheduler's job journey (the
/// trace is unaffected when tracing is off - spans and flows are no-ops).
JobOutcome run_job(const JobRequest& request, const std::string& workdir,
                   obs::FlowId flow = 0);

}  // namespace psdns::svc
