// Production restart workflow, in two acts.
//
// Part 1: run a segment, checkpoint, "lose the allocation", restart on a
// DIFFERENT rank count, and verify the continued run matches an
// uninterrupted reference. Also writes the statistics time series and a
// spectrum snapshot as CSV - the artifacts a real campaign archives after
// every segment.
//
// Part 2: the fault drill. A supervised campaign is run under an injected
// fault plan (one fault per site: a thrown collective, a thrown device
// copy, a short checkpoint write, a bit-flipped restart read) PLUS a
// simulated node death mid-checkpoint-write between allocations (garbage
// "<ckp>.tmp" left behind, newest checkpoint corrupted on disk). The
// supervisor must retry, roll back, and still land bit-for-bit on the
// fault-free campaign's final checkpoint.
//
//   ./restart_workflow [--n=32] [--segment=10]
//   PSDNS_FAULT_PLAN="site@call=kind;..." ./restart_workflow   # custom drill

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "comm/communicator.hpp"
#include "dns/spectral_core.hpp"
#include "driver/campaign.hpp"
#include "io/checkpoint.hpp"
#include "io/series.hpp"
#include "obs/registry.hpp"
#include "resilience/fault.hpp"
#include "util/cli.hpp"

namespace {

void remove_chain(const std::string& ckp) {
  for (int k = 0; k < 8; ++k) {
    std::remove(psdns::io::rotated_checkpoint_name(ckp, k).c_str());
  }
  std::remove((ckp + ".tmp").c_str());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Two scheduler allocations of `steps` supervised steps each.
psdns::driver::CampaignResult two_allocations(
    const psdns::driver::CampaignConfig& cfg, int* recoveries,
    int* discarded) {
  psdns::driver::CampaignResult last;
  for (int alloc = 0; alloc < 2; ++alloc) {
    psdns::comm::run_ranks(2, [&](psdns::comm::Communicator& comm) {
      const auto r = psdns::driver::run_campaign_supervised(comm, cfg);
      if (comm.rank() == 0) {
        last = r;
        *recoveries += r.recoveries;
        *discarded += r.checkpoints_discarded;
      }
    });
  }
  return last;
}

/// The drill: clean reference campaign vs. the same campaign under the
/// fault plan plus a simulated crash mid-checkpoint-write between the two
/// allocations. Returns true when the faulted run converges to the clean
/// one exactly.
bool fault_drill(std::size_t n) {
  using namespace psdns;
  const auto dir = std::filesystem::temp_directory_path();
  const std::string clean_ckp = (dir / "psdns_drill_clean.ckp").string();
  const std::string faulted_ckp = (dir / "psdns_drill_faulted.ckp").string();
  remove_chain(clean_ckp);
  remove_chain(faulted_ckp);

  driver::CampaignConfig cfg;
  cfg.solver.n = n;
  cfg.solver.viscosity = 0.01;
  cfg.seed = 42;
  cfg.max_steps = 4;
  cfg.max_dt = 0.01;
  cfg.diagnostics_every = 0;
  cfg.checkpoint_every = 2;
  cfg.checkpoint_keep = 2;

  cfg.checkpoint_path = clean_ckp;
  int clean_rec = 0, clean_disc = 0;
  const auto clean = two_allocations(cfg, &clean_rec, &clean_disc);

  // One fault per injection site unless the operator supplied a plan.
  // (comm/gpu faults must be `throw` here: a bit_flip on a collective is
  // silent state corruption, which no amount of rollback can undo without
  // a checksum on the physics itself.)
  const char* env = std::getenv("PSDNS_FAULT_PLAN");
  const std::string plan =
      env != nullptr ? env
                     : "comm.alltoall@6=throw;gpu.memcpy2d@9=throw;"
                       "io.ckpt.write@0=short_write;io.ckpt.read@2=bit_flip";
  std::printf("  fault plan: %s\n", plan.c_str());

  auto& reg = obs::registry();
  const auto injected0 = reg.counter("fault.injected");
  const auto retries0 = reg.counter("resilience.retries");
  const auto recovered0 = reg.counter("resilience.recoveries");
  const auto discarded0 = reg.counter("ckpt.discarded");
  const auto crc0 = reg.counter("ckpt.crc_failures");

  cfg.checkpoint_path = faulted_ckp;
  int rec = 0, disc = 0;
  resilience::arm(resilience::FaultPlan::parse(plan));
  psdns::comm::run_ranks(2, [&](psdns::comm::Communicator& comm) {
    driver::run_campaign_supervised(comm, cfg);
  });
  // The node "dies" replacing the checkpoint between allocations: a partial
  // tmp file survives and the newest checkpoint is torn on disk.
  {
    std::FILE* tmp = std::fopen((faulted_ckp + ".tmp").c_str(), "wb");
    std::fputs("torn write from the dead allocation", tmp);
    std::fclose(tmp);
    std::FILE* f = std::fopen(faulted_ckp.c_str(), "r+b");
    std::fseek(f, 99, SEEK_SET);
    const int c = std::fgetc(f);
    std::fseek(f, 99, SEEK_SET);
    std::fputc(c ^ 0x01, f);
    std::fclose(f);
  }
  driver::CampaignResult faulted;
  psdns::comm::run_ranks(2, [&](psdns::comm::Communicator& comm) {
    const auto r = driver::run_campaign_supervised(comm, cfg);
    if (comm.rank() == 0) {
      faulted = r;
      rec += r.recoveries;
      disc += r.checkpoints_discarded;
    }
  });
  resilience::disarm();

  std::printf("  injected=%lld retried=%lld recoveries=%lld "
              "ckpts discarded=%lld crc failures=%lld\n",
              static_cast<long long>(reg.counter("fault.injected") -
                                     injected0),
              static_cast<long long>(reg.counter("resilience.retries") -
                                     retries0),
              static_cast<long long>(reg.counter("resilience.recoveries") -
                                     recovered0),
              static_cast<long long>(reg.counter("ckpt.discarded") -
                                     discarded0),
              static_cast<long long>(reg.counter("ckpt.crc_failures") -
                                     crc0));

  const auto clean_info = io::verify_checkpoint(clean_ckp);
  const auto faulted_info = io::verify_checkpoint(faulted_ckp);
  const bool same_step = faulted_info.step == clean_info.step;
  const bool same_bytes = read_file(faulted_ckp) == read_file(clean_ckp);
  const bool same_energy =
      faulted.final_diagnostics.energy == clean.final_diagnostics.energy;
  std::printf("  final step %lld vs %lld; checkpoint bytes %s; E=%.12f %s\n",
              static_cast<long long>(faulted_info.step),
              static_cast<long long>(clean_info.step),
              same_bytes ? "identical" : "DIFFER",
              faulted.final_diagnostics.energy,
              same_energy ? "(matches clean)" : "(DIVERGED)");
  remove_chain(clean_ckp);
  remove_chain(faulted_ckp);
  return same_step && same_bytes && same_energy && rec + disc > 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace psdns;
  const util::Cli cli(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int("n", 32));
  const int segment = static_cast<int>(cli.get_int("segment", 10));
  const double dt = 0.01;

  const auto dir = std::filesystem::temp_directory_path();
  const std::string ckp = (dir / "psdns_demo.ckp").string();
  const std::string series = (dir / "psdns_demo_series.csv").string();
  const std::string spectrum = (dir / "psdns_demo_spectrum.csv").string();

  dns::SolverConfig cfg;
  cfg.n = n;
  cfg.viscosity = 0.01;

  std::printf("Segment 1: %d steps on 4 ranks, then checkpoint\n", segment);
  comm::run_ranks(4, [&](comm::Communicator& comm) {
    dns::SpectralEngine solver(comm, cfg);
    solver.init_isotropic(42, 3.0, 0.5);
    std::unique_ptr<io::SeriesWriter> log;
    if (comm.rank() == 0) log = std::make_unique<io::SeriesWriter>(series);
    for (int s = 0; s < segment; ++s) {
      solver.step(dt);
      const auto d = solver.diagnostics();
      if (comm.rank() == 0) log->append(solver.step_count(), solver.time(), d);
    }
    io::save_checkpoint(ckp, solver);
    const auto d = solver.diagnostics();
    if (comm.rank() == 0) {
      std::printf("  checkpoint at t=%.3f, E=%.6f -> %s\n", solver.time(),
                  d.energy, ckp.c_str());
    }
  });

  const auto info = io::peek_checkpoint(ckp);
  std::printf("\nheader: N=%llu, t=%.3f, step=%lld, nu=%g\n\n",
              static_cast<unsigned long long>(info.n), info.time,
              static_cast<long long>(info.step), info.viscosity);

  std::printf("Segment 2: restart on 2 ranks (different allocation), %d more"
              " steps\n", segment);
  double restarted_energy = 0.0;
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    dns::SpectralEngine solver(comm, cfg);
    io::load_checkpoint(ckp, solver);
    for (int s = 0; s < segment; ++s) solver.step(dt);
    auto spec = solver.spectrum();
    const auto d = solver.diagnostics();
    if (comm.rank() == 0) {
      restarted_energy = d.energy;
      io::write_spectrum_csv(spectrum, spec);
      std::printf("  finished at t=%.3f, E=%.6f; spectrum -> %s\n",
                  solver.time(), d.energy, spectrum.c_str());
    }
  });

  std::printf("\nReference: %d uninterrupted steps on 4 ranks\n", 2 * segment);
  double reference_energy = 0.0;
  comm::run_ranks(4, [&](comm::Communicator& comm) {
    dns::SpectralEngine solver(comm, cfg);
    solver.init_isotropic(42, 3.0, 0.5);
    for (int s = 0; s < 2 * segment; ++s) solver.step(dt);
    const auto d = solver.diagnostics();
    if (comm.rank() == 0) reference_energy = d.energy;
  });

  const double err = std::abs(restarted_energy - reference_energy);
  std::printf("  restarted E=%.12f vs uninterrupted E=%.12f (|diff|=%.2e)\n",
              restarted_energy, reference_energy, err);
  const bool restart_ok = err < 1e-10;
  std::printf("%s\n", restart_ok ? "PASS: restart is transparent"
                                 : "FAIL: restart diverged");
  std::remove(ckp.c_str());
  std::remove(series.c_str());
  std::remove(spectrum.c_str());

  std::printf("\nFault drill: supervised campaign under an injected fault "
              "plan\n");
  const bool drill_ok = fault_drill(n);
  std::printf("%s\n", drill_ok
                          ? "PASS: faulted campaign recovered to the "
                            "fault-free state"
                          : "FAIL: recovery did not converge");
  return restart_ok && drill_ok ? 0 : 1;
}
