// Resolution continuation - the campaign pattern behind record-size DNS:
// spin up turbulence cheaply on a coarse grid, then spectrally interpolate
// onto a finer grid and continue, letting the small scales fill in. (The
// paper's 18432^3 production runs descend from lower-resolution databases
// in exactly this way.)
//
//   ./resolution_continuation [--coarse=24] [--fine=48] [--spinup=30]

#include <cmath>
#include <cstdio>

#include "comm/communicator.hpp"
#include "dns/regrid.hpp"
#include "dns/spectral_core.hpp"
#include "dns/statistics.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace psdns;
  const util::Cli cli(argc, argv);
  const auto coarse = static_cast<std::size_t>(cli.get_int("coarse", 24));
  const auto fine = static_cast<std::size_t>(cli.get_int("fine", 48));
  const int spinup = static_cast<int>(cli.get_int("spinup", 30));

  std::printf("Resolution continuation: spin up at %zu^3, continue at %zu^3\n\n",
              coarse, fine);

  comm::run_ranks(4, [&](comm::Communicator& comm) {
    dns::SolverConfig ccfg;
    ccfg.n = coarse;
    ccfg.viscosity = 0.01;
    ccfg.forcing.enabled = true;
    ccfg.forcing.power = 0.25;
    dns::SpectralEngine coarse_run(comm, ccfg);
    coarse_run.init_isotropic(17, 2.5, 0.5);

    for (int s = 0; s < spinup; ++s) {
      coarse_run.step(std::min(coarse_run.cfl_dt(0.4), 0.02));
    }
    const auto dc = coarse_run.diagnostics();
    if (comm.rank() == 0) {
      std::printf("coarse run after %d steps: t=%.3f, E=%.4f, Re_l=%.1f, "
                  "k_max*eta=%.2f %s\n",
                  spinup, coarse_run.time(), dc.energy, dc.reynolds_lambda,
                  dns::kmax_eta(coarse, dc.kolmogorov_eta),
                  dns::kmax_eta(coarse, dc.kolmogorov_eta) < 1.0
                      ? "(under-resolved!)"
                      : "");
    }

    // Continue at the finer resolution; viscosity can now be lowered to
    // exploit it (higher Reynolds number), as production campaigns do.
    dns::SolverConfig fcfg = ccfg;
    fcfg.n = fine;
    fcfg.viscosity = 0.005;
    dns::SpectralEngine fine_run(comm, fcfg);
    dns::spectral_regrid(coarse_run, fine_run);

    const auto d0 = fine_run.diagnostics();
    if (comm.rank() == 0) {
      std::printf("after regrid to %zu^3: E=%.4f (preserved: %s), "
                  "max div=%.1e\n\n",
                  fine, d0.energy,
                  std::abs(d0.energy - dc.energy) < 1e-10 ? "yes" : "NO",
                  d0.max_divergence);
      std::printf("%6s %8s %10s %12s %10s\n", "step", "t", "E", "Re_lambda",
                  "kmax*eta");
    }
    for (int s = 0; s <= spinup; ++s) {
      if (s % 10 == 0) {
        const auto d = fine_run.diagnostics();
        if (comm.rank() == 0) {
          std::printf("%6lld %8.3f %10.4f %12.1f %10.2f\n",
                      static_cast<long long>(fine_run.step_count()),
                      fine_run.time(), d.energy, d.reynolds_lambda,
                      dns::kmax_eta(fine, d.kolmogorov_eta));
        }
      }
      if (s < spinup) fine_run.step(std::min(fine_run.cfl_dt(0.4), 0.01));
    }
    if (comm.rank() == 0) {
      std::printf("\nThe fine grid inherits the developed large scales and\n"
                  "grows its own small-scale range at the higher Reynolds\n"
                  "number - no re-spin-up required.\n");
    }
  });
  return 0;
}
