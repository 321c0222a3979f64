// Quickstart: the smallest complete psdns program. Sets up a 32^3 decaying
// isotropic turbulence DNS on 4 in-process ranks (threads), advances it with
// RK2 at the CFL-limited step, and prints flow statistics.
//
//   ./quickstart [--n=32] [--ranks=4] [--steps=20] [--viscosity=0.01]

#include <cstdio>

#include "comm/communicator.hpp"
#include "dns/spectral_core.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace psdns;
  const util::Cli cli(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int("n", 32));
  const int ranks = static_cast<int>(cli.get_int("ranks", 4));
  const int steps = static_cast<int>(cli.get_int("steps", 20));
  const double nu = cli.get_double("viscosity", 0.01);

  std::printf("psdns quickstart: %zu^3 decaying turbulence on %d ranks\n\n",
              n, ranks);
  std::printf("%6s %10s %12s %12s %10s %8s\n", "step", "time", "energy",
              "dissipation", "Re_lambda", "CFL dt");

  comm::run_ranks(ranks, [&](comm::Communicator& comm) {
    dns::SolverConfig cfg;
    cfg.n = n;
    cfg.viscosity = nu;
    cfg.scheme = dns::TimeScheme::RK2;
    dns::SpectralEngine solver(comm, cfg);
    solver.init_isotropic(/*seed=*/2024, /*k_peak=*/3.0, /*energy=*/0.5);

    for (int s = 0; s <= steps; ++s) {
      const double dt = solver.cfl_dt(0.5);
      const auto d = solver.diagnostics();
      if (comm.rank() == 0 && s % 5 == 0) {
        std::printf("%6lld %10.4f %12.3e %12.3e %10.1f %8.4f\n",
                    static_cast<long long>(solver.step_count()), solver.time(),
                    d.energy, d.dissipation, d.reynolds_lambda, dt);
      }
      if (s < steps) solver.step(dt);
    }

    const auto d = solver.diagnostics();
    if (comm.rank() == 0) {
      std::printf("\nfinal: energy %.4e, max divergence %.2e (should be"
                  " ~round-off)\n",
                  d.energy, d.max_divergence);
    }
  });
  return 0;
}
