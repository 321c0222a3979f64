// Turbulent mixing of passive scalars - the science application of the
// companion GPU code the paper cites (Clay et al. 2018, high-Schmidt
// mixing). Two scalars with different Schmidt numbers ride the same forced
// turbulence, sustained by a uniform mean gradient; the run reports scalar
// variances, fluxes, the mechanical-to-scalar time-scale ratio, and
// side-by-side spectra showing the high-Sc scalar's extended fine structure.
//
//   ./scalar_mixing [--n=48] [--steps=50]

#include <cmath>
#include <cstdio>

#include "comm/communicator.hpp"
#include "dns/spectral_core.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace psdns;
  const util::Cli cli(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int("n", 48));
  const int steps = static_cast<int>(cli.get_int("steps", 50));

  std::printf("Passive-scalar mixing, %zu^3: Sc = 0.5 and Sc = 4.0 in the\n"
              "same forced turbulence, mean scalar gradient G = 1 along y\n\n",
              n);

  std::vector<double> spec_lo, spec_hi;
  comm::run_ranks(4, [&](comm::Communicator& comm) {
    dns::SolverConfig cfg;
    cfg.n = n;
    cfg.viscosity = 0.008;
    cfg.forcing.enabled = true;
    cfg.forcing.power = 0.25;
    cfg.scalars = {{.schmidt = 0.5, .mean_gradient = 1.0},
                   {.schmidt = 4.0, .mean_gradient = 1.0}};
    dns::SpectralEngine solver(comm, cfg);
    solver.init_isotropic(11, 2.5, 0.6);

    for (int s = 0; s <= steps; ++s) {
      if (s % 10 == 0) {
        const auto d = solver.diagnostics();
        const auto s0 = solver.scalar_diagnostics(0);
        const auto s1 = solver.scalar_diagnostics(1);
        if (comm.rank() == 0) {
          std::printf("step %4lld t=%6.3f  E=%7.4f  var(Sc=.5)=%8.5f "
                      "flux=%8.5f | var(Sc=4)=%8.5f flux=%8.5f\n",
                      static_cast<long long>(solver.step_count()),
                      solver.time(), d.energy, s0.variance, s0.flux_y,
                      s1.variance, s1.flux_y);
        }
      }
      if (s < steps) solver.step(std::min(solver.cfl_dt(0.4), 0.02));
    }

    // Mechanical-to-scalar time-scale ratio (canonically ~2 in stationary
    // mixing).
    const auto d = solver.diagnostics();
    const auto s1 = solver.scalar_diagnostics(1);
    const double r = (2.0 * s1.variance / s1.dissipation) /
                     (2.0 * d.energy / d.dissipation);
    auto lo = solver.scalar_spectrum(0);
    auto hi = solver.scalar_spectrum(1);
    if (comm.rank() == 0) {
      std::printf("\ntime-scale ratio (scalar/mechanical, Sc=4): %.2f\n", r);
      spec_lo = lo;
      spec_hi = hi;
    }
  });

  std::printf("\nscalar spectra (log10 E_theta, '-' Sc=0.5, '+' Sc=4.0):\n");
  for (std::size_t k = 1; k <= n / 3; ++k) {
    if (spec_lo[k] <= 0.0 || spec_hi[k] <= 0.0) continue;
    const auto col = [&](double v) {
      return std::clamp(static_cast<int>(8.0 * (std::log10(v) + 9.0)), 0, 75);
    };
    std::string line(76, ' ');
    line[static_cast<std::size_t>(col(spec_lo[k]))] = '-';
    line[static_cast<std::size_t>(col(spec_hi[k]))] = '+';
    std::printf("k=%2zu |%s\n", k, line.c_str());
  }
  std::printf("\nThe Sc = 4 scalar holds more variance at high k (the\n"
              "viscous-convective range that makes high-Schmidt mixing so\n"
              "expensive to resolve - the motivation for the GPU codes).\n");
  return 0;
}
