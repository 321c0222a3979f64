// Forced stationary isotropic turbulence - the production scenario the
// paper's simulations run (statistically steady turbulence sustained by
// low-wavenumber forcing). Prints the energy history and a text-rendered
// energy spectrum with the k^{-5/3} inertial-range reference.
//
//   ./forced_turbulence [--n=48] [--ranks=4] [--steps=60] [--power=0.3]

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "dns/spectral_core.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace psdns;
  const util::Cli cli(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int("n", 48));
  const int ranks = static_cast<int>(cli.get_int("ranks", 4));
  const int steps = static_cast<int>(cli.get_int("steps", 60));
  const double power = cli.get_double("power", 0.3);

  std::printf("Forced isotropic turbulence: %zu^3, band k in [1,2], "
              "injection %.2f\n\n", n, power);

  std::vector<double> spectrum;
  double skewness = 0.0, re_lambda = 0.0;

  comm::run_ranks(ranks, [&](comm::Communicator& comm) {
    dns::SolverConfig cfg;
    cfg.n = n;
    cfg.viscosity = 0.006;
    cfg.forcing.enabled = true;
    cfg.forcing.klo = 1;
    cfg.forcing.khi = 2;
    cfg.forcing.power = power;
    dns::SpectralEngine solver(comm, cfg);
    solver.init_isotropic(/*seed=*/7, /*k_peak=*/2.5, /*energy=*/0.6);

    for (int s = 0; s <= steps; ++s) {
      const double dt = std::min(solver.cfl_dt(0.4), 0.02);
      const auto d = solver.diagnostics();
      if (comm.rank() == 0 && s % 10 == 0) {
        std::printf("step %4lld  t=%7.3f  E=%8.4f  eps=%8.4f  Re_l=%6.1f  "
                    "k_max*eta=%.2f\n",
                    static_cast<long long>(solver.step_count()), solver.time(),
                    d.energy, d.dissipation, d.reynolds_lambda,
                    (static_cast<double>(n) / 3.0) * d.kolmogorov_eta);
      }
      if (s < steps) solver.step(dt);
    }

    auto spec = solver.spectrum();
    const double sk = solver.derivative_skewness();
    const auto d = solver.diagnostics();
    if (comm.rank() == 0) {
      spectrum = spec;
      skewness = sk;
      re_lambda = d.reynolds_lambda;
    }
  });

  std::printf("\nenergy spectrum E(k) (log scale, '*' = data, '.' = k^-5/3 "
              "through k=3):\n");
  const double ref_at_3 = spectrum[3];
  for (std::size_t k = 1; k < spectrum.size() && k <= n / 3; ++k) {
    if (spectrum[k] <= 0.0) continue;
    const double ref =
        ref_at_3 * std::pow(static_cast<double>(k) / 3.0, -5.0 / 3.0);
    const auto col = [&](double v) {
      return static_cast<int>(10.0 * (std::log10(v) + 8.0));
    };
    const int c_data = std::clamp(col(spectrum[k]), 0, 79);
    const int c_ref = std::clamp(col(ref), 0, 79);
    std::string line(80, ' ');
    line[static_cast<std::size_t>(c_ref)] = '.';
    line[static_cast<std::size_t>(c_data)] = '*';
    std::printf("k=%2zu |%s\n", k, line.c_str());
  }
  std::printf("\nvelocity-derivative skewness: %.3f (developed turbulence: "
              "~ -0.5)\n", skewness);
  std::printf("Taylor-scale Reynolds number: %.1f\n", re_lambda);
  return 0;
}
