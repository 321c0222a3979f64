#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "comm/communicator.hpp"
#include "dns/spectral_core.hpp"
#include "io/checkpoint.hpp"

namespace psdns::dns {
namespace {

SolverConfig scalar_config(std::size_t n, double nu,
                           std::vector<ScalarConfig> scalars) {
  SolverConfig cfg;
  cfg.n = n;
  cfg.viscosity = nu;
  cfg.scalars = std::move(scalars);
  return cfg;
}

TEST(Scalar, PureDiffusionDecaysExactly) {
  // Zero velocity: theta(k) decays as exp(-D k^2 t) with D = nu/Sc, and the
  // integrating factor makes this exact regardless of dt.
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    const double nu = 0.1, sc = 2.0;
    SpectralEngine solver(comm, scalar_config(16, nu, {{.schmidt = sc}}));
    solver.init_scalar_from_function(
        0, [](double, double y, double) { return std::cos(3.0 * y); });
    const double var0 = solver.scalar_diagnostics(0).variance;
    EXPECT_NEAR(var0, 0.25, 1e-12);  // <cos^2>/2

    const double dt = 0.05;
    for (int s = 0; s < 10; ++s) solver.step(dt);
    const double d = nu / sc;
    const double want = var0 * std::exp(-2.0 * d * 9.0 * solver.time());
    EXPECT_NEAR(solver.scalar_diagnostics(0).variance, want, 1e-12);
  });
}

TEST(Scalar, VarianceBalancedByDissipation) {
  // Advection redistributes scalar variance without creating it:
  // d(var)/dt = -chi when unforced (G = 0).
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    SpectralEngine solver(comm, scalar_config(24, 0.02, {{.schmidt = 1.0}}));
    solver.init_isotropic(3, 3.0, 0.5);
    solver.init_scalar_isotropic(0, 7, 3.0, 0.4);
    const auto d0 = solver.scalar_diagnostics(0);
    const double dt = 0.005;
    solver.step(dt);
    const auto d1 = solver.scalar_diagnostics(0);
    const double lhs = (d1.variance - d0.variance) / dt;
    const double rhs = -0.5 * (d0.dissipation + d1.dissipation);
    EXPECT_NEAR(lhs, rhs, 0.02 * std::abs(rhs));
  });
}

TEST(Scalar, MeanGradientSustainsFluctuations) {
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    SpectralEngine solver(
        comm,
        scalar_config(16, 0.02, {{.schmidt = 1.0, .mean_gradient = 1.0}}));
    solver.init_isotropic(4, 3.0, 0.5);
    // Scalar starts at zero; the mean gradient source pumps variance in.
    EXPECT_NEAR(solver.scalar_diagnostics(0).variance, 0.0, 1e-15);
    for (int s = 0; s < 10; ++s) solver.step(0.01);
    EXPECT_GT(solver.scalar_diagnostics(0).variance, 1e-6);
  });
}

TEST(Scalar, FluxIsDownGradient) {
  // With a positive mean gradient in y, turbulence transports scalar down
  // the gradient: <v theta> < 0 once the field develops.
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    SpectralEngine solver(
        comm,
        scalar_config(24, 0.01, {{.schmidt = 1.0, .mean_gradient = 1.0}}));
    solver.init_isotropic(9, 3.0, 0.8);
    for (int s = 0; s < 20; ++s) solver.step(0.01);
    EXPECT_LT(solver.scalar_diagnostics(0).flux_y, 0.0);
  });
}

TEST(Scalar, HigherSchmidtDiffusesSlower) {
  // Two scalars in the same flow with the same IC: the high-Sc (low
  // diffusivity) one keeps more variance.
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    SpectralEngine solver(comm, scalar_config(16, 0.05,
                                              {{.schmidt = 0.5},
                                               {.schmidt = 4.0}}));
    solver.init_isotropic(2, 3.0, 0.3);
    solver.init_scalar_isotropic(0, 11, 3.0, 0.5);
    solver.init_scalar_isotropic(1, 11, 3.0, 0.5);
    const double v0 = solver.scalar_diagnostics(0).variance;
    const double v1 = solver.scalar_diagnostics(1).variance;
    EXPECT_NEAR(v0, v1, 1e-12);  // identical ICs
    for (int s = 0; s < 10; ++s) solver.step(0.01);
    EXPECT_GT(solver.scalar_diagnostics(1).variance,
              1.2 * solver.scalar_diagnostics(0).variance);
  });
}

TEST(Scalar, SpectrumSumsToVariance) {
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    SpectralEngine solver(comm, scalar_config(24, 0.02, {{.schmidt = 1.0}}));
    solver.init_isotropic(1, 3.0, 0.5);
    solver.init_scalar_isotropic(0, 2, 4.0, 0.7);
    const auto spec = solver.scalar_spectrum(0);
    double total = 0.0;
    for (const double e : spec) total += e;
    EXPECT_NEAR(total, solver.scalar_diagnostics(0).variance, 1e-10);
    EXPECT_NEAR(total, 0.7, 1e-10);  // the IC normalization target
  });
}

TEST(Scalar, RankCountInvariance) {
  auto run = [&](int P) {
    double var = 0.0;
    comm::run_ranks(P, [&](comm::Communicator& comm) {
      SpectralEngine solver(
          comm,
          scalar_config(16, 0.02, {{.schmidt = 0.7, .mean_gradient = 0.5}}));
      solver.init_isotropic(7, 3.0, 0.5);
      solver.init_scalar_isotropic(0, 8, 3.0, 0.4);
      for (int s = 0; s < 3; ++s) solver.step(0.01);
      const double v = solver.scalar_diagnostics(0).variance;
      if (comm.rank() == 0) var = v;
    });
    return var;
  };
  const double v1 = run(1);
  EXPECT_NEAR(run(2), v1, 1e-13);
  EXPECT_NEAR(run(4), v1, 1e-13);
}

TEST(Scalar, RK4DiffusionAlsoExact) {
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    auto cfg = scalar_config(16, 0.08, {{.schmidt = 1.0}});
    cfg.scheme = TimeScheme::RK4;
    SpectralEngine solver(comm, cfg);
    solver.init_scalar_from_function(
        0, [](double x, double, double) { return std::sin(2.0 * x); });
    for (int s = 0; s < 5; ++s) solver.step(0.05);
    const double want = 0.25 * std::exp(-2.0 * 0.08 * 4.0 * solver.time());
    EXPECT_NEAR(solver.scalar_diagnostics(0).variance, want, 1e-12);
  });
}

TEST(Scalar, CheckpointRoundTripWithScalars) {
  const auto path =
      (std::filesystem::temp_directory_path() / "psdns_ckp_scalar.bin")
          .string();
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    auto cfg = scalar_config(16, 0.02, {{.schmidt = 1.5}});
    SpectralEngine a(comm, cfg);
    a.init_isotropic(5, 3.0, 0.5);
    a.init_scalar_isotropic(0, 6, 3.0, 0.3);
    for (int s = 0; s < 2; ++s) a.step(0.01);
    io::save_checkpoint(path, a);

    SpectralEngine b(comm, cfg);
    const auto info = io::load_checkpoint(path, b);
    EXPECT_EQ(info.scalars, 1u);
    for (std::size_t i = 0; i < a.modes().local_modes(); ++i) {
      EXPECT_EQ(b.that(0)[i], a.that(0)[i]);
    }
  });
  std::remove(path.c_str());
}

TEST(Scalar, MismatchedScalarCountRejectedOnLoad) {
  const auto path =
      (std::filesystem::temp_directory_path() / "psdns_ckp_nosc.bin")
          .string();
  comm::run_ranks(1, [&](comm::Communicator& comm) {
    SpectralEngine a(comm, scalar_config(16, 0.02, {}));
    a.init_taylor_green();
    io::save_checkpoint(path, a);

    SpectralEngine b(comm, scalar_config(16, 0.02, {{.schmidt = 1.0}}));
    EXPECT_THROW(io::load_checkpoint(path, b), util::Error);
  });
  std::remove(path.c_str());
}

TEST(Scalar, IndexValidation) {
  comm::run_ranks(1, [&](comm::Communicator& comm) {
    SpectralEngine solver(comm, scalar_config(16, 0.02, {{.schmidt = 1.0}}));
    EXPECT_THROW(solver.scalar_diagnostics(1), util::Error);
    EXPECT_THROW(solver.scalar_spectrum(-1), util::Error);
    EXPECT_THROW(solver.init_scalar_isotropic(2, 1, 3.0, 0.5), util::Error);
  });
}

TEST(Scalar, RejectsNonPositiveSchmidt) {
  comm::run_ranks(1, [&](comm::Communicator& comm) {
    EXPECT_THROW(
        SpectralEngine(comm, scalar_config(16, 0.02, {{.schmidt = 0.0}})),
        util::Error);
  });
}

}  // namespace
}  // namespace psdns::dns
