#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <numbers>
#include <string>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "dns/modes.hpp"
#include "dns/spectral_core.hpp"
#include "dns/spectral_ops.hpp"
#include "dns/regrid.hpp"
#include "dns/two_point.hpp"
#include "dns/vorticity.hpp"
#include "dns/statistics.hpp"
#include "obs/registry.hpp"
#include "util/rng.hpp"

namespace psdns::dns {
namespace {

std::array<double, 3> abc_flow(double x, double y, double z) {
  // Arnold-Beltrami-Childress flow: solenoidal, fully three-dimensional.
  const double a = 1.0, b = 0.7, c = 0.43;
  return {a * std::sin(z) + c * std::cos(y), b * std::sin(x) + a * std::cos(z),
          c * std::sin(y) + b * std::cos(x)};
}

// --- mode enumeration ---

TEST(Modes, WrapWavenumber) {
  EXPECT_EQ(wrap_wavenumber(0, 8), 0);
  EXPECT_EQ(wrap_wavenumber(3, 8), 3);
  EXPECT_EQ(wrap_wavenumber(4, 8), 4);
  EXPECT_EQ(wrap_wavenumber(5, 8), -3);
  EXPECT_EQ(wrap_wavenumber(7, 8), -1);
}

TEST(Modes, ModeWeightCountsConjugatePairs) {
  EXPECT_DOUBLE_EQ(mode_weight(0, 8), 1.0);
  EXPECT_DOUBLE_EQ(mode_weight(4, 8), 1.0);  // Nyquist plane
  EXPECT_DOUBLE_EQ(mode_weight(1, 8), 2.0);
  EXPECT_DOUBLE_EQ(mode_weight(3, 8), 2.0);
}

TEST(Modes, ZslabEnumeratesAllModesOnce) {
  const std::size_t n = 8, mz = 4, z0 = 4;
  const auto view = ModeView::zslab(n, mz, z0);
  EXPECT_EQ(view.local_modes(), (n / 2 + 1) * n * mz);
  std::vector<int> seen(view.local_modes(), 0);
  for_each_mode(view, [&](std::size_t idx, int kx, int ky, int kz) {
    ASSERT_LT(idx, seen.size());
    ++seen[idx];
    EXPECT_GE(kx, 0);
    EXPECT_LE(kx, 4);
    EXPECT_GE(ky, -3);
    EXPECT_LE(ky, 4);
    // This rank owns the upper half of z: indices 4..7 -> kz 4, -3, -2, -1.
    EXPECT_TRUE(kz == 4 || (kz >= -3 && kz <= -1));
  });
  for (const int s : seen) EXPECT_EQ(s, 1);
}

TEST(Modes, ZpencilMatchesZslabModeSet) {
  // Full single-rank views of both layouts must enumerate the same (k)
  // multiset.
  const std::size_t n = 8;
  const auto slab = ModeView::zslab(n, n, 0);
  const auto pencil = ModeView::zpencil(n, n / 2 + 1, 0, n, 0);
  std::vector<std::tuple<int, int, int>> a, b;
  for_each_mode(slab, [&](std::size_t, int kx, int ky, int kz) {
    a.emplace_back(kx, ky, kz);
  });
  for_each_mode(pencil, [&](std::size_t, int kx, int ky, int kz) {
    b.emplace_back(kx, ky, kz);
  });
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

// --- spectral operators (single rank) ---

class OpsFixture : public ::testing::Test {
 protected:
  static constexpr std::size_t n = 16;
  ModeView view = ModeView::zslab(n, n, 0);
  std::vector<Complex> u, v, w;

  void SetUp() override {
    const std::size_t m = view.local_modes();
    u.resize(m);
    v.resize(m);
    w.resize(m);
    util::Rng rng(17);
    for (std::size_t i = 0; i < m; ++i) {
      u[i] = Complex{rng.gaussian(), rng.gaussian()};
      v[i] = Complex{rng.gaussian(), rng.gaussian()};
      w[i] = Complex{rng.gaussian(), rng.gaussian()};
    }
  }
};

TEST_F(OpsFixture, ProjectionKillsDivergence) {
  project(view, u.data(), v.data(), w.data());
  for_each_mode(view, [&](std::size_t idx, int kx, int ky, int kz) {
    const Complex div = static_cast<double>(kx) * u[idx] +
                        static_cast<double>(ky) * v[idx] +
                        static_cast<double>(kz) * w[idx];
    EXPECT_LT(std::abs(div), 1e-12);
  });
}

TEST_F(OpsFixture, ProjectionIsIdempotent) {
  project(view, u.data(), v.data(), w.data());
  auto u2 = u, v2 = v, w2 = w;
  project(view, u2.data(), v2.data(), w2.data());
  for (std::size_t i = 0; i < u.size(); ++i) {
    EXPECT_LT(std::abs(u2[i] - u[i]), 1e-13);
    EXPECT_LT(std::abs(v2[i] - v[i]), 1e-13);
    EXPECT_LT(std::abs(w2[i] - w[i]), 1e-13);
  }
}

TEST_F(OpsFixture, TruncationZeroesOnlyHighModes) {
  auto f = u;
  dealias_truncate(view, f.data());
  const int kmax = (static_cast<int>(n) - 1) / 3;
  for_each_mode(view, [&](std::size_t idx, int kx, int ky, int kz) {
    const bool high =
        std::abs(kx) > kmax || std::abs(ky) > kmax || std::abs(kz) > kmax;
    if (high) {
      EXPECT_EQ(f[idx], (Complex{0.0, 0.0}));
    } else {
      EXPECT_EQ(f[idx], u[idx]);
    }
  });
}

TEST_F(OpsFixture, IntegratingFactorMatchesExponential) {
  auto f = u;
  const double nu = 0.03, dt = 0.7;
  apply_integrating_factor(view, f.data(), nu, dt);
  for_each_mode(view, [&](std::size_t idx, int kx, int ky, int kz) {
    const double k2 = static_cast<double>(kx) * kx +
                      static_cast<double>(ky) * ky +
                      static_cast<double>(kz) * kz;
    EXPECT_LT(std::abs(f[idx] - u[idx] * std::exp(-nu * k2 * dt)), 1e-13);
  });
}

TEST_F(OpsFixture, PhaseShiftRoundTripIsIdentity) {
  auto f = u;
  const double delta[3] = {0.3, -0.1, 0.7};
  phase_shift(view, f.data(), delta, +1);
  phase_shift(view, f.data(), delta, -1);
  for (std::size_t i = 0; i < u.size(); ++i) {
    EXPECT_LT(std::abs(f[i] - u[i]), 1e-12);
  }
}

// --- separable propagators and the fused scale-and-truncate pass ---------
//
// The row-structured passes against per-mode references, on slab views of
// the first and second of two ranks (nonzero kz offset), an odd grid, and
// pencil views whose fastest loop dimension is kz (permuted axes), one of
// them with nonzero kx and ky offsets.

std::vector<ModeView> row_pass_views() {
  return {ModeView::zslab(16, 16, 0), ModeView::zslab(16, 8, 8),
          ModeView::zslab(15, 5, 10), ModeView::zpencil(16, 9, 0, 16, 0),
          ModeView::zpencil(18, 4, 5, 6, 12)};
}

std::vector<Complex> random_modes(const ModeView& view, std::uint64_t seed) {
  std::vector<Complex> f(view.local_modes());
  util::Rng rng(seed);
  for (auto& c : f) c = Complex{rng.gaussian(), rng.gaussian()};
  return f;
}

double k_squared(int kx, int ky, int kz) {
  return static_cast<double>(kx) * kx + static_cast<double>(ky) * ky +
         static_cast<double>(kz) * kz;
}

TEST(SeparablePropagator, IntegratingFactorMatchesPerModeExponential) {
  const double nu = 0.03, dt = 0.7;
  for (const auto& view : row_pass_views()) {
    const auto u = random_modes(view, 5);
    auto f = u;
    apply_integrating_factor(view, f.data(), nu, dt);
    for_each_mode(view, [&](std::size_t idx, int kx, int ky, int kz) {
      const Complex want = u[idx] * std::exp(-nu * k_squared(kx, ky, kz) * dt);
      EXPECT_LE(std::abs(f[idx] - want), 1e-14 * std::abs(want))
          << "n=" << view.n << " k=(" << kx << "," << ky << "," << kz << ")";
    });
  }
}

TEST(SeparablePropagator, PhaseShiftMatchesPerModePhaseAndRoundTrips) {
  const double delta[3] = {0.3, -0.1, 0.7};
  for (const auto& view : row_pass_views()) {
    const auto u = random_modes(view, 6);
    for (const int sign : {+1, -1}) {
      auto f = u;
      phase_shift(view, f.data(), delta, sign);
      for_each_mode(view, [&](std::size_t idx, int kx, int ky, int kz) {
        const double phase =
            sign * (kx * delta[0] + ky * delta[1] + kz * delta[2]);
        const Complex want =
            u[idx] * Complex{std::cos(phase), std::sin(phase)};
        EXPECT_LE(std::abs(f[idx] - want), 1e-14 * std::abs(want))
            << "n=" << view.n << " sign=" << sign;
      });
      phase_shift(view, f.data(), delta, -sign);
      for (std::size_t i = 0; i < u.size(); ++i) {
        EXPECT_LE(std::abs(f[i] - u[i]), 1e-14 * std::abs(u[i]));
      }
    }
  }
}

bool bitwise_equal(const std::vector<Complex>& a,
                   const std::vector<Complex>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)) == 0;
}

TEST(MaxAbs, IsTheSerialFoldBitwiseAndIgnoresNaN) {
  // The CFL fold against acc = std::max(acc, std::abs(v[i])) over every
  // count up to 37 (all remainders of the accumulator split), with NaN
  // points first, last, inside and everywhere, infinities, zeros of both
  // signs, and NaN or -0 as the starting value.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto serial = [](const std::vector<double>& v, double init) {
    double acc = init;
    for (const double x : v) acc = std::max(acc, std::abs(x));
    return acc;
  };
  util::Rng rng(17);
  for (std::size_t count = 0; count <= 37; ++count) {
    std::vector<double> base(count);
    for (auto& x : base) x = rng.gaussian();
    std::vector<std::vector<double>> cases{base};
    for (const std::size_t at : {std::size_t{0}, count / 2, count - 1}) {
      if (at >= count) continue;
      auto nan = base;
      nan[at] = kNaN;
      cases.push_back(nan);
      auto inf = base;
      inf[at] = -kInf;
      cases.push_back(inf);
    }
    cases.emplace_back(count, kNaN);
    cases.emplace_back(count, -0.0);
    for (const auto& v : cases) {
      for (const double init : {0.0, -0.0, 0.5, kNaN}) {
        const double want = serial(v, init);
        const double got = max_abs(v.data(), v.size(), init);
        ASSERT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
            << "count " << count << " init " << init;
      }
    }
  }
}

TEST(FusedTruncation, EqualsScaleThenTruncateBitwise) {
  const double scale = 1.0 / 4096.0 / 3.0;  // not a power of two
  for (const auto& view : row_pass_views()) {
    const int kmax = (static_cast<int>(view.n) - 1) / 3;
    const double radius = std::sqrt(2.0) * static_cast<double>(view.n) / 3.0;
    const auto u = random_modes(view, 8);
    auto scaled = u;
    for (auto& c : scaled) c *= scale;

    // Strict 2/3 cube: the library routine and a per-mode mask.
    auto cube_ref = scaled;
    dealias_truncate(view, cube_ref.data());
    auto cube_mask = scaled;
    for_each_mode(view, [&](std::size_t idx, int kx, int ky, int kz) {
      if (std::abs(kx) > kmax || std::abs(ky) > kmax || std::abs(kz) > kmax) {
        cube_mask[idx] = Complex{0.0, 0.0};
      }
    });
    auto cube = u;
    scale_and_truncate(view, cube.data(), scale, DealiasRule::cube(view.n));
    EXPECT_TRUE(bitwise_equal(cube, cube_ref)) << "cube n=" << view.n;
    EXPECT_TRUE(bitwise_equal(cube, cube_mask)) << "cube n=" << view.n;

    // Phase-shift sphere of radius sqrt(2)/3 N.
    auto sphere_ref = scaled;
    dealias_spherical(view, sphere_ref.data(), radius);
    auto sphere_mask = scaled;
    for_each_mode(view, [&](std::size_t idx, int kx, int ky, int kz) {
      if (k_squared(kx, ky, kz) > radius * radius) {
        sphere_mask[idx] = Complex{0.0, 0.0};
      }
    });
    auto sphere = u;
    scale_and_truncate(view, sphere.data(), scale,
                       DealiasRule::sphere(radius));
    EXPECT_TRUE(bitwise_equal(sphere, sphere_ref)) << "sphere n=" << view.n;
    EXPECT_TRUE(bitwise_equal(sphere, sphere_mask)) << "sphere n=" << view.n;
  }
}

TEST(FusedTruncation, NonFiniteTruncatedModesVanishKeptNaNSurvives) {
  // The health monitor's contract: a NaN or Inf the dealiasing removes is
  // gone exactly, a NaN in a resolved mode reaches the NaN check.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& view : row_pass_views()) {
    for (const auto& rule :
         {DealiasRule::cube(view.n),
          DealiasRule::sphere(std::sqrt(2.0) * static_cast<double>(view.n) /
                              3.0)}) {
      auto keeps = [&](int kx, int ky, int kz) {
        return rule.spherical
                   ? k_squared(kx, ky, kz) <= rule.k2max
                   : std::max({std::abs(kx), std::abs(ky), std::abs(kz)}) <=
                         rule.kmax;
      };
      auto f = random_modes(view, 9);
      std::vector<std::size_t> kept, dropped;
      std::size_t i = 0;
      for_each_mode(view, [&](std::size_t idx, int kx, int ky, int kz) {
        // Poison every seventh mode: NaN and Inf alternately.
        if (i++ % 7 != 0) return;
        f[idx] = (i % 2 == 0) ? Complex{nan, 0.0} : Complex{1.0, inf};
        (keeps(kx, ky, kz) ? kept : dropped).push_back(idx);
      });
      ASSERT_FALSE(kept.empty());
      ASSERT_FALSE(dropped.empty());
      scale_and_truncate(view, f.data(), 0.125, rule);
      for (const std::size_t idx : dropped) {
        EXPECT_EQ(f[idx].real(), 0.0);
        EXPECT_EQ(f[idx].imag(), 0.0);
        EXPECT_FALSE(std::signbit(f[idx].real()));
        EXPECT_FALSE(std::signbit(f[idx].imag()));
      }
      for (const std::size_t idx : kept) {
        EXPECT_TRUE(std::isnan(f[idx].real()) || std::isinf(f[idx].imag()));
      }
    }
  }
}

TEST_F(OpsFixture, NonlinearRhsIsDivergenceFree) {
  std::vector<Complex> ru(u.size()), rv(u.size()), rw(u.size());
  nonlinear_rhs(view, ProductSet{u.data(), v.data(), w.data(), u.data(),
                                 v.data()},
                ru.data(), rv.data(), rw.data());
  for_each_mode(view, [&](std::size_t idx, int kx, int ky, int kz) {
    const Complex div = static_cast<double>(kx) * ru[idx] +
                        static_cast<double>(ky) * rv[idx] +
                        static_cast<double>(kz) * rw[idx];
    EXPECT_LT(std::abs(div), 1e-10);
  });
}

// --- Taylor-Green validation (the analytic Navier-Stokes solution) ---

class TaylorGreenP : public ::testing::TestWithParam<int> {};

TEST_P(TaylorGreenP, EnergyDecaysAtExactViscousRate) {
  const int P = GetParam();
  comm::run_ranks(P, [&](comm::Communicator& comm) {
    SolverConfig cfg;
    cfg.n = 16;
    cfg.viscosity = 0.05;
    SpectralEngine solver(comm, cfg);
    solver.init_taylor_green();
    const double e0 = solver.diagnostics().energy;
    EXPECT_NEAR(e0, 0.25, 1e-10);  // <(sin x cos y)^2> * 2 / 2

    const double dt = 0.01;
    for (int s = 0; s < 20; ++s) solver.step(dt);
    const double want = 0.25 * std::exp(-4.0 * cfg.viscosity * solver.time());
    EXPECT_NEAR(solver.diagnostics().energy, want, 1e-8);
  });
}

TEST_P(TaylorGreenP, VelocityStaysDivergenceFree) {
  const int P = GetParam();
  comm::run_ranks(P, [&](comm::Communicator& comm) {
    SolverConfig cfg;
    cfg.n = 16;
    cfg.viscosity = 0.02;
    SpectralEngine solver(comm, cfg);
    solver.init_taylor_green();
    for (int s = 0; s < 5; ++s) solver.step(0.02);
    EXPECT_LT(solver.diagnostics().max_divergence, 1e-10);
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, TaylorGreenP, ::testing::Values(1, 2, 4),
                         [](const ::testing::TestParamInfo<int>& pinfo) {
                           return "P" + std::to_string(pinfo.param);
                         });

TEST(TaylorGreen, RK4MatchesAnalyticDecayTighter) {
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    SolverConfig cfg;
    cfg.n = 16;
    cfg.viscosity = 0.05;
    cfg.scheme = TimeScheme::RK4;
    SpectralEngine solver(comm, cfg);
    solver.init_taylor_green();
    for (int s = 0; s < 10; ++s) solver.step(0.02);
    const double want = 0.25 * std::exp(-4.0 * cfg.viscosity * solver.time());
    EXPECT_NEAR(solver.diagnostics().energy, want, 1e-11);
  });
}

// --- convergence order of the time schemes ---

std::vector<Complex> final_field(comm::Communicator& comm, TimeScheme scheme,
                                 double dt, int steps) {
  SolverConfig cfg;
  cfg.n = 16;
  cfg.viscosity = 0.02;
  cfg.scheme = scheme;
  SpectralEngine solver(comm, cfg);
  solver.init_isotropic(/*seed=*/11, /*k_peak=*/3.0, /*energy=*/0.5);
  for (int s = 0; s < steps; ++s) solver.step(dt);
  std::vector<Complex> out;
  for (int c = 0; c < 3; ++c) {
    out.insert(out.end(), solver.uhat(c),
               solver.uhat(c) + solver.modes().local_modes());
  }
  return out;
}

double field_error(comm::Communicator& comm, const std::vector<Complex>& a,
                   const std::vector<Complex>& b) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += std::norm(a[i] - b[i]);
  return std::sqrt(comm.allreduce_sum(sum));
}

TEST(Convergence, RK2IsSecondOrder) {
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    const double t_end = 0.16;
    const auto ref = final_field(comm, TimeScheme::RK4, t_end / 64, 64);
    const double e1 =
        field_error(comm, final_field(comm, TimeScheme::RK2, t_end / 4, 4),
                    ref);
    const double e2 =
        field_error(comm, final_field(comm, TimeScheme::RK2, t_end / 8, 8),
                    ref);
    const double order = std::log2(e1 / e2);
    EXPECT_GT(order, 1.7);
    EXPECT_LT(order, 2.4);
  });
}

TEST(Convergence, RK4IsFourthOrder) {
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    const double t_end = 0.32;
    const auto ref = final_field(comm, TimeScheme::RK4, t_end / 128, 128);
    const double e1 =
        field_error(comm, final_field(comm, TimeScheme::RK4, t_end / 4, 4),
                    ref);
    const double e2 =
        field_error(comm, final_field(comm, TimeScheme::RK4, t_end / 8, 8),
                    ref);
    const double order = std::log2(e1 / e2);
    EXPECT_GT(order, 3.4);
    EXPECT_LT(order, 4.8);
  });
}

// --- decomposition invariance ---

TEST(Invariance, RankCountDoesNotChangePhysics) {
  auto run = [&](int P) {
    double energy = 0.0, eps = 0.0;
    comm::run_ranks(P, [&](comm::Communicator& comm) {
      SolverConfig cfg;
      cfg.n = 16;
      cfg.viscosity = 0.02;
      SpectralEngine solver(comm, cfg);
      solver.init_isotropic(7, 3.0, 0.5);
      for (int s = 0; s < 3; ++s) solver.step(0.02);
      if (comm.rank() == 0) {
        // Collective calls must still involve all ranks.
      }
      const auto d = solver.diagnostics();
      if (comm.rank() == 0) {
        energy = d.energy;
        eps = d.dissipation;
      }
    });
    return std::pair{energy, eps};
  };
  const auto [e1, d1] = run(1);
  const auto [e2, d2] = run(2);
  const auto [e4, d4] = run(4);
  EXPECT_NEAR(e2, e1, 1e-12);
  EXPECT_NEAR(e4, e1, 1e-12);
  EXPECT_NEAR(d2, d1, 1e-11);
  EXPECT_NEAR(d4, d1, 1e-11);
}

TEST(Invariance, PencilBatchingDoesNotChangePhysics) {
  auto run = [&](int np, int q) {
    double energy = 0.0;
    comm::run_ranks(2, [&](comm::Communicator& comm) {
      SolverConfig cfg;
      cfg.n = 16;
      cfg.viscosity = 0.02;
      cfg.pencils = np;
      cfg.pencils_per_a2a = q;
      SpectralEngine solver(comm, cfg);
      solver.init_isotropic(7, 3.0, 0.5);
      for (int s = 0; s < 2; ++s) solver.step(0.02);
      if (comm.rank() == 0) energy = solver.diagnostics().energy;
      else solver.diagnostics();
    });
    return energy;
  };
  const double base = run(1, 1);
  EXPECT_DOUBLE_EQ(run(3, 1), base);
  EXPECT_DOUBLE_EQ(run(4, 2), base);
  EXPECT_DOUBLE_EQ(run(4, 4), base);
}

TEST(Batching, EmptyXChunkIsRejectedWhenTheEngineIsBuilt) {
  // n=16 has N/2+1 = 9 x-modes: ten pencils leave the first x-chunk empty
  // unless all ten share one all-to-all.
  const auto config = [](int np, int q) {
    SolverConfig cfg;
    cfg.n = 16;
    cfg.viscosity = 0.02;
    cfg.pencils = np;
    cfg.pencils_per_a2a = q;
    return cfg;
  };
  std::atomic<int> built{0};
  try {
    comm::run_ranks(2, [&](comm::Communicator& comm) {
      SpectralEngine solver(comm, config(10, 1));
      ++built;
      solver.step(0.02);
    });
    ADD_FAILURE() << "pencils=10, pencils_per_a2a=1 was accepted at n=16";
  } catch (const util::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("pencils=10"), std::string::npos) << what;
    EXPECT_NE(what.find("pencils_per_a2a=1"), std::string::npos) << what;
    EXPECT_NE(what.find("N/2+1=9"), std::string::npos) << what;
  }
  EXPECT_EQ(built.load(), 0);

  for (const auto& [np, q] : {std::pair{9, 1}, std::pair{10, 10}}) {
    EXPECT_NO_THROW(comm::run_ranks(2, [&](comm::Communicator& comm) {
      SpectralEngine solver(comm, config(np, q));
      solver.init_isotropic(7, 3.0, 0.5);
      solver.step(0.02);
    })) << "np=" << np << " q=" << q;
  }
}

TEST(Invariance, PencilEngineMatchesSlabEngine) {
  // The 2-D-decomposed baseline and the slab code must advance the same
  // flow identically (they share the physics, differ in decomposition).
  double slab_e = 0.0, slab_eps = 0.0;
  std::vector<double> slab_spec;
  comm::run_ranks(4, [&](comm::Communicator& comm) {
    SolverConfig cfg;
    cfg.n = 16;
    cfg.viscosity = 0.03;
    SpectralEngine solver(comm, cfg);
    solver.init_from_function(abc_flow);
    for (int s = 0; s < 3; ++s) solver.step(0.01);
    const auto d = solver.diagnostics();
    auto spec = solver.spectrum();
    if (comm.rank() == 0) {
      slab_e = d.energy;
      slab_eps = d.dissipation;
      slab_spec = spec;
    }
  });

  double pen_e = 0.0, pen_eps = 0.0;
  std::vector<double> pen_spec;
  comm::run_ranks(4, [&](comm::Communicator& comm) {
    SolverConfig cfg;
    cfg.n = 16;
    cfg.decomposition = transpose::Decomposition::Pencil;  // 2x2
    cfg.viscosity = 0.03;
    SpectralEngine solver(comm, cfg);
    solver.init_from_function(abc_flow);
    for (int s = 0; s < 3; ++s) solver.step(0.01);
    const auto d = solver.diagnostics();
    auto spec = solver.spectrum();
    if (comm.rank() == 0) {
      pen_e = d.energy;
      pen_eps = d.dissipation;
      pen_spec = spec;
    }
  });

  EXPECT_NEAR(pen_e, slab_e, 1e-11);
  EXPECT_NEAR(pen_eps, slab_eps, 1e-10);
  ASSERT_EQ(pen_spec.size(), slab_spec.size());
  for (std::size_t s = 0; s < slab_spec.size(); ++s) {
    EXPECT_NEAR(pen_spec[s], slab_spec[s], 1e-11) << "shell " << s;
  }
}

TEST(Invariance, PencilMatchesSlabRk4ForcedScalar) {
  // Full-featured equivalence through the shared SpectralEngine: RK4 with
  // integrating factor, band forcing, and a mean-gradient passive scalar,
  // from the decomposition-invariant random initial conditions. The two
  // backends transform in different axis orders (x,z,y vs x,y,z), so
  // agreement is to rounding accumulation, not bitwise.
  constexpr int kSteps = 4;
  constexpr double kDt = 2e-3;
  const auto configure = [](SolverConfig& cfg) {
    cfg.n = 16;
    cfg.viscosity = 0.02;
    cfg.scheme = TimeScheme::RK4;
    cfg.forcing.enabled = true;
    cfg.forcing.power = 0.05;
    cfg.scalars.push_back(ScalarConfig{.schmidt = 0.7, .mean_gradient = 1.0});
  };

  Diagnostics slab_d;
  ScalarDiagnostics slab_sd;
  std::vector<double> slab_spec, slab_sspec;
  comm::run_ranks(4, [&](comm::Communicator& comm) {
    SolverConfig cfg;
    configure(cfg);
    SpectralEngine solver(comm, cfg);
    solver.init_isotropic(7, 3.0, 0.5);
    solver.init_scalar_isotropic(0, 11, 3.0, 0.25);
    for (int s = 0; s < kSteps; ++s) solver.step(kDt);
    const auto d = solver.diagnostics();
    const auto sd = solver.scalar_diagnostics(0);
    auto spec = solver.spectrum();
    auto sspec = solver.scalar_spectrum(0);
    if (comm.rank() == 0) {
      slab_d = d;
      slab_sd = sd;
      slab_spec = spec;
      slab_sspec = sspec;
    }
  });

  Diagnostics pen_d;
  ScalarDiagnostics pen_sd;
  std::vector<double> pen_spec, pen_sspec;
  comm::run_ranks(4, [&](comm::Communicator& comm) {
    SolverConfig cfg;
    configure(cfg);
    cfg.decomposition = transpose::Decomposition::Pencil;  // 2x2
    SpectralEngine solver(comm, cfg);
    solver.init_isotropic(7, 3.0, 0.5);
    solver.init_scalar_isotropic(0, 11, 3.0, 0.25);
    for (int s = 0; s < kSteps; ++s) solver.step(kDt);
    const auto d = solver.diagnostics();
    const auto sd = solver.scalar_diagnostics(0);
    auto spec = solver.spectrum();
    auto sspec = solver.scalar_spectrum(0);
    if (comm.rank() == 0) {
      pen_d = d;
      pen_sd = sd;
      pen_spec = spec;
      pen_sspec = sspec;
    }
  });

  EXPECT_NEAR(pen_d.energy, slab_d.energy, 1e-10);
  EXPECT_NEAR(pen_d.dissipation, slab_d.dissipation, 1e-9);
  EXPECT_NEAR(pen_d.u_max, slab_d.u_max, 1e-10);
  EXPECT_NEAR(pen_sd.variance, slab_sd.variance, 1e-10);
  EXPECT_NEAR(pen_sd.dissipation, slab_sd.dissipation, 1e-9);
  EXPECT_NEAR(pen_sd.flux_y, slab_sd.flux_y, 1e-10);
  ASSERT_EQ(pen_spec.size(), slab_spec.size());
  for (std::size_t s = 0; s < slab_spec.size(); ++s) {
    EXPECT_NEAR(pen_spec[s], slab_spec[s], 1e-10) << "shell " << s;
  }
  ASSERT_EQ(pen_sspec.size(), slab_sspec.size());
  for (std::size_t s = 0; s < slab_sspec.size(); ++s) {
    EXPECT_NEAR(pen_sspec[s], slab_sspec[s], 1e-10) << "scalar shell " << s;
  }
}

// --- physical behaviour of the turbulence ---

TEST(Physics, EnergyBalancedByDissipation) {
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    SolverConfig cfg;
    cfg.n = 24;
    cfg.viscosity = 0.03;
    SpectralEngine solver(comm, cfg);
    solver.init_isotropic(3, 3.0, 0.5);
    const double e0 = solver.diagnostics().energy;
    const double eps0 = solver.diagnostics().dissipation;
    const double dt = 0.005;
    solver.step(dt);
    const double e1 = solver.diagnostics().energy;
    const double eps1 = solver.diagnostics().dissipation;
    // dE/dt = -eps (the nonlinear term conserves energy; truncation only
    // removes what the spectrum barely reaches).
    const double lhs = (e1 - e0) / dt;
    const double rhs = -0.5 * (eps0 + eps1);
    EXPECT_NEAR(lhs, rhs, 0.02 * std::abs(rhs));
  });
}

TEST(Physics, ForcingSustainsEnergy) {
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    SolverConfig cfg;
    cfg.n = 16;
    cfg.viscosity = 0.08;
    cfg.forcing.enabled = true;
    cfg.forcing.klo = 1;
    cfg.forcing.khi = 2;
    cfg.forcing.power = 0.2;
    SpectralEngine solver(comm, cfg);
    solver.init_isotropic(5, 2.0, 0.3);

    SolverConfig unforced = cfg;
    unforced.forcing.enabled = false;
    SpectralEngine free_decay(comm, unforced);
    free_decay.init_isotropic(5, 2.0, 0.3);

    for (int s = 0; s < 20; ++s) {
      solver.step(0.01);
      free_decay.step(0.01);
    }
    EXPECT_GT(solver.diagnostics().energy,
              free_decay.diagnostics().energy * 1.02);
  });
}

TEST(Physics, ForcingInjectsConfiguredPower) {
  // The band forcing is normalized to a fixed injection rate P, so
  // dE/dt = P - eps over a step.
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    SolverConfig cfg;
    cfg.n = 24;
    cfg.viscosity = 0.03;
    cfg.forcing.enabled = true;
    cfg.forcing.power = 0.4;
    SpectralEngine solver(comm, cfg);
    solver.init_isotropic(12, 2.5, 0.5);
    const double e0 = solver.diagnostics().energy;
    const double eps0 = solver.diagnostics().dissipation;
    const double dt = 0.004;
    solver.step(dt);
    const double e1 = solver.diagnostics().energy;
    const double eps1 = solver.diagnostics().dissipation;
    const double lhs = (e1 - e0) / dt;
    const double rhs = cfg.forcing.power - 0.5 * (eps0 + eps1);
    EXPECT_NEAR(lhs, rhs, 0.05 * cfg.forcing.power);
  });
}

TEST(Physics, SkewnessTurnsNegativeAsCascadeDevelops) {
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    SolverConfig cfg;
    cfg.n = 32;
    cfg.viscosity = 0.01;
    SpectralEngine solver(comm, cfg);
    solver.init_isotropic(13, 4.0, 1.0);
    // A gaussian field has ~zero derivative skewness.
    const double s0 = solver.derivative_skewness();
    EXPECT_LT(std::abs(s0), 0.15);
    for (int s = 0; s < 15; ++s) solver.step(0.01);
    // Vortex stretching drives it toward the well-known ~-0.5.
    const double s1 = solver.derivative_skewness();
    EXPECT_LT(s1, -0.2);
    EXPECT_GT(s1, -1.2);
  });
}

TEST(Physics, PhaseShiftDealiasStaysCloseToTruncation) {
  auto run = [&](bool shift) {
    double e = 0.0;
    comm::run_ranks(2, [&](comm::Communicator& comm) {
      SolverConfig cfg;
      cfg.n = 16;
      cfg.viscosity = 0.02;
      cfg.phase_shift_dealias = shift;
      SpectralEngine solver(comm, cfg);
      solver.init_isotropic(9, 3.0, 0.5);
      for (int s = 0; s < 5; ++s) solver.step(0.01);
      const double energy = solver.diagnostics().energy;
      if (comm.rank() == 0) e = energy;
    });
    return e;
  };
  const double plain = run(false);
  const double shifted = run(true);
  EXPECT_NEAR(shifted, plain, 0.01 * plain);
  EXPECT_NE(shifted, plain);  // the shift does change the aliasing content
}

TEST(Diagnostics, DerivedScalesAreConsistent) {
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    SolverConfig cfg;
    cfg.n = 16;
    cfg.viscosity = 0.02;
    SpectralEngine solver(comm, cfg);
    solver.init_isotropic(21, 3.0, 0.5);
    const auto d = solver.diagnostics();
    EXPECT_GT(d.energy, 0.0);
    EXPECT_GT(d.dissipation, 0.0);
    EXPECT_GT(d.taylor_scale, 0.0);
    EXPECT_GT(d.reynolds_lambda, 0.0);
    EXPECT_GT(d.kolmogorov_eta, 0.0);
    // lambda = sqrt(15 nu u'^2 / eps) by definition.
    const double uprime2 = 2.0 * d.energy / 3.0;
    EXPECT_NEAR(d.taylor_scale,
                std::sqrt(15.0 * cfg.viscosity * uprime2 / d.dissipation),
                1e-12);
  });
}

TEST(Diagnostics, CflDtScalesInverselyWithVelocity) {
  comm::run_ranks(1, [&](comm::Communicator& comm) {
    SolverConfig cfg;
    cfg.n = 16;
    cfg.viscosity = 0.02;
    SpectralEngine a(comm, cfg);
    a.init_isotropic(2, 3.0, 0.5);
    SpectralEngine b(comm, cfg);
    b.init_isotropic(2, 3.0, 2.0);  // 4x the energy -> 2x the velocity
    const double dta = a.cfl_dt();
    const double dtb = b.cfl_dt();
    EXPECT_NEAR(dta / dtb, 2.0, 0.05);
  });
}

TEST(Spectrum, PeaksNearInjectedWavenumber) {
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    SolverConfig cfg;
    cfg.n = 32;
    cfg.viscosity = 0.02;
    SpectralEngine solver(comm, cfg);
    solver.init_isotropic(4, 4.0, 0.5);
    const auto spec = solver.spectrum();
    std::size_t peak = 0;
    for (std::size_t s = 1; s < spec.size(); ++s) {
      if (spec[s] > spec[peak]) peak = s;
    }
    EXPECT_GE(peak, 3u);
    EXPECT_LE(peak, 5u);
    // Total spectrum equals total energy.
    double total = 0.0;
    for (const double e : spec) total += e;
    EXPECT_NEAR(total, solver.diagnostics().energy, 1e-10);
  });
}

TEST(Statistics, SpectrumEnergyAndEnstrophyIdentities) {
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    SolverConfig cfg;
    cfg.n = 24;
    cfg.viscosity = 0.02;
    SpectralEngine solver(comm, cfg);
    solver.init_isotropic(6, 3.0, 0.5);
    const auto spec = solver.spectrum();
    const auto d = solver.diagnostics();
    EXPECT_NEAR(spectrum_energy(spec), d.energy, 1e-10);
    // eps = 2 nu Omega; the shell-binned enstrophy rounds |k| to integers,
    // so agreement is approximate.
    EXPECT_NEAR(2.0 * cfg.viscosity * enstrophy(spec), d.dissipation,
                0.1 * d.dissipation);
  });
}

TEST(Statistics, IntegralScaleIsPositiveAndBelowBox) {
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    SolverConfig cfg;
    cfg.n = 24;
    cfg.viscosity = 0.02;
    SpectralEngine solver(comm, cfg);
    solver.init_isotropic(2, 3.0, 0.5);
    const double L = integral_length_scale(solver.spectrum());
    EXPECT_GT(L, 0.0);
    EXPECT_LT(L, 2.0 * std::numbers::pi);
    // Energy peaked at k ~ 3 puts L near pi*3/(4*3) ~ O(1).
    EXPECT_GT(L, 0.2);
  });
}

TEST(Statistics, KmaxEta) {
  EXPECT_DOUBLE_EQ(kmax_eta(18432, 0.001), 6.144);
  EXPECT_DOUBLE_EQ(kmax_eta(0, 1.0), 0.0);
}

TEST(TransferSpectrum, NonlinearTermConservesEnergy) {
  // The projected, dealiased (Galerkin-truncated) nonlinear term moves
  // energy between shells without creating or destroying it.
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    SolverConfig cfg;
    cfg.n = 24;
    cfg.viscosity = 0.01;
    SpectralEngine solver(comm, cfg);
    solver.init_isotropic(4, 3.0, 0.6);
    for (int s = 0; s < 3; ++s) solver.step(0.01);

    const auto transfer = solver.transfer_spectrum();
    double net = 0.0, gross = 0.0;
    for (const double t : transfer) {
      net += t;
      gross += std::abs(t);
    }
    EXPECT_GT(gross, 0.0);
    EXPECT_LT(std::abs(net), 1e-8 * gross);
  });
}

TEST(TransferSpectrum, CascadeMovesEnergyDownscale) {
  // After the cascade develops, the energetic shells lose energy
  // (T < 0 near the spectral peak) and the small scales gain it.
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    SolverConfig cfg;
    cfg.n = 32;
    cfg.viscosity = 0.01;
    SpectralEngine solver(comm, cfg);
    solver.init_isotropic(10, 3.0, 1.0);
    for (int s = 0; s < 8; ++s) solver.step(0.01);

    const auto transfer = solver.transfer_spectrum();
    // Net transfer out of the large scales (k <= 3), into k > 5.
    double large = 0.0, small = 0.0;
    for (std::size_t k = 0; k < transfer.size(); ++k) {
      if (k <= 3) large += transfer[k];
      if (k > 5) small += transfer[k];
    }
    EXPECT_LT(large, 0.0);
    EXPECT_GT(small, 0.0);
  });
}

TEST(TransferSpectrum, ExcludesForcing) {
  // T(k) is the nonlinear transfer only; the same state with forcing
  // enabled must report the same transfer.
  auto run = [&](bool forced) {
    std::vector<double> t;
    comm::run_ranks(2, [&](comm::Communicator& comm) {
      SolverConfig cfg;
      cfg.n = 16;
      cfg.viscosity = 0.02;
      cfg.forcing.enabled = forced;
      cfg.forcing.power = 1.0;
      SpectralEngine solver(comm, cfg);
      solver.init_isotropic(5, 3.0, 0.5);
      auto transfer = solver.transfer_spectrum();
      if (comm.rank() == 0) t = transfer;
    });
    return t;
  };
  const auto plain = run(false);
  const auto forced = run(true);
  ASSERT_EQ(plain.size(), forced.size());
  for (std::size_t k = 0; k < plain.size(); ++k) {
    EXPECT_DOUBLE_EQ(plain[k], forced[k]) << "k=" << k;
  }
}

// --- vorticity, helicity, two-point statistics ---

TEST(Vorticity, CurlOfAbcFlowIsProportional) {
  // The ABC flow with a = b = c is a Beltrami field: omega = u (lambda=1),
  // making helicity maximal and the curl easy to verify mode by mode.
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    SolverConfig cfg;
    cfg.n = 16;
    cfg.viscosity = 0.01;
    SpectralEngine solver(comm, cfg);
    solver.init_from_function([](double x, double y, double z) {
      return std::array<double, 3>{std::sin(z) + std::cos(y),
                                   std::sin(x) + std::cos(z),
                                   std::sin(y) + std::cos(x)};
    });
    const std::size_t m = solver.modes().local_modes();
    std::vector<Complex> wx(m), wy(m), wz(m);
    curl(solver.modes(), solver.uhat(0), solver.uhat(1), solver.uhat(2),
         wx.data(), wy.data(), wz.data());
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_LT(std::abs(wx[i] - solver.uhat(0)[i]), 1e-12);
      EXPECT_LT(std::abs(wy[i] - solver.uhat(1)[i]), 1e-12);
      EXPECT_LT(std::abs(wz[i] - solver.uhat(2)[i]), 1e-12);
    }
    // Beltrami: helicity = 2 * energy (omega = u).
    const double h = helicity(solver.modes(), comm, solver.uhat(0),
                              solver.uhat(1), solver.uhat(2));
    const double e = solver.diagnostics().energy;
    EXPECT_NEAR(h, 2.0 * e, 1e-10);
  });
}

TEST(Vorticity, EnstrophyTiesToDissipation) {
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    SolverConfig cfg;
    cfg.n = 24;
    cfg.viscosity = 0.03;
    SpectralEngine solver(comm, cfg);
    solver.init_isotropic(4, 3.0, 0.5);
    const double omega = enstrophy_exact(solver.modes(), comm,
                                         solver.uhat(0), solver.uhat(1),
                                         solver.uhat(2));
    EXPECT_NEAR(2.0 * cfg.viscosity * omega,
                solver.diagnostics().dissipation, 1e-10);
  });
}

TEST(Vorticity, RandomFieldHelicityIsSmallAndSpectrumSums) {
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    SolverConfig cfg;
    cfg.n = 24;
    cfg.viscosity = 0.02;
    SpectralEngine solver(comm, cfg);
    solver.init_isotropic(8, 3.0, 0.5);
    const double h = helicity(solver.modes(), comm, solver.uhat(0),
                              solver.uhat(1), solver.uhat(2));
    const auto hs = helicity_spectrum(solver.modes(), comm, solver.uhat(0),
                                      solver.uhat(1), solver.uhat(2));
    double total = 0.0;
    for (const double v : hs) total += v;
    EXPECT_NEAR(total, h, 1e-10);
    // Random phases: |H| well below the maximal 2E * k bound.
    EXPECT_LT(std::abs(h), 2.0 * solver.diagnostics().energy * 8.0);
  });
}

TEST(TwoPoint, CorrelationIsOneAtZeroAndDecays) {
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    SolverConfig cfg;
    cfg.n = 32;
    cfg.viscosity = 0.02;
    SpectralEngine solver(comm, cfg);
    solver.init_isotropic(5, 4.0, 0.5);
    const auto spec = solver.spectrum();
    const std::vector<double> r{0.0, 0.2, 0.5, 1.0, 2.0};
    const auto f = longitudinal_correlation(spec, r);
    EXPECT_NEAR(f[0], 1.0, 1e-10);
    EXPECT_LT(f[1], 1.0);
    EXPECT_GT(f[1], f[2]);
    EXPECT_GT(f[2], f[4]);
  });
}

TEST(TwoPoint, StructureFunctionComplementsCorrelation) {
  comm::run_ranks(1, [&](comm::Communicator& comm) {
    SolverConfig cfg;
    cfg.n = 24;
    cfg.viscosity = 0.02;
    SpectralEngine solver(comm, cfg);
    solver.init_isotropic(6, 3.0, 0.6);
    const auto spec = solver.spectrum();
    const std::vector<double> r{0.0, 0.3, 1.0};
    const auto f = longitudinal_correlation(spec, r);
    const auto s2 = structure_function_2(spec, r);
    const double e = solver.diagnostics().energy;
    const double uprime2 = 2.0 * e / 3.0;
    for (std::size_t i = 0; i < r.size(); ++i) {
      EXPECT_NEAR(s2[i], 2.0 * uprime2 * (1.0 - f[i]), 1e-12);
    }
    EXPECT_NEAR(s2[0], 0.0, 1e-10);
    EXPECT_GT(s2[2], s2[1]);
  });
}

// --- spectral regridding ---

TEST(Regrid, UpsamplingPreservesEverySharedMode) {
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    SolverConfig small;
    small.n = 16;
    small.viscosity = 0.02;
    SolverConfig big = small;
    big.n = 32;

    SpectralEngine a(comm, small);
    a.init_isotropic(3, 3.0, 0.5);
    for (int s = 0; s < 2; ++s) a.step(0.01);

    SpectralEngine b(comm, big);
    spectral_regrid(a, b);

    EXPECT_DOUBLE_EQ(b.time(), a.time());
    EXPECT_EQ(b.step_count(), a.step_count());

    const auto ea = a.diagnostics();
    const auto eb = b.diagnostics();
    EXPECT_NEAR(eb.energy, ea.energy, 1e-12);
    EXPECT_NEAR(eb.dissipation, ea.dissipation, 1e-10);
    EXPECT_LT(eb.max_divergence, 1e-12);

    const auto sa = a.spectrum();
    const auto sb = b.spectrum();
    // Shells fully representable on the small grid match exactly. (The
    // small grid's corner modes reach |k| ~ 5*sqrt(3) ~ 8.7, which its own
    // spectrum array truncates at shell N/2 = 8 but the fine grid resolves
    // into shell 9, so only shells 0..7 are comparable arrays.)
    for (std::size_t k = 0; k + 1 < sa.size(); ++k) {
      EXPECT_NEAR(sb[k], sa[k], 1e-12) << "shell " << k;
    }
    // Nothing can appear beyond the small grid's corner radius.
    for (std::size_t k = 10; k < sb.size(); ++k) {
      EXPECT_EQ(sb[k], 0.0) << "new shell " << k;
    }
  });
}

TEST(Regrid, PhaseShiftedDestinationKeepsItsSphere) {
  // A phase-shifted engine truncates with the sqrt(2)/3 N sphere, which
  // keeps modes outside the 2/3 cube: regridding into one (here at the
  // same n, a copy) must keep every such mode the source holds.
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    SolverConfig config;
    config.n = 32;
    config.phase_shift_dealias = true;
    SpectralEngine a(comm, config);
    a.init_isotropic(5, 9.0, 0.5);
    SpectralEngine b(comm, config);
    spectral_regrid(a, b);

    std::size_t beyond_cube = 0;
    for (std::size_t f = 0; f < a.field_count(); ++f) {
      const std::size_t modes = a.modes().local_modes();
      std::vector<Complex> cube(a.field(f), a.field(f) + modes);
      dealias_truncate(a.modes(), cube.data());
      for (std::size_t i = 0; i < modes; ++i) {
        if (cube[i] == Complex{0.0, 0.0} && a.field(f)[i] != cube[i]) {
          ++beyond_cube;
          ASSERT_EQ(b.field(f)[i], a.field(f)[i]) << "field " << f << " mode "
                                                  << i;
        }
      }
    }
    EXPECT_GT(beyond_cube, 0u);
  });
}

TEST(Regrid, TaylorGreenStaysExactOnTheFinerGrid) {
  // The TG vortex is band-limited, so regridding is lossless and the finer
  // grid must continue the analytic decay.
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    SolverConfig small;
    small.n = 16;
    small.viscosity = 0.05;
    SolverConfig big = small;
    big.n = 32;

    SpectralEngine a(comm, small);
    a.init_taylor_green();
    for (int s = 0; s < 5; ++s) a.step(0.02);

    SpectralEngine b(comm, big);
    spectral_regrid(a, b);
    for (int s = 0; s < 5; ++s) b.step(0.02);

    const double want = 0.25 * std::exp(-4.0 * 0.05 * b.time());
    EXPECT_NEAR(b.diagnostics().energy, want, 1e-8);
  });
}

TEST(Regrid, DownsamplingTruncatesHighShells) {
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    SolverConfig big;
    big.n = 32;
    big.viscosity = 0.02;
    SolverConfig small = big;
    small.n = 16;

    SpectralEngine a(comm, big);
    a.init_isotropic(9, 5.0, 0.5);  // energy up to shell 10

    SpectralEngine b(comm, small);
    spectral_regrid(a, b);

    const auto sa = a.spectrum();
    const auto sb = b.spectrum();
    // Shared shells below the small grid's dealiasing cutoff survive.
    const std::size_t cutoff = (16 - 1) / 3;
    for (std::size_t k = 0; k <= cutoff; ++k) {
      EXPECT_NEAR(sb[k], sa[k], 1e-12) << "shell " << k;
    }
    // The destination is properly dealiased and integrable.
    EXPECT_LT(b.diagnostics().max_divergence, 1e-12);
    b.step(0.01);
  });
}

TEST(Regrid, CarriesScalars) {
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    SolverConfig small;
    small.n = 16;
    small.viscosity = 0.02;
    small.scalars = {{.schmidt = 1.0}};
    SolverConfig big = small;
    big.n = 24;

    SpectralEngine a(comm, small);
    a.init_isotropic(1, 3.0, 0.5);
    a.init_scalar_isotropic(0, 2, 3.0, 0.3);

    SpectralEngine b(comm, big);
    spectral_regrid(a, b);
    EXPECT_NEAR(b.scalar_diagnostics(0).variance,
                a.scalar_diagnostics(0).variance, 1e-12);
  });

  // MHD carries three extra fields and no scalars: the magnetic field
  // crosses too, here onto a pencil destination.
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    SolverConfig small;
    small.n = 16;
    small.viscosity = 0.02;
    small.system = SystemType::Mhd;
    SolverConfig big = small;
    big.n = 24;
    big.decomposition = transpose::Decomposition::Pencil;

    SpectralEngine a(comm, small);
    a.init_isotropic(1, 3.0, 0.5);
    a.init_magnetic_isotropic(2, 3.0, 0.3);

    SpectralEngine b(comm, big);
    spectral_regrid(a, b);
    const auto magnetic_energy = [](SpectralEngine& e) {
      for (const auto& nv : e.system_diagnostics()) {
        if (nv.name == "magnetic_energy") return nv.value;
      }
      return -1.0;
    };
    const double ea = magnetic_energy(a);
    const double eb = magnetic_energy(b);
    EXPECT_GT(ea, 0.0);
    EXPECT_NEAR(eb, ea, 1e-12);
    EXPECT_NEAR(b.diagnostics().energy, a.diagnostics().energy, 1e-12);
  });
}

TEST(Regrid, RejectsMismatchedScalars) {
  comm::run_ranks(1, [&](comm::Communicator& comm) {
    SolverConfig sa;
    sa.n = 16;
    SolverConfig sb;
    sb.n = 32;
    sb.scalars = {{.schmidt = 1.0}};
    SpectralEngine a(comm, sa);
    SpectralEngine b(comm, sb);
    EXPECT_THROW(spectral_regrid(a, b), util::Error);

    // Same field count (3 + 3), different systems.
    SolverConfig mhd = sa;
    mhd.system = SystemType::Mhd;
    SolverConfig scalars = sa;
    scalars.scalars.assign(3, ScalarConfig{});
    SpectralEngine c(comm, mhd);
    SpectralEngine d(comm, scalars);
    ASSERT_EQ(c.field_count(), d.field_count());
    EXPECT_THROW(spectral_regrid(c, d), util::Error);
    EXPECT_THROW(spectral_regrid(d, c), util::Error);
  });
}

// --- instrumentation volume ---

/// Runs `cfg` on `ranks` rank threads (Taylor-Green start, one warm-up
/// step) and returns how far each named registry histogram count, then each
/// named counter, moved over one more step.
std::vector<std::int64_t> warmed_step_deltas(
    int ranks, const SolverConfig& cfg,
    const std::vector<std::string>& histograms,
    const std::vector<std::string>& counters) {
  const auto read = [&] {
    std::vector<std::int64_t> v;
    for (const auto& h : histograms) {
      v.push_back(obs::registry().histogram(h).count);
    }
    for (const auto& c : counters) v.push_back(obs::registry().counter(c));
    return v;
  };
  std::vector<std::int64_t> before, after;
  comm::run_ranks(ranks, [&](comm::Communicator& comm) {
    SpectralEngine solver(comm, cfg);
    solver.init_taylor_green();
    solver.step(1e-3);  // warm-up
    comm.barrier();
    if (comm.rank() == 0) before = read();
    comm.barrier();
    solver.step(1e-3);
    comm.barrier();
    if (comm.rank() == 0) after = read();
  });
  for (std::size_t i = 0; i < after.size(); ++i) after[i] -= before[i];
  return after;
}

TEST(Instrumentation, SlabStepSpanCountsAreExact) {
  // Every obs::TraceSpan feeds the histogram named after it, so the span
  // volume of a warmed step is a deterministic function of the engine's
  // call structure. RK2 makes two RHS evaluations; each is one round trip:
  // a 3-field y-inverse and z_to_y (np/q = 4 chunks, one one-copy
  // all-to-all each), the plane-group loop (z and x passes and the
  // products, one span for all groups, and inside it one span per pass
  // and one for the kernel, each summed over the groups), then a
  // 5-product y_to_z (4 chunks)
  // and y-forward. No x or z pass runs outside the group loop, and the
  // staged pack/unpack primitives are not on this path.
  constexpr int kRanks = 2, kRhs = 2, kChunks = 4;
  const std::vector<std::pair<std::string, std::int64_t>> expected = {
      {"transpose.pack_z", 0},
      {"transpose.unpack_y", 0},
      {"transpose.pack_y", 0},
      {"transpose.unpack_z", 0},
      {"comm.alltoall", kRanks * 2 * kChunks * kRhs},
      {"slab_fft.inverse.y", kRanks * kRhs},
      {"slab_fft.planes", kRanks * kRhs},
      {"slab_fft.group.inverse.z", kRanks * kRhs},
      {"slab_fft.group.inverse.x", kRanks * kRhs},
      {"slab_fft.group.kernel", kRanks * kRhs},
      {"slab_fft.group.forward.x", kRanks * kRhs},
      {"slab_fft.group.forward.z", kRanks * kRhs},
      {"slab_fft.inverse.z", 0},
      {"slab_fft.inverse.x", 0},
      {"slab_fft.forward.x", 0},
      {"slab_fft.forward.z", 0},
      {"slab_fft.forward.y", kRanks * kRhs},
  };
  SolverConfig cfg;
  cfg.n = 16;
  cfg.viscosity = 0.02;
  cfg.scheme = TimeScheme::RK2;
  cfg.pencils = kChunks;
  cfg.pencils_per_a2a = 1;
  std::vector<std::string> names;
  for (const auto& e : expected) names.push_back(e.first);
  const auto got = warmed_step_deltas(kRanks, cfg, names, {});
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(got[i], expected[i].second) << expected[i].first;
  }
  // Strided copies run inside the exchange spans and carry none of their
  // own.
  EXPECT_EQ(obs::registry().snapshot().histograms.count("gpu.memcpy2d"), 0u);
}

TEST(Instrumentation, PencilStepSpanCountsAreExact) {
  // 2x2 pencil NS: a pencil transform moves one variable at a time through
  // two exchanges (row and column), so each RHS evaluation makes
  // 2 * (3 fields + 5 products) comm.alltoall calls per rank; none is the
  // v-variant any more. The x passes run inside the round trip's line-group
  // loop, which carries one span for all its groups.
  constexpr int kRanks = 4, kRhs = 2, kVelocity = 3, kProducts = 5;
  const std::vector<std::pair<std::string, std::int64_t>> expected = {
      {"comm.alltoall", kRanks * 2 * (kVelocity + kProducts) * kRhs},
      {"comm.alltoallv", 0},
      {"pencil_fft.inverse.z", kRanks * kVelocity * kRhs},
      {"pencil_fft.inverse.x", 0},
      {"pencil_fft.lines", kRanks * kRhs},
      {"pencil_fft.forward.x", 0},
      {"pencil_fft.forward.z", kRanks * kProducts * kRhs},
  };
  SolverConfig cfg;
  cfg.n = 16;
  cfg.viscosity = 0.02;
  cfg.scheme = TimeScheme::RK2;
  cfg.decomposition = transpose::Decomposition::Pencil;
  std::vector<std::string> names;
  for (const auto& e : expected) names.push_back(e.first);
  const auto got = warmed_step_deltas(kRanks, cfg, names, {});
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(got[i], expected[i].second) << expected[i].first;
  }
}

TEST(Instrumentation, TransposesCopyEachByteOnce) {
  // transpose.copy_bytes counts every copy a transpose makes; the
  // all-to-all counts the bytes it delivers. A one-copy exchange makes them
  // equal exactly (a staged pack -> all-to-all -> unpack reads 3x).
  struct Case {
    const char* name;
    int ranks;
    transpose::Decomposition decomposition;
    SystemType system;
    int pencils;
  };
  const Case cases[] = {
      {"slab NS 1 rank np=1", 1, transpose::Decomposition::Slab,
       SystemType::NavierStokes, 1},
      {"slab NS 1 rank np=4", 1, transpose::Decomposition::Slab,
       SystemType::NavierStokes, 4},
      {"slab NS 2 ranks np=1", 2, transpose::Decomposition::Slab,
       SystemType::NavierStokes, 1},
      {"slab NS 2 ranks np=4", 2, transpose::Decomposition::Slab,
       SystemType::NavierStokes, 4},
      {"pencil MHD 1x2", 2, transpose::Decomposition::Pencil,
       SystemType::Mhd, 1},
      {"pencil MHD 2x2", 4, transpose::Decomposition::Pencil,
       SystemType::Mhd, 1},
  };
  for (const auto& c : cases) {
    SolverConfig cfg;
    cfg.n = 16;
    cfg.viscosity = 0.02;
    cfg.scheme = TimeScheme::RK2;
    cfg.decomposition = c.decomposition;
    cfg.system = c.system;
    cfg.pencils = c.pencils;
    cfg.pencils_per_a2a = 1;
    const auto got = warmed_step_deltas(
        c.ranks, cfg, {}, {"transpose.copy_bytes", "comm.alltoall.bytes"});
    EXPECT_GT(got[1], 0) << c.name;
    EXPECT_EQ(got[0], got[1]) << c.name;
  }
}

TEST(Instrumentation, AlltoallBytesAreTwoTransformsPerFieldAndProduct) {
  // An RK2 step makes two RHS evaluations, and each transforms the nf
  // fields inverse and the nprod products forward. Every transform moves
  // the spectral field once per global transpose (one for the slab, two
  // for the pencil), and the counter sums the bytes each rank receives.
  // The slab moves only the 2/3 band's W = 6 of the nxh = 9 kx columns;
  // the pencil ignores the band and moves all of them. NS: 3 fields + 5
  // products; MHD: 6 fields + 8 products.
  struct Case {
    const char* name;
    transpose::Decomposition decomposition;
    SystemType system;
    std::int64_t fields_and_products, transposes, columns;
  };
  const Case cases[] = {
      {"slab NS 2 ranks", transpose::Decomposition::Slab,
       SystemType::NavierStokes, 3 + 5, 1, 6},
      {"pencil MHD 1x2", transpose::Decomposition::Pencil, SystemType::Mhd,
       6 + 8, 2, 9},
  };
  constexpr std::int64_t kRhs = 2;
  for (const auto& c : cases) {
    SolverConfig cfg;
    cfg.n = 16;
    cfg.viscosity = 0.02;
    cfg.scheme = TimeScheme::RK2;
    cfg.decomposition = c.decomposition;
    cfg.system = c.system;
    const std::int64_t field_bytes =
        c.columns * static_cast<std::int64_t>(cfg.n * cfg.n * sizeof(Complex));
    const auto got = warmed_step_deltas(2, cfg, {}, {"comm.alltoall.bytes"});
    EXPECT_EQ(got[0],
              kRhs * c.fields_and_products * c.transposes * field_bytes)
        << c.name;
  }
}

}  // namespace
}  // namespace psdns::dns
