// Tests of the EquationSystem layer (ctest label: equation-systems).
//
// Five groups:
//  - construction/validation: system parsing, make_equation_system's
//    parameter checks, and the typed forcing-band validation;
//  - reduced product sets: each system's trace-shifted products give the
//    RHS of the full product tensor to round-off;
//  - in-place assembly: each system's RHS written over its own product
//    spectra is bitwise the RHS written to a separate block;
//  - regression: the NavierStokes system must reproduce the pre-refactor
//    Navier-Stokes engine diagnostics (values pinned from the last commit
//    before the engine/system split, same configurations the bitwise
//    digest harness used);
//  - physics: each new system is validated against an exact linear-wave
//    solution (inertial, internal-gravity, Alfven - configurations whose
//    nonlinear terms vanish identically, so the analytic mode evolution is
//    exact up to time-integration error), plus slab/pencil equivalence of
//    diagnostics and named spectra;
//  - the spectral pass: steps are bitwise the unfused chain of full-field
//    operators, and nothing reads or feeds the transforms a mode outside
//    the band (poisoned scratch, checked round-trip inputs).

#include <gtest/gtest.h>

#include <array>
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numbers>
#include <string>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "dns/spectral_core.hpp"
#include "dns/systems/equation_system.hpp"
#include "transpose/dist_fft.hpp"
#include "util/rng.hpp"

namespace psdns::dns {
namespace {

/// Reads one spectral coefficient of field f by global wavenumber,
/// whichever rank owns it (collective; kx must be in [0, n/2]).
Complex probe_mode(SpectralEngine& solver, comm::Communicator& comm,
                   std::size_t f, int kx, int ky, int kz) {
  double re = 0.0, im = 0.0;
  const Complex* a = solver.field(f);
  for_each_mode(solver.modes(), [&](std::size_t idx, int mx, int my, int mz) {
    if (mx == kx && my == ky && mz == kz) {
      re = a[idx].real();
      im = a[idx].imag();
    }
  });
  return {comm.allreduce_sum(re), comm.allreduce_sum(im)};
}

// --- construction and validation -----------------------------------------

TEST(EquationSystem, SystemTypeParseRoundTrip) {
  for (const auto s : {SystemType::NavierStokes, SystemType::RotatingNS,
                       SystemType::Boussinesq, SystemType::Mhd}) {
    EXPECT_EQ(parse_system_type(to_string(s)), s);
  }
  EXPECT_THROW(parse_system_type("ideal_gas"), util::Error);
  EXPECT_THROW(parse_system_type(""), util::Error);
}

TEST(EquationSystem, MakeRejectsMisconfiguredSystems) {
  SolverConfig cfg;
  cfg.system = SystemType::RotatingNS;
  cfg.rotation_omega = 0.0;
  EXPECT_THROW(make_equation_system(cfg), util::Error);

  cfg = SolverConfig{};
  cfg.system = SystemType::Boussinesq;
  cfg.brunt_vaisala = 0.0;
  EXPECT_THROW(make_equation_system(cfg), util::Error);
  cfg.brunt_vaisala = 1.0;
  cfg.scalars.clear();  // the engine materializes this before construction
  EXPECT_THROW(make_equation_system(cfg), util::Error);
  cfg.scalars.push_back(ScalarConfig{1.0, 0.5});  // buoyancy != mean-gradient
  EXPECT_THROW(make_equation_system(cfg), util::Error);

  cfg = SolverConfig{};
  cfg.system = SystemType::Mhd;
  cfg.scalars.push_back(ScalarConfig{});
  EXPECT_THROW(make_equation_system(cfg), util::Error);
  cfg.scalars.clear();
  cfg.resistivity = -0.1;
  EXPECT_THROW(make_equation_system(cfg), util::Error);
}

TEST(EquationSystem, FieldInventoryAndNames) {
  SolverConfig cfg;
  cfg.scalars.push_back(ScalarConfig{});
  const auto ns = make_equation_system(cfg);
  EXPECT_STREQ(ns->name(), "navier_stokes");
  EXPECT_EQ(ns->extra_fields(), 1u);
  EXPECT_EQ(ns->product_count(), 8u);  // 5 trace-free velocity + 3 flux
  EXPECT_EQ(ns->magnetic_base(), -1);
  EXPECT_EQ(ns->field_name(0), "u");
  EXPECT_EQ(ns->field_name(3), "scalar0");

  cfg = SolverConfig{};
  cfg.system = SystemType::Mhd;
  const auto mhd = make_equation_system(cfg);
  EXPECT_STREQ(mhd->name(), "mhd");
  EXPECT_EQ(mhd->extra_fields(), 3u);
  EXPECT_EQ(mhd->product_count(), 8u);  // the Elsasser tensor less G33
  EXPECT_EQ(mhd->magnetic_base(), 3);
  EXPECT_EQ(mhd->field_name(3), "bx");
  EXPECT_EQ(mhd->field_name(5), "bz");
  const auto groups = mhd->spectra();
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].name, "kinetic");
  EXPECT_EQ(groups[1].name, "magnetic");
}

TEST(Forcing, ValidationRejectsMeaninglessBands) {
  ForcingConfig f;
  f.enabled = false;
  f.klo = 0;  // never read while disabled
  EXPECT_NO_THROW(validate_forcing(f));

  f.enabled = true;
  EXPECT_THROW(validate_forcing(f), ForcingError);
  f.klo = 3;
  f.khi = 2;  // inverted band
  EXPECT_THROW(validate_forcing(f), ForcingError);
  f.khi = 4;
  f.power = 0.0;
  EXPECT_THROW(validate_forcing(f), ForcingError);
  f.power = 0.1;
  EXPECT_NO_THROW(validate_forcing(f));
}

TEST(Forcing, EngineRejectsBadBandAtConstruction) {
  comm::run_ranks(1, [](comm::Communicator& comm) {
    SolverConfig cfg;
    cfg.n = 16;
    cfg.forcing.enabled = true;
    cfg.forcing.klo = 0;
    EXPECT_THROW(SpectralEngine(comm, cfg), ForcingError);
  });
}

// --- NavierStokes regression against the pre-refactor core ---------------
//
// The two configurations below are the bitwise digest cases used to verify
// the refactor; the diagnostics are pinned from the pre-refactor build.
// The tolerance (1e-11 on O(0.1..1) quantities) absorbs FMA-contraction
// differences between -march=native and baseline builds while failing on
// any genuine change to the arithmetic.

TEST(SystemsRegression, NavierStokesRk2MatchesPreRefactorCore) {
  comm::run_ranks(1, [](comm::Communicator& comm) {
    SolverConfig cfg;
    cfg.n = 32;
    cfg.viscosity = 0.02;
    cfg.scheme = TimeScheme::RK2;
    SpectralEngine solver(comm, cfg);
    solver.init_isotropic(7, 3.0, 0.5);
    for (int s = 0; s < 5; ++s) solver.step(0.005);
    const auto d = solver.diagnostics();
    EXPECT_NEAR(d.energy, 0.49395919833698743, 1e-11);
    EXPECT_NEAR(d.dissipation, 0.23987796378171505, 1e-11);
    EXPECT_LT(d.max_divergence, 1e-12);
    // The default system publishes the kinetic spectrum and nothing else.
    EXPECT_TRUE(solver.system_diagnostics().empty());
    const auto spectra = solver.named_spectra();
    ASSERT_EQ(spectra.size(), 1u);
    EXPECT_EQ(spectra[0].first, "kinetic");
    double total = 0.0;
    for (const double e : spectra[0].second) total += e;
    EXPECT_NEAR(total, d.energy, 1e-12);
  });
}

TEST(SystemsRegression, NavierStokesRk4ForcedScalarMatchesPreRefactorCore) {
  comm::run_ranks(2, [](comm::Communicator& comm) {
    SolverConfig cfg;
    cfg.n = 24;
    cfg.viscosity = 0.015;
    cfg.scheme = TimeScheme::RK4;
    cfg.phase_shift_dealias = true;
    cfg.forcing.enabled = true;
    cfg.forcing.klo = 1;
    cfg.forcing.khi = 2;
    cfg.forcing.power = 0.2;
    cfg.scalars.push_back(ScalarConfig{0.7, 1.0});
    SpectralEngine solver(comm, cfg);
    solver.init_isotropic(11, 3.0, 0.4);
    solver.init_scalar_isotropic(0, 13, 3.0, 0.2);
    for (int s = 0; s < 4; ++s) solver.step(0.004);
    const auto d = solver.diagnostics();
    const auto sd = solver.scalar_diagnostics(0);
    EXPECT_NEAR(d.energy, 0.4009051475146912, 1e-11);
    EXPECT_NEAR(d.dissipation, 0.14310226651962918, 1e-11);
    EXPECT_NEAR(sd.variance, 0.19833057681255509, 1e-11);
    EXPECT_NEAR(sd.flux_y, 0.00014199199641968998, 1e-12);
  });
}

// --- reduced product sets -------------------------------------------------

/// The products the systems transformed before the trace was shifted out:
/// all six u_i u_j then three fluxes per scalar (NS), or all nine Elsasser
/// products G_im = z+_i z-_m row-major in (i, m) (MHD).
std::size_t full_product_count(bool mhd, std::size_t nscalars) {
  return mhd ? 9 : 6 + 3 * nscalars;
}

void full_products(bool mhd, std::size_t nscalars, const Real* const* f,
                   Real* const* p, std::size_t m) {
  for (std::size_t idx = 0; idx < m; ++idx) {
    if (mhd) {
      for (int i = 0; i < 3; ++i) {
        for (int j = 0; j < 3; ++j) {
          p[3 * i + j][idx] =
              (f[i][idx] + f[3 + i][idx]) * (f[j][idx] - f[3 + j][idx]);
        }
      }
      continue;
    }
    const int pairs[6][2] = {{0, 0}, {1, 1}, {2, 2}, {0, 1}, {0, 2}, {1, 2}};
    for (int t = 0; t < 6; ++t) {
      p[t][idx] = f[pairs[t][0]][idx] * f[pairs[t][1]][idx];
    }
    for (std::size_t s = 0; s < nscalars; ++s) {
      for (std::size_t c = 0; c < 3; ++c) {
        p[6 + 3 * s + c][idx] = f[c][idx] * f[3 + s][idx];
      }
    }
  }
}

/// The nonlinear RHS of the full product spectra: -P(i k_m (G_im + G_mi)/2)
/// for the velocity, -i k_m (G_im - G_mi)/2 for the magnetic field (MHD),
/// -i k . F per scalar (NS). Linear-in-state terms are not included.
void full_nonlinear_rhs(const ModeView& view, bool mhd, std::size_t nscalars,
                        const Complex* const* p, Complex* const* rhs) {
  const Complex mi{0.0, -1.0};
  for_each_mode(view, [&](std::size_t idx, int kx, int ky, int kz) {
    const double k[3] = {static_cast<double>(kx), static_cast<double>(ky),
                         static_cast<double>(kz)};
    Complex g[3][3];
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) {
        if (mhd) {
          g[i][j] = p[3 * i + j][idx];
        } else {
          const int lo = std::min(i, j), hi = std::max(i, j);
          const int t = lo == hi ? lo : 2 + lo + hi;  // 01 -> 3, 02 -> 4, 12 -> 5
          g[i][j] = p[t][idx];
        }
      }
    }
    Complex sym[3], asym[3];
    for (int i = 0; i < 3; ++i) {
      sym[i] = asym[i] = Complex{0.0, 0.0};
      for (int m = 0; m < 3; ++m) {
        sym[i] += 0.5 * mi * k[m] * (g[i][m] + g[m][i]);
        asym[i] += 0.5 * mi * k[m] * (g[i][m] - g[m][i]);
      }
    }
    const double k2 = k[0] * k[0] + k[1] * k[1] + k[2] * k[2];
    const Complex kds =
        k2 > 0.0 ? (k[0] * sym[0] + k[1] * sym[1] + k[2] * sym[2]) / k2
                 : Complex{0.0, 0.0};
    for (int i = 0; i < 3; ++i) {
      rhs[i][idx] = k2 > 0.0 ? sym[i] - k[i] * kds : Complex{0.0, 0.0};
      if (mhd) rhs[3 + i][idx] = asym[i];
    }
    for (std::size_t s = 0; s < nscalars; ++s) {
      const Complex* const* flux = p + 6 + 3 * s;
      rhs[3 + s][idx] = mi * (k[0] * flux[0][idx] + k[1] * flux[1][idx] +
                              k[2] * flux[2][idx]);
    }
  });
}

/// One RHS evaluation of cfg's system through the public path (form the
/// products, DistFft3d::forward, undo the phase shift, scale and truncate,
/// assemble_rhs) against the same path with the full product set and the
/// reference assembly, on `ranks` ranks of `decomposition`. Asserts every
/// field's RHS agrees to 1e-13 of its max norm.
void expect_reduced_products_match_full(SolverConfig cfg, int ranks,
                                        transpose::Decomposition decomposition,
                                        bool shift) {
  cfg.n = 16;
  cfg.phase_shift_dealias = shift;
  const bool mhd = cfg.system == SystemType::Mhd;
  comm::run_ranks(ranks, [&](comm::Communicator& comm) {
    const auto system = make_equation_system(cfg);
    auto fft = transpose::make_dist_fft(comm, cfg.n, decomposition);
    const ModeView view = fft->mode_view();
    const std::size_t nf = system->field_count();
    const std::size_t nscalars = cfg.scalars.size();
    const std::size_t m = fft->physical_elems();
    const std::size_t spec = fft->spectral_elems();
    const double n3 = static_cast<double>(cfg.n * cfg.n * cfg.n);
    const DealiasRule rule =
        shift ? DealiasRule::sphere(std::sqrt(2.0) * cfg.n / 3.0)
              : DealiasRule::cube(cfg.n);
    double delta[3];
    std::fill(delta, delta + 3, std::numbers::pi / static_cast<double>(cfg.n));

    const auto blocks = [](auto& storage, std::size_t count,
                           std::size_t size) {
      storage.assign(count * size, {});
      std::vector<decltype(storage.data())> ptrs;
      for (std::size_t b = 0; b < count; ++b) {
        ptrs.push_back(storage.data() + b * size);
      }
      return ptrs;
    };
    // A dealiased random state, and its (shifted) physical fields.
    std::vector<Real> phys_store;
    std::vector<Complex> in_store, shifted_store;
    const auto phys = blocks(phys_store, nf, m);
    const auto in = blocks(in_store, nf, spec);
    util::Rng rng(2024, static_cast<std::uint64_t>(comm.rank()));
    for (Real& x : phys_store) x = rng.uniform(-1.0, 1.0);
    fft->forward(std::vector<const Real*>(phys.begin(), phys.end()), in);
    for (Complex* f : in) scale_and_truncate(view, f, 1.0 / n3, rule);
    const auto shifted = blocks(shifted_store, nf, spec);
    std::copy(in_store.begin(), in_store.end(), shifted_store.begin());
    if (shift) {
      for (Complex* f : shifted) phase_shift(view, f, delta, +1);
    }
    fft->inverse(std::vector<const Complex*>(shifted.begin(), shifted.end()),
                 phys);
    const std::vector<const Real*> fields(phys.begin(), phys.end());
    const std::vector<const Complex*> in_c(in.begin(), in.end());

    // Physical products -> normalized, dealiased product spectra.
    const auto transform = [&](std::size_t count, auto&& form,
                               std::vector<Complex>& spec_store) {
      std::vector<Real> prod_store;
      const auto prod = blocks(prod_store, count, m);
      form(prod.data());
      const auto hat = blocks(spec_store, count, spec);
      fft->forward(std::vector<const Real*>(prod.begin(), prod.end()), hat);
      for (Complex* p : hat) {
        if (shift) phase_shift(view, p, delta, -1);
        scale_and_truncate(view, p, 1.0 / n3, rule);
      }
      return std::vector<const Complex*>(hat.begin(), hat.end());
    };
    std::vector<Complex> reduced_store, full_store, zero_store;
    const auto reduced =
        transform(system->product_count(), [&](Real* const* p) {
          system->form_products(fields.data(), p, m);
        }, reduced_store);
    const std::size_t nfull = full_product_count(mhd, nscalars);
    const auto full = transform(nfull, [&](Real* const* p) {
      full_products(mhd, nscalars, fields.data(), p, m);
    }, full_store);

    std::vector<Complex> got_store, want_store, affine_store;
    const auto got = blocks(got_store, nf, spec);
    const auto want = blocks(want_store, nf, spec);
    const auto affine = blocks(affine_store, nf, spec);
    system->assemble_rhs(view, in_c.data(), reduced.data(), got.data());
    full_nonlinear_rhs(view, mhd, nscalars, full.data(), want.data());
    // The product-free (linear-in-state) terms: the system's RHS of zero
    // product spectra.
    const auto zeros = blocks(zero_store, system->product_count(), spec);
    system->assemble_rhs(
        view, in_c.data(),
        std::vector<const Complex*>(zeros.begin(), zeros.end()).data(),
        affine.data());
    for (std::size_t i = 0; i < want_store.size(); ++i) {
      want_store[i] += affine_store[i];
    }

    for (std::size_t f = 0; f < nf; ++f) {
      double err = 0.0, scale = 0.0;
      for (std::size_t i = 0; i < spec; ++i) {
        err = std::max(err, std::abs(got[f][i] - want[f][i]));
        scale = std::max(scale, std::abs(want[f][i]));
      }
      err = comm.allreduce_max(err);
      scale = comm.allreduce_max(scale);
      EXPECT_GT(scale, 0.0) << system->field_name(f);
      EXPECT_LE(err, 1e-13 * scale)
          << system->name() << " field " << system->field_name(f)
          << " ranks=" << ranks << " "
          << transpose::to_string(decomposition) << " shift=" << shift;
    }
  });
}

/// Slab at 1 and 2 ranks and a 1x2 pencil, phase shift off and on.
void expect_reduced_products_match_full(const SolverConfig& cfg) {
  for (const bool shift : {false, true}) {
    expect_reduced_products_match_full(cfg, 1, transpose::Decomposition::Slab,
                                       shift);
    expect_reduced_products_match_full(cfg, 2, transpose::Decomposition::Slab,
                                       shift);
    expect_reduced_products_match_full(
        cfg, 2, transpose::Decomposition::Pencil, shift);
  }
}

TEST(ReducedProducts, NavierStokesFiveMatchSix) {
  expect_reduced_products_match_full(SolverConfig{});
}

TEST(ReducedProducts, NavierStokesTwoScalarsMatchTwelve) {
  SolverConfig cfg;
  cfg.scalars.push_back(ScalarConfig{0.7, 1.0});  // with a mean gradient
  cfg.scalars.push_back(ScalarConfig{2.0, 0.0});
  expect_reduced_products_match_full(cfg);
}

TEST(ReducedProducts, RotatingMatchesFullProducts) {
  SolverConfig cfg;
  cfg.system = SystemType::RotatingNS;
  cfg.rotation_omega = 1.5;
  expect_reduced_products_match_full(cfg);
}

TEST(ReducedProducts, BoussinesqMatchesFullProducts) {
  SolverConfig cfg;
  cfg.system = SystemType::Boussinesq;
  cfg.brunt_vaisala = 1.5;
  cfg.scalars.push_back(ScalarConfig{1.0, 0.0});  // the buoyancy field
  expect_reduced_products_match_full(cfg);
}

TEST(ReducedProducts, MhdEightMatchNine) {
  SolverConfig cfg;
  cfg.system = SystemType::Mhd;
  expect_reduced_products_match_full(cfg);
}

// --- RHS over the product spectra -----------------------------------------

/// The engine assembles the RHS in place over the product spectra
/// (rhs[f] == products[f] for f < nf). Against a separate output block, on
/// random stage and product spectra, every RHS bit must agree: NS's scalar
/// RHS lands in a product slot the momentum pass or an earlier scalar has
/// consumed, MHD reads a mode's eight products before it writes the mode.
void expect_in_place_rhs_bitwise(const SolverConfig& cfg) {
  for (const auto decomposition :
       {transpose::Decomposition::Slab, transpose::Decomposition::Pencil}) {
    const int ranks = decomposition == transpose::Decomposition::Slab ? 1 : 2;
    comm::run_ranks(ranks, [&](comm::Communicator& comm) {
      const auto system = make_equation_system(cfg);
      auto fft = transpose::make_dist_fft(comm, cfg.n, decomposition);
      const ModeView view = fft->mode_view();
      const std::size_t nf = system->field_count();
      const std::size_t nprod = system->product_count();
      const std::size_t spec = fft->spectral_elems();
      ASSERT_GE(nprod, nf) << system->name();

      util::Rng rng(77, static_cast<std::uint64_t>(comm.rank()));
      const auto random_blocks = [&](std::vector<Complex>& store,
                                     std::size_t count) {
        store.resize(count * spec);
        for (Complex& c : store) c = Complex{rng.gaussian(), rng.gaussian()};
        std::vector<Complex*> ptrs;
        for (std::size_t b = 0; b < count; ++b) {
          ptrs.push_back(store.data() + b * spec);
        }
        return ptrs;
      };
      std::vector<Complex> in_store, prod_store, want_store;
      const auto in = random_blocks(in_store, nf);
      const auto prod = random_blocks(prod_store, nprod);
      const auto want = random_blocks(want_store, nf);
      const std::vector<const Complex*> in_c(in.begin(), in.end());
      const std::vector<const Complex*> prod_c(prod.begin(), prod.end());

      system->assemble_rhs(view, in_c.data(), prod_c.data(), want.data());
      system->assemble_rhs(view, in_c.data(), prod_c.data(), prod.data());
      for (std::size_t f = 0; f < nf; ++f) {
        EXPECT_EQ(std::memcmp(prod[f], want[f], spec * sizeof(Complex)), 0)
            << system->name() << " field " << system->field_name(f) << " "
            << transpose::to_string(decomposition) << " rank "
            << comm.rank();
      }
    });
  }
}

TEST(AssembleRhs, InPlaceOverProductsIsBitwise) {
  SolverConfig ns;
  ns.n = 16;
  expect_in_place_rhs_bitwise(ns);

  SolverConfig scalars = ns;
  scalars.scalars.push_back(ScalarConfig{0.7, 1.0});  // with a mean gradient
  scalars.scalars.push_back(ScalarConfig{2.0, 0.5});
  expect_in_place_rhs_bitwise(scalars);

  SolverConfig rotating = ns;
  rotating.system = SystemType::RotatingNS;
  rotating.rotation_omega = 1.5;
  expect_in_place_rhs_bitwise(rotating);

  SolverConfig boussinesq = ns;
  boussinesq.system = SystemType::Boussinesq;
  boussinesq.brunt_vaisala = 1.5;
  boussinesq.scalars.push_back(ScalarConfig{1.0, 0.0});  // buoyancy
  expect_in_place_rhs_bitwise(boussinesq);

  SolverConfig mhd = ns;
  mhd.system = SystemType::Mhd;
  expect_in_place_rhs_bitwise(mhd);
}

// --- analytic wave validations -------------------------------------------

TEST(RotatingValidation, InertialWaveOscillatesAtTwoOmega) {
  // u = (eps cos z, 0, 0): a single k = (0, 0, 1) mode whose nonlinear
  // term vanishes identically (the field depends only on z and carries no
  // w), so the evolution is exactly the Rodrigues propagator: rotation
  // about khat = zhat at the inertial frequency sigma = 2 Omega kz/|k| =
  // 2 Omega, times viscous decay. The test asserts the closed form to
  // round-off - the Coriolis integration is exact, not order-dt.
  comm::run_ranks(2, [](comm::Communicator& comm) {
    const double omega = 2.0, nu = 0.01, eps = 0.1;
    SolverConfig cfg;
    cfg.n = 16;
    cfg.viscosity = nu;
    cfg.system = SystemType::RotatingNS;
    cfg.rotation_omega = omega;
    SpectralEngine solver(comm, cfg);
    solver.init_from_function([eps](double, double, double z) {
      return std::array<double, 3>{eps * std::cos(z), 0.0, 0.0};
    });

    const double dt = 0.05;  // exactness must not depend on dt
    const int steps = 20;
    for (int s = 0; s < steps; ++s) solver.step(dt);
    const double t = dt * steps;

    const Complex ux = probe_mode(solver, comm, 0, 0, 0, 1);
    const Complex uy = probe_mode(solver, comm, 1, 0, 0, 1);
    const double decay = std::exp(-nu * t);
    EXPECT_NEAR(ux.real(), 0.5 * eps * std::cos(2.0 * omega * t) * decay,
                1e-12);
    EXPECT_NEAR(uy.real(), -0.5 * eps * std::sin(2.0 * omega * t) * decay,
                1e-12);
    EXPECT_NEAR(ux.imag(), 0.0, 1e-13);
    // Rotation is energy-conserving: only viscosity drains the mode.
    EXPECT_NEAR(solver.diagnostics().energy,
                0.25 * eps * eps * decay * decay, 1e-13);
  });
}

TEST(RotatingValidation, HorizontalModeFeelsNoRotation) {
  // For kz = 0 the inertial frequency 2 Omega kz/|k| vanishes: a
  // w = eps cos x mode must decay viscously with no oscillation, however
  // fast the frame spins. This pins the kz/|k| factor of the dispersion
  // relation, not just "some rotation happened".
  comm::run_ranks(1, [](comm::Communicator& comm) {
    const double nu = 0.02, eps = 0.1;
    SolverConfig cfg;
    cfg.n = 16;
    cfg.viscosity = nu;
    cfg.system = SystemType::RotatingNS;
    cfg.rotation_omega = 50.0;
    SpectralEngine solver(comm, cfg);
    solver.init_from_function([eps](double x, double, double) {
      return std::array<double, 3>{0.0, 0.0, eps * std::cos(x)};
    });
    const double dt = 0.02;
    for (int s = 0; s < 10; ++s) solver.step(dt);
    const Complex w = probe_mode(solver, comm, 2, 1, 0, 0);
    EXPECT_NEAR(w.real(), 0.5 * eps * std::exp(-nu * 0.2), 1e-13);
    EXPECT_NEAR(probe_mode(solver, comm, 0, 1, 0, 0).real(), 0.0, 1e-13);
  });
}

TEST(BoussinesqValidation, InternalWaveOscillatesAtBruntVaisala) {
  // u = (0, 0, eps cos x), theta = 0: a single k = (1, 0, 0) mode (k_h =
  // |k|, so omega = N k_h/|k| = N) whose advection vanishes identically.
  // The exact solution of the remaining linear exchange is
  //   what(t)  =  (eps/2) cos(N t) exp(-nu t)
  //   theta(t) = -(eps/2) sin(N t) exp(-nu t)       (Pr = 1)
  // The buoyancy coupling is integrated explicitly inside the RHS, so the
  // tolerance reflects RK4's O(dt^4) error, not round-off.
  comm::run_ranks(2, [](comm::Communicator& comm) {
    const double bv = 2.0, nu = 0.01, eps = 0.1;
    SolverConfig cfg;
    cfg.n = 16;
    cfg.viscosity = nu;
    cfg.scheme = TimeScheme::RK4;
    cfg.system = SystemType::Boussinesq;
    cfg.brunt_vaisala = bv;
    SpectralEngine solver(comm, cfg);
    // The engine materializes the buoyancy scalar when none is configured.
    EXPECT_EQ(solver.scalar_count(), 1);
    EXPECT_EQ(solver.extra_field_count(), 1u);
    EXPECT_EQ(solver.system().field_name(3), "buoyancy");
    solver.init_from_function([eps](double x, double, double) {
      return std::array<double, 3>{0.0, 0.0, eps * std::cos(x)};
    });

    const double dt = 0.005;
    const int steps = 200;
    for (int s = 0; s < steps; ++s) solver.step(dt);
    const double t = dt * steps;
    const double decay = std::exp(-nu * t);

    const Complex w = probe_mode(solver, comm, 2, 1, 0, 0);
    const Complex th = probe_mode(solver, comm, 3, 1, 0, 0);
    EXPECT_NEAR(w.real(), 0.5 * eps * std::cos(bv * t) * decay, 1e-9);
    EXPECT_NEAR(th.real(), -0.5 * eps * std::sin(bv * t) * decay, 1e-9);

    // buoyancy_flux = <w theta> = -(eps^2/2) sin cos exp(-2 nu t).
    const auto sysd = solver.system_diagnostics();
    ASSERT_EQ(sysd.size(), 1u);
    EXPECT_EQ(sysd[0].name, "buoyancy_flux");
    EXPECT_NEAR(sysd[0].value,
                -0.5 * eps * eps * std::sin(bv * t) * std::cos(bv * t) *
                    decay * decay,
                1e-9);

    const auto spectra = solver.named_spectra();
    ASSERT_EQ(spectra.size(), 2u);
    EXPECT_EQ(spectra[1].first, "buoyancy");
  });
}

TEST(MhdValidation, AlfvenWaveOscillatesAtKDotB) {
  // Uniform mean field B0 zhat plus u = (eps cos z, 0, 0), b' = 0: the
  // fluctuation nonlinearities vanish identically and the Elsasser RHS
  // reduces to the shear-Alfven exchange for the k = (0, 0, 1) mode:
  //   uhat_x(t) =   (eps/2) cos(k.B0 t) exp(-nu t)
  //   bhat_x(t) = i (eps/2) sin(k.B0 t) exp(-nu t)   (eta = nu)
  // i.e. omega = k . B0, energy sloshing between kinetic and magnetic.
  comm::run_ranks(2, [](comm::Communicator& comm) {
    const double b0 = 1.0, nu = 0.01, eps = 0.1;
    SolverConfig cfg;
    cfg.n = 16;
    cfg.viscosity = nu;
    cfg.scheme = TimeScheme::RK4;
    cfg.system = SystemType::Mhd;
    cfg.resistivity = 0.0;  // eta = nu
    SpectralEngine solver(comm, cfg);
    solver.init_from_function([eps](double, double, double z) {
      return std::array<double, 3>{eps * std::cos(z), 0.0, 0.0};
    });
    solver.set_uniform_magnetic_field({0.0, 0.0, b0});

    const double dt = 0.005;
    const int steps = 200;
    for (int s = 0; s < steps; ++s) solver.step(dt);
    const double t = dt * steps;
    const double decay = std::exp(-nu * t);

    const Complex ux = probe_mode(solver, comm, 0, 0, 0, 1);
    const Complex bx = probe_mode(solver, comm, 3, 0, 0, 1);
    EXPECT_NEAR(ux.real(), 0.5 * eps * std::cos(b0 * t) * decay, 1e-9);
    EXPECT_NEAR(bx.imag(), 0.5 * eps * std::sin(b0 * t) * decay, 1e-9);

    // The k = 0 mean field is preserved exactly by the stepping.
    const Complex mean_bz = probe_mode(solver, comm, 5, 0, 0, 0);
    EXPECT_DOUBLE_EQ(mean_bz.real(), b0);

    // Total (kinetic + magnetic fluctuation) energy decays viscously; the
    // exchange itself conserves it.
    const auto sysd = solver.system_diagnostics();
    ASSERT_EQ(sysd.size(), 2u);
    EXPECT_EQ(sysd[0].name, "magnetic_energy");
    const double e_fluct = sysd[0].value - 0.5 * b0 * b0;  // drop the mean
    EXPECT_NEAR(solver.diagnostics().energy + e_fluct,
                0.25 * eps * eps * decay * decay, 1e-9);
  });
}

TEST(MhdValidation, InductionStaysDivergenceFreeInTurbulence) {
  // div b = 0 is structural (antisymmetric induction flux), not projected:
  // it must hold to round-off through fully nonlinear steps, phase-shift
  // dealiasing included.
  comm::run_ranks(2, [](comm::Communicator& comm) {
    SolverConfig cfg;
    cfg.n = 16;
    cfg.viscosity = 0.02;
    cfg.phase_shift_dealias = true;
    cfg.system = SystemType::Mhd;
    cfg.resistivity = 0.03;
    SpectralEngine solver(comm, cfg);
    solver.init_isotropic(5, 3.0, 0.5);
    solver.init_magnetic_isotropic(9, 3.0, 0.25);
    solver.set_uniform_magnetic_field({0.1, 0.0, 0.4});
    for (int s = 0; s < 5; ++s) solver.step(0.004);
    EXPECT_LT(max_divergence(solver.modes(), comm, solver.field(3),
                             solver.field(4), solver.field(5)),
              1e-12);
    EXPECT_LT(solver.diagnostics().max_divergence, 1e-12);
    // Both mean-field components survive the nonlinear evolution exactly.
    EXPECT_DOUBLE_EQ(probe_mode(solver, comm, 3, 0, 0, 0).real(), 0.1);
    EXPECT_DOUBLE_EQ(probe_mode(solver, comm, 5, 0, 0, 0).real(), 0.4);
  });
}

// --- slab / pencil equivalence -------------------------------------------

struct SystemRun {
  Diagnostics diag;
  std::vector<NamedValue> sys;
  std::vector<std::pair<std::string, std::vector<double>>> spectra;
};

/// Steps a solver with the given ICs and collects every published
/// statistic on rank 0.
template <class Solver>
void collect(Solver& solver, comm::Communicator& comm, SystemRun* out) {
  solver.init_isotropic(5, 3.0, 0.5);
  for (int s = 0; s < solver.scalar_count(); ++s) {
    solver.init_scalar_isotropic(s, 6, 3.0, 0.3);
  }
  if (solver.magnetic_base() >= 0) {
    solver.init_magnetic_isotropic(9, 3.0, 0.25);
    solver.set_uniform_magnetic_field({0.0, 0.0, 0.4});
  }
  for (int s = 0; s < 3; ++s) solver.step(0.005);
  const Diagnostics d = solver.diagnostics();
  auto sys = solver.system_diagnostics();
  auto spectra = solver.named_spectra();
  if (comm.rank() == 0) {
    out->diag = d;
    out->sys = std::move(sys);
    out->spectra = std::move(spectra);
  }
}

void expect_equivalent(const SystemRun& slab, const SystemRun& pencil) {
  EXPECT_NEAR(slab.diag.energy, pencil.diag.energy, 1e-10);
  EXPECT_NEAR(slab.diag.dissipation, pencil.diag.dissipation, 1e-10);
  EXPECT_NEAR(slab.diag.u_max, pencil.diag.u_max, 1e-10);
  ASSERT_EQ(slab.sys.size(), pencil.sys.size());
  for (std::size_t i = 0; i < slab.sys.size(); ++i) {
    EXPECT_EQ(slab.sys[i].name, pencil.sys[i].name);
    EXPECT_NEAR(slab.sys[i].value, pencil.sys[i].value, 1e-10);
  }
  ASSERT_EQ(slab.spectra.size(), pencil.spectra.size());
  for (std::size_t g = 0; g < slab.spectra.size(); ++g) {
    EXPECT_EQ(slab.spectra[g].first, pencil.spectra[g].first);
    ASSERT_EQ(slab.spectra[g].second.size(), pencil.spectra[g].second.size());
    for (std::size_t k = 0; k < slab.spectra[g].second.size(); ++k) {
      EXPECT_NEAR(slab.spectra[g].second[k], pencil.spectra[g].second[k],
                  1e-10)
          << slab.spectra[g].first << " shell " << k;
    }
  }
}

void check_decomposition_equivalence(const SolverConfig& cfg) {
  SystemRun slab, pencil;
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    SpectralEngine solver(comm, cfg);
    collect(solver, comm, &slab);
  });
  comm::run_ranks(4, [&](comm::Communicator& comm) {
    SolverConfig pcfg = cfg;
    pcfg.decomposition = transpose::Decomposition::Pencil;  // 2x2
    SpectralEngine solver(comm, pcfg);
    collect(solver, comm, &pencil);
  });
  expect_equivalent(slab, pencil);
}

TEST(Decomposition, RotatingSlabMatchesPencil) {
  SolverConfig cfg;
  cfg.n = 16;
  cfg.viscosity = 0.02;
  cfg.system = SystemType::RotatingNS;
  cfg.rotation_omega = 1.5;
  check_decomposition_equivalence(cfg);
}

TEST(Decomposition, BoussinesqSlabMatchesPencil) {
  SolverConfig cfg;
  cfg.n = 16;
  cfg.viscosity = 0.02;
  cfg.scheme = TimeScheme::RK4;
  cfg.system = SystemType::Boussinesq;
  cfg.brunt_vaisala = 1.5;
  check_decomposition_equivalence(cfg);
}

TEST(Decomposition, MhdSlabMatchesPencil) {
  SolverConfig cfg;
  cfg.n = 16;
  cfg.viscosity = 0.02;
  cfg.phase_shift_dealias = true;  // exercise the shifted 8-product path
  cfg.system = SystemType::Mhd;
  cfg.resistivity = 0.03;
  check_decomposition_equivalence(cfg);
}

/// B0 imposed *before* init_magnetic_isotropic: the refill must keep the
/// mean field exactly while it replaces the fluctuation. Four ranks, so
/// only one of them owns k = 0. Collects the magnetic spectrum on rank 0.
std::vector<double> refill_under_mean_field(transpose::Decomposition d) {
  const std::array<double, 3> b0 = {0.1, -0.2, 0.4};
  std::vector<double> spectrum;
  comm::run_ranks(4, [&](comm::Communicator& comm) {
    SolverConfig cfg;
    cfg.n = 16;
    cfg.viscosity = 0.02;
    cfg.system = SystemType::Mhd;
    cfg.decomposition = d;
    SpectralEngine solver(comm, cfg);
    solver.set_uniform_magnetic_field(b0);
    solver.init_magnetic_isotropic(9, 3.0, 0.25);

    bool owner = false;
    for_each_mode(solver.modes(), [&](std::size_t, int kx, int ky, int kz) {
      owner = owner || (kx == 0 && ky == 0 && kz == 0);
    });
    EXPECT_EQ(comm.allreduce_sum(owner ? 1.0 : 0.0), 1.0);
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(probe_mode(solver, comm, 3 + c, 0, 0, 0),
                (Complex{b0[c], 0.0}));
    }
    EXPECT_LT(max_divergence(solver.modes(), comm, solver.field(3),
                             solver.field(4), solver.field(5)),
              1e-12);
    auto named = solver.named_spectra();
    if (comm.rank() == 0) {
      for (auto& [name, shells] : named) {
        if (name == "magnetic") spectrum = std::move(shells);
      }
    }
  });
  return spectrum;
}

TEST(MhdValidation, MeanFieldSurvivesTheFluctuationRefill) {
  const auto slab = refill_under_mean_field(transpose::Decomposition::Slab);
  const auto pencil =
      refill_under_mean_field(transpose::Decomposition::Pencil);
  ASSERT_FALSE(slab.empty());
  ASSERT_EQ(slab.size(), pencil.size());
  for (std::size_t k = 0; k < slab.size(); ++k) {
    EXPECT_NEAR(slab[k], pencil[k], 1e-12) << "shell " << k;
  }
}

// --- checkpoint compatibility --------------------------------------------

TEST(Systems, MhdStateSurvivesTheExtraFieldSlots) {
  // The checkpoint header's extra-field count covers any system's fields;
  // an MHD save/load round trip must restore the induction components
  // (including the k = 0 mean) bit-exactly. Uses restore() directly via
  // the io layer in io_test; here we pin the field/restore API itself.
  comm::run_ranks(1, [](comm::Communicator& comm) {
    SolverConfig cfg;
    cfg.n = 16;
    cfg.viscosity = 0.02;
    cfg.system = SystemType::Mhd;
    SpectralEngine a(comm, cfg);
    a.init_isotropic(3, 3.0, 0.5);
    a.init_magnetic_isotropic(4, 3.0, 0.25);
    a.set_uniform_magnetic_field({0.0, 0.2, 0.3});
    a.step(0.004);

    ASSERT_EQ(a.field_count(), 6u);
    std::vector<const Complex*> fields;
    for (std::size_t f = 0; f < a.field_count(); ++f) {
      fields.push_back(a.field(f));
    }
    SpectralEngine b(comm, cfg);
    b.restore(fields, a.time(), a.step_count());
    for (std::size_t f = 0; f < a.field_count(); ++f) {
      const std::size_t m = a.modes().local_modes();
      for (std::size_t i = 0; i < m; ++i) {
        ASSERT_EQ(b.field(f)[i], a.field(f)[i]);
      }
    }
    EXPECT_DOUBLE_EQ(b.time(), a.time());
  });
}

// --- band-limited transforms ---------------------------------------------

/// Forwarding backend that overrides only the unbanded transforms, as
/// perfbench's timing decorator does: the banded forms and the round trip
/// take the base-class defaults, so an engine over it runs unbanded.
class UnbandedFft final : public transpose::DistFft3d {
 public:
  explicit UnbandedFft(transpose::DistFft3d& inner) : inner_(inner) {}

  std::size_t n() const override { return inner_.n(); }
  std::size_t physical_elems() const override {
    return inner_.physical_elems();
  }
  std::size_t spectral_elems() const override {
    return inner_.spectral_elems();
  }
  ModeView mode_view() const override { return inner_.mode_view(); }
  PhysView phys_view() const override { return inner_.phys_view(); }
  void set_batching(int np, int q) override { inner_.set_batching(np, q); }
  int pencils() const override { return inner_.pencils(); }
  int pencils_per_alltoall() const override {
    return inner_.pencils_per_alltoall();
  }

  using DistFft3d::forward;
  using DistFft3d::inverse;
  void forward(std::span<const Real* const> phys,
               std::span<Complex* const> spec) override {
    inner_.forward(phys, spec);
  }
  void inverse(std::span<const Complex* const> spec,
               std::span<Real* const> phys) override {
    inner_.inverse(spec, phys);
  }

 private:
  transpose::DistFft3d& inner_;
};

/// Whether `cfg`'s dealiasing rule keeps mode (kx, ky, kz): the strict 2/3
/// cube, or the sqrt(2)/3 N sphere under phase shifting.
bool rule_keeps(const SolverConfig& cfg, int kx, int ky, int kz) {
  if (!cfg.phase_shift_dealias) {
    const int kmax = (static_cast<int>(cfg.n) - 1) / 3;
    return std::max({std::abs(kx), std::abs(ky), std::abs(kz)}) <= kmax;
  }
  const double k2max =
      DealiasRule::sphere(std::sqrt(2.0) * static_cast<double>(cfg.n) / 3.0)
          .k2max;
  return static_cast<double>(kx * kx + ky * ky + kz * kz) <= k2max;
}

/// Every rank's state after `steps` steps from the same initial condition,
/// on the bare backend (banded transforms) or over UnbandedFft.
std::vector<std::vector<Complex>> run_states(const SolverConfig& cfg,
                                             int ranks, bool unbanded,
                                             int steps) {
  std::vector<std::vector<Complex>> states(static_cast<std::size_t>(ranks));
  comm::run_ranks(ranks, [&](comm::Communicator& comm) {
    auto backend = transpose::make_dist_fft(comm, cfg.n, cfg.decomposition);
    UnbandedFft decorated(*backend);
    SpectralEngine engine(comm,
                          unbanded ? static_cast<transpose::DistFft3d&>(
                                         decorated)
                                   : *backend,
                          cfg);
    engine.init_isotropic(11, 3.0, 0.5);
    for (int s = 0; s < engine.scalar_count(); ++s) {
      engine.init_scalar_isotropic(s, 12 + static_cast<std::uint64_t>(s),
                                   3.0, 0.3);
    }
    if (engine.magnetic_base() >= 0) {
      engine.init_magnetic_isotropic(13, 3.0, 0.25);
      engine.set_uniform_magnetic_field({0.1, 0.2, 0.3});
    }
    for (int s = 0; s < steps; ++s) engine.step(0.01);
    auto& mine = states[static_cast<std::size_t>(comm.rank())];
    const std::size_t spec = engine.modes().local_modes();
    for (std::size_t f = 0; f < engine.field_count(); ++f) {
      mine.insert(mine.end(), engine.field(f), engine.field(f) + spec);
    }
    // Every mode outside the rule is exactly zero in every field.
    std::size_t nonzero = 0;
    for (std::size_t f = 0; f < engine.field_count(); ++f) {
      for_each_mode(engine.modes(),
                    [&](std::size_t idx, int kx, int ky, int kz) {
                      if (!rule_keeps(cfg, kx, ky, kz) &&
                          engine.field(f)[idx] != Complex{0.0, 0.0}) {
                        ++nonzero;
                      }
                    });
    }
    EXPECT_EQ(nonzero, 0u) << "rank " << comm.rank()
                           << (unbanded ? " unbanded" : " banded");
  });
  return states;
}

TEST(BandedTransforms, StepsAreBitwiseTheUnbandedSteps) {
  // The engine tells its backend the band its dealiasing rule keeps; the
  // slab then transforms and exchanges only that band. Three steps of every
  // system, scheme and rule, forced, on the slab at 1 and 2 ranks and the
  // 1x2 pencil (which ignores the band), must leave the state bitwise
  // equal to the same steps over a decorator that runs every transform
  // unbanded, with every mode outside the rule exactly zero.
  SolverConfig scalars;
  scalars.scalars.push_back(ScalarConfig{0.7, 1.0});  // with a mean gradient
  scalars.scalars.push_back(ScalarConfig{2.0, 0.0});
  SolverConfig rotating;
  rotating.system = SystemType::RotatingNS;
  rotating.rotation_omega = 1.5;
  SolverConfig boussinesq;
  boussinesq.system = SystemType::Boussinesq;
  boussinesq.brunt_vaisala = 1.5;
  SolverConfig mhd;
  mhd.system = SystemType::Mhd;
  const std::pair<transpose::Decomposition, int> layouts[] = {
      {transpose::Decomposition::Slab, 1},
      {transpose::Decomposition::Slab, 2},
      {transpose::Decomposition::Pencil, 2}};
  for (SolverConfig cfg : {scalars, rotating, boussinesq, mhd}) {
    cfg.viscosity = 0.02;
    cfg.forcing.enabled = true;
    for (const std::size_t n : {16, 24}) {
      for (const auto scheme : {TimeScheme::RK2, TimeScheme::RK4}) {
        for (const bool shift : {false, true}) {
          for (const auto& [decomposition, ranks] : layouts) {
            cfg.n = n;
            cfg.scheme = scheme;
            cfg.phase_shift_dealias = shift;
            cfg.decomposition = decomposition;
            const auto banded = run_states(cfg, ranks, false, 3);
            const auto unbanded = run_states(cfg, ranks, true, 3);
            for (std::size_t r = 0; r < banded.size(); ++r) {
              ASSERT_EQ(banded[r].size(), unbanded[r].size());
              EXPECT_EQ(std::memcmp(banded[r].data(), unbanded[r].data(),
                                    banded[r].size() * sizeof(Complex)),
                        0)
                  << to_string(cfg.system) << " scalars "
                  << cfg.scalars.size() << " n=" << n << " "
                  << (scheme == TimeScheme::RK4 ? "RK4" : "RK2")
                  << " shift=" << shift << " "
                  << transpose::to_string(decomposition) << " ranks "
                  << ranks << " rank " << r;
            }
          }
        }
      }
    }
  }
}

TEST(BandedTransforms, RestoreTruncatesModesOutsideTheRule) {
  // A checkpoint written under the other rule, or built by hand, can hold
  // modes outside this engine's rule. restore() truncates them, as every
  // step's state is truncated, so the banded transforms (which never see
  // kx >= W) and an unbanded backend step the same state bitwise.
  SolverConfig cfg;
  cfg.n = 16;
  cfg.viscosity = 0.02;
  std::vector<std::vector<Complex>> after(2);
  for (const bool unbanded : {false, true}) {
    comm::run_ranks(2, [&](comm::Communicator& comm) {
      auto backend = transpose::make_dist_fft(comm, cfg.n, cfg.decomposition);
      UnbandedFft decorated(*backend);
      SpectralEngine source(comm, cfg);
      source.init_isotropic(5, 3.0, 0.5);
      const std::size_t spec = source.modes().local_modes();
      std::vector<std::vector<Complex>> fields(3);
      std::vector<const Complex*> ptrs;
      std::size_t planted = spec;
      for (std::size_t c = 0; c < 3; ++c) {
        fields[c].assign(source.field(c), source.field(c) + spec);
        ptrs.push_back(fields[c].data());
      }
      // kx = 7 lies past the banded width W = 6 (kmax = 5 at n = 16).
      for_each_mode(source.modes(),
                    [&](std::size_t idx, int kx, int ky, int kz) {
                      if (kx == 7 && ky == 1 && kz == 2) planted = idx;
                    });
      if (planted < spec) fields[0][planted] = Complex{0.25, -0.5};

      SpectralEngine engine(comm,
                            unbanded ? static_cast<transpose::DistFft3d&>(
                                           decorated)
                                     : *backend,
                            cfg);
      engine.restore(ptrs, 0.0, 0);
      if (planted < spec) {
        EXPECT_EQ(engine.field(0)[planted], Complex(0.0, 0.0));
      }
      engine.step(0.01);
      if (comm.rank() == 0) {
        after[unbanded].assign(engine.field(0), engine.field(0) + spec);
      }
    });
  }
  EXPECT_EQ(std::memcmp(after[0].data(), after[1].data(),
                        after[0].size() * sizeof(Complex)),
            0);
}

// --- the spectral pass -----------------------------------------------------

/// Sets up `engine` with cfg's initial condition (velocity, scalars, and
/// the magnetic field for MHD), as run_states does.
void init_state(SpectralEngine& engine) {
  engine.init_isotropic(11, 3.0, 0.5);
  for (int s = 0; s < engine.scalar_count(); ++s) {
    engine.init_scalar_isotropic(s, 12 + static_cast<std::uint64_t>(s), 3.0,
                                 0.3);
  }
  if (engine.magnetic_base() >= 0) {
    engine.init_magnetic_isotropic(13, 3.0, 0.25);
    engine.set_uniform_magnetic_field({0.1, 0.2, 0.3});
  }
}

/// The RK chain the engine ran before its one spectral pass per RHS: each
/// operator over the whole local block in turn (phase shift, scale and
/// truncate, assemble_rhs, band forcing, the propagator, y = x + a z), on
/// the same backend with the same band, from the engine's state.
class UnfusedStepper {
 public:
  UnfusedStepper(comm::Communicator& comm, transpose::DistFft3d& fft,
                 const SpectralEngine& engine)
      : comm_(comm),
        fft_(fft),
        cfg_(engine.config()),
        system_(make_equation_system(cfg_)),
        view_(engine.modes()),
        band_(engine.band()),
        rule_(cfg_.phase_shift_dealias
                  ? DealiasRule::sphere(std::sqrt(2.0) *
                                        static_cast<double>(cfg_.n) / 3.0)
                  : DealiasRule::cube(cfg_.n)),
        spec_(view_.local_modes()),
        nf_(system_->field_count()),
        nprod_(system_->product_count()) {
    state_ = blocks(state_store_, nf_);
    stage_ = blocks(stage_store_, nf_);
    k_ = blocks(k_store_, 3 * nf_);
    prod_ = blocks(prod_store_, nprod_);
    for (std::size_t f = 0; f < nf_; ++f) {
      std::copy(engine.field(f), engine.field(f) + spec_, state_[f]);
    }
  }

  const Complex* field(std::size_t f) const { return state_[f]; }

  void step(double dt) {
    const double h = dt / 2.0;
    Complex* const* state = state_.data();
    Complex* const* stage = stage_.data();
    Complex* const* last = prod_.data();
    if (cfg_.scheme == TimeScheme::RK2) {
      compute_rhs(state, last);
      axpy(stage, state, h, last);
      system_->apply_linear(view_, stage, h);
      compute_rhs(stage, last);
      system_->apply_linear(view_, state, dt);
      system_->apply_linear(view_, last, h);
      axpy(state, state, dt, last);
      return;
    }
    Complex* const* k1 = k_.data();
    Complex* const* k2 = k1 + nf_;
    Complex* const* k3 = k1 + 2 * nf_;
    compute_rhs(state, k1);
    axpy(stage, state, h, k1);
    system_->apply_linear(view_, stage, h);
    compute_rhs(stage, k2);
    copy_state_to_stage();
    system_->apply_linear(view_, stage, h);
    axpy(stage, stage, h, k2);
    compute_rhs(stage, k3);
    copy_state_to_stage();
    system_->apply_linear(view_, stage, dt);
    system_->apply_linear(view_, k3, h);
    axpy(stage, stage, dt, k3);
    compute_rhs(stage, last);
    system_->apply_linear(view_, k1, dt);
    system_->apply_linear(view_, k2, h);
    system_->apply_linear(view_, state, dt);
    for (std::size_t f = 0; f < nf_; ++f) {
      for (std::size_t i = 0; i < spec_; ++i) {
        state[f][i] += dt / 6.0 * (k1[f][i] + 2.0 * k2[f][i] +
                                   2.0 * k3[f][i] + last[f][i]);
      }
    }
  }

 private:
  std::vector<Complex*> blocks(std::vector<Complex>& store,
                               std::size_t count) const {
    store.assign(count * spec_, Complex{0.0, 0.0});
    std::vector<Complex*> ptrs;
    for (std::size_t b = 0; b < count; ++b) {
      ptrs.push_back(store.data() + b * spec_);
    }
    return ptrs;
  }

  void copy_state_to_stage() {
    std::copy(state_store_.begin(), state_store_.end(), stage_store_.begin());
  }

  void axpy(Complex* const* y, const Complex* const* x, double a,
            const Complex* const* z) const {
    for (std::size_t f = 0; f < nf_; ++f) {
      for (std::size_t i = 0; i < spec_; ++i) y[f][i] = x[f][i] + a * z[f][i];
    }
  }

  static void products(void* ctx, const Real* const* in, Real* const* out,
                       std::size_t points) {
    static_cast<const EquationSystem*>(ctx)->form_products(in, out, points);
  }

  void compute_rhs(const Complex* const* in, Complex* const* rhs) {
    const std::size_t n = cfg_.n;
    const double inv_n3 = 1.0 / (static_cast<double>(n) * n * n);
    double delta[3] = {0.0, 0.0, 0.0};
    const bool shift = cfg_.phase_shift_dealias && (rhs_evals_++ % 2 == 1);
    if (shift) {
      delta[0] = delta[1] = delta[2] =
          std::numbers::pi / static_cast<double>(n);
    }
    const Complex* const* spec_in = in;
    if (shift) {
      for (std::size_t f = 0; f < nf_; ++f) {
        std::copy(in[f], in[f] + spec_, prod_[f]);
        phase_shift(view_, prod_[f], delta, +1);
      }
      spec_in = prod_.data();
    }
    fft_.round_trip(std::span<const Complex* const>(spec_in, nf_), &products,
                    system_.get(),
                    std::span<Complex* const>(prod_.data(), nprod_), band_);
    for (Complex* p : prod_) {
      if (shift) phase_shift(view_, p, delta, -1);
      scale_and_truncate(view_, p, inv_n3, rule_);
    }
    system_->assemble_rhs(view_, in, prod_.data(), rhs);
    if (cfg_.forcing.enabled) {
      const auto& fc = cfg_.forcing;
      const double eband =
          band_energy(view_, comm_, in[0], in[1], in[2], fc.klo, fc.khi);
      if (eband > 1e-12) {
        add_band_forcing(view_, rhs[0], rhs[1], rhs[2], in[0], in[1], in[2],
                         fc.klo, fc.khi, fc.power / (2.0 * eband));
      }
    }
  }

  comm::Communicator& comm_;
  transpose::DistFft3d& fft_;
  SolverConfig cfg_;
  std::unique_ptr<EquationSystem> system_;
  ModeView view_;
  transpose::SpectralBand band_;
  DealiasRule rule_;
  std::size_t spec_, nf_, nprod_;
  std::int64_t rhs_evals_ = 0;
  std::vector<Complex> state_store_, stage_store_, k_store_, prod_store_;
  std::vector<Complex*> state_, stage_, k_, prod_;
};

/// Every system, scheme and rule at n = 16, forced, on the slab at 1 and 2
/// ranks and the 1x2 pencil.
std::vector<SolverConfig> pass_configs() {
  SolverConfig scalars;
  scalars.scalars.push_back(ScalarConfig{0.7, 1.0});  // with a mean gradient
  scalars.scalars.push_back(ScalarConfig{2.0, 0.0});
  SolverConfig rotating;
  rotating.system = SystemType::RotatingNS;
  rotating.rotation_omega = 1.5;
  SolverConfig boussinesq;
  boussinesq.system = SystemType::Boussinesq;
  boussinesq.brunt_vaisala = 1.5;
  SolverConfig mhd;
  mhd.system = SystemType::Mhd;
  std::vector<SolverConfig> out;
  for (SolverConfig cfg : {scalars, rotating, boussinesq, mhd}) {
    cfg.n = 16;
    cfg.viscosity = 0.02;
    cfg.forcing.enabled = true;
    for (const auto scheme : {TimeScheme::RK2, TimeScheme::RK4}) {
      for (const bool shift : {false, true}) {
        cfg.scheme = scheme;
        cfg.phase_shift_dealias = shift;
        out.push_back(cfg);
      }
    }
  }
  return out;
}

std::string describe(const SolverConfig& cfg, int ranks) {
  return std::string(to_string(cfg.system)) + " " +
         (cfg.scheme == TimeScheme::RK4 ? "RK4" : "RK2") +
         " shift=" + std::to_string(cfg.phase_shift_dealias) +
         " forcing=" + std::to_string(cfg.forcing.enabled) + " " +
         transpose::to_string(cfg.decomposition) + " ranks " +
         std::to_string(ranks);
}

const std::pair<transpose::Decomposition, int> kPassLayouts[] = {
    {transpose::Decomposition::Slab, 1},
    {transpose::Decomposition::Slab, 2},
    {transpose::Decomposition::Pencil, 2}};

TEST(SpectralPass, StepsAreBitwiseTheUnfusedChain) {
  // The engine's one pass per RHS visits only the band's blocks and runs
  // the same per-mode operators in the same order as the chain of
  // full-field sweeps it replaced, so three steps of every system leave
  // the state bitwise equal to that chain's.
  for (SolverConfig cfg : pass_configs()) {
    for (const auto& [decomposition, ranks] : kPassLayouts) {
      cfg.decomposition = decomposition;
      comm::run_ranks(ranks, [&](comm::Communicator& comm) {
        auto backend = transpose::make_dist_fft(comm, cfg.n, decomposition);
        SpectralEngine engine(comm, *backend, cfg);
        init_state(engine);
        UnfusedStepper unfused(comm, *backend, engine);
        for (int s = 0; s < 3; ++s) {
          engine.step(0.01);
          unfused.step(0.01);
        }
        const std::size_t spec = engine.modes().local_modes();
        for (std::size_t f = 0; f < engine.field_count(); ++f) {
          EXPECT_EQ(std::memcmp(engine.field(f), unfused.field(f),
                                spec * sizeof(Complex)),
                    0)
              << describe(cfg, ranks) << " field " << f << " rank "
              << comm.rank();
        }
      });
    }
  }
}

/// Whether mode (kx, ky, kz), kx >= 0, lies in `band`.
bool in_band(const transpose::SpectralBand& band, int kx, int ky, int kz) {
  return static_cast<std::size_t>(kx) < band.width &&
         static_cast<std::size_t>(std::abs(ky)) <= band.ky &&
         band.keeps_kz(kz);
}

/// Forwarding backend that counts the spectral inputs it is handed with a
/// nonzero mode outside the band: round_trip's inputs and the banded
/// inverse's.
class BandCheckingFft final : public transpose::DistFft3d {
 public:
  explicit BandCheckingFft(transpose::DistFft3d& inner) : inner_(inner) {}

  std::size_t n() const override { return inner_.n(); }
  std::size_t physical_elems() const override {
    return inner_.physical_elems();
  }
  std::size_t spectral_elems() const override {
    return inner_.spectral_elems();
  }
  ModeView mode_view() const override { return inner_.mode_view(); }
  PhysView phys_view() const override { return inner_.phys_view(); }
  void set_batching(int np, int q) override { inner_.set_batching(np, q); }
  int pencils() const override { return inner_.pencils(); }
  int pencils_per_alltoall() const override {
    return inner_.pencils_per_alltoall();
  }

  using DistFft3d::forward;
  using DistFft3d::inverse;
  void forward(std::span<const Real* const> phys,
               std::span<Complex* const> spec) override {
    inner_.forward(phys, spec);
  }
  void inverse(std::span<const Complex* const> spec,
               std::span<Real* const> phys) override {
    inner_.inverse(spec, phys);
  }
  void forward(std::span<const Real* const> phys,
               std::span<Complex* const> spec,
               const transpose::SpectralBand& band) override {
    inner_.forward(phys, spec, band);
  }
  void inverse(std::span<const Complex* const> spec,
               std::span<Real* const> phys,
               const transpose::SpectralBand& band) override {
    check(spec, band);
    inner_.inverse(spec, phys, band);
  }
  void round_trip(std::span<const Complex* const> in,
                  transpose::PointKernel kernel, void* ctx,
                  std::span<Complex* const> out,
                  const transpose::SpectralBand& band) override {
    check(in, band);
    inner_.round_trip(in, kernel, ctx, out, band);
  }

  /// Inputs seen so far, and those with a nonzero mode outside the band.
  int inputs = 0;
  int dirty = 0;

 private:
  void check(std::span<const Complex* const> spec,
             const transpose::SpectralBand& band) {
    for (const Complex* f : spec) {
      bool clean = true;
      for_each_mode(mode_view(), [&](std::size_t idx, int kx, int ky,
                                     int kz) {
        if (!in_band(band, kx, ky, kz) && f[idx] != Complex{0.0, 0.0}) {
          clean = false;
        }
      });
      ++inputs;
      if (!clean) ++dirty;
    }
  }

  transpose::DistFft3d& inner_;
};

/// Writes NaN into every mode outside the band of the engine's step
/// scratch: the product spectra and RK4's k blocks.
void poison_scratch(SpectralEngine& engine) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (Complex* block : engine.scratch_spectra()) {
    for_each_mode(engine.modes(), [&](std::size_t idx, int kx, int ky,
                                      int kz) {
      if (!in_band(engine.band(), kx, ky, kz)) block[idx] = Complex{nan, nan};
    });
  }
}

/// Everything a run reports: the raw state, every cfl_dt, the transfer
/// spectrum and the derivative moments.
struct PassRun {
  std::vector<Complex> state;
  std::vector<double> scalars;
  std::vector<double> transfer;
};

PassRun run_pass(const SolverConfig& cfg, comm::Communicator& comm,
                 bool poison) {
  auto backend = transpose::make_dist_fft(comm, cfg.n, cfg.decomposition);
  BandCheckingFft checked(*backend);
  SpectralEngine engine(comm, checked, cfg);
  init_state(engine);
  PassRun run;
  const auto poke = [&] {
    if (poison) poison_scratch(engine);
  };
  poke();
  run.scalars.push_back(engine.cfl_dt());
  for (int s = 0; s < 3; ++s) {
    poke();
    engine.step(0.01);
  }
  poke();
  run.scalars.push_back(engine.cfl_dt());
  poke();
  run.transfer = engine.transfer_spectrum();
  poke();
  const auto moments = engine.derivative_moments();
  run.scalars.push_back(moments.skewness);
  run.scalars.push_back(moments.flatness);
  for (std::size_t f = 0; f < engine.field_count(); ++f) {
    run.state.insert(run.state.end(), engine.field(f),
                     engine.field(f) + engine.modes().local_modes());
  }
  EXPECT_GT(checked.inputs, 0);
  EXPECT_EQ(checked.dirty, 0)
      << describe(cfg, comm.size()) << " poison=" << poison << " rank "
      << comm.rank() << ": a transform input is nonzero outside the band";
  return run;
}

template <class T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

TEST(SpectralPass, ModesOutsideTheBandAreNeverRead) {
  // Product spectra are unspecified outside the band and RK4's k blocks
  // are never read there: NaN written into those modes between steps must
  // leave the state, cfl_dt(), transfer_spectrum() and
  // derivative_moments() bitwise those of an unpoisoned run. Every
  // spectral input handed to a transform is exactly zero outside the band
  // (the pencil reads every mode), poisoned or not.
  for (SolverConfig cfg : pass_configs()) {
    for (const bool forcing : {true, false}) {
      for (const auto& [decomposition, ranks] : kPassLayouts) {
        cfg.forcing.enabled = forcing;
        cfg.decomposition = decomposition;
        comm::run_ranks(ranks, [&](comm::Communicator& comm) {
          const PassRun clean = run_pass(cfg, comm, false);
          const PassRun poisoned = run_pass(cfg, comm, true);
          const std::string what =
              describe(cfg, ranks) + " rank " + std::to_string(comm.rank());
          EXPECT_TRUE(same_bits(clean.state, poisoned.state)) << what;
          EXPECT_TRUE(same_bits(clean.scalars, poisoned.scalars)) << what;
          EXPECT_TRUE(same_bits(clean.transfer, poisoned.transfer)) << what;
        });
      }
    }
  }
}

}  // namespace
}  // namespace psdns::dns
