#include "dns/spectral_core.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "obs/span.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace psdns::dns {

namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;

/// Deterministic per-grid-point gaussian-ish noise from the global index.
double noise(std::uint64_t seed, std::size_t i, std::size_t j, std::size_t k,
             int component) {
  util::SplitMix64 sm(seed ^ (i + 1) * 0x9E3779B97F4A7C15ULL ^
                      (j + 1) * 0xC2B2AE3D27D4EB4FULL ^
                      (k + 1) * 0x165667B19E3779F9ULL ^
                      static_cast<std::uint64_t>(component + 1) *
                          0xFF51AFD7ED558CCDULL);
  // Sum of 4 uniforms, centered: close enough to gaussian for an IC that is
  // reshaped spectrally anyway.
  double s = 0.0;
  for (int t = 0; t < 4; ++t) {
    s += static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
  }
  return s - 2.0;
}

/// White noise for a vector triple: components first, first + 1, first + 2.
auto noise3(std::uint64_t seed, int first) {
  return [seed, first](std::size_t i, std::size_t j, std::size_t k) {
    return std::array<double, 3>{noise(seed, i, j, k, first),
                                 noise(seed, i, j, k, first + 1),
                                 noise(seed, i, j, k, first + 2)};
  };
}

/// A physical-space function f(x, y, z) sampled at grid indices.
template <class F>
auto on_grid(std::size_t n, const F& f) {
  const double cell = kTwoPi / static_cast<double>(n);
  return [cell, &f](std::size_t xi, std::size_t yi, std::size_t zi) {
    return f(cell * static_cast<double>(xi), cell * static_cast<double>(yi),
             cell * static_cast<double>(zi));
  };
}
}  // namespace

SpectralEngine::SpectralEngine(comm::Communicator& comm, SolverConfig config)
    : SpectralEngine(comm,
                     transpose::make_dist_fft(comm, config.n,
                                              config.decomposition),
                     config) {}

SpectralEngine::SpectralEngine(comm::Communicator& comm,
                               std::unique_ptr<transpose::DistFft3d> fft,
                               SolverConfig config)
    : SpectralEngine(comm, *fft, std::move(config)) {
  owned_fft_ = std::move(fft);
}

SpectralEngine::SpectralEngine(comm::Communicator& comm,
                               transpose::DistFft3d& fft, SolverConfig config)
    : comm_(comm), config_(std::move(config)), fft_(fft) {
  PSDNS_REQUIRE(config_.n >= 4, "grid too small for a DNS");
  PSDNS_REQUIRE(fft_.n() == config_.n, "FFT backend grid size mismatch");
  PSDNS_REQUIRE(config_.viscosity > 0.0, "viscosity must be positive");
  PSDNS_REQUIRE(config_.pencils >= 1 && config_.pencils_per_a2a >= 1,
                "bad pencil batching");
  validate_forcing(config_.forcing);
  // Boussinesq's buoyancy field rides in the scalar slot: materialize it
  // (Pr = 1, no mean gradient - the stratification is brunt_vaisala's job)
  // when the caller did not configure scalars explicitly.
  if (config_.system == SystemType::Boussinesq && config_.scalars.empty()) {
    config_.scalars.push_back(ScalarConfig{1.0, 0.0});
  }
  for (const auto& sc : config_.scalars) {
    PSDNS_REQUIRE(sc.schmidt > 0.0, "Schmidt number must be positive");
  }
  system_ = make_equation_system(config_);
  dealias_ = config_.phase_shift_dealias
                 ? DealiasRule::sphere(std::sqrt(2.0) *
                                       static_cast<double>(config_.n) / 3.0)
                 : DealiasRule::cube(config_.n);
  band_ = transpose::SpectralBand::of_radius(
      config_.n, static_cast<std::size_t>(axis_kmax(dealias_)));

  fft_.set_batching(config_.pencils, config_.pencils_per_a2a);
  view_ = fft_.mode_view();
  pview_ = fft_.phys_view();
  spec_ = fft_.spectral_elems();
  phys_elems_ = fft_.physical_elems();
  const std::size_t nf = field_count();
  nprod_ = system_->product_count();
  PSDNS_REQUIRE(nprod_ >= nf, "the RHS must fit in the product spectra");

  state_.resize(nf);
  for (auto& c : state_) c.assign(spec_, Complex{0.0, 0.0});

  // Check out every steady-state scratch block now: step() only reuses.
  // Each RHS lands in prod_hat_ over its own consumed products, so RK2
  // keeps no RHS block and RK4 keeps k1..k3 (k4 is the last RHS). prod_hat_
  // is dead between steps, so it also serves as the physical scratch of up
  // to three fields (phys_scratch); on an uneven pencil split a rank's
  // spectral field can hold fewer reals than its physical field.
  // The spectral pass never writes stage or k outside the band: zero them
  // once here.
  stage_.ensure(nf * spec_);
  std::fill_n(stage_.data(), nf * spec_, Complex{0.0, 0.0});
  if (config_.scheme == TimeScheme::RK4) {
    k_.ensure(3 * nf * spec_);
    std::fill_n(k_.data(), 3 * nf * spec_, Complex{0.0, 0.0});
  }
  prod_hat_.ensure(
      std::max(nprod_ * spec_,
               (3 * phys_elems_ * sizeof(Real) + sizeof(Complex) - 1) /
                   sizeof(Complex)));

  state_ptrs_.resize(nf);
  stage_ptrs_.resize(nf);
  for (std::size_t f = 0; f < nf; ++f) {
    state_ptrs_[f] = state_[f].data();
    stage_ptrs_[f] = block(stage_, f);
  }
  const std::size_t nk = k_.empty() ? 0 : 3 * nf;
  scratch_ptrs_.resize(nprod_ + nk);
  for (std::size_t t = 0; t < nprod_; ++t) {
    scratch_ptrs_[t] = block(prod_hat_, t);
  }
  for (std::size_t f = 0; f < nk; ++f) scratch_ptrs_[nprod_ + f] = block(k_, f);
  pass_in_.resize(nf);
  pass_out_.resize(nprod_ + 3 * nf + nk);
}

std::size_t SpectralEngine::zero_mode() const {
  std::size_t zero = spec_;
  for_each_mode(view_, [&](std::size_t idx, int kx, int ky, int kz) {
    if (kx == 0 && ky == 0 && kz == 0) zero = idx;
  });
  return zero;
}

void SpectralEngine::fill_fields(std::size_t base, std::size_t count,
                                 const PointFill& value) {
  Real* phys[3] = {};
  Complex* spec[3] = {};
  for (std::size_t c = 0; c < count; ++c) {
    phys[c] = phys_scratch(c);
    spec[c] = state_[base + c].data();
  }
  for_each_point(pview_, [&](std::size_t idx, std::size_t xi, std::size_t yi,
                             std::size_t zi) {
    const auto v = value(xi, yi, zi);
    for (std::size_t c = 0; c < count; ++c) phys[c][idx] = v[c];
  });
  fft_.forward(std::span<const Real* const>(phys, count),
               std::span<Complex* const>(spec, count), band_);
  const std::size_t n = config_.n;
  const double scale = 1.0 / (static_cast<double>(n) * n * n);
  for (std::size_t c = 0; c < count; ++c) {
    scale_and_truncate(view_, spec[c], scale, dealias_);
  }
  if (count == 3) project(view_, spec[0], spec[1], spec[2]);
}

void SpectralEngine::shape_spectrum(std::size_t base, std::size_t count,
                                    const std::vector<double>& current,
                                    double k_peak, double total) {
  std::vector<double> gain(current.size(), 0.0);
  double target_total = 0.0;
  for (std::size_t s = 1; s < current.size(); ++s) {
    const double kr = static_cast<double>(s) / k_peak;
    const double target = std::pow(kr, 4.0) * std::exp(-2.0 * kr * kr);
    target_total += target;
    if (current[s] > 1e-300) gain[s] = std::sqrt(target / current[s]);
  }
  const double norm = std::sqrt(total / target_total);
  for_each_mode(view_, [&](std::size_t idx, int kx, int ky, int kz) {
    const std::size_t shell = shell_of(kx, ky, kz);
    const double g = shell < gain.size() ? gain[shell] * norm : 0.0;
    for (std::size_t c = 0; c < count; ++c) state_[base + c][idx] *= g;
  });
}

void SpectralEngine::init_from_function(
    const std::function<std::array<double, 3>(double, double, double)>& f) {
  fill_fields(0, 3, on_grid(config_.n, f));
  time_ = 0.0;
  steps_ = 0;
}

void SpectralEngine::init_taylor_green() {
  init_from_function([](double x, double y, double) {
    return std::array<double, 3>{std::sin(x) * std::cos(y),
                                 -std::cos(x) * std::sin(y), 0.0};
  });
}

void SpectralEngine::init_isotropic(std::uint64_t seed, double k_peak,
                                    double energy) {
  PSDNS_REQUIRE(k_peak > 0.0 && energy > 0.0, "bad isotropic IC parameters");
  // White noise per component, keyed on global indices: identical physics
  // for every rank count and decomposition.
  fill_fields(0, 3, noise3(seed, 0));
  time_ = 0.0;
  steps_ = 0;
  shape_spectrum(0, 3, spectrum(), k_peak, energy);
}

void SpectralEngine::init_scalar_from_function(
    int s, const std::function<double(double, double, double)>& f) {
  PSDNS_REQUIRE(s >= 0 && s < scalar_count(), "scalar index out of range");
  const auto sample = on_grid(config_.n, f);
  fill_fields(static_cast<std::size_t>(3 + s), 1,
              [&](std::size_t xi, std::size_t yi, std::size_t zi) {
                return std::array<double, 3>{sample(xi, yi, zi)};
              });
}

void SpectralEngine::init_scalar_isotropic(int s, std::uint64_t seed,
                                           double k_peak, double variance) {
  PSDNS_REQUIRE(s >= 0 && s < scalar_count(), "scalar index out of range");
  PSDNS_REQUIRE(k_peak > 0.0 && variance > 0.0, "bad scalar IC parameters");
  const auto si = static_cast<std::size_t>(3 + s);
  fill_fields(si, 1, [&](std::size_t xi, std::size_t yi, std::size_t zi) {
    return std::array<double, 3>{noise(seed, xi, yi, zi, 100 + s)};
  });
  // Zero-mean fluctuation: only the rank owning the k = 0 mode holds it.
  if (const std::size_t z = zero_mode(); z < spec_) state_[si][z] = {};
  shape_spectrum(si, 1, scalar_spectrum(s), k_peak, variance);
}

void SpectralEngine::init_magnetic_isotropic(std::uint64_t seed, double k_peak,
                                             double energy) {
  const int mb = magnetic_base();
  PSDNS_REQUIRE(mb >= 0, "system carries no magnetic field");
  PSDNS_REQUIRE(k_peak > 0.0 && energy > 0.0, "bad magnetic IC parameters");
  const auto base = static_cast<std::size_t>(mb);

  // Preserve any previously imposed uniform mean field across the refill.
  const std::size_t z = zero_mode();
  Complex b0[3] = {};
  if (z < spec_) {
    for (std::size_t c = 0; c < 3; ++c) b0[c] = state_[base + c][z];
  }
  fill_fields(base, 3, noise3(seed, 200));
  shape_spectrum(base, 3,
                 energy_spectrum(view_, comm_, state_[base].data(),
                                 state_[base + 1].data(),
                                 state_[base + 2].data()),
                 k_peak, energy);
  if (z < spec_) {
    for (std::size_t c = 0; c < 3; ++c) state_[base + c][z] = b0[c];
  }
}

void SpectralEngine::init_magnetic_from_function(
    const std::function<std::array<double, 3>(double, double, double)>& f) {
  const int mb = magnetic_base();
  PSDNS_REQUIRE(mb >= 0, "system carries no magnetic field");
  fill_fields(static_cast<std::size_t>(mb), 3, on_grid(config_.n, f));
}

void SpectralEngine::set_uniform_magnetic_field(
    const std::array<double, 3>& b0) {
  const int mb = magnetic_base();
  PSDNS_REQUIRE(mb >= 0, "system carries no magnetic field");
  if (const std::size_t z = zero_mode(); z < spec_) {
    for (std::size_t c = 0; c < 3; ++c) {
      state_[static_cast<std::size_t>(mb) + c][z] = Complex{b0[c], 0.0};
    }
  }
}

void SpectralEngine::restore(std::span<const Complex* const> fields, double t,
                             std::int64_t steps) {
  PSDNS_REQUIRE(fields.size() == field_count(),
                "restore needs 3 velocity components plus every extra field");
  // A checkpoint written under the other dealiasing rule, or built by
  // hand, may hold modes outside this rule's band: truncate them, as every
  // step's state is, so the banded transforms see zeros there.
  for (std::size_t f = 0; f < field_count(); ++f) {
    std::copy(fields[f], fields[f] + spec_, state_[f].begin());
    scale_and_truncate(view_, state_[f].data(), 1.0, dealias_);
  }
  time_ = t;
  steps_ = steps;
  last_umax_ = 0.0;
}

void SpectralEngine::compute_rhs(const Complex* const* in, Complex* const* rhs,
                                 Update update, double dt) {
  const std::size_t n = config_.n;
  const std::size_t nf = field_count();
  Complex* const* prod = prod_spec();

  // Optional Rogallo phase shift: alternate RK substages between the
  // unshifted grid and a grid shifted by half a cell, so the leading
  // aliasing contributions cancel across the substages; the truncation
  // radius is then the larger spherical sqrt(2)/3 N.
  double delta[3] = {0.0, 0.0, 0.0};
  const bool shift = config_.phase_shift_dealias && (rhs_evals_++ % 2 == 1);
  if (shift) {
    const double half_cell = std::numbers::pi / static_cast<double>(n);
    delta[0] = delta[1] = delta[2] = half_cell;
  }

  // 1. Velocity-proportional band forcing with fixed injection power: its
  //    coefficient needs the input's energy in the forcing shells, reduced
  //    now so the pass can add the forcing block by block.
  double forcing = 0.0;
  if (update != Update::Rhs && config_.forcing.enabled) {
    obs::TraceSpan span("dns.band_energy", obs::SpanKind::Comm);
    const double eband =
        band_energy(view_, comm_, in[0], in[1], in[2], config_.forcing.klo,
                    config_.forcing.khi);
    if (eband > 1e-12) forcing = config_.forcing.power / (2.0 * eband);
  }

  // 2. The round trip (one multi-variable transform each way, exactly how
  //    the production code amortizes message size over variables): all
  //    fields to physical space, then per group of points the max signal
  //    speed and the system's products, then the products back to spectral
  //    space. Shifted copies of the inputs go into the product spectra,
  //    which round_trip lets each input share with its output. The copy
  //    is whole, so the copies are zero outside the band, as the inputs
  //    are: a backend that ignores the band reads every mode.
  {
    obs::TraceSpan span("dns.round_trip", obs::SpanKind::Compute);
    const Complex* const* spec_in = in;
    if (shift) {
      for (std::size_t f = 0; f < nf; ++f) {
        std::copy(in[f], in[f] + spec_, prod[f]);
      }
      for_each_band_block(view_, band_, [&](const ModeView& b,
                                            std::size_t o) {
        for (std::size_t f = 0; f < nf; ++f) {
          phase_shift(b, prod[f] + o, delta, +1);
        }
      });
      spec_in = prod;
    }
    kernel_umax_ = 0.0;
    fft_.round_trip(std::span<const Complex* const>(spec_in, nf),
                    &SpectralEngine::products_kernel, this,
                    std::span<Complex* const>(prod, nprod_), band_);
  }
  {
    obs::TraceSpan span("dns.cfl_allreduce", obs::SpanKind::Comm);
    last_umax_ = comm_.allreduce_max(kernel_umax_);
  }

  // 3. Everything else in one pass over the band's blocks: shift back,
  //    normalize and dealias the products, assemble the RHS, force it, and
  //    write the update. Per-block pointer tables: the inputs, then the
  //    products, the RHS, state, stage and k.
  obs::TraceSpan span("dns.spectral_pass", obs::SpanKind::Compute);
  const double inv_n3 = 1.0 / (static_cast<double>(n) * n * n);
  const double h = dt / 2.0;
  const int klo = config_.forcing.klo, khi = config_.forcing.khi;
  const Complex** bin = pass_in_.data();
  Complex** bp = pass_out_.data();
  Complex** br = bp + nprod_;
  Complex** bu = br + nf;
  Complex** bs = bu + nf;
  Complex** bk = bs + nf;
  const std::size_t nk = update == Update::Rk4Final ? 3 * nf : 0;

  for_each_band_block(view_, band_, [&](const ModeView& b, std::size_t o) {
    for (std::size_t t = 0; t < nprod_; ++t) {
      bp[t] = prod[t] + o;
      if (shift) phase_shift(b, bp[t], delta, -1);
      scale_and_truncate(b, bp[t], inv_n3, dealias_);
    }
    for (std::size_t f = 0; f < nf; ++f) {
      bin[f] = in[f] + o;
      br[f] = rhs[f] + o;
      bu[f] = state_ptrs_[f] + o;
      bs[f] = stage_ptrs_[f] + o;
    }
    for (std::size_t f = 0; f < nk; ++f) bk[f] = k_ptrs()[f] + o;
    // The system's RHS (br may be bp: assemble_rhs allows it), forced.
    system_->assemble_rhs(b, bin, bp, br);
    if (forcing > 0.0) {
      add_band_forcing(b, br[0], br[1], br[2], bin[0], bin[1], bin[2], klo,
                       khi, forcing);
    }
    // y = x + a z over the block's field set (y may be x).
    const auto combine = [&](Complex* const* y, const Complex* const* x,
                             double a, const Complex* const* z) {
      for (std::size_t f = 0; f < nf; ++f) {
        for_each_mode(b, [&](std::size_t i, int, int, int) {
          y[f][i] = x[f][i] + a * z[f][i];
        });
      }
    };
    const auto copy_state_to_stage = [&] {
      for (std::size_t f = 0; f < nf; ++f) {
        for_each_mode(b, [&](std::size_t i, int, int, int) {
          bs[f][i] = bu[f][i];
        });
      }
    };
    switch (update) {
      case Update::Rhs:
        break;
      case Update::Stage:
        combine(bs, bu, h, br);
        system_->apply_linear(b, bs, h);
        break;
      case Update::Rk2Final:
        system_->apply_linear(b, bu, dt);
        system_->apply_linear(b, br, h);
        combine(bu, bu, dt, br);
        break;
      case Update::Rk4Stage2:
        copy_state_to_stage();
        system_->apply_linear(b, bs, h);
        combine(bs, bs, h, br);
        break;
      case Update::Rk4Stage3:
        copy_state_to_stage();
        system_->apply_linear(b, bs, dt);
        system_->apply_linear(b, br, h);
        combine(bs, bs, dt, br);
        break;
      case Update::Rk4Final: {
        Complex* const* k1 = bk;
        Complex* const* k2 = bk + nf;
        Complex* const* k3 = bk + 2 * nf;
        system_->apply_linear(b, k1, dt);
        system_->apply_linear(b, k2, h);
        system_->apply_linear(b, bu, dt);
        for (std::size_t f = 0; f < nf; ++f) {
          Complex* s = bu[f];
          for_each_mode(b, [&](std::size_t i, int, int, int) {
            s[i] += dt / 6.0 *
                    (k1[f][i] + 2.0 * k2[f][i] + 2.0 * k3[f][i] + br[f][i]);
          });
        }
        break;
      }
    }
  });
}

void SpectralEngine::products_kernel(void* ctx, const Real* const* in,
                                     Real* const* out, std::size_t points) {
  auto& self = *static_cast<SpectralEngine*>(ctx);
  // Pointwise max signal speed (CFL bookkeeping): the velocity, plus the
  // magnetic field for MHD (b is in Alfven-velocity units, so this keeps
  // the estimate honest for Alfven waves too).
  double umax = self.kernel_umax_;
  const auto fold = [&](std::size_t first) {
    for (std::size_t c = first; c < first + 3; ++c) {
      umax = max_abs(in[c], points, umax);
    }
  };
  fold(0);
  if (const int mb = self.magnetic_base(); mb >= 0) {
    fold(static_cast<std::size_t>(mb));
  }
  self.kernel_umax_ = umax;
  self.system_->form_products(in, out, points);
}

void SpectralEngine::step(double dt) {
  PSDNS_REQUIRE(dt > 0.0, "dt must be positive");
  const std::size_t nf = field_count();

  // The linear propagator E (viscous/diffusive decay plus any system terms
  // such as the Coriolis rotation) is applied to whole field *sets* so
  // systems whose linear operator couples components stay exact. Both
  // schemes open with k1 = N(u) and the midpoint stage u1 = E_h (u + h k1),
  // h = dt/2. Each RHS evaluation's pass writes the next stage or the
  // update (see Update); the last RHS of each scheme stays in the product
  // spectra it lands in.
  Complex* const* state = state_ptrs_.data();
  Complex* const* stage = stage_ptrs_.data();
  Complex* const* last = prod_spec();
  if (config_.scheme != TimeScheme::RK4) {
    // Midpoint RK2 with exact linear terms:
    //   u_new = E_f u + dt E_h N(u1).
    // N(u1) overwrites k1, which the update no longer needs.
    compute_rhs(state, last, Update::Stage, dt);
    compute_rhs(stage, last, Update::Rk2Final, dt);
  } else {
    // Integrating-factor RK4 (classical RK4 on v = E(-t) u):
    //   k2 = N(u1)
    //   u2 = E_h u + dt/2 k2;        k3 = N(u2)
    //   u3 = E_f u + dt E_h k3;      k4 = N(u3)
    //   u+ = E_f u + dt/6 (E_f k1 + 2 E_h (k2 + k3) + k4)
    Complex* const* k1 = k_ptrs();
    compute_rhs(state, k1, Update::Stage, dt);
    compute_rhs(stage, k1 + nf, Update::Rk4Stage2, dt);
    compute_rhs(stage, k1 + 2 * nf, Update::Rk4Stage3, dt);
    compute_rhs(stage, last, Update::Rk4Final, dt);
  }

  time_ += dt;
  ++steps_;
}

double SpectralEngine::cfl_dt(double cfl) {
  if (last_umax_ <= 0.0) {
    // No RHS evaluated yet: measure once via a throwaway evaluation.
    compute_rhs(state_ptrs_.data(), prod_spec(), Update::Rhs, 0.0);
  }
  const double dx = kTwoPi / static_cast<double>(config_.n);
  return last_umax_ > 0.0 ? cfl * dx / last_umax_ : 1e9;
}

Diagnostics SpectralEngine::diagnostics() {
  Diagnostics d;
  d.energy = kinetic_energy(view_, comm_, state_[0].data(), state_[1].data(),
                            state_[2].data());
  d.dissipation = dissipation(view_, comm_, state_[0].data(),
                              state_[1].data(), state_[2].data(),
                              config_.viscosity);
  d.max_divergence = max_divergence(view_, comm_, state_[0].data(),
                                    state_[1].data(), state_[2].data());
  d.u_max = last_umax_;
  if (d.dissipation > 1e-300) {
    const double uprime2 = 2.0 * d.energy / 3.0;
    d.taylor_scale =
        std::sqrt(15.0 * config_.viscosity * uprime2 / d.dissipation);
    d.reynolds_lambda =
        std::sqrt(uprime2) * d.taylor_scale / config_.viscosity;
    d.kolmogorov_eta = std::pow(
        config_.viscosity * config_.viscosity * config_.viscosity /
            d.dissipation,
        0.25);
  }
  return d;
}

ScalarDiagnostics SpectralEngine::scalar_diagnostics(int s) {
  PSDNS_REQUIRE(s >= 0 && s < scalar_count(), "scalar index out of range");
  const auto si = static_cast<std::size_t>(3 + s);
  ScalarDiagnostics d;
  d.variance = field_variance(view_, comm_, state_[si].data());
  d.dissipation =
      field_dissipation(view_, comm_, state_[si].data(), diffusivity(si));
  d.flux_y =
      cospectrum_total(view_, comm_, state_[1].data(), state_[si].data());
  return d;
}

std::vector<NamedValue> SpectralEngine::system_diagnostics() {
  return system_->diagnostics(view_, comm_, state_ptrs_.data());
}

std::vector<double> SpectralEngine::spectrum() {
  return energy_spectrum(view_, comm_, state_[0].data(), state_[1].data(),
                         state_[2].data());
}

std::vector<double> SpectralEngine::scalar_spectrum(int s) {
  PSDNS_REQUIRE(s >= 0 && s < scalar_count(), "scalar index out of range");
  return field_spectrum(view_, comm_,
                        state_[static_cast<std::size_t>(3 + s)].data());
}

std::vector<std::pair<std::string, std::vector<double>>>
SpectralEngine::named_spectra() {
  std::vector<std::pair<std::string, std::vector<double>>> out;
  for (const auto& group : system_->spectra()) {
    std::vector<double> sum;
    for (const int f : group.fields) {
      PSDNS_REQUIRE(f >= 0 && static_cast<std::size_t>(f) < field_count(),
                    "spectrum group references an unknown field");
      auto one = field_spectrum(view_, comm_,
                                state_[static_cast<std::size_t>(f)].data());
      if (sum.empty()) {
        sum = std::move(one);
      } else {
        for (std::size_t i = 0; i < sum.size(); ++i) sum[i] += one[i];
      }
    }
    out.emplace_back(group.name, std::move(sum));
  }
  return out;
}

std::vector<double> SpectralEngine::transfer_spectrum() {
  compute_rhs(state_ptrs_.data(), prod_spec(), Update::Rhs, 0.0);
  // d(1/2 |u|^2)/dt contribution of the nonlinear term, in the band (the
  // RHS is unspecified outside it, where the state is zero).
  const Complex* const* rhs = prod_spec();
  return shell_sums(view_, band_, comm_,
                    [&](std::size_t idx, int kx, int, int) {
                      double rate = 0.0;
                      for (std::size_t c = 0; c < 3; ++c) {
                        rate +=
                            (std::conj(state_[c][idx]) * rhs[c][idx]).real();
                      }
                      return mode_weight(kx, view_.n) * rate;
                    });
}

DerivativeMoments SpectralEngine::derivative_moments() {
  // Longitudinal derivatives via spectral differentiation (du/dx needs
  // i*kx, dv/dy i*ky, dw/dz i*kz), then pointwise moments in physical
  // space. The stage block doubles as gradient scratch and the product
  // block as physical scratch (neither is live between steps). One gradient
  // is transformed at a time, so the backend needs no more scratch than a
  // step's round trip holds. The gradients are written in the band only:
  // the stage stays zero outside it.
  for_each_band_mode(view_, band_, [&](std::size_t idx, int kx, int ky,
                                       int kz) {
    const Complex iu{0.0, 1.0};
    block(stage_, 0)[idx] = iu * static_cast<double>(kx) * state_[0][idx];
    block(stage_, 1)[idx] = iu * static_cast<double>(ky) * state_[1][idx];
    block(stage_, 2)[idx] = iu * static_cast<double>(kz) * state_[2][idx];
  });
  Real* p = phys_scratch(0);
  double m2 = 0.0, m3 = 0.0, m4 = 0.0;
  for (std::size_t c = 0; c < 3; ++c) {
    const Complex* g = block(stage_, c);
    fft_.inverse(std::span<const Complex* const>(&g, 1),
                 std::span<Real* const>(&p, 1), band_);
    for (std::size_t idx = 0; idx < phys_elems_; ++idx) {
      const double g2 = p[idx] * p[idx];
      m2 += g2;
      m3 += g2 * p[idx];
      m4 += g2 * g2;
    }
  }
  double sums[3] = {m2, m3, m4};
  comm_.allreduce_sum(sums, sums, 3);
  const double count =
      3.0 * static_cast<double>(config_.n) * config_.n * config_.n;
  m2 = sums[0] / count;
  m3 = sums[1] / count;
  m4 = sums[2] / count;
  DerivativeMoments out;
  if (m2 > 1e-300) {
    out.skewness = m3 / std::pow(m2, 1.5);
    out.flatness = m4 / (m2 * m2);
  }
  return out;
}

double SpectralEngine::derivative_skewness() {
  return derivative_moments().skewness;
}

namespace {
/// Storage index of mode (kx, ky, kz) in the global nxh x N x N array.
std::size_t global_mode_index(std::size_t n, int kx, int ky, int kz) {
  const auto unwrap = [n](int k) {
    return static_cast<std::size_t>(k < 0 ? k + static_cast<int>(n) : k);
  };
  return static_cast<std::size_t>(kx) +
         (n / 2 + 1) * (unwrap(ky) + n * unwrap(kz));
}

/// Every rank's ModeView on rank 0, and the largest local block: blocks
/// travel padded to that size (pencil rows split nxh unevenly).
std::size_t gather_views(comm::Communicator& comm, const ModeView& mine,
                         std::vector<ModeView>& views) {
  if (comm.rank() == 0) views.resize(static_cast<std::size_t>(comm.size()));
  comm.gather(&mine, views.data(), 1, 0);
  return comm.allreduce_max(mine.local_modes());
}
}  // namespace

void gather_global_field(SpectralEngine& engine, std::size_t f,
                         Complex* global) {
  auto& comm = engine.communicator();
  const ModeView& mine = engine.modes();
  std::vector<ModeView> views;
  const std::size_t pad = gather_views(comm, mine, views);
  std::vector<Complex> padded;
  const Complex* send = engine.field(f);
  if (mine.local_modes() < pad) {
    padded.assign(pad, Complex{0.0, 0.0});
    std::copy_n(send, mine.local_modes(), padded.begin());
    send = padded.data();
  }
  std::vector<Complex> blocks;
  if (comm.rank() == 0) blocks.resize(views.size() * pad);
  comm.gather(send, blocks.data(), pad, 0);
  if (comm.rank() != 0) return;
  for (std::size_t r = 0; r < views.size(); ++r) {
    const Complex* block = blocks.data() + r * pad;
    for_each_mode(views[r], [&](std::size_t idx, int kx, int ky, int kz) {
      global[global_mode_index(mine.n, kx, ky, kz)] = block[idx];
    });
  }
}

void scatter_global_field(SpectralEngine& engine, const Complex* global,
                          Complex* local) {
  auto& comm = engine.communicator();
  const ModeView& mine = engine.modes();
  std::vector<ModeView> views;
  const std::size_t pad = gather_views(comm, mine, views);
  std::vector<Complex> blocks;
  if (comm.rank() == 0) {
    blocks.assign(views.size() * pad, Complex{0.0, 0.0});
    for (std::size_t r = 0; r < views.size(); ++r) {
      Complex* block = blocks.data() + r * pad;
      for_each_mode(views[r], [&](std::size_t idx, int kx, int ky, int kz) {
        block[idx] = global[global_mode_index(mine.n, kx, ky, kz)];
      });
    }
  }
  std::vector<Complex> received(pad);
  comm.scatter(blocks.data(), received.data(), pad, 0);
  std::copy_n(received.begin(), mine.local_modes(), local);
}

}  // namespace psdns::dns
