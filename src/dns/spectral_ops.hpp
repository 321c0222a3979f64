#pragma once
// Spectral-space physics of Eq. 2: solenoidal projection, 2/3-rule
// dealiasing, exact viscous integrating factor, nonlinear RHS assembly from
// transformed products, and shell-averaged statistics. All operations are
// layout-generic over a ModeView and are shared by the slab solver and the
// pencil baseline.

#include <cmath>
#include <span>
#include <vector>

#include "comm/communicator.hpp"
#include "dns/modes.hpp"
#include "fft/types.hpp"

namespace psdns::dns {

using fft::Complex;
using fft::Real;

/// Applies the solenoidal projection P_ij = delta_ij - k_i k_j / k^2 to the
/// vector field (u, v, w); enforces a zero mean mode.
void project(const ModeView& view, Complex* u, Complex* v, Complex* w);

/// The set of modes a dealiasing pass keeps: the strict 2/3 cube
/// max(|kx|,|ky|,|kz|) <= kmax, or the sphere |k|^2 <= k2max.
struct DealiasRule {
  bool spherical = false;
  int kmax = 0;        // cube half-width
  double k2max = 0.0;  // sphere radius squared

  /// Strict 2/3 rule on an N-point grid: kmax = (N-1)/3, so that 3*kmax < N
  /// and a product component of 2*kmax aliases to -(N - 2*kmax) < -kmax
  /// and is removed. (kmax = N/3 exactly would let boundary modes alias
  /// back onto the boundary.)
  static DealiasRule cube(std::size_t n) {
    return {false, (static_cast<int>(n) - 1) / 3, 0.0};
  }
  /// Sphere of radius kmax.
  static DealiasRule sphere(double kmax) { return {true, 0, kmax * kmax}; }
};

/// The largest |k| `rule` keeps on a wavenumber axis: the cube's kmax, or
/// the largest integer inside the sphere.
int axis_kmax(const DealiasRule& rule);

/// field = scale * field on every mode `rule` keeps, and exactly zero on
/// every other mode: truncated modes are assigned zero, never multiplied,
/// so a NaN or Inf there vanishes while one in a kept mode survives. One
/// pass, row by row: a row outside the band is zero-filled, a kept row
/// scales its kept inner range(s) and zeroes the rest. scale = 1 leaves
/// kept modes untouched.
void scale_and_truncate(const ModeView& view, Complex* field, double scale,
                        const DealiasRule& rule);

/// Zeroes every mode with max(|kx|,|ky|,|kz|) > (N-1)/3 (strict 2/3-rule
/// truncation, Sec. 2 / Rogallo 1981). Removes quadratic aliasing
/// completely on its own.
void dealias_truncate(const ModeView& view, Complex* field);

/// Zeroes every mode with |k| > kmax (spherical truncation). Used with
/// phase shifting (Rogallo's scheme): the larger radius sqrt(2)/3 N keeps
/// more resolved modes, and the alternating half-cell grid shifts cancel
/// the leading aliasing contributions across RK substages.
void dealias_spherical(const ModeView& view, Complex* field, double kmax);

/// Multiplies by exp(-nu k^2 dt) (exact viscous integration). The factor
/// is separable, exp(-nu dt kx^2) exp(-nu dt ky^2) exp(-nu dt kz^2), so it
/// is read from one table of the N axis factors, not computed per mode.
/// Each thread keeps its last 16 tables (keyed by nu and dt, bitwise), so
/// calls on many sub-views of one block with the same parameters build
/// the table once.
void apply_integrating_factor(const ModeView& view, Complex* field, double nu,
                              double dt);

/// out_i = -P_ij * (i k_m T_jm) from the 5 transformed products of the
/// trace-shifted velocity tensor T = u_i u_j - t33 delta_ij, i.e.
/// {t11-t33, t22-t33, t12, t13, t23}: the conservative-form nonlinear term
/// of Eq. 2, projected to the divergence-free plane. The shift's divergence
/// is a gradient, so the projection gives the RHS of the full tensor.
struct ProductSet {
  const Complex* d11;  // t11 - t33
  const Complex* d22;  // t22 - t33
  const Complex* t12;
  const Complex* t13;
  const Complex* t23;
};
void nonlinear_rhs(const ModeView& view, const ProductSet& products,
                   Complex* out_u, Complex* out_v, Complex* out_w);

/// Scalar advection RHS in conservative form: out = -i k . F from the
/// transformed flux vector F = (u theta, v theta, w theta)^. No projection
/// (scalars carry no pressure); dealias separately.
void scalar_rhs(const ModeView& view, const Complex* fx, const Complex* fy,
                const Complex* fz, Complex* out);

/// The shell round(|k|) of mode (kx, ky, kz).
inline std::size_t shell_of(int kx, int ky, int kz) {
  return static_cast<std::size_t>(std::lround(
      std::sqrt(static_cast<double>(kx) * kx + static_cast<double>(ky) * ky +
                static_cast<double>(kz) * kz)));
}

/// Shell sums: out[s], s <= N/2, adds term(index, kx, ky, kz) over the
/// modes of `band` in shell s, in storage order. Collective.
template <class F>
std::vector<double> shell_sums(const ModeView& view, const SpectralBand& band,
                               comm::Communicator& comm, F&& term) {
  std::vector<double> shells(view.n / 2 + 1, 0.0);
  for_each_band_mode(view, band, [&](std::size_t idx, int kx, int ky,
                                     int kz) {
    const std::size_t s = shell_of(kx, ky, kz);
    if (s < shells.size()) shells[s] += term(idx, kx, ky, kz);
  });
  comm.allreduce_sum(shells.data(), shells.data(), shells.size());
  return shells;
}

/// 1/2 sum w(kx) |f|^2 - the variance functional of one field. Collective.
double field_variance(const ModeView& view, comm::Communicator& comm,
                      const Complex* f);

/// 2 kappa sum w(kx) k^2 (1/2 |f|^2) - scalar dissipation chi. Collective.
double field_dissipation(const ModeView& view, comm::Communicator& comm,
                         const Complex* f, double kappa);

/// Shell spectrum of 1/2 |f|^2. Collective.
std::vector<double> field_spectrum(const ModeView& view,
                                   comm::Communicator& comm,
                                   const Complex* f);

/// sum w(kx) Re(conj(a) b) - total cospectrum, e.g. the scalar flux
/// <v theta> when called with (vhat, thetahat). Collective.
double cospectrum_total(const ModeView& view, comm::Communicator& comm,
                        const Complex* a, const Complex* b);

/// Multiplies by the phase factor exp(+- i k . delta) (Rogallo phase-shift
/// dealiasing); sign = +1 or -1, delta in radians per axis. Separable like
/// the integrating factor: one memoized complex phase table per axis.
void phase_shift(const ModeView& view, Complex* field, const double delta[3],
                 int sign);

/// Total kinetic energy (1/2 <|u|^2>) of the local modes; collective sum.
double kinetic_energy(const ModeView& view, comm::Communicator& comm,
                      const Complex* u, const Complex* v, const Complex* w);

/// Energy dissipation rate 2 nu sum k^2 E(k); collective.
double dissipation(const ModeView& view, comm::Communicator& comm,
                   const Complex* u, const Complex* v, const Complex* w,
                   double nu);

/// Shell-averaged energy spectrum: E[s] sums 1/2 |u|^2 over modes with
/// round(|k|) == s, s in [0, N/2]. Collective.
std::vector<double> energy_spectrum(const ModeView& view,
                                    comm::Communicator& comm, const Complex* u,
                                    const Complex* v, const Complex* w);

/// max_k |k . u(k)| - divergence residual, should be ~round-off after
/// projection. Collective.
double max_divergence(const ModeView& view, comm::Communicator& comm,
                      const Complex* u, const Complex* v, const Complex* w);

/// Energy contained in shells klo <= round(|k|) <= khi. Collective. Like
/// add_band_forcing it visits only the box |kx|, |ky|, |kz| <= khi.
double band_energy(const ModeView& view, comm::Communicator& comm,
                   const Complex* u, const Complex* v, const Complex* w,
                   int klo, int khi);

/// Adds coeff * u to f for modes in the band (velocity-proportional band
/// forcing, see dns/forcing.hpp).
void add_band_forcing(const ModeView& view, Complex* rhs_u, Complex* rhs_v,
                      Complex* rhs_w, const Complex* u, const Complex* v,
                      const Complex* w, int klo, int khi, double coeff);

/// max(init, |v[0]|, ..., |v[count-1]|), bitwise the serial fold
/// acc = std::max(acc, std::abs(v[i])): it keeps its running maximum in
/// independent accumulators (max is exact and order-free), and a NaN point
/// leaves an accumulator unchanged exactly as std::max(acc, NaN) does.
double max_abs(const Real* v, std::size_t count, double init);

}  // namespace psdns::dns
