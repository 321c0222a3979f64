#include "dns/spectral_ops.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <vector>

namespace psdns::dns {

void project(const ModeView& view, Complex* u, Complex* v, Complex* w) {
  for_each_mode(view, [&](std::size_t idx, int kx, int ky, int kz) {
    const double k2 = static_cast<double>(kx) * kx +
                      static_cast<double>(ky) * ky +
                      static_cast<double>(kz) * kz;
    if (k2 == 0.0) {
      u[idx] = v[idx] = w[idx] = Complex{0.0, 0.0};
      return;
    }
    const Complex kdotu = static_cast<double>(kx) * u[idx] +
                          static_cast<double>(ky) * v[idx] +
                          static_cast<double>(kz) * w[idx];
    const Complex s = kdotu / k2;
    u[idx] -= static_cast<double>(kx) * s;
    v[idx] -= static_cast<double>(ky) * s;
    w[idx] -= static_cast<double>(kz) * s;
  });
}

namespace {

/// Calls row(base, c1, c2) for every row of the view: the modes
/// base + stride[0] * c0, c0 < extent[0], at loop-dimension-1/2 indices
/// (c1, c2).
template <class F>
void for_each_row(const ModeView& v, F&& row) {
  for (std::size_t c2 = 0; c2 < v.extent[2]; ++c2) {
    for (std::size_t c1 = 0; c1 < v.extent[1]; ++c1) {
      row(v.stride[2] * c2 + v.stride[1] * c1, c1, c2);
    }
  }
}

int loop_wavenumber(const ModeView& v, int d, std::size_t c) {
  return wrap_wavenumber(v.offset[d] + c, v.n);
}

/// One memoized axis table: factor(k) at every global index of an
/// N-point axis, for the parameters `key`.
template <class T>
struct AxisTable {
  std::size_t n = 0;
  std::array<std::uint64_t, 2> key{};
  std::vector<T> values;
};

/// factor(k) for the signed wavenumber k of every global index g < n,
/// memoized per thread for the last 16 parameter pairs (a, b), compared
/// bitwise. A loop dimension with global offset o reads the table from
/// entry o, so the spectral pass, which applies a separable operator block
/// by block, builds each table once per parameter set, not once per block.
/// The storage only grows, so a warmed-up step does not allocate.
template <class T, class F>
const T* axis_table(std::size_t n, double a, double b, F&& factor) {
  thread_local std::array<AxisTable<T>, 16> slots;
  thread_local std::size_t next = 0;
  const std::array<std::uint64_t, 2> key{std::bit_cast<std::uint64_t>(a),
                                         std::bit_cast<std::uint64_t>(b)};
  for (const auto& s : slots) {
    if (s.n == n && s.key == key) return s.values.data();
  }
  auto& s = slots[next];
  next = (next + 1) % slots.size();
  s.n = n;
  s.key = key;
  s.values.resize(n);
  for (std::size_t g = 0; g < n; ++g) s.values[g] = factor(wrap_wavenumber(g, n));
  return s.values.data();
}

/// field *= t[0][c0] * t[1][c1] * t[2][c2] for every mode: a factor that
/// is the product of one factor per loop dimension, with t[1][c1] *
/// t[2][c2] formed once per row.
template <class T>
void apply_separable(const ModeView& v, Complex* field,
                     const std::array<const T*, 3>& t) {
  const std::size_t s0 = v.stride[0];
  for_each_row(v, [&](std::size_t base, std::size_t c1, std::size_t c2) {
    const T f12 = t[1][c1] * t[2][c2];
    Complex* row = field + base;
    for (std::size_t c0 = 0; c0 < v.extent[0]; ++c0) {
      row[c0 * s0] *= f12 * t[0][c0];
    }
  });
}

/// Largest m with every mode |k0| <= m of the row (k1, k2) kept by `rule`,
/// or -1 when the rule drops the whole row. The sphere test compares the
/// exact integer |k|^2 with k2max, mode for mode the same decision as
/// `k2 > k2max`.
long kept_half_width(const DealiasRule& rule, int k1, int k2) {
  if (!rule.spherical) {
    return std::abs(k1) <= rule.kmax && std::abs(k2) <= rule.kmax
               ? rule.kmax
               : -1;
  }
  const double rest = static_cast<double>(k1) * k1 +
                      static_cast<double>(k2) * k2;
  if (rest > rule.k2max) return -1;
  auto kept = [&](long m) {
    return static_cast<double>(m) * static_cast<double>(m) + rest <=
           rule.k2max;
  };
  auto m = static_cast<long>(std::sqrt(rule.k2max - rest));
  while (kept(m + 1)) ++m;
  while (m > 0 && !kept(m)) --m;
  return m;
}

}  // namespace

int axis_kmax(const DealiasRule& rule) {
  return static_cast<int>(kept_half_width(rule, 0, 0));
}

void scale_and_truncate(const ModeView& view, Complex* field, double scale,
                        const DealiasRule& rule) {
  const auto n = static_cast<long>(view.n);
  const auto off = static_cast<long>(view.offset[0]);
  const auto ext = static_cast<long>(view.extent[0]);
  const std::size_t s0 = view.stride[0];
  for_each_row(view, [&](std::size_t base, std::size_t c1, std::size_t c2) {
    const long m = kept_half_width(rule, loop_wavenumber(view, 1, c1),
                                   loop_wavenumber(view, 2, c2));
    // Kept inner indices are [0, lo) and [hi, ext): |k0| <= m means a
    // global index g <= m or g >= n - m. Clamping hi to lo keeps the two
    // ranges disjoint once they meet (m >= (n-1)/2 keeps the whole row).
    long lo = 0, hi = ext;
    if (m >= 0) {
      lo = std::clamp(m + 1 - off, 0L, ext);
      hi = std::clamp(n - m - off, lo, ext);
    }
    Complex* row = field + base;
    for (long c0 = lo; c0 < hi; ++c0) {
      row[static_cast<std::size_t>(c0) * s0] = Complex{0.0, 0.0};
    }
    if (scale != 1.0) {
      for (long c0 = 0; c0 < lo; ++c0) {
        row[static_cast<std::size_t>(c0) * s0] *= scale;
      }
      for (long c0 = hi; c0 < ext; ++c0) {
        row[static_cast<std::size_t>(c0) * s0] *= scale;
      }
    }
  });
}

void dealias_truncate(const ModeView& view, Complex* field) {
  scale_and_truncate(view, field, 1.0, DealiasRule::cube(view.n));
}

void dealias_spherical(const ModeView& view, Complex* field, double kmax) {
  scale_and_truncate(view, field, 1.0, DealiasRule::sphere(kmax));
}

void apply_integrating_factor(const ModeView& view, Complex* field, double nu,
                              double dt) {
  const double* t = axis_table<double>(view.n, nu, dt, [&](int k) {
    return std::exp(-nu * dt * static_cast<double>(k) * k);
  });
  apply_separable(view, field,
                  std::array<const double*, 3>{t + view.offset[0],
                                               t + view.offset[1],
                                               t + view.offset[2]});
}

void nonlinear_rhs(const ModeView& view, const ProductSet& t, Complex* out_u,
                   Complex* out_v, Complex* out_w) {
  const Complex mi{0.0, -1.0};  // -i
  for_each_mode(view, [&](std::size_t idx, int kx, int ky, int kz) {
    const double fx = static_cast<double>(kx);
    const double fy = static_cast<double>(ky);
    const double fz = static_cast<double>(kz);
    // Divergence of the momentum flux: N_i = -i k_m T_im (T_33 = 0).
    Complex nu_ = mi * (fx * t.d11[idx] + fy * t.t12[idx] + fz * t.t13[idx]);
    Complex nv_ = mi * (fx * t.t12[idx] + fy * t.d22[idx] + fz * t.t23[idx]);
    Complex nw_ = mi * (fx * t.t13[idx] + fy * t.t23[idx]);
    // Projection perpendicular to k (continuity / pressure, Eq. 2).
    const double k2 = fx * fx + fy * fy + fz * fz;
    if (k2 == 0.0) {
      out_u[idx] = out_v[idx] = out_w[idx] = Complex{0.0, 0.0};
      return;
    }
    const Complex kdotn = (fx * nu_ + fy * nv_ + fz * nw_) / k2;
    out_u[idx] = nu_ - fx * kdotn;
    out_v[idx] = nv_ - fy * kdotn;
    out_w[idx] = nw_ - fz * kdotn;
  });
}

void scalar_rhs(const ModeView& view, const Complex* fx, const Complex* fy,
                const Complex* fz, Complex* out) {
  const Complex mi{0.0, -1.0};
  for_each_mode(view, [&](std::size_t idx, int kx, int ky, int kz) {
    out[idx] = mi * (static_cast<double>(kx) * fx[idx] +
                     static_cast<double>(ky) * fy[idx] +
                     static_cast<double>(kz) * fz[idx]);
  });
}

void phase_shift(const ModeView& view, Complex* field, const double delta[3],
                 int sign) {
  const double s = sign >= 0 ? 1.0 : -1.0;
  std::array<const Complex*, 3> t{};
  for (int d = 0; d < 3; ++d) {
    const double dd = delta[view.axis[d]];
    t[static_cast<std::size_t>(d)] =
        axis_table<Complex>(view.n, s, dd, [&](int k) {
          const double phase = s * k * dd;
          return Complex{std::cos(phase), std::sin(phase)};
        }) +
        view.offset[d];
  }
  apply_separable(view, field, t);
}

namespace {

/// Sum of w(kx) * f(k, |u|^2-ish) over local modes, then allreduce.
template <class F>
double reduce_modes(const ModeView& view, comm::Communicator& comm,
                    F&& local) {
  double sum = 0.0;
  for_each_mode(view, [&](std::size_t idx, int kx, int ky, int kz) {
    sum += local(idx, kx, ky, kz);
  });
  return comm.allreduce_sum(sum);
}

double energy_density(const Complex* u, const Complex* v, const Complex* w,
                      std::size_t idx) {
  return 0.5 * (std::norm(u[idx]) + std::norm(v[idx]) + std::norm(w[idx]));
}

/// The box |kx|, |ky|, |kz| <= khi holds every mode of the shells
/// round(|k|) <= khi (|k| < khi + 1/2).
SpectralBand shells_box(std::size_t n, int khi) {
  return SpectralBand::of_radius(n, static_cast<std::size_t>(khi));
}

}  // namespace

double kinetic_energy(const ModeView& view, comm::Communicator& comm,
                      const Complex* u, const Complex* v, const Complex* w) {
  return reduce_modes(view, comm,
                      [&](std::size_t idx, int kx, int, int) {
                        return mode_weight(kx, view.n) *
                               energy_density(u, v, w, idx);
                      });
}

double dissipation(const ModeView& view, comm::Communicator& comm,
                   const Complex* u, const Complex* v, const Complex* w,
                   double nu) {
  return 2.0 * nu *
         reduce_modes(view, comm, [&](std::size_t idx, int kx, int ky, int kz) {
           const double k2 = static_cast<double>(kx) * kx +
                             static_cast<double>(ky) * ky +
                             static_cast<double>(kz) * kz;
           return mode_weight(kx, view.n) * k2 * energy_density(u, v, w, idx);
         });
}

std::vector<double> energy_spectrum(const ModeView& view,
                                    comm::Communicator& comm, const Complex* u,
                                    const Complex* v, const Complex* w) {
  return shell_sums(view, SpectralBand::full(view.n), comm,
                    [&](std::size_t idx, int kx, int, int) {
                      return mode_weight(kx, view.n) *
                             energy_density(u, v, w, idx);
                    });
}

double max_divergence(const ModeView& view, comm::Communicator& comm,
                      const Complex* u, const Complex* v, const Complex* w) {
  double local = 0.0;
  for_each_mode(view, [&](std::size_t idx, int kx, int ky, int kz) {
    const Complex div = static_cast<double>(kx) * u[idx] +
                        static_cast<double>(ky) * v[idx] +
                        static_cast<double>(kz) * w[idx];
    local = std::max(local, std::abs(div));
  });
  return comm.allreduce_max(local);
}

double band_energy(const ModeView& view, comm::Communicator& comm,
                   const Complex* u, const Complex* v, const Complex* w,
                   int klo, int khi) {
  double sum = 0.0;
  for_each_band_mode(view, shells_box(view.n, khi), [&](std::size_t idx,
                                                        int kx, int ky,
                                                        int kz) {
    const auto shell = static_cast<int>(shell_of(kx, ky, kz));
    if (shell < klo || shell > khi) return;
    sum += mode_weight(kx, view.n) * energy_density(u, v, w, idx);
  });
  return comm.allreduce_sum(sum);
}

double field_variance(const ModeView& view, comm::Communicator& comm,
                      const Complex* f) {
  return reduce_modes(view, comm, [&](std::size_t idx, int kx, int, int) {
    return mode_weight(kx, view.n) * 0.5 * std::norm(f[idx]);
  });
}

double field_dissipation(const ModeView& view, comm::Communicator& comm,
                         const Complex* f, double kappa) {
  return 2.0 * kappa *
         reduce_modes(view, comm, [&](std::size_t idx, int kx, int ky, int kz) {
           const double k2 = static_cast<double>(kx) * kx +
                             static_cast<double>(ky) * ky +
                             static_cast<double>(kz) * kz;
           return mode_weight(kx, view.n) * k2 * 0.5 * std::norm(f[idx]);
         });
}

std::vector<double> field_spectrum(const ModeView& view,
                                   comm::Communicator& comm,
                                   const Complex* f) {
  return shell_sums(view, SpectralBand::full(view.n), comm,
                    [&](std::size_t idx, int kx, int, int) {
                      return mode_weight(kx, view.n) * 0.5 * std::norm(f[idx]);
                    });
}

double cospectrum_total(const ModeView& view, comm::Communicator& comm,
                        const Complex* a, const Complex* b) {
  return reduce_modes(view, comm, [&](std::size_t idx, int kx, int, int) {
    return mode_weight(kx, view.n) * (std::conj(a[idx]) * b[idx]).real();
  });
}

void add_band_forcing(const ModeView& view, Complex* rhs_u, Complex* rhs_v,
                      Complex* rhs_w, const Complex* u, const Complex* v,
                      const Complex* w, int klo, int khi, double coeff) {
  for_each_band_mode(view, shells_box(view.n, khi), [&](std::size_t idx,
                                                        int kx, int ky,
                                                        int kz) {
    const auto shell = static_cast<int>(shell_of(kx, ky, kz));
    if (shell < klo || shell > khi) return;
    rhs_u[idx] += coeff * u[idx];
    rhs_v[idx] += coeff * v[idx];
    rhs_w[idx] += coeff * w[idx];
  });
}

double max_abs(const Real* v, std::size_t count, double init) {
  // One serial max chain is bound by the max latency; four independent
  // ones are not.
  constexpr std::size_t kLanes = 4;
  double acc[kLanes] = {init, init, init, init};
  std::size_t i = 0;
  for (; i + kLanes <= count; i += kLanes) {
    for (std::size_t j = 0; j < kLanes; ++j) {
      acc[j] = std::max(acc[j], std::abs(v[i + j]));
    }
  }
  for (; i < count; ++i) acc[0] = std::max(acc[0], std::abs(v[i]));
  return std::max(std::max(acc[0], acc[1]), std::max(acc[2], acc[3]));
}

}  // namespace psdns::dns
