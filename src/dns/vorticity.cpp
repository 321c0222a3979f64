#include "dns/vorticity.hpp"

#include <cmath>

namespace psdns::dns {

void curl(const ModeView& view, const Complex* u, const Complex* v,
          const Complex* w, Complex* wx, Complex* wy, Complex* wz) {
  const Complex iu{0.0, 1.0};
  for_each_mode(view, [&](std::size_t idx, int kx, int ky, int kz) {
    const double fx = kx, fy = ky, fz = kz;
    wx[idx] = iu * (fy * w[idx] - fz * v[idx]);
    wy[idx] = iu * (fz * u[idx] - fx * w[idx]);
    wz[idx] = iu * (fx * v[idx] - fy * u[idx]);
  });
}

namespace {

/// Pointwise helicity density Re(conj(u) . (i k x u)) for one mode.
double helicity_density(const Complex* u, const Complex* v, const Complex* w,
                        std::size_t idx, int kx, int ky, int kz) {
  const Complex iu{0.0, 1.0};
  const double fx = kx, fy = ky, fz = kz;
  const Complex wx = iu * (fy * w[idx] - fz * v[idx]);
  const Complex wy = iu * (fz * u[idx] - fx * w[idx]);
  const Complex wz = iu * (fx * v[idx] - fy * u[idx]);
  return (std::conj(u[idx]) * wx + std::conj(v[idx]) * wy +
          std::conj(w[idx]) * wz)
      .real();
}

}  // namespace

double enstrophy_exact(const ModeView& view, comm::Communicator& comm,
                       const Complex* u, const Complex* v, const Complex* w) {
  double sum = 0.0;
  for_each_mode(view, [&](std::size_t idx, int kx, int ky, int kz) {
    const double k2 = static_cast<double>(kx) * kx +
                      static_cast<double>(ky) * ky +
                      static_cast<double>(kz) * kz;
    sum += mode_weight(kx, view.n) * k2 * 0.5 *
           (std::norm(u[idx]) + std::norm(v[idx]) + std::norm(w[idx]));
  });
  return comm.allreduce_sum(sum);
}

double helicity(const ModeView& view, comm::Communicator& comm,
                const Complex* u, const Complex* v, const Complex* w) {
  double sum = 0.0;
  for_each_mode(view, [&](std::size_t idx, int kx, int ky, int kz) {
    sum += mode_weight(kx, view.n) * helicity_density(u, v, w, idx, kx, ky, kz);
  });
  return comm.allreduce_sum(sum);
}

std::vector<double> helicity_spectrum(const ModeView& view,
                                      comm::Communicator& comm,
                                      const Complex* u, const Complex* v,
                                      const Complex* w) {
  return shell_sums(view, SpectralBand::full(view.n), comm,
                    [&](std::size_t idx, int kx, int ky, int kz) {
                      return mode_weight(kx, view.n) *
                             helicity_density(u, v, w, idx, kx, ky, kz);
                    });
}

}  // namespace psdns::dns
