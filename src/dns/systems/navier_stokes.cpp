#include "dns/systems/navier_stokes.hpp"

namespace psdns::dns {

void NavierStokes::form_products(const Real* const* fields,
                                 Real* const* products, std::size_t m) const {
  const Real* u = fields[0];
  const Real* v = fields[1];
  const Real* w = fields[2];
  Real* d11 = products[0];
  Real* d22 = products[1];
  Real* t12 = products[2];
  Real* t13 = products[3];
  Real* t23 = products[4];
  for (std::size_t idx = 0; idx < m; ++idx) {
    const Real t33 = w[idx] * w[idx];
    d11[idx] = u[idx] * u[idx] - t33;
    d22[idx] = v[idx] * v[idx] - t33;
    t12[idx] = u[idx] * v[idx];
    t13[idx] = u[idx] * w[idx];
    t23[idx] = v[idx] * w[idx];
  }
  const std::size_t nscalars = config_.scalars.size();
  for (std::size_t s = 0; s < nscalars; ++s) {
    const Real* theta = fields[3 + s];
    Real* fx = products[5 + 3 * s + 0];
    Real* fy = products[5 + 3 * s + 1];
    Real* fz = products[5 + 3 * s + 2];
    for (std::size_t idx = 0; idx < m; ++idx) {
      fx[idx] = u[idx] * theta[idx];
      fy[idx] = v[idx] * theta[idx];
      fz[idx] = w[idx] * theta[idx];
    }
  }
}

void NavierStokes::assemble_rhs(const ModeView& view, const Complex* const* in,
                                const Complex* const* products,
                                Complex* const* rhs) const {
  nonlinear_rhs(view,
                ProductSet{products[0], products[1], products[2], products[3],
                           products[4]},
                rhs[0], rhs[1], rhs[2]);

  const std::size_t nscalars = config_.scalars.size();
  for (std::size_t s = 0; s < nscalars; ++s) {
    scalar_rhs(view, products[5 + 3 * s + 0], products[5 + 3 * s + 1],
               products[5 + 3 * s + 2], rhs[3 + s]);
    const double g = config_.scalars[s].mean_gradient;
    if (g != 0.0) {
      Complex* out = rhs[3 + s];
      const Complex* vv = in[1];
      for_each_mode(view, [&](std::size_t idx, int, int, int) {
        out[idx] -= g * vv[idx];
      });
    }
  }
}

}  // namespace psdns::dns
