#include "dns/systems/mhd.hpp"

namespace psdns::dns {

std::string IncompressibleMhd::field_name(std::size_t f) const {
  switch (f) {
    case 3: return "bx";
    case 4: return "by";
    case 5: return "bz";
    default: return EquationSystem::field_name(f);
  }
}

void IncompressibleMhd::form_products(const Real* const* fields,
                                      Real* const* products,
                                      std::size_t m) const {
  const Real* vel[3] = {fields[0], fields[1], fields[2]};
  const Real* mag[3] = {fields[3], fields[4], fields[5]};
  for (std::size_t idx = 0; idx < m; ++idx) {
    const Real zp[3] = {vel[0][idx] + mag[0][idx], vel[1][idx] + mag[1][idx],
                        vel[2][idx] + mag[2][idx]};
    const Real zm[3] = {vel[0][idx] - mag[0][idx], vel[1][idx] - mag[1][idx],
                        vel[2][idx] - mag[2][idx]};
    const Real g33 = zp[2] * zm[2];
    products[0][idx] = zp[0] * zm[0] - g33;
    products[1][idx] = zp[1] * zm[1] - g33;
    products[2][idx] = zp[0] * zm[1];
    products[3][idx] = zp[0] * zm[2];
    products[4][idx] = zp[1] * zm[0];
    products[5][idx] = zp[1] * zm[2];
    products[6][idx] = zp[2] * zm[0];
    products[7][idx] = zp[2] * zm[1];
  }
}

void IncompressibleMhd::assemble_rhs(const ModeView& view,
                                     const Complex* const* /*in*/,
                                     const Complex* const* products,
                                     Complex* const* rhs) const {
  for_each_mode(view, [&](std::size_t idx, int kx, int ky, int kz) {
    const double k[3] = {static_cast<double>(kx), static_cast<double>(ky),
                         static_cast<double>(kz)};
    const double k2 = k[0] * k[0] + k[1] * k[1] + k[2] * k[2];
    const Complex g[3][3] = {
        {products[0][idx], products[2][idx], products[3][idx]},
        {products[4][idx], products[1][idx], products[5][idx]},
        {products[6][idx], products[7][idx], Complex{0.0, 0.0}}};
    // s_i = -i k_m (G_im + G_mi)/2 (momentum flux divergence, pre-projection)
    // a_i = -i k_m (G_im - G_mi)/2 (induction; exactly divergence-free)
    Complex s[3], a[3];
    for (int i = 0; i < 3; ++i) {
      Complex sym{0.0, 0.0}, asym{0.0, 0.0};
      for (int m = 0; m < 3; ++m) {
        sym += k[m] * (g[i][m] + g[m][i]);
        asym += k[m] * (g[i][m] - g[m][i]);
      }
      s[i] = Complex{0.0, -0.5} * sym;
      a[i] = Complex{0.0, -0.5} * asym;
    }
    if (k2 > 0.0) {
      const Complex kds = (k[0] * s[0] + k[1] * s[1] + k[2] * s[2]) / k2;
      for (int i = 0; i < 3; ++i) rhs[i][idx] = s[i] - k[i] * kds;
    } else {
      for (int i = 0; i < 3; ++i) rhs[i][idx] = Complex{0.0, 0.0};
    }
    for (int i = 0; i < 3; ++i) rhs[3 + i][idx] = a[i];
  });
}

std::vector<NamedValue> IncompressibleMhd::diagnostics(
    const ModeView& view, comm::Communicator& comm,
    const Complex* const* fields) const {
  const double emag =
      kinetic_energy(view, comm, fields[3], fields[4], fields[5]);
  double hc = 0.0;
  for (int c = 0; c < 3; ++c) {
    hc += cospectrum_total(view, comm, fields[c], fields[3 + c]);
  }
  return {{"magnetic_energy", emag}, {"cross_helicity", hc}};
}

}  // namespace psdns::dns
