#pragma once
// Incompressible MHD in Elsasser form. State: (u, v, w, bx, by, bz) with b
// in Alfven velocity units. The single product tensor
//
//   G_im = (z+_i z-_m)^,   z+- = u +- b
//
// carries both nonlinearities: its symmetric part is the momentum flux
// u_i u_m - b_i b_m (Reynolds minus Maxwell stress) and its antisymmetric
// part is the induction flux b_i u_m - u_i b_m, so one forward transform of
// the tensor feeds both equations:
//
//   d uhat_i/dt = -P_ij i k_m (G_jm + G_mj)/2 + nu  k^2-diffusion
//   d bhat_i/dt = -     i k_m (G_im - G_mi)/2 + eta k^2-diffusion
//
// Eight products suffice: the system transforms G - G33 delta. The shift
// leaves the antisymmetric part untouched and adds only the gradient
// -i k_i G33 to the symmetric part, which the projection removes.
//
// div b stays *exactly* zero: the induction RHS contracts the symmetric
// k_i k_m with an antisymmetric tensor. The k = 0 mode of b (a uniform
// mean field B0, imposed via SpectralEngine::set_uniform_magnetic_field)
// is automatically preserved - the RHS is proportional to k and the
// diffusive factor is 1 there.

#include "dns/systems/equation_system.hpp"

namespace psdns::dns {

class IncompressibleMhd : public EquationSystem {
 public:
  using EquationSystem::EquationSystem;

  const char* name() const override { return "mhd"; }
  std::size_t extra_fields() const override { return 3; }
  std::string field_name(std::size_t f) const override;
  std::size_t product_count() const override { return 8; }
  int magnetic_base() const override { return 3; }

  /// nu for the velocity, eta for the magnetic field (resistivity 0 is
  /// shorthand for magnetic Prandtl number 1, i.e. eta = nu).
  double diffusivity(std::size_t f) const override {
    if (f < 3) return config_.viscosity;
    return config_.resistivity > 0.0 ? config_.resistivity
                                     : config_.viscosity;
  }

  /// The Elsasser products G_im = z+_i z-_m with G33 shifted out:
  /// G11 - G33, G22 - G33, then the six off-diagonal G_im row-major in
  /// (i, m) (G12, G13, G21, G23, G31, G32).
  void form_products(const Real* const* fields, Real* const* products,
                     std::size_t m) const override;

  void assemble_rhs(const ModeView& view, const Complex* const* in,
                    const Complex* const* products,
                    Complex* const* rhs) const override;

  /// magnetic_energy (1/2 <|b|^2>) and cross_helicity (<u.b>).
  std::vector<NamedValue> diagnostics(
      const ModeView& view, comm::Communicator& comm,
      const Complex* const* fields) const override;

  std::vector<SpectrumGroup> spectra() const override {
    return {{"kinetic", {0, 1, 2}}, {"magnetic", {3, 4, 5}}};
  }
};

}  // namespace psdns::dns
