#pragma once
// Incompressible Navier-Stokes with passive scalars: the seed physics of
// the repo, moved verbatim out of the once Navier-Stokes-only engine so the
// engine refactor stays bit-compatible (pinned by the systems_test digests).

#include "dns/systems/equation_system.hpp"

namespace psdns::dns {

class NavierStokes : public EquationSystem {
 public:
  using EquationSystem::EquationSystem;

  const char* name() const override { return "navier_stokes"; }
  std::size_t extra_fields() const override { return config_.scalars.size(); }
  std::size_t product_count() const override {
    return 6 + 3 * config_.scalars.size();
  }
  double diffusivity(std::size_t f) const override {
    return f < 3 ? config_.viscosity
                 : config_.viscosity / config_.scalars[f - 3].schmidt;
  }

  /// The six symmetric velocity products, then three flux components per
  /// scalar.
  void form_products(const Real* const* fields, Real* const* products,
                     std::size_t m) const override;

  /// Projected conservative-form momentum RHS plus per-scalar
  /// flux-divergence RHS with the mean-gradient source -G v.
  void assemble_rhs(const ModeView& view, const Complex* const* in,
                    const Complex* const* products,
                    Complex* const* rhs) const override;
};

}  // namespace psdns::dns
