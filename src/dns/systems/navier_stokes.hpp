#pragma once
// Incompressible Navier-Stokes with passive scalars: the seed physics of
// the repo (its diagnostics are pinned by systems_test).
//
// The momentum flux is transformed trace-free: the five products
// (t11 - t33, t22 - t33, t12, t13, t23) are T - t33 delta, and the
// divergence of t33 delta is the gradient -i k t33, which the projection
// removes, so five products give the RHS of all six (Basdevant 1983).

#include "dns/systems/equation_system.hpp"

namespace psdns::dns {

class NavierStokes : public EquationSystem {
 public:
  using EquationSystem::EquationSystem;

  const char* name() const override { return "navier_stokes"; }
  std::size_t extra_fields() const override { return config_.scalars.size(); }
  std::size_t product_count() const override {
    return 5 + 3 * config_.scalars.size();
  }
  double diffusivity(std::size_t f) const override {
    return f < 3 ? config_.viscosity
                 : config_.viscosity / config_.scalars[f - 3].schmidt;
  }

  /// The five trace-free velocity products (t11 - t33, t22 - t33, t12,
  /// t13, t23), then three flux components per scalar.
  void form_products(const Real* const* fields, Real* const* products,
                     std::size_t m) const override;

  /// Projected conservative-form momentum RHS plus per-scalar
  /// flux-divergence RHS with the mean-gradient source -G v.
  void assemble_rhs(const ModeView& view, const Complex* const* in,
                    const Complex* const* products,
                    Complex* const* rhs) const override;
};

}  // namespace psdns::dns
