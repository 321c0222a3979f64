#pragma once
// The physics side of the engine/system split. An EquationSystem owns
// everything that differs between equation sets integrated by the
// pseudo-spectral engine: the field inventory beyond (u, v, w), the
// physical-space products the nonlinear terms need, the spectral RHS
// assembled from those (dealiased) product spectra, the exact linear
// propagator folded into the integrating factor (diffusion per field, plus
// e.g. the Coriolis rotation), and system-specific diagnostics/spectra.
//
// The SpectralEngine owns everything that does not: state and arena
// scratch, batched DistFft3d round trips, Rogallo phase shifts and
// dealiasing, RK2/RK4 stepping, band forcing, and the generic statistics.
// Adding a new equation set means one new file in this directory plus a
// SystemType enumerator - not a fork of the engine.
//
// Contract notes for implementers:
//  - form_products and assemble_rhs run inside step(); they must not
//    allocate (the engine's zero-allocation step contract is enforced by
//    alloc_test) and must not communicate - collectives in the RHS would
//    deadlock under the engine's batching. Reductions belong in
//    diagnostics().
//  - apply_linear is the *exact* propagator of the system's linear terms
//    over dt. It is applied to RK stages as well as the state, so anything
//    folded in here must be a genuine linear, mode-local operator.
//  - assemble_rhs and apply_linear are mode-local, and the engine calls
//    them on band blocks: sub-views of the local block (a few rows, their
//    own offsets, pointers advanced to the block's first mode). So they
//    must reach modes only through the view (for_each_mode), never assume
//    the view is the whole local array.
//  - Hermitian symmetry: assemble_rhs and apply_linear see only the
//    backend's stored half-spectrum; whatever they do must be consistent
//    with u(-k) = conj(u(k)) (real operators, or identical real matrices
//    for +-k).

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "dns/modes.hpp"
#include "dns/solver_config.hpp"
#include "dns/spectral_ops.hpp"

namespace psdns::dns {

/// One labelled scalar statistic, e.g. {"magnetic_energy", 0.42}.
struct NamedValue {
  std::string name;
  double value = 0.0;
};

/// One labelled shell-spectrum request: the engine sums the field spectra
/// of `fields` (state indices) into a single spectrum published under
/// `name` - e.g. {"magnetic", {3, 4, 5}}.
struct SpectrumGroup {
  std::string name;
  std::vector<int> fields;
};

class EquationSystem {
 public:
  explicit EquationSystem(const SolverConfig& config) : config_(config) {}
  virtual ~EquationSystem() = default;

  EquationSystem(const EquationSystem&) = delete;
  EquationSystem& operator=(const EquationSystem&) = delete;

  const SolverConfig& config() const { return config_; }

  /// Canonical lowercase identifier, matches parse_system_type().
  virtual const char* name() const = 0;

  /// Prognostic fields beyond the three velocity components.
  virtual std::size_t extra_fields() const = 0;
  std::size_t field_count() const { return 3 + extra_fields(); }

  /// Display name of field f ("u", "bz", "scalar1", ...).
  virtual std::string field_name(std::size_t f) const;

  /// Physical-space product arrays form_products fills per RHS evaluation.
  virtual std::size_t product_count() const = 0;

  /// Diffusivity of field f (used by the default apply_linear and by the
  /// engine's per-field dissipation statistics).
  virtual double diffusivity(std::size_t f) const = 0;

  /// State index of the first magnetic-field component, or -1 when the
  /// system carries no magnetic field.
  virtual int magnetic_base() const { return -1; }

  /// Pointwise products in physical space: fields[f] (f < field_count())
  /// and products[t] (t < product_count()) are m-element blocks.
  virtual void form_products(const Real* const* fields,
                             Real* const* products, std::size_t m) const = 0;

  /// Spectral RHS of every field from the dealiased, normalized product
  /// spectra; `in` is the stage state the products were formed from (for
  /// linear-in-state couplings such as mean-gradient or buoyancy terms).
  /// rhs may alias the products: the engine passes rhs[f] == products[f]
  /// for f < field_count() <= product_count() and keeps no other RHS
  /// block. So whatever an implementation needs of products[f] at a mode
  /// it must read before it writes rhs[f] at that mode (NS writes a
  /// scalar's RHS into a momentum or earlier scalar product slot it has
  /// already consumed). `in` never aliases either block.
  virtual void assemble_rhs(const ModeView& view, const Complex* const* in,
                            const Complex* const* products,
                            Complex* const* rhs) const = 0;

  /// Exact propagator of the linear terms over dt, in place on all
  /// field_count() fields. Default: per-field viscous/diffusive
  /// integrating factor exp(-kappa_f k^2 dt).
  virtual void apply_linear(const ModeView& view, Complex* const* fields,
                            double dt) const;

  /// System-specific collective statistics (may allreduce).
  virtual std::vector<NamedValue> diagnostics(
      const ModeView& view, comm::Communicator& comm,
      const Complex* const* fields) const;

  /// Named shell-spectrum groups; every system publishes at least
  /// {"kinetic", {0, 1, 2}}.
  virtual std::vector<SpectrumGroup> spectra() const;

 protected:
  SolverConfig config_;  // engine-normalized copy
};

/// Builds the EquationSystem for config.system, validating the
/// system-specific parameters (rotation rate, buoyancy frequency,
/// resistivity, field-set constraints). Throws util::Error on a
/// misconfigured system.
std::unique_ptr<EquationSystem> make_equation_system(
    const SolverConfig& config);

}  // namespace psdns::dns
