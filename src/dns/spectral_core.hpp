#pragma once
// The physics-agnostic pseudo-spectral engine - the one solver class: the
// paper's time-stepping machinery (Sec. 2) written against the
// transpose::DistFft3d backend interface. SolverConfig::decomposition picks
// the backend: the slab layout of the paper's "new code", or the pencil
// layout of the synchronous CPU code of Yeung et al. (2015) the paper
// benchmarks against (Table 3).
//
// The engine owns everything that is the same for every equation set:
// state and arena scratch, the batched multi-variable DistFft3d round
// trips, strict-2/3 / Rogallo phase-shift dealiasing, RK2/RK4 stepping
// with exact per-field linear propagators, band forcing, checkpoint
// restore, and the generic statistics. Everything that differs between
// equation sets - the field inventory, the physical-space products, the
// spectral RHS, the linear factor, named diagnostics and spectra - lives
// behind the EquationSystem interface (src/dns/systems/), selected by
// SolverConfig::system. Each RK substage evaluates the nonlinear terms
// pseudo-spectrally: inverse-transform all fields, form the system's
// products in physical space, forward-transform them, let the system
// assemble its spectral RHS, and dealias; the linear terms are integrated
// exactly by the system's propagator (viscous/diffusive decay, plus e.g.
// the Coriolis rotation). The inverse transform, the products (with the
// CFL max) and the forward transform are one DistFft3d::round_trip, so the
// products are formed group by group inside the transform and the engine
// holds no physical-space field. Every transform is told the band the
// dealiasing rule keeps (transpose::SpectralBand), so the slab backend
// transforms and exchanges only those modes.
//
// Everything after the round trip is one spectral pass per RHS. It walks
// the band's rows in blocks (one kz plane by one kept ky range on the
// slab) and, while a block is in cache, undoes the phase shift, scales by
// 1/N^3 and truncates, assembles the system's RHS, adds the forcing, and
// writes the next RK stage or the final update. RK2 is two passes per
// step, RK4 four. Modes outside the band are never visited: state, stage
// and RK4's k blocks hold exact zeros there (filled once, at construction
// or by the initial condition, and never written again), and the product
// spectra hold unspecified values there. Only state and stage are read
// there, by a backend that ignores the band (the pencil).
//
// All substage scratch (one RK stage, the product spectra that every RHS
// lands in, RK4's three earlier stage RHS) is checked out of
// util::WorkspaceArena once at construction, and initial conditions
// are keyed on *global* grid indices through the backend's PhysView - so
// a warmed-up step() performs zero heap allocations and both
// decompositions produce the same physics from the same seed.

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "dns/modes.hpp"
#include "dns/solver_config.hpp"
#include "dns/spectral_ops.hpp"
#include "dns/systems/equation_system.hpp"
#include "transpose/dist_fft.hpp"
#include "util/arena.hpp"

namespace psdns::dns {

class SpectralEngine {
 public:
  /// Builds and owns the backend config.decomposition names
  /// (transpose::make_dist_fft).
  SpectralEngine(comm::Communicator& comm, SolverConfig config);

  /// Runs on a caller-owned backend (e.g. an instrumenting decorator),
  /// which must outlive the engine; config.decomposition is not consulted.
  /// Both constructors configure the backend's transpose batching from
  /// config (pencils / pencils_per_a2a), validate the forcing band,
  /// normalize the config for the selected system (Boussinesq materializes
  /// its buoyancy scalar), and build the EquationSystem.
  SpectralEngine(comm::Communicator& comm, transpose::DistFft3d& fft,
                 SolverConfig config);

  const SolverConfig& config() const { return config_; }
  std::size_t n() const { return config_.n; }
  double time() const { return time_; }
  std::int64_t step_count() const { return steps_; }
  const ModeView& modes() const { return view_; }
  const PhysView& points() const { return pview_; }
  comm::Communicator& communicator() { return comm_; }
  transpose::DistFft3d& fft() { return fft_; }
  const EquationSystem& system() const { return *system_; }
  int scalar_count() const {
    return static_cast<int>(config_.scalars.size());
  }
  std::size_t field_count() const { return system_->field_count(); }
  std::size_t extra_field_count() const { return system_->extra_fields(); }
  /// State index of the first magnetic component, or -1 (non-MHD systems).
  int magnetic_base() const { return system_->magnetic_base(); }
  /// The modes the dealiasing rule keeps, as every transform is told.
  const transpose::SpectralBand& band() const { return band_; }
  /// The step's spectral scratch, dead between steps: the product spectra
  /// every RHS lands in, then RK4's k1..k3 blocks (field_count() each).
  /// Nothing reads their modes outside band().
  std::span<Complex* const> scratch_spectra() const { return scratch_ptrs_; }

  /// Field coefficients (backend spectral layout), f in [0, field_count()):
  /// the three velocity components, then the system's extra fields.
  Complex* field(std::size_t f) { return state_[f].data(); }
  const Complex* field(std::size_t f) const { return state_[f].data(); }

  /// Velocity coefficients, component c in {0,1,2}.
  Complex* uhat(int c) { return state_[static_cast<std::size_t>(c)].data(); }
  const Complex* uhat(int c) const {
    return state_[static_cast<std::size_t>(c)].data();
  }

  /// Scalar coefficients, scalar index s in [0, scalar_count()).
  Complex* that(int s) {
    return state_[static_cast<std::size_t>(3 + s)].data();
  }
  const Complex* that(int s) const {
    return state_[static_cast<std::size_t>(3 + s)].data();
  }

  // --- initial conditions (all collective, decomposition-invariant) ---

  /// 2-D Taylor-Green vortex (u = sin x cos y, v = -cos x sin y, w = 0):
  /// an exact Navier-Stokes solution decaying as exp(-2 nu t); used for
  /// validation.
  void init_taylor_green();

  /// Random solenoidal field with spectrum E(k) ~ (k/k0)^4 exp(-2(k/k0)^2),
  /// rescaled to total energy `energy`. Deterministic in `seed` and
  /// independent of the rank count and decomposition.
  void init_isotropic(std::uint64_t seed, double k_peak, double energy);

  /// Fills from a physical-space function u_c(x, y, z), then projects and
  /// dealiases.
  void init_from_function(
      const std::function<std::array<double, 3>(double, double, double)>& f);

  /// Scalar initial conditions: from a physical-space function, or a
  /// random field shaped like the velocity IC with the given variance.
  void init_scalar_from_function(
      int s, const std::function<double(double, double, double)>& f);
  void init_scalar_isotropic(int s, std::uint64_t seed, double k_peak,
                             double variance);

  /// MHD only: random solenoidal magnetic fluctuation with the same
  /// spectral shape as the velocity IC, rescaled to `energy` (Alfven
  /// units). Does not touch the k = 0 mean field or reset the clock.
  void init_magnetic_isotropic(std::uint64_t seed, double k_peak,
                               double energy);

  /// MHD only: sets the uniform mean magnetic field B0 (the k = 0 mode of
  /// the induction fields, preserved exactly by the stepping).
  void set_uniform_magnetic_field(const std::array<double, 3>& b0);

  /// MHD only: fills the magnetic fluctuation from a physical-space
  /// function b_c(x, y, z), then projects and dealiases it.
  void init_magnetic_from_function(
      const std::function<std::array<double, 3>(double, double, double)>& f);

  /// Overwrites the solver state from externally supplied coefficients
  /// (checkpoint restart). `fields` holds the 3 velocity components
  /// followed by extra_field_count() system fields, each this rank's local
  /// spectral block.
  void restore(std::span<const Complex* const> fields, double time,
               std::int64_t steps);

  // --- stepping ---

  /// Advances one step of size dt with the configured scheme.
  void step(double dt);

  /// Largest stable dt estimate: cfl * dx / u_max (collective). For MHD
  /// the pointwise max includes the magnetic field (Alfven units), so the
  /// estimate respects the Alfven-wave CFL as well.
  double cfl_dt(double cfl = 0.5);

  /// Collective statistics of the current state.
  Diagnostics diagnostics();
  ScalarDiagnostics scalar_diagnostics(int s);

  /// System-specific named statistics (collective): e.g. magnetic_energy
  /// and cross_helicity for MHD, buoyancy_flux for Boussinesq. Empty for
  /// plain Navier-Stokes.
  std::vector<NamedValue> system_diagnostics();

  /// Shell spectra of the current state (collective).
  std::vector<double> spectrum();
  std::vector<double> scalar_spectrum(int s);

  /// The system's named shell-spectrum groups (collective): every system
  /// publishes {"kinetic", ...}; MHD adds {"magnetic", ...}, Boussinesq
  /// {"buoyancy", ...}.
  std::vector<std::pair<std::string, std::vector<double>>> named_spectra();

  /// Nonlinear energy-transfer spectrum T(k): the rate at which the
  /// (projected, dealiased) nonlinear term moves energy into shell k.
  /// The truncated system conserves energy, so sum_k T(k) ~ 0; negative at
  /// the energetic scales, positive at the small scales (the cascade).
  /// Collective.
  std::vector<double> transfer_spectrum();

  /// Velocity-derivative skewness <(du/dx)^3> / <(du/dx)^2>^{3/2},
  /// averaged over the three longitudinal derivatives (collective).
  double derivative_skewness();

  DerivativeMoments derivative_moments();

 private:
  using Field = std::vector<Complex>;

  SpectralEngine(comm::Communicator& comm,
                 std::unique_ptr<transpose::DistFft3d> fft,
                 SolverConfig config);

  double diffusivity(std::size_t f) const { return system_->diffusivity(f); }

  /// What a spectral pass writes besides the RHS, on each block (h = dt/2,
  /// E_s the system's linear propagator over s, k the pass's RHS):
  enum class Update {
    Rhs,        // nothing (and no forcing)
    Stage,      // stage = E_h (state + h k): both schemes' first stage
    Rk2Final,   // state = E_dt state + dt E_h k
    Rk4Stage2,  // stage = E_h state + h k
    Rk4Stage3,  // stage = E_dt state + dt E_h k, and k <- E_h k
    Rk4Final,   // state = E_dt state + dt/6 (E_dt k1 + 2 E_h k2 + 2 k3 + k)
  };

  /// rhs[f] = nonlinear terms of the fields in[f] in the band, plus the
  /// forcing unless update is Rhs, then `update` with step dt; updates
  /// u_max. Pointer-based so RK stages address contiguous arena blocks
  /// without per-call containers. rhs may be prod_spec() itself, and in
  /// must not be: the evaluation uses the product spectra as its scratch.
  /// in may be the stage the update writes: each block is read before it
  /// is written.
  void compute_rhs(const Complex* const* in, Complex* const* rhs,
                   Update update, double dt);

  /// round_trip's kernel (ctx is the engine): folds the pointwise max
  /// signal speed into kernel_umax_, then forms the system's products.
  static void products_kernel(void* ctx, const Real* const* in,
                              Real* const* out, std::size_t points);

  /// Grid-indexed initial-condition values: point (xi, yi, zi) -> one value
  /// per filled field (only the first `count` entries are read).
  using PointFill =
      std::function<std::array<double, 3>(std::size_t, std::size_t,
                                          std::size_t)>;

  /// Fills state fields [base, base + count) from `value` at every local
  /// point, forward-transforms and normalizes them, projects a vector
  /// triple (count == 3) onto its solenoidal part, and dealiases.
  void fill_fields(std::size_t base, std::size_t count,
                   const PointFill& value);

  /// Rescales the `count` fields at `base` so their shell spectrum, whose
  /// current value the caller passes in, becomes
  /// E(k) ~ (k/k0)^4 exp(-2 (k/k0)^2) summing to `total`.
  void shape_spectrum(std::size_t base, std::size_t count,
                      const std::vector<double>& current, double k_peak,
                      double total);

  /// Local index of the k = 0 mode, or spec_ if another rank owns it.
  std::size_t zero_mode() const;

  Complex* block(util::WorkspaceArena::Handle<Complex>& h,
                 std::size_t f) const {
    return h.data() + f * spec_;
  }
  /// Physical scratch field c < 3 for the initial conditions and
  /// statistics, borrowed from prod_hat_ (dead between steps).
  Real* phys_scratch(std::size_t c) const {
    return reinterpret_cast<Real*>(prod_hat_.data()) + c * phys_elems_;
  }

  comm::Communicator& comm_;
  SolverConfig config_;
  transpose::DistFft3d& fft_;
  std::unique_ptr<transpose::DistFft3d> owned_fft_;  // null if caller-owned
  std::unique_ptr<EquationSystem> system_;
  ModeView view_;
  PhysView pview_;
  std::size_t spec_ = 0;        // local spectral elements per field
  std::size_t phys_elems_ = 0;  // local physical elements per field
  std::size_t nprod_ = 0;       // system_->product_count()
  // Cubic 2/3 truncation, or the larger spherical sqrt(2)/3 N radius when
  // phase shifting is active (Rogallo's scheme).
  DealiasRule dealias_;
  // The modes dealias_ keeps, as the band every transform is told: the
  // slab backend transforms and exchanges only those (DistFft3d's band
  // contract), and each banded output ends in a truncation by dealias_.
  transpose::SpectralBand band_;

  std::vector<Field> state_;  // [u, v, w, <system extra fields>]
  double time_ = 0.0;
  std::int64_t steps_ = 0;
  std::int64_t rhs_evals_ = 0;  // parity selects the Rogallo grid shift
  double last_umax_ = 0.0;
  double kernel_umax_ = 0.0;  // this rank's running max inside round_trip

  // Steady-state scratch: contiguous arena blocks checked out once in the
  // constructor, so a warmed-up step() never touches the heap. stage_ holds
  // one field set. prod_hat_ is the one spectral scratch of an RHS
  // evaluation: the phase-shifted inputs, then the round trip's products,
  // then the RHS assembled over them; it is also at least three physical
  // fields (phys_scratch). k_ holds the RK4 stage RHS k1..k3 (empty for
  // RK2): the last RHS of either scheme is read straight from prod_hat_.
  util::WorkspaceArena::Handle<Complex> stage_, k_, prod_hat_;

  // One reused pointer table per block (Complex** converts to the
  // const Complex* const* the read-only callbacks take). scratch_ptrs_
  // holds the nprod_ product spectra, then RK4's 3 field sets of k.
  std::vector<Complex*> state_ptrs_, stage_ptrs_, scratch_ptrs_;
  // The spectral pass's per-block tables: the inputs, and the products,
  // RHS, state, stage and k pointers advanced to the block.
  std::vector<const Complex*> pass_in_;
  std::vector<Complex*> pass_out_;

  Complex* const* prod_spec() const { return scratch_ptrs_.data(); }
  Complex* const* k_ptrs() const { return scratch_ptrs_.data() + nprod_; }
};

/// Collective: rank 0 receives field f of every rank at its global slot
/// i + nxh*(j + N*k) of `global` (nxh*N*N elements; ignored on other
/// ranks). Works for any decomposition: each rank's block travels with its
/// ModeView, and blocks may differ in size.
void gather_global_field(SpectralEngine& engine, std::size_t f,
                         Complex* global);

/// Inverse of gather_global_field: every rank receives its block of rank
/// 0's `global` array into `local` (modes().local_modes() elements).
void scatter_global_field(SpectralEngine& engine, const Complex* global,
                          Complex* local);

}  // namespace psdns::dns
