#pragma once
// Distributed 3-D real<->complex FFTs on top of the slab and pencil
// transposes. These are the "standalone 3D FFT" building blocks the paper's
// DNS is structured around (Sec. 2: the DNS shares its structure and
// performance with 3D FFTs). Transform order follows the paper: x, z, y
// going physical->spectral; y, z, x coming back (Sec. 3.3) for the slab
// backend, x, y, z for the pencil baseline.
//
// DistFft3d is the decomposition-agnostic face of both backends: a solver
// written against it (dns::SpectralEngine) sees only
//   - batched multi-variable forward/inverse transforms,
//   - the local physical and spectral extents,
//   - a ModeView/PhysView describing how local storage maps to global
//     (kx,ky,kz) / (x,y,z) indices,
//   - the pencil/aggregation batching knobs of Sec. 4.1 (set_batching),
// and runs unchanged on either decomposition. make_dist_fft() builds the
// backend a Decomposition value names, so callers pick slab or pencil with
// one config value instead of a class.
//
// Both backends are unnormalized: inverse(forward(u)) == N^3 * u.

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "fft/plan.hpp"
#include "fft/real.hpp"
#include "fft/types.hpp"
#include "transpose/pencil.hpp"
#include "transpose/slab.hpp"
#include "transpose/views.hpp"
#include "util/arena.hpp"

namespace psdns::transpose {

using fft::Complex;
using fft::Real;

/// Decomposition-agnostic distributed 3-D FFT backend.
class DistFft3d {
 public:
  virtual ~DistFft3d() = default;

  virtual std::size_t n() const = 0;
  /// Local element counts of one variable in each space.
  virtual std::size_t physical_elems() const = 0;
  virtual std::size_t spectral_elems() const = 0;

  /// How this backend's local spectral / physical storage maps to global
  /// wavenumbers / grid indices.
  virtual ModeView mode_view() const = 0;
  virtual PhysView phys_view() const = 0;

  /// Pencil batching of the transposes (Sec. 4.1): np pencils, q pencils
  /// aggregated per all-to-all. Backends without pencil batching accept
  /// and ignore the knobs.
  virtual void set_batching(int np, int q) = 0;
  virtual int pencils() const = 0;
  virtual int pencils_per_alltoall() const = 0;

  /// Physical -> spectral, one or more variables at once (phys[v] and
  /// spec[v] are the v-th variable's local blocks).
  virtual void forward(std::span<const Real* const> phys,
                       std::span<Complex* const> spec) = 0;
  virtual void inverse(std::span<const Complex* const> spec,
                       std::span<Real* const> phys) = 0;

  /// Single-variable convenience (non-virtual, forwards to the batched
  /// entry points).
  void forward(std::span<const Real> phys, std::span<Complex> spec);
  void inverse(std::span<const Complex> spec, std::span<Real> phys);
};

/// Slab-decomposed transform (the new GPU code's layout).
///
/// Physical layout (Y-slabs): r[x + n*(k + n*jj)], y = rank*my + jj.
/// Spectral layout (Z-slabs): a[i + nxh*(j + n*kk)], k = rank*mz + kk.
class SlabFft3d final : public DistFft3d {
 public:
  SlabFft3d(comm::Communicator& comm, std::size_t n);

  std::size_t n() const override { return n_; }
  std::size_t nxh() const { return n_ / 2 + 1; }
  std::size_t my() const { return grid().my(); }
  std::size_t mz() const { return grid().mz(); }
  const SlabGrid& grid() const { return transpose_.grid(); }

  std::size_t physical_elems() const override { return n_ * n_ * my(); }
  std::size_t spectral_elems() const override { return nxh() * n_ * mz(); }

  ModeView mode_view() const override {
    return ModeView::zslab(n_, mz(),
                           static_cast<std::size_t>(comm_.rank()) * mz());
  }
  PhysView phys_view() const override {
    return PhysView::yslab(n_, my(),
                           static_cast<std::size_t>(comm_.rank()) * my());
  }

  void set_batching(int np, int q) override {
    PSDNS_REQUIRE(np >= 1 && q >= 1, "bad pencil grouping");
    np_ = np;
    q_ = q;
  }
  int pencils() const override { return np_; }
  int pencils_per_alltoall() const override { return q_; }

  /// Batched entry points using the configured np/q.
  void forward(std::span<const Real* const> phys,
               std::span<Complex* const> spec) override;
  void inverse(std::span<const Complex* const> spec,
               std::span<Real* const> phys) override;

  /// Explicit-batching variants (np pencils, q per all-to-all).
  void forward(std::span<const Real* const> phys,
               std::span<Complex* const> spec, int np, int q);
  void inverse(std::span<const Complex* const> spec,
               std::span<Real* const> phys, int np, int q);

  /// Single-variable convenience overloads.
  void forward(std::span<const Real> phys, std::span<Complex> spec,
               int np = 1, int q = 1);
  void inverse(std::span<const Complex> spec, std::span<Real> phys,
               int np = 1, int q = 1);

 private:
  comm::Communicator& comm_;
  std::size_t n_;
  SlabTranspose transpose_;
  std::shared_ptr<const fft::PlanR2C> plan_x_;
  std::shared_ptr<const fft::PlanC2C> plan_yz_;
  int np_ = 1, q_ = 1;
  // Per-variable Y-slab scratch, checked out of the workspace arena.
  std::vector<util::WorkspaceArena::Handle<Complex>> work_;
  // Reused per-call pointer arrays (forward/inverse are hot-loop calls).
  std::vector<Complex*> yslab_ptrs_, zslab_ptrs_;
};

/// Pencil-decomposed transform (the CPU baseline's layout).
///
/// Physical layout (X-pencils): r[x + n*(jj + yl*kk)],
///   y = row_rank*yl + jj, z = col_rank*zl + kk.
/// Spectral layout (Z-pencils): pz[k + n*(ii + w*jj)],
///   kx = x_range().x0 + ii, ky = col_rank*yl2 + jj.
class PencilFft3d final : public DistFft3d {
 public:
  PencilFft3d(comm::Communicator& comm, std::size_t n, int pr, int pc);

  std::size_t n() const override { return n_; }
  std::size_t nxh() const { return n_ / 2 + 1; }
  const PencilGrid& grid() const { return transpose_.grid(); }
  PencilRange x_range() const { return transpose_.x_range(); }

  std::size_t physical_elems() const override {
    return n_ * grid().yl() * grid().zl();
  }
  std::size_t spectral_elems() const override {
    return n_ * x_range().width() * grid().yl2();
  }

  ModeView mode_view() const override {
    return ModeView::zpencil(
        n_, x_range().width(), x_range().x0, grid().yl2(),
        static_cast<std::size_t>(transpose_.col_rank()) * grid().yl2());
  }
  PhysView phys_view() const override {
    return PhysView::xpencil(
        n_, grid().yl(),
        static_cast<std::size_t>(transpose_.row_rank()) * grid().yl(),
        grid().zl(),
        static_cast<std::size_t>(transpose_.col_rank()) * grid().zl());
  }

  /// The pencil path always moves whole fields; the knobs are accepted so
  /// solver code can set them uniformly, and reported back as configured.
  void set_batching(int np, int q) override {
    PSDNS_REQUIRE(np >= 1 && q >= 1, "bad pencil grouping");
    np_ = np;
    q_ = q;
  }
  int pencils() const override { return np_; }
  int pencils_per_alltoall() const override { return q_; }

  /// Batched multi-variable entry points (variables transform one after
  /// the other; the pencil transposes are single-field).
  void forward(std::span<const Real* const> phys,
               std::span<Complex* const> spec) override;
  void inverse(std::span<const Complex* const> spec,
               std::span<Real* const> phys) override;

  void forward(std::span<const Real> phys, std::span<Complex> spec);
  void inverse(std::span<const Complex> spec, std::span<Real> phys);

 private:
  std::size_t n_;
  PencilTranspose transpose_;
  std::shared_ptr<const fft::PlanR2C> plan_x_;
  std::shared_ptr<const fft::PlanC2C> plan_yz_;
  int np_ = 1, q_ = 1;
  // Intermediate layouts (X- and Y-pencils) and the inverse() Z-pencil
  // scratch, all checked out of the workspace arena.
  util::WorkspaceArena::Handle<Complex> px_, py_, pz_;
};

/// Which backend a solver runs on: the paper's slab layout, or the 2-D
/// pencil layout of the synchronous CPU baseline.
enum class Decomposition { Slab, Pencil };

/// "slab" / "pencil" (the spelling of config files, job requests and job
/// hashes).
const char* to_string(Decomposition d);
Decomposition parse_decomposition(const std::string& name);

/// The pencil process grid for `ranks` ranks: the most square pr x pc
/// factorization with pr <= pc (4 -> 2x2, 2 -> 1x2, 6 -> 2x3).
std::pair<int, int> square_grid(int ranks);

/// The backend for `decomposition` on comm's ranks; pencil grids come
/// from square_grid(comm.size()).
std::unique_ptr<DistFft3d> make_dist_fft(comm::Communicator& comm,
                                         std::size_t n,
                                         Decomposition decomposition);

}  // namespace psdns::transpose
