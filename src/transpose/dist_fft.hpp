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
//   - batched multi-variable forward/inverse transforms, and the fused
//     inverse -> pointwise kernel -> forward round_trip,
//   - the local physical and spectral extents,
//   - a ModeView/PhysView describing how local storage maps to global
//     (kx,ky,kz) / (x,y,z) indices,
//   - the pencil/aggregation batching knobs of Sec. 4.1 (set_batching),
// and runs unchanged on either decomposition. make_dist_fft() builds the
// backend a Decomposition value names, so callers pick slab or pencil with
// one config value instead of a class.
//
// SlabFft3d is the one slab backend. set_batching() is the only way to set
// its np/Q: the pencils chunk the global transpose, so np and Q change how
// many all-to-alls a transform makes, never a bit of its result.
//
// round_trip() is the pseudo-spectral RHS in one call: inverse-transform
// the input fields, apply a pointwise kernel (the products) in physical
// space, forward-transform the kernel's outputs. Once the last transpose of
// the inverse has run, every remaining pass is local to a group of x-lines
// (whole Y-planes for the slab, X-pencil lines for the pencil), so both
// backends run the local inverse passes, the kernel and the local forward
// passes group by group while the group is in cache, and never hold a
// full-size physical field. The paper keeps each pencil batch resident
// through its stages the same way (Fig. 4).
//  - Group size: round_trip_group_lines() x-lines, a whole number of planes
//    that is a multiple of the x pass's r2c block; the last group takes
//    the remainder. The x pass's block partition is therefore that of a
//    whole-slab call, and every output bit equals the unfused path's.
//  - The x passes run through fft::PlanR2C's block entry points: the
//    group's physical scratch holds each block of x-lines in the half-length
//    engine's batch-innermost order, so the c2r lands in it and the r2c
//    starts from it in L1, with no scatter and no gather.
//  - The kernel is called once per group, in order, with point counts that
//    sum to physical_elems(). Within a group the points reach it in a
//    plan-private order (the same for every field): call c sees exactly the
//    values of the unfused inverse's x-lines of group c, permuted. It must
//    be pointwise and must not communicate; it may fold order-free running
//    state (e.g. a max) into its context.
//  - The outputs double as scratch: before the forward passes write them,
//    the backends park the inputs' inverse-transform intermediates there.
//    Output v may be input v's own buffer (the intermediate then replaces
//    the input in place).
//  - The base class's default is the unfused definition: inverse() into
//    full-size scratch, the kernel over all points at once, forward().
//    Forwarding decorators that override only forward/inverse inherit it.
//
// Band-limited transforms. A solver that truncates its spectra (the 2/3
// rule) passes the modes it keeps as a SpectralBand: kx < width,
// |ky| <= ky, |kz| <= kz. The contract of every banded call:
//  - spectral inputs are zero outside the band;
//  - spectral outputs are unspecified outside the band (the caller's
//    truncation overwrites them); every output inside it is bitwise the
//    unbanded call's.
// A backend may ignore the band. SlabFft3d honours it: its Y-slabs are
// width columns wide, its x/z passes and transposes touch only those
// columns, and its y passes run only on Z-slab planes with |kz| <= kz.
// The width is even (SpectralBand::of_radius, transpose/views.hpp) because the Stockham kernels
// pair adjacent lines into AVX2-FMA lanes and run an odd remainder line in
// scalar code, which the compiler contracts into FMAs at other operations
// than the packed code (stockham_avx2.cpp is built with -mfma and
// contraction on): an odd width would move its last line out of the lane
// it has in the unbanded pass and change its bits. This relies on
// every batch block starting on an even line: fft::batch_block_lines(N)
// is 64 up to N = 512, and fft::real_block_lines(h) is an even power of
// two for every h.
// The banded forward/inverse are non-pure: the base versions call the
// unbanded forms, so a forwarding decorator that overrides only those
// (perfbench's TimedFft) runs unbanded, with every kept bit the same.
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

/// Pointwise physical-space kernel of DistFft3d::round_trip: reads in[f][i]
/// and writes out[t][i] for i < points. Point i is the same grid point in
/// every field, but which one is the backend's business: the order is
/// plan-private within a round trip group. A function pointer plus a
/// context pointer, as util::ThreadPool's jobs are, so a call allocates
/// nothing.
using PointKernel = void (*)(void* ctx, const Real* const* in,
                             Real* const* out, std::size_t points);

/// x-lines per round_trip group for an N = n grid whose planes hold
/// `plane_lines` x-lines: the smallest whole number of planes that is a
/// multiple of the x pass's block fft::real_block_lines(n/2) and of
/// B = fft::batch_block_lines(n/2), and holds at least B lines per pool
/// thread. B (64 lines up to n = 1024, a multiple of the x block there)
/// keeps the groups as long as the slab's per-group z passes need.
std::size_t round_trip_group_lines(std::size_t n, std::size_t plane_lines);

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

  /// Banded forms (contract at the top of this file). The defaults call
  /// the unbanded forms above.
  virtual void forward(std::span<const Real* const> phys,
                       std::span<Complex* const> spec,
                       const SpectralBand& band);
  virtual void inverse(std::span<const Complex* const> spec,
                       std::span<Real* const> phys, const SpectralBand& band);

  /// out = forward(kernel(inverse(in))) for in.size() input and out.size()
  /// output fields. Each out[t] holds spectral_elems() elements; its
  /// contents are unspecified during the call (the backends use the outputs
  /// as scratch). out[v] may alias in[v], the same index only: the call
  /// then consumes that input, and the result is bitwise the same as with
  /// separate buffers (the engine round-trips phase-shifted copies that
  /// live in its outputs). No other output may alias an input. Inputs
  /// and outputs are banded by `band`. The default runs exactly that, with
  /// full-size physical scratch and one kernel call over all points in
  /// natural order (through the banded forward/inverse); the backends
  /// override it with the grouped schedule described at the top of this
  /// file, which hands the kernel each group's points in a plan-private
  /// order and is bitwise equal to the default inside the band.
  virtual void round_trip(std::span<const Complex* const> in,
                          PointKernel kernel, void* ctx,
                          std::span<Complex* const> out,
                          const SpectralBand& band);

  /// Single-variable convenience (non-virtual, forwards to the batched
  /// entry points).
  void forward(std::span<const Real> phys, std::span<Complex> spec);
  void inverse(std::span<const Complex> spec, std::span<Real> phys);

 protected:
  /// Physical scratch of `points` points for nin + nout fields, checked out
  /// of the workspace arena on first use: the pointer table holds the nin
  /// inputs, then the nout outputs.
  Real* const* point_scratch(std::size_t nin, std::size_t nout,
                             std::size_t points);

 private:
  util::WorkspaceArena::Handle<Real> points_;
  std::vector<Real*> point_ptrs_;
};

/// Slab-decomposed transform (the new GPU code's layout).
///
/// Physical layout (Y-slabs): r[x + n*(k + n*jj)], y = rank*my + jj.
/// Spectral layout (Z-slabs): a[i + nxh*(j + n*kk)], k = rank*mz + kk.
/// Its own spectral Y-slabs hold the band's width columns per x-row
/// (pitch W = band.width, nxh unbanded): w[i + W*(k + n*jj)].
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

  /// Rejects a batching that leaves an x-chunk of the unbanded field empty
  /// (np > N/2+1 with q < np), so a bad config fails when the engine is
  /// built. A band narrower than np may leave chunks empty: those make no
  /// exchange.
  void set_batching(int np, int q) override;
  int pencils() const override { return np_; }
  int pencils_per_alltoall() const override { return q_; }

  using DistFft3d::forward;
  using DistFft3d::inverse;
  void forward(std::span<const Real* const> phys,
               std::span<Complex* const> spec) override;
  void inverse(std::span<const Complex* const> spec,
               std::span<Real* const> phys) override;
  void forward(std::span<const Real* const> phys,
               std::span<Complex* const> spec,
               const SpectralBand& band) override;
  /// The Z-slab scratch between the y-inverse and z_to_y is W-pitched
  /// too, so the call holds 2 nv slabs of W columns.
  void inverse(std::span<const Complex* const> spec,
               std::span<Real* const> phys, const SpectralBand& band) override;

  /// y-inverse and z_to_y of the inputs, then per group of Y-planes: the
  /// z-inverse and x c2r of the inputs, the kernel, the x r2c and z-forward
  /// of the outputs; then y_to_z and y-forward of the outputs. Input v's
  /// Z-slab scratch is out[v] (dead until y_to_z writes it), and input v
  /// and output v share the Y-slab work_[v] (an input's plane is consumed
  /// before the output writes it), so the call holds max(nin, nout) slabs
  /// of scratch when nout >= nin, and 2 nin - nout when nout < nin.
  /// Inputs past the last output park their Z-slabs in nxh-pitched work
  /// slabs.
  void round_trip(std::span<const Complex* const> in, PointKernel kernel,
                  void* ctx, std::span<Complex* const> out,
                  const SpectralBand& band) override;

 private:
  /// Checks out work_[0, count) as slab scratch of `width` columns.
  void ensure_work(std::size_t count, std::size_t width);
  /// Whether local Z-slab plane kk holds a mode of the band.
  bool keeps_plane(const SpectralBand& band, std::size_t kk) const;
  /// y-inverse of spec[v] into the Z-slab scratch zslab_ptrs_[v] (row
  /// pitch zpitch), then the batched z_to_y into the Y-slabs
  /// yslab_ptrs_[v]; the caller points both tables.
  void inverse_to_yslabs(std::span<const Complex* const> spec,
                         const SpectralBand& band, std::size_t zpitch);
  /// y_to_z of the Y-slabs yslab_ptrs_[v] into spec[v], then y-forward.
  void yslabs_to_spectral(std::span<Complex* const> spec,
                          const SpectralBand& band);
  /// z pass (in place) over Y-planes [j0, j0 + planes) of every Y-slab of
  /// `width` columns.
  void z_pass(fft::Direction dir, Complex* const* yslabs, std::size_t nv,
              std::size_t j0, std::size_t planes, std::size_t width) const;

  comm::Communicator& comm_;
  std::size_t n_;
  SlabTranspose transpose_;
  std::shared_ptr<const fft::PlanR2C> plan_x_;
  std::shared_ptr<const fft::PlanC2C> plan_yz_;
  int np_ = 1, q_ = 1;
  // Per-variable slab scratch, checked out of the workspace arena.
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
  using DistFft3d::forward;
  using DistFft3d::inverse;
  void forward(std::span<const Real* const> phys,
               std::span<Complex* const> spec) override;
  void inverse(std::span<const Complex* const> spec,
               std::span<Real* const> phys) override;

  void forward(std::span<const Real> phys, std::span<Complex> spec);
  void inverse(std::span<const Complex> spec, std::span<Real> phys);

  /// Each input z -> y -> x into its own spectral X-pencil px_[v], with
  /// out[0] as the z-inverse's Z-pencil scratch, then per group of X-pencil
  /// lines: x c2r of the inputs, the kernel, x r2c of the outputs into
  /// px_[t]; then each output x -> y -> z. Holds max(nin, nout) X-pencils
  /// and one Y-pencil of scratch. Ignores the band.
  void round_trip(std::span<const Complex* const> in, PointKernel kernel,
                  void* ctx, std::span<Complex* const> out,
                  const SpectralBand& band) override;

 private:
  /// Checks out px_[0, count) and the Y-pencil scratch.
  void ensure_pencils(std::size_t count);
  /// z-inverse into the Z-pencil scratch pz (spec may be pz), then z_to_y,
  /// y-inverse, y_to_x into X-pencil px.
  void inverse_to_xpencil(const Complex* spec, Complex* pz, Complex* px);
  /// x_to_y, y-forward, y_to_z, z-forward of X-pencil px into spec.
  void xpencil_to_spectral(const Complex* px, Complex* spec);

  std::size_t n_;
  PencilTranspose transpose_;
  std::shared_ptr<const fft::PlanR2C> plan_x_;
  std::shared_ptr<const fft::PlanC2C> plan_yz_;
  int np_ = 1, q_ = 1;
  // Intermediate layouts, all checked out of the workspace arena: spectral
  // X-pencils (one per round_trip field; px_[0] for the single-field
  // transforms, and px_[1] as the standalone inverse's Z-pencil scratch,
  // where round_trip borrows an output instead) and one Y-pencil.
  std::vector<util::WorkspaceArena::Handle<Complex>> px_;
  util::WorkspaceArena::Handle<Complex> py_;
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
