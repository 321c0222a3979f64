#pragma once
// Slab (1-D) decomposition and its global transpose (Fig. 1 left, Fig. 2).
//
// Two distributed layouts of a complex field with a reduced x dimension
// (nxh = N/2+1 after the real-to-complex transform):
//
//   Z-slabs ("spectral side"): rank p holds z-planes k in [p*mz, (p+1)*mz);
//     element (i, j, k) lives at a[i + nxh*(j + ny*(k - p*mz))].
//     Full y lines are local -> y transforms possible.
//
//   Y-slabs ("physical side"): rank p holds y-planes j in [p*my, (p+1)*my);
//     element (i, j, k) lives at b[i + nxh*(k + nz*(j - p*my))].
//     Full z and x lines are local -> z and x transforms possible.
//
// The transpose between them is the all-to-all of the paper. It can move an
// x-chunk (pencil) at a time: the slab is split along x into np pencils
// (Fig. 6) so that GPU-sized pieces can be processed and communicated
// independently; Q pencils can be aggregated per all-to-all (Sec. 4.1).
//
// Each chunk is one comm::Communicator::alltoall_strided: every rank copies
// its rows straight out of its peers' source slabs into its own destination
// slab, so every byte moves once and no staging buffer exists. The pack_* /
// unpack_* primitives below are the staged alternative (pack, a contiguous
// all-to-all, unpack: three copies), kept for the benchmarks and the
// equivalence tests; the transposes do not call them. Every copy either
// path makes is added to the transpose.copy_bytes counter.

#include <cstddef>
#include <span>
#include <vector>

#include "comm/communicator.hpp"
#include "fft/types.hpp"

namespace psdns::transpose {

using fft::Complex;

/// Geometry of one slab-decomposed field.
struct SlabGrid {
  std::size_t nxh = 0;  // local (non-decomposed) line dimension
  std::size_t ny = 0;   // second dimension (decomposed in Y-slabs)
  std::size_t nz = 0;   // third dimension (decomposed in Z-slabs)
  int ranks = 1;

  std::size_t my() const { return ny / static_cast<std::size_t>(ranks); }
  std::size_t mz() const { return nz / static_cast<std::size_t>(ranks); }
  std::size_t zslab_elems() const { return nxh * ny * mz(); }
  std::size_t yslab_elems() const { return nxh * nz * my(); }

  void validate() const;
};

/// The x-chunk [x0, x1) covered by pencil `ip` of `np` when splitting a
/// dimension of extent nxh (last pencil absorbs the remainder).
struct PencilRange {
  std::size_t x0 = 0, x1 = 0;
  std::size_t width() const { return x1 - x0; }
};
PencilRange pencil_range(std::size_t nxh, int np, int ip);

/// Adds `elems` complex elements to the transpose.copy_bytes counter: every
/// transpose copy (exchange, pack, unpack) reports the bytes it moved.
void count_copy(std::size_t elems);

/// Distributed transpose between Z-slabs and Y-slabs over a communicator.
/// Multi-variable: `nvars` fields are exchanged in one message (larger P2P
/// messages, as the production code does with the 3 velocity components).
class SlabTranspose {
 public:
  SlabTranspose(comm::Communicator& comm, SlabGrid grid);

  const SlabGrid& grid() const { return grid_; }

  /// Z-slabs -> Y-slabs for the x-chunk [x0, x1). vars_a[v] points at the
  /// v-th variable's Z-slab, vars_b[v] at its Y-slab (written only in the
  /// chunk). Collective.
  void z_to_y_chunk(std::span<const Complex* const> vars_a,
                    std::span<Complex* const> vars_b, std::size_t x0,
                    std::size_t x1);

  /// Y-slabs -> Z-slabs for the x-chunk [x0, x1). Collective.
  void y_to_z_chunk(std::span<const Complex* const> vars_b,
                    std::span<Complex* const> vars_a, std::size_t x0,
                    std::size_t x1);

  /// Whole-field transposes, optionally batched as `np` pencils with Q
  /// pencils aggregated per all-to-all (np % q == 0 not required; the last
  /// group may be smaller).
  void z_to_y(std::span<const Complex* const> vars_a,
              std::span<Complex* const> vars_b, int np = 1, int q = 1);
  void y_to_z(std::span<const Complex* const> vars_b,
              std::span<Complex* const> vars_a, int np = 1, int q = 1);

  // -- staged pack/unpack primitives, for the benchmarks and the
  //    equivalence tests (these are exactly the strided-copy patterns of
  //    Sec. 4.2; pack -> alltoall -> unpack equals the chunk transposes
  //    bitwise) --

  /// Bytes-free element count of one rank-pair block for a chunk of width w.
  std::size_t block_elems(std::size_t w, std::size_t nvars) const {
    return w * grid_.my() * grid_.mz() * nvars;
  }

  /// Packs the chunk of a Z-slab into the send buffer (destination-major:
  /// send[q] holds the block for rank q; within a block: v, kk, jj, x).
  void pack_z(std::span<const Complex* const> vars_a, std::size_t x0,
              std::size_t x1, std::span<Complex> send) const;

  /// Unpacks a received buffer (source-major) into Y-slabs.
  void unpack_y(std::span<const Complex> recv, std::size_t x0, std::size_t x1,
                std::span<Complex* const> vars_b) const;

  /// Packs the chunk of a Y-slab (destination-major; within a block: v, jj,
  /// kk, x).
  void pack_y(std::span<const Complex* const> vars_b, std::size_t x0,
              std::size_t x1, std::span<Complex> send) const;

  /// Unpacks a received buffer into Z-slabs.
  void unpack_z(std::span<const Complex> recv, std::size_t x0, std::size_t x1,
                std::span<Complex* const> vars_a) const;

 private:
  comm::Communicator& comm_;
  SlabGrid grid_;
};

}  // namespace psdns::transpose
