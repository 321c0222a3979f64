#include "transpose/pencil.hpp"

#include "util/check.hpp"

namespace psdns::transpose {

void PencilGrid::validate() const {
  PSDNS_REQUIRE(nxh >= 1 && ny >= 1 && nz >= 1, "empty grid");
  PSDNS_REQUIRE(pr >= 1 && pc >= 1, "bad process grid");
  PSDNS_REQUIRE(ny % static_cast<std::size_t>(pr) == 0,
                "ny must be divisible by Pr");
  PSDNS_REQUIRE(nz % static_cast<std::size_t>(pc) == 0,
                "nz must be divisible by Pc");
  PSDNS_REQUIRE(ny % static_cast<std::size_t>(pc) == 0,
                "ny must be divisible by Pc");
  PSDNS_REQUIRE(nxh >= static_cast<std::size_t>(pr),
                "x extent smaller than the row size");
}

PencilTranspose::PencilTranspose(comm::Communicator& world, PencilGrid grid)
    : grid_(grid),
      // Row communicator: ranks with the same column index (rank / pr).
      row_(world.split(world.rank() / grid.pr, world.rank() % grid.pr)),
      // Column communicator: ranks with the same row index (rank % pr).
      col_(world.split(world.rank() % grid.pr, world.rank() / grid.pr)) {
  grid_.validate();
  PSDNS_REQUIRE(world.size() == grid_.pr * grid_.pc,
                "world size must equal Pr * Pc");
}

// Each exchange describes the block peer s sends this rank, with s the
// peer's rank in the row (x_to_y, y_to_x) or column (y_to_z, z_to_y)
// communicator.

void PencilTranspose::x_to_y(std::span<const Complex> px,
                             std::span<Complex> py) {
  const std::size_t nxh = grid_.nxh, ny = grid_.ny;
  const std::size_t yl = grid_.yl(), zl = grid_.zl();
  const auto xr = x_range();
  const std::size_t w = xr.width();
  PSDNS_REQUIRE(px.size() >= nxh * yl * zl, "px too small");
  PSDNS_REQUIRE(py.size() >= ny * w * zl, "py too small");
  // Peer s holds y in [s*yl, (s+1)*yl) of every x: per z plane kk, my
  // x-chunk's columns of its X-pencil become y-contiguous runs of my
  // Y-pencil.
  const Complex* src = px.data();
  Complex* dst = py.data();
  row_.alltoall_strided(
      std::span<const Complex* const>(&src, 1), nxh * yl * zl,
      std::span<Complex* const>(&dst, 1), ny * w * zl,
      [&](int s, std::size_t) {
        return comm::StridedBlock{
            .width = yl, .rows = w, .reps = zl,
            .src = xr.x0, .src_step = nxh, .src_pitch = 1,
            .src_rep_pitch = nxh * yl,
            .dst = static_cast<std::size_t>(s) * yl, .dst_step = 1,
            .dst_pitch = ny, .dst_rep_pitch = ny * w};
      });
  count_copy(ny * w * zl);
}

void PencilTranspose::y_to_x(std::span<const Complex> py,
                             std::span<Complex> px) {
  const std::size_t nxh = grid_.nxh, ny = grid_.ny;
  const std::size_t yl = grid_.yl(), zl = grid_.zl();
  const std::size_t w = x_range().width();
  const std::size_t y0 = static_cast<std::size_t>(row_.rank()) * yl;
  PSDNS_REQUIRE(py.size() >= ny * w * zl, "py too small");
  PSDNS_REQUIRE(px.size() >= nxh * yl * zl, "px too small");
  // Peer s holds x-chunk s of every y: per z plane kk, its y-contiguous
  // runs of my y range become the x-contiguous rows of its chunk.
  const Complex* src = py.data();
  Complex* dst = px.data();
  row_.alltoall_strided(
      std::span<const Complex* const>(&src, 1), ny * w * zl,
      std::span<Complex* const>(&dst, 1), nxh * yl * zl,
      [&](int s, std::size_t) {
        const auto r = pencil_range(nxh, grid_.pr, s);
        return comm::StridedBlock{
            .width = r.width(), .rows = yl, .reps = zl,
            .src = y0, .src_step = ny, .src_pitch = 1,
            .src_rep_pitch = ny * r.width(),
            .dst = r.x0, .dst_step = 1, .dst_pitch = nxh,
            .dst_rep_pitch = nxh * yl};
      });
  count_copy(nxh * yl * zl);
}

void PencilTranspose::y_to_z(std::span<const Complex> py,
                             std::span<Complex> pz) {
  const std::size_t ny = grid_.ny, nz = grid_.nz;
  const std::size_t zl = grid_.zl(), yl2 = grid_.yl2();
  const std::size_t w = x_range().width();
  const std::size_t y0 = static_cast<std::size_t>(col_.rank()) * yl2;
  PSDNS_REQUIRE(py.size() >= ny * w * zl, "py too small");
  PSDNS_REQUIRE(pz.size() >= nz * w * yl2, "pz too small");
  // Peer s holds z in [s*zl, (s+1)*zl) (same x-chunk: same row rank): per
  // local y line jj and x ii, its z values become a z-contiguous run.
  const Complex* src = py.data();
  Complex* dst = pz.data();
  col_.alltoall_strided(
      std::span<const Complex* const>(&src, 1), ny * w * zl,
      std::span<Complex* const>(&dst, 1), nz * w * yl2,
      [&](int s, std::size_t) {
        return comm::StridedBlock{
            .width = zl, .rows = w, .reps = yl2,
            .src = y0, .src_step = ny * w, .src_pitch = ny,
            .src_rep_pitch = 1,
            .dst = static_cast<std::size_t>(s) * zl, .dst_step = 1,
            .dst_pitch = nz, .dst_rep_pitch = nz * w};
      });
  count_copy(nz * w * yl2);
}

void PencilTranspose::z_to_y(std::span<const Complex> pz,
                             std::span<Complex> py) {
  const std::size_t ny = grid_.ny, nz = grid_.nz;
  const std::size_t zl = grid_.zl(), yl2 = grid_.yl2();
  const std::size_t w = x_range().width();
  const std::size_t z0 = static_cast<std::size_t>(col_.rank()) * zl;
  PSDNS_REQUIRE(pz.size() >= nz * w * yl2, "pz too small");
  PSDNS_REQUIRE(py.size() >= ny * w * zl, "py too small");
  // Peer s holds y in [s*yl2, (s+1)*yl2): per local z plane kk and x ii,
  // its y values become a y-contiguous run.
  const Complex* src = pz.data();
  Complex* dst = py.data();
  col_.alltoall_strided(
      std::span<const Complex* const>(&src, 1), nz * w * yl2,
      std::span<Complex* const>(&dst, 1), ny * w * zl,
      [&](int s, std::size_t) {
        return comm::StridedBlock{
            .width = yl2, .rows = w, .reps = zl,
            .src = z0, .src_step = nz * w, .src_pitch = nz,
            .src_rep_pitch = 1,
            .dst = static_cast<std::size_t>(s) * yl2, .dst_step = 1,
            .dst_pitch = ny, .dst_rep_pitch = ny * w};
      });
  count_copy(ny * w * zl);
}

}  // namespace psdns::transpose
