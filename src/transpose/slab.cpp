#include "transpose/slab.hpp"

#include "gpu/copy.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace psdns::transpose {

void count_copy(std::size_t elems) {
  obs::registry().counter_add(
      "transpose.copy_bytes",
      static_cast<std::int64_t>(elems * sizeof(Complex)));
}

void SlabGrid::validate() const {
  PSDNS_REQUIRE(nxh >= 1 && ny >= 1 && nz >= 1, "empty grid");
  PSDNS_REQUIRE(ranks >= 1, "need at least one rank");
  PSDNS_REQUIRE(ny % static_cast<std::size_t>(ranks) == 0,
                "ny must be divisible by the rank count (load balance)");
  PSDNS_REQUIRE(nz % static_cast<std::size_t>(ranks) == 0,
                "nz must be divisible by the rank count (load balance)");
}

PencilRange pencil_range(std::size_t nxh, int np, int ip) {
  PSDNS_REQUIRE(np >= 1 && ip >= 0 && ip < np, "bad pencil index");
  const std::size_t base = nxh / static_cast<std::size_t>(np);
  const std::size_t x0 = base * static_cast<std::size_t>(ip);
  const std::size_t x1 =
      ip == np - 1 ? nxh : base * static_cast<std::size_t>(ip + 1);
  return PencilRange{x0, x1};
}

SlabTranspose::SlabTranspose(comm::Communicator& comm, SlabGrid grid)
    : comm_(comm), grid_(grid) {
  grid_.validate();
  PSDNS_REQUIRE(grid_.ranks == comm.size(),
                "grid rank count must match the communicator");
}

void SlabTranspose::pack_z(std::span<const Complex* const> vars_a,
                           std::size_t x0, std::size_t x1,
                           std::span<Complex> send) const {
  obs::TraceSpan span("transpose.pack_z", obs::SpanKind::Transfer);
  const std::size_t w = x1 - x0;
  const std::size_t my = grid_.my(), mz = grid_.mz();
  const std::size_t block = block_elems(w, vars_a.size());
  PSDNS_REQUIRE(send.size() >= block * static_cast<std::size_t>(comm_.size()),
                "send buffer too small");

  count_copy(block * static_cast<std::size_t>(comm_.size()));
  // Every (q, v, kk) copy touches a disjoint destination, so the flattened
  // loop stripes across the worker pool.
  const std::size_t nvars = vars_a.size();
  util::ThreadPool::global().parallel_for(
      "transpose.slab.pack", 0,
      static_cast<std::size_t>(comm_.size()) * nvars * mz,
      [&](std::size_t idx) {
        const std::size_t kk = idx % mz;
        const std::size_t v = (idx / mz) % nvars;
        const std::size_t q = idx / (mz * nvars);
        Complex* out = send.data() + q * block;
        // my rows of w contiguous elements: jj-th row starts at y index
        // q*my + jj within this local z-plane.
        const Complex* src =
            vars_a[v] + x0 + grid_.nxh * (q * my + grid_.ny * kk);
        Complex* dst = out + w * my * (kk + mz * v);
        gpu::memcpy2d(dst, w, src, grid_.nxh, w, my);
      });
}

void SlabTranspose::unpack_y(std::span<const Complex> recv, std::size_t x0,
                             std::size_t x1,
                             std::span<Complex* const> vars_b) const {
  obs::TraceSpan span("transpose.unpack_y", obs::SpanKind::Transfer);
  const std::size_t w = x1 - x0;
  const std::size_t my = grid_.my(), mz = grid_.mz();
  const std::size_t block = block_elems(w, vars_b.size());

  count_copy(block * static_cast<std::size_t>(comm_.size()));
  const std::size_t nvars = vars_b.size();
  util::ThreadPool::global().parallel_for(
      "transpose.slab.unpack", 0,
      static_cast<std::size_t>(comm_.size()) * nvars * my,
      [&](std::size_t idx) {
        const std::size_t jj = idx % my;
        const std::size_t v = (idx / my) % nvars;
        const std::size_t p = idx / (my * nvars);
        const Complex* in = recv.data() + p * block;
        // mz rows: the kk-th row lands at z index p*mz + kk of local y jj.
        const Complex* src = in + w * (jj + my * mz * v);
        Complex* dst =
            vars_b[v] + x0 + grid_.nxh * (p * mz + grid_.nz * jj);
        // Source rows are strided by w*my (kk-major within the block).
        gpu::memcpy2d(dst, grid_.nxh, src, w * my, w, mz);
      });
}

void SlabTranspose::pack_y(std::span<const Complex* const> vars_b,
                           std::size_t x0, std::size_t x1,
                           std::span<Complex> send) const {
  obs::TraceSpan span("transpose.pack_y", obs::SpanKind::Transfer);
  const std::size_t w = x1 - x0;
  const std::size_t my = grid_.my(), mz = grid_.mz();
  const std::size_t block = block_elems(w, vars_b.size());
  PSDNS_REQUIRE(send.size() >= block * static_cast<std::size_t>(comm_.size()),
                "send buffer too small");

  count_copy(block * static_cast<std::size_t>(comm_.size()));
  const std::size_t nvars = vars_b.size();
  util::ThreadPool::global().parallel_for(
      "transpose.slab.pack", 0,
      static_cast<std::size_t>(comm_.size()) * nvars * my,
      [&](std::size_t idx) {
        const std::size_t jj = idx % my;
        const std::size_t v = (idx / my) % nvars;
        const std::size_t q = idx / (my * nvars);
        Complex* out = send.data() + q * block;
        const Complex* src =
            vars_b[v] + x0 + grid_.nxh * (q * mz + grid_.nz * jj);
        Complex* dst = out + w * mz * (jj + my * v);
        gpu::memcpy2d(dst, w, src, grid_.nxh, w, mz);
      });
}

void SlabTranspose::unpack_z(std::span<const Complex> recv, std::size_t x0,
                             std::size_t x1,
                             std::span<Complex* const> vars_a) const {
  obs::TraceSpan span("transpose.unpack_z", obs::SpanKind::Transfer);
  const std::size_t w = x1 - x0;
  const std::size_t my = grid_.my(), mz = grid_.mz();
  const std::size_t block = block_elems(w, vars_a.size());

  count_copy(block * static_cast<std::size_t>(comm_.size()));
  const std::size_t nvars = vars_a.size();
  util::ThreadPool::global().parallel_for(
      "transpose.slab.unpack", 0,
      static_cast<std::size_t>(comm_.size()) * nvars * mz,
      [&](std::size_t idx) {
        const std::size_t kk = idx % mz;
        const std::size_t v = (idx / mz) % nvars;
        const std::size_t p = idx / (mz * nvars);
        const Complex* in = recv.data() + p * block;
        const Complex* src = in + w * (kk + mz * my * v);
        Complex* dst =
            vars_a[v] + x0 + grid_.nxh * (p * my + grid_.ny * kk);
        // jj-major: source rows strided by w*mz; destination rows strided by
        // nxh (consecutive y).
        gpu::memcpy2d(dst, grid_.nxh, src, w * mz, w, my);
      });
}

SlabColumns SlabTranspose::resolve(SlabColumns cols) const {
  for (std::size_t* m : {&cols.width, &cols.a_pitch, &cols.b_pitch}) {
    if (*m == 0) *m = grid_.nxh;
  }
  PSDNS_REQUIRE(cols.width <= cols.a_pitch && cols.width <= cols.b_pitch &&
                    cols.width <= grid_.nxh,
                "slab columns wider than a row");
  return cols;
}

void SlabTranspose::z_to_y_chunk(std::span<const Complex* const> vars_a,
                                 std::span<Complex* const> vars_b,
                                 std::size_t x0, std::size_t x1,
                                 SlabColumns cols) {
  cols = resolve(cols);
  PSDNS_REQUIRE(x1 > x0 && x1 <= cols.width, "bad x-chunk");
  PSDNS_REQUIRE(vars_a.size() == vars_b.size(), "variable count mismatch");
  const std::size_t ap = cols.a_pitch, bp = cols.b_pitch;
  const std::size_t my = grid_.my(), mz = grid_.mz();
  const std::size_t y0 = static_cast<std::size_t>(comm_.rank()) * my;
  // Peer p's Z-slab holds z in [p*mz, (p+1)*mz). Per local y plane jj
  // (repeat), its mz rows of my y range land as consecutive z rows.
  comm_.alltoall_strided(
      vars_a, ap * grid_.ny * mz, vars_b, bp * grid_.nz * my,
      [&](int p, std::size_t) {
        return comm::StridedBlock{
            .width = x1 - x0, .rows = mz, .reps = my,
            .src = x0 + ap * y0, .src_pitch = ap * grid_.ny,
            .src_rep_pitch = ap,
            .dst = x0 + bp * static_cast<std::size_t>(p) * mz,
            .dst_pitch = bp, .dst_rep_pitch = bp * grid_.nz};
      });
  count_copy(block_elems(x1 - x0, vars_a.size()) *
             static_cast<std::size_t>(comm_.size()));
}

void SlabTranspose::y_to_z_chunk(std::span<const Complex* const> vars_b,
                                 std::span<Complex* const> vars_a,
                                 std::size_t x0, std::size_t x1,
                                 SlabColumns cols) {
  cols = resolve(cols);
  PSDNS_REQUIRE(x1 > x0 && x1 <= cols.width, "bad x-chunk");
  PSDNS_REQUIRE(vars_a.size() == vars_b.size(), "variable count mismatch");
  const std::size_t ap = cols.a_pitch, bp = cols.b_pitch;
  const std::size_t my = grid_.my(), mz = grid_.mz();
  const std::size_t z0 = static_cast<std::size_t>(comm_.rank()) * mz;
  // Peer p's Y-slab holds y in [p*my, (p+1)*my). Per local z plane kk
  // (repeat), its my rows of my z range land as consecutive y rows.
  comm_.alltoall_strided(
      vars_b, bp * grid_.nz * my, vars_a, ap * grid_.ny * mz,
      [&](int p, std::size_t) {
        return comm::StridedBlock{
            .width = x1 - x0, .rows = my, .reps = mz,
            .src = x0 + bp * z0, .src_pitch = bp * grid_.nz,
            .src_rep_pitch = bp,
            .dst = x0 + ap * static_cast<std::size_t>(p) * my,
            .dst_pitch = ap, .dst_rep_pitch = ap * grid_.ny};
      });
  count_copy(block_elems(x1 - x0, vars_b.size()) *
             static_cast<std::size_t>(comm_.size()));
}

void SlabTranspose::z_to_y(std::span<const Complex* const> vars_a,
                           std::span<Complex* const> vars_b, int np, int q,
                           SlabColumns cols) {
  PSDNS_REQUIRE(np >= 1 && q >= 1, "bad pencil grouping");
  cols = resolve(cols);
  for (int ip = 0; ip < np; ip += q) {
    const auto lo = pencil_range(cols.width, np, ip);
    const auto hi = pencil_range(cols.width, np, std::min(ip + q, np) - 1);
    if (hi.x1 > lo.x0) z_to_y_chunk(vars_a, vars_b, lo.x0, hi.x1, cols);
  }
}

void SlabTranspose::y_to_z(std::span<const Complex* const> vars_b,
                           std::span<Complex* const> vars_a, int np, int q,
                           SlabColumns cols) {
  PSDNS_REQUIRE(np >= 1 && q >= 1, "bad pencil grouping");
  cols = resolve(cols);
  for (int ip = 0; ip < np; ip += q) {
    const auto lo = pencil_range(cols.width, np, ip);
    const auto hi = pencil_range(cols.width, np, std::min(ip + q, np) - 1);
    if (hi.x1 > lo.x0) y_to_z_chunk(vars_b, vars_a, lo.x0, hi.x1, cols);
  }
}

}  // namespace psdns::transpose
