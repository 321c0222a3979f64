#include "pipeline/async_fft.hpp"

#include "gpu/copy.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace psdns::pipeline {

using transpose::pencil_range;

AsyncFft3d::AsyncFft3d(comm::Communicator& comm, std::size_t n, int np, int q)
    : comm_(comm),
      n_(n),
      nxh_(n / 2 + 1),
      np_(np),
      q_(q),
      transpose_(comm, transpose::SlabGrid{n / 2 + 1, n, n, comm.size()}),
      plan_x_(fft::get_plan_r2c(n)),
      plan_yz_(fft::get_plan(n)) {
  PSDNS_REQUIRE(np_ >= 1 && q_ >= 1 && q_ <= np_, "bad pencil batching");
  const int ngroups = (np_ + q_ - 1) / q_;
  groups_.resize(static_cast<std::size_t>(ngroups));
}

void AsyncFft3d::stage_fft_y(fft::Direction dir, std::size_t x0,
                             std::size_t x1,
                             std::span<Complex* const> slabs) {
  // "H2D" the pencil into the staging buffer, transform the y lines there,
  // and copy it back ("D2H"). Buffer layout: [ii + w*(j + ny*kk)].
  const std::size_t w = x1 - x0;
  const std::size_t my_rows = n_ * transpose_.grid().mz();  // j + ny*kk rows
  device_.ensure(w * my_rows);

  for (Complex* slab : slabs) {
    {
      obs::TraceSpan h2d("async.h2d", obs::SpanKind::Transfer);
      gpu::memcpy2d(device_.data(), w, slab + x0, nxh_, w, my_rows);
    }
    {
      obs::TraceSpan fft("async.fft_y", obs::SpanKind::Compute);
      // Disjoint z-planes of the staged pencil stripe across the worker
      // pool (the per-plane transform_batch runs inline in its stripe).
      util::ThreadPool::global().parallel_for(
          "pipeline.fft_y", 0, transpose_.grid().mz(), [&](std::size_t kk) {
            Complex* base = device_.data() + w * n_ * kk;
            plan_yz_->transform_batch(
                dir, base, base,
                fft::BatchLayout{.count = w, .stride = w, .dist = 1});
          });
    }
    obs::TraceSpan d2h("async.d2h", obs::SpanKind::Transfer);
    gpu::memcpy2d(slab + x0, nxh_, device_.data(), w, w, my_rows);
  }
}

void AsyncFft3d::inverse(std::span<const Complex* const> spec,
                         std::span<Real* const> phys) {
  PSDNS_REQUIRE(spec.size() == phys.size(), "variable count mismatch");
  const std::size_t nv = spec.size();
  const auto& g = transpose_.grid();

  // Region 1 (Fig. 4): per pencil, stage in, inverse y transforms, stage
  // out packed; post the nonblocking all-to-all as soon as a group's
  // pencils are packed.
  if (scratch_.size() < 2 * nv) scratch_.resize(2 * nv);
  if (work_ptrs_.size() < nv) work_ptrs_.resize(nv);
  Complex** work = work_ptrs_.data();
  for (std::size_t v = 0; v < nv; ++v) {
    auto& s = scratch_[v];
    s.ensure(spectral_elems());
    std::copy(spec[v], spec[v] + spectral_elems(), s.data());
    work[v] = s.data();
  }

  const int ngroups = static_cast<int>(groups_.size());
  for (int gi = 0; gi < ngroups; ++gi) {
    auto& grp = groups_[static_cast<std::size_t>(gi)];
    grp.x0 = pencil_range(nxh_, np_, gi * q_).x0;
    grp.x1 = pencil_range(nxh_, np_, std::min((gi + 1) * q_, np_) - 1).x1;

    for (int ip = gi * q_; ip < std::min((gi + 1) * q_, np_); ++ip) {
      const auto r = pencil_range(nxh_, np_, ip);
      stage_fft_y(fft::Direction::Inverse, r.x0, r.x1,
                  std::span<Complex* const>(work, nv));
    }

    // Pack-on-copy (D2H doubles as the pack, Sec. 3.4) and nonblocking
    // all-to-all for the whole group.
    obs::TraceSpan pack("async.pack", obs::SpanKind::Transfer);
    const std::size_t block = transpose_.block_elems(grp.x1 - grp.x0, nv);
    const std::size_t total = block * static_cast<std::size_t>(comm_.size());
    grp.send.ensure(total);
    grp.recv.ensure(total);
    transpose_.pack_z(
        std::span<const Complex* const>(
            const_cast<const Complex* const*>(work), nv),
        grp.x0, grp.x1, std::span<Complex>(grp.send.data(), total));
    grp.request = comm_.ialltoall(grp.send.data(), grp.recv.data(), block);
    transpose::count_copy(total);  // the staged exchange's own copy
    grp.flow = pack.id() != 0 ? obs::new_flow() : 0;
    if (grp.flow != 0) obs::flow_emit(grp.flow);
  }

  // Region 2/3: single MPI_WAIT per group, zero-copy unpack into Y-slabs,
  // then the z and complex-to-real x transforms pencil by pencil.
  if (yslab_ptrs_.size() < nv) yslab_ptrs_.resize(nv);
  Complex** yslab = yslab_ptrs_.data();
  for (std::size_t v = 0; v < nv; ++v) {
    auto& s = scratch_[nv + v];
    s.ensure(nxh_ * n_ * g.my());
    yslab[v] = s.data();
  }
  for (auto& grp : groups_) {
    {
      obs::TraceSpan unpack("async.unpack", obs::SpanKind::Transfer);
      if (grp.flow != 0) obs::flow_consume(grp.flow);
      grp.request.wait();
      const std::size_t block = transpose_.block_elems(grp.x1 - grp.x0, nv);
      transpose_.unpack_y(
          std::span<const Complex>(grp.recv.data(),
                                   block * static_cast<std::size_t>(
                                               comm_.size())),
          grp.x0, grp.x1, std::span<Complex* const>(yslab, nv));
    }

    // z transforms inside the freshly arrived x-chunk.
    obs::TraceSpan fft_z("async.fft_z", obs::SpanKind::Compute);
    util::ThreadPool::global().parallel_for(
        "pipeline.fft_z", 0, nv * g.my(), [&](std::size_t idx) {
          const std::size_t v = idx / g.my();
          const std::size_t jj = idx % g.my();
          Complex* base = yslab[v] + grp.x0 + nxh_ * n_ * jj;
          plan_yz_->transform_batch(
              fft::Direction::Inverse, base, base,
              fft::BatchLayout{.count = grp.x1 - grp.x0, .stride = nxh_,
                               .dist = 1});
        });
  }

  // Final complex-to-real x transforms (full x lines now local).
  obs::TraceSpan fft_x("async.fft_x", obs::SpanKind::Compute);
  for (std::size_t v = 0; v < nv; ++v) {
    plan_x_->inverse_batch(yslab[v], nxh_, phys[v], n_, n_ * g.my());
  }
}

void AsyncFft3d::forward(std::span<const Real* const> phys,
                         std::span<Complex* const> spec) {
  PSDNS_REQUIRE(spec.size() == phys.size(), "variable count mismatch");
  const std::size_t nv = spec.size();
  const auto& g = transpose_.grid();

  // Reverse of Fig. 4: real-to-complex x, then z transforms per pencil,
  // pack + nonblocking all-to-all per group, then y transforms per pencil.
  if (scratch_.size() < 2 * nv) scratch_.resize(2 * nv);
  if (yslab_ptrs_.size() < nv) yslab_ptrs_.resize(nv);
  Complex** yslab = yslab_ptrs_.data();
  {
    obs::TraceSpan fft_x("async.fft_x", obs::SpanKind::Compute);
    for (std::size_t v = 0; v < nv; ++v) {
      auto& s = scratch_[nv + v];
      s.ensure(nxh_ * n_ * g.my());
      yslab[v] = s.data();
      plan_x_->forward_batch(phys[v], n_, yslab[v], nxh_, n_ * g.my());
    }
  }

  const int ngroups = static_cast<int>(groups_.size());
  for (int gi = 0; gi < ngroups; ++gi) {
    auto& grp = groups_[static_cast<std::size_t>(gi)];
    grp.x0 = pencil_range(nxh_, np_, gi * q_).x0;
    grp.x1 = pencil_range(nxh_, np_, std::min((gi + 1) * q_, np_) - 1).x1;

    {
      obs::TraceSpan fft_z("async.fft_z", obs::SpanKind::Compute);
      util::ThreadPool::global().parallel_for(
          "pipeline.fft_z", 0, nv * g.my(), [&](std::size_t idx) {
            const std::size_t v = idx / g.my();
            const std::size_t jj = idx % g.my();
            Complex* base = yslab[v] + grp.x0 + nxh_ * n_ * jj;
            plan_yz_->transform_batch(
                fft::Direction::Forward, base, base,
                fft::BatchLayout{.count = grp.x1 - grp.x0, .stride = nxh_,
                                 .dist = 1});
          });
    }

    obs::TraceSpan pack("async.pack", obs::SpanKind::Transfer);
    const std::size_t block = transpose_.block_elems(grp.x1 - grp.x0, nv);
    const std::size_t total = block * static_cast<std::size_t>(comm_.size());
    grp.send.ensure(total);
    grp.recv.ensure(total);
    transpose_.pack_y(
        std::span<const Complex* const>(
            const_cast<const Complex* const*>(yslab), nv),
        grp.x0, grp.x1, std::span<Complex>(grp.send.data(), total));
    grp.request = comm_.ialltoall(grp.send.data(), grp.recv.data(), block);
    transpose::count_copy(total);  // the staged exchange's own copy
    grp.flow = pack.id() != 0 ? obs::new_flow() : 0;
    if (grp.flow != 0) obs::flow_emit(grp.flow);
  }

  if (out_ptrs_.size() < nv) out_ptrs_.resize(nv);
  Complex** out = out_ptrs_.data();
  for (std::size_t v = 0; v < nv; ++v) out[v] = spec[v];
  for (auto& grp : groups_) {
    {
      obs::TraceSpan unpack("async.unpack", obs::SpanKind::Transfer);
      if (grp.flow != 0) obs::flow_consume(grp.flow);
      grp.request.wait();
      const std::size_t block = transpose_.block_elems(grp.x1 - grp.x0, nv);
      transpose_.unpack_z(
          std::span<const Complex>(grp.recv.data(),
                                   block * static_cast<std::size_t>(
                                               comm_.size())),
          grp.x0, grp.x1, std::span<Complex* const>(out, nv));
    }

    for (int ip = static_cast<int>(&grp - groups_.data()) * q_;
         ip < std::min((static_cast<int>(&grp - groups_.data()) + 1) * q_,
                       np_);
         ++ip) {
      const auto r = pencil_range(nxh_, np_, ip);
      stage_fft_y(fft::Direction::Forward, r.x0, r.x1,
                  std::span<Complex* const>(out, nv));
    }
  }
}

}  // namespace psdns::pipeline
