#include "transpose/dist_fft.hpp"

#include <algorithm>

#include "obs/span.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace psdns::transpose {

using fft::BatchLayout;

// ---------------------------------------------------------------- DistFft3d

void DistFft3d::forward(std::span<const Real> phys, std::span<Complex> spec) {
  PSDNS_REQUIRE(phys.size() >= physical_elems(), "phys too small");
  PSDNS_REQUIRE(spec.size() >= spectral_elems(), "spec too small");
  const Real* p = phys.data();
  Complex* s = spec.data();
  forward(std::span<const Real* const>(&p, 1),
          std::span<Complex* const>(&s, 1));
}

void DistFft3d::inverse(std::span<const Complex> spec, std::span<Real> phys) {
  PSDNS_REQUIRE(phys.size() >= physical_elems(), "phys too small");
  PSDNS_REQUIRE(spec.size() >= spectral_elems(), "spec too small");
  const Complex* s = spec.data();
  Real* p = phys.data();
  inverse(std::span<const Complex* const>(&s, 1),
          std::span<Real* const>(&p, 1));
}

const char* to_string(Decomposition d) {
  return d == Decomposition::Slab ? "slab" : "pencil";
}

Decomposition parse_decomposition(const std::string& name) {
  if (name == "slab") return Decomposition::Slab;
  if (name == "pencil") return Decomposition::Pencil;
  util::raise("unknown decomposition \"" + name + "\" (slab|pencil)");
}

std::pair<int, int> square_grid(int ranks) {
  PSDNS_REQUIRE(ranks >= 1, "need at least one rank");
  int pr = 1;
  for (int r = 1; r * r <= ranks; ++r) {
    if (ranks % r == 0) pr = r;
  }
  return {pr, ranks / pr};
}

std::unique_ptr<DistFft3d> make_dist_fft(comm::Communicator& comm,
                                         std::size_t n,
                                         Decomposition decomposition) {
  if (decomposition == Decomposition::Slab) {
    return std::make_unique<SlabFft3d>(comm, n);
  }
  const auto [pr, pc] = square_grid(comm.size());
  return std::make_unique<PencilFft3d>(comm, n, pr, pc);
}

// ---------------------------------------------------------------- SlabFft3d

SlabFft3d::SlabFft3d(comm::Communicator& comm, std::size_t n)
    : comm_(comm),
      n_(n),
      transpose_(comm, SlabGrid{n / 2 + 1, n, n, comm.size()}),
      plan_x_(fft::get_plan_r2c(n)),
      plan_yz_(fft::get_plan(n)) {
  PSDNS_REQUIRE(n >= 2, "grid too small");
}

void SlabFft3d::set_batching(int np, int q) {
  PSDNS_REQUIRE(np >= 1 && q >= 1, "bad pencil grouping");
  // The transposes move groups [first pencil's x0, last pencil's x1); an
  // empty group would only fail inside the first exchange.
  for (int ip = 0; ip < np; ip += q) {
    const std::size_t x0 = pencil_range(nxh(), np, ip).x0;
    const std::size_t x1 =
        pencil_range(nxh(), np, std::min(ip + q, np) - 1).x1;
    PSDNS_REQUIRE(x1 > x0, "pencils=" + std::to_string(np) +
                               " with pencils_per_a2a=" + std::to_string(q) +
                               " leaves an empty x-chunk: unless "
                               "pencils_per_a2a >= pencils, pencils must "
                               "not exceed N/2+1=" +
                               std::to_string(nxh()));
  }
  np_ = np;
  q_ = q;
}

void SlabFft3d::forward(std::span<const Real* const> phys,
                        std::span<Complex* const> spec) {
  PSDNS_REQUIRE(phys.size() == spec.size(), "variable count mismatch");
  const std::size_t nv = phys.size();
  const std::size_t h = nxh();
  if (work_.size() < nv) work_.resize(nv);

  if (yslab_ptrs_.size() < nv) yslab_ptrs_.resize(nv);
  for (std::size_t v = 0; v < nv; ++v) {
    auto& w = work_[v];
    w.ensure(h * n_ * my());
    yslab_ptrs_[v] = w.data();

    // x: real-to-complex, all my()*n_ unit-stride lines as one batch.
    {
      obs::TraceSpan span("slab_fft.forward.x", obs::SpanKind::Compute);
      plan_x_->forward_batch(phys[v], n_, w.data(), h, n_ * my());
    }
    // z: strided lines (stride nxh) inside the Y-slab, one batch per plane.
    {
      obs::TraceSpan span("slab_fft.forward.z", obs::SpanKind::Compute);
      // Planes are disjoint: stripe them across the worker pool (the
      // per-plane transform_batch then runs inline inside its stripe).
      util::ThreadPool::global().parallel_for(
          "fft.slab.z", 0, my(), [&](std::size_t jj) {
            Complex* base = w.data() + h * n_ * jj;
            plan_yz_->transform_batch(fft::Direction::Forward, base, base,
                                      BatchLayout{.count = h, .stride = h,
                                                  .dist = 1});
          });
    }
  }

  // Global transpose to Z-slabs, batched as np pencils / q per all-to-all.
  transpose_.y_to_z(
      std::span<const Complex* const>(
          const_cast<const Complex* const*>(yslab_ptrs_.data()), nv),
      spec, np_, q_);

  // y: strided lines (stride nxh) inside the Z-slab.
  obs::TraceSpan span("slab_fft.forward.y", obs::SpanKind::Compute);
  util::ThreadPool::global().parallel_for(
      "fft.slab.y", 0, nv * mz(), [&](std::size_t idx) {
        const std::size_t v = idx / mz();
        const std::size_t kk = idx % mz();
        Complex* base = spec[v] + h * n_ * kk;
        plan_yz_->transform_batch(fft::Direction::Forward, base, base,
                                  BatchLayout{.count = h, .stride = h,
                                              .dist = 1});
      });
}

void SlabFft3d::inverse(std::span<const Complex* const> spec,
                        std::span<Real* const> phys) {
  PSDNS_REQUIRE(phys.size() == spec.size(), "variable count mismatch");
  const std::size_t nv = phys.size();
  const std::size_t h = nxh();
  if (work_.size() < 2 * nv) work_.resize(2 * nv);

  // y-inverse out of place, from the const input into scratch Z-slabs.
  if (zslab_ptrs_.size() < nv) zslab_ptrs_.resize(nv);
  if (yslab_ptrs_.size() < nv) yslab_ptrs_.resize(nv);
  {
    obs::TraceSpan span("slab_fft.inverse.y", obs::SpanKind::Compute);
    for (std::size_t v = 0; v < nv; ++v) {
      auto& wz = work_[v];
      wz.ensure(h * n_ * mz());
      zslab_ptrs_[v] = wz.data();
      util::ThreadPool::global().parallel_for(
          "fft.slab.y", 0, mz(), [&](std::size_t kk) {
            plan_yz_->transform_batch(fft::Direction::Inverse,
                                      spec[v] + h * n_ * kk,
                                      wz.data() + h * n_ * kk,
                                      BatchLayout{.count = h, .stride = h,
                                                  .dist = 1});
          });
      auto& wy = work_[nv + v];
      wy.ensure(h * n_ * my());
      yslab_ptrs_[v] = wy.data();
    }
  }

  transpose_.z_to_y(
      std::span<const Complex* const>(
          const_cast<const Complex* const*>(zslab_ptrs_.data()), nv),
      std::span<Complex* const>(yslab_ptrs_.data(), nv), np_, q_);

  for (std::size_t v = 0; v < nv; ++v) {
    Complex* w = yslab_ptrs_[v];
    // z-inverse.
    {
      obs::TraceSpan span("slab_fft.inverse.z", obs::SpanKind::Compute);
      util::ThreadPool::global().parallel_for(
          "fft.slab.z", 0, my(), [&](std::size_t jj) {
            Complex* base = w + h * n_ * jj;
            plan_yz_->transform_batch(fft::Direction::Inverse, base, base,
                                      BatchLayout{.count = h, .stride = h,
                                                  .dist = 1});
          });
    }
    // x: complex-to-real, batched over all lines of the Y-slab.
    {
      obs::TraceSpan span("slab_fft.inverse.x", obs::SpanKind::Compute);
      plan_x_->inverse_batch(w, h, phys[v], n_, n_ * my());
    }
  }
}

// -------------------------------------------------------------- PencilFft3d

PencilFft3d::PencilFft3d(comm::Communicator& comm, std::size_t n, int pr,
                         int pc)
    : n_(n),
      transpose_(comm, PencilGrid{n / 2 + 1, n, n, pr, pc}),
      plan_x_(fft::get_plan_r2c(n)),
      plan_yz_(fft::get_plan(n)) {
  PSDNS_REQUIRE(n >= 2, "grid too small");
}

void PencilFft3d::forward(std::span<const Real* const> phys,
                          std::span<Complex* const> spec) {
  PSDNS_REQUIRE(phys.size() == spec.size(), "variable count mismatch");
  for (std::size_t v = 0; v < phys.size(); ++v) {
    forward(std::span<const Real>(phys[v], physical_elems()),
            std::span<Complex>(spec[v], spectral_elems()));
  }
}

void PencilFft3d::inverse(std::span<const Complex* const> spec,
                          std::span<Real* const> phys) {
  PSDNS_REQUIRE(phys.size() == spec.size(), "variable count mismatch");
  for (std::size_t v = 0; v < phys.size(); ++v) {
    inverse(std::span<const Complex>(spec[v], spectral_elems()),
            std::span<Real>(phys[v], physical_elems()));
  }
}

void PencilFft3d::forward(std::span<const Real> phys,
                          std::span<Complex> spec) {
  const auto& g = grid();
  const std::size_t h = nxh(), yl = g.yl(), zl = g.zl();
  const std::size_t w = x_range().width();
  PSDNS_REQUIRE(phys.size() >= physical_elems(), "phys too small");
  PSDNS_REQUIRE(spec.size() >= spectral_elems(), "spec too small");

  px_.ensure(h * yl * zl);
  py_.ensure(n_ * w * zl);

  // x: real-to-complex, all yl*zl unit-stride lines of the X-pencil at once.
  {
    obs::TraceSpan span("pencil_fft.forward.x", obs::SpanKind::Compute);
    plan_x_->forward_batch(phys.data(), n_, px_.data(), h, yl * zl);
  }

  // Row transpose, then y on the contiguous lines of the Y-pencil (one
  // arithmetic progression: dist n_, stride 1).
  transpose_.x_to_y(std::span<const Complex>(px_.data(), h * yl * zl),
                    std::span<Complex>(py_.data(), n_ * w * zl));
  {
    obs::TraceSpan span("pencil_fft.forward.y", obs::SpanKind::Compute);
    plan_yz_->transform_batch(fft::Direction::Forward, py_.data(), py_.data(),
                              BatchLayout{.count = w * zl, .stride = 1,
                                          .dist = n_});
  }

  // Column transpose, then z on contiguous lines of the Z-pencil.
  transpose_.y_to_z(std::span<const Complex>(py_.data(), n_ * w * zl), spec);
  {
    obs::TraceSpan span("pencil_fft.forward.z", obs::SpanKind::Compute);
    plan_yz_->transform_batch(fft::Direction::Forward, spec.data(),
                              spec.data(),
                              BatchLayout{.count = w * g.yl2(), .stride = 1,
                                          .dist = n_});
  }
}

void PencilFft3d::inverse(std::span<const Complex> spec,
                          std::span<Real> phys) {
  const auto& g = grid();
  const std::size_t h = nxh(), yl = g.yl(), zl = g.zl();
  const std::size_t w = x_range().width();
  PSDNS_REQUIRE(phys.size() >= physical_elems(), "phys too small");
  PSDNS_REQUIRE(spec.size() >= spectral_elems(), "spec too small");

  px_.ensure(h * yl * zl);
  py_.ensure(n_ * w * zl);
  pz_.ensure(spectral_elems());

  // z-inverse out of place, from the const input into the scratch Z-pencil.
  {
    obs::TraceSpan span("pencil_fft.inverse.z", obs::SpanKind::Compute);
    plan_yz_->transform_batch(fft::Direction::Inverse, spec.data(), pz_.data(),
                              BatchLayout{.count = w * g.yl2(), .stride = 1,
                                          .dist = n_});
  }

  transpose_.z_to_y(std::span<const Complex>(pz_.data(), spectral_elems()),
                    std::span<Complex>(py_.data(), n_ * w * zl));
  {
    obs::TraceSpan span("pencil_fft.inverse.y", obs::SpanKind::Compute);
    plan_yz_->transform_batch(fft::Direction::Inverse, py_.data(), py_.data(),
                              BatchLayout{.count = w * zl, .stride = 1,
                                          .dist = n_});
  }

  transpose_.y_to_x(std::span<const Complex>(py_.data(), n_ * w * zl),
                    std::span<Complex>(px_.data(), h * yl * zl));
  {
    obs::TraceSpan span("pencil_fft.inverse.x", obs::SpanKind::Compute);
    plan_x_->inverse_batch(px_.data(), h, phys.data(), n_, yl * zl);
  }
}

}  // namespace psdns::transpose
