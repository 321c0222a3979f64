#include "transpose/dist_fft.hpp"

#include <algorithm>
#include <numeric>

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

void DistFft3d::forward(std::span<const Real* const> phys,
                        std::span<Complex* const> spec, const SpectralBand&) {
  forward(phys, spec);
}

void DistFft3d::inverse(std::span<const Complex* const> spec,
                        std::span<Real* const> phys, const SpectralBand&) {
  inverse(spec, phys);
}

void DistFft3d::round_trip(std::span<const Complex* const> in,
                           PointKernel kernel, void* ctx,
                           std::span<Complex* const> out,
                           const SpectralBand& band) {
  const std::size_t m = physical_elems();
  Real* const* phys = point_scratch(in.size(), out.size(), m);
  inverse(in, std::span<Real* const>(phys, in.size()), band);
  kernel(ctx, phys, phys + in.size(), m);
  const Real* const* products = phys + in.size();
  forward(std::span<const Real* const>(products, out.size()), out, band);
}

Real* const* DistFft3d::point_scratch(std::size_t nin, std::size_t nout,
                                      std::size_t points) {
  points_.ensure((nin + nout) * points);
  if (point_ptrs_.size() < nin + nout) point_ptrs_.resize(nin + nout);
  for (std::size_t f = 0; f < nin + nout; ++f) {
    point_ptrs_[f] = points_.data() + f * points;
  }
  return point_ptrs_.data();
}

std::size_t round_trip_group_lines(std::size_t n, std::size_t plane_lines) {
  const std::size_t block = fft::batch_block_lines(n / 2);
  const std::size_t unit = std::lcm(
      std::lcm(block, fft::real_block_lines(n / 2)), plane_lines);
  const auto threads =
      static_cast<std::size_t>(util::ThreadPool::global().threads());
  return (block * threads + unit - 1) / unit * unit;
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

void SlabFft3d::ensure_work(std::size_t count, std::size_t width) {
  if (work_.size() < count) work_.resize(count);
  for (std::size_t v = 0; v < count; ++v) {
    work_[v].ensure(width * n_ * std::max(my(), mz()));
  }
  if (yslab_ptrs_.size() < count) yslab_ptrs_.resize(count);
  if (zslab_ptrs_.size() < count) zslab_ptrs_.resize(count);
}

bool SlabFft3d::keeps_plane(const SpectralBand& band, std::size_t kk) const {
  const std::size_t k = static_cast<std::size_t>(comm_.rank()) * mz() + kk;
  return band.keeps_kz(wrap_wavenumber(k, n_));
}

void SlabFft3d::z_pass(fft::Direction dir, Complex* const* yslabs,
                       std::size_t nv, std::size_t j0, std::size_t planes,
                       std::size_t width) const {
  // Planes are disjoint: stripe (variable, plane) pairs across the worker
  // pool (each per-plane transform_batch then runs inline in its stripe).
  util::ThreadPool::global().parallel_for(
      "fft.slab.z", 0, nv * planes, [&](std::size_t idx) {
        Complex* base =
            yslabs[idx / planes] + width * n_ * (j0 + idx % planes);
        plan_yz_->transform_batch(dir, base, base,
                                  BatchLayout{.count = width, .stride = width,
                                              .dist = 1});
      });
}

void SlabFft3d::inverse_to_yslabs(std::span<const Complex* const> spec,
                                  const SpectralBand& band,
                                  std::size_t zpitch) {
  const std::size_t nv = spec.size();
  const std::size_t h = nxh(), w = band.width;
  // y-inverse of the band's columns from the input into the Z-slab scratch
  // (in place when the caller's input is its own scratch). A plane outside
  // the band transforms to zero: in place it already is, elsewhere its
  // columns are zero-filled.
  {
    obs::TraceSpan span("slab_fft.inverse.y", obs::SpanKind::Compute);
    for (std::size_t v = 0; v < nv; ++v) {
      Complex* wz = zslab_ptrs_[v];
      util::ThreadPool::global().parallel_for(
          "fft.slab.y", 0, mz(), [&](std::size_t kk) {
            Complex* plane = wz + zpitch * n_ * kk;
            if (keeps_plane(band, kk)) {
              plan_yz_->transform_batch(
                  fft::Direction::Inverse, spec[v] + h * n_ * kk, plane,
                  BatchLayout{.count = w, .stride = h, .dist = 1,
                              .out_stride = zpitch});
            } else if (plane != spec[v] + h * n_ * kk) {
              for (std::size_t j = 0; j < n_; ++j) {
                std::fill_n(plane + zpitch * j, w, Complex{0.0, 0.0});
              }
            }
          });
    }
  }
  transpose_.z_to_y(
      std::span<const Complex* const>(
          const_cast<const Complex* const*>(zslab_ptrs_.data()), nv),
      std::span<Complex* const>(yslab_ptrs_.data(), nv), np_, q_,
      SlabColumns{.width = w, .a_pitch = zpitch, .b_pitch = w});
}

void SlabFft3d::yslabs_to_spectral(std::span<Complex* const> spec,
                                   const SpectralBand& band) {
  const std::size_t nv = spec.size();
  const std::size_t h = nxh(), w = band.width;
  // Global transpose of the band's columns to Z-slabs, batched as np
  // pencils / q per all-to-all.
  transpose_.y_to_z(
      std::span<const Complex* const>(
          const_cast<const Complex* const*>(yslab_ptrs_.data()), nv),
      spec, np_, q_, SlabColumns{.width = w, .a_pitch = h, .b_pitch = w});

  // y: strided lines (stride nxh) inside the Z-slab, on the band's planes.
  obs::TraceSpan span("slab_fft.forward.y", obs::SpanKind::Compute);
  util::ThreadPool::global().parallel_for(
      "fft.slab.y", 0, nv * mz(), [&](std::size_t idx) {
        const std::size_t v = idx / mz();
        const std::size_t kk = idx % mz();
        if (!keeps_plane(band, kk)) return;
        Complex* base = spec[v] + h * n_ * kk;
        plan_yz_->transform_batch(fft::Direction::Forward, base, base,
                                  BatchLayout{.count = w, .stride = h,
                                              .dist = 1});
      });
}

void SlabFft3d::forward(std::span<const Real* const> phys,
                        std::span<Complex* const> spec) {
  forward(phys, spec, SpectralBand::full(n_));
}

void SlabFft3d::inverse(std::span<const Complex* const> spec,
                        std::span<Real* const> phys) {
  inverse(spec, phys, SpectralBand::full(n_));
}

void SlabFft3d::forward(std::span<const Real* const> phys,
                        std::span<Complex* const> spec,
                        const SpectralBand& band) {
  PSDNS_REQUIRE(phys.size() == spec.size(), "variable count mismatch");
  const std::size_t nv = phys.size();
  const std::size_t w = band.width;
  ensure_work(nv, w);
  for (std::size_t v = 0; v < nv; ++v) {
    Complex* y = work_[v].data();
    yslab_ptrs_[v] = y;
    // x: real-to-complex, all my()*n_ unit-stride lines as one batch,
    // keeping the band's w coefficients.
    {
      obs::TraceSpan span("slab_fft.forward.x", obs::SpanKind::Compute);
      plan_x_->forward_batch(phys[v], n_, y, w, n_ * my(), w);
    }
    // z: strided lines (stride w) inside the Y-slab, one batch per plane.
    obs::TraceSpan span("slab_fft.forward.z", obs::SpanKind::Compute);
    z_pass(fft::Direction::Forward, &y, 1, 0, my(), w);
  }
  yslabs_to_spectral(spec, band);
}

void SlabFft3d::inverse(std::span<const Complex* const> spec,
                        std::span<Real* const> phys,
                        const SpectralBand& band) {
  PSDNS_REQUIRE(phys.size() == spec.size(), "variable count mismatch");
  const std::size_t nv = phys.size();
  const std::size_t w = band.width;
  ensure_work(2 * nv, w);
  for (std::size_t v = 0; v < nv; ++v) {
    zslab_ptrs_[v] = work_[v].data();
    yslab_ptrs_[v] = work_[nv + v].data();
  }
  inverse_to_yslabs(spec, band, w);
  for (std::size_t v = 0; v < nv; ++v) {
    Complex* y = yslab_ptrs_[v];
    {
      obs::TraceSpan span("slab_fft.inverse.z", obs::SpanKind::Compute);
      z_pass(fft::Direction::Inverse, &y, 1, 0, my(), w);
    }
    // x: complex-to-real, batched over all lines of the Y-slab.
    obs::TraceSpan span("slab_fft.inverse.x", obs::SpanKind::Compute);
    plan_x_->inverse_batch(y, w, phys[v], n_, n_ * my(), w);
  }
}

void SlabFft3d::round_trip(std::span<const Complex* const> in,
                           PointKernel kernel, void* ctx,
                           std::span<Complex* const> out,
                           const SpectralBand& band) {
  const std::size_t nin = in.size(), nout = out.size();
  const std::size_t w = band.width;
  // Y-slab v is work_[v] for inputs and outputs alike. Input v's y-inverse
  // goes to the Z-slab out[v] (in place when in[v] is out[v]), which
  // nothing reads after z_to_y and y_to_z overwrites in the band; inputs
  // past the last output take full-size work slabs past the Y-slabs. The
  // Z-slabs are nxh-pitched, as the caller's spectra.
  const std::size_t nyslabs = std::max(nin, nout);
  ensure_work(nyslabs + (nin > nout ? nin - nout : 0), w);
  for (std::size_t v = 0; v < nyslabs; ++v) yslab_ptrs_[v] = work_[v].data();
  for (std::size_t v = 0; v < nin; ++v) {
    if (v < nout) {
      zslab_ptrs_[v] = out[v];
    } else {
      auto& zs = work_[nyslabs + v - nout];
      zs.ensure(spectral_elems());
      zslab_ptrs_[v] = zs.data();
    }
  }
  inverse_to_yslabs(in, band, nxh());

  const std::size_t group =
      std::min(round_trip_group_lines(n_, n_) / n_, my());  // planes
  Real* const* phys = point_scratch(nin, nout, group * n_ * n_);
  {
    obs::TraceSpan span("slab_fft.planes", obs::SpanKind::Compute);
    const double start = obs::trace_clock();
    // Each pass and the kernel is timed over all groups, one span each.
    obs::SpanSum z_inv("slab_fft.group.inverse.z");
    obs::SpanSum x_inv("slab_fft.group.inverse.x");
    obs::SpanSum products("slab_fft.group.kernel");
    obs::SpanSum x_fwd("slab_fft.group.forward.x");
    obs::SpanSum z_fwd("slab_fft.group.forward.z");
    // Output t's planes overwrite input t's, which the group has consumed.
    Complex* const* y = yslab_ptrs_.data();
    for (std::size_t j0 = 0; j0 < my(); j0 += group) {
      const std::size_t planes = std::min(group, my() - j0);
      const std::size_t lines = planes * n_;
      z_inv.time([&] {
        z_pass(fft::Direction::Inverse, y, nin, j0, planes, w);
      });
      x_inv.time([&] {
        for (std::size_t v = 0; v < nin; ++v) {
          plan_x_->inverse_blocks(y[v] + w * n_ * j0, w, phys[v], lines, w);
        }
      });
      products.time([&] { kernel(ctx, phys, phys + nin, lines * n_); });
      x_fwd.time([&] {
        for (std::size_t t = 0; t < nout; ++t) {
          plan_x_->forward_blocks(phys[nin + t], y[t] + w * n_ * j0, w, lines,
                                  w);
        }
      });
      z_fwd.time([&] {
        z_pass(fft::Direction::Forward, y, nout, j0, planes, w);
      });
    }
    double t = start;
    for (obs::SpanSum* phase : {&z_inv, &x_inv, &products, &x_fwd, &z_fwd}) {
      t = phase->flush(t);
    }
  }
  yslabs_to_spectral(out, band);
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

void PencilFft3d::ensure_pencils(std::size_t count) {
  if (px_.size() < count) px_.resize(count);
  for (std::size_t v = 0; v < count; ++v) {
    px_[v].ensure(nxh() * grid().yl() * grid().zl());
  }
  py_.ensure(n_ * x_range().width() * grid().zl());
}

void PencilFft3d::inverse_to_xpencil(const Complex* spec, Complex* pz,
                                     Complex* px) {
  const auto& g = grid();
  const std::size_t h = nxh(), yl = g.yl(), zl = g.zl();
  const std::size_t w = x_range().width();
  // z-inverse from the input into the Z-pencil scratch (in place when
  // spec is pz).
  {
    obs::TraceSpan span("pencil_fft.inverse.z", obs::SpanKind::Compute);
    plan_yz_->transform_batch(fft::Direction::Inverse, spec, pz,
                              BatchLayout{.count = w * g.yl2(), .stride = 1,
                                          .dist = n_});
  }

  transpose_.z_to_y(std::span<const Complex>(pz, spectral_elems()),
                    std::span<Complex>(py_.data(), n_ * w * zl));
  {
    obs::TraceSpan span("pencil_fft.inverse.y", obs::SpanKind::Compute);
    plan_yz_->transform_batch(fft::Direction::Inverse, py_.data(), py_.data(),
                              BatchLayout{.count = w * zl, .stride = 1,
                                          .dist = n_});
  }

  transpose_.y_to_x(std::span<const Complex>(py_.data(), n_ * w * zl),
                    std::span<Complex>(px, h * yl * zl));
}

void PencilFft3d::xpencil_to_spectral(const Complex* px, Complex* spec) {
  const auto& g = grid();
  const std::size_t h = nxh(), yl = g.yl(), zl = g.zl();
  const std::size_t w = x_range().width();
  // Row transpose, then y on the contiguous lines of the Y-pencil (one
  // arithmetic progression: dist n_, stride 1).
  transpose_.x_to_y(std::span<const Complex>(px, h * yl * zl),
                    std::span<Complex>(py_.data(), n_ * w * zl));
  {
    obs::TraceSpan span("pencil_fft.forward.y", obs::SpanKind::Compute);
    plan_yz_->transform_batch(fft::Direction::Forward, py_.data(), py_.data(),
                              BatchLayout{.count = w * zl, .stride = 1,
                                          .dist = n_});
  }

  // Column transpose, then z on contiguous lines of the Z-pencil.
  transpose_.y_to_z(std::span<const Complex>(py_.data(), n_ * w * zl),
                    std::span<Complex>(spec, spectral_elems()));
  obs::TraceSpan span("pencil_fft.forward.z", obs::SpanKind::Compute);
  plan_yz_->transform_batch(fft::Direction::Forward, spec, spec,
                            BatchLayout{.count = w * g.yl2(), .stride = 1,
                                        .dist = n_});
}

void PencilFft3d::forward(std::span<const Real> phys,
                          std::span<Complex> spec) {
  PSDNS_REQUIRE(phys.size() >= physical_elems(), "phys too small");
  PSDNS_REQUIRE(spec.size() >= spectral_elems(), "spec too small");
  ensure_pencils(1);
  // x: real-to-complex, all yl*zl unit-stride lines of the X-pencil at once.
  {
    obs::TraceSpan span("pencil_fft.forward.x", obs::SpanKind::Compute);
    plan_x_->forward_batch(phys.data(), n_, px_[0].data(), nxh(),
                           grid().yl() * grid().zl());
  }
  xpencil_to_spectral(px_[0].data(), spec.data());
}

void PencilFft3d::inverse(std::span<const Complex> spec,
                          std::span<Real> phys) {
  PSDNS_REQUIRE(phys.size() >= physical_elems(), "phys too small");
  PSDNS_REQUIRE(spec.size() >= spectral_elems(), "spec too small");
  // The second X-pencil is the z-inverse's Z-pencil scratch: a round trip
  // holds at least two, so a step-warmed backend checks nothing out here.
  // An uneven x split can make a rank's Z-pencil the larger block.
  ensure_pencils(2);
  px_[1].ensure(spectral_elems());
  inverse_to_xpencil(spec.data(), px_[1].data(), px_[0].data());
  obs::TraceSpan span("pencil_fft.inverse.x", obs::SpanKind::Compute);
  plan_x_->inverse_batch(px_[0].data(), nxh(), phys.data(), n_,
                         grid().yl() * grid().zl());
}

void PencilFft3d::round_trip(std::span<const Complex* const> in,
                             PointKernel kernel, void* ctx,
                             std::span<Complex* const> out,
                             const SpectralBand&) {
  const std::size_t nin = in.size(), nout = out.size();
  const std::size_t h = nxh(), total = grid().yl() * grid().zl();
  PSDNS_REQUIRE(nout >= 1, "round_trip needs an output field");
  ensure_pencils(std::max(nin, nout));
  // out[0] is the inputs' Z-pencil scratch: nothing reads it after the
  // last input's z_to_y, and output 0's y_to_z writes it in full. Input 0's
  // z-inverse runs in place when in[0] is out[0]; input v >= 1 may alias
  // only out[v], which is written after every input has been read.
  for (std::size_t v = 0; v < nin; ++v) {
    inverse_to_xpencil(in[v], out[0], px_[v].data());
  }

  const std::size_t group = std::min(round_trip_group_lines(n_, 1), total);
  Real* const* phys = point_scratch(nin, nout, group * n_);
  {
    obs::TraceSpan span("pencil_fft.lines", obs::SpanKind::Compute);
    const double start = obs::trace_clock();
    obs::SpanSum x_inv("pencil_fft.group.inverse.x");
    obs::SpanSum products("pencil_fft.group.kernel");
    obs::SpanSum x_fwd("pencil_fft.group.forward.x");
    for (std::size_t l0 = 0; l0 < total; l0 += group) {
      const std::size_t lines = std::min(group, total - l0);
      x_inv.time([&] {
        for (std::size_t v = 0; v < nin; ++v) {
          plan_x_->inverse_blocks(px_[v].data() + h * l0, h, phys[v], lines);
        }
      });
      products.time([&] { kernel(ctx, phys, phys + nin, lines * n_); });
      x_fwd.time([&] {
        for (std::size_t t = 0; t < nout; ++t) {
          plan_x_->forward_blocks(phys[nin + t], px_[t].data() + h * l0, h,
                                  lines);
        }
      });
    }
    double t = start;
    for (obs::SpanSum* phase : {&x_inv, &products, &x_fwd}) {
      t = phase->flush(t);
    }
  }
  for (std::size_t t = 0; t < nout; ++t) {
    xpencil_to_spectral(px_[t].data(), out[t]);
  }
}

}  // namespace psdns::transpose
