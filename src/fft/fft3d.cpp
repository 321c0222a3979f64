#include "fft/fft3d.hpp"

#include <algorithm>

#include "fft/plan.hpp"
#include "fft/real.hpp"
#include "obs/span.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace psdns::fft {

namespace {

// c2r needs a spectrum-sized working copy (the input is const); hoisted out
// of the call into per-thread scratch so the solver's hot loop never
// allocates.
std::vector<Complex>& c2r_work(std::size_t n) {
  thread_local std::vector<Complex> buf;
  if (buf.size() < n) buf.resize(n);
  return buf;
}

}  // namespace

// All three transforms below batch every line family through
// PlanC2C::transform_batch / PlanR2C::*_batch: y lines of one z-plane are
// adjacent in memory (dist 1, stride nx), z lines of the whole volume are
// one arithmetic progression (dist 1, stride nx*ny), and the unit-stride x
// lines batch with dist nx. Each stage runs inside an obs::TraceSpan, so
// the fft3d.* histograms and the trace show the x/y/z passes of every 3-D
// transform.

void fft3d_c2c(Direction dir, const Shape3& shape, Complex* data) {
  const auto [nx, ny, nz] = shape;
  PSDNS_REQUIRE(nx >= 1 && ny >= 1 && nz >= 1, "empty shape");
  const auto px = get_plan(nx);
  const auto py = get_plan(ny);
  const auto pz = get_plan(nz);

  {
    obs::TraceSpan span("fft3d.c2c.x", obs::SpanKind::Compute);
    px->transform_batch(dir, data, data,
                        BatchLayout{.count = ny * nz, .stride = 1, .dist = nx});
  }
  {
    obs::TraceSpan span("fft3d.c2c.y", obs::SpanKind::Compute);
    // z-planes are disjoint, so they stripe across the worker pool; the
    // per-plane transform_batch runs inline inside a stripe (nested
    // parallel_for executes on the calling thread).
    util::ThreadPool::global().parallel_for(
        "fft.3d.y", 0, nz, [&](std::size_t k) {
          Complex* base = data + nx * ny * k;
          py->transform_batch(
              dir, base, base,
              BatchLayout{.count = nx, .stride = nx, .dist = 1});
        });
  }
  {
    obs::TraceSpan span("fft3d.c2c.z", obs::SpanKind::Compute);
    pz->transform_batch(
        dir, data, data,
        BatchLayout{.count = nx * ny, .stride = nx * ny, .dist = 1});
  }
}

void fft3d_r2c(const Shape3& shape, const Real* in, Complex* out) {
  const auto [nx, ny, nz] = shape;
  const std::size_t nxh = nx / 2 + 1;
  const auto prx = get_plan_r2c(nx);
  const auto py = get_plan(ny);
  const auto pz = get_plan(nz);

  {
    obs::TraceSpan span("fft3d.r2c.x", obs::SpanKind::Compute);
    prx->forward_batch(in, nx, out, nxh, ny * nz);
  }
  {
    obs::TraceSpan span("fft3d.r2c.y", obs::SpanKind::Compute);
    util::ThreadPool::global().parallel_for(
        "fft.3d.y", 0, nz, [&](std::size_t k) {
          Complex* base = out + nxh * ny * k;
          py->transform_batch(
              Direction::Forward, base, base,
              BatchLayout{.count = nxh, .stride = nxh, .dist = 1});
        });
  }
  {
    obs::TraceSpan span("fft3d.r2c.z", obs::SpanKind::Compute);
    pz->transform_batch(
        Direction::Forward, out, out,
        BatchLayout{.count = nxh * ny, .stride = nxh * ny, .dist = 1});
  }
}

void fft3d_c2r(const Shape3& shape, const Complex* in, Real* out) {
  const auto [nx, ny, nz] = shape;
  const std::size_t nxh = nx / 2 + 1;
  const auto prx = get_plan_r2c(nx);
  const auto py = get_plan(ny);
  const auto pz = get_plan(nz);

  auto& work = c2r_work(nxh * ny * nz);
  std::copy(in, in + static_cast<std::ptrdiff_t>(nxh * ny * nz), work.begin());

  // Inverse order: z, then y, then complex-to-real in x.
  {
    obs::TraceSpan span("fft3d.c2r.z", obs::SpanKind::Compute);
    pz->transform_batch(
        Direction::Inverse, work.data(), work.data(),
        BatchLayout{.count = nxh * ny, .stride = nxh * ny, .dist = 1});
  }
  {
    obs::TraceSpan span("fft3d.c2r.y", obs::SpanKind::Compute);
    util::ThreadPool::global().parallel_for(
        "fft.3d.y", 0, nz, [&](std::size_t k) {
          Complex* base = work.data() + nxh * ny * k;
          py->transform_batch(
              Direction::Inverse, base, base,
              BatchLayout{.count = nxh, .stride = nxh, .dist = 1});
        });
  }
  {
    obs::TraceSpan span("fft3d.c2r.x", obs::SpanKind::Compute);
    prx->inverse_batch(work.data(), nxh, out, nx, ny * nz);
  }
}

}  // namespace psdns::fft
