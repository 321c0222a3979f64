#include "fft/plan.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <mutex>
#include <optional>

#include "fft/bluestein.hpp"
#include "fft/factor.hpp"
#include "fft/stockham.hpp"
#include "obs/log.hpp"
#include "obs/registry.hpp"
#include "util/arena.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace psdns::fft {

struct PlanC2C::Impl {
  std::optional<StockhamEngine> stockham;    // smooth lengths
  std::optional<BluesteinEngine> bluestein;  // non-smooth lengths
};

namespace {

// Per-thread scratch shared by all plans, checked out of the workspace
// arena (so FFT scratch shows up in the arena's peak accounting). Keeps
// transform() allocation-free in steady state while plans stay const and
// shareable between the functional communicator's rank threads.
util::WorkspaceArena::Handle<Complex>& scratch(std::size_t n) {
  thread_local util::WorkspaceArena::Handle<Complex> buf;
  buf.ensure(n);
  return buf;
}

// Ping-pong staging buffers of the blocked batch path (distinct from
// scratch() so transform_batch may call into plans that use scratch()).
util::WorkspaceArena::Handle<Complex>& batch_scratch(std::size_t n) {
  thread_local util::WorkspaceArena::Handle<Complex> buf;
  buf.ensure(n);
  return buf;
}

}  // namespace

std::size_t batch_block_lines(std::size_t n) {
  // 512 KiB per staging buffer (two are live at once, comfortably inside a
  // 2 MiB L2), at least 8 lines so the inner batch loop fills a vector
  // register, at most 64 so the gather touches a bounded set of cache lines
  // per column.
  constexpr std::size_t kBlockBytes = std::size_t{1} << 19;
  const std::size_t lines =
      kBlockBytes / (sizeof(Complex) * std::max<std::size_t>(n, 1));
  return std::clamp<std::size_t>(lines, 8, 64);
}

std::size_t real_block_lines(std::size_t h) {
  constexpr std::size_t kBlockBytes = std::size_t{1} << 14;
  const std::size_t lines =
      kBlockBytes / (sizeof(Complex) * std::max<std::size_t>(h, 1));
  return std::bit_floor(std::clamp<std::size_t>(lines, 2, 64));
}

PlanC2C::PlanC2C(std::size_t n) : n_(n), impl_(std::make_unique<Impl>()) {
  PSDNS_REQUIRE(n >= 1, "transform length must be positive");
  if (is_smooth(n)) {
    impl_->stockham.emplace(n);
  } else {
    impl_->bluestein.emplace(n);
  }
}

const StockhamEngine* PlanC2C::stockham() const {
  return impl_->stockham ? &*impl_->stockham : nullptr;
}

PlanC2C::~PlanC2C() = default;
PlanC2C::PlanC2C(PlanC2C&&) noexcept = default;
PlanC2C& PlanC2C::operator=(PlanC2C&&) noexcept = default;

void PlanC2C::transform(Direction dir, const Complex* in, Complex* out) const {
  if (!impl_->stockham) {
    transform_batch(dir, in, out,
                    BatchLayout{.count = 1, .stride = 1, .dist = n_});
    return;
  }
  // Single-line (batch = 1) run of the iterative engine: `out` doubles as
  // the result buffer, the thread-local scratch as the ping-pong partner.
  auto& tmp = scratch(n_);
  if (impl_->stockham->prefers_work_input()) {
    std::copy(in, in + n_, tmp.data());
  } else if (in != out) {
    std::copy(in, in + n_, out);
  }
  impl_->stockham->execute_batch(dir, out, tmp.data(), 1);
}

void PlanC2C::transform_batch(Direction dir, const Complex* in, Complex* out,
                              const BatchLayout& layout) const {
  PSDNS_REQUIRE(layout.count >= 1, "batch count must be positive");
  const std::size_t dist = layout.dist == 0 ? n_ * layout.stride : layout.dist;
  const std::size_t ostride =
      layout.out_stride == 0 ? layout.stride : layout.out_stride;

  if (!impl_->stockham) {
    // Non-smooth lengths: Bluestein per line into contiguous scratch, then
    // scatter, so the line may be transformed in place.
    auto& tmp = scratch(n_);
    for (std::size_t b = 0; b < layout.count; ++b) {
      impl_->bluestein->execute(dir, in + b * dist,
                                static_cast<std::ptrdiff_t>(layout.stride),
                                tmp.data());
      Complex* line = out + b * dist;
      for (std::size_t k = 0; k < n_; ++k) line[k * ostride] = tmp[k];
    }
    return;
  }

  const StockhamEngine& eng = *impl_->stockham;
  const std::size_t bmax = batch_block_lines(n_);
  const std::size_t blocks = (layout.count + bmax - 1) / bmax;

  // Blocks are independent (disjoint line ranges, per-thread staging), so
  // they stripe across the worker pool; each executing thread checks out
  // its own thread_local ping-pong buffers. The block partition is fixed by
  // bmax alone, so results are bitwise identical at any thread count.
  util::ThreadPool::global().parallel_for(
      "fft.c2c.batch", 0, blocks, [&](std::size_t blk) {
        const std::size_t b0 = blk * bmax;
        const std::size_t nb = std::min(bmax, layout.count - b0);
        auto& buf = batch_scratch(2 * bmax * n_);
        Complex* stage0 = buf.data();
        Complex* stage1 = buf.data() + bmax * n_;
        if (dist == 1) {
          // Plane layout: line b's element j already sits at
          // in[b + j*stride], which is exactly the pitched row layout the
          // first and last Stockham stages can stream directly — neither a
          // gather nor a scatter pass touches the block.
          eng.execute_batch_plane(dir, in + b0, layout.stride, out + b0,
                                  ostride, stage0, stage1, nb);
          return;
        }
        // Blocked gather: column j of the staging buffer holds element j
        // of all nb lines, so the write side is always unit-stride.
        Complex* gbuf = eng.prefers_work_input() ? stage1 : stage0;
        const Complex* src = in + b0 * dist;
        for (std::size_t j = 0; j < n_; ++j) {
          const Complex* col = src + j * layout.stride;
          Complex* dst = gbuf + j * nb;
          for (std::size_t b = 0; b < nb; ++b) dst[b] = col[b * dist];
        }
        eng.execute_batch(dir, stage0, stage1, nb);
        Complex* obase = out + b0 * dist;
        for (std::size_t j = 0; j < n_; ++j) {
          const Complex* srcj = stage0 + j * nb;
          Complex* col = obase + j * ostride;
          for (std::size_t b = 0; b < nb; ++b) col[b * dist] = srcj[b];
        }
      });

  auto& reg = obs::registry();
  reg.counter_add("fft.stockham.batches", static_cast<std::int64_t>(blocks));
  reg.counter_add("fft.stockham.lines",
                  static_cast<std::int64_t>(layout.count));
  reg.counter_add("fft.stockham.gathered_bytes",
                  static_cast<std::int64_t>(2 * layout.count * n_ *
                                            sizeof(Complex)));
}

void PlanC2C::normalize(Complex* data, std::size_t count) const {
  const double scale = 1.0 / static_cast<double>(n_);
  for (std::size_t i = 0; i < count; ++i) data[i] *= scale;
}

std::shared_ptr<const PlanC2C> get_plan(std::size_t n) {
  static std::mutex mutex;
  static std::map<std::size_t, std::shared_ptr<const PlanC2C>> cache;
  std::lock_guard lock(mutex);
  auto& slot = cache[n];
  if (!slot) {
    obs::registry().counter_add("fft.plan_cache.miss");
    obs::log_event(obs::LogLevel::Debug, "fft", "plan cache miss",
                   {{"n", n}});
    slot = std::make_shared<const PlanC2C>(n);
  } else {
    obs::registry().counter_add("fft.plan_cache.hit");
  }
  return slot;
}

}  // namespace psdns::fft
