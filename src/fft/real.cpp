#include "fft/real.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <numbers>
#include <utility>
#include <vector>

#include "fft/real_kernels.hpp"
#include "fft/stockham.hpp"
#include "obs/log.hpp"
#include "obs/registry.hpp"
#include "util/arena.hpp"
#include "util/check.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace psdns::fft {

namespace detail {

void c2r_prestep_scalar(const Complex* in, std::size_t in_dist,
                        std::size_t nb, std::size_t h, std::size_t kept,
                        const Complex* omega, Complex* z) {
  c2r_prestep_impl<util::simd::ScalarPack>(in, in_dist, nb, h, kept, omega,
                                           z);
}

void r2c_unravel_scalar(const Complex* z, std::size_t nb, std::size_t h,
                        std::size_t kept, const Complex* omega, Complex* out,
                        std::size_t out_dist) {
  r2c_unravel_impl<util::simd::ScalarPack>(z, nb, h, kept, omega, out,
                                           out_dist);
}

}  // namespace detail

namespace {

// Per-thread scratch shared by all real plans, checked out of the
// workspace arena so it participates in the arena's peak accounting: the
// r2c/c2r paths run once per grid line in the DNS, so per-call allocation
// would dominate. Slot 0 is the half-length engine's staging buffer (and
// the full-length fallback's line); slot 1 holds a natural-layout call's
// block, which the block entry points take from their caller instead.
util::WorkspaceArena::Handle<Complex>& scratch(std::size_t slot,
                                               std::size_t n) {
  thread_local util::WorkspaceArena::Handle<Complex> buf[2];
  buf[slot].ensure(n);
  return buf[slot];
}

// One backend per call, like the Stockham stages.
void c2r_prestep(const Complex* in, std::size_t in_dist, std::size_t nb,
                 std::size_t h, std::size_t kept, const Complex* omega,
                 Complex* z) {
#if defined(PSDNS_HAVE_AVX2)
  if (util::simd::active_backend() == util::simd::Backend::Avx2) {
    detail::c2r_prestep_avx2(in, in_dist, nb, h, kept, omega, z);
    return;
  }
#endif
  detail::c2r_prestep_scalar(in, in_dist, nb, h, kept, omega, z);
}

void r2c_unravel(const Complex* z, std::size_t nb, std::size_t h,
                 std::size_t kept, const Complex* omega, Complex* out,
                 std::size_t out_dist) {
#if defined(PSDNS_HAVE_AVX2)
  if (util::simd::active_backend() == util::simd::Backend::Avx2) {
    detail::r2c_unravel_avx2(z, nb, h, kept, omega, out, out_dist);
    return;
  }
#endif
  detail::r2c_unravel_scalar(z, nb, h, kept, omega, out, out_dist);
}

}  // namespace

PlanR2C::PlanR2C(std::size_t n) : n_(n) {
  PSDNS_REQUIRE(n >= 2, "real transform length must be >= 2");
  auto half = n % 2 == 0 ? get_plan(n / 2) : nullptr;
  if (half && half->stockham()) {
    half_ = std::move(half);
    const std::size_t h = n / 2;
    omega_.resize(h + 1);
    const double base = -2.0 * std::numbers::pi / static_cast<double>(n);
    for (std::size_t k = 0; k <= h; ++k) {
      const double phase = base * static_cast<double>(k);
      omega_[k] = Complex{std::cos(phase), std::sin(phase)};
    }
  } else {
    full_ = get_plan(n);
  }
}

void PlanR2C::forward(const Real* in, Complex* out) const {
  forward_batch(in, n_, out, spectrum_size(), 1);
}

void PlanR2C::inverse(const Complex* in, Real* out) const {
  inverse_batch(in, spectrum_size(), out, n_, 1);
}

std::size_t PlanR2C::kept_count(std::size_t kept) const {
  PSDNS_REQUIRE(kept <= spectrum_size(), "kept count exceeds the spectrum");
  return kept == 0 ? spectrum_size() : kept;
}

std::size_t PlanR2C::block_lines() const { return real_block_lines(n_ / 2); }

template <class Body>
void PlanR2C::for_each_block(std::size_t count, Body&& body) const {
  const std::size_t bmax = block_lines();
  const std::size_t blocks = (count + bmax - 1) / bmax;
  const std::size_t stage = bmax * (n_ / 2);
  // Blocks stripe across the worker pool; per-thread staging keeps them
  // independent and the fixed bmax partition keeps results bitwise identical
  // at any thread count (see PlanC2C::transform_batch).
  util::ThreadPool::global().parallel_for(
      "fft.r2c.batch", 0, blocks, [&](std::size_t blk) {
        const std::size_t b0 = blk * bmax;
        body(b0, std::min(bmax, count - b0), scratch(0, stage).data());
      });
}

// The block core. The c2r pre-step writes the engine's input buffer, and
// the engine's result lands in `data`, which is the block itself; the r2c
// hands the block to the engine as its input buffer and unravels from
// whichever buffer holds the result. Either way the only buffer beside the
// block is `work`, and neither direction gathers or scatters.

void PlanR2C::inverse_block(const Complex* in, std::size_t in_dist,
                            std::size_t nb, std::size_t kept, Complex* blk,
                            Complex* work) const {
  const StockhamEngine& eng = *half_->stockham();
  // The pre-step yields 2Z, which carries the c2r's factor 2 (the
  // half-length unnormalized inverse carries h, the convention wants 2h):
  // a power-of-two scaling, exact.
  c2r_prestep(in, in_dist, nb, n_ / 2, kept, omega_.data(),
              eng.prefers_work_input() ? work : blk);
  eng.execute_batch(Direction::Inverse, blk, work, nb);
}

void PlanR2C::forward_block(Complex* blk, std::size_t nb, Complex* out,
                            std::size_t out_dist, std::size_t kept,
                            Complex* work) const {
  const StockhamEngine& eng = *half_->stockham();
  Complex* data = eng.prefers_work_input() ? work : blk;
  eng.execute_batch(Direction::Forward, data, data == blk ? work : blk, nb);
  r2c_unravel(data, nb, n_ / 2, kept, omega_.data(), out, out_dist);
}

void PlanR2C::forward_batch(const Real* in, std::size_t in_dist, Complex* out,
                            std::size_t out_dist, std::size_t count,
                            std::size_t kept) const {
  kept = kept_count(kept);
  if (!half_) {
    // Full-length complex transform of each line, keeping `kept` outputs.
    Complex* z = scratch(0, n_).data();
    for (std::size_t b = 0; b < count; ++b) {
      const Real* line = in + b * in_dist;
      for (std::size_t j = 0; j < n_; ++j) z[j] = Complex{line[j], 0.0};
      full_->transform(Direction::Forward, z, z);
      std::copy(z, z + kept, out + b * out_dist);
    }
    return;
  }
  const std::size_t h = n_ / 2;
  for_each_block(count, [&](std::size_t b0, std::size_t nb, Complex* work) {
    // Transposing copy into the block layout, then the block core.
    Complex* blk = scratch(1, block_lines() * h).data();
    for (std::size_t b = 0; b < nb; ++b) {
      const Real* line = in + (b0 + b) * in_dist;
      for (std::size_t j = 0; j < h; ++j) {
        blk[b + nb * j] = Complex{line[2 * j], line[2 * j + 1]};
      }
    }
    forward_block(blk, nb, out + b0 * out_dist, out_dist, kept, work);
  });
}

void PlanR2C::inverse_batch(const Complex* in, std::size_t in_dist, Real* out,
                            std::size_t out_dist, std::size_t count,
                            std::size_t kept) const {
  kept = kept_count(kept);
  if (!half_) {
    // Expand the conjugate-symmetric spectrum of each line, zero from
    // `kept` on, and take the full-length complex inverse.
    static constexpr Complex kZero{0.0, 0.0};
    Complex* z = scratch(0, n_).data();
    for (std::size_t b = 0; b < count; ++b) {
      const Complex* spec = in + b * in_dist;
      const auto coef = [&](std::size_t k) {
        return k < kept ? spec[k] : kZero;
      };
      for (std::size_t k = 0; k < spectrum_size(); ++k) z[k] = coef(k);
      for (std::size_t k = spectrum_size(); k < n_; ++k) {
        z[k] = std::conj(coef(n_ - k));
      }
      full_->transform(Direction::Inverse, z, z);
      Real* line = out + b * out_dist;
      for (std::size_t j = 0; j < n_; ++j) line[j] = z[j].real();
    }
    return;
  }
  const std::size_t h = n_ / 2;
  for_each_block(count, [&](std::size_t b0, std::size_t nb, Complex* work) {
    // The block core, then a transposing copy out of the block layout.
    Complex* blk = scratch(1, block_lines() * h).data();
    inverse_block(in + b0 * in_dist, in_dist, nb, kept, blk, work);
    for (std::size_t b = 0; b < nb; ++b) {
      Real* line = out + (b0 + b) * out_dist;
      for (std::size_t j = 0; j < h; ++j) {
        line[2 * j] = blk[b + nb * j].real();
        line[2 * j + 1] = blk[b + nb * j].imag();
      }
    }
  });
}

void PlanR2C::inverse_blocks(const Complex* in, std::size_t in_dist,
                             Real* phys, std::size_t count,
                             std::size_t kept) const {
  if (!half_) {
    inverse_batch(in, in_dist, phys, n_, count, kept);
    return;
  }
  kept = kept_count(kept);
  for_each_block(count, [&](std::size_t b0, std::size_t nb, Complex* work) {
    inverse_block(in + b0 * in_dist, in_dist, nb, kept,
                  reinterpret_cast<Complex*>(phys + b0 * n_), work);
  });
}

void PlanR2C::forward_blocks(Real* phys, Complex* out, std::size_t out_dist,
                             std::size_t count, std::size_t kept) const {
  if (!half_) {
    forward_batch(phys, n_, out, out_dist, count, kept);
    return;
  }
  kept = kept_count(kept);
  for_each_block(count, [&](std::size_t b0, std::size_t nb, Complex* work) {
    forward_block(reinterpret_cast<Complex*>(phys + b0 * n_), nb,
                  out + b0 * out_dist, out_dist, kept, work);
  });
}

std::shared_ptr<const PlanR2C> get_plan_r2c(std::size_t n) {
  static std::mutex mutex;
  static std::map<std::size_t, std::shared_ptr<const PlanR2C>> cache;
  std::lock_guard lock(mutex);
  auto& slot = cache[n];
  if (!slot) {
    obs::registry().counter_add("fft.plan_cache.miss");
    obs::log_event(obs::LogLevel::Debug, "fft", "r2c plan cache miss",
                   {{"n", n}});
    slot = std::make_shared<const PlanR2C>(n);
  } else {
    obs::registry().counter_add("fft.plan_cache.hit");
  }
  return slot;
}

}  // namespace psdns::fft
