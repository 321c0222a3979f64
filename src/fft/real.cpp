#include "fft/real.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <numbers>
#include <utility>
#include <vector>

#include "fft/stockham.hpp"
#include "obs/log.hpp"
#include "obs/registry.hpp"
#include "util/arena.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace psdns::fft {

namespace {

// Per-thread scratch shared by all real plans, checked out of the
// workspace arena so it participates in the arena's peak accounting: the
// r2c/c2r paths run once per grid line in the DNS, so per-call allocation
// would dominate.
util::WorkspaceArena::Handle<Complex>& scratch(std::size_t slot,
                                               std::size_t n) {
  thread_local util::WorkspaceArena::Handle<Complex> buf[2];
  buf[slot].ensure(n);
  return buf[slot];
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
  const StockhamEngine* eng = half_->stockham();

  const std::size_t h = n_ / 2;
  const std::size_t bmax = batch_block_lines(h);
  const std::size_t blocks = (count + bmax - 1) / bmax;

  // Blocks stripe across the worker pool; per-thread staging keeps them
  // independent and the fixed bmax partition keeps results bitwise identical
  // at any thread count (see PlanC2C::transform_batch).
  util::ThreadPool::global().parallel_for(
      "fft.r2c.batch", 0, blocks, [&](std::size_t blk) {
        const std::size_t b0 = blk * bmax;
        const std::size_t nb = std::min(bmax, count - b0);
        Complex* stage0 =
            scratch(0, bmax * std::max<std::size_t>(h, 1)).data();
        Complex* stage1 =
            scratch(1, bmax * std::max<std::size_t>(h, 1)).data();
        // Pack adjacent real pairs of every line, batch-innermost.
        Complex* gbuf = eng->prefers_work_input() ? stage1 : stage0;
        for (std::size_t j = 0; j < h; ++j) {
          const Real* col = in + b0 * in_dist + 2 * j;
          Complex* dst = gbuf + j * nb;
          for (std::size_t b = 0; b < nb; ++b) {
            dst[b] = Complex{col[b * in_dist], col[b * in_dist + 1]};
          }
        }
        eng->execute_batch(Direction::Forward, stage0, stage1, nb);
        // Unravel X[k] = A[k] + w^k B[k] across the batch; the zk/zmk
        // columns are contiguous nb-wide runs of the staging buffer.
        for (std::size_t k = 0; k < kept; ++k) {
          const Complex w = omega_[k];
          const Complex* zkc = stage0 + (k == h ? 0 : k) * nb;
          const Complex* zmc = stage0 + ((h - k) % h) * nb;
          Complex* dst = out + b0 * out_dist + k;
          for (std::size_t b = 0; b < nb; ++b) {
            const double zkr = zkc[b].real(), zki = zkc[b].imag();
            const double zmr = zmc[b].real(), zmi = -zmc[b].imag();
            const double ar = 0.5 * (zkr + zmr), ai = 0.5 * (zki + zmi);
            // (zk - zmk) / (2i) == (zk - zmk) * (-i/2)
            const double br = 0.5 * (zki - zmi), bi = -0.5 * (zkr - zmr);
            dst[b * out_dist] = Complex{ar + br * w.real() - bi * w.imag(),
                                        ai + br * w.imag() + bi * w.real()};
          }
        }
      });
}

void PlanR2C::inverse_batch(const Complex* in, std::size_t in_dist, Real* out,
                            std::size_t out_dist, std::size_t count,
                            std::size_t kept) const {
  kept = kept_count(kept);
  static constexpr Complex kZero{0.0, 0.0};
  if (!half_) {
    // Expand the conjugate-symmetric spectrum of each line, zero from
    // `kept` on, and take the full-length complex inverse.
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
  const StockhamEngine* eng = half_->stockham();

  const std::size_t h = n_ / 2;
  const std::size_t bmax = batch_block_lines(h);
  const std::size_t blocks = (count + bmax - 1) / bmax;

  util::ThreadPool::global().parallel_for(
      "fft.r2c.batch", 0, blocks, [&](std::size_t blk) {
        const std::size_t b0 = blk * bmax;
        const std::size_t nb = std::min(bmax, count - b0);
        Complex* stage0 =
            scratch(0, bmax * std::max<std::size_t>(h, 1)).data();
        Complex* stage1 =
            scratch(1, bmax * std::max<std::size_t>(h, 1)).data();
        // Recover the packed half-length spectrum Z[k] = A[k] + i*B[k]. A
        // coefficient from `kept` on is read as kZero at line distance 0.
        Complex* gbuf = eng->prefers_work_input() ? stage1 : stage0;
        const auto column = [&](std::size_t k) {
          return k < kept ? std::pair{in + b0 * in_dist + k, in_dist}
                          : std::pair{&kZero, std::size_t{0}};
        };
        for (std::size_t k = 0; k < h; ++k) {
          const Complex wb = std::conj(omega_[k]);
          const auto [xkc, kd] = column(k);
          const auto [xmc, md] = column(h - k);
          Complex* dst = gbuf + k * nb;
          for (std::size_t b = 0; b < nb; ++b) {
            const double xkr = xkc[b * kd].real();
            const double xki = xkc[b * kd].imag();
            const double xmr = xmc[b * md].real();
            const double xmi = -xmc[b * md].imag();
            const double ar = 0.5 * (xkr + xmr), ai = 0.5 * (xki + xmi);
            const double dr = 0.5 * (xkr - xmr), di = 0.5 * (xki - xmi);
            const double br = dr * wb.real() - di * wb.imag();
            const double bi = dr * wb.imag() + di * wb.real();
            // Z = a + i*b
            dst[b] = Complex{ar - bi, ai + br};
          }
        }
        eng->execute_batch(Direction::Inverse, stage0, stage1, nb);
        // The half-length unnormalized inverse carries a factor h; the c2r
        // convention wants n = 2h, hence the factor 2.
        for (std::size_t j = 0; j < h; ++j) {
          const Complex* src = stage0 + j * nb;
          Real* col = out + b0 * out_dist + 2 * j;
          for (std::size_t b = 0; b < nb; ++b) {
            col[b * out_dist] = 2.0 * src[b].real();
            col[b * out_dist + 1] = 2.0 * src[b].imag();
          }
        }
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
