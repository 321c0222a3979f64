#include "fft/stockham.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "fft/factor.hpp"
#include "fft/stockham_kernels.hpp"
#include "util/check.hpp"
#include "util/simd.hpp"

namespace psdns::fft {

namespace {

using StageFn = void (*)(const StockhamStage&, const Complex*, const Complex*,
                         bool, std::size_t, std::size_t, std::size_t,
                         const Complex*, Complex*);
using TailFn = void (*)(const StockhamStage&, const Complex*, const Complex*,
                        bool, std::size_t, std::size_t, std::size_t,
                        std::size_t, const Complex*, Complex*);

// One backend per execute: all stages of a transform run the same kernel,
// so scalar and SIMD runs are comparable stage by stage.
StageFn pick_stage_fn() {
#if defined(PSDNS_HAVE_AVX2)
  if (util::simd::active_backend() == util::simd::Backend::Avx2) {
    return &detail::run_stage_avx2;
  }
#endif
  return &detail::run_stage_scalar;
}

TailFn pick_tail_fn() {
#if defined(PSDNS_HAVE_AVX2)
  if (util::simd::active_backend() == util::simd::Backend::Avx2) {
    return &detail::run_stage_tail_avx2;
  }
#endif
  return &detail::run_stage_tail_scalar;
}

}  // namespace

namespace detail {

void run_stage_scalar(const StockhamStage& st, const Complex* tw,
                      const Complex* mat, bool inverse, std::size_t s,
                      std::size_t xs, std::size_t ys, const Complex* x,
                      Complex* y) {
  run_stage_impl<util::simd::ScalarPack>(st, tw, mat, inverse, s, xs, ys, x,
                                         y);
}

void run_stage_tail_scalar(const StockhamStage& st, const Complex* tw,
                           const Complex* mat, bool inverse, std::size_t nb,
                           std::size_t nchunks, std::size_t xs,
                           std::size_t out_stride, const Complex* x,
                           Complex* y) {
  run_stage_tail_impl<util::simd::ScalarPack>(st, tw, mat, inverse, nb,
                                              nchunks, xs, out_stride, x, y);
}

}  // namespace detail

StockhamEngine::StockhamEngine(std::size_t n) : n_(n) {
  PSDNS_REQUIRE(n >= 1, "transform length must be positive");
  PSDNS_REQUIRE(is_smooth(n),
                "length has a large prime factor; use Bluestein instead");

  // Radix schedule: pairs of 2s merge into radix-4 stages (half the twiddle
  // multiplies), remaining factors as-is.
  std::vector<std::size_t> factors = prime_factors(n);
  std::vector<std::size_t> merged;
  std::size_t twos = 0;
  for (const std::size_t f : factors) {
    if (f == 2) {
      ++twos;
    } else {
      merged.push_back(f);
    }
  }
  for (; twos >= 2; twos -= 2) merged.insert(merged.begin(), 4);
  if (twos == 1) merged.insert(merged.begin(), 2);

  // Decimation in frequency: stage radixes consume n from the top. Stage
  // twiddles w_nsub^{p*j} are stored as (radix-1) columns per p (the j = 0
  // column is always 1).
  std::size_t nsub = n;
  std::size_t off = 0;
  for (const std::size_t r : merged) {
    StockhamStage st;
    st.radix = r;
    st.m = nsub / r;
    st.tw = off;
    const double base = -2.0 * std::numbers::pi / static_cast<double>(nsub);
    for (std::size_t p = 0; p < st.m; ++p) {
      for (std::size_t j = 1; j < r; ++j) {
        const double phase = base * static_cast<double>(p * j);
        twiddle_.push_back(Complex{std::cos(phase), std::sin(phase)});
      }
    }
    off += st.m * (r - 1);
    if (r != 2 && r != 3 && r != 4) {
      // Dedupe the r x r DFT matrix across stages with the same radix.
      for (std::size_t i = 0; i < stages_.size(); ++i) {
        if (stages_[i].radix == r && stages_[i].mat != kNoMat) {
          st.mat = stages_[i].mat;
          break;
        }
      }
      if (st.mat == kNoMat) {
        std::vector<Complex> mat(r * r);
        const double rb = -2.0 * std::numbers::pi / static_cast<double>(r);
        for (std::size_t j = 0; j < r; ++j) {
          for (std::size_t q = 0; q < r; ++q) {
            const double phase = rb * static_cast<double>((j * q) % r);
            mat[j * r + q] = Complex{std::cos(phase), std::sin(phase)};
          }
        }
        st.mat = radix_mats_.size();
        radix_mats_.push_back(std::move(mat));
      }
    }
    stages_.push_back(st);
    nsub = st.m;
  }
}

void StockhamEngine::execute_batch(Direction dir, Complex* data, Complex* work,
                                   std::size_t batch) const {
  PSDNS_REQUIRE(batch >= 1, "batch must be positive");
  if (stages_.empty()) return;  // n == 1: input in data is already the result
  const bool inverse = dir == Direction::Inverse;
  Complex* src = prefers_work_input() ? work : data;
  Complex* dst = prefers_work_input() ? data : work;
  const StageFn stage_fn = pick_stage_fn();
  std::size_t s = batch;
  for (const StockhamStage& st : stages_) {
    const Complex* mat =
        st.mat == kNoMat ? nullptr : radix_mats_[st.mat].data();
    stage_fn(st, twiddle_.data() + st.tw, mat, inverse, s, s, s, src, dst);
    s *= st.radix;
    std::swap(src, dst);
  }
  // The final stage wrote the buffer that is now `src`; by the parity choice
  // above that is always `data`.
}

void StockhamEngine::execute_batch_plane(Direction dir, const Complex* in,
                                         std::size_t in_stride, Complex* out,
                                         std::size_t out_stride,
                                         Complex* stage0, Complex* stage1,
                                         std::size_t batch) const {
  PSDNS_REQUIRE(batch >= 1, "batch must be positive");
  if (stages_.empty()) {  // n == 1: the single element of each line
    for (std::size_t b = 0; b < batch; ++b) out[b] = in[b];
    return;
  }
  const bool inverse = dir == Direction::Inverse;
  const StageFn stage_fn = pick_stage_fn();
  const std::size_t nstages = stages_.size();

  const Complex* src = in;      // current stage input
  std::size_t xs = in_stride;   // and its row stride
  if (nstages == 1 && in == out) {
    // A single stage would read and write the same buffer, which the
    // kernels' no-alias contract forbids. Compact the n_ pitched input rows
    // into stage0 first (n_ is one radix here, so this is a handful of
    // short contiguous copies).
    for (std::size_t k = 0; k < n_; ++k) {
      std::copy(in + in_stride * k, in + in_stride * k + batch,
                stage0 + batch * k);
    }
    src = stage0;
    xs = batch;
  }
  Complex* pong[2] = {stage0, stage1};
  int which = 0;
  std::size_t s = batch;
  for (std::size_t i = 0; i < nstages; ++i) {
    const StockhamStage& st = stages_[i];
    const Complex* mat =
        st.mat == kNoMat ? nullptr : radix_mats_[st.mat].data();
    const Complex* tws = twiddle_.data() + st.tw;
    if (i + 1 < nstages) {
      Complex* dst = pong[which];
      stage_fn(st, tws, mat, inverse, s, xs, s, src, dst);
      s *= st.radix;
      src = dst;
      xs = s;
      which ^= 1;
    } else {
      // Final stage: m == 1, so its outputs are r rows of s = batch*(n/r)
      // elements, i.e. n/r runs of `batch` contiguous user elements each.
      // The tail kernel sweeps each run with the x rows at their full
      // stride and the y rows landing directly in the pitched user buffer.
      pick_tail_fn()(st, tws, mat, inverse, batch, n_ / st.radix, xs,
                     out_stride, src, out);
    }
  }
}

}  // namespace psdns::fft
