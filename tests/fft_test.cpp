#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <string>
#include <vector>

#include "fft/bluestein.hpp"
#include "fft/dft.hpp"
#include "fft/factor.hpp"
#include "fft/fft3d.hpp"
#include "fft/plan.hpp"
#include "fft/real.hpp"
#include "fft/stockham.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace psdns::fft {
namespace {

std::vector<Complex> random_signal(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Complex> v(n);
  for (auto& c : v) c = Complex{rng.gaussian(), rng.gaussian()};
  return v;
}

double max_abs_diff(const std::vector<Complex>& a,
                    const std::vector<Complex>& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

// dft_reference of the line line[k*stride], k in [0, n), written back to
// the same positions (gathered first, so the update is in place).
void reference_line(Direction dir, std::size_t n, Complex* line,
                    std::size_t stride) {
  std::vector<Complex> x(n), y(n);
  for (std::size_t k = 0; k < n; ++k) x[k] = line[k * stride];
  dft_reference(dir, n, x.data(), y.data());
  for (std::size_t k = 0; k < n; ++k) line[k * stride] = y[k];
}

TEST(Factor, PrimeFactors) {
  EXPECT_EQ(prime_factors(1), std::vector<std::size_t>{});
  EXPECT_EQ(prime_factors(12), (std::vector<std::size_t>{2, 2, 3}));
  EXPECT_EQ(prime_factors(18432),
            (std::vector<std::size_t>{2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 3}));
  EXPECT_EQ(prime_factors(97), std::vector<std::size_t>{97});
}

TEST(Factor, Smoothness) {
  EXPECT_TRUE(is_smooth(18432));
  EXPECT_TRUE(is_smooth(360));
  EXPECT_FALSE(is_smooth(97));
  EXPECT_FALSE(is_smooth(2 * 23));
}

TEST(Factor, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1023), 1024u);
}

// --- parameterized sweep over transform lengths ---

class C2CLength : public ::testing::TestWithParam<std::size_t> {};

TEST_P(C2CLength, MatchesReferenceDft) {
  const std::size_t n = GetParam();
  const auto x = random_signal(n, 100 + n);
  std::vector<Complex> want(n), got(n);
  dft_reference(Direction::Forward, n, x.data(), want.data());
  PlanC2C plan(n);
  plan.transform(Direction::Forward, x.data(), got.data());
  EXPECT_LT(max_abs_diff(want, got), 1e-9 * static_cast<double>(n))
      << "n=" << n;
}

TEST_P(C2CLength, InverseMatchesReferenceDft) {
  const std::size_t n = GetParam();
  const auto x = random_signal(n, 200 + n);
  std::vector<Complex> want(n), got(n);
  dft_reference(Direction::Inverse, n, x.data(), want.data());
  PlanC2C plan(n);
  plan.transform(Direction::Inverse, x.data(), got.data());
  EXPECT_LT(max_abs_diff(want, got), 1e-9 * static_cast<double>(n));
}

TEST_P(C2CLength, RoundTripRecoversInput) {
  const std::size_t n = GetParam();
  const auto x = random_signal(n, 300 + n);
  std::vector<Complex> f(n), back(n);
  PlanC2C plan(n);
  plan.transform(Direction::Forward, x.data(), f.data());
  plan.transform(Direction::Inverse, f.data(), back.data());
  plan.normalize(back.data(), n);
  EXPECT_LT(max_abs_diff(x, back), 1e-10 * static_cast<double>(n));
}

TEST_P(C2CLength, ParsevalHolds) {
  const std::size_t n = GetParam();
  const auto x = random_signal(n, 400 + n);
  std::vector<Complex> f(n);
  PlanC2C plan(n);
  plan.transform(Direction::Forward, x.data(), f.data());
  double phys = 0.0, spec = 0.0;
  for (const auto& c : x) phys += std::norm(c);
  for (const auto& c : f) spec += std::norm(c);
  EXPECT_NEAR(spec, phys * static_cast<double>(n),
              1e-8 * phys * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(
    Lengths, C2CLength,
    ::testing::Values(1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 16, 17, 24, 27, 30, 32,
                      36, 48, 60, 64, 97, 100, 128, 144, 192, 210, 243, 256,
                      360, 512),
    [](const ::testing::TestParamInfo<std::size_t>& pinfo) { return "n" + std::to_string(pinfo.param); });

TEST(C2C, InPlaceTransformAllowed) {
  const std::size_t n = 64;
  auto x = random_signal(n, 1);
  std::vector<Complex> want(n);
  PlanC2C plan(n);
  plan.transform(Direction::Forward, x.data(), want.data());
  plan.transform(Direction::Forward, x.data(), x.data());
  EXPECT_LT(max_abs_diff(want, x), 1e-12);
}

TEST(C2C, SingleFrequencyIsDelta) {
  const std::size_t n = 48;
  std::vector<Complex> x(n), f(n);
  const double k0 = 5.0;
  for (std::size_t j = 0; j < n; ++j) {
    const double phase =
        2.0 * std::numbers::pi * k0 * static_cast<double>(j) / n;
    x[j] = Complex{std::cos(phase), std::sin(phase)};
  }
  PlanC2C plan(n);
  plan.transform(Direction::Forward, x.data(), f.data());
  for (std::size_t k = 0; k < n; ++k) {
    const double want = k == 5 ? static_cast<double>(n) : 0.0;
    EXPECT_NEAR(std::abs(f[k]), want, 1e-9) << "k=" << k;
  }
}

TEST(C2C, StridedMatchesContiguous) {
  // One strided line (a batch of one), out of place, against the
  // reference DFT of the gathered line.
  const std::size_t n = 36, stride = 7;
  const auto x = random_signal(n * stride, 2);
  std::vector<Complex> want(n), got_buf(n * stride, Complex{-1, -1});
  std::vector<Complex> gathered(n);
  for (std::size_t j = 0; j < n; ++j) gathered[j] = x[j * stride];
  dft_reference(Direction::Forward, n, gathered.data(), want.data());
  PlanC2C plan(n);
  plan.transform_batch(Direction::Forward, x.data(), got_buf.data(),
                       BatchLayout{.count = 1, .stride = stride});
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_LT(std::abs(got_buf[k * stride] - want[k]), 1e-12);
  }
}

TEST(C2C, BatchedMatchesLoop) {
  const std::size_t n = 32, count = 5;
  auto x = random_signal(n * count, 3);
  auto want = x;
  PlanC2C plan(n);
  for (std::size_t b = 0; b < count; ++b) {
    plan.transform(Direction::Forward, want.data() + b * n,
                   want.data() + b * n);
  }
  plan.transform_batch(Direction::Forward, x.data(), x.data(),
                       BatchLayout{.count = count, .stride = 1, .dist = n});
  EXPECT_LT(max_abs_diff(want, x), 1e-12);
}

TEST(C2C, BatchedStridedLayout) {
  // Lines of length 16 interleaved with stride 4 (like y-lines in a plane).
  const std::size_t n = 16, stride = 4;
  auto x = random_signal(n * stride, 4);
  auto want = x;
  for (std::size_t b = 0; b < stride; ++b) {
    reference_line(Direction::Forward, n, want.data() + b, stride);
  }
  PlanC2C plan(n);
  plan.transform_batch(Direction::Forward, x.data(), x.data(),
                       BatchLayout{.count = stride, .stride = stride, .dist = 1});
  EXPECT_LT(max_abs_diff(want, x), 1e-12);
}

TEST(C2C, OutStrideWritesAnotherPitchBitwise) {
  // Lines read at one pitch and written at a narrower one equal, bitwise,
  // the same-pitch transform's lines: the plane path (dist 1), the
  // gathered path (dist > 1) and the Bluestein path (n = 23).
  for (const std::size_t n : {16, 24, 23}) {
    const std::size_t count = 6, in_pitch = 9, out_pitch = 6;
    const auto plan = get_plan(n);
    for (const bool plane : {true, false}) {
      // Line b's element k sits at b*dist + k*pitch: interleaved lines
      // (dist 1) or lines n*in_pitch apart.
      const auto layout = [&](std::size_t pitch, std::size_t out) {
        return BatchLayout{.count = count, .stride = pitch,
                           .dist = plane ? 1 : n * in_pitch,
                           .out_stride = out};
      };
      const std::size_t elems = plane ? n * in_pitch : count * n * in_pitch;
      const auto src = random_signal(elems, 50 + n);
      std::vector<Complex> same(elems), narrow(elems, Complex{-1.0, 2.0});
      plan->transform_batch(Direction::Inverse, src.data(), same.data(),
                            layout(in_pitch, 0));
      plan->transform_batch(Direction::Inverse, src.data(), narrow.data(),
                            layout(in_pitch, out_pitch));
      const std::size_t dist = plane ? 1 : n * in_pitch;
      for (std::size_t b = 0; b < count; ++b) {
        for (std::size_t k = 0; k < n; ++k) {
          const Complex& want = same[b * dist + k * in_pitch];
          const Complex& got = narrow[b * dist + k * out_pitch];
          ASSERT_EQ(std::memcmp(&got, &want, sizeof(Complex)), 0)
              << "n=" << n << " plane=" << plane << " line " << b << " k "
              << k;
        }
      }
    }
  }
}

// --- batched Stockham engine ---

// Engine-level check against the naive DFT: every supported radix alone and
// mixed, across batch widths that straddle the blocking boundaries.
TEST(Stockham, MatchesReferenceAcrossRadicesAndBatches) {
  // Pure radices 2/3/4/5/7/11/13/17/19 and mixed smooth sizes (including
  // the paper's 2^a*3^b family, 5- and 7-smooth lengths, and the
  // generic-radix products 55, 91, 133 and 323).
  const std::size_t sizes[] = {1,   2,   3,   4,   5,   7,   8,   9,   11,
                               13,  16,  17,  19,  25,  27,  35,  48,  49,
                               55,  60,  72,  91,  105, 96,  133, 144, 210,
                               243, 323, 360, 512, 576, 1155};
  for (const std::size_t n : sizes) {
    const std::size_t kb = batch_block_lines(n);
    const std::size_t batches[] = {1, kb - 1, kb, kb + 1, 5};
    StockhamEngine engine(n);
    for (const std::size_t batch : batches) {
      std::vector<Complex> data(n * batch), work(n * batch);
      std::vector<std::vector<Complex>> lines(batch);
      util::Rng rng(1000 + n + batch);
      for (std::size_t b = 0; b < batch; ++b) {
        lines[b].resize(n);
        for (std::size_t j = 0; j < n; ++j) {
          lines[b][j] = Complex{rng.gaussian(), rng.gaussian()};
          // Batch-innermost layout: element j of line b at [b + batch*j].
          (engine.prefers_work_input() ? work : data)[b + batch * j] =
              lines[b][j];
        }
      }
      for (const Direction dir : {Direction::Forward, Direction::Inverse}) {
        auto d = data, w = work;
        engine.execute_batch(dir, d.data(), w.data(), batch);
        double scale = 0.0;
        for (std::size_t b = 0; b < batch; ++b) {
          std::vector<Complex> want(n);
          dft_reference(dir, n, lines[b].data(), want.data());
          for (std::size_t k = 0; k < n; ++k) {
            scale = std::max(scale, std::abs(want[k]));
          }
          for (std::size_t k = 0; k < n; ++k) {
            EXPECT_LT(std::abs(d[b + batch * k] - want[k]), 1e-12 * scale)
                << "n=" << n << " batch=" << batch << " b=" << b
                << " k=" << k;
          }
        }
      }
    }
  }
}

TEST(Stockham, BatchedTransformMatchesPerLineStrided) {
  // transform_batch (gather -> batched engine -> scatter) against the
  // reference DFT of each strided line, smooth and Bluestein lengths.
  for (const std::size_t n : {48u, 97u}) {
    const std::size_t kb = batch_block_lines(n);
    for (const std::size_t count : {std::size_t{1}, kb - 1, kb, kb + 1,
                                    std::size_t{7}}) {
      // Lines adjacent in memory (dist 1), elements strided by count: the
      // z-line layout of a plane.
      auto x = random_signal(n * count, 40 + n + count);
      auto want = x;
      for (std::size_t b = 0; b < count; ++b) {
        reference_line(Direction::Forward, n, want.data() + b, count);
      }
      PlanC2C plan(n);
      plan.transform_batch(
          Direction::Forward, x.data(), x.data(),
          BatchLayout{.count = count, .stride = count, .dist = 1});
      double scale = 0.0;
      for (const auto& c : want) scale = std::max(scale, std::abs(c));
      EXPECT_LT(max_abs_diff(want, x), 1e-12 * scale)
          << "n=" << n << " count=" << count;
    }
  }
}

TEST(Stockham, GatherScatterRoundTripLeavesGapsUntouched) {
  // Lines covering only residues 0 and 1 of a stride-4 layout: a
  // forward+inverse round trip must recover the lines and never write the
  // sentinel gaps.
  const std::size_t n = 24, stride = 4, count = 2;
  const Complex sentinel{-7.0, 13.0};
  std::vector<Complex> buf(n * stride, sentinel);
  util::Rng rng(77);
  for (std::size_t b = 0; b < count; ++b) {
    for (std::size_t j = 0; j < n; ++j) {
      buf[b + j * stride] = Complex{rng.gaussian(), rng.gaussian()};
    }
  }
  const auto orig = buf;
  PlanC2C plan(n);
  const BatchLayout layout{.count = count, .stride = stride, .dist = 1};
  plan.transform_batch(Direction::Forward, buf.data(), buf.data(), layout);
  plan.transform_batch(Direction::Inverse, buf.data(), buf.data(), layout);
  for (std::size_t idx = 0; idx < buf.size(); ++idx) {
    if (idx % stride < count) {
      EXPECT_LT(std::abs(buf[idx] / static_cast<double>(n) - orig[idx]),
                1e-12)
          << idx;
    } else {
      EXPECT_EQ(buf[idx], sentinel) << idx;  // gap must be bit-identical
    }
  }
}

TEST(Bluestein, PrimeLengthMatchesReference) {
  for (const std::size_t n : {7u, 23u, 97u, 101u}) {
    const auto x = random_signal(n, 500 + n);
    std::vector<Complex> want(n), got(n);
    dft_reference(Direction::Forward, n, x.data(), want.data());
    BluesteinEngine engine(n);
    engine.execute(Direction::Forward, x.data(), 1, got.data());
    EXPECT_LT(max_abs_diff(want, got), 1e-8) << "n=" << n;
  }
}

TEST(PlanCache, ReturnsSharedInstance) {
  const auto a = get_plan(64);
  const auto b = get_plan(64);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(get_plan(128).get(), a.get());
}

// --- real transforms ---

// Restores the dispatched kernel backend (and with it the documented
// env/CPUID selection order) no matter how the test exits.
class BackendGuard {
 public:
  BackendGuard() : saved_(util::simd::active_backend()) {}
  ~BackendGuard() { util::simd::set_backend(saved_); }

 private:
  util::simd::Backend saved_;
};

class R2CLength : public ::testing::TestWithParam<std::size_t> {};

TEST_P(R2CLength, ForwardMatchesComplexDft) {
  const std::size_t n = GetParam();
  util::Rng rng(600 + n);
  std::vector<Real> x(n);
  for (auto& v : x) v = rng.gaussian();
  std::vector<Complex> full_in(n), want(n);
  for (std::size_t j = 0; j < n; ++j) full_in[j] = Complex{x[j], 0.0};
  dft_reference(Direction::Forward, n, full_in.data(), want.data());

  PlanR2C plan(n);
  std::vector<Complex> got(plan.spectrum_size());
  plan.forward(x.data(), got.data());
  for (std::size_t k = 0; k < plan.spectrum_size(); ++k) {
    EXPECT_LT(std::abs(got[k] - want[k]), 1e-9 * static_cast<double>(n))
        << "n=" << n << " k=" << k;
  }
}

TEST_P(R2CLength, RoundTripScalesByN) {
  const std::size_t n = GetParam();
  util::Rng rng(700 + n);
  std::vector<Real> x(n), back(n);
  for (auto& v : x) v = rng.gaussian();
  PlanR2C plan(n);
  std::vector<Complex> spec(plan.spectrum_size());
  plan.forward(x.data(), spec.data());
  plan.inverse(spec.data(), back.data());
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_NEAR(back[j], x[j] * static_cast<double>(n),
                1e-9 * static_cast<double>(n));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Lengths, R2CLength,
    // 46 = 2*23 and 194 = 2*97: even lengths whose half is not smooth, so
    // they take the full-length (Bluestein) complex plan like odd lengths.
    ::testing::Values(2, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 7, 9, 15,
                      46, 194),
    [](const ::testing::TestParamInfo<std::size_t>& pinfo) { return "n" + std::to_string(pinfo.param); });

TEST(R2C, KeptCountIsBitwiseTheFullSpectrum) {
  // A batched forward keeping `kept` coefficients writes exactly the first
  // `kept` of the full forward, bitwise, and nothing past them; a batched
  // inverse reading `kept` equals, bitwise, the full inverse of the
  // spectrum zeroed from `kept` on. 70 lines span several r2c blocks; the
  // spectra sit at a pitch past spectrum_size(). 46 = 2*23 and 97 take the
  // full-length fallback.
  constexpr std::size_t kLines = 70;
  for (const std::size_t n : {16, 24, 46, 97, 128}) {
    const auto plan = get_plan_r2c(n);
    const std::size_t h = plan->spectrum_size(), pitch = h + 3;
    util::Rng rng(900 + n);
    std::vector<Real> x(kLines * n);
    for (auto& v : x) v = rng.gaussian();
    std::vector<Complex> full(kLines * pitch);
    plan->forward_batch(x.data(), n, full.data(), pitch, kLines);
    for (const std::size_t kept : {std::size_t{1}, h / 2, h - 1, h}) {
      const std::string where =
          "n=" + std::to_string(n) + " kept=" + std::to_string(kept);
      const Complex garbage{-7.0, 3.0};
      std::vector<Complex> got(kLines * pitch, garbage);
      plan->forward_batch(x.data(), n, got.data(), pitch, kLines, kept);
      for (std::size_t b = 0; b < kLines; ++b) {
        for (std::size_t k = 0; k < pitch; ++k) {
          const Complex& want = k < kept ? full[b * pitch + k] : garbage;
          ASSERT_EQ(std::memcmp(&got[b * pitch + k], &want, sizeof(Complex)),
                    0)
              << where << " line " << b << " k " << k;
        }
      }

      std::vector<Complex> zeroed = full;
      for (std::size_t b = 0; b < kLines; ++b) {
        std::fill(zeroed.begin() + static_cast<std::ptrdiff_t>(b * pitch + kept),
                  zeroed.begin() + static_cast<std::ptrdiff_t>((b + 1) * pitch),
                  Complex{0.0, 0.0});
      }
      std::vector<Real> back_kept(kLines * n), back_zeroed(kLines * n);
      plan->inverse_batch(full.data(), pitch, back_kept.data(), n, kLines,
                          kept);
      plan->inverse_batch(zeroed.data(), pitch, back_zeroed.data(), n,
                          kLines);
      ASSERT_EQ(std::memcmp(back_kept.data(), back_zeroed.data(),
                            back_kept.size() * sizeof(Real)),
                0)
          << where;
    }
  }
}

TEST(R2C, NyquistAndMeanAreReal) {
  const std::size_t n = 32;
  util::Rng rng(8);
  std::vector<Real> x(n);
  for (auto& v : x) v = rng.gaussian();
  PlanR2C plan(n);
  std::vector<Complex> spec(plan.spectrum_size());
  plan.forward(x.data(), spec.data());
  EXPECT_NEAR(spec.front().imag(), 0.0, 1e-12);
  EXPECT_NEAR(spec.back().imag(), 0.0, 1e-12);
}

// --- block layout of the real transforms ---

/// Whether PlanR2C(n) runs the half-length engine (and so uses the block
/// layout); other lengths keep the natural layout.
bool has_block_layout(std::size_t n) {
  return n % 2 == 0 && get_plan(n / 2)->stockham() != nullptr;
}

/// Index in PlanR2C's block layout of real x[j] of line l (`count` lines),
/// as real.hpp documents it.
std::size_t block_index(const PlanR2C& plan, std::size_t count,
                        std::size_t l, std::size_t j) {
  const std::size_t n = plan.size();
  if (!has_block_layout(n)) return l * n + j;
  const std::size_t bsz = plan.block_lines();
  const std::size_t b0 = l / bsz * bsz;
  const std::size_t nb = std::min(bsz, count - b0);
  return b0 * n + 2 * ((l - b0) + nb * (j / 2)) + j % 2;
}

TEST(R2C, BlockLayoutIsTheNaturalBatchPermuted) {
  // inverse_blocks writes bitwise the reals inverse_batch writes, at the
  // documented block positions; forward_blocks of the permuted lines
  // writes bitwise forward_batch's coefficients and nothing past `kept`.
  // Lengths: power-of-two and radix-3 halves, odd h (18), an odd length
  // and a Bluestein half (194) on the natural fallback; `kept` odd and
  // even; counts that are not multiples of the block; both backends; 1
  // and 4 pool threads (the block partition does not depend on them).
  auto& pool = util::ThreadPool::global();
  const int prev = pool.threads();
  BackendGuard guard;
  std::vector<util::simd::Backend> backends{util::simd::Backend::Scalar};
  if (util::simd::avx2_supported()) {
    backends.push_back(util::simd::Backend::Avx2);
  }
  for (const auto backend : backends) {
    util::simd::set_backend(backend);
    for (const int threads : {1, 4}) {
      pool.set_threads(threads);
      for (const std::size_t n : {16, 18, 24, 96, 128, 15, 194}) {
        const auto plan = get_plan_r2c(n);
        const std::size_t spec = plan->spectrum_size();
        const std::size_t bsz = plan->block_lines();
        for (const std::size_t count : {std::size_t{1}, std::size_t{3},
                                        bsz + 1, 2 * bsz + 5}) {
          for (const std::size_t kept : {spec, spec - 1, spec / 2 + 1, 1ul}) {
            const std::string where =
                "n=" + std::to_string(n) + " count=" + std::to_string(count) +
                " kept=" + std::to_string(kept) +
                " threads=" + std::to_string(threads) + " backend=" +
                util::simd::to_string(backend);
            const std::size_t pitch = kept + 3;
            util::Rng rng(31 * n + count + kept);
            std::vector<Complex> in(count * pitch);
            for (auto& c : in) c = Complex{rng.gaussian(), rng.gaussian()};

            std::vector<Real> natural(count * n), blocks(count * n, -5.0);
            plan->inverse_batch(in.data(), pitch, natural.data(), n, count,
                                kept);
            plan->inverse_blocks(in.data(), pitch, blocks.data(), count,
                                 kept);
            for (std::size_t l = 0; l < count; ++l) {
              for (std::size_t j = 0; j < n; ++j) {
                const Real got = blocks[block_index(*plan, count, l, j)];
                ASSERT_EQ(std::memcmp(&got, &natural[l * n + j],
                                      sizeof(Real)),
                          0)
                    << where << " inverse line " << l << " x " << j;
              }
            }

            const Complex garbage{-7.0, 3.0};
            std::vector<Complex> want(count * pitch, garbage);
            std::vector<Complex> got(count * pitch, garbage);
            plan->forward_batch(natural.data(), n, want.data(), pitch, count,
                                kept);
            plan->forward_blocks(blocks.data(), got.data(), pitch, count,
                                 kept);
            ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                  got.size() * sizeof(Complex)),
                      0)
                << where << " forward";
            for (std::size_t l = 0; l < count; ++l) {
              ASSERT_EQ(got[l * pitch + kept], garbage) << where;
            }
          }
        }
      }
    }
  }
  pool.set_threads(prev);
}

TEST(R2C, BlockSizeIsAnEvenPowerOfTwoInL1) {
  // 16 KiB per buffer: 16 lines at h = 64, clamped to [2, 64]; every
  // block starts on an even line and divides the c2c block up to h = 512.
  EXPECT_EQ(real_block_lines(64), 16u);
  EXPECT_EQ(real_block_lines(48), 16u);
  EXPECT_EQ(real_block_lines(8), 64u);
  EXPECT_EQ(real_block_lines(1 << 14), 2u);
  for (std::size_t h = 1; h <= 4096; ++h) {
    const std::size_t b = real_block_lines(h);
    ASSERT_EQ(b % 2, 0u) << h;
    ASSERT_EQ(b & (b - 1), 0u) << h;
    if (h <= 512) {
      ASSERT_EQ(batch_block_lines(h) % b, 0u) << h;
    }
  }
  EXPECT_EQ(PlanR2C(128).block_lines(), 16u);
}

/// The c2r pre-step and r2c unravel as the scalar formulas real_kernels.hpp
/// documents, one coefficient of one line at a time. This file is compiled
/// with -ffp-contract=off, like the kernels.
void prestep_reference(const Complex* in, std::size_t in_dist, std::size_t nb,
                       std::size_t h, std::size_t kept, const Complex* omega,
                       Complex* z) {
  const auto coef = [&](std::size_t b, std::size_t k) {
    return k < kept ? in[b * in_dist + k] : Complex{0.0, 0.0};
  };
  for (std::size_t k = 0; k < h; ++k) {
    const Complex wb = std::conj(omega[k]);
    for (std::size_t b = 0; b < nb; ++b) {
      const double xkr = coef(b, k).real(), xki = coef(b, k).imag();
      const double xmr = coef(b, h - k).real(), xmi = -coef(b, h - k).imag();
      const double ar = xkr + xmr, ai = xki + xmi;
      const double dr = xkr - xmr, di = xki - xmi;
      const double br = dr * wb.real() - di * wb.imag();
      const double bi = dr * wb.imag() + di * wb.real();
      z[b + nb * k] = Complex{ar - bi, ai + br};
    }
  }
}

void unravel_reference(const Complex* z, std::size_t nb, std::size_t h,
                       std::size_t kept, const Complex* omega, Complex* out,
                       std::size_t out_dist) {
  for (std::size_t k = 0; k < kept; ++k) {
    const Complex w = omega[k];
    for (std::size_t b = 0; b < nb; ++b) {
      const Complex zk = z[b + nb * (k == h ? 0 : k)];
      const Complex zm = z[b + nb * ((h - k) % h)];
      const double zkr = zk.real(), zki = zk.imag();
      const double zmr = zm.real(), zmi = -zm.imag();
      const double ar = 0.5 * (zkr + zmr), ai = 0.5 * (zki + zmi);
      const double br = 0.5 * (zki - zmi), bi = -0.5 * (zkr - zmr);
      out[b * out_dist + k] = Complex{ar + br * w.real() - bi * w.imag(),
                                      ai + br * w.imag() + bi * w.real()};
    }
  }
}

TEST(R2C, BlockLayoutKernelsAreBitwiseTheScalarFormulasInEveryBackend) {
  // The tiled pre-step and unravel against the one-coefficient-at-a-time
  // formulas: scalar twin and AVX2 instantiation, odd and even line
  // counts, h (with h = 1, the n = 2 case) and `kept`. The inputs include
  // exact zeros of both signs, whose signs the kernels must keep too.
  using KernelPair = std::pair<decltype(&detail::c2r_prestep_scalar),
                               decltype(&detail::r2c_unravel_scalar)>;
  std::vector<std::pair<std::string, KernelPair>> kernels{
      {"scalar", {&detail::c2r_prestep_scalar, &detail::r2c_unravel_scalar}}};
#if defined(PSDNS_HAVE_AVX2)
  if (util::simd::avx2_supported()) {
    kernels.push_back(
        {"avx2", {&detail::c2r_prestep_avx2, &detail::r2c_unravel_avx2}});
  }
#endif
  for (const std::size_t h : {1, 2, 8, 9, 24, 48, 64}) {
    std::vector<Complex> omega(h + 1);
    for (std::size_t k = 0; k <= h; ++k) {
      const double phase =
          -std::numbers::pi * static_cast<double>(k) / static_cast<double>(h);
      omega[k] = Complex{std::cos(phase), std::sin(phase)};
    }
    for (const std::size_t nb : {1, 2, 3, 16, 17}) {
      for (const std::size_t kept : {h + 1, h, h / 2 + 1, std::size_t{1}}) {
        if (kept == 0 || kept > h + 1) continue;
        const std::size_t pitch = kept + 1;
        util::Rng rng(h * 100 + nb * 7 + kept);
        std::vector<Complex> spec(nb * pitch), z(nb * h);
        for (auto& c : spec) c = Complex{rng.gaussian(), rng.gaussian()};
        for (auto& c : z) c = Complex{rng.gaussian(), rng.gaussian()};
        for (std::size_t i = 0; i < spec.size(); i += 5) spec[i] = {0.0, -0.0};
        for (std::size_t i = 0; i < z.size(); i += 5) z[i] = {-0.0, 0.0};
        std::vector<Complex> zwant(nb * h), xwant(nb * pitch, {9.0, 9.0});
        prestep_reference(spec.data(), pitch, nb, h, kept, omega.data(),
                          zwant.data());
        unravel_reference(z.data(), nb, h, kept, omega.data(), xwant.data(),
                          pitch);
        for (const auto& [name, fns] : kernels) {
          const std::string where = name + " h=" + std::to_string(h) +
                                    " nb=" + std::to_string(nb) +
                                    " kept=" + std::to_string(kept);
          std::vector<Complex> zgot(nb * h), xgot(nb * pitch, {9.0, 9.0});
          fns.first(spec.data(), pitch, nb, h, kept, omega.data(),
                    zgot.data());
          fns.second(z.data(), nb, h, kept, omega.data(), xgot.data(), pitch);
          EXPECT_EQ(std::memcmp(zgot.data(), zwant.data(),
                                zgot.size() * sizeof(Complex)),
                    0)
              << where << " pre-step";
          EXPECT_EQ(std::memcmp(xgot.data(), xwant.data(),
                                xgot.size() * sizeof(Complex)),
                    0)
              << where << " unravel";
        }
      }
    }
  }
}

// --- 3-D transforms ---

TEST(Fft3d, C2CRoundTrip) {
  const Shape3 shape{6, 4, 8};
  auto x = random_signal(shape.volume(), 10);
  auto data = x;
  fft3d_c2c(Direction::Forward, shape, data.data());
  fft3d_c2c(Direction::Inverse, shape, data.data());
  const double scale = static_cast<double>(shape.volume());
  double err = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    err = std::max(err, std::abs(data[i] / scale - x[i]));
  }
  EXPECT_LT(err, 1e-11);
}

TEST(Fft3d, C2CSingleModeIsDelta) {
  const Shape3 shape{8, 8, 8};
  std::vector<Complex> data(shape.volume());
  const int kx = 2, ky = 3, kz = 1;
  for (std::size_t k = 0; k < shape.nz; ++k) {
    for (std::size_t j = 0; j < shape.ny; ++j) {
      for (std::size_t i = 0; i < shape.nx; ++i) {
        const double phase =
            2.0 * std::numbers::pi *
            (kx * static_cast<double>(i) / shape.nx +
             ky * static_cast<double>(j) / shape.ny +
             kz * static_cast<double>(k) / shape.nz);
        data[i + shape.nx * (j + shape.ny * k)] =
            Complex{std::cos(phase), std::sin(phase)};
      }
    }
  }
  fft3d_c2c(Direction::Forward, shape, data.data());
  const std::size_t peak = kx + shape.nx * (ky + shape.ny * kz);
  for (std::size_t idx = 0; idx < data.size(); ++idx) {
    const double want =
        idx == peak ? static_cast<double>(shape.volume()) : 0.0;
    EXPECT_NEAR(std::abs(data[idx]), want, 1e-8);
  }
}

TEST(Fft3d, R2CRoundTrip) {
  const Shape3 shape{16, 6, 10};
  util::Rng rng(11);
  std::vector<Real> x(shape.volume());
  for (auto& v : x) v = rng.gaussian();
  std::vector<Complex> spec((shape.nx / 2 + 1) * shape.ny * shape.nz);
  std::vector<Real> back(shape.volume());
  fft3d_r2c(shape, x.data(), spec.data());
  fft3d_c2r(shape, spec.data(), back.data());
  const double scale = static_cast<double>(shape.volume());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(back[i] / scale, x[i], 1e-11);
  }
}

TEST(Fft3d, R2CMatchesC2COnRealInput) {
  const Shape3 shape{8, 4, 6};
  util::Rng rng(12);
  std::vector<Real> x(shape.volume());
  for (auto& v : x) v = rng.gaussian();
  std::vector<Complex> full(shape.volume());
  for (std::size_t i = 0; i < x.size(); ++i) full[i] = Complex{x[i], 0.0};
  fft3d_c2c(Direction::Forward, shape, full.data());

  const std::size_t nxh = shape.nx / 2 + 1;
  std::vector<Complex> spec(nxh * shape.ny * shape.nz);
  fft3d_r2c(shape, x.data(), spec.data());
  for (std::size_t k = 0; k < shape.nz; ++k) {
    for (std::size_t j = 0; j < shape.ny; ++j) {
      for (std::size_t i = 0; i < nxh; ++i) {
        EXPECT_LT(std::abs(spec[i + nxh * (j + shape.ny * k)] -
                           full[i + shape.nx * (j + shape.ny * k)]),
                  1e-9);
      }
    }
  }
}

// Batched 3-D transforms against the reference DFT taken line by line in
// x, y and z, and the r2c -> c2r identity.
class Fft3dBatched : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Fft3dBatched, R2CMatchesPerLinePathAndRoundTrips) {
  const std::size_t n = GetParam();
  const Shape3 shape{n, n, n};
  const std::size_t nxh = n / 2 + 1;
  util::Rng rng(5000 + n);
  std::vector<Real> x(shape.volume());
  for (auto& v : x) v = rng.gaussian();

  // Reference: DFT of each real x line (first nxh coefficients), then of
  // each strided y and z line.
  std::vector<Complex> want(nxh * n * n);
  std::vector<Complex> xline(n), xspec(n);
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t j = 0; j < n; ++j) {
      const Real* src = x.data() + n * (j + n * k);
      for (std::size_t i = 0; i < n; ++i) xline[i] = Complex{src[i], 0.0};
      dft_reference(Direction::Forward, n, xline.data(), xspec.data());
      std::copy(xspec.begin(), xspec.begin() + static_cast<std::ptrdiff_t>(nxh),
                want.begin() + static_cast<std::ptrdiff_t>(nxh * (j + n * k)));
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < nxh; ++i) {
      reference_line(Direction::Forward, n, want.data() + i + nxh * n * k,
                     nxh);
    }
  }
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < nxh; ++i) {
      reference_line(Direction::Forward, n, want.data() + i + nxh * j,
                     nxh * n);
    }
  }

  std::vector<Complex> got(nxh * n * n);
  fft3d_r2c(shape, x.data(), got.data());
  double scale = 0.0;
  for (const auto& c : want) scale = std::max(scale, std::abs(c));
  EXPECT_LT(max_abs_diff(want, got), 1e-12 * scale) << "n=" << n;

  // c2r(r2c(x)) == volume * x to the same relative tolerance.
  std::vector<Real> back(shape.volume());
  fft3d_c2r(shape, got.data(), back.data());
  const double vol = static_cast<double>(shape.volume());
  double err = 0.0, ref = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    err = std::max(err, std::abs(back[i] / vol - x[i]));
    ref = std::max(ref, std::abs(x[i]));
  }
  EXPECT_LT(err, 1e-12 * ref * vol) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, Fft3dBatched,
                         ::testing::Values(16, 24, 32),
                         [](const ::testing::TestParamInfo<std::size_t>& pinfo) {
                           return "n" + std::to_string(pinfo.param);
                         });

// --- SIMD backend dispatch ---

// Runs a batched transform of `count` lines of length n under the given
// backend; plane layout (dist 1) to cover the fused gather-free path, and
// both directions to cover the inverse butterflies.
std::vector<Complex> batch_under_backend(util::simd::Backend backend,
                                         std::size_t n, std::size_t count,
                                         Direction dir) {
  util::simd::set_backend(backend);
  auto x = random_signal(n * count, 77);
  PlanC2C plan(n);
  plan.transform_batch(dir, x.data(), x.data(),
                       BatchLayout{.count = count, .stride = count, .dist = 1});
  return x;
}

TEST(Simd, BackendsAgreeAcrossRadicesAndBatches) {
  if (!util::simd::avx2_supported()) {
    GTEST_SKIP() << "no AVX2+FMA kernel on this build/CPU";
  }
  BackendGuard guard;
  // Lengths hit every dedicated butterfly (2/3/4), the generic direct-prime
  // rows (5, 7, 11), mixed schedules, and the Bluestein fallback (97, 101);
  // counts 1 and odd values exercise the scalar remainder tail of every
  // AVX2 sweep plus blocking-boundary block shapes.
  const std::size_t lengths[] = {2, 3, 4, 5, 7, 8, 9, 11, 12, 16, 25,
                                 27, 49, 60, 64, 97, 101, 121, 210, 256};
  const std::size_t counts[] = {1, 3, 7, 13, 33};
  for (const std::size_t n : lengths) {
    for (const std::size_t count : counts) {
      for (const Direction dir : {Direction::Forward, Direction::Inverse}) {
        const auto scalar =
            batch_under_backend(util::simd::Backend::Scalar, n, count, dir);
        const auto avx2 =
            batch_under_backend(util::simd::Backend::Avx2, n, count, dir);
        double scale = 1.0;
        for (const auto& c : scalar) scale = std::max(scale, std::abs(c));
        EXPECT_LT(max_abs_diff(scalar, avx2), 1e-12 * scale)
            << "n=" << n << " count=" << count
            << " dir=" << (dir == Direction::Forward ? "fwd" : "inv");
      }
    }
  }
}

TEST(Simd, BackendsAgreeOnReal3d) {
  if (!util::simd::avx2_supported()) {
    GTEST_SKIP() << "no AVX2+FMA kernel on this build/CPU";
  }
  BackendGuard guard;
  const std::size_t n = 24;
  const Shape3 shape{n, n, n};
  util::Rng rng(5);
  std::vector<Real> x(shape.volume());
  for (auto& v : x) v = rng.gaussian();
  std::vector<Complex> a((n / 2 + 1) * n * n), b(a.size());
  util::simd::set_backend(util::simd::Backend::Scalar);
  fft3d_r2c(shape, x.data(), a.data());
  util::simd::set_backend(util::simd::Backend::Avx2);
  fft3d_r2c(shape, x.data(), b.data());
  double scale = 0.0;
  for (const auto& c : a) scale = std::max(scale, std::abs(c));
  EXPECT_LT(max_abs_diff(a, b), 1e-12 * scale);
}

// --- worker-pool determinism ---

// The block partition and stripe->thread binding are pure functions of the
// loop bounds, so a pooled run must be bitwise identical to the inline one.
TEST(ThreadedBatch, PooledTransformsBitwiseMatchInline) {
  auto& pool = util::ThreadPool::global();
  const int prev = pool.threads();
  const std::size_t n = 64;
  const auto x = random_signal(n * n, 11);
  PlanC2C plan(n);
  const BatchLayout layout{.count = n, .stride = n, .dist = 1};

  pool.set_threads(1);
  auto inline_out = x;
  plan.transform_batch(Direction::Forward, inline_out.data(),
                       inline_out.data(), layout);
  pool.set_threads(4);
  auto pooled_out = x;
  plan.transform_batch(Direction::Forward, pooled_out.data(),
                       pooled_out.data(), layout);
  pool.set_threads(prev);

  for (std::size_t i = 0; i < inline_out.size(); ++i) {
    ASSERT_EQ(inline_out[i], pooled_out[i]) << "i=" << i;
  }
}

TEST(ThreadedBatch, PooledReal3dBitwiseMatchesInline) {
  auto& pool = util::ThreadPool::global();
  const int prev = pool.threads();
  const std::size_t n = 32;
  const Shape3 shape{n, n, n};
  util::Rng rng(9);
  std::vector<Real> x(shape.volume());
  for (auto& v : x) v = rng.gaussian();
  std::vector<Complex> a((n / 2 + 1) * n * n), b(a.size());

  pool.set_threads(1);
  fft3d_r2c(shape, x.data(), a.data());
  pool.set_threads(4);
  fft3d_r2c(shape, x.data(), b.data());
  pool.set_threads(prev);

  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "i=" << i;
  }
}

}  // namespace
}  // namespace psdns::fft
