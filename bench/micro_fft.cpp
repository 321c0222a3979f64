// Host micro-benchmarks of the functional FFT library (google-benchmark):
// the kernels that actually run in the laptop-scale validation path.

#include <benchmark/benchmark.h>

#include <vector>

#include "fft/fft3d.hpp"
#include "fft/plan.hpp"
#include "fft/real.hpp"
#include "gbench_main.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using psdns::fft::BatchLayout;
using psdns::fft::Complex;
using psdns::fft::Direction;
using psdns::fft::Real;

void BM_C2C(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto plan = psdns::fft::get_plan(n);
  psdns::util::Rng rng(1);
  std::vector<Complex> x(n), y(n);
  for (auto& c : x) c = Complex{rng.gaussian(), rng.gaussian()};
  for (auto _ : state) {
    plan->transform(Direction::Forward, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_C2C)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096)->Arg(18432);

void BM_C2C_NonPow2(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto plan = psdns::fft::get_plan(n);
  psdns::util::Rng rng(2);
  std::vector<Complex> x(n), y(n);
  for (auto& c : x) c = Complex{rng.gaussian(), rng.gaussian()};
  for (auto _ : state) {
    plan->transform(Direction::Forward, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_C2C_NonPow2)->Arg(3 * 81)->Arg(5 * 243)->Arg(97);

void BM_R2C(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto plan = psdns::fft::get_plan_r2c(n);
  psdns::util::Rng rng(3);
  std::vector<Real> x(n);
  std::vector<Complex> y(n / 2 + 1);
  for (auto& v : x) v = rng.gaussian();
  for (auto _ : state) {
    plan->forward(x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_R2C)->Arg(64)->Arg(1024)->Arg(18432);

// Batched transforms of a plane of lines: n lines of length n at stride n
// (dist 1), the z-line layout of an n x n plane.
void BM_BatchedLines(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto plan = psdns::fft::get_plan(n);
  psdns::util::Rng rng(6);
  std::vector<Complex> x(n * n);
  for (auto& c : x) c = Complex{rng.gaussian(), rng.gaussian()};
  const BatchLayout layout{.count = n, .stride = n, .dist = 1};
  for (auto _ : state) {
    plan->transform_batch(Direction::Forward, x.data(), x.data(), layout);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_BatchedLines)->Arg(64)->Arg(128)->Arg(256)->Arg(1024);

// Natural-layout real transforms of a plane of lines: n lines of n reals
// (dist n) to their n/2+1 coefficients (dist n/2+1). The real counterpart
// of BM_BatchedLines/n.
void BM_R2CLines(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto plan = psdns::fft::get_plan_r2c(n);
  psdns::util::Rng rng(7);
  std::vector<Real> x(n * n);
  std::vector<Complex> y(n * plan->spectrum_size());
  for (auto& v : x) v = rng.gaussian();
  for (auto _ : state) {
    plan->forward_batch(x.data(), n, y.data(), plan->spectrum_size(), n);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_R2CLines)->Arg(128);

// The round trip's x pass on one plane of an n^3 slab under the 2/3 rule:
// c2r of n spectra that keep the band's W coefficients (44 at n = 128, as
// transpose::SpectralBand::of_radius(n, (n-1)/3)) into the block layout,
// then r2c back, through the block entry points.
void BM_XPassRoundTrip(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto plan = psdns::fft::get_plan_r2c(n);
  const std::size_t w = ((n - 1) / 3 + 2) / 2 * 2;
  psdns::util::Rng rng(8);
  std::vector<Complex> spec(n * w), out(n * w);
  std::vector<Real> phys(n * n);
  for (auto& c : spec) c = Complex{rng.gaussian(), rng.gaussian()};
  for (auto _ : state) {
    plan->inverse_blocks(spec.data(), w, phys.data(), n, w);
    plan->forward_blocks(phys.data(), out.data(), w, n, w);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * n * n));
}
BENCHMARK(BM_XPassRoundTrip)->Arg(128);

// Worker-pool scaling of the batched path: same plane of lines as
// BM_BatchedLines, swept over pool widths. The pool is resized outside the
// timing loop and restored afterwards so the other benches keep running at
// the PSDNS_THREADS-configured width.
void BM_BatchedLinesThreads(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  auto& pool = psdns::util::ThreadPool::global();
  const int prev = pool.threads();
  pool.set_threads(threads);
  const auto plan = psdns::fft::get_plan(n);
  psdns::util::Rng rng(6);
  std::vector<Complex> x(n * n);
  for (auto& c : x) c = Complex{rng.gaussian(), rng.gaussian()};
  const BatchLayout layout{.count = n, .stride = n, .dist = 1};
  for (auto _ : state) {
    plan->transform_batch(Direction::Forward, x.data(), x.data(), layout);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * n));
  pool.set_threads(prev);
}
BENCHMARK(BM_BatchedLinesThreads)
    ->Args({1024, 1})
    ->Args({1024, 2})
    ->Args({1024, 4});

void BM_Fft3dR2C(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  psdns::fft::Shape3 shape{n, n, n};
  psdns::util::Rng rng(5);
  std::vector<Real> x(shape.volume());
  std::vector<Complex> y((n / 2 + 1) * n * n);
  for (auto& v : x) v = rng.gaussian();
  for (auto _ : state) {
    psdns::fft::fft3d_r2c(shape, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(shape.volume()));
}
BENCHMARK(BM_Fft3dR2C)->Arg(16)->Arg(32)->Arg(64);

}  // namespace

int main(int argc, char** argv) {
  return psdns::bench::run_benchmarks_with_report(argc, argv, "micro_fft",
                                                  /*input_seed=*/1);
}
