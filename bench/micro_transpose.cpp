// Host micro-benchmarks of the functional distributed pieces: pack/unpack
// strided copies, the slab transpose, the full distributed FFT, and one DNS
// step (threads as ranks).

#include <benchmark/benchmark.h>

#include <vector>

#include "comm/communicator.hpp"
#include "dns/spectral_core.hpp"
#include "gbench_main.hpp"
#include "gpu/copy.hpp"
#include "transpose/dist_fft.hpp"
#include "transpose/slab.hpp"
#include "util/rng.hpp"

namespace {

using psdns::fft::Complex;
using psdns::fft::Real;

void BM_Memcpy2d(benchmark::State& state) {
  // The pencil H2D shape: rows of `width` contiguous complex elements.
  const std::size_t width = static_cast<std::size_t>(state.range(0));
  const std::size_t rows = 1 << 14;
  const std::size_t pitch = width * 4;
  std::vector<Complex> src(pitch * rows), dst(width * rows);
  for (auto _ : state) {
    psdns::gpu::memcpy2d(dst.data(), width, src.data(), pitch, width, rows);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(width * rows *
                                                    sizeof(Complex)));
}
BENCHMARK(BM_Memcpy2d)->Arg(8)->Arg(64)->Arg(512);

void BM_PackZ(benchmark::State& state) {
  const std::size_t n = 64;
  psdns::comm::run_ranks(1, [&](psdns::comm::Communicator& comm) {
    psdns::transpose::SlabGrid grid{n / 2 + 1, n, n, 1};
    psdns::transpose::SlabTranspose tp(comm, grid);
    std::vector<Complex> slab(grid.zslab_elems());
    psdns::util::Rng rng(1);
    for (auto& c : slab) c = Complex{rng.gaussian(), rng.gaussian()};
    std::vector<Complex> send(tp.block_elems(grid.nxh, 1));
    const Complex* p = slab.data();
    for (auto _ : state) {
      tp.pack_z(std::span<const Complex* const>(&p, 1), 0, grid.nxh, send);
      benchmark::DoNotOptimize(send.data());
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(send.size() *
                                                      sizeof(Complex)));
  });
}
BENCHMARK(BM_PackZ);

void BM_SlabFftForward(benchmark::State& state) {
  // The benchmark loop must run on one thread; each iteration spins up the
  // rank group and performs a fixed number of transforms.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const int ranks = static_cast<int>(state.range(1));
  constexpr int kTransformsPerIteration = 4;
  for (auto _ : state) {
    psdns::comm::run_ranks(ranks, [&](psdns::comm::Communicator& comm) {
      psdns::transpose::SlabFft3d fft3(comm, n);
      psdns::util::Rng rng(2, static_cast<std::uint64_t>(comm.rank()));
      std::vector<Real> phys(fft3.physical_elems());
      for (auto& v : phys) v = rng.gaussian();
      std::vector<Complex> spec(fft3.spectral_elems());
      for (int i = 0; i < kTransformsPerIteration; ++i) {
        fft3.forward(phys, spec);
        benchmark::DoNotOptimize(spec.data());
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * kTransformsPerIteration *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_SlabFftForward)
    ->Args({32, 1})
    ->Args({32, 4})
    ->Args({64, 2})
    ->Unit(benchmark::kMillisecond);

void BM_DnsStep(benchmark::State& state) {
  // One warmed step() of a 2-rank slab solver, in wall time. The solver is
  // built and warmed once; the benchmark loop runs on rank 0 and broadcasts
  // each go/stop decision, so every rank steps in lockstep and neither
  // construction nor the initial condition is timed.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  psdns::comm::run_ranks(2, [&](psdns::comm::Communicator& comm) {
    psdns::dns::SolverConfig cfg;
    cfg.n = n;
    cfg.viscosity = 0.02;
    psdns::dns::SpectralEngine solver(comm, cfg);
    solver.init_isotropic(1, 3.0, 0.5);
    for (int i = 0; i < 2; ++i) solver.step(1e-3);
    for (;;) {
      int go = comm.rank() == 0 && state.KeepRunning() ? 1 : 0;
      comm.broadcast(&go, 1, 0);
      if (go == 0) break;
      solver.step(1e-3);
    }
  });
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_DnsStep)->Arg(32)->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return psdns::bench::run_benchmarks_with_report(
      argc, argv, "micro_transpose", /*input_seed=*/1);
}
