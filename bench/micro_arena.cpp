// Workspace-arena benchmarks, two reports:
//
//  - BENCH_arena_footprint.json (deterministic): the arena's peak/resident
//    footprint and hit/miss counts after a fixed single-rank DNS workload,
//    next to the Sec. 3.5 memory-model prediction for the same grid. These
//    are pure counting results - machine-independent - so CI gates them
//    strictly, the same way it gates the co-simulation benches.
//
//  - BENCH_micro_arena.json (wall clock): checkout/ensure latencies against
//    the heap-allocation baseline they replace; diffed warn-only.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "comm/communicator.hpp"
#include "dns/spectral_core.hpp"
#include "gbench_main.hpp"
#include "model/memory.hpp"
#include "obs/arena_metrics.hpp"
#include "obs/bench_report.hpp"
#include "util/arena.hpp"

namespace {

using psdns::util::WorkspaceArena;

// --- deterministic footprint report ---

void write_footprint_report() {
  constexpr std::size_t kN = 32;
  constexpr int kSteps = 3;
  psdns::comm::run_ranks(1, [&](psdns::comm::Communicator& comm) {
    psdns::dns::SolverConfig cfg;
    cfg.n = kN;
    cfg.viscosity = 0.02;
    cfg.scheme = psdns::dns::TimeScheme::RK4;
    cfg.forcing.enabled = true;
    cfg.forcing.power = 0.05;
    cfg.scalars.push_back(psdns::dns::ScalarConfig{.schmidt = 0.7,
                                                   .mean_gradient = 1.0});
    psdns::dns::SpectralEngine solver(comm, cfg);
    solver.init_isotropic(7, 3.0, 0.5);
    solver.init_scalar_isotropic(0, 11, 3.0, 0.25);
    for (int s = 0; s < kSteps; ++s) solver.step(1e-3);
  });

  psdns::obs::publish_arena_metrics();
  const WorkspaceArena::Stats st = WorkspaceArena::global().stats();
  const double requests = static_cast<double>(st.hits + st.misses);

  // Sec. 3.5 memory model for the same grid on one node: the arena should
  // hold a modest fraction of it (it carries substage scratch and staging;
  // the state vectors and plan tables live outside).
  const psdns::model::MemoryModel mm;
  const double predicted = mm.host_bytes_per_node(kN, 1);

  psdns::obs::BenchReport report("arena_footprint");
  report.meta("description",
              "workspace-arena footprint after a fixed 32^3 RK4 forced+scalar "
              "DNS workload, vs the Sec. 3.5 host-memory prediction");
  report.metric("alloc.arena.peak_bytes",
                static_cast<double>(st.peak_bytes));
  report.metric("alloc.arena.resident_bytes",
                static_cast<double>(st.resident_bytes));
  report.metric("alloc.arena.misses", static_cast<double>(st.misses));
  report.metric("alloc.arena.hits", static_cast<double>(st.hits));
  report.metric("alloc.arena.hit_rate",
                requests > 0.0 ? static_cast<double>(st.hits) / requests
                               : 0.0);
  report.metric("model.host_bytes_pred", predicted);
  report.metric("model.arena_fraction",
                static_cast<double>(st.peak_bytes) / predicted);
  std::printf("arena peak %.1f MiB, resident %.1f MiB, %lld misses / %lld "
              "hits; Sec. 3.5 prediction %.1f MiB (arena fraction %.2f)\n",
              static_cast<double>(st.peak_bytes) / (1024.0 * 1024.0),
              static_cast<double>(st.resident_bytes) / (1024.0 * 1024.0),
              static_cast<long long>(st.misses),
              static_cast<long long>(st.hits), predicted / (1024.0 * 1024.0),
              static_cast<double>(st.peak_bytes) / predicted);
  std::printf("wrote %s\n", report.write().c_str());
}

// --- wall-clock micro kernels ---

void BM_ArenaCheckout(benchmark::State& state) {
  const std::size_t elems = static_cast<std::size_t>(state.range(0));
  auto& arena = WorkspaceArena::global();
  {
    auto warm = arena.checkout<double>(elems);  // first touch pays the miss
    benchmark::DoNotOptimize(warm.data());
  }
  for (auto _ : state) {
    auto h = arena.checkout<double>(elems);
    benchmark::DoNotOptimize(h.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ArenaCheckout)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void BM_HeapVectorBaseline(benchmark::State& state) {
  // What the hot loops used to do: a fresh value-initialized vector per use.
  const std::size_t elems = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    std::vector<double> v(elems);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HeapVectorBaseline)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void BM_EnsureWarm(benchmark::State& state) {
  // The steady-state fast path: every ensure() after the first is a
  // capacity check.
  WorkspaceArena::Handle<double> h;
  h.ensure(1 << 16);
  for (auto _ : state) {
    h.ensure(1 << 16);
    benchmark::DoNotOptimize(h.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EnsureWarm);

}  // namespace

int main(int argc, char** argv) {
  write_footprint_report();
  return psdns::bench::run_benchmarks_with_report(argc, argv, "micro_arena");
}
