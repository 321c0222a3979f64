// Heap-allocation regression tests for the zero-allocation steady state:
// after a warm-up step has grown every workspace-arena handle, registry
// key and thread-local scratch buffer, SpectralEngine::step() must not
// touch the heap at all - no operator new/delete on any rank thread, and
// no workspace-arena misses (the arena allocates through aligned_alloc,
// which the new/delete overrides below cannot see, so the miss counter is
// asserted separately).
//
// The overrides count only while a thread opts in via t_track, so gtest
// bookkeeping and warm-up allocations stay invisible. This file must not
// be built under ASan/LSan (replacing global new/delete defeats the
// interceptors); the sanitizer CI job excludes it.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "comm/communicator.hpp"
#include "dns/spectral_core.hpp"
#include "fft/plan.hpp"
#include "obs/arena_metrics.hpp"
#include "obs/registry.hpp"
#include "transpose/dist_fft.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

std::atomic<long> g_news{0};
std::atomic<long> g_deletes{0};
thread_local bool t_track = false;

void* tracked_alloc(std::size_t size, std::size_t align) {
  if (t_track) g_news.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = nullptr;
  if (align > alignof(std::max_align_t)) {
    const std::size_t rounded = (size + align - 1) / align * align;
    p = std::aligned_alloc(align, rounded);
  } else {
    p = std::malloc(size);
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void tracked_free(void* p) noexcept {
  if (p == nullptr) return;
  if (t_track) g_deletes.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) { return tracked_alloc(size, 0); }
void* operator new[](std::size_t size) { return tracked_alloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return tracked_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return tracked_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { tracked_free(p); }
void operator delete[](void* p) noexcept { tracked_free(p); }
void operator delete(void* p, std::size_t) noexcept { tracked_free(p); }
void operator delete[](void* p, std::size_t) noexcept { tracked_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { tracked_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept {
  tracked_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  tracked_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  tracked_free(p);
}

namespace psdns::dns {
namespace {

struct StepDeltas {
  long news = 0;
  long deletes = 0;
  std::int64_t arena_misses = 0;
};

/// Warms the solver up with two untracked steps, then runs `steps` tracked
/// steps and reports the allocation/miss deltas. Collective: every rank
/// must call it in lockstep.
template <class Solver>
StepDeltas tracked_steps(Solver& solver, comm::Communicator& comm, int steps,
                         double dt) {
  solver.step(dt);
  solver.step(dt);
  comm.barrier();
  const auto arena_before = util::WorkspaceArena::global().stats();
  const long n0 = g_news.load();
  const long d0 = g_deletes.load();
  t_track = true;
  for (int i = 0; i < steps; ++i) solver.step(dt);
  t_track = false;
  comm.barrier();
  const auto arena_after = util::WorkspaceArena::global().stats();
  return {g_news.load() - n0, g_deletes.load() - d0,
          static_cast<std::int64_t>(arena_after.misses -
                                    arena_before.misses)};
}

TEST(AllocFree, SlabRk2SingleRank) {
  comm::run_ranks(1, [](comm::Communicator& comm) {
    SolverConfig config;
    config.n = 16;
    config.viscosity = 0.02;
    SpectralEngine solver(comm, config);
    solver.init_taylor_green();
    const StepDeltas d = tracked_steps(solver, comm, 4, 1e-3);
    EXPECT_EQ(d.news, 0);
    EXPECT_EQ(d.deletes, 0);
    EXPECT_EQ(d.arena_misses, 0);
  });
}

TEST(AllocFree, SlabRk4ForcedScalarPhaseShiftTwoRanks) {
  comm::run_ranks(2, [](comm::Communicator& comm) {
    SolverConfig config;
    config.n = 16;
    config.viscosity = 0.02;
    config.scheme = TimeScheme::RK4;
    config.phase_shift_dealias = true;
    config.forcing.enabled = true;
    config.forcing.power = 0.05;
    config.scalars.push_back(ScalarConfig{.schmidt = 0.7,
                                          .mean_gradient = 1.0});
    SpectralEngine solver(comm, config);
    solver.init_isotropic(7, 3.0, 0.5);
    solver.init_scalar_isotropic(0, 11, 3.0, 0.25);
    const StepDeltas d = tracked_steps(solver, comm, 3, 1e-3);
    EXPECT_EQ(d.news, 0);
    EXPECT_EQ(d.deletes, 0);
    EXPECT_EQ(d.arena_misses, 0);
  });
}

TEST(AllocFree, SlabMhdRk4TwoRanks) {
  // MHD doubles the field set (3 induction components) and forms 9
  // Elsasser products per substage; all of it must come out of the arena
  // blocks checked out at construction.
  comm::run_ranks(2, [](comm::Communicator& comm) {
    SolverConfig config;
    config.n = 16;
    config.viscosity = 0.02;
    config.scheme = TimeScheme::RK4;
    config.system = SystemType::Mhd;
    SpectralEngine solver(comm, config);
    solver.init_isotropic(7, 3.0, 0.5);
    solver.init_magnetic_isotropic(9, 3.0, 0.25);
    solver.set_uniform_magnetic_field({0.0, 0.0, 0.5});
    const StepDeltas d = tracked_steps(solver, comm, 3, 1e-3);
    EXPECT_EQ(d.news, 0);
    EXPECT_EQ(d.deletes, 0);
    EXPECT_EQ(d.arena_misses, 0);
  });
}

TEST(AllocFree, PencilRk4ForcedFourRanks) {
  comm::run_ranks(4, [](comm::Communicator& comm) {
    SolverConfig config;
    config.n = 16;
    config.decomposition = transpose::Decomposition::Pencil;  // 2x2
    config.viscosity = 0.02;
    config.scheme = TimeScheme::RK4;
    config.forcing.enabled = true;
    config.forcing.power = 0.05;
    SpectralEngine solver(comm, config);
    solver.init_isotropic(7, 3.0, 0.5);
    const StepDeltas d = tracked_steps(solver, comm, 3, 1e-3);
    EXPECT_EQ(d.news, 0);
    EXPECT_EQ(d.deletes, 0);
    EXPECT_EQ(d.arena_misses, 0);
  });
}

// The two systems below reach the per-axis propagator tables through
// overrides: RotatingNS through its base call ahead of the Coriolis
// rotation (here on a pencil view, whose loop dimensions are permuted), and
// Boussinesq with a buoyancy scalar whose diffusivity differs from the
// velocity's. The tables may grow during warm-up, never in a warmed step.
TEST(AllocFree, PencilRotatingRk2TwoRanks) {
  comm::run_ranks(2, [](comm::Communicator& comm) {
    SolverConfig config;
    config.n = 16;
    config.decomposition = transpose::Decomposition::Pencil;  // 1x2
    config.viscosity = 0.02;
    config.system = SystemType::RotatingNS;
    config.rotation_omega = 2.0;
    SpectralEngine solver(comm, config);
    solver.init_isotropic(7, 3.0, 0.5);
    const StepDeltas d = tracked_steps(solver, comm, 3, 1e-3);
    EXPECT_EQ(d.news, 0);
    EXPECT_EQ(d.deletes, 0);
    EXPECT_EQ(d.arena_misses, 0);
  });
}

TEST(AllocFree, SlabBoussinesqRk2SingleRank) {
  comm::run_ranks(1, [](comm::Communicator& comm) {
    SolverConfig config;
    config.n = 16;
    config.viscosity = 0.02;
    config.system = SystemType::Boussinesq;
    config.brunt_vaisala = 1.5;
    config.scalars.push_back(ScalarConfig{.schmidt = 0.7,
                                          .mean_gradient = 0.0});
    SpectralEngine solver(comm, config);
    solver.init_isotropic(7, 3.0, 0.5);
    solver.init_scalar_isotropic(0, 11, 3.0, 0.25);
    const StepDeltas d = tracked_steps(solver, comm, 3, 1e-3);
    EXPECT_EQ(d.news, 0);
    EXPECT_EQ(d.deletes, 0);
    EXPECT_EQ(d.arena_misses, 0);
  });
}

TEST(AllocFree, SlabRk2PooledFourThreads) {
  // The worker pool's static striping warms each pool thread's arena
  // scratch during the untracked steps; the tracked steps then opt every
  // pool thread into the new/delete counters, so a single stray allocation
  // on any worker fails the test. Job submission itself must also be
  // allocation-free (fixed ring, function pointer + context).
  auto& pool = util::ThreadPool::global();
  const int prev = pool.threads();
  pool.set_threads(4);
  comm::run_ranks(1, [&](comm::Communicator& comm) {
    SolverConfig config;
    config.n = 32;  // big enough for several blocks per batched loop
    config.viscosity = 0.02;
    SpectralEngine solver(comm, config);
    solver.init_taylor_green();
    solver.step(1e-3);
    solver.step(1e-3);
    comm.barrier();
    const auto arena_before = util::WorkspaceArena::global().stats();
    const long n0 = g_news.load();
    const long d0 = g_deletes.load();
    pool.for_each_thread([](std::size_t) { t_track = true; });
    for (int i = 0; i < 3; ++i) solver.step(1e-3);
    pool.for_each_thread([](std::size_t) { t_track = false; });
    comm.barrier();
    const auto arena_after = util::WorkspaceArena::global().stats();
    EXPECT_EQ(g_news.load() - n0, 0);
    EXPECT_EQ(g_deletes.load() - d0, 0);
    EXPECT_EQ(arena_after.misses - arena_before.misses, 0u);
  });
  pool.set_threads(prev);
}

TEST(AllocFree, WarmedBluesteinBatchTouchesNoHeap) {
  // 97 is prime, so every line runs Bluestein's chirp-z convolution; its
  // buffers are per-thread arena handles, grown by the untracked warm-up.
  const std::size_t n = 97, count = 8;
  const auto plan = fft::get_plan(n);
  std::vector<fft::Complex> data(n * count);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = fft::Complex{static_cast<double>(i % 13), 1.0};
  }
  const fft::BatchLayout lines{.count = count, .stride = count, .dist = 1};
  plan->transform_batch(fft::Direction::Forward, data.data(), data.data(),
                        lines);
  const auto arena_before = util::WorkspaceArena::global().stats();
  const long n0 = g_news.load();
  const long d0 = g_deletes.load();
  t_track = true;
  plan->transform_batch(fft::Direction::Forward, data.data(), data.data(),
                        lines);
  plan->transform_batch(fft::Direction::Inverse, data.data(), data.data(),
                        lines);
  t_track = false;
  const auto arena_after = util::WorkspaceArena::global().stats();
  EXPECT_EQ(g_news.load() - n0, 0);
  EXPECT_EQ(g_deletes.load() - d0, 0);
  EXPECT_EQ(arena_after.misses - arena_before.misses, 0u);
}

/// The engine's named blocks: one RK stage, the product spectra (never
/// less than three physical fields, which the initial conditions and
/// statistics borrow them for), and RK4's k1..k3. Every RHS, the last one
/// of each scheme included, lands over its own products, and the
/// phase-shifted inputs are round-tripped from the product spectra too, so
/// RK2 holds no stage-RHS block and phase shifting no shifted copy. The
/// engine holds no physical-space block: the products are formed inside
/// the backend's round trip.
std::size_t engine_scratch_bytes(const SolverConfig& config,
                                 const SpectralEngine& engine,
                                 const transpose::DistFft3d& fft) {
  const std::size_t nf = engine.field_count();
  const std::size_t nprod = engine.system().product_count();
  const std::size_t field = fft.spectral_elems() * sizeof(Complex);
  const std::size_t phys = fft.physical_elems() * sizeof(Real);
  const auto bucket = util::WorkspaceArena::bucket_bytes;
  std::size_t expected =
      bucket(nf * field) +                          // stage_
      bucket(std::max(nprod * field, 3 * phys));    // prod_hat_
  if (config.scheme == TimeScheme::RK4) {
    expected += bucket(3 * nf * field);             // k_
  }
  return expected;
}

/// The backend is built first, so only the engine constructor's checkouts
/// land in the measured delta.
void expect_engine_scratch(const SolverConfig& config) {
  comm::run_ranks(1, [&](comm::Communicator& comm) {
    auto fft = transpose::make_dist_fft(comm, config.n, config.decomposition);
    auto& arena = util::WorkspaceArena::global();
    const std::size_t before = arena.stats().outstanding_bytes;
    SpectralEngine engine(comm, *fft, config);
    const std::size_t checked_out = arena.stats().outstanding_bytes - before;
    EXPECT_EQ(checked_out, engine_scratch_bytes(config, engine, *fft));
  });
}

/// Everything a warmed step holds, engine plus backend, on every rank: the
/// engine's named blocks; the backend's slab scratch (max(nf, nprod)
/// slabs of the 2/3 band's W columns, W·n·max(my, mz) elements each: the
/// round trip parks the inputs' Z-slabs in its outputs) or
/// spectral X-pencils (max(nf, nprod), plus one Y-pencil; the inputs'
/// Z-pencil scratch is an output); the round trip's group scratch of
/// nf + nprod physical fields over one group of x-lines; and this rank
/// thread's FFT staging: the x pass's one engine staging buffer of
/// real_block_lines(n/2) lines (the round trip's x passes transform in the
/// group scratch itself), and the c2c batch's ping-pong pair. The state
/// is restored from spectra, not initialized through a natural-layout
/// forward (which would check out a second r2c buffer for its block). A
/// full-size physical block anywhere would break the sum.
void expect_warmed_step_scratch(const SolverConfig& config, int ranks) {
  std::size_t before = 0, after = 0, expected = 0;
  auto& arena = util::WorkspaceArena::global();
  comm::run_ranks(ranks, [&](comm::Communicator& comm) {
    comm.barrier();
    if (comm.rank() == 0) before = arena.stats().outstanding_bytes;
    comm.barrier();
    auto fft = transpose::make_dist_fft(comm, config.n, config.decomposition);
    SpectralEngine engine(comm, *fft, config);
    {
      util::Rng rng(7, static_cast<std::uint64_t>(comm.rank()));
      const std::size_t modes = engine.modes().local_modes();
      std::vector<std::vector<Complex>> fields(
          engine.field_count(), std::vector<Complex>(modes));
      std::vector<const Complex*> ptrs;
      for (auto& field : fields) {
        for (auto& c : field) {
          c = 1e-2 * Complex{rng.gaussian(), rng.gaussian()};
        }
        ptrs.push_back(field.data());
      }
      engine.restore(ptrs, 0.0, 0);
    }
    engine.step(1e-3);
    engine.step(1e-3);
    comm.barrier();
    if (comm.rank() == 0) {
      after = arena.stats().outstanding_bytes;
      const std::size_t n = config.n;
      const std::size_t h = n / 2 + 1;
      const std::size_t nf = engine.field_count();
      const std::size_t nprod = engine.system().product_count();
      const auto bucket = util::WorkspaceArena::bucket_bytes;
      std::size_t backend = 0, lines = 0, plane_lines = 1;
      if (const auto* slab = dynamic_cast<transpose::SlabFft3d*>(fft.get())) {
        const std::size_t w =  // 6 of the 9 kx columns at n = 16
            transpose::SpectralBand::of_radius(n, (n - 1) / 3).width;
        backend = std::max(nf, nprod) *
                  bucket(w * n * std::max(slab->my(), slab->mz()) *
                         sizeof(Complex));
        lines = n * slab->my();
        plane_lines = n;
      } else {
        const auto& pencil = dynamic_cast<transpose::PencilFft3d&>(*fft);
        const auto& g = pencil.grid();
        backend = std::max(nf, nprod) *
                      bucket(h * g.yl() * g.zl() * sizeof(Complex)) +
                  bucket(n * pencil.x_range().width() * g.zl() *
                         sizeof(Complex));
        lines = g.yl() * g.zl();
      }
      const std::size_t group =
          std::min(transpose::round_trip_group_lines(n, plane_lines), lines);
      const std::size_t staging =
          bucket(fft::real_block_lines(n / 2) * (n / 2) * sizeof(Complex)) +
          bucket(2 * fft::batch_block_lines(n) * n * sizeof(Complex));
      expected = engine_scratch_bytes(config, engine, *fft) + backend +
                 bucket((nf + nprod) * group * n * sizeof(Real)) + staging;
    }
    comm.barrier();
  });
  EXPECT_EQ(after - before, static_cast<std::size_t>(ranks) * expected);
}

TEST(WarmedStepScratch, SlabNavierStokesHoldsNoPhysicalField) {
  SolverConfig config;
  config.n = 16;
  expect_warmed_step_scratch(config, 1);
}

TEST(WarmedStepScratch, SlabNavierStokes64HoldsOneL1SizedStagingBuffer) {
  // At n = 64 the x pass's block (32 lines) is smaller than the c2c one.
  SolverConfig config;
  config.n = 64;
  expect_warmed_step_scratch(config, 1);
}

TEST(WarmedStepScratch, SlabMhdHoldsNoPhysicalField) {
  SolverConfig config;
  config.n = 16;
  config.system = SystemType::Mhd;
  expect_warmed_step_scratch(config, 1);
}

TEST(WarmedStepScratch, PencilMhdTwoRanksHoldsNoPhysicalField) {
  SolverConfig config;
  config.n = 16;
  config.system = SystemType::Mhd;
  config.decomposition = transpose::Decomposition::Pencil;  // 1x2
  expect_warmed_step_scratch(config, 2);
}

/// A derivative_moments() call between warmed steps, on every rank: it
/// inverse-transforms one gradient at a time into the product block, and a
/// standalone inverse of one field needs no backend scratch that a step's
/// round trip and init_isotropic's forward (whose r2c block buffer its
/// natural-layout x pass shares) do not already hold, so the statistics
/// leave the arena's checked-out bytes and its peak where two plain steps
/// left them.
void expect_moments_add_no_scratch(const SolverConfig& config, int ranks) {
  auto& arena = util::WorkspaceArena::global();
  util::WorkspaceArena::Stats steps, moments;
  comm::run_ranks(ranks, [&](comm::Communicator& comm) {
    SpectralEngine engine(comm, config);
    engine.init_isotropic(7, 3.0, 0.5);
    engine.step(1e-3);
    engine.step(1e-3);
    comm.barrier();
    if (comm.rank() == 0) steps = arena.stats();
    comm.barrier();
    engine.derivative_moments();
    engine.step(1e-3);
    comm.barrier();
    if (comm.rank() == 0) moments = arena.stats();
    comm.barrier();
  });
  EXPECT_EQ(moments.outstanding_bytes, steps.outstanding_bytes);
  EXPECT_EQ(moments.peak_bytes, steps.peak_bytes);
}

TEST(WarmedStepScratch, SlabDerivativeMomentsAddNoScratch) {
  SolverConfig config;
  config.n = 16;
  expect_moments_add_no_scratch(config, 1);
}

TEST(WarmedStepScratch, PencilTwoRanksDerivativeMomentsAddNoScratch) {
  SolverConfig config;
  config.n = 16;
  config.decomposition = transpose::Decomposition::Pencil;  // 1x2
  expect_moments_add_no_scratch(config, 2);
}

TEST(EngineScratch, NavierStokesRk2HoldsOneStageAndNoRhsBlock) {
  SolverConfig config;
  config.n = 16;
  expect_engine_scratch(config);
}

TEST(EngineScratch, NavierStokesRk4PhaseShiftHoldsThreeRhsBlocks) {
  SolverConfig config;
  config.n = 16;
  config.scheme = TimeScheme::RK4;
  config.phase_shift_dealias = true;
  expect_engine_scratch(config);
}

TEST(EngineScratch, MhdRk2HoldsOneStageAndNoRhsBlock) {
  SolverConfig config;
  config.n = 16;
  config.system = SystemType::Mhd;
  expect_engine_scratch(config);
}

TEST(ArenaMetrics, PublishesGaugesNextToUsage) {
  // Two rounds: the second solver checks out the buckets the first one
  // released, so the process shows recycling even when this test runs in
  // isolation (ctest executes each case in its own process).
  for (int round = 0; round < 2; ++round) {
    comm::run_ranks(1, [](comm::Communicator& comm) {
      SolverConfig config;
      config.n = 16;
      SpectralEngine solver(comm, config);
      solver.init_taylor_green();
      solver.step(1e-3);
    });
  }
  obs::publish_arena_metrics();
  const auto snap = obs::registry().snapshot();
  ASSERT_TRUE(snap.gauges.contains("alloc.arena.peak_bytes"));
  ASSERT_TRUE(snap.gauges.contains("alloc.arena.resident_bytes"));
  ASSERT_TRUE(snap.gauges.contains("alloc.arena.misses"));
  ASSERT_TRUE(snap.gauges.contains("alloc.arena.hit_rate"));
  EXPECT_GT(snap.gauges.at("alloc.arena.peak_bytes"), 0.0);
  EXPECT_GE(snap.gauges.at("alloc.arena.peak_bytes"),
            snap.gauges.at("alloc.arena.resident_bytes"));
  // Blocks released by earlier solver/thread teardowns get reused, so a
  // process that has run a solver must show some recycling (the exact rate
  // depends on how many distinct bucket sizes were requested first).
  EXPECT_GT(snap.gauges.at("alloc.arena.hit_rate"), 0.0);
}

}  // namespace
}  // namespace psdns::dns
