// Warmed-step benchmark of the pseudo-spectral engine.
//
// Builds dns::SpectralEngine directly over a transpose::SlabFft3d or
// transpose::PencilFft3d backend, with threads as ranks (comm::run_ranks),
// and times whole RK2 steps barrier to barrier on rank 0. Layers are timed
// only from outside: a forwarding DistFft3d decorator times the engine's
// forward/inverse calls in situ, and a standalone section calls each
// layer's public functions with the shapes and call counts of one step.
// The only numbers read from inside the program are the comm.alltoall.*
// registry counters and the workspace arena's stats.
//
// Prints one JSON object of raw samples on stdout; perfbench/run.py turns
// it into metrics and checks correctness.
//
//   --mode run --trace 0   set-up, then untraced steps for --seconds
//   --mode run --trace 1   set-up, then alternating untraced and traced
//                          steps, the standalone layer calls, and a Chrome
//                          trace written to --trace-file
//   --mode setup           set-up only (one more set-up time sample)
//   --mode bitwise         final state of a decorated engine vs a plain one
//   --mode reference       energy and dissipation after every step

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "dns/spectral_core.hpp"
#include "dns/spectral_ops.hpp"
#include "dns/systems/equation_system.hpp"
#include "fft/plan.hpp"
#include "fft/real.hpp"
#include "obs/registry.hpp"
#include "transpose/dist_fft.hpp"
#include "transpose/pencil.hpp"
#include "transpose/slab.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"

// ------------------------------------------------------ heap allocation count
// Every global operator new in this binary, on any thread, is counted. A
// warmed step is expected to allocate nothing.

namespace {
std::atomic<std::int64_t> g_heap_allocs{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = align > alignof(std::max_align_t)
                ? std::aligned_alloc(align, (size + align - 1) / align * align)
                : std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size, 0); }
void* operator new[](std::size_t size) { return counted_alloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace psdns;
using fft::Complex;
using fft::Real;
using Clock = std::chrono::steady_clock;

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------- workloads

struct Workload {
  const char* name;
  bool pencil;
  dns::SystemType system;
  std::size_t n;
  int ranks;
  int np, q;   // slab pencil batching (Sec. 4.1)
  int pr, pc;  // pencil process grid
  double dt;
};

// Changing any value here invalidates perfbench/reference.json.
constexpr Workload kWorkloads[] = {
    {"slab_ns128_r1", false, dns::SystemType::NavierStokes, 128, 1, 1, 1, 1,
     1, 0.005},
    {"slab_ns128_r2_np4", false, dns::SystemType::NavierStokes, 128, 2, 4, 1,
     1, 1, 0.005},
    {"pencil_mhd96_r2", true, dns::SystemType::Mhd, 96, 2, 1, 1, 1, 2, 0.005},
};

constexpr double kViscosity = 0.01;
constexpr double kPeakWavenumber = 6.0;
constexpr double kEnergy = 0.5;
constexpr double kMagneticEnergy = 0.25;
constexpr int kWarmupSteps = 2;
// RK2: two RHS evaluations and three linear-propagator applications.
constexpr std::size_t kRhsPerStep = 2;
constexpr std::size_t kLinearPerStep = 3;
constexpr int kLayerReps = 5;

const Workload& find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

std::uint64_t magnetic_seed(std::uint64_t seed) {
  return util::SplitMix64(seed ^ 0x6D61676E65746963ULL).next();
}

// -------------------------------------------------------------------- spans

struct Span {
  const char* name;
  Clock::time_point t0, t1;
};

/// One rank's spans, kept in memory with a fixed capacity so that recording
/// never allocates; spans past the capacity are counted and dropped.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity) { spans_.reserve(capacity); }

  void add(const char* name, Clock::time_point t0, Clock::time_point t1) {
    if (spans_.size() < spans_.capacity()) {
      spans_.push_back({name, t0, t1});
    } else {
      ++dropped_;
    }
  }
  const std::vector<Span>& spans() const { return spans_; }
  std::int64_t dropped() const { return dropped_; }

 private:
  std::vector<Span> spans_;
  std::int64_t dropped_ = 0;
};

/// Forwarding DistFft3d that times every forward/inverse call of the engine
/// while recording is on.
class TimedFft final : public transpose::DistFft3d {
 public:
  TimedFft(transpose::DistFft3d& inner, SpanLog& log)
      : inner_(inner), log_(log) {}

  void set_recording(bool on) { recording_ = on; }
  double forward_s() const { return forward_s_; }
  double inverse_s() const { return inverse_s_; }
  std::int64_t vars() const { return vars_; }

  std::size_t n() const override { return inner_.n(); }
  std::size_t physical_elems() const override {
    return inner_.physical_elems();
  }
  std::size_t spectral_elems() const override {
    return inner_.spectral_elems();
  }
  transpose::ModeView mode_view() const override { return inner_.mode_view(); }
  transpose::PhysView phys_view() const override { return inner_.phys_view(); }
  void set_batching(int np, int q) override { inner_.set_batching(np, q); }
  int pencils() const override { return inner_.pencils(); }
  int pencils_per_alltoall() const override {
    return inner_.pencils_per_alltoall();
  }

  using DistFft3d::forward;
  using DistFft3d::inverse;

  void forward(std::span<const Real* const> phys,
               std::span<Complex* const> spec) override {
    if (!recording_) {
      inner_.forward(phys, spec);
      return;
    }
    const auto t0 = Clock::now();
    inner_.forward(phys, spec);
    const auto t1 = Clock::now();
    log_.add("transpose.forward", t0, t1);
    forward_s_ += seconds(t0, t1);
    vars_ += static_cast<std::int64_t>(phys.size());
  }

  void inverse(std::span<const Complex* const> spec,
               std::span<Real* const> phys) override {
    if (!recording_) {
      inner_.inverse(spec, phys);
      return;
    }
    const auto t0 = Clock::now();
    inner_.inverse(spec, phys);
    const auto t1 = Clock::now();
    log_.add("transpose.inverse", t0, t1);
    inverse_s_ += seconds(t0, t1);
    vars_ += static_cast<std::int64_t>(spec.size());
  }

 private:
  transpose::DistFft3d& inner_;
  SpanLog& log_;
  bool recording_ = false;
  double forward_s_ = 0.0, inverse_s_ = 0.0;
  std::int64_t vars_ = 0;
};

// ---------------------------------------------------------------------- rig

struct Rig {
  std::unique_ptr<transpose::DistFft3d> backend;
  std::unique_ptr<TimedFft> timed;  // only when tracing
  std::unique_ptr<dns::SpectralEngine> engine;
};

dns::SolverConfig make_config(const Workload& wl) {
  dns::SolverConfig config;
  config.n = wl.n;
  config.viscosity = kViscosity;
  config.scheme = dns::TimeScheme::RK2;
  config.pencils = wl.np;
  config.pencils_per_a2a = wl.q;
  config.system = wl.system;
  return config;
}

/// Backend, engine, initial condition from `seed`, then `warmup` steps.
/// With a span log the engine runs over a TimedFft decorator.
Rig build_rig(comm::Communicator& comm, const Workload& wl, std::uint64_t seed,
              SpanLog* log, int warmup) {
  Rig rig;
  if (wl.pencil) {
    rig.backend =
        std::make_unique<transpose::PencilFft3d>(comm, wl.n, wl.pr, wl.pc);
  } else {
    rig.backend = std::make_unique<transpose::SlabFft3d>(comm, wl.n);
  }
  transpose::DistFft3d* fft = rig.backend.get();
  if (log != nullptr) {
    rig.timed = std::make_unique<TimedFft>(*rig.backend, *log);
    fft = rig.timed.get();
  }
  rig.engine =
      std::make_unique<dns::SpectralEngine>(comm, *fft, make_config(wl));
  rig.engine->init_isotropic(seed, kPeakWavenumber, kEnergy);
  if (wl.system == dns::SystemType::Mhd) {
    rig.engine->init_magnetic_isotropic(magnetic_seed(seed), kPeakWavenumber,
                                        kMagneticEnergy);
  }
  for (int i = 0; i < warmup; ++i) rig.engine->step(wl.dt);
  return rig;
}

// ------------------------------------------------------------------ results

struct Layer {
  const char* name;
  std::vector<double> reps;  // seconds per step-equivalent, rank 0
};

struct Result {
  double setup_s = 0.0;
  std::vector<double> step_s;         // untraced steps, rank 0
  std::vector<double> traced_step_s;  // traced steps, rank 0
  std::vector<double> forward_s, inverse_s, traced_vars;  // per traced step
  double loop_s = 0.0;
  std::int64_t total_steps = 0;  // from the initial condition
  dns::Diagnostics diag;
  std::int64_t alltoall_calls = 0, alltoall_bytes = 0, heap_allocs = 0;
  std::int64_t loop_steps = 0;
  std::size_t arena_peak_bytes = 0;
  double fft_flop_per_step = 0.0;
  std::vector<Layer> layers;
  bool bitwise_equal = false;
  std::vector<double> ref_energy, ref_dissipation;
};

// ------------------------------------------------------------ timed loop

void snapshot_counters(comm::Communicator& comm, std::int64_t& calls,
                       std::int64_t& bytes, std::int64_t& allocs) {
  comm.barrier();
  if (comm.rank() == 0) {
    calls = obs::registry().counter("comm.alltoall.calls");
    bytes = obs::registry().counter("comm.alltoall.bytes");
    allocs = g_heap_allocs.load();
  }
  comm.barrier();
}

/// Steps until rank 0 has measured `budget_s` seconds of steps or the
/// engine has taken `max_steps` steps since the initial condition. Each
/// step is timed barrier to barrier on rank 0; rank 0 alone decides when to
/// stop and publishes the decision through `stop` between two barriers, so
/// every rank takes the same number of steps and nothing but step() runs
/// between a step's barriers. With a decorator, odd steps are traced and
/// even steps are not.
void timed_loop(comm::Communicator& comm, const Workload& wl, Rig& rig,
                double budget_s, std::int64_t max_steps,
                std::atomic<bool>& stop, SpanLog* log, Result& out) {
  const bool rank0 = comm.rank() == 0;
  const std::int64_t min_steps = rig.timed ? 2 : 1;
  if (rank0) {
    stop.store(false);
    out.step_s.reserve(static_cast<std::size_t>(max_steps));
    out.traced_step_s.reserve(static_cast<std::size_t>(max_steps));
    out.forward_s.reserve(static_cast<std::size_t>(max_steps));
    out.inverse_s.reserve(static_cast<std::size_t>(max_steps));
    out.traced_vars.reserve(static_cast<std::size_t>(max_steps));
  }
  std::int64_t calls0 = 0, bytes0 = 0, allocs0 = 0;
  snapshot_counters(comm, calls0, bytes0, allocs0);
  const auto loop_t0 = Clock::now();
  auto loop_t1 = loop_t0;
  for (std::int64_t i = 0;; ++i) {
    const bool traced = rig.timed && i % 2 == 1;
    double fwd0 = 0.0, inv0 = 0.0;
    std::int64_t vars0 = 0;
    if (rig.timed) {
      rig.timed->set_recording(traced);
      fwd0 = rig.timed->forward_s();
      inv0 = rig.timed->inverse_s();
      vars0 = rig.timed->vars();
    }
    const auto t0 = Clock::now();
    rig.engine->step(wl.dt);
    const auto t_local = Clock::now();
    comm.barrier();
    if (traced) log->add("step", t0, t_local);
    if (rank0) {
      const auto t1 = Clock::now();
      loop_t1 = t1;
      if (traced) {
        out.traced_step_s.push_back(seconds(t0, t1));
        out.forward_s.push_back(rig.timed->forward_s() - fwd0);
        out.inverse_s.push_back(rig.timed->inverse_s() - inv0);
        out.traced_vars.push_back(
            static_cast<double>(rig.timed->vars() - vars0));
      } else {
        out.step_s.push_back(seconds(t0, t1));
      }
      if ((i + 1 >= min_steps && seconds(loop_t0, t1) >= budget_s) ||
          rig.engine->step_count() >= max_steps) {
        stop.store(true);
      }
    }
    comm.barrier();
    if (stop.load()) {
      if (rank0) out.loop_steps = i + 1;
      break;
    }
  }
  std::int64_t calls1 = 0, bytes1 = 0, allocs1 = 0;
  snapshot_counters(comm, calls1, bytes1, allocs1);
  if (rig.timed) rig.timed->set_recording(false);
  if (rank0) {
    out.loop_s = seconds(loop_t0, loop_t1);
    out.alltoall_calls = calls1 - calls0;
    out.alltoall_bytes = bytes1 - bytes0;
    out.heap_allocs = allocs1 - allocs0;
  }
}

// ------------------------------------------------------- standalone layers

void fill_random(std::span<Complex> v, std::uint64_t seed) {
  util::SplitMix64 sm(seed);
  for (auto& c : v) {
    const double re = static_cast<double>(sm.next() >> 11) * 0x1.0p-53 - 0.5;
    const double im = static_cast<double>(sm.next() >> 11) * 0x1.0p-53 - 0.5;
    c = Complex{re, im};
  }
}

void fill_random(std::span<Real> v, std::uint64_t seed) {
  util::SplitMix64 sm(seed);
  for (auto& r : v) r = static_cast<double>(sm.next() >> 11) * 0x1.0p-53 - 0.5;
}

/// Runs `body` kLayerReps times on every rank; rank 0 times each run barrier
/// to barrier and appends the samples to `out` under `name`.
template <class Body>
void time_layer(comm::Communicator& comm, SpanLog& log, const char* name,
                std::vector<Layer>& out, Body&& body) {
  Layer layer{name, {}};
  for (int r = 0; r < kLayerReps; ++r) {
    comm.barrier();
    const auto t0 = Clock::now();
    body();
    const auto t_local = Clock::now();
    comm.barrier();
    const auto t1 = Clock::now();
    log.add(name, t0, t_local);
    layer.reps.push_back(seconds(t0, t1));
  }
  if (comm.rank() == 0) out.push_back(std::move(layer));
}

template <class T>
std::vector<T*> blocks(std::vector<T>& buf, std::size_t count,
                       std::size_t elems) {
  std::vector<T*> p(count);
  for (std::size_t i = 0; i < count; ++i) p[i] = buf.data() + i * elems;
  return p;
}

template <class T>
std::vector<const T*> const_blocks(std::vector<T>& buf, std::size_t count,
                                   std::size_t elems) {
  std::vector<const T*> p(count);
  for (std::size_t i = 0; i < count; ++i) p[i] = buf.data() + i * elems;
  return p;
}

/// The x-chunks [x0, x1) of one slab transpose: np pencils, q per
/// all-to-all (the grouping SlabTranspose::z_to_y/y_to_z use).
std::vector<transpose::PencilRange> slab_chunks(std::size_t nxh, int np,
                                                int q) {
  std::vector<transpose::PencilRange> chunks;
  for (int ip = 0; ip < np; ip += q) {
    const auto lo = transpose::pencil_range(nxh, np, ip);
    const auto hi = transpose::pencil_range(nxh, np, std::min(ip + q, np) - 1);
    chunks.push_back({lo.x0, hi.x1});
  }
  return chunks;
}

double line_flops(std::size_t len) {
  const double l = static_cast<double>(len);
  return 5.0 * l * std::log2(l);
}

/// One step's transposes, pack/unpack, all-to-alls and 1-D FFTs on the slab
/// backend: the inverse transforms carry the nf fields, the forward ones the
/// nprod products, kRhsPerStep times each.
void slab_layers(comm::Communicator& comm, const Workload& wl,
                 std::size_t nf, std::size_t nprod, SpanLog& log,
                 Result& out) {
  const std::size_t n = wl.n, h = n / 2 + 1;
  const auto ranks = static_cast<std::size_t>(comm.size());
  const std::size_t my = n / ranks, mz = n / ranks;
  const std::size_t nv = std::max(nf, nprod);
  const std::size_t zelems = h * n * mz, yelems = h * n * my;
  std::vector<Complex> zbuf(nv * zelems), ybuf(nv * yelems);
  fill_random(zbuf, 11);
  fill_random(ybuf, 12);
  const auto za = blocks(zbuf, nv, zelems), yb = blocks(ybuf, nv, yelems);
  const auto zac = const_blocks(zbuf, nv, zelems);
  const auto ybc = const_blocks(ybuf, nv, yelems);
  const auto zf = std::span<const Complex* const>(zac.data(), nf);
  const auto yf = std::span<Complex* const>(yb.data(), nf);
  const auto yp = std::span<const Complex* const>(ybc.data(), nprod);
  const auto zp = std::span<Complex* const>(za.data(), nprod);

  transpose::SlabTranspose tr(comm, transpose::SlabGrid{h, n, n, comm.size()});
  time_layer(comm, log, "transpose.exchange", out.layers, [&] {
    for (std::size_t r = 0; r < kRhsPerStep; ++r) {
      tr.z_to_y(zf, yf, wl.np, wl.q);
      tr.y_to_z(yp, zp, wl.np, wl.q);
    }
  });

  const auto chunks = slab_chunks(h, wl.np, wl.q);
  std::vector<Complex> send(tr.block_elems(h, nv) * ranks);
  std::vector<Complex> recv(send.size());
  fill_random(send, 13);
  time_layer(comm, log, "transpose.pack", out.layers, [&] {
    for (std::size_t r = 0; r < kRhsPerStep; ++r) {
      for (const auto& c : chunks) tr.pack_z(zf, c.x0, c.x1, send);
      for (const auto& c : chunks) tr.pack_y(yp, c.x0, c.x1, send);
    }
  });
  time_layer(comm, log, "transpose.unpack", out.layers, [&] {
    for (std::size_t r = 0; r < kRhsPerStep; ++r) {
      for (const auto& c : chunks) tr.unpack_y(send, c.x0, c.x1, yf);
      for (const auto& c : chunks) tr.unpack_z(send, c.x0, c.x1, zp);
    }
  });
  time_layer(comm, log, "comm.alltoall", out.layers, [&] {
    for (std::size_t r = 0; r < kRhsPerStep; ++r) {
      for (const auto& c : chunks) {
        comm.alltoall(send.data(), recv.data(), tr.block_elems(c.width(), nf));
      }
      for (const auto& c : chunks) {
        comm.alltoall(send.data(), recv.data(),
                      tr.block_elems(c.width(), nprod));
      }
    }
  });

  // 1-D FFTs in the backend's layouts: x (r2c/c2r) over n*my unit-stride
  // lines of a Y-slab; z over my planes of a Y-slab and y over mz planes of
  // a Z-slab, h lines of stride h per plane. They run in place on the random
  // slabs; the unnormalized transforms grow the values, far from overflow
  // in 5 reps.
  const auto plan_x = fft::get_plan_r2c(n);
  const auto plan = fft::get_plan(n);
  std::vector<Real> phys(n * n * my);
  fill_random(phys, 14);
  const fft::BatchLayout plane{.count = h, .stride = h, .dist = 1};
  time_layer(comm, log, "fft.r2c", out.layers, [&] {
    for (std::size_t v = 0; v < kRhsPerStep * nprod; ++v) {
      plan_x->forward_batch(phys.data(), n, yb[v % nv], h, n * my);
    }
  });
  time_layer(comm, log, "fft.c2r", out.layers, [&] {
    for (std::size_t v = 0; v < kRhsPerStep * nf; ++v) {
      plan_x->inverse_batch(yb[v % nv], h, phys.data(), n, n * my);
    }
  });
  const auto c2c_var = [&](fft::Direction dir, std::size_t v) {
    for (std::size_t jj = 0; jj < my; ++jj) {
      Complex* base = yb[v % nv] + h * n * jj;
      plan->transform_batch(dir, base, base, plane);
    }
    for (std::size_t kk = 0; kk < mz; ++kk) {
      Complex* base = za[v % nv] + h * n * kk;
      plan->transform_batch(dir, base, base, plane);
    }
  };
  time_layer(comm, log, "fft.c2c", out.layers, [&] {
    for (std::size_t v = 0; v < kRhsPerStep * nprod; ++v) {
      c2c_var(fft::Direction::Forward, v);
    }
    for (std::size_t v = 0; v < kRhsPerStep * nf; ++v) {
      c2c_var(fft::Direction::Inverse, v);
    }
  });
  if (comm.rank() == 0) {
    const double real_lines =
        static_cast<double>(kRhsPerStep * (nprod + nf) * n * my);
    const double complex_lines =
        static_cast<double>(kRhsPerStep * (nprod + nf) * (my + mz) * h);
    out.fft_flop_per_step =
        real_lines * 0.5 * line_flops(n) + complex_lines * line_flops(n);
  }
}

/// The pencil backend's counterpart: per field, x_to_y + y_to_z forward and
/// z_to_y + y_to_x inverse, with an alltoallv on the row communicator and an
/// alltoall on the column communicator each.
void pencil_layers(comm::Communicator& comm, const Workload& wl,
                   std::size_t nf, std::size_t nprod, SpanLog& log,
                   Result& out) {
  const std::size_t n = wl.n, h = n / 2 + 1;
  const transpose::PencilGrid grid{h, n, n, wl.pr, wl.pc};
  const std::size_t yl = grid.yl(), zl = grid.zl(), yl2 = grid.yl2();
  const int row_rank = comm.rank() % wl.pr;
  const std::size_t w = transpose::pencil_range(h, wl.pr, row_rank).width();
  std::vector<Complex> px(h * yl * zl), py(n * w * zl), pz(n * w * yl2);
  fill_random(px, 21);
  fill_random(py, 22);
  fill_random(pz, 23);

  transpose::PencilTranspose tr(comm, grid);
  time_layer(comm, log, "transpose.exchange", out.layers, [&] {
    for (std::size_t v = 0; v < kRhsPerStep * nprod; ++v) {
      tr.x_to_y(px, py);
      tr.y_to_z(py, pz);
    }
    for (std::size_t v = 0; v < kRhsPerStep * nf; ++v) {
      tr.z_to_y(pz, py);
      tr.y_to_x(py, px);
    }
  });
  // A pencil step makes no slab pack/unpack calls: these time an empty
  // call set, barrier to barrier, so every workload reports every metric.
  time_layer(comm, log, "transpose.pack", out.layers, [] {});
  time_layer(comm, log, "transpose.unpack", out.layers, [] {});

  // Same communicator split and message sizes as PencilTranspose.
  comm::Communicator row = comm.split(comm.rank() / wl.pr, row_rank);
  comm::Communicator col = comm.split(row_rank, comm.rank() / wl.pr);
  const auto pr = static_cast<std::size_t>(wl.pr);
  std::vector<std::size_t> chunk_counts(pr), chunk_displs(pr);
  std::vector<std::size_t> own_counts(pr), own_displs(pr);
  std::size_t total = 0;
  for (std::size_t d = 0; d < pr; ++d) {
    chunk_counts[d] =
        yl * transpose::pencil_range(h, wl.pr, static_cast<int>(d)).width() *
        zl;
    chunk_displs[d] = total;
    total += chunk_counts[d];
    own_counts[d] = yl * w * zl;
    own_displs[d] = d * yl * w * zl;
  }
  const std::size_t block = yl2 * w * zl;
  std::vector<Complex> send(
      std::max({total, pr * yl * w * zl, block * grid.pc}));
  std::vector<Complex> recv(send.size());
  fill_random(send, 24);
  time_layer(comm, log, "comm.alltoall", out.layers, [&] {
    for (std::size_t v = 0; v < kRhsPerStep * nprod; ++v) {
      row.alltoallv(send.data(), chunk_counts.data(), chunk_displs.data(),
                    recv.data(), own_counts.data(), own_displs.data());
      col.alltoall(send.data(), recv.data(), block);
    }
    for (std::size_t v = 0; v < kRhsPerStep * nf; ++v) {
      col.alltoall(send.data(), recv.data(), block);
      row.alltoallv(send.data(), own_counts.data(), own_displs.data(),
                    recv.data(), chunk_counts.data(), chunk_displs.data());
    }
  });

  const auto plan_x = fft::get_plan_r2c(n);
  const auto plan = fft::get_plan(n);
  std::vector<Real> phys(n * yl * zl);
  fill_random(phys, 25);
  const fft::BatchLayout ylines{.count = w * zl, .stride = 1, .dist = n};
  const fft::BatchLayout zlines{.count = w * yl2, .stride = 1, .dist = n};
  time_layer(comm, log, "fft.r2c", out.layers, [&] {
    for (std::size_t v = 0; v < kRhsPerStep * nprod; ++v) {
      plan_x->forward_batch(phys.data(), n, px.data(), h, yl * zl);
    }
  });
  time_layer(comm, log, "fft.c2r", out.layers, [&] {
    for (std::size_t v = 0; v < kRhsPerStep * nf; ++v) {
      plan_x->inverse_batch(px.data(), h, phys.data(), n, yl * zl);
    }
  });
  time_layer(comm, log, "fft.c2c", out.layers, [&] {
    for (std::size_t v = 0; v < kRhsPerStep * nprod; ++v) {
      plan->transform_batch(fft::Direction::Forward, py.data(), py.data(),
                            ylines);
      plan->transform_batch(fft::Direction::Forward, pz.data(), pz.data(),
                            zlines);
    }
    for (std::size_t v = 0; v < kRhsPerStep * nf; ++v) {
      plan->transform_batch(fft::Direction::Inverse, pz.data(), pz.data(),
                            zlines);
      plan->transform_batch(fft::Direction::Inverse, py.data(), py.data(),
                            ylines);
    }
  });
  if (comm.rank() == 0) {
    const double real_lines =
        static_cast<double>(kRhsPerStep * (nprod + nf) * yl * zl);
    const double complex_lines =
        static_cast<double>(kRhsPerStep * (nprod + nf) * (w * zl + w * yl2));
    out.fft_flop_per_step =
        real_lines * 0.5 * line_flops(n) + complex_lines * line_flops(n);
  }
}

/// The equation system's calls and the dealiasing of one step, on a system
/// built from the engine's (normalized) configuration.
void physics_layers(comm::Communicator& comm, const Workload& wl,
                    dns::SpectralEngine& engine, SpanLog& log, Result& out) {
  const auto system = dns::make_equation_system(engine.config());
  const auto& view = engine.modes();
  const std::size_t nf = engine.field_count();
  const std::size_t nprod = system->product_count();
  const std::size_t spec = engine.fft().spectral_elems();
  const std::size_t phys = engine.fft().physical_elems();

  std::vector<Real> field_phys(nf * phys), prod_phys(nprod * phys);
  fill_random(field_phys, 31);
  const auto fields_in = const_blocks(field_phys, nf, phys);
  const auto prods_out = blocks(prod_phys, nprod, phys);
  time_layer(comm, log, "dns.form_products", out.layers, [&] {
    for (std::size_t r = 0; r < kRhsPerStep; ++r) {
      system->form_products(fields_in.data(), prods_out.data(), phys);
    }
  });

  std::vector<Complex> prod_spec(nprod * spec), rhs(nf * spec);
  const auto prods = blocks(prod_spec, nprod, spec);
  const auto prods_c = const_blocks(prod_spec, nprod, spec);
  const auto rhs_p = blocks(rhs, nf, spec);
  std::vector<const Complex*> state(nf);
  for (std::size_t f = 0; f < nf; ++f) state[f] = engine.field(f);
  // Product spectra and RHS blocks start as copies of the state so every
  // call sees a realistic spectrum.
  for (std::size_t t = 0; t < nprod; ++t) {
    std::copy(state[t % nf], state[t % nf] + spec, prods[t]);
  }
  for (std::size_t f = 0; f < nf; ++f) {
    std::copy(state[f], state[f] + spec, rhs_p[f]);
  }
  time_layer(comm, log, "dns.assemble_rhs", out.layers, [&] {
    for (std::size_t r = 0; r < kRhsPerStep; ++r) {
      system->assemble_rhs(view, state.data(), prods_c.data(), rhs_p.data());
    }
  });
  time_layer(comm, log, "dns.apply_linear", out.layers, [&] {
    // RK2 applies E over dt/2, dt and dt/2.
    const double dts[kLinearPerStep] = {wl.dt / 2, wl.dt, wl.dt / 2};
    for (double dt : dts) system->apply_linear(view, rhs_p.data(), dt);
  });
  time_layer(comm, log, "dns.dealias", out.layers, [&] {
    for (std::size_t r = 0; r < kRhsPerStep; ++r) {
      for (std::size_t t = 0; t < nprod; ++t) {
        dns::dealias_truncate(view, prods[t]);
      }
    }
  });
}

// ------------------------------------------------------------------- modes

struct Options {
  std::string workload;
  std::string mode = "run";
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::int64_t max_steps = 1000;  // since the initial condition
  std::string trace_file;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--mode") {
      o.mode = val;
    } else if (key == "--seed") {
      o.seed = std::stoull(val);
    } else if (key == "--seconds") {
      o.seconds = std::stod(val);
    } else if (key == "--trace") {
      o.trace = val == "1";
    } else if (key == "--max-steps") {
      o.max_steps = std::stoll(val);
    } else if (key == "--trace-file") {
      o.trace_file = val;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  if (o.max_steps < 1) throw std::invalid_argument("--max-steps must be >= 1");
  return o;
}

void run_mode(const Options& o, const Workload& wl, Result& res,
              std::vector<std::unique_ptr<SpanLog>>& logs) {
  std::atomic<bool> stop{false};
  const auto t_launch = Clock::now();
  comm::run_ranks(wl.ranks, [&](comm::Communicator& comm) {
    const bool rank0 = comm.rank() == 0;
    SpanLog* log = o.trace ? logs[static_cast<std::size_t>(comm.rank())].get()
                           : nullptr;
    Rig rig = build_rig(comm, wl, o.seed, log, kWarmupSteps);
    comm.barrier();
    if (rank0) res.setup_s = seconds(t_launch, Clock::now());
    if (o.mode == "setup") return;

    timed_loop(comm, wl, rig, o.seconds, o.max_steps, stop, log, res);
    const auto diag = rig.engine->diagnostics();
    if (rank0) {
      res.diag = diag;
      res.total_steps = rig.engine->step_count();
      res.arena_peak_bytes = util::WorkspaceArena::global().stats().peak_bytes;
    }
    if (!o.trace) return;
    const std::size_t nf = rig.engine->field_count();
    const std::size_t nprod = rig.engine->system().product_count();
    if (wl.pencil) {
      pencil_layers(comm, wl, nf, nprod, *log, res);
    } else {
      slab_layers(comm, wl, nf, nprod, *log, res);
    }
    physics_layers(comm, wl, *rig.engine, *log, res);
  });
}

void bitwise_mode(const Options& o, const Workload& wl, Result& res,
                  std::vector<std::unique_ptr<SpanLog>>& logs) {
  constexpr int kSteps = kWarmupSteps + 2;
  comm::run_ranks(wl.ranks, [&](comm::Communicator& comm) {
    std::vector<std::vector<Complex>> plain;
    {
      Rig rig = build_rig(comm, wl, o.seed, nullptr, kSteps);
      for (std::size_t f = 0; f < rig.engine->field_count(); ++f) {
        const Complex* p = rig.engine->field(f);
        plain.emplace_back(p, p + rig.backend->spectral_elems());
      }
    }
    SpanLog& log = *logs[static_cast<std::size_t>(comm.rank())];
    Rig rig = build_rig(comm, wl, o.seed, &log, 0);
    rig.timed->set_recording(true);
    for (int i = 0; i < kSteps; ++i) rig.engine->step(wl.dt);
    int equal = 1;
    for (std::size_t f = 0; f < plain.size(); ++f) {
      if (std::memcmp(plain[f].data(), rig.engine->field(f),
                      plain[f].size() * sizeof(Complex)) != 0) {
        equal = 0;
      }
    }
    const int all_equal = -comm.allreduce_max(-equal);
    if (comm.rank() == 0) res.bitwise_equal = all_equal == 1;
  });
}

void reference_mode(const Options& o, const Workload& wl, Result& res) {
  comm::run_ranks(wl.ranks, [&](comm::Communicator& comm) {
    Rig rig = build_rig(comm, wl, o.seed, nullptr, 0);
    for (std::int64_t s = 0;; ++s) {
      const auto d = rig.engine->diagnostics();
      if (comm.rank() == 0) {
        res.ref_energy.push_back(d.energy);
        res.ref_dissipation.push_back(d.dissipation);
      }
      if (s == o.max_steps) break;
      rig.engine->step(wl.dt);
    }
  });
}

// ------------------------------------------------------------------ output

void print_array(std::FILE* f, const char* key, const std::vector<double>& v) {
  std::fprintf(f, "\"%s\":[", key);
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::fprintf(f, "%s%.17g", i ? "," : "", v[i]);
  }
  std::fprintf(f, "]");
}

void write_chrome_trace(const std::string& path, const Workload& wl,
                        const std::vector<std::unique_ptr<SpanLog>>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  Clock::time_point epoch = Clock::time_point::max();
  for (const auto& log : logs) {
    for (const auto& s : log->spans()) epoch = std::min(epoch, s.t0);
  }
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - epoch).count();
  };
  std::fprintf(f, "[\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
                  "\"args\":{\"name\":\"perfbench %s\"}}",
               wl.name);
  for (std::size_t r = 0; r < logs.size(); ++r) {
    std::fprintf(f, ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                    "\"tid\":%zu,\"args\":{\"name\":\"rank %zu\"}}",
                 r, r);
    for (const auto& s : logs[r]->spans()) {
      std::fprintf(f, ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,"
                      "\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f}",
                   s.name, r, us(s.t0), us(s.t1) - us(s.t0));
    }
  }
  std::fprintf(f, "\n]\n");
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

std::size_t peak_rss_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::size_t>(ru.ru_maxrss) * 1024;
}

void print_result(const Options& o, const Workload& wl, const Result& r,
                  std::int64_t dropped_spans) {
  std::FILE* f = stdout;
  std::fprintf(f, "{\"workload\":\"%s\",\"mode\":\"%s\",\"seed\":%llu,",
               wl.name, o.mode.c_str(),
               static_cast<unsigned long long>(o.seed));
  std::fprintf(f, "\"ranks\":%d,\"n\":%zu,\"dt\":%.17g,", wl.ranks, wl.n,
               wl.dt);
  std::fprintf(f, "\"setup_s\":%.17g,\"peak_rss_bytes\":%zu,", r.setup_s,
               peak_rss_bytes());
  std::fprintf(f, "\"bitwise_equal\":%s,", r.bitwise_equal ? "true" : "false");
  std::fprintf(f, "\"loop_s\":%.17g,\"loop_steps\":%lld,\"total_steps\":%lld,",
               r.loop_s, static_cast<long long>(r.loop_steps),
               static_cast<long long>(r.total_steps));
  std::fprintf(f, "\"energy\":%.17g,\"dissipation\":%.17g,"
                  "\"max_divergence\":%.17g,",
               r.diag.energy, r.diag.dissipation, r.diag.max_divergence);
  std::fprintf(f, "\"alltoall_calls\":%lld,\"alltoall_bytes\":%lld,"
                  "\"heap_allocs\":%lld,\"arena_peak_bytes\":%zu,",
               static_cast<long long>(r.alltoall_calls),
               static_cast<long long>(r.alltoall_bytes),
               static_cast<long long>(r.heap_allocs), r.arena_peak_bytes);
  std::fprintf(f, "\"fft_flop_per_step\":%.17g,\"dropped_spans\":%lld,",
               r.fft_flop_per_step, static_cast<long long>(dropped_spans));
  print_array(f, "step_s", r.step_s);
  std::fprintf(f, ",");
  print_array(f, "traced_step_s", r.traced_step_s);
  std::fprintf(f, ",");
  print_array(f, "forward_s", r.forward_s);
  std::fprintf(f, ",");
  print_array(f, "inverse_s", r.inverse_s);
  std::fprintf(f, ",");
  print_array(f, "traced_vars", r.traced_vars);
  std::fprintf(f, ",");
  print_array(f, "ref_energy", r.ref_energy);
  std::fprintf(f, ",");
  print_array(f, "ref_dissipation", r.ref_dissipation);
  std::fprintf(f, ",\"layers\":{");
  for (std::size_t i = 0; i < r.layers.size(); ++i) {
    std::fprintf(f, "%s", i ? "," : "");
    print_array(f, r.layers[i].name, r.layers[i].reps);
  }
  std::fprintf(f, "}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    const Workload& wl = find_workload(o.workload);
    // Room for every traced step's spans plus the standalone reps.
    const std::size_t span_capacity =
        static_cast<std::size_t>(o.max_steps) * 8 + 4096;
    std::vector<std::unique_ptr<SpanLog>> logs;
    for (int r = 0; r < wl.ranks; ++r) {
      logs.push_back(std::make_unique<SpanLog>(span_capacity));
    }
    Result res;
    if (o.mode == "run" || o.mode == "setup") {
      run_mode(o, wl, res, logs);
    } else if (o.mode == "bitwise") {
      bitwise_mode(o, wl, res, logs);
    } else if (o.mode == "reference") {
      reference_mode(o, wl, res);
    } else {
      throw std::invalid_argument("unknown mode " + o.mode);
    }
    std::int64_t dropped = 0;
    for (const auto& log : logs) dropped += log->dropped();
    if (o.trace && !o.trace_file.empty()) {
      write_chrome_trace(o.trace_file, wl, logs);
    }
    print_result(o, wl, res, dropped);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_step: %s\n", e.what());
    return 1;
  }
}
