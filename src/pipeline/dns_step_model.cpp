#include "pipeline/dns_step_model.hpp"

#include <cmath>
#include <vector>

#include "gpu/virtual_gpu.hpp"
#include "model/memory.hpp"
#include "obs/critical_path.hpp"
#include "obs/log.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "sim/dag.hpp"
#include "sim/engine.hpp"
#include "sim/flow_network.hpp"
#include "util/check.hpp"

namespace psdns::pipeline {

const char* to_string(MpiConfig c) {
  switch (c) {
    case MpiConfig::A:
      return "A (6 tasks/node, 1 pencil/A2A)";
    case MpiConfig::B:
      return "B (2 tasks/node, 1 pencil/A2A)";
    case MpiConfig::C:
      return "C (2 tasks/node, 1 slab/A2A)";
  }
  return "?";
}

DnsStepModel::DnsStepModel(hw::MachineSpec machine,
                           net::AlltoallParams net_params)
    : machine_(machine), a2a_(net_params) {}

int DnsStepModel::cpu_cores_per_node(std::int64_t n) {
  // Load balance requires the core count to divide N (Sec. 5); Summit's 42
  // cores allow 36 only when N is divisible by 36, else 32.
  return n % 36 == 0 ? 36 : 32;
}

namespace {

/// All per-rank lanes and per-GPU handles of the simulated socket.
struct RankCtx {
  std::vector<gpu::VirtualGpu> gpus;
  sim::LaneId mpi = 0;
};

/// Word size of the production code (single precision).
constexpr double kWord = model::kWordBytes;

}  // namespace

void DnsStepModel::validate(const PipelineConfig& cfg) const {
  const model::MemoryModel mm;
  PSDNS_REQUIRE(cfg.nodes >= 1 && cfg.n >= 2, "bad problem shape");
  // Feasibility uses the paper's own criterion (D = 25 variables, Sec. 3.5)
  // - the Table-1 "resident" occupancy is larger, but 18432^3 did run on
  // 1536 nodes, so the estimate is what gates a configuration.
  PSDNS_REQUIRE(static_cast<double>(cfg.nodes) >=
                    mm.min_nodes_estimate(cfg.n),
                "problem does not fit in host memory at this node count "
                "(see model::MemoryModel::min_nodes)");
  PSDNS_REQUIRE(cfg.pencils >= mm.pencils_needed_estimate(cfg.n, cfg.nodes),
                "pencil count too small: the 27 asynchronous GPU buffers "
                "exceed GPU memory (Sec. 3.5)");
}

StepResult DnsStepModel::simulate_gpu_step(const PipelineConfig& cfg) const {
  validate(cfg);
  const model::ProblemConfig problem = cfg.problem();
  const int tpn = cfg.tasks_per_node();
  const int ranks_per_socket = tpn / 2;
  const int gpus_per_rank = machine_.node.gpus_per_socket / ranks_per_socket;
  const int np = cfg.pencils;
  const int q = cfg.q();
  PSDNS_REQUIRE(np >= 1 && q >= 1 && q <= np, "bad pencil batching");

  sim::Engine engine;
  sim::FlowNetwork net(engine);
  const auto bus =
      net.add_link("socket_bus", machine_.node.host_mem_bw_per_socket);
  const auto nic =
      net.add_link("socket_nic", machine_.node.node_injection_bw / 2.0);
  sim::DagRunner dag(engine, net);
  gpu::CostModel costs(machine_);

  // Flow classes: 0 = CPU<->GPU transfers (aggressors), 1 = MPI (victims).
  // GPU DMA over NVLink degrades concurrent NIC injection (Sec. 5.2).
  constexpr int kTransferClass = 0;
  constexpr int kMpiClass = 1;
  net.set_interference(kMpiClass, kTransferClass);

  // Zero-copy unpack kernels occupy a few SMs while compute kernels run;
  // the paper sizes them at ~16 blocks (Fig. 8), slowing concurrent compute
  // by the corresponding steal factor.
  const bool zero_copy_unpack =
      cfg.unpack_method == gpu::CopyMethod::ZeroCopy;
  const double sm_steal =
      zero_copy_unpack ? costs.sm_steal_factor(16) : 1.0;

  std::vector<RankCtx> ranks(static_cast<std::size_t>(ranks_per_socket));
  std::vector<std::vector<sim::LaneId>> unpack_stream(
      static_cast<std::size_t>(ranks_per_socket));
  for (int r = 0; r < ranks_per_socket; ++r) {
    auto& ctx = ranks[static_cast<std::size_t>(r)];
    ctx.gpus.reserve(static_cast<std::size_t>(gpus_per_rank));
    for (int g = 0; g < gpus_per_rank; ++g) {
      const auto nvl = net.add_link(
          "nvlink_r" + std::to_string(r) + "g" + std::to_string(g),
          costs.nvlink_bw_per_gpu());
      ctx.gpus.emplace_back(dag, gpu::GpuLinks{nvl, bus}, costs,
                            "r" + std::to_string(r) + ".g" + std::to_string(g),
                            r);
      // The zero-copy unpack runs concurrently with compute on its own
      // stream (it only needs a handful of SMs).
      unpack_stream[static_cast<std::size_t>(r)].push_back(
          ctx.gpus.back().create_stream("unpack"));
    }
    ctx.mpi = dag.add_lane("r" + std::to_string(r) + ".mpi", r);
  }

  // ---- per-rank sizes ----
  const double var_bytes = problem.points_per_rank() * kWord;  // one variable
  const double pencil_var_bytes = var_bytes / np;              // per pencil
  const double per_gpu = 1.0 / gpus_per_rank;
  // Contiguous extent of a strided pencil copy: the pencil's x-width
  // (Fig. 6; 18 KB for the 18432^3 / np=4 case).
  const double chunk_bytes =
      kWord * static_cast<double>(problem.n) / static_cast<double>(np);
  // 1-D FFT lines per pencil per GPU for nv variables.
  const auto fft_lines = [&](double nv) {
    return nv * problem.points_per_rank() /
           (static_cast<double>(np) * gpus_per_rank *
            static_cast<double>(problem.n));
  };

  // ---- all-to-all flow parameters for a group of `group` pencils of `nv`
  //      variables ----
  const auto a2a_flow = [&](int nv, int group) {
    model::ProblemConfig p = problem;
    p.variables = nv;
    const double p2p = p.p2p_bytes(group);
    const double t = a2a_.time(problem.nodes, tpn, p2p);
    const double bytes =
        a2a_.offnode_bytes_per_node(problem.nodes, tpn, p2p) / tpn;
    const double latency = machine_.api.mpi_call_overhead;
    double rate = bytes > 0.0 ? bytes / std::max(t - latency, 1e-6) : 1.0;
    const auto& np_ = a2a_.params();
    // Overlapped (nonblocking, per-pencil-group) collectives progress only
    // when the host re-enters MPI; blocking whole-slab calls run clean.
    if (cfg.q() < cfg.pencils) {
      const double prog = np_.nonblocking_progression;
      rate *= prog + (1.0 - prog) * p2p / (p2p + np_.progression_half);
    }
    if (cfg.gpu_direct) rate *= np_.gpu_direct_rate_factor;
    // Sensitivity to concurrent GPU transfers: large rendezvous messages
    // pipeline through the host-bus contention, small ones suffer.
    const double chi = std::max(np_.interference_floor,
                                p2p / (p2p + np_.interference_half));
    return std::tuple{bytes, rate, latency, chi};
  };

  // In sync (ablation) mode everything of one GPU runs on its compute lane
  // and the MPI call blocks that lane too.
  const auto transfer_lane = [&](gpu::VirtualGpu& g) {
    return cfg.async ? g.transfer_stream() : g.compute_stream();
  };

  // ---- emit one substep; `carry` is the previous substep's last op per
  //      rank (the next substep starts after the updated velocities land
  //      back in host memory) ----
  std::vector<sim::OpId> carry(static_cast<std::size_t>(ranks_per_socket));

  const auto emit_pass = [&](int rank, int nv_in, double pre_fft_dirs,
                             double post_fft_dirs, double pointwise_bytes,
                             int nv_out, std::vector<sim::OpId>& entry_deps,
                             const char* tag) -> sim::OpId {
    // One transform pass: per pencil [H2D, FFTs, D2H+pack], the all-to-all
    // groups, then per pencil [zero-copy unpack, FFTs, pointwise kernel,
    // D2H of nv_out variables]. Returns the op completing the pass.
    auto& ctx = ranks[static_cast<std::size_t>(rank)];
    const double nv_in_d = nv_in;

    // Pre-transpose pipeline. The buffer triplication of Sec. 3.5 (9
    // compute buffers x3 for asynchrony) lets at most 3 pencils be in
    // flight per GPU: the H2D of pencil ip must wait for pencil ip-3's
    // compute to release its buffers.
    std::vector<std::vector<sim::OpId>> d2h_per_pencil(
        static_cast<std::size_t>(np));
    std::vector<std::vector<sim::OpId>> fft1_per_pencil(
        static_cast<std::size_t>(np));
    for (int ip = 0; ip < np; ++ip) {
      for (std::size_t gslot = 0; gslot < ctx.gpus.size(); ++gslot) {
        auto& g = ctx.gpus[gslot];
        std::vector<sim::OpId> h2d_deps = entry_deps;
        if (ip >= 3) {
          h2d_deps.push_back(
              fft1_per_pencil[static_cast<std::size_t>(ip - 3)][gslot]);
        }
        const auto h2d = g.copy(
            transfer_lane(g), std::string(tag) + ".h2d p" + std::to_string(ip),
            nv_in_d * pencil_var_bytes * per_gpu, chunk_bytes,
            cfg.copy_method, h2d_deps);
        const auto fft1 =
            g.fft(g.compute_stream(), std::string(tag) + ".fft1",
                  fft_lines(nv_in_d) * pre_fft_dirs * sm_steal,
                  static_cast<double>(problem.n), {h2d});
        if (cfg.gpu_direct) {
          // CUDA-aware MPI: the collective reads device memory; no staging
          // copy, the GPU-side pack is folded into the transfer below.
          d2h_per_pencil[static_cast<std::size_t>(ip)].push_back(fft1);
        } else {
          const auto d2h = g.copy(
              transfer_lane(g), std::string(tag) + ".d2h+pack p" +
                                    std::to_string(ip),
              nv_in_d * pencil_var_bytes * per_gpu, chunk_bytes,
              cfg.copy_method, {fft1});
          d2h_per_pencil[static_cast<std::size_t>(ip)].push_back(d2h);
        }
        fft1_per_pencil[static_cast<std::size_t>(ip)].push_back(fft1);
      }
    }

    // All-to-all groups of q pencils.
    const int ngroups = (np + q - 1) / q;
    std::vector<sim::OpId> group_op(static_cast<std::size_t>(ngroups));
    for (int gi = 0; gi < ngroups; ++gi) {
      const int lo = gi * q;
      const int hi = std::min(lo + q, np);
      std::vector<sim::OpId> deps;
      for (int ip = lo; ip < hi; ++ip) {
        for (const auto op : d2h_per_pencil[static_cast<std::size_t>(ip)]) {
          deps.push_back(op);
        }
      }
      const auto [bytes, rate, latency, chi] = a2a_flow(nv_in, hi - lo);
      // With GPU-Direct the injected data additionally crosses NVLink; the
      // rate is still NIC-bound, which is why the paper saw no benefit.
      const std::vector<sim::LinkId> mpi_path =
          cfg.gpu_direct ? std::vector<sim::LinkId>{nic, bus}
                         : std::vector<sim::LinkId>{nic, bus};
      group_op[static_cast<std::size_t>(gi)] = dag.add_flow_op(
          std::string(tag) + ".a2a g" + std::to_string(gi),
          cfg.async ? ctx.mpi : ctx.gpus.front().compute_stream(),
          obs::SpanKind::Comm, bytes, mpi_path, rate, deps, latency,
          kMpiClass, chi);
    }

    // Post-transpose pipeline (the MPI_WAIT of Fig. 4 is the dependency on
    // the group op).
    sim::OpId last{};
    for (int ip = 0; ip < np; ++ip) {
      const auto dep = group_op[static_cast<std::size_t>(ip / q)];
      for (std::size_t gidx = 0; gidx < ctx.gpus.size(); ++gidx) {
        auto& g = ctx.gpus[gidx];
        sim::OpId data_ready = dep;
        if (!cfg.gpu_direct) {
          // Zero-copy unpack: the kernel reads pinned host memory directly,
          // replacing a separate H2D + device reorder (Sec. 4.2); it runs
          // concurrently with compute on its own stream, stealing a few SMs.
          const sim::LaneId lane =
              zero_copy_unpack
                  ? unpack_stream[static_cast<std::size_t>(rank)][gidx]
                  : transfer_lane(g);
          data_ready = g.copy(
              lane, std::string(tag) + ".unpack p" + std::to_string(ip),
              nv_in_d * pencil_var_bytes * per_gpu, chunk_bytes,
              cfg.unpack_method, {dep});
        }
        const auto fft2 =
            g.fft(g.compute_stream(), std::string(tag) + ".fft2",
                  fft_lines(nv_in_d) * post_fft_dirs * sm_steal,
                  static_cast<double>(problem.n), {data_ready});
        sim::OpId tail = fft2;
        if (pointwise_bytes > 0.0) {
          tail = g.pointwise(g.compute_stream(), std::string(tag) + ".ptwise",
                             pointwise_bytes * per_gpu / np, {fft2});
        }
        last = g.copy(transfer_lane(g),
                      std::string(tag) + ".d2h out p" + std::to_string(ip),
                      static_cast<double>(nv_out) * pencil_var_bytes * per_gpu,
                      chunk_bytes, cfg.copy_method, {tail});
      }
    }
    return last;
  };

  PSDNS_REQUIRE(cfg.rk_substeps == 2 || cfg.rk_substeps == 4,
                "rk_substeps must be 2 (RK2) or 4 (RK4)");
  PSDNS_REQUIRE(cfg.scalars >= 0, "negative scalar count");
  PSDNS_REQUIRE(cfg.extra_fields >= 0 && cfg.extra_products >= 0,
                "negative equation-system field/product count");
  // Variable counts per pass: the inverse pass moves the 3 velocities,
  // every scalar, and any equation-system extra fields; the forward pass
  // moves the 6 velocity products, 3 flux components per scalar, and the
  // system's extra products.
  const int nv_fields = 3 + cfg.scalars + cfg.extra_fields;
  const int nv_products = 6 + 3 * cfg.scalars + cfg.extra_products;
  for (int substep = 0; substep < cfg.rk_substeps; ++substep) {
    for (int r = 0; r < ranks_per_socket; ++r) {
      std::vector<sim::OpId> entry;
      if (carry[static_cast<std::size_t>(r)].valid()) {
        entry.push_back(carry[static_cast<std::size_t>(r)]);
      }
      // Pass 1: fields to physical space. Pre-A2A: y transforms
      // (1 direction). Post-A2A: z + complex-to-real x (1.5 direction
      // equivalents), then the nonlinear products (reads the fields,
      // writes the products), products copied out.
      const double prod_traffic =
          static_cast<double>(nv_fields + nv_products) * var_bytes;
      const auto pass1_end = emit_pass(r, nv_fields, 1.0, 1.5, prod_traffic,
                                       nv_products, entry, "inv");

      // Pass 2: products back to Fourier space. Pre-A2A: real-to-complex
      // x + z (1.5). Post-A2A: y transforms, then RHS assembly + RK update
      // (reads the products + fields, writes the fields), fields copied
      // out.
      std::vector<sim::OpId> entry2{pass1_end};
      const double rhs_traffic =
          static_cast<double>(nv_products + 2 * nv_fields) * var_bytes;
      carry[static_cast<std::size_t>(r)] = emit_pass(
          r, nv_products, 1.5, 1.0, rhs_traffic, nv_fields, entry2, "fwd");
    }
  }

  StepResult result;
  result.seconds = dag.run();
  result.trace = dag.trace();
  result.mpi_busy = obs::busy_time(result.trace, obs::SpanKind::Comm);
  result.compute_busy = obs::busy_time(result.trace, obs::SpanKind::Compute);
  result.transfer_busy =
      obs::busy_time(result.trace, obs::SpanKind::Transfer);
  const obs::OverlapStats overlap = obs::overlap_stats(result.trace);
  result.overlap_efficiency = overlap.overlap_efficiency;
  const obs::PathAttribution attrib = obs::attribute_wall_time(result.trace);

  auto& reg = obs::registry();
  reg.counter_add("pipeline.steps_simulated");
  reg.observe("pipeline.step.seconds", result.seconds);
  reg.gauge_set("pipeline.last_step.seconds", result.seconds);
  reg.gauge_set("pipeline.last_step.mpi_busy", result.mpi_busy);
  reg.gauge_set("pipeline.last_step.transfer_busy", result.transfer_busy);
  reg.gauge_set("pipeline.last_step.compute_busy", result.compute_busy);
  reg.gauge_set("pipeline.last_step.overlap_efficiency",
                result.overlap_efficiency);
  reg.gauge_set("pipeline.last_step.hidden_traffic", overlap.hidden);
  reg.gauge_set("pipeline.last_step.exposed_traffic", overlap.exposed);
  reg.gauge_set("pipeline.last_step.critpath.compute", attrib.compute);
  reg.gauge_set("pipeline.last_step.critpath.comm", attrib.comm);
  reg.gauge_set("pipeline.last_step.critpath.transfer", attrib.transfer);
  reg.gauge_set("pipeline.last_step.critpath.idle", attrib.idle);
  obs::trace_counter("pipeline.overlap_efficiency",
                     result.overlap_efficiency);
  obs::trace_counter("pipeline.step_seconds", result.seconds);
  obs::trace_counter("pipeline.exposed_traffic", overlap.exposed);
  obs::log_event(obs::LogLevel::Debug, "pipeline", "gpu step simulated",
                 {{"n", cfg.n},
                  {"nodes", cfg.nodes},
                  {"mpi", to_string(cfg.mpi)},
                  {"seconds", result.seconds},
                  {"mpi_busy", result.mpi_busy},
                  {"overlap_efficiency", result.overlap_efficiency}});
  return result;
}

double DnsStepModel::cpu_step_seconds(std::int64_t n, int nodes) const {
  const int cores = cpu_cores_per_node(n);
  const double n3 = static_cast<double>(n) * n * static_cast<double>(n);
  const double points_node = n3 / nodes;
  const auto& cpu = machine_.cpu;

  // 18 variable-3D-FFT equivalents per RK2 step (2 substeps x (3 inverse +
  // 6 forward)); 5 N log2 N flops per 1-D line, 3 directions.
  const double flops = 18.0 * 15.0 * points_node * std::log2(n);
  const double t_compute =
      flops / (cores * cpu.fft_gflops_per_core * 1e9);

  // Nonlinear products and RK updates: streaming sweeps over the node's
  // share of the fields.
  const double t_pointwise =
      24.0 * kWord * points_node / (cores * cpu.pointwise_bw_per_core);

  // 18 variable-transposes per step, each a row (on-node) plus a column
  // (off-node) redistribution of the 2-D decomposition.
  const double var_node_bytes = kWord * points_node;
  const double t_row = 18.0 * var_node_bytes * 2.0 /
                       (0.6 * machine_.node.host_mem_bw());

  // Column all-to-alls: Pr = cores on the node, Pc = nodes; per-variable
  // messages of 4 N^3 / (P * Pc) bytes.
  const double p2p =
      kWord * n3 / (static_cast<double>(nodes) * cores * nodes);
  const double bw = a2a_.effective_injection_bw(nodes, cores, p2p);
  const double t_col =
      18.0 * (a2a_.params().base_latency + var_node_bytes / bw);

  // Host-side pack/unpack around both transposes.
  const double t_pack =
      18.0 * 4.0 * var_node_bytes / (cores * cpu.pack_bw_per_core);

  return t_compute + t_pointwise + t_row + t_col + t_pack;
}

double DnsStepModel::standalone_a2a_seconds(const PipelineConfig& cfg, int nv,
                                            int q) const {
  model::ProblemConfig p = cfg.problem();
  p.variables = nv;
  return a2a_.time(p.nodes, p.tasks_per_node, p.p2p_bytes(q));
}

double DnsStepModel::mpi_only_step_seconds(const PipelineConfig& cfg) const {
  const int np = cfg.pencils;
  const int q = cfg.q();
  const int ngroups = (np + q - 1) / q;
  double t = 0.0;
  PSDNS_REQUIRE(cfg.rk_substeps == 2 || cfg.rk_substeps == 4,
                "rk_substeps must be 2 (RK2) or 4 (RK4)");
  for (int substep = 0; substep < cfg.rk_substeps; ++substep) {
    t += ngroups * standalone_a2a_seconds(cfg, 3, q);
    t += ngroups * standalone_a2a_seconds(cfg, 6, q);
  }
  return t;
}

}  // namespace psdns::pipeline
