// Fig. 4 / Fig. 10 companion: how much of the achievable compute/traffic
// overlap the batched asynchronous schedule realizes, per weak-scaled case
// and per pencil-pipeline depth, against the synchronous ablation
// (async=false, the Sec. 3.3 structure). Config A (1 GPU per rank) is used
// so per-rank overlap attribution is exact. All numbers come from the
// deterministic co-simulation, so they are machine-independent and gate
// cleanly in CI via psdns_perfdiff.

#include <cstdio>

#include "model/paper.hpp"
#include "obs/bench_report.hpp"
#include "obs/critical_path.hpp"
#include "pipeline/dns_step_model.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

namespace {

using namespace psdns;

pipeline::PipelineConfig base_config(std::int64_t n, int nodes, int np,
                                     bool async) {
  pipeline::PipelineConfig cfg;
  cfg.n = n;
  cfg.nodes = nodes;
  cfg.pencils = np;
  cfg.pencils_per_a2a = 1;
  cfg.mpi = pipeline::MpiConfig::A;
  cfg.async = async;
  // The serialized ablation must serialize the unpack too: the zero-copy
  // kernel runs on its own stream by design and would otherwise still
  // overlap compute.
  if (!async) cfg.unpack_method = gpu::CopyMethod::Memcpy2DAsync;
  return cfg;
}

}  // namespace

int main() {
  const pipeline::DnsStepModel model;

  std::printf(
      "Overlap efficiency of one RK2 step (config A, 1 pencil per A2A):\n"
      "achieved overlap of compute with transfers+MPI over the achievable\n"
      "overlap, async schedule vs the fully serialized ablation.\n\n");

  obs::BenchReport report("overlap");
  report.meta("description",
              "overlap efficiency of the batched async schedule vs the "
              "synchronous ablation (deterministic co-simulation)");

  util::Table cases({"Nodes", "Problem", "np", "Async eff", "Sync eff",
                     "Hidden s", "Exposed s", "Critpath comm s"});
  for (const auto& c : model::paper::kCases) {
    const auto async = model.simulate_gpu_step(
        base_config(c.n, c.nodes, c.pencils, true));
    const auto sync = model.simulate_gpu_step(
        base_config(c.n, c.nodes, c.pencils, false));

    const obs::OverlapStats ov = obs::overlap_stats(async.trace);
    const obs::PathAttribution at = obs::attribute_wall_time(async.trace);

    const std::string key =
        std::to_string(c.n) + "_" + std::to_string(c.nodes) + "n";
    report.metric("overlap_efficiency." + key, async.overlap_efficiency);
    report.metric("sync_overlap_efficiency." + key, sync.overlap_efficiency);
    report.metric("hidden_seconds." + key, ov.hidden);
    report.metric("exposed_seconds." + key, ov.exposed);
    report.metric("critpath_comm_seconds." + key, at.comm);
    report.metric("step_seconds_async." + key, async.seconds);
    report.metric("step_seconds_sync." + key, sync.seconds);

    cases.add_row({std::to_string(c.nodes), util::format_problem(c.n),
                   std::to_string(c.pencils),
                   util::format_fixed(async.overlap_efficiency, 3),
                   util::format_fixed(sync.overlap_efficiency, 3),
                   util::format_fixed(ov.hidden, 2),
                   util::format_fixed(ov.exposed, 2),
                   util::format_fixed(at.comm, 2)});
  }
  std::printf("%s\n", cases.to_string().c_str());

  // Pencil-depth ramp: the pipeline can only hide what it has queued, so
  // efficiency follows (np-1)/np - the first pencil of each pass is exposed.
  util::Table ramp({"np", "Async eff", "Sync eff", "Async step s",
                    "Sync step s"});
  for (int np : {2, 4, 8, 16}) {
    const auto async =
        model.simulate_gpu_step(base_config(3072, 16, np, true));
    const auto sync =
        model.simulate_gpu_step(base_config(3072, 16, np, false));
    report.metric("ramp_overlap_efficiency.np" + std::to_string(np),
                  async.overlap_efficiency);
    report.metric("ramp_sync_overlap_efficiency.np" + std::to_string(np),
                  sync.overlap_efficiency);
    ramp.add_row({std::to_string(np),
                  util::format_fixed(async.overlap_efficiency, 3),
                  util::format_fixed(sync.overlap_efficiency, 3),
                  util::format_fixed(async.seconds, 2),
                  util::format_fixed(sync.seconds, 2)});
  }
  std::printf("%s\n", ramp.to_string().c_str());
  std::printf(
      "Shapes reproduced: the serialized ablation hides nothing (eff = 0);\n"
      "the batched schedule's efficiency follows the pipeline ramp\n"
      "(np-1)/np - deeper pencil pipelines hide more, approaching 1.\n");
  std::printf("wrote %s\n", report.write().c_str());
  return 0;
}
