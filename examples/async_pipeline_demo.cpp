// The paper's batched slab pipeline, both ways:
//  1. functionally: the slab 3-D FFT with its global transpose batched as
//     np pencils, Q per all-to-all (Fig. 4, Sec. 4.1), checked bit for bit
//     against the same transform done in one exchange on real data;
//  2. at Summit scale: the discrete-event co-simulation of the Fig.-4
//     schedule, rendered as a Fig.-10-style timeline.
//
//   ./async_pipeline_demo [--n=32] [--ranks=4] [--np=4] [--q=2]

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "comm/communicator.hpp"
#include "obs/trace_export.hpp"
#include "pipeline/dns_step_model.hpp"
#include "transpose/dist_fft.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace psdns;
  using transpose::Complex;
  using transpose::Real;
  const util::Cli cli(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int("n", 32));
  const int ranks = static_cast<int>(cli.get_int("ranks", 4));
  const int np = static_cast<int>(cli.get_int("np", 4));
  const int q = static_cast<int>(cli.get_int("q", 2));

  std::printf("Part 1: batched slab transform, %zu^3 on %d ranks, "
              "np=%d pencils, Q=%d per all-to-all\n", n, ranks, np, q);

  int mismatches = 0;
  comm::run_ranks(ranks, [&](comm::Communicator& comm) {
    transpose::SlabFft3d whole(comm, n), batched(comm, n);
    whole.set_batching(1, 1);
    batched.set_batching(np, q);

    util::Rng rng(99, static_cast<std::uint64_t>(comm.rank()));
    std::vector<Real> phys(whole.physical_elems());
    for (auto& v : phys) v = rng.gaussian();

    std::vector<Complex> want(whole.spectral_elems());
    std::vector<Complex> got(want.size());
    whole.forward(phys, want);
    batched.forward(phys, got);
    std::vector<Real> back_want(phys.size()), back_got(phys.size());
    whole.inverse(want, back_want);
    batched.inverse(got, back_got);

    const bool same =
        std::memcmp(got.data(), want.data(), want.size() * sizeof(Complex)) ==
            0 &&
        std::memcmp(back_got.data(), back_want.data(),
                    phys.size() * sizeof(Real)) == 0;
    const int total = comm.allreduce_sum(same ? 0 : 1);
    if (comm.rank() == 0) mismatches = total;
  });
  std::printf("  forward and inverse vs one exchange: %s\n\n",
              mismatches == 0 ? "bitwise identical"
                              : "MISMATCH on some ranks!");

  std::printf("Part 2: the Fig.-4 schedule co-simulated at 18432^3 on 3072 "
              "Summit nodes\n\n");
  const pipeline::DnsStepModel model;
  for (const auto mpi : {pipeline::MpiConfig::B, pipeline::MpiConfig::C}) {
    pipeline::PipelineConfig cfg;
    cfg.n = 18432;
    cfg.nodes = 3072;
    cfg.pencils = 4;
    cfg.mpi = mpi;
    const auto r = model.simulate_gpu_step(cfg);
    std::printf("%s: %s per RK2 step\n", pipeline::to_string(mpi),
                util::format_time(r.seconds).c_str());
    std::printf("%s",
                obs::render_timeline(r.trace, r.seconds, {.columns = 90})
                    .c_str());
    std::printf("%s\n", obs::summarize_busy(r.trace, r.seconds).c_str());
  }
  return mismatches == 0 ? 0 : 1;
}
