#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "gpu/copy.hpp"
#include "gpu/cost_model.hpp"
#include "gpu/virtual_gpu.hpp"
#include "sim/engine.hpp"

namespace psdns::gpu {
namespace {

// --- functional copy primitives ---

TEST(Copy, Memcpy2dMovesPitchedRows) {
  // 3 rows of 4 elements out of a source with pitch 6 into dest pitch 5.
  std::vector<int> src(18);
  std::iota(src.begin(), src.end(), 0);
  std::vector<int> dst(15, -1);
  memcpy2d(dst.data(), 5, src.data(), 6, 4, 3);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_EQ(dst[r * 5 + c], static_cast<int>(r * 6 + c));
    }
    EXPECT_EQ(dst[r * 5 + 4], -1);  // pitch padding untouched
  }
}

TEST(Copy, Memcpy2dRejectsShortPitch) {
  std::vector<int> a(10), b(10);
  EXPECT_THROW(memcpy2d(a.data(), 2, b.data(), 5, 3, 2), util::Error);
}

TEST(Copy, GatherScatterRoundTrip) {
  std::vector<double> src{10, 11, 12, 13, 14, 15};
  const std::vector<std::size_t> index{4, 2, 0, 5};
  std::vector<double> packed(index.size());
  gather(packed.data(), src.data(), index);
  EXPECT_EQ(packed, (std::vector<double>{14, 12, 10, 15}));

  std::vector<double> back(src.size(), 0.0);
  scatter(back.data(), packed.data(), index);
  EXPECT_EQ(back[4], 14.0);
  EXPECT_EQ(back[2], 12.0);
  EXPECT_EQ(back[0], 10.0);
  EXPECT_EQ(back[5], 15.0);
  EXPECT_EQ(back[1], 0.0);
}

// --- cost model (Fig. 7 / Fig. 8 shapes) ---

TEST(CostModel, NvlinkShareIs50GBs) {
  CostModel m;
  EXPECT_NEAR(m.nvlink_bw_per_gpu(), 50e9, 1e6);
}

TEST(CostModel, ManyMemcpyBlowsUpForSmallChunks) {
  // Fig. 7: at small contiguous chunks, per-call overhead dominates and the
  // many-memcpyAsync approach is orders of magnitude slower.
  CostModel m;
  const double total = 216e6;
  const double small_chunk = 8.8e3;
  const double t_many =
      m.strided_copy_time(CopyMethod::ManyMemcpyAsync, total, small_chunk);
  const double t_2d =
      m.strided_copy_time(CopyMethod::Memcpy2DAsync, total, small_chunk);
  const double t_zc =
      m.strided_copy_time(CopyMethod::ZeroCopy, total, small_chunk);
  EXPECT_GT(t_many, 10.0 * t_2d);
  EXPECT_GT(t_many, 10.0 * t_zc);
  // Zero-copy and memcpy2D are comparable (paper: "similar timings").
  EXPECT_LT(t_zc, 2.0 * t_2d);
  EXPECT_LT(t_2d, 2.0 * t_zc);
}

TEST(CostModel, AllMethodsConvergeForHugeChunks) {
  CostModel m;
  const double total = 216e6;
  const double big_chunk = 27e6;
  const double wire = total / m.nvlink_bw_per_gpu();
  for (const auto method :
       {CopyMethod::ManyMemcpyAsync, CopyMethod::Memcpy2DAsync}) {
    EXPECT_LT(m.strided_copy_time(method, total, big_chunk), 1.2 * wire);
  }
}

TEST(CostModel, FinerGranularityNeverFaster) {
  // Fig. 7's second conclusion: more, smaller chunks cannot speed up moving
  // a fixed total.
  CostModel m;
  const double total = 216e6;
  for (const auto method : {CopyMethod::ManyMemcpyAsync,
                            CopyMethod::Memcpy2DAsync, CopyMethod::ZeroCopy}) {
    double prev = 1e300;
    for (double chunk = 2.2e3; chunk < 30e6; chunk *= 2.0) {
      const double t = m.strided_copy_time(method, total, chunk);
      EXPECT_LE(t, prev * 1.0001) << to_string(method) << " chunk=" << chunk;
      prev = t;
    }
  }
}

TEST(CostModel, ZeroCopyBandwidthRampsWithBlocks) {
  // Fig. 8: bandwidth grows with block count, then saturates near the
  // copy-engine (NVLink) line; ~16 blocks already reach it.
  CostModel m;
  const double chunk = 18e3;
  EXPECT_LT(m.zero_copy_bw(1, chunk), m.zero_copy_bw(4, chunk));
  EXPECT_LT(m.zero_copy_bw(4, chunk), m.zero_copy_bw(16, chunk));
  EXPECT_NEAR(m.zero_copy_bw(16, chunk), m.zero_copy_bw(160, chunk),
              0.05 * m.zero_copy_bw(160, chunk));
  EXPECT_GT(m.zero_copy_bw(16, chunk), 0.8 * m.nvlink_bw_per_gpu() *
                                            (chunk / (chunk + 512.0)));
}

TEST(CostModel, FftTimeScalesNLogN) {
  CostModel m;
  const double t1 = m.fft_time(1e6, 1024);
  const double t2 = m.fft_time(1e6, 2048);
  EXPECT_NEAR(t2 / t1, 2.0 * 11.0 / 10.0, 0.01);  // 2x points, log 10->11
  EXPECT_DOUBLE_EQ(m.fft_time(0, 1024), 0.0);
}

TEST(CostModel, SmStealFactorGrowsWithBlocks) {
  CostModel m;
  EXPECT_NEAR(m.sm_steal_factor(0), 1.0, 1e-12);
  EXPECT_GT(m.sm_steal_factor(16), 1.0);
  EXPECT_GT(m.sm_steal_factor(80), m.sm_steal_factor(16));
}

// --- virtual GPU on the DES ---

struct Rig {
  sim::Engine engine;
  sim::FlowNetwork net{engine};
  sim::LinkId nvlink;
  sim::LinkId bus;
  sim::DagRunner dag{engine, net};

  Rig() {
    CostModel costs;
    nvlink = net.add_link("nvlink0", costs.nvlink_bw_per_gpu());
    bus = net.add_link("socket_bus",
                       costs.spec().node.host_mem_bw_per_socket);
  }
};

TEST(VirtualGpu, LoneCopyMatchesCostModel) {
  Rig rig;
  CostModel costs;
  VirtualGpu g(rig.dag, {rig.nvlink, rig.bus}, costs, "gpu0");
  const double total = 216e6, chunk = 18e3;
  g.copy(g.transfer_stream(), "h2d", total, chunk, CopyMethod::Memcpy2DAsync);
  const double makespan = rig.dag.run();
  EXPECT_NEAR(makespan,
              costs.strided_copy_time(CopyMethod::Memcpy2DAsync, total, chunk),
              1e-9);
}

TEST(VirtualGpu, TransferStreamSerializesCopies) {
  Rig rig;
  VirtualGpu g(rig.dag, {rig.nvlink, rig.bus}, CostModel{}, "gpu0");
  g.copy(g.transfer_stream(), "a", 100e6, 1e6, CopyMethod::Memcpy2DAsync);
  g.copy(g.transfer_stream(), "b", 100e6, 1e6, CopyMethod::Memcpy2DAsync);
  const double makespan = rig.dag.run();
  // Serial: ~2 * (100 MB / 50 GB/s) = ~4 ms.
  EXPECT_GT(makespan, 3.9e-3);
}

TEST(VirtualGpu, ComputeOverlapsTransfer) {
  Rig rig;
  VirtualGpu g(rig.dag, {rig.nvlink, rig.bus}, CostModel{}, "gpu0");
  g.copy(g.transfer_stream(), "h2d", 100e6, 1e6, CopyMethod::Memcpy2DAsync);
  g.kernel(g.compute_stream(), "fft", 2e-3);
  const double makespan = rig.dag.run();
  EXPECT_LT(makespan, 2.3e-3);  // overlapped, not 2 ms + 2 ms
}

TEST(VirtualGpu, EventDependencyOrdersAcrossStreams) {
  Rig rig;
  VirtualGpu g(rig.dag, {rig.nvlink, rig.bus}, CostModel{}, "gpu0");
  const auto h2d = g.copy(g.transfer_stream(), "h2d", 100e6, 1e6,
                          CopyMethod::Memcpy2DAsync);
  const auto fft = g.kernel(g.compute_stream(), "fft", 1e-3, {h2d});
  const double makespan = rig.dag.run();
  EXPECT_GT(rig.dag.start_time(fft), 1.9e-3);
  EXPECT_NEAR(makespan, rig.dag.finish_time(fft), 1e-12);
}

TEST(VirtualGpu, StreamsTraceOnTheGpusRank) {
  Rig rig;
  VirtualGpu g(rig.dag, {rig.nvlink, rig.bus}, CostModel{}, "r1.g0",
               /*rank=*/1);
  const auto h2d = g.copy(g.transfer_stream(), "h2d", 1e6, 1e6,
                          CopyMethod::Memcpy2DAsync);
  g.kernel(g.compute_stream(), "fft", 1e-3, {h2d});
  rig.dag.run();
  const obs::SpanTrace trace = rig.dag.trace();
  ASSERT_EQ(trace.spans.size(), 2u);
  EXPECT_EQ(trace.spans[0].kind, obs::SpanKind::Transfer);
  EXPECT_EQ(trace.spans[1].kind, obs::SpanKind::Compute);
  EXPECT_EQ(trace.spans[0].rank, 1);
  EXPECT_EQ(trace.spans[1].rank, 1);
  EXPECT_EQ(trace.thread_names,
            (std::vector<std::string>{"r1.g0.compute", "r1.g0.transfer"}));
  ASSERT_EQ(trace.edges.size(), 1u);  // the event dependency
}

TEST(VirtualGpu, ThreeGpusContendOnSocketBus) {
  // 3 GPUs pull H2D simultaneously: each NVLink is 50 GB/s but the socket
  // bus is 135 GB/s, so each effectively gets 45 GB/s.
  sim::Engine engine;
  sim::FlowNetwork net(engine);
  CostModel costs;
  const auto bus =
      net.add_link("bus", costs.spec().node.host_mem_bw_per_socket);
  sim::DagRunner dag(engine, net);
  std::vector<VirtualGpu> gpus;
  gpus.reserve(3);
  for (int i = 0; i < 3; ++i) {
    const auto nvl = net.add_link("nvl" + std::to_string(i),
                                  costs.nvlink_bw_per_gpu());
    gpus.emplace_back(dag, GpuLinks{nvl, bus}, costs, "g" + std::to_string(i));
  }
  for (auto& g : gpus) {
    g.copy(g.transfer_stream(), "h2d", 90e6, 90e6, CopyMethod::Memcpy2DAsync);
  }
  const double makespan = dag.run();
  EXPECT_NEAR(makespan, 90e6 / 45e9, 0.1e-3);
}

}  // namespace
}  // namespace psdns::gpu
