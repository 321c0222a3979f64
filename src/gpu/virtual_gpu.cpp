#include "gpu/virtual_gpu.hpp"

#include <cmath>

#include "util/check.hpp"

namespace psdns::gpu {

VirtualGpu::VirtualGpu(sim::DagRunner& dag, GpuLinks links,
                       const CostModel& costs, std::string name, int rank)
    : dag_(dag),
      links_(links),
      costs_(costs),
      name_(std::move(name)),
      rank_(rank) {
  compute_ = create_stream("compute");
  transfer_ = create_stream("transfer");
}

sim::LaneId VirtualGpu::create_stream(const std::string& suffix) {
  return dag_.add_lane(name_ + "." + suffix, rank_);
}

sim::OpId VirtualGpu::copy(sim::LaneId stream, std::string label,
                           double total_bytes, double chunk_bytes,
                           CopyMethod method,
                           const std::vector<sim::OpId>& deps) {
  PSDNS_REQUIRE(total_bytes >= 0.0 && chunk_bytes > 0.0, "bad copy shape");
  const auto& api = costs_.spec().api;
  const auto& gspec = costs_.spec().node.gpu;
  const double chunks = std::ceil(total_bytes / chunk_bytes);

  double overhead = 0.0;
  double rate_cap = costs_.nvlink_bw_per_gpu();
  switch (method) {
    case CopyMethod::ManyMemcpyAsync:
      overhead = chunks * api.memcpy_async_call;
      break;
    case CopyMethod::Memcpy2DAsync:
      overhead = api.memcpy2d_call + chunks * gspec.copy_row_setup;
      break;
    case CopyMethod::ZeroCopy:
      overhead = api.kernel_launch;
      rate_cap = costs_.zero_copy_bw(/*blocks=*/16, chunk_bytes);
      break;
  }
  return dag_.add_flow_op(std::move(label), stream, obs::SpanKind::Transfer,
                          total_bytes, {links_.nvlink, links_.host_bus},
                          rate_cap, deps, overhead);
}

sim::OpId VirtualGpu::fft(sim::LaneId stream, std::string label, double lines,
                          double length, const std::vector<sim::OpId>& deps) {
  return dag_.add_op(std::move(label), stream, obs::SpanKind::Compute,
                     costs_.fft_time(lines, length), deps,
                     costs_.spec().api.kernel_launch);
}

sim::OpId VirtualGpu::pointwise(sim::LaneId stream, std::string label,
                                double bytes,
                                const std::vector<sim::OpId>& deps) {
  return dag_.add_op(std::move(label), stream, obs::SpanKind::Compute,
                     costs_.pointwise_time(bytes), deps,
                     costs_.spec().api.kernel_launch);
}

sim::OpId VirtualGpu::kernel(sim::LaneId stream, std::string label,
                             double duration,
                             const std::vector<sim::OpId>& deps) {
  return dag_.add_op(std::move(label), stream, obs::SpanKind::Compute,
                     duration, deps, costs_.spec().api.kernel_launch);
}

}  // namespace psdns::gpu
