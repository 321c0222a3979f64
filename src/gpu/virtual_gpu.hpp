#pragma once
// Virtual GPU: a CUDA-runtime-shaped facade over the DAG runner.
//
// Streams are DAG lanes (FIFO issue order, exactly CUDA stream semantics)
// of the GPU's rank; events are just OpIds passed as cross-stream
// dependencies; copies are bandwidth-shaped flows traversing this GPU's
// NVLink and its socket's host memory bus, so concurrent copies and MPI
// traffic contend the same way the paper measured on Summit (Sec. 5.2).
// Kernels trace as Compute spans, copies in either direction as Transfer
// spans.

#include <string>
#include <vector>

#include "gpu/cost_model.hpp"
#include "sim/dag.hpp"

namespace psdns::gpu {

/// The shared-bandwidth resources one GPU touches.
struct GpuLinks {
  sim::LinkId nvlink;    // this GPU's CPU<->GPU link (50 GB/s on Summit)
  sim::LinkId host_bus;  // its socket's memory bus (135 GB/s, shared)
};

class VirtualGpu {
 public:
  VirtualGpu(sim::DagRunner& dag, GpuLinks links, const CostModel& costs,
             std::string name, int rank = -1);

  /// The two streams of the paper's algorithm (Sec. 3.4): one for compute,
  /// one for all transfers (a single transfer stream keeps host-bus traffic
  /// unidirectional).
  sim::LaneId compute_stream() const { return compute_; }
  sim::LaneId transfer_stream() const { return transfer_; }

  sim::LaneId create_stream(const std::string& suffix);

  /// Strided copy of `total_bytes` in contiguous chunks of `chunk_bytes`
  /// using `method`, host->device or device->host alike (on Summit the D2H
  /// doubles as the pack for MPI, Sec. 3.4). Fixed overheads (API calls,
  /// per-row descriptor setup) are charged serially on the stream; the wire
  /// time is a flow through NVLink + host bus.
  sim::OpId copy(sim::LaneId stream, std::string label, double total_bytes,
                 double chunk_bytes, CopyMethod method,
                 const std::vector<sim::OpId>& deps = {});

  /// Batched 1-D FFT kernel: `lines` transforms of length `length`.
  sim::OpId fft(sim::LaneId stream, std::string label, double lines,
                double length, const std::vector<sim::OpId>& deps = {});

  /// Streaming pointwise kernel over `bytes` of HBM traffic.
  sim::OpId pointwise(sim::LaneId stream, std::string label, double bytes,
                      const std::vector<sim::OpId>& deps = {});

  /// Raw kernel with an explicit duration.
  sim::OpId kernel(sim::LaneId stream, std::string label, double duration,
                   const std::vector<sim::OpId>& deps = {});

  const CostModel& costs() const { return costs_; }

 private:
  sim::DagRunner& dag_;
  GpuLinks links_;
  CostModel costs_;
  std::string name_;
  int rank_;
  sim::LaneId compute_;
  sim::LaneId transfer_;
};

}  // namespace psdns::gpu
