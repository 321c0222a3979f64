#pragma once
// Functional strided copy mirroring the cudaMemcpy2DAsync shape the
// paper's code uses on the device (pitched rows of contiguous elements),
// used for H2D/D2H pencil copies and the pack-on-copy. It runs on the
// host here; the performance of its device counterpart is modeled
// separately in gpu::CostModel.

#include <cstddef>

#include "resilience/fault.hpp"
#include "util/check.hpp"

namespace psdns::gpu {

/// Copies `height` rows of `width` contiguous elements; row r starts at
/// src[r*src_pitch] and lands at dst[r*dst_pitch]. Pitches are in elements
/// and must be >= width. Matches cudaMemcpy2D semantics.
template <class T>
void memcpy2d(T* dst, std::size_t dst_pitch, const T* src,
              std::size_t src_pitch, std::size_t width, std::size_t height) {
  PSDNS_REQUIRE(dst_pitch >= width && src_pitch >= width,
                "pitch must cover the row width");
  // Fault drill hook modeling a failed/partial/corrupt device copy:
  // throw aborts the call, short_write copies only the first half of the
  // rows (a truncated DMA), bit_flip corrupts one bit of the destination.
  const auto fault = resilience::poll(resilience::site::gpu_memcpy2d);
  if (fault == resilience::FaultKind::Throw) {
    throw resilience::InjectedFault(resilience::site::gpu_memcpy2d, *fault);
  }
  const std::size_t rows =
      fault == resilience::FaultKind::ShortWrite ? height / 2 : height;
  for (std::size_t r = 0; r < rows; ++r) {
    const T* s = src + r * src_pitch;
    T* d = dst + r * dst_pitch;
    for (std::size_t c = 0; c < width; ++c) d[c] = s[c];
  }
  if (fault == resilience::FaultKind::BitFlip && width > 0 && height > 0) {
    reinterpret_cast<unsigned char*>(dst)[0] ^= 0x01u;
  }
}

}  // namespace psdns::gpu
