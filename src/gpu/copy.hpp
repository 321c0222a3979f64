#pragma once
// Functional strided-copy primitives mirroring the data-movement APIs the
// paper's code uses on the device:
//   - memcpy2d: the cudaMemcpy2DAsync shape (pitched rows of contiguous
//     elements), used for H2D/D2H pencil copies and the pack-on-copy.
//   - gather/scatter: the custom zero-copy kernel shape (arbitrary index
//     mapping), used for unpacking after the all-to-all.
// These run on the host here; the performance of their device counterparts
// is modeled separately in gpu::CostModel.

#include <cstddef>
#include <span>
#include <vector>

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

/// dst[i] = src[index[i]] - the zero-copy kernel's read pattern.
template <class T>
void gather(T* dst, const T* src, std::span<const std::size_t> index) {
  for (std::size_t i = 0; i < index.size(); ++i) dst[i] = src[index[i]];
}

/// dst[index[i]] = src[i] - the zero-copy kernel's scatter pattern.
template <class T>
void scatter(T* dst, const T* src, std::span<const std::size_t> index) {
  for (std::size_t i = 0; i < index.size(); ++i) dst[index[i]] = src[i];
}

}  // namespace psdns::gpu
