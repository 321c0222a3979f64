#pragma once
// Bluestein chirp-z transform: complex FFT of arbitrary length n via a
// power-of-two convolution of size >= 2n-1. Covers lengths with a prime
// factor above kMaxDirectPrime, which the Stockham engine does not accept;
// the convolution itself runs as a batch-1 Stockham transform.

#include <cstddef>
#include <vector>

#include "fft/stockham.hpp"
#include "fft/types.hpp"

namespace psdns::fft {

class BluesteinEngine {
 public:
  explicit BluesteinEngine(std::size_t n);

  std::size_t size() const { return n_; }

  /// out[k] = sum_j in[j*in_stride] * exp(-+ 2*pi*i*j*k/n) for k in [0, n),
  /// written contiguously. Inverse is unnormalized. `out` must not alias
  /// the input sequence. Allocation-free once the calling thread's two
  /// convolution buffers have grown to size m.
  void execute(Direction dir, const Complex* in, std::ptrdiff_t in_stride,
               Complex* out) const;

 private:
  std::size_t n_;
  std::size_t m_;  // convolution length, power of two >= 2n-1
  StockhamEngine conv_;
  std::vector<Complex> chirp_;       // exp(-i*pi*k^2/n), k in [0, n)
  std::vector<Complex> kernel_fft_;  // FFT of the forward chirp kernel
};

}  // namespace psdns::fft
