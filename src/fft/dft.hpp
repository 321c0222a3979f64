#pragma once
// Naive O(n^2) reference DFT, used by the tests as the ground truth.

#include <cstddef>

#include "fft/types.hpp"

namespace psdns::fft {

/// out[k] = sum_j in[j] * exp(-+ 2*pi*i*j*k/n). Out-of-place; in != out.
void dft_reference(Direction dir, std::size_t n, const Complex* in,
                   Complex* out);

}  // namespace psdns::fft
