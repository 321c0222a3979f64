#pragma once
// Length factorization: the Stockham engine's radix schedule, the
// smooth/Bluestein split, and Bluestein's power-of-two convolution length.

#include <cstddef>
#include <vector>

namespace psdns::fft {

/// Largest prime factor the Stockham engine's butterflies accept; lengths
/// with a prime factor above this go through Bluestein's algorithm.
inline constexpr std::size_t kMaxDirectPrime = 19;

/// Factors n into primes, smallest first (e.g. 18432 -> 2^11 * 3^2).
std::vector<std::size_t> prime_factors(std::size_t n);

/// True if all prime factors of n are <= kMaxDirectPrime.
bool is_smooth(std::size_t n);

/// Smallest power of two >= n.
std::size_t next_pow2(std::size_t n);

}  // namespace psdns::fft
