#pragma once
// Real <-> complex 1-D transforms using the half-length complex trick for
// even lengths whose half is smooth (the DNS takes complex-to-real
// transforms in the unit-stride x direction, exactly as Sec. 3.3 of the
// paper describes). Other lengths run the full-length complex plan.
//
// Conventions match FFTW: forward(x) yields the first n/2+1 coefficients of
// the DFT of x; inverse is unnormalized, so inverse(forward(x)) == n * x.

#include <cstddef>
#include <memory>
#include <vector>

#include "fft/plan.hpp"
#include "fft/types.hpp"

namespace psdns::fft {

class PlanR2C {
 public:
  explicit PlanR2C(std::size_t n);

  std::size_t size() const { return n_; }
  std::size_t spectrum_size() const { return n_ / 2 + 1; }

  /// out[k], k in [0, n/2], = sum_j in[j] exp(-2*pi*i*j*k/n). Out-of-place;
  /// forward_batch at count 1.
  void forward(const Real* in, Complex* out) const;

  /// Inverse of `forward`, unnormalized (result is n * original signal).
  /// Out-of-place; `in` must hold spectrum_size() coefficients.
  /// inverse_batch at count 1.
  void inverse(const Complex* in, Real* out) const;

  /// Batched forward over `count` lines: line b reads n reals starting at
  /// in[b*in_dist] and writes its first `kept` coefficients (0, the
  /// default, means spectrum_size()) starting at out[b*out_dist]. Even
  /// lengths with a smooth half run blocks of lines through the batched
  /// Stockham half-length engine (pack, transform, unravel all vectorize
  /// across the batch); other lengths take one full-length complex
  /// transform per line. Every written coefficient is bitwise the same at
  /// any `kept`.
  void forward_batch(const Real* in, std::size_t in_dist, Complex* out,
                     std::size_t out_dist, std::size_t count,
                     std::size_t kept = 0) const;

  /// Batched inverse, same layout contract as forward_batch: line b reads
  /// its first `kept` coefficients and takes the rest as zero, bitwise the
  /// inverse of the spectrum zeroed from `kept` on.
  void inverse_batch(const Complex* in, std::size_t in_dist, Real* out,
                     std::size_t out_dist, std::size_t count,
                     std::size_t kept = 0) const;

 private:
  /// `kept`, or spectrum_size() for 0; rejects a count past the spectrum.
  std::size_t kept_count(std::size_t kept) const;

  std::size_t n_;
  std::shared_ptr<const PlanC2C> half_;  // length n/2 plan (smooth n/2)
  std::shared_ptr<const PlanC2C> full_;  // length n plan (all other n)
  std::vector<Complex> omega_;           // exp(-2*pi*i*k/n), k in [0, n/2]
};

/// Process-wide plan cache for real transforms. Thread-safe.
std::shared_ptr<const PlanR2C> get_plan_r2c(std::size_t n);

}  // namespace psdns::fft
