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
  /// lengths with a smooth half copy each block of lines into the block
  /// layout and run forward_blocks' core on it; other lengths take one
  /// full-length complex transform per line. Every written coefficient is
  /// bitwise the same at any `kept`.
  void forward_batch(const Real* in, std::size_t in_dist, Complex* out,
                     std::size_t out_dist, std::size_t count,
                     std::size_t kept = 0) const;

  /// Batched inverse, same layout contract as forward_batch: line b reads
  /// its first `kept` coefficients and takes the rest as zero, bitwise the
  /// inverse of the spectrum zeroed from `kept` on.
  void inverse_batch(const Complex* in, std::size_t in_dist, Real* out,
                     std::size_t out_dist, std::size_t count,
                     std::size_t kept = 0) const;

  /// Lines per block of the block layout: real_block_lines(n/2).
  std::size_t block_lines() const;

  /// The block layout of `count` real lines, the order the half-length
  /// engine works in. The lines split into blocks of B = block_lines();
  /// block i holds lines [i*B, i*B + nb), nb = min(B, count - i*B), in the
  /// n*nb reals from phys + i*B*n, and keeps the real pair (x[2j],
  /// x[2j+1]) of its line b as complex element b + nb*j:
  ///   x[2j + c] of line i*B + b  is  phys[i*B*n + 2*(b + nb*j) + c].
  /// A length without a half-length engine uses the natural layout (x[j]
  /// of line l is phys[l*n + j]). A caller that only applies a pointwise
  /// operation between inverse_blocks and forward_blocks (the round trip's
  /// products) never needs the permutation.
  ///
  /// inverse_batch into the block layout: the c2r runs in each block
  /// in place, with no scatter, and writes bitwise the reals
  /// inverse_batch(in, in_dist, ., n, count, kept) writes, permuted.
  void inverse_blocks(const Complex* in, std::size_t in_dist, Real* phys,
                      std::size_t count, std::size_t kept = 0) const;

  /// forward_batch from the block layout: bitwise
  /// forward_batch(natural phys, n, out, out_dist, count, kept). The
  /// transform consumes `phys` (its contents are unspecified after).
  void forward_blocks(Real* phys, Complex* out, std::size_t out_dist,
                      std::size_t count, std::size_t kept = 0) const;

 private:
  /// `kept`, or spectrum_size() for 0; rejects a count past the spectrum.
  std::size_t kept_count(std::size_t kept) const;
  /// body(b0, nb, work) for every block of `count` lines, striped across
  /// the worker pool; `work` is the calling thread's engine staging.
  template <class Body>
  void for_each_block(std::size_t count, Body&& body) const;
  /// The block core (half-length plans): c2r of nb spectra into the block
  /// `blk` (nb*h complex, block layout), and r2c of such a block, which it
  /// consumes, into nb spectra. `work` is nb*h complex of staging.
  void inverse_block(const Complex* in, std::size_t in_dist, std::size_t nb,
                     std::size_t kept, Complex* blk, Complex* work) const;
  void forward_block(Complex* blk, std::size_t nb, Complex* out,
                     std::size_t out_dist, std::size_t kept,
                     Complex* work) const;

  std::size_t n_;
  std::shared_ptr<const PlanC2C> half_;  // length n/2 plan (smooth n/2)
  std::shared_ptr<const PlanC2C> full_;  // length n plan (all other n)
  std::vector<Complex> omega_;           // exp(-2*pi*i*k/n), k in [0, n/2]
};

namespace detail {

/// c2r pre-step of nb lines (coefficient k of line b at in[b*in_dist + k],
/// those from `kept` on read as zero) into the batch-innermost half-length
/// spectrum z[b + nb*k], k < h, scaled by 2 (real_kernels.hpp). `omega`
/// holds exp(-2*pi*i*k/n), k in [0, h].
void c2r_prestep_scalar(const Complex* in, std::size_t in_dist,
                        std::size_t nb, std::size_t h, std::size_t kept,
                        const Complex* omega, Complex* z);
/// r2c unravel of the half-length spectra z[b + nb*k] into coefficients
/// [0, kept) of out[b*out_dist + k].
void r2c_unravel_scalar(const Complex* z, std::size_t nb, std::size_t h,
                        std::size_t kept, const Complex* omega, Complex* out,
                        std::size_t out_dist);
#if defined(PSDNS_HAVE_AVX2)
/// AVX2 instantiations (real_avx2.cpp): bitwise the scalar ones; call only
/// when util::simd::avx2_supported().
void c2r_prestep_avx2(const Complex* in, std::size_t in_dist, std::size_t nb,
                      std::size_t h, std::size_t kept, const Complex* omega,
                      Complex* z);
void r2c_unravel_avx2(const Complex* z, std::size_t nb, std::size_t h,
                      std::size_t kept, const Complex* omega, Complex* out,
                      std::size_t out_dist);
#endif

}  // namespace detail

/// Process-wide plan cache for real transforms. Thread-safe.
std::shared_ptr<const PlanR2C> get_plan_r2c(std::size_t n);

}  // namespace psdns::fft
