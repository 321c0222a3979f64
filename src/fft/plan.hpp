#pragma once
// Plan-based 1-D complex-to-complex FFT API, mirroring the shape of
// cuFFT/FFTW plans: a plan is built once per (length), is immutable and
// thread-safe, and supports batched and strided execution (cuFFT "advanced
// data layout": count / stride / dist).

#include <cstddef>
#include <memory>

#include "fft/types.hpp"

namespace psdns::fft {

class StockhamEngine;

/// Batched layout: element k of batch b lives at data[b*dist + k*stride].
/// The output may use its own element stride (out_stride; 0 = stride), so a
/// pass can read one pitched plane and write another.
struct BatchLayout {
  std::size_t count = 1;   // number of transforms
  std::size_t stride = 1;  // distance between successive elements of one line
  std::size_t dist = 0;    // distance between first elements of lines
  std::size_t out_stride = 0;  // stride of the output lines (0 = stride)
};

/// Cache-block width of the batched path: how many lines of length n are
/// gathered into contiguous scratch and transformed together. Sized so the
/// two ping-pong staging buffers stay cache-resident for common line
/// lengths, with a floor that keeps the batch-innermost loops vectorizable.
std::size_t batch_block_lines(std::size_t n);

/// Lines per block of the half-length real transforms (PlanR2C) of length
/// n = 2h: the block and the engine's one staging buffer, about 16 KiB each,
/// stay resident in L1 through the pre-step, every Stockham stage and the
/// unravel. A power of two in [2, 64], so every block starts on an even
/// line (the AVX2 kernels pair adjacent lines) and divides the c2c block
/// of the same length up to h = 512.
std::size_t real_block_lines(std::size_t h);

class PlanC2C {
 public:
  explicit PlanC2C(std::size_t n);
  ~PlanC2C();
  PlanC2C(PlanC2C&&) noexcept;
  PlanC2C& operator=(PlanC2C&&) noexcept;
  PlanC2C(const PlanC2C&) = delete;
  PlanC2C& operator=(const PlanC2C&) = delete;

  std::size_t size() const { return n_; }

  /// Contiguous transform; in == out (in-place) is allowed. Inverse is
  /// unnormalized (as with FFTW/cuFFT).
  void transform(Direction dir, const Complex* in, Complex* out) const;

  /// Batched transform; the output layout differs from the input's only
  /// in layout.out_stride. For smooth lengths this is the fast path: blocks
  /// of batch_block_lines(n) strided lines are gathered into contiguous
  /// scratch (batch-innermost), run through the iterative Stockham engine
  /// in one streaming pass per stage, and scattered back. Non-smooth lengths run each line through the
  /// Bluestein engine into per-thread scratch and scatter it back. in ==
  /// out (fully in-place) is allowed when the two strides are equal.
  void transform_batch(Direction dir, const Complex* in, Complex* out,
                       const BatchLayout& layout) const;

  /// The batched smooth-length engine, or nullptr when this length routes
  /// through Bluestein. Lets the real-transform plans batch their
  /// half-length transforms without re-gathering.
  const StockhamEngine* stockham() const;

  /// Scales `count` elements by 1/n (normalizing a Forward+Inverse pair).
  void normalize(Complex* data, std::size_t count) const;

 private:
  struct Impl;
  std::size_t n_;
  std::unique_ptr<Impl> impl_;
};

/// Process-wide plan cache; returns a shared immutable plan for length n.
/// Thread-safe.
std::shared_ptr<const PlanC2C> get_plan(std::size_t n);

}  // namespace psdns::fft
