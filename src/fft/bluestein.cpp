#include "fft/bluestein.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "fft/factor.hpp"
#include "util/arena.hpp"
#include "util/check.hpp"

namespace psdns::fft {

namespace {

// The convolution's ping-pong pair, per thread and checked out of the
// workspace arena, so a warmed execute() never touches the heap.
util::WorkspaceArena::Handle<Complex>& conv_scratch(std::size_t slot,
                                                    std::size_t m) {
  thread_local util::WorkspaceArena::Handle<Complex> buf[2];
  buf[slot].ensure(m);
  return buf[slot];
}

}  // namespace

BluesteinEngine::BluesteinEngine(std::size_t n)
    : n_(n), m_(next_pow2(2 * n - 1)), conv_(m_) {
  PSDNS_REQUIRE(n >= 1, "transform length must be positive");

  chirp_.resize(n_);
  // k^2 mod 2n keeps the phase argument exact for large k.
  const double base = -std::numbers::pi / static_cast<double>(n_);
  for (std::size_t k = 0; k < n_; ++k) {
    const std::size_t k2 = (k * k) % (2 * n_);
    const double phase = base * static_cast<double>(k2);
    chirp_[k] = Complex{std::cos(phase), std::sin(phase)};
  }

  // Convolution kernel b[k] = conj(chirp[|k|]) laid out circularly, then
  // transformed once at plan time; the result lands in kernel_fft_.
  kernel_fft_.assign(m_, Complex{0.0, 0.0});
  std::vector<Complex> work(m_, Complex{0.0, 0.0});
  std::vector<Complex>& b = conv_.prefers_work_input() ? work : kernel_fft_;
  b[0] = std::conj(chirp_[0]);
  for (std::size_t k = 1; k < n_; ++k) {
    b[k] = std::conj(chirp_[k]);
    b[m_ - k] = std::conj(chirp_[k]);
  }
  conv_.execute_batch(Direction::Forward, kernel_fft_.data(), work.data(), 1);
}

void BluesteinEngine::execute(Direction dir, const Complex* in,
                              std::ptrdiff_t in_stride, Complex* out) const {
  const bool inverse = dir == Direction::Inverse;
  auto chirp = [&](std::size_t k) {
    const Complex c = chirp_[k];
    return inverse ? std::conj(c) : c;
  };

  // execute_batch reads its input from `work` or `data` by stage parity and
  // always leaves the result in `data`.
  Complex* data = conv_scratch(0, m_).data();
  Complex* work = conv_scratch(1, m_).data();
  Complex* a = conv_.prefers_work_input() ? work : data;
  for (std::size_t k = 0; k < n_; ++k) {
    a[k] = in[static_cast<std::ptrdiff_t>(k) * in_stride] * chirp(k);
  }
  std::fill(a + n_, a + m_, Complex{0.0, 0.0});
  conv_.execute_batch(Direction::Forward, data, work, 1);

  // Pointwise product with the kernel spectrum, written where the inverse
  // pass reads its input.
  for (std::size_t k = 0; k < m_; ++k) {
    const Complex kf = inverse ? std::conj(kernel_fft_[k]) : kernel_fft_[k];
    a[k] = data[k] * kf;
  }
  conv_.execute_batch(Direction::Inverse, data, work, 1);

  const double scale = 1.0 / static_cast<double>(m_);
  for (std::size_t k = 0; k < n_; ++k) {
    out[k] = data[k] * chirp(k) * scale;
  }
}

}  // namespace psdns::fft
