#pragma once
// Spectral-side kernels of the half-length real transforms, written once as
// templates over a SIMD pack type and instantiated per backend: real.cpp
// (scalar) and real_avx2.cpp (-mavx2 -mfma). Both translation units are
// compiled with -ffp-contract=off and the kernels use only the packs'
// unfused lane-wise operations, so every backend produces the same bits,
// which are those of the scalar formulas spelled out below.
//
// Both kernels transpose between the spectra (line-major: coefficient k of
// line b at pitch `dist`) and the half-length engine's batch-innermost
// block (element k of line b at z[b + nb*k]). They run as tiles of
// P::width lines x P::width coefficients: load P::width coefficients of
// each line, transpose the tile in registers, and compute with one line
// per lane. Odd line counts, odd coefficient counts and odd h run their
// remainders through the scalar pack.
//
// Internal header: include only from the real-transform translation units.

#include <complex>
#include <cstddef>
#include <utility>

#include "fft/types.hpp"
#include "util/simd.hpp"

namespace psdns::fft::detail {

/// Coefficients [k, k + P::width) of `line`, those from `kept` on as zero.
template <class P>
P load_kept(const Complex* line, std::size_t k, std::size_t kept) {
  if (k + P::width <= kept) return P::load(line + k);
  if (k >= kept) return P::zero();
  Complex t[P::width] = {};
  for (std::size_t i = 0; i < P::width && k + i < kept; ++i) {
    t[i] = line[k + i];
  }
  return P::load(t);
}

/// c2r pre-step of lines [b, b + width) and coefficients [k, k + width):
/// with X = line's spectrum, w' = conj(omega[k]) and
/// c0[j] = (wi', wr'), c1[j] = (wr', -wi') for coefficient k + j,
///   A = X[k] + conj(X[h-k]),  D = X[k] - conj(X[h-k]),
///   bi = dr*wi' + di*wr',  br = dr*wr' - di*wi',
///   Z[k] = A + i*(br + i*bi) = (ar - bi, ai + br),
/// where (bi, br) = dup_re(D)*c0 + dup_im(D)*c1 (adding di*(-wi') is
/// subtracting di*wi'). This is twice the packed half-length spectrum (the
/// c2r's factor 2).
template <class P>
void prestep_tile(const Complex* in, std::size_t in_dist, std::size_t nb,
                  std::size_t h, std::size_t kept, const P* c0, const P* c1,
                  Complex* z, std::size_t b, std::size_t k) {
  constexpr std::size_t W = P::width;
  P xk[W], xm[W];  // coefficients k.. and their mirrors h-k-W+1..h-k
  for (std::size_t i = 0; i < W; ++i) {
    const Complex* line = in + (b + i) * in_dist;
    xk[i] = load_kept<P>(line, k, kept);
    xm[i] = load_kept<P>(line, h - k - (W - 1), kept);
  }
  P::transpose(xk);
  P::transpose(xm);
  for (std::size_t j = 0; j < W; ++j) {
    const P m = xm[W - 1 - j].conj();
    const P a = xk[j] + m;
    const P d = xk[j] - m;
    a.addsub(d.dup_re() * c0[j] + d.dup_im() * c1[j])
        .store(z + (k + j) * nb + b);
  }
}

/// r2c unravel of lines [b, b + width) and coefficients [k, k + width):
/// with Z = the line's half-length spectrum, m = (h-k) mod h, w =
/// omega[k] and c0[j] = (wr, wi), c1[j] = (wi, wr) for coefficient k + j,
///   A = (Z[k] + conj(Z[m])) * 0.5,  D = Z[k] - conj(Z[m]),
///   br = D.im * 0.5,  bi = D.re * -0.5,
///   X[k] = ((ar + br*wr) - bi*wi, (ai + br*wi) + bi*wr)
/// (Z[h] reads Z[0]).
template <class P>
void unravel_tile(const Complex* z, std::size_t nb, std::size_t h,
                  const P* c0, const P* c1, Complex* out,
                  std::size_t out_dist, std::size_t b, std::size_t k) {
  constexpr std::size_t W = P::width;
  const P half = P::broadcast(0.5);
  const P neg_half = P::broadcast(-0.5);
  P x[W];
  for (std::size_t j = 0; j < W; ++j) {
    const std::size_t kj = k + j;
    const std::size_t mj = kj == 0 || kj == h ? 0 : h - kj;
    const P zk = P::load(z + (kj == h ? 0 : kj) * nb + b);
    const P zm = P::load(z + mj * nb + b).conj();
    const P a = (zk + zm) * half;
    const P d = zk - zm;
    x[j] = (a + d.dup_im() * half * c0[j])
               .addsub(d.dup_re() * neg_half * c1[j]);
  }
  P::transpose(x);
  for (std::size_t i = 0; i < W; ++i) x[i].store(out + (b + i) * out_dist + k);
}

/// Runs tile(c0, c1, b, k) over nb lines x coefficients [0, nk), with
/// packs of P on the main rectangle and of the scalar pack on its
/// remainders. Coefficients are the outer loop, so the constant packs
/// c0, c1 of a tile row (splatted from twiddle(omega[k + j])) are built
/// once for all its lines.
template <class P, class Twiddle, class Tile>
void for_each_tile(std::size_t nb, std::size_t nk, const Complex* omega,
                   Twiddle twiddle, Tile tile) {
  using util::simd::ScalarPack;
  constexpr std::size_t W = P::width;
  const std::size_t bmain = nb - nb % W, kmain = nk - nk % W;
  const auto scalar_row = [&](std::size_t k, std::size_t b0) {
    const auto [w0, w1] = twiddle(omega[k]);
    const ScalarPack c0 = ScalarPack::splat(w0), c1 = ScalarPack::splat(w1);
    for (std::size_t b = b0; b < nb; ++b) tile(&c0, &c1, b, k);
  };
  for (std::size_t k = 0; k < kmain; k += W) {
    P c0[W], c1[W];
    for (std::size_t j = 0; j < W; ++j) {
      const auto [w0, w1] = twiddle(omega[k + j]);
      c0[j] = P::splat(w0);
      c1[j] = P::splat(w1);
    }
    for (std::size_t b = 0; b < bmain; b += W) tile(c0, c1, b, k);
    for (std::size_t j = 0; j < W; ++j) scalar_row(k + j, bmain);
  }
  for (std::size_t k = kmain; k < nk; ++k) scalar_row(k, 0);
}

template <class P>
void c2r_prestep_impl(const Complex* in, std::size_t in_dist, std::size_t nb,
                      std::size_t h, std::size_t kept, const Complex* omega,
                      Complex* z) {
  for_each_tile<P>(
      nb, h, omega,
      [](Complex w) {  // w' = conj(w): (wi', wr') and (wr', -wi')
        return std::pair{Complex{-w.imag(), w.real()}, w};
      },
      [=](const auto* c0, const auto* c1, std::size_t b, std::size_t k) {
        prestep_tile(in, in_dist, nb, h, kept, c0, c1, z, b, k);
      });
}

template <class P>
void r2c_unravel_impl(const Complex* z, std::size_t nb, std::size_t h,
                      std::size_t kept, const Complex* omega, Complex* out,
                      std::size_t out_dist) {
  for_each_tile<P>(
      nb, kept, omega,
      [](Complex w) { return std::pair{w, Complex{w.imag(), w.real()}}; },
      [=](const auto* c0, const auto* c1, std::size_t b, std::size_t k) {
        unravel_tile(z, nb, h, c0, c1, out, out_dist, b, k);
      });
}

}  // namespace psdns::fft::detail
