// AVX2 instantiation of the real-transform pre-step and unravel
// (real_kernels.hpp). Compiled with -mavx2 -mfma like stockham_avx2.cpp,
// and with -ffp-contract=off so the unfused pack operations stay unfused:
// the results are bitwise those of the scalar twin in real.cpp.

#include "fft/real.hpp"
#include "fft/real_kernels.hpp"

#if !defined(__AVX2__) || !defined(__FMA__)
#error "real_avx2.cpp must be compiled with -mavx2 -mfma"
#endif

namespace psdns::fft::detail {

void c2r_prestep_avx2(const Complex* in, std::size_t in_dist, std::size_t nb,
                      std::size_t h, std::size_t kept, const Complex* omega,
                      Complex* z) {
  c2r_prestep_impl<util::simd::Avx2Pack>(in, in_dist, nb, h, kept, omega, z);
}

void r2c_unravel_avx2(const Complex* z, std::size_t nb, std::size_t h,
                      std::size_t kept, const Complex* omega, Complex* out,
                      std::size_t out_dist) {
  r2c_unravel_impl<util::simd::Avx2Pack>(z, nb, h, kept, omega, out,
                                         out_dist);
}

}  // namespace psdns::fft::detail
