#include "dns/regrid.hpp"

#include <cstdlib>
#include <vector>

#include "util/check.hpp"

namespace psdns::dns {

void spectral_regrid(SpectralEngine& src, SpectralEngine& dst) {
  PSDNS_REQUIRE(&src.communicator() == &dst.communicator(),
                "src and dst must share a communicator");
  PSDNS_REQUIRE(src.config().system == dst.config().system,
                "src and dst must run the same equation system");
  PSDNS_REQUIRE(src.field_count() == dst.field_count(),
                "src and dst must carry the same fields (scalars)");
  auto& comm = src.communicator();
  const bool root = comm.rank() == 0;

  const std::size_t ns = src.n();
  const std::size_t nd = dst.n();
  const std::size_t nxh_s = ns / 2 + 1;
  const std::size_t nxh_d = nd / 2 + 1;
  const std::size_t nfields = src.field_count();

  // Rank 0 gathers each source field to its global layout, resamples it
  // onto the destination's global layout by wavenumber, and scatters that
  // to the destination blocks.
  std::vector<Complex> src_global(root ? nxh_s * ns * ns : 0);
  std::vector<Complex> dst_global(root ? nxh_d * nd * nd : 0);
  std::vector<std::vector<Complex>> out(
      nfields, std::vector<Complex>(dst.modes().local_modes()));

  const int half_s = static_cast<int>(ns) / 2;
  for (std::size_t f = 0; f < nfields; ++f) {
    gather_global_field(src, f, src_global.data());
    if (root) {
      for (std::size_t jz = 0; jz < nd; ++jz) {
        const int kz = transpose::wrap_wavenumber(jz, nd);
        for (std::size_t jy = 0; jy < nd; ++jy) {
          const int ky = transpose::wrap_wavenumber(jy, nd);
          for (std::size_t kx = 0; kx < nxh_d; ++kx) {
            Complex& o = dst_global[kx + nxh_d * (jy + nd * jz)];
            if (static_cast<int>(kx) > half_s || std::abs(ky) > half_s ||
                std::abs(kz) > half_s) {
              o = Complex{0.0, 0.0};  // beyond the source grid (upsampling)
              continue;
            }
            // Source storage indices: ky/kz wrap negatives to the upper
            // half of the source axis.
            const auto sy = static_cast<std::size_t>(
                ky >= 0 ? ky : ky + static_cast<int>(ns));
            const auto sz = static_cast<std::size_t>(
                kz >= 0 ? kz : kz + static_cast<int>(ns));
            o = src_global[kx + nxh_s * (sy + ns * sz)];
          }
        }
      }
    }
    scatter_global_field(dst, dst_global.data(), out[f].data());
  }

  // restore() truncates with dst's own dealiasing rule, which removes
  // whatever downsampling brought in above dst's cutoff.
  std::vector<const Complex*> ptrs(nfields);
  for (std::size_t f = 0; f < nfields; ++f) ptrs[f] = out[f].data();
  dst.restore(std::span<const Complex* const>(ptrs.data(), nfields),
              src.time(), src.step_count());
}

}  // namespace psdns::dns
