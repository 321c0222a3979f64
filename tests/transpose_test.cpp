#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "fft/fft3d.hpp"
#include "obs/registry.hpp"
#include "transpose/dist_fft.hpp"
#include "transpose/pencil.hpp"
#include "transpose/slab.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace psdns::transpose {
namespace {

// Deterministic per-global-index values so every rank can check any element.
Complex cval(std::size_t i, std::size_t j, std::size_t k) {
  util::SplitMix64 sm(1 + i + 1000 * j + 1000000 * k);
  const double a = static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
  const double b = static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
  return Complex{a - 0.5, b - 0.5};
}

double rval(std::size_t i, std::size_t j, std::size_t k) {
  return cval(i, j, k).real();
}

TEST(PencilRange, EvenAndUnevenSplits) {
  EXPECT_EQ(pencil_range(12, 3, 0).x0, 0u);
  EXPECT_EQ(pencil_range(12, 3, 0).x1, 4u);
  EXPECT_EQ(pencil_range(12, 3, 2).x1, 12u);
  // nxh = 17 over 4 pencils: 4,4,4,5.
  EXPECT_EQ(pencil_range(17, 4, 0).width(), 4u);
  EXPECT_EQ(pencil_range(17, 4, 3).width(), 5u);
  EXPECT_EQ(pencil_range(17, 4, 3).x1, 17u);
  EXPECT_THROW(pencil_range(8, 2, 2), util::Error);
}

class SlabTransposeP : public ::testing::TestWithParam<int> {};

TEST_P(SlabTransposeP, ZToYPlacesEveryElement) {
  const int P = GetParam();
  const std::size_t nxh = 9, ny = 8, nz = 16;
  comm::run_ranks(P, [&](comm::Communicator& comm) {
    SlabGrid grid{nxh, ny, nz, P};
    SlabTranspose tp(comm, grid);
    const std::size_t mz = grid.mz(), my = grid.my();
    const std::size_t z0 = static_cast<std::size_t>(comm.rank()) * mz;
    const std::size_t y0 = static_cast<std::size_t>(comm.rank()) * my;

    std::vector<Complex> a(grid.zslab_elems());
    for (std::size_t kk = 0; kk < mz; ++kk) {
      for (std::size_t j = 0; j < ny; ++j) {
        for (std::size_t i = 0; i < nxh; ++i) {
          a[i + nxh * (j + ny * kk)] = cval(i, j, z0 + kk);
        }
      }
    }
    std::vector<Complex> b(grid.yslab_elems(), Complex{-9, -9});
    const Complex* ap = a.data();
    Complex* bp = b.data();
    tp.z_to_y(std::span<const Complex* const>(&ap, 1),
              std::span<Complex* const>(&bp, 1));

    for (std::size_t jj = 0; jj < my; ++jj) {
      for (std::size_t k = 0; k < nz; ++k) {
        for (std::size_t i = 0; i < nxh; ++i) {
          EXPECT_EQ(b[i + nxh * (k + nz * jj)], cval(i, y0 + jj, k))
              << "rank=" << comm.rank() << " i=" << i << " k=" << k
              << " jj=" << jj;
        }
      }
    }
  });
}

TEST_P(SlabTransposeP, RoundTripIsIdentity) {
  const int P = GetParam();
  const std::size_t nxh = 5, ny = 8, nz = 8;
  comm::run_ranks(P, [&](comm::Communicator& comm) {
    SlabGrid grid{nxh, ny, nz, P};
    SlabTranspose tp(comm, grid);
    util::Rng rng(77, static_cast<std::uint64_t>(comm.rank()));
    std::vector<Complex> a(grid.zslab_elems());
    for (auto& c : a) c = Complex{rng.gaussian(), rng.gaussian()};
    const auto orig = a;
    std::vector<Complex> b(grid.yslab_elems());
    const Complex* ap = a.data();
    Complex* bp = b.data();
    tp.z_to_y(std::span<const Complex* const>(&ap, 1),
              std::span<Complex* const>(&bp, 1));
    const Complex* bcp = b.data();
    Complex* amp = a.data();
    tp.y_to_z(std::span<const Complex* const>(&bcp, 1),
              std::span<Complex* const>(&amp, 1));
    EXPECT_EQ(a, orig);
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, SlabTransposeP, ::testing::Values(1, 2, 4, 8),
                         [](const ::testing::TestParamInfo<int>& pinfo) {
                           return "P" + std::to_string(pinfo.param);
                         });

TEST(SlabTranspose, PencilBatchingMatchesWholeSlab) {
  // np pencils, various Q groupings: all must equal the single all-to-all.
  const int P = 4;
  const std::size_t nxh = 13, ny = 8, nz = 8;
  comm::run_ranks(P, [&](comm::Communicator& comm) {
    SlabGrid grid{nxh, ny, nz, P};
    SlabTranspose tp(comm, grid);
    util::Rng rng(5, static_cast<std::uint64_t>(comm.rank()));
    std::vector<Complex> a(grid.zslab_elems());
    for (auto& c : a) c = Complex{rng.gaussian(), rng.gaussian()};

    std::vector<Complex> whole(grid.yslab_elems(), Complex{0, 0});
    const Complex* ap = a.data();
    Complex* wp = whole.data();
    tp.z_to_y(std::span<const Complex* const>(&ap, 1),
              std::span<Complex* const>(&wp, 1), 1, 1);

    for (const auto& [np, q] : {std::pair{4, 1}, {4, 2}, {4, 4}, {3, 2}}) {
      std::vector<Complex> batched(grid.yslab_elems(), Complex{0, 0});
      Complex* bp = batched.data();
      tp.z_to_y(std::span<const Complex* const>(&ap, 1),
                std::span<Complex* const>(&bp, 1), np, q);
      EXPECT_EQ(batched, whole) << "np=" << np << " q=" << q;
    }
  });
}

TEST(SlabTranspose, MultipleVariablesInOneMessage) {
  const int P = 2;
  const std::size_t nxh = 4, ny = 4, nz = 4;
  comm::run_ranks(P, [&](comm::Communicator& comm) {
    SlabGrid grid{nxh, ny, nz, P};
    SlabTranspose tp(comm, grid);
    const std::size_t z0 = static_cast<std::size_t>(comm.rank()) * grid.mz();
    std::vector<std::vector<Complex>> a(3);
    std::vector<const Complex*> aps(3);
    for (std::size_t v = 0; v < 3; ++v) {
      a[v].resize(grid.zslab_elems());
      for (std::size_t kk = 0; kk < grid.mz(); ++kk) {
        for (std::size_t j = 0; j < ny; ++j) {
          for (std::size_t i = 0; i < nxh; ++i) {
            a[v][i + nxh * (j + ny * kk)] =
                cval(i, j, z0 + kk) + Complex{static_cast<double>(v), 0};
          }
        }
      }
      aps[v] = a[v].data();
    }
    std::vector<std::vector<Complex>> b(3);
    std::vector<Complex*> bps(3);
    for (std::size_t v = 0; v < 3; ++v) {
      b[v].resize(grid.yslab_elems());
      bps[v] = b[v].data();
    }
    tp.z_to_y(std::span<const Complex* const>(aps.data(), 3),
              std::span<Complex* const>(bps.data(), 3));
    const std::size_t y0 = static_cast<std::size_t>(comm.rank()) * grid.my();
    for (std::size_t v = 0; v < 3; ++v) {
      for (std::size_t jj = 0; jj < grid.my(); ++jj) {
        for (std::size_t k = 0; k < nz; ++k) {
          for (std::size_t i = 0; i < nxh; ++i) {
            const Complex want =
                cval(i, y0 + jj, k) + Complex{static_cast<double>(v), 0};
            EXPECT_EQ(b[v][i + nxh * (k + nz * jj)], want);
          }
        }
      }
    }
  });
}

// The one-copy exchange against the retained staged composition: for every
// chunk, pack -> alltoall -> unpack must leave the destination bitwise equal
// to z_to_y / y_to_z, including the uneven last chunk of a grouping.
class SlabStagedEquivalenceP : public ::testing::TestWithParam<int> {};

TEST_P(SlabStagedEquivalenceP, OneCopyExchangeEqualsPackAlltoallUnpack) {
  const int P = GetParam();
  const std::size_t nxh = 9, ny = 8, nz = 8, nvars = 3;
  comm::run_ranks(P, [&](comm::Communicator& comm) {
    SlabGrid grid{nxh, ny, nz, P};
    SlabTranspose tp(comm, grid);
    util::Rng rng(31, static_cast<std::uint64_t>(comm.rank()));
    const auto filled = [&](std::size_t elems) {
      std::vector<std::vector<Complex>> vars(nvars);
      for (auto& v : vars) {
        v.resize(elems);
        for (auto& c : v) c = Complex{rng.gaussian(), rng.gaussian()};
      }
      return vars;
    };
    const auto ptrs = [](auto& vars) {
      std::vector<decltype(vars[0].data())> p;
      for (auto& v : vars) p.push_back(v.data());
      return p;
    };
    const auto a = filled(grid.zslab_elems());
    const auto b = filled(grid.yslab_elems());
    const auto ap = ptrs(a);
    const auto bp = ptrs(b);
    const std::span<const Complex* const> as(ap.data(), nvars);
    const std::span<const Complex* const> bs(bp.data(), nvars);

    for (const auto& [np, q] :
         {std::pair{1, 1}, {3, 1}, {4, 3}, {5, 2}, {9, 4}}) {
      // Destinations start equal (and sentinel-free) on both paths, so
      // untouched elements compare too.
      auto y_one = filled(grid.yslab_elems());
      auto y_staged = y_one;
      auto z_one = filled(grid.zslab_elems());
      auto z_staged = z_one;
      auto yo = ptrs(y_one), ys = ptrs(y_staged);
      auto zo = ptrs(z_one), zs = ptrs(z_staged);

      tp.z_to_y(as, std::span<Complex* const>(yo.data(), nvars), np, q);
      tp.y_to_z(bs, std::span<Complex* const>(zo.data(), nvars), np, q);

      // The staged path copies every byte three times: pack and unpack
      // count theirs, and the caller counts the contiguous exchange's.
      comm.barrier();
      const auto copy0 = obs::registry().counter("transpose.copy_bytes");
      const auto bytes0 = obs::registry().counter("comm.alltoall.bytes");
      comm.barrier();
      std::vector<Complex> send, recv;
      for (int ip = 0; ip < np; ip += q) {
        const std::size_t x0 = pencil_range(nxh, np, ip).x0;
        const std::size_t x1 =
            pencil_range(nxh, np, std::min(ip + q, np) - 1).x1;
        const std::size_t block = tp.block_elems(x1 - x0, nvars);
        send.assign(block * static_cast<std::size_t>(P), Complex{});
        recv.assign(send.size(), Complex{});
        tp.pack_z(as, x0, x1, send);
        comm.alltoall(send.data(), recv.data(), block);
        count_copy(recv.size());
        tp.unpack_y(recv, x0, x1,
                    std::span<Complex* const>(ys.data(), nvars));
        tp.pack_y(bs, x0, x1, send);
        comm.alltoall(send.data(), recv.data(), block);
        count_copy(recv.size());
        tp.unpack_z(recv, x0, x1,
                    std::span<Complex* const>(zs.data(), nvars));
      }
      comm.barrier();
      const auto copied =
          obs::registry().counter("transpose.copy_bytes") - copy0;
      const auto exchanged =
          obs::registry().counter("comm.alltoall.bytes") - bytes0;
      comm.barrier();
      EXPECT_GT(exchanged, 0);
      EXPECT_EQ(copied, 3 * exchanged) << "np=" << np << " q=" << q;
      EXPECT_EQ(y_one, y_staged) << "z_to_y np=" << np << " q=" << q;
      EXPECT_EQ(z_one, z_staged) << "y_to_z np=" << np << " q=" << q;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, SlabStagedEquivalenceP,
                         ::testing::Values(1, 2, 4, 8),
                         [](const ::testing::TestParamInfo<int>& pinfo) {
                           return "P" + std::to_string(pinfo.param);
                         });

TEST(SlabGrid, RejectsIndivisibleShapes) {
  EXPECT_THROW((SlabGrid{4, 6, 8, 4}).validate(), util::Error);  // ny % 4 != 0
  EXPECT_THROW((SlabGrid{4, 8, 6, 4}).validate(), util::Error);  // nz % 4 != 0
  EXPECT_NO_THROW((SlabGrid{4, 8, 8, 4}).validate());
}

// --- pencil transpose ---

struct GridCase {
  int pr, pc;
};

class PencilTransposeP : public ::testing::TestWithParam<GridCase> {};

TEST_P(PencilTransposeP, FullCycleRoundTrip) {
  const auto [pr, pc] = GetParam();
  const std::size_t nxh = 9, ny = 8, nz = 8;
  comm::run_ranks(pr * pc, [&](comm::Communicator& comm) {
    PencilGrid grid{nxh, ny, nz, pr, pc};
    PencilTranspose tp(comm, grid);
    const std::size_t w = tp.x_range().width();

    util::Rng rng(9, static_cast<std::uint64_t>(comm.rank()));
    std::vector<Complex> px(nxh * grid.yl() * grid.zl());
    for (auto& c : px) c = Complex{rng.gaussian(), rng.gaussian()};
    const auto orig = px;

    std::vector<Complex> py(ny * w * grid.zl());
    std::vector<Complex> pz(nz * w * grid.yl2());
    tp.x_to_y(px, py);
    tp.y_to_z(py, pz);
    std::fill(py.begin(), py.end(), Complex{0, 0});
    tp.z_to_y(pz, py);
    std::fill(px.begin(), px.end(), Complex{0, 0});
    tp.y_to_x(py, px);
    EXPECT_EQ(px, orig) << "pr=" << pr << " pc=" << pc;
  });
}

TEST_P(PencilTransposeP, GlobalPlacementIsCorrect) {
  const auto [pr, pc] = GetParam();
  const std::size_t nxh = 7, ny = 8, nz = 8;
  comm::run_ranks(pr * pc, [&](comm::Communicator& comm) {
    PencilGrid grid{nxh, ny, nz, pr, pc};
    PencilTranspose tp(comm, grid);
    const std::size_t yl = grid.yl(), zl = grid.zl(), yl2 = grid.yl2();
    const std::size_t y0 = static_cast<std::size_t>(tp.row_rank()) * yl;
    const std::size_t z0 = static_cast<std::size_t>(tp.col_rank()) * zl;

    std::vector<Complex> px(nxh * yl * zl);
    for (std::size_t kk = 0; kk < zl; ++kk) {
      for (std::size_t jj = 0; jj < yl; ++jj) {
        for (std::size_t i = 0; i < nxh; ++i) {
          px[i + nxh * (jj + yl * kk)] = cval(i, y0 + jj, z0 + kk);
        }
      }
    }

    const auto xr = tp.x_range();
    std::vector<Complex> py(ny * xr.width() * zl, Complex{-1, -1});
    tp.x_to_y(px, py);
    for (std::size_t kk = 0; kk < zl; ++kk) {
      for (std::size_t ii = 0; ii < xr.width(); ++ii) {
        for (std::size_t j = 0; j < ny; ++j) {
          EXPECT_EQ(py[j + ny * (ii + xr.width() * kk)],
                    cval(xr.x0 + ii, j, z0 + kk));
        }
      }
    }

    std::vector<Complex> pz(nz * xr.width() * yl2, Complex{-1, -1});
    tp.y_to_z(py, pz);
    const std::size_t y0b = static_cast<std::size_t>(tp.col_rank()) * yl2;
    for (std::size_t jj = 0; jj < yl2; ++jj) {
      for (std::size_t ii = 0; ii < xr.width(); ++ii) {
        for (std::size_t k = 0; k < nz; ++k) {
          EXPECT_EQ(pz[k + nz * (ii + xr.width() * jj)],
                    cval(xr.x0 + ii, y0b + jj, k));
        }
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Grids, PencilTransposeP,
    ::testing::Values(GridCase{1, 1}, GridCase{2, 2}, GridCase{4, 2},
                      GridCase{2, 4}, GridCase{1, 4}, GridCase{4, 1}),
    [](const ::testing::TestParamInfo<GridCase>& pinfo) {
      return "Pr" + std::to_string(pinfo.param.pr) + "Pc" +
             std::to_string(pinfo.param.pc);
    });

// Row sizes that do not divide nxh give the row exchange blocks of unequal
// width; every element must still land in place, in all four directions.
class PencilUnevenP : public ::testing::TestWithParam<GridCase> {};

TEST_P(PencilUnevenP, EveryDirectionPlacesEveryElement) {
  const auto [pr, pc] = GetParam();
  const std::size_t nxh = 7, ny = 12, nz = 12;
  ASSERT_NE(nxh % static_cast<std::size_t>(pr), 0u);
  comm::run_ranks(pr * pc, [&](comm::Communicator& comm) {
    PencilGrid grid{nxh, ny, nz, pr, pc};
    PencilTranspose tp(comm, grid);
    const std::size_t yl = grid.yl(), zl = grid.zl(), yl2 = grid.yl2();
    const std::size_t y0 = static_cast<std::size_t>(tp.row_rank()) * yl;
    const std::size_t z0 = static_cast<std::size_t>(tp.col_rank()) * zl;
    const std::size_t y0b = static_cast<std::size_t>(tp.col_rank()) * yl2;
    const auto xr = tp.x_range();
    const std::size_t w = xr.width();

    std::vector<Complex> px(nxh * yl * zl);
    for (std::size_t kk = 0; kk < zl; ++kk) {
      for (std::size_t jj = 0; jj < yl; ++jj) {
        for (std::size_t i = 0; i < nxh; ++i) {
          px[i + nxh * (jj + yl * kk)] = cval(i, y0 + jj, z0 + kk);
        }
      }
    }
    std::vector<Complex> py(ny * w * zl, Complex{-1, -1});
    std::vector<Complex> pz(nz * w * yl2, Complex{-1, -1});
    tp.x_to_y(px, py);
    tp.y_to_z(py, pz);
    for (std::size_t jj = 0; jj < yl2; ++jj) {
      for (std::size_t ii = 0; ii < w; ++ii) {
        for (std::size_t k = 0; k < nz; ++k) {
          ASSERT_EQ(pz[k + nz * (ii + w * jj)],
                    cval(xr.x0 + ii, y0b + jj, k));
        }
      }
    }

    std::vector<Complex> py2(py.size(), Complex{-2, -2});
    tp.z_to_y(pz, py2);
    for (std::size_t kk = 0; kk < zl; ++kk) {
      for (std::size_t ii = 0; ii < w; ++ii) {
        for (std::size_t j = 0; j < ny; ++j) {
          ASSERT_EQ(py2[j + ny * (ii + w * kk)],
                    cval(xr.x0 + ii, j, z0 + kk));
        }
      }
    }
    std::vector<Complex> px2(px.size(), Complex{-2, -2});
    tp.y_to_x(py2, px2);
    EXPECT_EQ(px2, px);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Grids, PencilUnevenP,
    ::testing::Values(GridCase{2, 1}, GridCase{3, 1}, GridCase{3, 2},
                      GridCase{2, 3}, GridCase{4, 3}),
    [](const ::testing::TestParamInfo<GridCase>& pinfo) {
      return "Pr" + std::to_string(pinfo.param.pr) + "Pc" +
             std::to_string(pinfo.param.pc);
    });

// --- distributed FFTs vs serial reference ---

class SlabFftP : public ::testing::TestWithParam<int> {};

TEST_P(SlabFftP, ForwardMatchesSerialReference) {
  const int P = GetParam();
  const std::size_t n = 16;
  // Serial reference on the full cube.
  std::vector<Real> full(n * n * n);
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t i = 0; i < n; ++i) {
        full[i + n * (j + n * k)] = rval(i, j, k);
      }
    }
  }
  const std::size_t h = n / 2 + 1;
  std::vector<Complex> want(h * n * n);
  fft::fft3d_r2c(fft::Shape3{n, n, n}, full.data(), want.data());

  comm::run_ranks(P, [&](comm::Communicator& comm) {
    SlabFft3d fft3(comm, n);
    const std::size_t my = fft3.my(), mz = fft3.mz();
    const std::size_t y0 = static_cast<std::size_t>(comm.rank()) * my;
    const std::size_t z0 = static_cast<std::size_t>(comm.rank()) * mz;

    // Physical Y-slab: r[x + n*(k + n*jj)].
    std::vector<Real> phys(fft3.physical_elems());
    for (std::size_t jj = 0; jj < my; ++jj) {
      for (std::size_t k = 0; k < n; ++k) {
        for (std::size_t i = 0; i < n; ++i) {
          phys[i + n * (k + n * jj)] = rval(i, y0 + jj, k);
        }
      }
    }
    std::vector<Complex> spec(fft3.spectral_elems());
    fft3.forward(phys, spec);

    for (std::size_t kk = 0; kk < mz; ++kk) {
      for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t i = 0; i < h; ++i) {
          const Complex got = spec[i + h * (j + n * kk)];
          const Complex ref = want[i + h * (j + n * (z0 + kk))];
          EXPECT_LT(std::abs(got - ref), 1e-9)
              << "P=" << P << " i=" << i << " j=" << j << " k=" << z0 + kk;
        }
      }
    }
  });
}

TEST_P(SlabFftP, RoundTripScalesByVolume) {
  const int P = GetParam();
  const std::size_t n = 16;
  comm::run_ranks(P, [&](comm::Communicator& comm) {
    SlabFft3d fft3(comm, n);
    util::Rng rng(3, static_cast<std::uint64_t>(comm.rank()));
    std::vector<Real> phys(fft3.physical_elems());
    for (auto& v : phys) v = rng.gaussian();
    std::vector<Complex> spec(fft3.spectral_elems());
    std::vector<Real> back(fft3.physical_elems());
    fft3.set_batching(2, 1);
    fft3.forward(phys, spec);
    fft3.set_batching(2, 2);
    fft3.inverse(spec, back);
    const double scale = static_cast<double>(n) * n * n;
    for (std::size_t idx = 0; idx < phys.size(); ++idx) {
      EXPECT_NEAR(back[idx] / scale, phys[idx], 1e-10);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, SlabFftP, ::testing::Values(1, 2, 4, 8),
                         [](const ::testing::TestParamInfo<int>& pinfo) {
                           return "P" + std::to_string(pinfo.param);
                         });

// np pencils only chunk the global transpose, which is a pure copy: any
// batching must reproduce the one-exchange transform bit for bit, in
// ceil(np/q) all-to-alls per transform.
class SlabBatchingP
    : public ::testing::TestWithParam<std::pair<int, int>> {};

template <class T>
bool bitwise_equal(const std::vector<std::vector<T>>& a,
                   const std::vector<std::vector<T>>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const std::vector<T>& x, const std::vector<T>& y) {
                      return x.size() == y.size() &&
                             std::memcmp(x.data(), y.data(),
                                         x.size() * sizeof(T)) == 0;
                    });
}

template <class T>
std::vector<T*> data_ptrs(std::vector<std::vector<T>>& vars) {
  std::vector<T*> p;
  for (auto& v : vars) p.push_back(v.data());
  return p;
}

TEST_P(SlabBatchingP, BitwiseEqualsOneExchangeInCeilNpOverQAlltoalls) {
  const auto [np, q] = GetParam();
  const std::size_t n = 16;
  const int P = 4;
  const std::int64_t groups = (np + q - 1) / q;
  comm::run_ranks(P, [&](comm::Communicator& comm) {
    SlabFft3d one(comm, n), batched(comm, n);
    one.set_batching(1, 1);
    batched.set_batching(np, q);
    // All-to-alls this rank made during `transform` (the counter is
    // process-wide, hence the barriers and the division by P).
    const auto alltoalls = [&](const auto& transform) {
      comm.barrier();
      const auto c0 = obs::registry().counter("comm.alltoall.calls");
      comm.barrier();
      transform();
      comm.barrier();
      const auto c1 = obs::registry().counter("comm.alltoall.calls");
      comm.barrier();
      return (c1 - c0) / P;
    };
    util::Rng rng(42, static_cast<std::uint64_t>(comm.rank()));
    for (const std::size_t nv : {std::size_t{1}, std::size_t{3}}) {
      std::vector<std::vector<Real>> phys(
          nv, std::vector<Real>(one.physical_elems()));
      for (auto& v : phys) {
        for (auto& x : v) x = rng.gaussian();
      }
      std::vector<std::vector<Complex>> want(
          nv, std::vector<Complex>(one.spectral_elems()));
      auto got = want;
      std::vector<std::vector<Real>> back_want(
          nv, std::vector<Real>(one.physical_elems()));
      auto back_got = back_want;
      auto pp = data_ptrs(phys);
      auto wp = data_ptrs(want), gp = data_ptrs(got);
      auto bwp = data_ptrs(back_want), bgp = data_ptrs(back_got);
      const std::span<const Real* const> ps(
          const_cast<const Real* const*>(pp.data()), nv);
      const std::span<const Complex* const> ws(
          const_cast<const Complex* const*>(wp.data()), nv);
      const std::span<const Complex* const> gs(
          const_cast<const Complex* const*>(gp.data()), nv);

      EXPECT_EQ(alltoalls([&] { one.forward(ps, wp); }), 1);
      EXPECT_EQ(alltoalls([&] { batched.forward(ps, gp); }), groups)
          << "forward nv=" << nv;
      EXPECT_TRUE(bitwise_equal(got, want)) << "forward nv=" << nv;

      EXPECT_EQ(alltoalls([&] { one.inverse(ws, bwp); }), 1);
      EXPECT_EQ(alltoalls([&] { batched.inverse(gs, bgp); }), groups)
          << "inverse nv=" << nv;
      EXPECT_TRUE(bitwise_equal(back_got, back_want)) << "inverse nv=" << nv;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Batchings, SlabBatchingP,
    ::testing::Values(std::pair{1, 1}, std::pair{3, 1}, std::pair{4, 2},
                      std::pair{4, 4}, std::pair{5, 2}),
    [](const ::testing::TestParamInfo<std::pair<int, int>>& pinfo) {
      return "np" + std::to_string(pinfo.param.first) + "q" +
             std::to_string(pinfo.param.second);
    });

TEST(SlabFft, PooledForwardBitwiseMatchesInline) {
  // The pooled pack/unpack and line-FFT loops stripe deterministically, so
  // widening the worker pool must not move a single bit of the result.
  const std::size_t n = 16;
  std::vector<Complex> inline_spec, pooled_spec;
  auto& pool = util::ThreadPool::global();
  const int prev = pool.threads();
  for (std::vector<Complex>* out : {&inline_spec, &pooled_spec}) {
    pool.set_threads(out == &inline_spec ? 1 : 4);
    comm::run_ranks(2, [&](comm::Communicator& comm) {
      SlabFft3d fft3(comm, n);
      const std::size_t my = fft3.my();
      const std::size_t y0 = static_cast<std::size_t>(comm.rank()) * my;
      std::vector<Real> phys(fft3.physical_elems());
      for (std::size_t jj = 0; jj < my; ++jj) {
        for (std::size_t k = 0; k < n; ++k) {
          for (std::size_t i = 0; i < n; ++i) {
            phys[i + n * (k + n * jj)] = rval(i, y0 + jj, k);
          }
        }
      }
      std::vector<Complex> spec(fft3.spectral_elems());
      fft3.forward(phys, spec);
      if (comm.rank() == 0) *out = spec;
    });
  }
  pool.set_threads(prev);
  ASSERT_EQ(inline_spec.size(), pooled_spec.size());
  for (std::size_t i = 0; i < inline_spec.size(); ++i) {
    ASSERT_EQ(inline_spec[i], pooled_spec[i]) << "i=" << i;
  }
}

class PencilFftP : public ::testing::TestWithParam<GridCase> {};

TEST_P(PencilFftP, ForwardMatchesSerialReference) {
  const auto [pr, pc] = GetParam();
  const std::size_t n = 16;
  std::vector<Real> full(n * n * n);
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t i = 0; i < n; ++i) {
        full[i + n * (j + n * k)] = rval(i, j, k);
      }
    }
  }
  const std::size_t h = n / 2 + 1;
  std::vector<Complex> want(h * n * n);
  fft::fft3d_r2c(fft::Shape3{n, n, n}, full.data(), want.data());

  comm::run_ranks(pr * pc, [&](comm::Communicator& comm) {
    PencilFft3d fft3(comm, n, pr, pc);
    const auto& g = fft3.grid();
    PencilTranspose helper_ref(comm, g);  // only for rank coordinates
    const std::size_t yl = g.yl(), zl = g.zl(), yl2 = g.yl2();
    const std::size_t y0 = static_cast<std::size_t>(helper_ref.row_rank()) * yl;
    const std::size_t z0 = static_cast<std::size_t>(helper_ref.col_rank()) * zl;

    std::vector<Real> phys(fft3.physical_elems());
    for (std::size_t kk = 0; kk < zl; ++kk) {
      for (std::size_t jj = 0; jj < yl; ++jj) {
        for (std::size_t i = 0; i < n; ++i) {
          phys[i + n * (jj + yl * kk)] = rval(i, y0 + jj, z0 + kk);
        }
      }
    }
    std::vector<Complex> spec(fft3.spectral_elems());
    fft3.forward(phys, spec);

    const auto xr = fft3.x_range();
    const std::size_t ky0 =
        static_cast<std::size_t>(helper_ref.col_rank()) * yl2;
    for (std::size_t jj = 0; jj < yl2; ++jj) {
      for (std::size_t ii = 0; ii < xr.width(); ++ii) {
        for (std::size_t k = 0; k < n; ++k) {
          const Complex got = spec[k + n * (ii + xr.width() * jj)];
          const Complex ref = want[(xr.x0 + ii) + h * ((ky0 + jj) + n * k)];
          EXPECT_LT(std::abs(got - ref), 1e-9)
              << "pr=" << pr << " pc=" << pc << " kx=" << xr.x0 + ii
              << " ky=" << ky0 + jj << " kz=" << k;
        }
      }
    }
  });
}

TEST_P(PencilFftP, RoundTripScalesByVolume) {
  const auto [pr, pc] = GetParam();
  const std::size_t n = 8;
  comm::run_ranks(pr * pc, [&](comm::Communicator& comm) {
    PencilFft3d fft3(comm, n, pr, pc);
    util::Rng rng(4, static_cast<std::uint64_t>(comm.rank()));
    std::vector<Real> phys(fft3.physical_elems());
    for (auto& v : phys) v = rng.gaussian();
    std::vector<Complex> spec(fft3.spectral_elems());
    std::vector<Real> back(fft3.physical_elems());
    fft3.forward(phys, spec);
    fft3.inverse(spec, back);
    const double scale = static_cast<double>(n) * n * n;
    for (std::size_t idx = 0; idx < phys.size(); ++idx) {
      EXPECT_NEAR(back[idx] / scale, phys[idx], 1e-10);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Grids, PencilFftP,
    ::testing::Values(GridCase{1, 1}, GridCase{2, 2}, GridCase{4, 2},
                      GridCase{2, 4}),
    [](const ::testing::TestParamInfo<GridCase>& pinfo) {
      return "Pr" + std::to_string(pinfo.param.pr) + "Pc" +
             std::to_string(pinfo.param.pc);
    });

}  // namespace
}  // namespace psdns::transpose
