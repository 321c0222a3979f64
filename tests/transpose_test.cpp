#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "fft/fft3d.hpp"
#include "fft/plan.hpp"
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

// --- fused round trip ---

/// A product-forming kernel: out[t] = in[a] * in[b] + t over pairs that
/// cycle through the inputs, plus a running max of |in| - the shape of the
/// engine's products-and-CFL kernel. Records every call's point count.
struct ProductKernel {
  ProductKernel(std::size_t in, std::size_t out) : nin(in), nout(out) {}

  std::size_t nin, nout;
  double max = 0.0;
  std::vector<std::size_t> calls;

  static void run(void* ctx, const Real* const* in, Real* const* out,
                  std::size_t points) {
    auto& k = *static_cast<ProductKernel*>(ctx);
    k.calls.push_back(points);
    for (std::size_t f = 0; f < k.nin; ++f) {
      for (std::size_t i = 0; i < points; ++i) {
        k.max = std::max(k.max, std::abs(in[f][i]));
      }
    }
    for (std::size_t t = 0; t < k.nout; ++t) {
      const Real* a = in[t % k.nin];
      const Real* b = in[(t / k.nin + t + 1) % k.nin];
      for (std::size_t i = 0; i < points; ++i) {
        out[t][i] = a[i] * b[i] + static_cast<double>(t);
      }
    }
  }
};

struct RoundTripCase {
  bool pencil;
  int pr, pc;  // slab: pr ranks, pc unused
};

class RoundTripP : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(RoundTripP, OverrideBitwiseEqualsInverseKernelForward) {
  // Each backend's grouped round trip against the base-class default
  // (inverse into full-size scratch, one kernel call, forward): every
  // output bit, the kernel's max and its group sizes, at 1 and 4 pool
  // threads. At n = 24 and 48 a Y-plane's line count is not a multiple
  // of the 64-line group unit (batch_block_lines(n/2), a multiple of the
  // r2c block), so slab groups span several planes. The
  // backends use the outputs as scratch, so each is exactly
  // spectral_elems() long and prefilled with garbage: ASan catches an
  // overrun and the bitwise check a leak of scratch into the result.
  const auto [pencil, pr, pc] = GetParam();
  const int ranks = pencil ? pr * pc : pr;
  // {3, 5} and {6, 8} are the NS and MHD engine shapes; {6, 3} has fewer
  // outputs than inputs, so the slab parks inputs 3..5 in work slabs. These
  // three also run with each output sharing its input's buffer.
  const std::pair<std::size_t, std::size_t> counts[] = {
      {3, 6}, {6, 9}, {4, 9}, {3, 5}, {6, 8}, {6, 3}};
  auto& pool = util::ThreadPool::global();
  const int prev = pool.threads();
  for (const int threads : {1, 4}) {
    pool.set_threads(threads);
    for (const std::size_t n : {16, 24, 48}) {
      const auto divides = [n](int p) {
        return n % static_cast<std::size_t>(p) == 0;
      };
      if (!divides(pr) || (pencil && !divides(pc))) continue;
      const std::size_t block_points = fft::batch_block_lines(n / 2) * n;
      for (const auto& [nin, nout] : counts) {
        comm::run_ranks(ranks, [&](comm::Communicator& comm) {
          std::unique_ptr<DistFft3d> fft3;
          if (pencil) {
            fft3 = std::make_unique<PencilFft3d>(comm, n, pr, pc);
          } else {
            fft3 = std::make_unique<SlabFft3d>(comm, n);
          }
          const std::size_t spec = fft3->spectral_elems();
          util::Rng rng(n + nin, static_cast<std::uint64_t>(comm.rank()));
          std::vector<std::vector<Complex>> in(nin, std::vector<Complex>(spec));
          for (auto& field : in) {
            for (auto& c : field) c = Complex{rng.gaussian(), rng.gaussian()};
          }
          const auto in_copy = in;
          std::vector<const Complex*> in_ptrs;
          for (const auto& field : in) in_ptrs.push_back(field.data());

          std::vector<std::vector<Complex>> got(nout), want(nout);
          std::vector<Complex*> got_ptrs, want_ptrs;
          for (std::size_t t = 0; t < nout; ++t) {
            got[t].assign(spec, Complex{-7.0, -7.0});
            want[t].assign(spec, Complex{-9.0, -9.0});
            got_ptrs.push_back(got[t].data());
            want_ptrs.push_back(want[t].data());
          }
          ProductKernel kgot(nin, nout), kwant(nin, nout);
          const auto full = SpectralBand::full(n);
          fft3->round_trip(in_ptrs, &ProductKernel::run, &kgot, got_ptrs,
                           full);
          fft3->DistFft3d::round_trip(in_ptrs, &ProductKernel::run, &kwant,
                                      want_ptrs, full);

          const std::string where =
              "n=" + std::to_string(n) + " nin=" + std::to_string(nin) +
              " nout=" + std::to_string(nout) +
              " threads=" + std::to_string(threads) +
              " rank=" + std::to_string(comm.rank());
          ASSERT_EQ(in, in_copy) << where << ": inputs modified";
          ASSERT_EQ(kwant.calls.size(), 1u) << where;
          EXPECT_EQ(kgot.max, kwant.max) << where;
          std::size_t sum = 0;
          for (std::size_t c = 0; c < kgot.calls.size(); ++c) {
            sum += kgot.calls[c];
            if (c + 1 < kgot.calls.size()) {
              EXPECT_EQ(kgot.calls[c] % block_points, 0u)
                  << where << " group " << c;
            }
          }
          EXPECT_EQ(sum, fft3->physical_elems()) << where;
          for (std::size_t t = 0; t < nout; ++t) {
            ASSERT_EQ(std::memcmp(got[t].data(), want[t].data(),
                                  spec * sizeof(Complex)),
                      0)
                << where << " output " << t;
          }

          // The engine's shapes again with out[v] == in[v] (the engine
          // round-trips phase-shifted copies held in its outputs): the
          // override and the default, each bitwise equal to its unaliased
          // call. At {6, 3} inputs 3..5 have no output to share.
          const bool engine_shape =
              (nin == 3 && nout == 5) || (nin == 6 && (nout == 8 || nout == 3));
          if (!engine_shape) return;
          for (const bool base : {false, true}) {
            std::vector<std::vector<Complex>> shared(std::max(nin, nout));
            std::vector<const Complex*> shared_in;
            std::vector<Complex*> shared_out;
            for (std::size_t v = 0; v < shared.size(); ++v) {
              shared[v] = in_copy[std::min(v, nin - 1)];  // stale past nin
              if (v < nin) shared_in.push_back(shared[v].data());
              if (v < nout) shared_out.push_back(shared[v].data());
            }
            ProductKernel kshared(nin, nout);
            if (base) {
              fft3->DistFft3d::round_trip(shared_in, &ProductKernel::run,
                                          &kshared, shared_out, full);
            } else {
              fft3->round_trip(shared_in, &ProductKernel::run, &kshared,
                               shared_out, full);
            }
            const auto& ref = base ? want : got;
            EXPECT_EQ(kshared.max, base ? kwant.max : kgot.max) << where;
            for (std::size_t t = 0; t < nout; ++t) {
              ASSERT_EQ(std::memcmp(shared[t].data(), ref[t].data(),
                                    spec * sizeof(Complex)),
                        0)
                  << where << (base ? " default" : " override")
                  << " aliased output " << t;
            }
            for (std::size_t v = nout; v < nin; ++v) {
              ASSERT_EQ(shared[v], in_copy[v])
                  << where << " unshared input " << v << " modified";
            }
          }
        });
      }
    }
  }
  pool.set_threads(prev);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, RoundTripP,
    ::testing::Values(RoundTripCase{false, 1, 1}, RoundTripCase{false, 2, 1},
                      RoundTripCase{false, 4, 1}, RoundTripCase{true, 1, 1},
                      RoundTripCase{true, 1, 2}, RoundTripCase{true, 2, 2},
                      RoundTripCase{true, 1, 4}, RoundTripCase{true, 4, 1},
                      // The PencilUnevenP row sizes (nxh % pr != 0).
                      RoundTripCase{true, 2, 1}, RoundTripCase{true, 3, 1},
                      RoundTripCase{true, 3, 2}, RoundTripCase{true, 2, 3},
                      RoundTripCase{true, 4, 3}),
    [](const ::testing::TestParamInfo<RoundTripCase>& pinfo) {
      const auto& c = pinfo.param;
      return c.pencil ? "PencilPr" + std::to_string(c.pr) + "Pc" +
                            std::to_string(c.pc)
                      : "SlabR" + std::to_string(c.pr);
    });

// --- band-limited transforms ---------------------------------------------

/// Whether mode (kx, ky, kz) lies in `band`.
bool in_band(const SpectralBand& band, int kx, int ky, int kz) {
  return static_cast<std::size_t>(kx) < band.width &&
         static_cast<std::size_t>(std::abs(ky)) <= band.ky &&
         band.keeps_kz(kz);
}

/// Every in-band mode of `got` and `want` (spectral blocks of `view`)
/// bitwise equal.
void expect_band_equal(const ModeView& view, const SpectralBand& band,
                       const Complex* got, const Complex* want,
                       const std::string& where) {
  std::size_t differ = 0;
  for_each_mode(view, [&](std::size_t idx, int kx, int ky, int kz) {
    if (in_band(band, kx, ky, kz) &&
        std::memcmp(got + idx, want + idx, sizeof(Complex)) != 0) {
      ++differ;
    }
  });
  EXPECT_EQ(differ, 0u) << where;
}

/// Records, call by call, the values its inputs hold; writes input 0 to
/// every output.
struct RecordingKernel {
  std::size_t nin = 0, nout = 0;
  std::vector<std::vector<std::vector<Real>>> calls;  // [call][field][point]

  static void run(void* ctx, const Real* const* in, Real* const* out,
                  std::size_t points) {
    auto& k = *static_cast<RecordingKernel*>(ctx);
    auto& call = k.calls.emplace_back(k.nin);
    for (std::size_t f = 0; f < k.nin; ++f) {
      call[f].assign(in[f], in[f] + points);
    }
    for (std::size_t t = 0; t < k.nout; ++t) {
      std::copy(in[0], in[0] + points, out[t]);
    }
  }
};

/// The bit patterns of `v`, sorted: equal for two ranges that hold the
/// same multiset of doubles, signed zeros and NaN payloads included.
std::vector<std::uint64_t> sorted_bits(const Real* v, std::size_t count) {
  std::vector<std::uint64_t> bits(count);
  std::memcpy(bits.data(), v, count * sizeof(Real));
  std::sort(bits.begin(), bits.end());
  return bits;
}

class RoundTripKernelP : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(RoundTripKernelP, SeesTheNaturalInverseGroupByGroup) {
  // Inside a group the x pass leaves the points in the r2c plan's block
  // layout, so the kernel sees them in a plan-private order. Each call's
  // values are still exactly, as a multiset per field, the natural
  // inverse's values over that call's range of x-lines. n = 48 and 64
  // split a group into several x-pass blocks.
  const auto [pencil, pr, pc] = GetParam();
  const int ranks = pencil ? pr * pc : pr;
  constexpr std::size_t kIn = 3, kOut = 2;
  for (const std::size_t n : {16, 48, 64}) {
    comm::run_ranks(ranks, [&](comm::Communicator& comm) {
      std::unique_ptr<DistFft3d> fft3;
      if (pencil) {
        fft3 = std::make_unique<PencilFft3d>(comm, n, pr, pc);
      } else {
        fft3 = std::make_unique<SlabFft3d>(comm, n);
      }
      for (const bool banded : {false, true}) {
        const auto band = banded ? SpectralBand::of_radius(n, (n - 1) / 3)
                                 : SpectralBand::full(n);
        const std::size_t spec = fft3->spectral_elems();
        const std::size_t points = fft3->physical_elems();
        const ModeView view = fft3->mode_view();
        util::Rng rng(n + (banded ? 1 : 0),
                      static_cast<std::uint64_t>(comm.rank()));
        std::vector<std::vector<Complex>> in(kIn, std::vector<Complex>(spec));
        std::vector<const Complex*> in_ptrs;
        for (auto& field : in) {
          for_each_mode(view, [&](std::size_t idx, int kx, int ky, int kz) {
            field[idx] = in_band(band, kx, ky, kz)
                             ? Complex{rng.gaussian(), rng.gaussian()}
                             : Complex{0.0, 0.0};
          });
          in_ptrs.push_back(field.data());
        }
        std::vector<std::vector<Real>> natural(kIn, std::vector<Real>(points));
        std::vector<Real*> natural_ptrs;
        for (auto& field : natural) natural_ptrs.push_back(field.data());
        fft3->inverse(in_ptrs, natural_ptrs, band);

        std::vector<std::vector<Complex>> out(kOut,
                                              std::vector<Complex>(spec));
        std::vector<Complex*> out_ptrs;
        for (auto& field : out) out_ptrs.push_back(field.data());
        RecordingKernel kernel;
        kernel.nin = kIn;
        kernel.nout = kOut;
        fft3->round_trip(in_ptrs, &RecordingKernel::run, &kernel, out_ptrs,
                         band);

        const std::string where = "n=" + std::to_string(n) +
                                  (banded ? " banded" : " full") +
                                  " rank=" + std::to_string(comm.rank());
        std::size_t offset = 0;
        for (std::size_t c = 0; c < kernel.calls.size(); ++c) {
          const std::size_t count = kernel.calls[c][0].size();
          ASSERT_EQ(count % n, 0u) << where << " call " << c;
          ASSERT_LE(offset + count, points) << where << " call " << c;
          for (std::size_t f = 0; f < kIn; ++f) {
            ASSERT_EQ(sorted_bits(kernel.calls[c][f].data(), count),
                      sorted_bits(natural[f].data() + offset, count))
                << where << " call " << c << " field " << f;
          }
          offset += count;
        }
        EXPECT_EQ(offset, points) << where;
      }
    });
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, RoundTripKernelP,
    ::testing::Values(RoundTripCase{false, 1, 1}, RoundTripCase{false, 2, 1},
                      RoundTripCase{true, 1, 2}),
    [](const ::testing::TestParamInfo<RoundTripCase>& pinfo) {
      const auto& c = pinfo.param;
      return c.pencil ? "PencilPr" + std::to_string(c.pr) + "Pc" +
                            std::to_string(c.pc)
                      : "SlabR" + std::to_string(c.pr);
    });

struct BandedCase {
  bool pencil;
  int ranks;
};

class BandedP : public ::testing::TestWithParam<BandedCase> {};

TEST_P(BandedP, BandedTransformsBitwiseEqualUnbandedInBand) {
  // The banded round trip, forward and inverse against the unbanded ones
  // (the round trip against the base-class default run unbanded), for the
  // strict 2/3 cube and the phase-shift sphere: every in-band output bit,
  // and every physical bit of the inverse. Inputs are zero outside the
  // band, outputs prefilled with garbage. The slab chunks the transposes
  // as np pencils of the band's width, so np = 9 at n = 16 (W = 6 or 8)
  // leaves empty chunks, which make no exchange; the pencil ignores the
  // band. {3, 5} is the NS engine shape, also run with each output sharing
  // its input's buffer; {6, 3} parks inputs 3..5 in work slabs.
  const auto [pencil, ranks] = GetParam();
  for (const std::size_t n : {16, 24, 48}) {
    if (n % static_cast<std::size_t>(ranks) != 0) continue;
    const auto sphere_k = static_cast<std::size_t>(
        std::sqrt(2.0) * static_cast<double>(n) / 3.0);
    for (const auto& band : {SpectralBand::of_radius(n, (n - 1) / 3),
                             SpectralBand::of_radius(n, sphere_k)}) {
      std::vector<std::pair<int, int>> batchings = {{1, 1}, {2, 1}, {4, 2}};
      if (n == 16) batchings.emplace_back(9, 1);
      for (const auto& [np, q] : batchings) {
        const std::string where =
            "n=" + std::to_string(n) + " W=" + std::to_string(band.width) +
            " np=" + std::to_string(np) + " q=" + std::to_string(q);
        comm::run_ranks(ranks, [&](comm::Communicator& comm) {
          std::unique_ptr<DistFft3d> fft3;
          if (pencil) {
            fft3 = std::make_unique<PencilFft3d>(comm, n, 1, ranks);
          } else {
            fft3 = std::make_unique<SlabFft3d>(comm, n);
          }
          fft3->set_batching(np, q);
          const auto full = SpectralBand::full(n);
          const ModeView view = fft3->mode_view();
          const std::size_t spec = fft3->spectral_elems();
          const std::size_t phys = fft3->physical_elems();
          util::Rng rng(n + static_cast<std::size_t>(np),
                        static_cast<std::uint64_t>(comm.rank()));
          const auto banded_field = [&] {
            std::vector<Complex> f(spec, Complex{0.0, 0.0});
            for_each_mode(view, [&](std::size_t idx, int kx, int ky, int kz) {
              if (in_band(band, kx, ky, kz)) {
                f[idx] = Complex{rng.gaussian(), rng.gaussian()};
              }
            });
            return f;
          };
          // All-to-alls this rank made in `transform` (the counter is
          // process-wide).
          const auto alltoalls = [&](const auto& transform) {
            comm.barrier();
            const auto c0 = obs::registry().counter("comm.alltoall.calls");
            comm.barrier();
            transform();
            comm.barrier();
            const auto c1 = obs::registry().counter("comm.alltoall.calls");
            comm.barrier();
            return (c1 - c0) / ranks;
          };

          const std::pair<std::size_t, std::size_t> shapes[] = {{3, 5},
                                                                {6, 3}};
          for (const auto& [nin, nout] : shapes) {
            std::vector<std::vector<Complex>> in(nin);
            for (auto& f : in) f = banded_field();
            std::vector<const Complex*> in_ptrs;
            for (const auto& f : in) in_ptrs.push_back(f.data());
            std::vector<std::vector<Complex>> got(
                nout, std::vector<Complex>(spec, Complex{-7.0, -7.0}));
            std::vector<std::vector<Complex>> want(
                nout, std::vector<Complex>(spec, Complex{-9.0, -9.0}));
            ProductKernel kgot(nin, nout), kwant(nin, nout);
            fft3->round_trip(in_ptrs, &ProductKernel::run, &kgot,
                             data_ptrs(got), band);
            fft3->DistFft3d::round_trip(in_ptrs, &ProductKernel::run, &kwant,
                                        data_ptrs(want), full);
            EXPECT_EQ(kgot.max, kwant.max) << where;
            for (std::size_t t = 0; t < nout; ++t) {
              expect_band_equal(view, band, got[t].data(), want[t].data(),
                                where + " round trip nin=" +
                                    std::to_string(nin) + " output " +
                                    std::to_string(t));
            }
            if (nin > nout) continue;
            std::vector<std::vector<Complex>> shared(nout);
            for (std::size_t v = 0; v < nout; ++v) {
              shared[v] = v < nin ? in[v]
                                  : std::vector<Complex>(spec, Complex{5, 5});
            }
            const auto shared_ptrs = data_ptrs(shared);
            const std::vector<const Complex*> shared_in(
                shared_ptrs.begin(),
                shared_ptrs.begin() + static_cast<std::ptrdiff_t>(nin));
            ProductKernel kshared(nin, nout);
            fft3->round_trip(shared_in, &ProductKernel::run, &kshared,
                             shared_ptrs, band);
            for (std::size_t t = 0; t < nout; ++t) {
              expect_band_equal(view, band, shared[t].data(), want[t].data(),
                                where + " aliased output " +
                                    std::to_string(t));
            }
          }

          // Two variables per call, so every transpose moves both.
          constexpr std::size_t kVars = 2;
          std::vector<std::vector<Real>> fields(kVars, std::vector<Real>(phys));
          for (auto& f : fields) {
            for (auto& x : f) x = rng.gaussian();
          }
          const auto field_ptrs = data_ptrs(fields);
          const std::vector<const Real*> fin(field_ptrs.begin(),
                                             field_ptrs.end());
          std::vector<std::vector<Complex>> fgot(
              kVars, std::vector<Complex>(spec, Complex{-3.0, -3.0}));
          std::vector<std::vector<Complex>> fwant(kVars,
                                                  std::vector<Complex>(spec));
          // np <= W pencils make one all-to-all per group of q; past W
          // only the last group holds columns.
          const int chunks =
              np <= static_cast<int>(band.width) ? (np + q - 1) / q : 1;
          const int made = alltoalls(
              [&] { fft3->forward(fin, data_ptrs(fgot), band); });
          if (!pencil) {
            EXPECT_EQ(made, chunks) << where << " banded forward";
          }
          fft3->forward(fin, data_ptrs(fwant));
          for (std::size_t v = 0; v < kVars; ++v) {
            expect_band_equal(view, band, fgot[v].data(), fwant[v].data(),
                              where + " forward " + std::to_string(v));
          }

          std::vector<std::vector<Complex>> spectra(kVars);
          for (auto& f : spectra) f = banded_field();
          const auto spectra_copy = spectra;
          const auto spectra_ptrs = data_ptrs(spectra);
          const std::vector<const Complex*> sc(spectra_ptrs.begin(),
                                               spectra_ptrs.end());
          std::vector<std::vector<Real>> igot(kVars, std::vector<Real>(phys));
          auto iwant = igot;
          fft3->inverse(sc, data_ptrs(igot), band);
          fft3->inverse(sc, data_ptrs(iwant));
          EXPECT_TRUE(bitwise_equal(igot, iwant)) << where << " inverse";
          EXPECT_EQ(spectra, spectra_copy) << where << " inverse input";
        });
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, BandedP,
    ::testing::Values(BandedCase{false, 1}, BandedCase{false, 2},
                      BandedCase{false, 4}, BandedCase{true, 2}),
    [](const ::testing::TestParamInfo<BandedCase>& pinfo) {
      return (pinfo.param.pencil ? "PencilPr1Pc" : "SlabR") +
             std::to_string(pinfo.param.ranks);
    });

}  // namespace
}  // namespace psdns::transpose
