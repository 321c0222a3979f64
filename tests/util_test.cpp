#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "util/aligned.hpp"
#include "util/arena.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace psdns::util {
namespace {

TEST(Check, RequireThrowsWithMessage) {
  try {
    PSDNS_REQUIRE(1 == 2, "math is broken");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("math is broken"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Check, CheckPassesSilently) {
  EXPECT_NO_THROW(PSDNS_CHECK(2 + 2 == 4, "unused"));
}

TEST(Aligned, VectorDataIsAligned) {
  AlignedVector<double> v(1000);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kAlignment, 0u);
  AlignedVector<char> c(3);  // size not a multiple of alignment
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c.data()) % kAlignment, 0u);
}

TEST(WorkspaceArena, BucketSizeClasses) {
  const auto bucket = WorkspaceArena::bucket_bytes;
  constexpr std::size_t kMiB = std::size_t{1} << 20;
  // The 256-byte floor, then powers of two up to and including 1 MiB.
  EXPECT_EQ(bucket(0), 256u);
  EXPECT_EQ(bucket(1), 256u);
  EXPECT_EQ(bucket(256), 256u);
  EXPECT_EQ(bucket(257), 512u);
  EXPECT_EQ(bucket(1000), 1024u);
  EXPECT_EQ(bucket(kMiB / 2 + 1), kMiB);
  EXPECT_EQ(bucket(kMiB), kMiB);
  // Above 1 MiB: quarter steps between powers of two.
  EXPECT_EQ(bucket(kMiB + 1), kMiB + kMiB / 4);
  EXPECT_EQ(bucket(2 * kMiB), 2 * kMiB);
  EXPECT_EQ(bucket(2 * kMiB + 1), 2 * kMiB + kMiB / 2);
  EXPECT_EQ(bucket(4 * kMiB - 1), 4 * kMiB);
  // One 128^3 spectral field (65 * 128 * 128 complex doubles) and five.
  EXPECT_EQ(bucket(17'039'360), 20 * kMiB);
  EXPECT_EQ(bucket(5 * 17'039'360), 96 * kMiB);
  // Every class holds the request, is a multiple of the 64-byte alignment,
  // grows monotonically, and above 1 MiB wastes under a quarter of the
  // power of two at or below the request.
  std::size_t prev = 0;
  for (std::size_t b = 1; b < (std::size_t{1} << 36); b += b / 7 + 1) {
    const std::size_t got = bucket(b);
    EXPECT_GE(got, b) << b;
    EXPECT_EQ(got % 64, 0u) << b;
    EXPECT_GE(got, prev) << b;
    if (b > kMiB) {
      EXPECT_LT(got - b, std::bit_floor(b) / 4) << b;
    }
    prev = got;
  }
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42, 7), b(42, 7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, StreamsAreIndependent) {
  Rng a(42, 0), b(42, 1);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInRange) {
  Rng r(1);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, GaussianMomentsApproximate) {
  Rng r(7);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = r.gaussian();
    sum += g;
    sum2 += g * g;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch sw;
  const double t0 = sw.seconds();
  EXPECT_GE(t0, 0.0);
  // Busy-wait a tiny amount; elapsed must be monotone.
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(sw.seconds(), t0);
  sw.reset();
  EXPECT_LT(sw.seconds(), 1.0);
}

TEST(Format, Bytes) {
  EXPECT_EQ(format_bytes(12e6), "12.00 MB");
  EXPECT_EQ(format_bytes(1.9e9), "1.90 GB");
  EXPECT_EQ(format_bytes(53e3), "53.0 KB");
  EXPECT_EQ(format_bytes(12), "12 B");
}

TEST(Format, Time) {
  EXPECT_EQ(format_time(14.24), "14.24 s");
  EXPECT_EQ(format_time(0.87), "870.00 ms");
  EXPECT_EQ(format_time(53e-6), "53.00 us");
}

TEST(Format, Problem) { EXPECT_EQ(format_problem(18432), "18432^3"); }

TEST(Table, RendersAlignedColumns) {
  Table t({"Nodes", "Time (s)"});
  t.add_row({"16", "6.70"});
  t.add_row({"3072", "14.24"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| Nodes | Time (s) |"), std::string::npos);
  EXPECT_NE(s.find("| 3072  | 14.24    |"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsWrongArity) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), Error);
}

TEST(Cli, ParsesFlagsAndValues) {
  const char* argv[] = {"prog", "--n=128", "--viscosity=0.01", "--verbose",
                        "--name=run1"};
  Cli cli(5, argv);
  EXPECT_EQ(cli.get_int("n", 0), 128);
  EXPECT_DOUBLE_EQ(cli.get_double("viscosity", 0.0), 0.01);
  EXPECT_TRUE(cli.get_bool("verbose", false));
  EXPECT_EQ(cli.get("name", ""), "run1");
  EXPECT_EQ(cli.get_int("missing", 77), 77);
  EXPECT_FALSE(cli.has("missing"));
}

TEST(Simd, BackendNamesAndDispatchAreConsistent) {
  EXPECT_STREQ(simd::to_string(simd::Backend::Scalar), "scalar");
  EXPECT_STREQ(simd::to_string(simd::Backend::Avx2), "avx2");
  // The dispatched backend is always runnable on this machine.
  const simd::Backend b = simd::active_backend();
  EXPECT_TRUE(b == simd::Backend::Scalar || simd::avx2_supported());
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for("test.count", 0, kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, StripeToThreadBindingIsDeterministic) {
  // Which thread slot computes which index must be a pure function of the
  // loop bounds and thread count — run the same loop twice and compare.
  ThreadPool pool(4);
  constexpr std::size_t kN = 257;  // not a multiple of the width
  std::vector<int> first(kN, -1), second(kN, -1);
  for (auto* out : {&first, &second}) {
    // Tag each pool thread with its slot, then record who ran each index.
    thread_local int t_slot = -1;
    pool.for_each_thread([&](std::size_t slot) {
      t_slot = static_cast<int>(slot);
    });
    pool.parallel_for("test.bind", 0, kN,
                      [&](std::size_t i) { (*out)[i] = t_slot; });
  }
  EXPECT_EQ(first, second);
  // Caller participates as slot 0 and the loop uses the full width.
  std::set<int> used(first.begin(), first.end());
  EXPECT_EQ(used.size(), 4u);
  EXPECT_TRUE(used.contains(0));
}

TEST(ThreadPool, ForEachThreadHitsEverySlotOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(3);
  pool.for_each_thread([&](std::size_t slot) {
    hits[slot].fetch_add(1, std::memory_order_relaxed);
  });
  for (int s = 0; s < 3; ++s) EXPECT_EQ(hits[s].load(), 1);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.parallel_for("test.outer", 0, 8, [&](std::size_t) {
    pool.parallel_for("test.inner", 0, 8,
                      [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, FirstExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  try {
    pool.parallel_for("test.throw", 0, 100, [&](std::size_t i) {
      if (i == 42) throw std::runtime_error("boom 42");
    });
    FAIL() << "expected the loop to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 42");
  }
  // The pool survives an exception and keeps running loops.
  std::atomic<int> n{0};
  pool.parallel_for("test.after", 0, 10, [&](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 10);
}

TEST(ThreadPool, SetThreadsResizes) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 1);
  pool.set_threads(4);
  EXPECT_EQ(pool.threads(), 4);
  std::atomic<int> n{0};
  pool.parallel_for("test.resized", 0, 16, [&](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 16);
  pool.set_threads(1);
  EXPECT_EQ(pool.threads(), 1);
}

TEST(ThreadPool, StatsAccumulateStageBusyTime) {
  ThreadPool pool(2);
  pool.parallel_for("test.stage_a", 0, 64, [](std::size_t) {});
  pool.parallel_for("test.stage_a", 0, 64, [](std::size_t) {});
  const auto stats = pool.stats();
  EXPECT_EQ(stats.jobs, 2);
  EXPECT_GE(stats.stripes, 2);
  bool found = false;
  for (const auto& st : stats.stages) {
    if (std::string_view(st.name) == "test.stage_a") found = true;
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace psdns::util
