#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "comm/communicator.hpp"

namespace psdns::comm {
namespace {

TEST(RunRanks, AllRanksExecuteWithDistinctIds) {
  std::atomic<int> mask{0};
  run_ranks(4, [&](Communicator& comm) {
    EXPECT_EQ(comm.size(), 4);
    mask.fetch_or(1 << comm.rank());
  });
  EXPECT_EQ(mask.load(), 0b1111);
}

TEST(RunRanks, SingleRankWorks) {
  run_ranks(1, [](Communicator& comm) {
    EXPECT_EQ(comm.rank(), 0);
    comm.barrier();
    EXPECT_EQ(comm.allreduce_sum(5), 5);
  });
}

TEST(RunRanks, PropagatesException) {
  EXPECT_THROW(
      run_ranks(2,
                [](Communicator& comm) {
                  if (comm.rank() == 1) {
                    PSDNS_REQUIRE(false, "rank 1 exploded");
                  }
                }),
      util::Error);
}

TEST(Barrier, SynchronizesPhases) {
  // Each rank increments a counter before the barrier; after the barrier
  // every rank must observe the full count.
  std::atomic<int> before{0};
  run_ranks(4, [&](Communicator& comm) {
    before.fetch_add(1);
    comm.barrier();
    EXPECT_EQ(before.load(), 4);
  });
}

TEST(Alltoall, ExchangesBlocksByRank) {
  const int P = 4;
  const std::size_t count = 3;
  run_ranks(P, [&](Communicator& comm) {
    std::vector<int> send(P * count), recv(P * count, -1);
    // Block for rank r holds value 100*me + r repeated.
    for (int r = 0; r < P; ++r) {
      for (std::size_t i = 0; i < count; ++i) {
        send[r * count + i] = 100 * comm.rank() + r;
      }
    }
    comm.alltoall(send.data(), recv.data(), count);
    for (int r = 0; r < P; ++r) {
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(recv[r * count + i], 100 * r + comm.rank());
      }
    }
  });
}

TEST(Alltoall, SelfBlockDelivered) {
  run_ranks(3, [](Communicator& comm) {
    std::vector<int> send{10 + comm.rank(), 20 + comm.rank(),
                          30 + comm.rank()};
    std::vector<int> recv(3, -1);
    comm.alltoall(send.data(), recv.data(), 1);
    EXPECT_EQ(recv[comm.rank()], (comm.rank() + 1) * 10 + comm.rank());
  });
}

TEST(Alltoall, RepeatedCallsDoNotInterfere) {
  run_ranks(4, [](Communicator& comm) {
    for (int iter = 0; iter < 10; ++iter) {
      std::vector<int> send(4), recv(4);
      for (int r = 0; r < 4; ++r) send[r] = 1000 * iter + comm.rank();
      comm.alltoall(send.data(), recv.data(), 1);
      for (int r = 0; r < 4; ++r) EXPECT_EQ(recv[r], 1000 * iter + r);
    }
  });
}

TEST(Ialltoall, CompletesAtWait) {
  run_ranks(4, [](Communicator& comm) {
    std::vector<int> send(4), recv(4, -1);
    for (int r = 0; r < 4; ++r) send[r] = comm.rank() * 10 + r;
    Request req = comm.ialltoall(send.data(), recv.data(), 1);
    EXPECT_TRUE(req.valid());
    req.wait();
    EXPECT_FALSE(req.valid());
    for (int r = 0; r < 4; ++r) EXPECT_EQ(recv[r], r * 10 + comm.rank());
  });
}

TEST(Ialltoall, WaitOnConsumedRequestThrows) {
  run_ranks(2, [](Communicator& comm) {
    std::vector<int> send(2), recv(2);
    Request req = comm.ialltoall(send.data(), recv.data(), 1);
    req.wait();
    EXPECT_THROW(req.wait(), util::Error);
  });
}

TEST(Alltoallv, VariableBlockSizes) {
  // Rank r sends r+1 elements to every destination.
  const int P = 3;
  run_ranks(P, [&](Communicator& comm) {
    const std::size_t mine = static_cast<std::size_t>(comm.rank()) + 1;
    std::vector<double> send(mine * P);
    std::vector<std::size_t> scounts(P, mine), sdispls(P);
    for (int r = 0; r < P; ++r) {
      sdispls[r] = static_cast<std::size_t>(r) * mine;
      for (std::size_t i = 0; i < mine; ++i) {
        send[sdispls[r] + i] = comm.rank() * 100 + r;
      }
    }
    std::vector<std::size_t> rcounts(P), rdispls(P);
    std::size_t total = 0;
    for (int r = 0; r < P; ++r) {
      rcounts[r] = static_cast<std::size_t>(r) + 1;
      rdispls[r] = total;
      total += rcounts[r];
    }
    std::vector<double> recv(total, -1.0);
    comm.alltoallv(send.data(), scounts.data(), sdispls.data(), recv.data(),
                   rcounts.data(), rdispls.data());
    for (int r = 0; r < P; ++r) {
      for (std::size_t i = 0; i < rcounts[r]; ++i) {
        EXPECT_DOUBLE_EQ(recv[rdispls[r] + i], r * 100 + comm.rank());
      }
    }
  });
}

TEST(Allreduce, SumAcrossRanks) {
  run_ranks(5, [](Communicator& comm) {
    EXPECT_EQ(comm.allreduce_sum(comm.rank() + 1), 15);
    EXPECT_DOUBLE_EQ(comm.allreduce_sum(0.5), 2.5);
  });
}

TEST(Allreduce, VectorSumInPlace) {
  run_ranks(3, [](Communicator& comm) {
    std::vector<double> v{1.0 * comm.rank(), 10.0};
    comm.allreduce_sum(v.data(), v.data(), 2);
    EXPECT_DOUBLE_EQ(v[0], 3.0);  // 0+1+2
    EXPECT_DOUBLE_EQ(v[1], 30.0);
  });
}

TEST(Allreduce, Max) {
  run_ranks(4, [](Communicator& comm) {
    EXPECT_DOUBLE_EQ(comm.allreduce_max(static_cast<double>(comm.rank())),
                     3.0);
  });
}

TEST(Broadcast, RootValueReachesAll) {
  run_ranks(4, [](Communicator& comm) {
    std::vector<int> data(3, comm.rank() == 2 ? 7 : -1);
    comm.broadcast(data.data(), 3, 2);
    for (const int v : data) EXPECT_EQ(v, 7);
  });
}

TEST(Gather, RootCollectsRankOrderedBlocks) {
  run_ranks(4, [](Communicator& comm) {
    std::vector<int> send{comm.rank() * 10, comm.rank() * 10 + 1};
    std::vector<int> recv(comm.rank() == 1 ? 8 : 0);
    comm.gather(send.data(), recv.data(), 2, /*root=*/1);
    if (comm.rank() == 1) {
      EXPECT_EQ(recv, (std::vector<int>{0, 1, 10, 11, 20, 21, 30, 31}));
    }
  });
}

TEST(Scatter, BlocksReachTheRightRanks) {
  run_ranks(3, [](Communicator& comm) {
    std::vector<double> send;
    if (comm.rank() == 0) send = {0.5, 1.5, 2.5};
    std::vector<double> recv(1, -1.0);
    comm.scatter(send.data(), recv.data(), 1, /*root=*/0);
    EXPECT_DOUBLE_EQ(recv[0], comm.rank() + 0.5);
  });
}

TEST(GatherScatter, RoundTrip) {
  run_ranks(4, [](Communicator& comm) {
    std::vector<int> mine{comm.rank(), comm.rank() * comm.rank()};
    std::vector<int> all(comm.rank() == 0 ? 8 : 0);
    comm.gather(mine.data(), all.data(), 2, 0);
    std::vector<int> back(2, -1);
    comm.scatter(all.data(), back.data(), 2, 0);
    EXPECT_EQ(back, mine);
  });
}

TEST(Split, RowColumnGrid) {
  // 6 ranks as a 2x3 grid: row communicators of size 3, column of size 2.
  run_ranks(6, [](Communicator& comm) {
    const int row = comm.rank() / 3;
    const int col = comm.rank() % 3;
    Communicator row_comm = comm.split(row, col);
    Communicator col_comm = comm.split(col, row);
    EXPECT_EQ(row_comm.size(), 3);
    EXPECT_EQ(row_comm.rank(), col);
    EXPECT_EQ(col_comm.size(), 2);
    EXPECT_EQ(col_comm.rank(), row);

    // Collectives on the subcommunicators work independently.
    EXPECT_EQ(row_comm.allreduce_sum(1), 3);
    EXPECT_EQ(col_comm.allreduce_sum(comm.rank()), col + (col + 3));
  });
}

TEST(Split, AlltoallWithinSubcommunicator) {
  run_ranks(4, [](Communicator& comm) {
    Communicator half = comm.split(comm.rank() / 2, comm.rank());
    std::vector<int> send{comm.rank() * 10, comm.rank() * 10 + 1};
    std::vector<int> recv(2, -1);
    half.alltoall(send.data(), recv.data(), 1);
    const int partner0 = (comm.rank() / 2) * 2;
    EXPECT_EQ(recv[0], partner0 * 10 + half.rank());
    EXPECT_EQ(recv[1], (partner0 + 1) * 10 + half.rank());
  });
}

TEST(Split, KeyControlsOrdering) {
  // Reverse ordering via descending keys.
  run_ranks(3, [](Communicator& comm) {
    Communicator rev = comm.split(0, -comm.rank());
    EXPECT_EQ(rev.rank(), 2 - comm.rank());
  });
}

TEST(AlltoallStrided, MatchesAlltoallOnStridedLayouts) {
  // Two variables per rank; rank q's block for rank r is stored as r-th
  // column of a (P x 3) row-major source, and lands as row q of a (3 x P)
  // column-major-like destination: element-strided on both sides.
  for (const int P : {1, 2, 3, 4}) {
    run_ranks(P, [&](Communicator& comm) {
      const auto n = static_cast<std::size_t>(P);
      const auto me = static_cast<std::size_t>(comm.rank());
      std::vector<std::vector<double>> src(2, std::vector<double>(3 * n));
      std::vector<std::vector<double>> dst(2,
                                           std::vector<double>(3 * n, -1.0));
      for (std::size_t v = 0; v < 2; ++v) {
        for (std::size_t c = 0; c < 3; ++c) {
          for (std::size_t r = 0; r < n; ++r) {
            // element c of the block for rank r
            src[v][r * 3 + c] = 1000.0 * v + 100.0 * me + 10.0 * r + c;
          }
        }
      }
      const double* sp[2] = {src[0].data(), src[1].data()};
      double* dp[2] = {dst[0].data(), dst[1].data()};
      comm.alltoall_strided(
          std::span<const double* const>(sp, 2), 3 * n,
          std::span<double* const>(dp, 2), 3 * n, [&](int q, std::size_t) {
            return StridedBlock{.width = 3,
                                .src = me * 3,
                                .src_step = 1,
                                .dst = static_cast<std::size_t>(q),
                                .dst_step = n};
          });
      for (std::size_t v = 0; v < 2; ++v) {
        for (std::size_t q = 0; q < n; ++q) {
          for (std::size_t c = 0; c < 3; ++c) {
            EXPECT_EQ(dst[v][q + n * c],
                      1000.0 * v + 100.0 * q + 10.0 * me + c);
          }
        }
      }
    });
  }
}

TEST(AlltoallStrided, RowsAndRepeatsFollowTheirPitches) {
  // One peer (self): a 2 x 3 x 4 sub-box of a 4 x 5 x 6 array copied into
  // a dense 4 x 3 x 2 box with the axes reversed.
  run_ranks(1, [](Communicator& comm) {
    std::vector<int> src(4 * 5 * 6);
    std::iota(src.begin(), src.end(), 0);
    std::vector<int> dst(4 * 3 * 2, -1);
    const int* sp = src.data();
    int* dp = dst.data();
    comm.alltoall_strided(
        std::span<const int* const>(&sp, 1), src.size(),
        std::span<int* const>(&dp, 1), dst.size(), [](int, std::size_t) {
          return StridedBlock{.width = 2, .rows = 3, .reps = 4,
                              .src = 1 + 4 * 1 + 20 * 1, .src_step = 1,
                              .src_pitch = 4, .src_rep_pitch = 20,
                              .dst = 0, .dst_step = 12, .dst_pitch = 4,
                              .dst_rep_pitch = 1};
        });
    for (std::size_t c = 0; c < 2; ++c) {
      for (std::size_t r = 0; r < 3; ++r) {
        for (std::size_t k = 0; k < 4; ++k) {
          EXPECT_EQ(dst[k + 4 * r + 12 * c],
                    src[(1 + c) + 4 * (1 + r) + 20 * (1 + k)]);
        }
      }
    }
  });
}

TEST(AlltoallStrided, RejectsBadBlocksOnEveryRankWithoutHanging) {
  // Preconditions are checked before publishing, so a rejected call
  // unwinds every rank before any peer reads its memory.
  run_ranks(2, [](Communicator& comm) {
    std::vector<int> buf(8, comm.rank());
    const int* sp = buf.data();
    int* dp = buf.data() + 4;
    const auto self_block = [&](int q, std::size_t) {
      return StridedBlock{.width = 1, .src = static_cast<std::size_t>(q),
                          .dst = static_cast<std::size_t>(q)};
    };
    // Destination overlaps this rank's own source.
    EXPECT_THROW(comm.alltoall_strided(std::span<const int* const>(&sp, 1),
                                       8, std::span<int* const>(&dp, 1), 4,
                                       self_block),
                 util::Error);
    // Block runs past the destination.
    std::vector<int> out(1);
    int* op = out.data();
    EXPECT_THROW(comm.alltoall_strided(std::span<const int* const>(&sp, 1),
                                       4, std::span<int* const>(&op, 1), 1,
                                       self_block),
                 util::Error);
    // The group is still usable.
    EXPECT_EQ(comm.allreduce_sum(1), 2);
  });
}

// --- one-rank failure ---
//
// Rank 1 throws between two calls of a collective while every other rank
// goes on to the second call. At that call no survivor may read rank 1's
// freed buffers (ASan) or wait for it forever: each survivor gets
// PeerFailure{1}, and run_ranks rethrows rank 1's own error.

using Collective = std::function<void(Communicator&)>;

void expect_root_failure_surfaces(int ranks, bool on_split,
                                  const Collective& collective) {
  std::atomic<int> peer_failures{0};
  try {
    run_ranks(ranks, [&](Communicator& world) {
      // A full-size subgroup ordered in reverse: the survivors then block
      // in a barrier the failed rank must drop out of besides the world's.
      Communicator comm = on_split ? world.split(0, -world.rank()) : world;
      try {
        // A survivor may already see the failure at the first call's last
        // barrier, once rank 1 has left it.
        collective(comm);
        if (world.rank() == 1) util::raise("rank 1 exploded");
        collective(comm);
      } catch (const PeerFailure& e) {
        EXPECT_EQ(e.failed_rank(), 1);
        ++peer_failures;
        throw;
      }
      ADD_FAILURE() << "rank " << world.rank()
                    << " completed a collective with a failed peer";
    });
    ADD_FAILURE() << "run_ranks returned normally";
  } catch (const PeerFailure&) {
    ADD_FAILURE() << "a secondary PeerFailure was rethrown, not the root";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("rank 1 exploded"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(peer_failures.load(), ranks - 1);
}

class RankOneFails : public ::testing::TestWithParam<int> {};

TEST_P(RankOneFails, Alltoall) {
  expect_root_failure_surfaces(GetParam(), false, [](Communicator& comm) {
    std::vector<int> send(static_cast<std::size_t>(comm.size()), 7);
    std::vector<int> recv(send.size());
    comm.alltoall(send.data(), recv.data(), 1);
  });
}

TEST_P(RankOneFails, Alltoallv) {
  expect_root_failure_surfaces(GetParam(), false, [](Communicator& comm) {
    const auto n = static_cast<std::size_t>(comm.size());
    std::vector<int> send(n, 7), recv(n);
    std::vector<std::size_t> counts(n, 1), displs(n);
    std::iota(displs.begin(), displs.end(), std::size_t{0});
    comm.alltoallv(send.data(), counts.data(), displs.data(), recv.data(),
                   counts.data(), displs.data());
  });
}

TEST_P(RankOneFails, AlltoallStrided) {
  expect_root_failure_surfaces(GetParam(), false, [](Communicator& comm) {
    std::vector<int> send(static_cast<std::size_t>(comm.size()), 7);
    std::vector<int> recv(send.size());
    const int* sp = send.data();
    int* rp = recv.data();
    const auto me = static_cast<std::size_t>(comm.rank());
    comm.alltoall_strided(
        std::span<const int* const>(&sp, 1), send.size(),
        std::span<int* const>(&rp, 1), recv.size(),
        [me](int q, std::size_t) {
          return StridedBlock{.width = 1, .src = me,
                              .dst = static_cast<std::size_t>(q)};
        });
  });
}

TEST_P(RankOneFails, IalltoallWait) {
  expect_root_failure_surfaces(GetParam(), false, [](Communicator& comm) {
    std::vector<int> send(static_cast<std::size_t>(comm.size()), 7);
    std::vector<int> recv(send.size());
    Request req = comm.ialltoall(send.data(), recv.data(), 1);
    req.wait();
  });
}

TEST_P(RankOneFails, AllreduceSum) {
  expect_root_failure_surfaces(GetParam(), false, [](Communicator& comm) {
    std::vector<double> v(3, 1.0);
    comm.allreduce_sum(v.data(), v.data(), v.size());
  });
}

TEST_P(RankOneFails, Barrier) {
  expect_root_failure_surfaces(GetParam(), false,
                               [](Communicator& comm) { comm.barrier(); });
}

TEST_P(RankOneFails, AlltoallOnSplitSubcommunicator) {
  expect_root_failure_surfaces(GetParam(), true, [](Communicator& comm) {
    std::vector<int> send(static_cast<std::size_t>(comm.size()), 7);
    std::vector<int> recv(send.size());
    comm.alltoall(send.data(), recv.data(), 1);
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, RankOneFails, ::testing::Values(2, 4),
                         [](const ::testing::TestParamInfo<int>& pinfo) {
                           return "P" + std::to_string(pinfo.param);
                         });

}  // namespace
}  // namespace psdns::comm
