#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "comm/communicator.hpp"
#include "driver/campaign.hpp"
#include "gpu/copy.hpp"
#include "io/checkpoint.hpp"
#include "obs/registry.hpp"
#include "resilience/crc32c.hpp"
#include "resilience/fault.hpp"
#include "resilience/retry.hpp"

namespace psdns::resilience {
namespace {

std::string tmp(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void remove_chain(const std::string& path) {
  for (int k = 0; k < 8; ++k) {
    std::remove(io::rotated_checkpoint_name(path, k).c_str());
  }
  std::remove((path + ".tmp").c_str());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// --- CRC32C ---

TEST(Crc32c, MatchesKnownVectors) {
  EXPECT_EQ(crc32c("", 0), 0u);
  // The canonical CRC32C check value.
  EXPECT_EQ(crc32c("123456789", 9), 0xE3069283u);
}

TEST(Crc32c, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const auto whole = crc32c(data.data(), data.size());
  for (std::size_t cut : {std::size_t{0}, std::size_t{1}, std::size_t{17},
                          data.size()}) {
    const auto part = crc32c(data.data() + cut, data.size() - cut,
                             crc32c(data.data(), cut));
    EXPECT_EQ(part, whole) << "cut at " << cut;
  }
}

TEST(Crc32c, DetectsSingleBitFlip) {
  std::vector<unsigned char> buf(1024, 0xAB);
  const auto clean = crc32c(buf.data(), buf.size());
  buf[512] ^= 0x01u;
  EXPECT_NE(crc32c(buf.data(), buf.size()), clean);
}

// --- FaultPlan parsing ---

TEST(FaultPlan, ParsesEntriesAndRoundTrips) {
  const auto plan = FaultPlan::parse(
      "comm.alltoall@12=throw; io.ckpt.write@0=short_write,"
      "io.ckpt.read@3=bit_flip");
  ASSERT_EQ(plan.faults.size(), 3u);
  EXPECT_EQ(plan.faults[0].site, site::comm_alltoall);
  EXPECT_EQ(plan.faults[0].call, 12);
  EXPECT_EQ(plan.faults[0].kind, FaultKind::Throw);
  EXPECT_EQ(plan.faults[1].kind, FaultKind::ShortWrite);
  EXPECT_EQ(plan.faults[2].site, site::ckpt_read);
  EXPECT_EQ(plan.faults[2].kind, FaultKind::BitFlip);
  EXPECT_EQ(FaultPlan::parse(plan.to_string()).to_string(), plan.to_string());
}

TEST(FaultPlan, EmptyStringIsEmptyPlan) {
  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_TRUE(FaultPlan::parse("  ;  ").empty());
}

TEST(FaultPlan, RejectsMalformedEntries) {
  EXPECT_THROW(FaultPlan::parse("comm.alltoall"), util::Error);
  EXPECT_THROW(FaultPlan::parse("comm.alltoall@3"), util::Error);
  EXPECT_THROW(FaultPlan::parse("comm.alltoall=throw"), util::Error);
  EXPECT_THROW(FaultPlan::parse("nosuch.site@0=throw"), util::Error);
  EXPECT_THROW(FaultPlan::parse("comm.alltoall@x=throw"), util::Error);
  EXPECT_THROW(FaultPlan::parse("comm.alltoall@-1=throw"), util::Error);
  EXPECT_THROW(FaultPlan::parse("comm.alltoall@0=explode"), util::Error);
}

TEST(FaultPlan, KnownSitesCoverTheWiredHooks) {
  const auto& sites = known_sites();
  EXPECT_EQ(sites.size(), 5u);
  for (const char* s : {site::comm_alltoall, site::ckpt_write,
                        site::ckpt_read, site::gpu_memcpy2d,
                        site::result_write}) {
    EXPECT_NE(std::find(sites.begin(), sites.end(), s), sites.end()) << s;
  }
}

// --- injector semantics ---

TEST(Injector, FiresOnceAtExactCallIndex) {
  ScopedPlan plan("gpu.memcpy2d@2=throw");
  EXPECT_TRUE(armed());
  EXPECT_FALSE(poll(site::gpu_memcpy2d).has_value());  // call 0
  EXPECT_FALSE(poll(site::gpu_memcpy2d).has_value());  // call 1
  const auto hit = poll(site::gpu_memcpy2d);            // call 2
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, FaultKind::Throw);
  EXPECT_FALSE(poll(site::gpu_memcpy2d).has_value());  // one-shot
}

TEST(Injector, CountsPerSiteAndPerThread) {
  ScopedPlan plan("comm.alltoall@1=throw");
  // Other sites never interfere with the counter.
  EXPECT_FALSE(poll(site::ckpt_read).has_value());
  EXPECT_FALSE(poll(site::comm_alltoall).has_value());  // call 0
  // Each thread counts independently: both observe the fault at index 1.
  std::atomic<int> fired{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      if (poll(site::comm_alltoall)) ++fired;  // call 0 on this thread
      if (poll(site::comm_alltoall)) ++fired;  // call 1 -> fires
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(fired.load(), 2);
}

TEST(Injector, DisarmedPollIsSilent) {
  disarm();
  EXPECT_FALSE(armed());
  EXPECT_FALSE(poll(site::comm_alltoall).has_value());
  EXPECT_NO_THROW(maybe_throw(site::comm_alltoall));
}

TEST(Injector, MaybeThrowCarriesSiteAndCounts) {
  const auto before = obs::registry().counter("fault.injected");
  ScopedPlan plan("io.ckpt.read@0=throw");
  try {
    maybe_throw(site::ckpt_read);
    FAIL() << "expected InjectedFault";
  } catch (const InjectedFault& e) {
    EXPECT_EQ(e.site(), site::ckpt_read);
    EXPECT_EQ(e.kind(), FaultKind::Throw);
    EXPECT_NE(std::string(e.what()).find("io.ckpt.read"), std::string::npos);
  }
  EXPECT_EQ(obs::registry().counter("fault.injected"), before + 1);
}

TEST(Injector, ArmFromEnvParsesThePlanVariable) {
  const char* prior = std::getenv("PSDNS_FAULT_PLAN");
  const std::string saved = prior != nullptr ? prior : "";
  ::setenv("PSDNS_FAULT_PLAN", "io.ckpt.write@4=bit_flip", 1);
  EXPECT_TRUE(arm_from_env());
  EXPECT_TRUE(armed());
  disarm();
  if (prior != nullptr) {
    ::setenv("PSDNS_FAULT_PLAN", saved.c_str(), 1);
  } else {
    ::unsetenv("PSDNS_FAULT_PLAN");
    EXPECT_FALSE(arm_from_env());
  }
}

// --- retry policy ---

TEST(Retry, SucceedsAfterTransientFailures) {
  const auto before = obs::registry().counter("resilience.retries");
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.base_delay_s = 0.0;
  int calls = 0;
  const int result = with_retry(policy, "test-op", [&] {
    if (++calls < 3) throw std::runtime_error("transient");
    return 42;
  });
  EXPECT_EQ(result, 42);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(obs::registry().counter("resilience.retries"), before + 2);
}

TEST(Retry, ExhaustsBudgetAndRethrows) {
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.base_delay_s = 0.0;
  int calls = 0;
  EXPECT_THROW(with_retry(policy, "doomed",
                          [&]() -> int {
                            ++calls;
                            throw std::runtime_error("permanent");
                          }),
               std::runtime_error);
  EXPECT_EQ(calls, 2);
}

TEST(Retry, BackoffIsDeterministicAndGrows) {
  RetryPolicy policy;  // base 1e-3, backoff 2.0, jitter 0.5
  const double d1 = backoff_delay_s(policy, 1);
  const double d2 = backoff_delay_s(policy, 2);
  const double d3 = backoff_delay_s(policy, 3);
  EXPECT_DOUBLE_EQ(d1, backoff_delay_s(policy, 1));  // same seed, same delay
  EXPECT_GE(d1, policy.base_delay_s);
  EXPECT_LT(d1, policy.base_delay_s * 1.5);
  EXPECT_GT(d2, d1);
  EXPECT_GT(d3, d2);
  RetryPolicy other = policy;
  other.seed = 123;
  EXPECT_NE(backoff_delay_s(other, 1), d1);  // jitter depends on the seed
}

// --- subsystem hooks ---

TEST(Hooks, AlltoallThrowsOnEveryRankThenRecovers) {
  ScopedPlan plan("comm.alltoall@0=throw");
  std::atomic<int> caught{0};
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    std::vector<int> send{comm.rank() * 10, comm.rank() * 10 + 1};
    std::vector<int> recv(2, -1);
    try {
      comm.alltoall(send.data(), recv.data(), 1);
      FAIL() << "expected InjectedFault on rank " << comm.rank();
    } catch (const InjectedFault& e) {
      EXPECT_EQ(e.site(), site::comm_alltoall);
      ++caught;
    }
    // The entry is one-shot per thread: the retried collective completes
    // and delivers correct data.
    comm.alltoall(send.data(), recv.data(), 1);
    EXPECT_EQ(recv[0], 0 + comm.rank());
    EXPECT_EQ(recv[1], 10 + comm.rank());
  });
  EXPECT_EQ(caught.load(), 2);
}

TEST(Hooks, AlltoallBitFlipCorruptsReceivedPayload) {
  ScopedPlan plan("comm.alltoall@0=bit_flip");
  comm::run_ranks(1, [&](comm::Communicator& comm) {
    int send = 7;
    int recv = 0;
    comm.alltoall(&send, &recv, 1);
    // Bit 0x40 of the top byte flipped: 7 | 0x40000000 (little-endian).
    EXPECT_EQ(recv, 7 + 0x40000000);
    comm.alltoall(&send, &recv, 1);
    EXPECT_EQ(recv, 7);  // one-shot
  });
}

TEST(Hooks, Memcpy2dShortWriteBitFlipAndThrow) {
  ScopedPlan plan(
      "gpu.memcpy2d@0=short_write;gpu.memcpy2d@1=bit_flip;"
      "gpu.memcpy2d@2=throw");
  const std::vector<int> src{1, 2, 3, 4};
  std::vector<int> dst(4, 0);
  // short_write: only the first half of the rows arrive.
  gpu::memcpy2d(dst.data(), 2, src.data(), 2, 2, 2);
  EXPECT_EQ(dst, (std::vector<int>{1, 2, 0, 0}));
  // bit_flip: full copy, one bit of the destination corrupted.
  gpu::memcpy2d(dst.data(), 2, src.data(), 2, 2, 2);
  EXPECT_EQ(dst[0], 0);  // 1 ^ 1
  EXPECT_EQ(dst[3], 4);
  EXPECT_THROW(gpu::memcpy2d(dst.data(), 2, src.data(), 2, 2, 2),
               InjectedFault);
  // Plan exhausted: clean copies from here on.
  gpu::memcpy2d(dst.data(), 2, src.data(), 2, 2, 2);
  EXPECT_EQ(dst, src);
}

/// One strided exchange of a 2-rank group: rank q sends rank r the 4 rows
/// of 2 ints at src[8r, 8r+8); rank r stores rank q's block at dst[8q].
void strided_exchange(comm::Communicator& comm, const std::vector<int>& src,
                      std::vector<int>& dst) {
  const int* sp = src.data();
  int* dp = dst.data();
  const auto me = static_cast<std::size_t>(comm.rank());
  comm.alltoall_strided(
      std::span<const int* const>(&sp, 1), src.size(),
      std::span<int* const>(&dp, 1), dst.size(), [me](int q, std::size_t) {
        return comm::StridedBlock{.width = 2, .rows = 4, .src = 8 * me,
                                  .src_pitch = 2,
                                  .dst = 8 * static_cast<std::size_t>(q),
                                  .dst_pitch = 2};
      });
}

std::vector<int> strided_source(int rank) {
  std::vector<int> src(16);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = 1000 * (rank + 1) + static_cast<int>(i);
  }
  return src;
}

std::vector<int> strided_expected(int rank) {
  std::vector<int> want(16);
  for (int q = 0; q < 2; ++q) {
    for (std::size_t i = 0; i < 8; ++i) {
      want[8 * static_cast<std::size_t>(q) + i] =
          1000 * (q + 1) + 8 * rank + static_cast<int>(i);
    }
  }
  return want;
}

TEST(Hooks, StridedExchangeThrowsOnEveryRankBeforePublishing) {
  // The exchange polls comm.alltoall, then gpu.memcpy2d (its copy), once
  // per call and before any rank publishes: a throw unwinds every rank and
  // the retried call delivers correct data.
  ScopedPlan plan("comm.alltoall@0=throw;gpu.memcpy2d@0=throw");
  std::atomic<int> caught{0};
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    const auto src = strided_source(comm.rank());
    std::vector<int> dst(16, -1);
    for (const char* want : {site::comm_alltoall, site::gpu_memcpy2d}) {
      try {
        strided_exchange(comm, src, dst);
        ADD_FAILURE() << "expected InjectedFault at " << want;
      } catch (const InjectedFault& e) {
        EXPECT_EQ(e.site(), want);
        ++caught;
      }
    }
    EXPECT_EQ(dst, std::vector<int>(16, -1));
    strided_exchange(comm, src, dst);
    EXPECT_EQ(dst, strided_expected(comm.rank()));
  });
  EXPECT_EQ(caught.load(), 4);
}

TEST(Hooks, StridedExchangeCorruptsOnlyTheReceiversDestination) {
  ScopedPlan plan(
      "comm.alltoall@0=bit_flip;gpu.memcpy2d@1=short_write;"
      "gpu.memcpy2d@2=bit_flip");
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    const auto src = strided_source(comm.rank());
    const auto want = strided_expected(comm.rank());
    // bit_flip (comm): the first received element's high bit, as alltoall.
    std::vector<int> dst(16, -1);
    strided_exchange(comm, src, dst);
    auto flipped = want;
    flipped[0] ^= 0x40000000;
    EXPECT_EQ(dst, flipped);
    // short_write (memcpy2d): half the rows of the first block arrive.
    dst.assign(16, -1);
    strided_exchange(comm, src, dst);
    auto truncated = want;
    std::fill(truncated.begin() + 4, truncated.begin() + 8, -1);
    EXPECT_EQ(dst, truncated);
    // bit_flip (memcpy2d): bit 0 of the first received element.
    strided_exchange(comm, src, dst);
    auto low = want;
    low[0] ^= 1;
    EXPECT_EQ(dst, low);
    // Sources are never written.
    EXPECT_EQ(src, strided_source(comm.rank()));
  });
}

// --- the acceptance fault drill ---
//
// A two-allocation campaign with one injected fault per site must recover
// automatically and land on the same final step with spectral state
// bitwise-identical to the fault-free run. The CI fault-drill job feeds the
// plan through PSDNS_FAULT_PLAN; locally the same plan is armed directly.

driver::CampaignConfig drill_config(const std::string& ckp) {
  driver::CampaignConfig cfg;
  cfg.solver.n = 16;
  cfg.solver.viscosity = 0.02;
  cfg.seed = 11;
  cfg.max_steps = 4;
  cfg.max_dt = 0.01;
  cfg.diagnostics_every = 0;
  cfg.checkpoint_every = 2;
  cfg.checkpoint_keep = 2;
  cfg.checkpoint_path = ckp;
  return cfg;
}

driver::CampaignResult run_two_segments(const driver::CampaignConfig& cfg,
                                        int* recoveries = nullptr,
                                        int* discarded = nullptr) {
  driver::CampaignResult last;
  for (int segment = 0; segment < 2; ++segment) {
    comm::run_ranks(2, [&](comm::Communicator& comm) {
      const auto r = driver::run_campaign_supervised(comm, cfg);
      if (comm.rank() == 0) {
        last = r;
        if (recoveries != nullptr) *recoveries += r.recoveries;
        if (discarded != nullptr) *discarded += r.checkpoints_discarded;
      }
    });
  }
  return last;
}

TEST(Drill, InjectedFaultsRecoverToBitwiseIdenticalState) {
  const std::string faulted_ckp = tmp("psdns_drill_faulted.ckp");
  const std::string clean_ckp = tmp("psdns_drill_clean.ckp");
  remove_chain(faulted_ckp);
  remove_chain(clean_ckp);

  // One fault per injection site. comm/gpu faults abort a segment early in
  // allocation 1; the write fault exercises the retry path on the first
  // checkpoint; the read fault corrupts the restart load of allocation 2
  // (read op 0 is the supervisor's entry verification, op 1 the load).
  const std::string plan_text =
      "comm.alltoall@6=throw;gpu.memcpy2d@9=throw;"
      "io.ckpt.write@0=short_write;io.ckpt.read@1=bit_flip";
  const auto injected_before = obs::registry().counter("fault.injected");

  // Honor the CI job's PSDNS_FAULT_PLAN when present so the env pathway is
  // exercised end to end; otherwise arm the canonical drill plan.
  if (!arm_from_env()) arm(FaultPlan::parse(plan_text));
  int recoveries = 0;
  int discarded = 0;
  const auto faulted =
      run_two_segments(drill_config(faulted_ckp), &recoveries, &discarded);
  disarm();

  const auto injected =
      obs::registry().counter("fault.injected") - injected_before;
  EXPECT_GE(injected, 3) << "drill plan did not fire";
  EXPECT_GE(recoveries, 1);

  const auto clean = run_two_segments(drill_config(clean_ckp));

  // Same final step, same final time, bitwise-identical spectral state.
  const auto faulted_info = io::verify_checkpoint(faulted_ckp);
  const auto clean_info = io::verify_checkpoint(clean_ckp);
  EXPECT_EQ(faulted_info.step, clean_info.step);
  EXPECT_EQ(faulted_info.step, 8);
  EXPECT_DOUBLE_EQ(faulted_info.time, clean_info.time);
  EXPECT_DOUBLE_EQ(faulted.final_diagnostics.energy,
                   clean.final_diagnostics.energy);
  EXPECT_EQ(read_file(faulted_ckp), read_file(clean_ckp));

  remove_chain(faulted_ckp);
  remove_chain(clean_ckp);
}

}  // namespace
}  // namespace psdns::resilience
