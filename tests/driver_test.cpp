#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "comm/communicator.hpp"
#include "driver/campaign.hpp"
#include "io/checkpoint.hpp"
#include "io/series.hpp"
#include "obs/registry.hpp"
#include "resilience/fault.hpp"
#include "util/config.hpp"

namespace psdns::driver {
namespace {

std::string tmp(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// --- util::Config ---

TEST(Config, ParsesKeysCommentsAndBlanks) {
  const auto cfg = util::Config::from_string(R"(
# a comment
n = 64           # trailing comment
viscosity=0.01
name = run one
flag = true
)");
  EXPECT_EQ(cfg.size(), 4u);
  EXPECT_EQ(cfg.get_int("n", 0), 64);
  EXPECT_DOUBLE_EQ(cfg.get_double("viscosity", 0.0), 0.01);
  EXPECT_EQ(cfg.get("name", ""), "run one");
  EXPECT_TRUE(cfg.get_bool("flag", false));
  EXPECT_EQ(cfg.get_int("missing", 7), 7);
}

TEST(Config, RejectsMalformedLines) {
  EXPECT_THROW(util::Config::from_string("just words\n"), util::Error);
  EXPECT_THROW(util::Config::from_string("= value\n"), util::Error);
}

TEST(Config, RejectsBadTypes) {
  const auto cfg = util::Config::from_string("n = twelve\nb = maybe\n");
  EXPECT_THROW(cfg.get_int("n", 0), util::Error);
  EXPECT_THROW(cfg.get_bool("b", false), util::Error);
}

TEST(Config, TracksUnusedKeys) {
  const auto cfg = util::Config::from_string("a = 1\nb = 2\nc = 3\n");
  cfg.get_int("a", 0);
  cfg.get("c", "");
  const auto unused = cfg.unused_keys();
  EXPECT_EQ(unused.size(), 1u);
  EXPECT_TRUE(unused.contains("b"));
}

TEST(Config, MissingFileThrows) {
  EXPECT_THROW(util::Config::from_file(tmp("psdns_no_such.cfg")),
               util::Error);
}

// --- CampaignConfig parsing ---

TEST(CampaignConfig, ParsesFullSchema) {
  const auto file = util::Config::from_string(R"(
n = 48
viscosity = 0.005
scheme = rk4
forcing.enabled = true
forcing.power = 0.3
scalars = 2
scalar0.schmidt = 0.7
scalar1.schmidt = 4
scalar1.mean_gradient = 1.0
steps = 250
cfl = 0.4
checkpoint_every = 50
checkpoint_path = /tmp/x.ckp
)");
  const auto cfg = CampaignConfig::from(file);
  EXPECT_EQ(cfg.solver.n, 48u);
  EXPECT_EQ(cfg.solver.scheme, dns::TimeScheme::RK4);
  EXPECT_TRUE(cfg.solver.forcing.enabled);
  ASSERT_EQ(cfg.solver.scalars.size(), 2u);
  EXPECT_DOUBLE_EQ(cfg.solver.scalars[0].schmidt, 0.7);
  EXPECT_DOUBLE_EQ(cfg.solver.scalars[1].mean_gradient, 1.0);
  EXPECT_EQ(cfg.max_steps, 250);
  EXPECT_EQ(cfg.checkpoint_every, 50);
}

TEST(CampaignConfig, RejectsUnknownKeys) {
  const auto file = util::Config::from_string("n = 32\nviscossity = 0.01\n");
  EXPECT_THROW(CampaignConfig::from(file), util::Error);
}

TEST(CampaignConfig, RejectsBadScheme) {
  const auto file = util::Config::from_string("scheme = euler\n");
  EXPECT_THROW(CampaignConfig::from(file), util::Error);
}

TEST(CampaignConfig, ParsesEquationSystemKeys) {
  const auto file = util::Config::from_string(R"(
system = mhd
resistivity = 0.02
b0 = 0.3
)");
  const auto cfg = CampaignConfig::from(file);
  EXPECT_EQ(cfg.solver.system, dns::SystemType::Mhd);
  EXPECT_DOUBLE_EQ(cfg.solver.resistivity, 0.02);
  EXPECT_DOUBLE_EQ(cfg.b0, 0.3);

  const auto rot = CampaignConfig::from(
      util::Config::from_string("system = rotating\nrotation_omega = 2.5\n"));
  EXPECT_EQ(rot.solver.system, dns::SystemType::RotatingNS);
  EXPECT_DOUBLE_EQ(rot.solver.rotation_omega, 2.5);

  EXPECT_THROW(CampaignConfig::from(
                   util::Config::from_string("system = ideal_gas\n")),
               util::Error);
}

TEST(CampaignConfig, RejectsMeaninglessForcingBandAtParseTime) {
  // Bad bands must die in from(), before any solver is constructed, with
  // the typed error - every rank parses the same file, so the whole group
  // rejects the job together.
  EXPECT_THROW(CampaignConfig::from(util::Config::from_string(
                   "forcing.enabled = true\nforcing.klo = 0\n")),
               dns::ForcingError);
  EXPECT_THROW(CampaignConfig::from(util::Config::from_string(
                   "forcing.enabled = true\nforcing.klo = 3\n"
                   "forcing.khi = 2\n")),
               dns::ForcingError);
  EXPECT_THROW(CampaignConfig::from(util::Config::from_string(
                   "forcing.enabled = true\nforcing.power = 0\n")),
               dns::ForcingError);
  // With forcing off the band is never read, so it is not validated.
  EXPECT_NO_THROW(CampaignConfig::from(
      util::Config::from_string("forcing.klo = 0\n")));
}

TEST(Campaign, MhdCampaignPublishesSystemGauges) {
  CampaignConfig cfg;
  cfg.solver.n = 16;
  cfg.solver.viscosity = 0.02;
  cfg.solver.system = dns::SystemType::Mhd;
  cfg.b0 = 0.4;
  cfg.max_steps = 4;
  cfg.max_dt = 0.005;
  cfg.diagnostics_every = 2;
  CampaignResult result;
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    const auto r = run_campaign(comm, cfg);
    if (comm.rank() == 0) result = r;
  });
  EXPECT_EQ(result.steps_run, 4);
  EXPECT_GT(result.final_diagnostics.energy, 0.0);
  const auto snap = obs::registry().snapshot();
  ASSERT_TRUE(snap.gauges.contains("driver.system.magnetic_energy"));
  EXPECT_GT(snap.gauges.at("driver.system.magnetic_energy"),
            0.4 * 0.4 / 2.0 * 0.9);  // at least the mean-field energy
  ASSERT_TRUE(snap.gauges.contains("driver.system.cross_helicity"));
}

// --- run_campaign ---

TEST(Campaign, RunsAndReportsAtCadence) {
  CampaignConfig cfg;
  cfg.solver.n = 16;
  cfg.solver.viscosity = 0.02;
  cfg.max_steps = 8;
  cfg.diagnostics_every = 4;
  int reports = 0;
  CampaignResult result;
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    const auto r = run_campaign(
        comm, cfg, [&](std::int64_t, double, const dns::Diagnostics& d) {
          ++reports;
          EXPECT_GT(d.energy, 0.0);
        });
    if (comm.rank() == 0) result = r;
  });
  EXPECT_EQ(result.steps_run, 8);
  EXPECT_FALSE(result.restarted);
  EXPECT_EQ(reports, 2);  // steps 4 and 8, rank 0 only
  EXPECT_GT(result.final_time, 0.0);
  EXPECT_GT(result.final_diagnostics.energy, 0.0);
}

TEST(Campaign, TimeBudgetStopsEarly) {
  CampaignConfig cfg;
  cfg.solver.n = 16;
  cfg.max_steps = 1000;
  cfg.max_dt = 0.01;
  cfg.max_time = 0.035;  // ~4 steps
  CampaignResult result;
  comm::run_ranks(1, [&](comm::Communicator& comm) {
    result = run_campaign(comm, cfg);
  });
  EXPECT_LT(result.steps_run, 10);
  EXPECT_GE(result.final_time, 0.035);
}

TEST(Campaign, SegmentsResumeAcrossInvocations) {
  const auto ckp = tmp("psdns_campaign_seg.ckp");
  std::remove(ckp.c_str());
  std::remove((ckp + ".1").c_str());  // keep=2 rotates a predecessor

  CampaignConfig cfg;
  cfg.solver.n = 16;
  cfg.solver.viscosity = 0.02;
  cfg.max_steps = 5;
  cfg.max_dt = 0.01;
  cfg.diagnostics_every = 0;
  cfg.checkpoint_path = ckp;

  CampaignResult seg1, seg2;
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    const auto r = run_campaign(comm, cfg);
    if (comm.rank() == 0) seg1 = r;
  });
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    const auto r = run_campaign(comm, cfg);
    if (comm.rank() == 0) seg2 = r;
  });
  EXPECT_FALSE(seg1.restarted);
  EXPECT_TRUE(seg2.restarted);
  EXPECT_NEAR(seg2.final_time, 2.0 * seg1.final_time, 1e-9);

  // The two-segment result equals one uninterrupted 10-step run.
  CampaignConfig uninterrupted = cfg;
  uninterrupted.max_steps = 10;
  uninterrupted.checkpoint_path.clear();
  CampaignResult ref;
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    const auto r = run_campaign(comm, uninterrupted);
    if (comm.rank() == 0) ref = r;
  });
  EXPECT_NEAR(seg2.final_diagnostics.energy, ref.final_diagnostics.energy,
              1e-12);
  std::remove(ckp.c_str());
  std::remove((ckp + ".1").c_str());
}

TEST(Campaign, WritesSeriesAndSpectrumArtifacts) {
  const auto series = tmp("psdns_campaign_series.csv");
  const auto spectrum = tmp("psdns_campaign_spec.csv");
  CampaignConfig cfg;
  cfg.solver.n = 16;
  cfg.max_steps = 3;
  cfg.max_dt = 0.01;
  cfg.series_path = series;
  cfg.spectrum_path = spectrum;
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    run_campaign(comm, cfg);
  });
  EXPECT_TRUE(std::filesystem::exists(series));
  const auto spec = io::read_spectrum_csv(spectrum);
  EXPECT_EQ(spec.size(), 9u);  // N/2+1 shells
  double total = 0.0;
  for (const double e : spec) total += e;
  EXPECT_GT(total, 0.0);
  std::remove(series.c_str());
  std::remove(spectrum.c_str());
}

TEST(Campaign, ScalarsInitializedAndEvolved) {
  CampaignConfig cfg;
  cfg.solver.n = 16;
  cfg.solver.scalars = {{.schmidt = 1.0, .mean_gradient = 1.0}};
  cfg.max_steps = 4;
  cfg.max_dt = 0.01;
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    EXPECT_NO_THROW(run_campaign(comm, cfg));
  });
}

TEST(CampaignConfig, ParsesResilienceKnobs) {
  const auto file = util::Config::from_string(
      "checkpoint_keep = 4\nio_retries = 5\n");
  const auto cfg = CampaignConfig::from(file);
  EXPECT_EQ(cfg.checkpoint_keep, 4);
  EXPECT_EQ(cfg.io_retries, 5);
  EXPECT_THROW(CampaignConfig::from(
                   util::Config::from_string("checkpoint_keep = 0\n")),
               util::Error);
  EXPECT_THROW(
      CampaignConfig::from(util::Config::from_string("io_retries = 0\n")),
      util::Error);
}

// --- run_campaign_supervised ---

void remove_chain(const std::string& ckp) {
  for (int k = 0; k < 8; ++k) {
    std::remove(io::rotated_checkpoint_name(ckp, k).c_str());
  }
  std::remove((ckp + ".tmp").c_str());
}

CampaignConfig supervised_config(const std::string& ckp) {
  CampaignConfig cfg;
  cfg.solver.n = 16;
  cfg.solver.viscosity = 0.02;
  cfg.seed = 7;
  cfg.max_steps = 4;
  cfg.max_dt = 0.01;
  cfg.diagnostics_every = 0;
  cfg.checkpoint_every = 2;
  cfg.checkpoint_keep = 2;
  cfg.checkpoint_path = ckp;
  return cfg;
}

TEST(Supervised, MatchesPlainCampaignWithoutFaults) {
  const auto ckp_a = tmp("psdns_sup_plain_a.ckp");
  const auto ckp_b = tmp("psdns_sup_plain_b.ckp");
  remove_chain(ckp_a);
  remove_chain(ckp_b);

  CampaignResult plain, supervised;
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    const auto r = run_campaign(comm, supervised_config(ckp_a));
    if (comm.rank() == 0) plain = r;
  });
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    const auto r = run_campaign_supervised(comm, supervised_config(ckp_b));
    if (comm.rank() == 0) supervised = r;
  });
  EXPECT_EQ(supervised.steps_run, plain.steps_run);
  EXPECT_EQ(supervised.recoveries, 0);
  EXPECT_EQ(supervised.checkpoints_discarded, 0);
  EXPECT_DOUBLE_EQ(supervised.final_time, plain.final_time);
  EXPECT_DOUBLE_EQ(supervised.final_diagnostics.energy,
                   plain.final_diagnostics.energy);
  remove_chain(ckp_a);
  remove_chain(ckp_b);
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(Supervised, RecoversFromInjectedCommFault) {
  // Slab and pencil (1x2) campaigns share the supervisor, checkpoints and
  // deterministic replay.
  for (const auto decomposition :
       {transpose::Decomposition::Slab, transpose::Decomposition::Pencil}) {
    const std::string name = transpose::to_string(decomposition);
    SCOPED_TRACE(name);
    const auto faulted_ckp = tmp("psdns_sup_comm_faulted_" + name + ".ckp");
    const auto clean_ckp = tmp("psdns_sup_comm_clean_" + name + ".ckp");
    remove_chain(faulted_ckp);
    remove_chain(clean_ckp);
    auto faulted_cfg = supervised_config(faulted_ckp);
    faulted_cfg.solver.decomposition = decomposition;
    auto clean_cfg = supervised_config(clean_ckp);
    clean_cfg.solver.decomposition = decomposition;

    CampaignResult faulted;
    {
      resilience::ScopedPlan plan("comm.alltoall@5=throw");
      comm::run_ranks(2, [&](comm::Communicator& comm) {
        const auto r = run_campaign_supervised(comm, faulted_cfg);
        if (comm.rank() == 0) faulted = r;
      });
    }
    EXPECT_EQ(faulted.recoveries, 1);

    CampaignResult clean;
    comm::run_ranks(2, [&](comm::Communicator& comm) {
      const auto r = run_campaign_supervised(comm, clean_cfg);
      if (comm.rank() == 0) clean = r;
    });
    // Deterministic replay: the recovered run lands on the identical state.
    EXPECT_DOUBLE_EQ(faulted.final_time, clean.final_time);
    EXPECT_DOUBLE_EQ(faulted.final_diagnostics.energy,
                     clean.final_diagnostics.energy);
    EXPECT_EQ(io::peek_checkpoint(faulted_ckp).step,
              io::peek_checkpoint(clean_ckp).step);
    const std::string faulted_bytes = file_bytes(faulted_ckp);
    EXPECT_FALSE(faulted_bytes.empty());
    EXPECT_TRUE(faulted_bytes == file_bytes(clean_ckp))
        << "final checkpoints differ";
    remove_chain(faulted_ckp);
    remove_chain(clean_ckp);
  }
}

TEST(Supervised, FallsBackToOlderCheckpointWhenNewestIsCorrupt) {
  const auto ckp = tmp("psdns_sup_fallback.ckp");
  remove_chain(ckp);

  // Allocation 1: checkpoints at step 3 (periodic) and step 4 (final).
  auto cfg = supervised_config(ckp);
  cfg.checkpoint_every = 3;
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    run_campaign_supervised(comm, cfg);
  });
  ASSERT_EQ(io::peek_checkpoint(ckp).step, 4);
  ASSERT_EQ(io::peek_checkpoint(ckp + ".1").step, 3);

  // The newest checkpoint rots on disk; allocation 2 must discard it, fall
  // back to step 3, and still advance its full 4-step budget (to step 7).
  {
    std::FILE* f = std::fopen(ckp.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 200, SEEK_SET);
    const int c = std::fgetc(f);
    std::fseek(f, 200, SEEK_SET);
    std::fputc(c ^ 0x01, f);
    std::fclose(f);
  }
  CampaignResult result;
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    const auto r = run_campaign_supervised(comm, cfg);
    if (comm.rank() == 0) result = r;
  });
  EXPECT_TRUE(result.restarted);
  EXPECT_EQ(result.checkpoints_discarded, 1);
  EXPECT_EQ(result.steps_run, 4);
  EXPECT_EQ(io::peek_checkpoint(ckp).step, 7);
  remove_chain(ckp);
}

TEST(Supervised, GivesUpAfterRecoveryBudget) {
  const auto ckp = tmp("psdns_sup_givesup.ckp");
  remove_chain(ckp);
  resilience::ScopedPlan plan(
      "comm.alltoall@0=throw;comm.alltoall@1=throw;comm.alltoall@2=throw");
  SupervisorConfig sup;
  sup.max_recoveries = 2;
  EXPECT_THROW(comm::run_ranks(2,
                               [&](comm::Communicator& comm) {
                                 run_campaign_supervised(
                                     comm, supervised_config(ckp), sup);
                               }),
               resilience::InjectedFault);
  remove_chain(ckp);
}

}  // namespace
}  // namespace psdns::driver
