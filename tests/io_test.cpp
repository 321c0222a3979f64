#include <gtest/gtest.h>

#include <sys/resource.h>

#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>

#include "comm/communicator.hpp"
#include "dns/spectral_core.hpp"
#include "io/checkpoint.hpp"
#include "io/series.hpp"
#include "obs/registry.hpp"
#include "obs/trace_export.hpp"
#include "resilience/fault.hpp"
#include "util/file.hpp"

namespace psdns::io {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

struct FileGuard {
  explicit FileGuard(std::string p) : path(std::move(p)) {}
  ~FileGuard() { std::remove(path.c_str()); }
  std::string path;
};

dns::SolverConfig small_config() {
  dns::SolverConfig cfg;
  cfg.n = 16;
  cfg.viscosity = 0.02;
  return cfg;
}

TEST(Checkpoint, RoundTripSameRankCount) {
  const FileGuard file(temp_path("psdns_ckp_same.bin"));
  comm::run_ranks(4, [&](comm::Communicator& comm) {
    dns::SpectralEngine a(comm, small_config());
    a.init_isotropic(5, 3.0, 0.5);
    for (int s = 0; s < 3; ++s) a.step(0.01);
    save_checkpoint(file.path, a);

    dns::SpectralEngine b(comm, small_config());
    const auto info = load_checkpoint(file.path, b);
    EXPECT_EQ(info.n, 16u);
    EXPECT_DOUBLE_EQ(info.time, a.time());
    EXPECT_EQ(info.step, 3);
    EXPECT_DOUBLE_EQ(b.time(), a.time());

    // Bitwise-identical state.
    for (int c = 0; c < 3; ++c) {
      for (std::size_t i = 0; i < a.modes().local_modes(); ++i) {
        EXPECT_EQ(b.uhat(c)[i], a.uhat(c)[i]);
      }
    }
  });
}

TEST(Checkpoint, RestartOnDifferentRankCount) {
  // A production restart may land on a different allocation size or
  // decomposition; the global-layout file makes that transparent.
  const FileGuard file(temp_path("psdns_ckp_regrid.bin"));
  double energy2 = 0.0;
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    dns::SpectralEngine a(comm, small_config());
    a.init_isotropic(8, 3.0, 0.5);
    for (int s = 0; s < 2; ++s) a.step(0.01);
    save_checkpoint(file.path, a);
    a.step(0.01);  // continue the original run one more step
    const double e = a.diagnostics().energy;
    if (comm.rank() == 0) energy2 = e;
  });

  for (const auto decomposition :
       {transpose::Decomposition::Slab, transpose::Decomposition::Pencil}) {
    SCOPED_TRACE(transpose::to_string(decomposition));
    double energy4 = 0.0;
    comm::run_ranks(4, [&](comm::Communicator& comm) {
      dns::SolverConfig cfg = small_config();
      cfg.decomposition = decomposition;
      dns::SpectralEngine b(comm, cfg);
      load_checkpoint(file.path, b);
      b.step(0.01);  // the restarted run takes the same step
      const double e = b.diagnostics().energy;
      if (comm.rank() == 0) energy4 = e;
    });
    // Reduction order differs across rank counts, so agreement is to
    // round-off rather than bitwise.
    EXPECT_NEAR(energy4, energy2, 1e-12);
  }
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// Writes `cfg` from a `from`-rank run on decomposition `src`, loads it into
/// a `to`-rank engine on `dst`, saves that again, and expects the two files
/// to be byte-identical. N = 16 on a 2x2 pencil grid splits nxh = 9 into
/// row blocks of 5 and 4 modes, so the gather and placement handle blocks
/// of different sizes.
void expect_checkpoint_crosses(dns::SolverConfig cfg,
                               transpose::Decomposition src, int from,
                               transpose::Decomposition dst, int to,
                               const std::string& tag) {
  const FileGuard first(temp_path("psdns_ckp_cross_a_" + tag + ".bin"));
  const FileGuard second(temp_path("psdns_ckp_cross_b_" + tag + ".bin"));
  cfg.decomposition = src;
  comm::run_ranks(from, [&](comm::Communicator& comm) {
    dns::SpectralEngine a(comm, cfg);
    a.init_isotropic(5, 3.0, 0.5);
    if (a.magnetic_base() >= 0) a.init_magnetic_isotropic(6, 3.0, 0.25);
    for (int s = 0; s < 2; ++s) a.step(0.01);
    save_checkpoint(first.path, a);
  });
  cfg.decomposition = dst;
  comm::run_ranks(to, [&](comm::Communicator& comm) {
    dns::SpectralEngine b(comm, cfg);
    const auto info = load_checkpoint(first.path, b);
    EXPECT_EQ(info.step, 2);
    EXPECT_EQ(b.step_count(), 2);
    save_checkpoint(second.path, b);
  });
  const std::string bytes = file_bytes(first.path);
  EXPECT_FALSE(bytes.empty());
  EXPECT_TRUE(bytes == file_bytes(second.path))
      << tag << ": re-saved checkpoint differs";
}

TEST(Checkpoint, CrossesDecompositionsByteIdentically) {
  dns::SolverConfig mhd = small_config();
  mhd.system = dns::SystemType::Mhd;  // three extra fields
  for (const auto& [cfg, name] :
       {std::pair{small_config(), "ns"}, std::pair{mhd, "mhd"}}) {
    expect_checkpoint_crosses(cfg, transpose::Decomposition::Slab, 2,
                              transpose::Decomposition::Pencil, 4,
                              std::string(name) + "_s2p");
    expect_checkpoint_crosses(cfg, transpose::Decomposition::Pencil, 4,
                              transpose::Decomposition::Slab, 2,
                              std::string(name) + "_p2s");
  }
}

TEST(Checkpoint, FileHoldsFieldsInGlobalModeOrder) {
  // Whatever wrote it, every field section holds mode (kx, ky, kz) at
  // kx + nxh*(j + N*k), with j and k the unwrapped ky and kz (format v3).
  constexpr std::size_t n = 16;
  constexpr std::size_t nxh = n / 2 + 1;
  constexpr std::size_t header_bytes = 52;
  const auto tag = [](int kx, int ky, int kz) {
    return dns::Complex(kx + 100.0 * ky, kz);
  };
  for (const auto decomposition :
       {transpose::Decomposition::Slab, transpose::Decomposition::Pencil}) {
    SCOPED_TRACE(transpose::to_string(decomposition));
    const FileGuard file(temp_path("psdns_ckp_layout.bin"));
    comm::run_ranks(4, [&](comm::Communicator& comm) {
      dns::SolverConfig cfg = small_config();
      cfg.decomposition = decomposition;
      dns::SpectralEngine e(comm, cfg);
      transpose::for_each_mode(
          e.modes(), [&](std::size_t idx, int kx, int ky, int kz) {
            e.uhat(0)[idx] = tag(kx, ky, kz);
          });
      save_checkpoint(file.path, e);
    });
    const std::string bytes = file_bytes(file.path);
    ASSERT_GE(bytes.size(), header_bytes + nxh * n * n * sizeof(dns::Complex));
    std::size_t mismatches = 0;
    for (std::size_t k = 0; k < n; ++k) {
      for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t i = 0; i < nxh; ++i) {
          dns::Complex stored;
          std::memcpy(&stored,
                      bytes.data() + header_bytes +
                          (i + nxh * (j + n * k)) * sizeof(dns::Complex),
                      sizeof stored);
          const dns::Complex want =
              tag(static_cast<int>(i), transpose::wrap_wavenumber(j, n),
                  transpose::wrap_wavenumber(k, n));
          if (stored != want) ++mismatches;
        }
      }
    }
    EXPECT_EQ(mismatches, 0u);
  }
}

TEST(Checkpoint, ContinuedRunMatchesUninterruptedRun) {
  const FileGuard file(temp_path("psdns_ckp_continue.bin"));
  double uninterrupted = 0.0, restarted = 0.0;
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    dns::SpectralEngine a(comm, small_config());
    a.init_isotropic(3, 3.0, 0.4);
    for (int s = 0; s < 6; ++s) a.step(0.01);
    const double e = a.diagnostics().energy;
    if (comm.rank() == 0) uninterrupted = e;
  });
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    dns::SpectralEngine a(comm, small_config());
    a.init_isotropic(3, 3.0, 0.4);
    for (int s = 0; s < 3; ++s) a.step(0.01);
    save_checkpoint(file.path, a);

    dns::SpectralEngine b(comm, small_config());
    load_checkpoint(file.path, b);
    for (int s = 0; s < 3; ++s) b.step(0.01);
    EXPECT_EQ(b.step_count(), 6);
    const double e = b.diagnostics().energy;
    if (comm.rank() == 0) restarted = e;
  });
  EXPECT_DOUBLE_EQ(restarted, uninterrupted);
}

TEST(Checkpoint, PeekReadsHeaderOnly) {
  const FileGuard file(temp_path("psdns_ckp_peek.bin"));
  comm::run_ranks(1, [&](comm::Communicator& comm) {
    dns::SpectralEngine a(comm, small_config());
    a.init_taylor_green();
    a.step(0.05);
    save_checkpoint(file.path, a);
  });
  const auto info = peek_checkpoint(file.path);
  EXPECT_EQ(info.n, 16u);
  EXPECT_DOUBLE_EQ(info.time, 0.05);
  EXPECT_EQ(info.step, 1);
  EXPECT_DOUBLE_EQ(info.viscosity, 0.02);
}

TEST(Checkpoint, RejectsWrongGridSize) {
  const FileGuard file(temp_path("psdns_ckp_wrongn.bin"));
  comm::run_ranks(1, [&](comm::Communicator& comm) {
    dns::SpectralEngine a(comm, small_config());
    a.init_taylor_green();
    save_checkpoint(file.path, a);

    dns::SolverConfig bigger = small_config();
    bigger.n = 32;
    dns::SpectralEngine b(comm, bigger);
    EXPECT_THROW(load_checkpoint(file.path, b), util::Error);
  });
}

TEST(Checkpoint, RejectsGarbageFile) {
  const FileGuard file(temp_path("psdns_ckp_garbage.bin"));
  std::FILE* f = std::fopen(file.path.c_str(), "wb");
  std::fputs("this is not a checkpoint", f);
  std::fclose(f);
  EXPECT_THROW(peek_checkpoint(file.path), util::Error);
}

TEST(Checkpoint, MissingFileThrows) {
  EXPECT_THROW(peek_checkpoint(temp_path("psdns_ckp_missing.bin")),
               util::Error);
}

TEST(Series, WritesAndReadsSpectrum) {
  const FileGuard file(temp_path("psdns_spectrum.csv"));
  const std::vector<double> spec{0.0, 1.5, 0.25, 0.0625};
  write_spectrum_csv(file.path, spec);
  const auto back = read_spectrum_csv(file.path);
  ASSERT_EQ(back.size(), spec.size());
  for (std::size_t i = 0; i < spec.size(); ++i) {
    EXPECT_DOUBLE_EQ(back[i], spec[i]);
  }
}

TEST(Series, WriterProducesHeaderAndRows) {
  const FileGuard file(temp_path("psdns_series.csv"));
  {
    SeriesWriter w(file.path);
    dns::Diagnostics d;
    d.energy = 0.5;
    d.dissipation = 0.1;
    w.append(0, 0.0, d);
    w.append(1, 0.01, d);
  }
  std::FILE* f = std::fopen(file.path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char line[256];
  ASSERT_NE(std::fgets(line, sizeof line, f), nullptr);
  EXPECT_EQ(std::string(line).substr(0, 9), "step,time");
  int rows = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) ++rows;
  std::fclose(f);
  EXPECT_EQ(rows, 2);
}

// --- hardened checkpoints (format v3: per-section CRCs, atomic writes,
// --- rotation, typed errors) ---

// Header layout: 8 magic + 4 version + 8 n + 8 time + 8 step + 8 viscosity
// + 4 scalars + 4 crc.
constexpr std::uint64_t kHeaderBytes = 52;

void flip_byte(const std::string& path, std::uint64_t offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  std::fputc(c ^ 0x01, f);
  std::fclose(f);
}

/// Single-rank solver checkpoint after `steps` steps.
void make_checkpoint(const std::string& path, int steps = 1,
                     const CheckpointOptions& opts = {}) {
  comm::run_ranks(1, [&](comm::Communicator& comm) {
    dns::SpectralEngine a(comm, small_config());
    a.init_taylor_green();
    for (int s = 0; s < steps; ++s) a.step(0.01);
    save_checkpoint(path, a, opts);
  });
}

template <typename Fn>
CheckpointErrc thrown_code(Fn&& fn) {
  try {
    fn();
  } catch (const CheckpointError& e) {
    return e.code();
  }
  ADD_FAILURE() << "expected CheckpointError";
  return CheckpointErrc::Ok;
}

TEST(Checkpoint, TypedErrorNamesFileOnGridMismatch) {
  const FileGuard file(temp_path("psdns_ckp_gridmm.bin"));
  comm::run_ranks(1, [&](comm::Communicator& comm) {
    dns::SpectralEngine a(comm, small_config());
    a.init_taylor_green();
    save_checkpoint(file.path, a);

    dns::SolverConfig bigger = small_config();
    bigger.n = 32;
    dns::SpectralEngine b(comm, bigger);
    try {
      load_checkpoint(file.path, b);
      FAIL() << "expected CheckpointError";
    } catch (const CheckpointError& e) {
      EXPECT_EQ(e.code(), CheckpointErrc::GridMismatch);
      EXPECT_EQ(e.path(), file.path);
      EXPECT_NE(std::string(e.what()).find(file.path), std::string::npos);
    }
  });
}

TEST(Checkpoint, BadMagicIsTyped) {
  const FileGuard file(temp_path("psdns_ckp_badmagic.bin"));
  make_checkpoint(file.path);
  flip_byte(file.path, 2);  // inside the magic
  EXPECT_EQ(thrown_code([&] { peek_checkpoint(file.path); }),
            CheckpointErrc::BadMagic);
}

TEST(Checkpoint, MissingFileIsTyped) {
  EXPECT_EQ(thrown_code([&] {
              peek_checkpoint(temp_path("psdns_ckp_nofile.bin"));
            }),
            CheckpointErrc::OpenFailed);
}

TEST(Checkpoint, BitFlipInEachSectionIsDetected) {
  const std::string clean = temp_path("psdns_ckp_flip_clean.bin");
  const std::string dirty = temp_path("psdns_ckp_flip_dirty.bin");
  const FileGuard g1(clean), g2(dirty);
  make_checkpoint(clean);

  const auto size = std::filesystem::file_size(clean);
  const std::uint64_t field_section = (size - kHeaderBytes) / 3;  // data + crc
  // One offset inside the header payload and one inside every field payload.
  std::vector<std::uint64_t> offsets{13};  // inside the grid-size word
  for (int k = 0; k < 3; ++k) {
    offsets.push_back(kHeaderBytes + k * field_section + 10);
  }
  const auto before = obs::registry().counter("ckpt.crc_failures");
  for (const auto offset : offsets) {
    std::filesystem::copy_file(
        clean, dirty, std::filesystem::copy_options::overwrite_existing);
    flip_byte(dirty, offset);
    EXPECT_EQ(thrown_code([&] { verify_checkpoint(dirty); }),
              CheckpointErrc::CrcMismatch)
        << "flip at offset " << offset;
  }
  // Field corruption is tallied (header corruption throws before the field
  // counter path, so expect at least the three field flips).
  EXPECT_GE(obs::registry().counter("ckpt.crc_failures") - before, 3);
}

TEST(Checkpoint, TruncationDetectedAtAnyOffset) {
  const std::string clean = temp_path("psdns_ckp_trunc_clean.bin");
  const std::string dirty = temp_path("psdns_ckp_trunc_dirty.bin");
  const FileGuard g1(clean), g2(dirty);
  make_checkpoint(clean);

  const auto size = std::filesystem::file_size(clean);
  for (const std::uint64_t cut :
       {std::uint64_t{4}, std::uint64_t{30}, kHeaderBytes + 1000,
        size / 2, size - 2}) {
    std::filesystem::copy_file(
        clean, dirty, std::filesystem::copy_options::overwrite_existing);
    std::filesystem::resize_file(dirty, cut);
    EXPECT_EQ(thrown_code([&] { verify_checkpoint(dirty); }),
              CheckpointErrc::Truncated)
        << "truncated to " << cut << " bytes";
  }
}

TEST(Checkpoint, TruncatedLoadThrowsOnEveryRank) {
  const FileGuard file(temp_path("psdns_ckp_trunc_load.bin"));
  make_checkpoint(file.path);
  std::filesystem::resize_file(file.path,
                               std::filesystem::file_size(file.path) / 2);
  std::atomic<int> caught{0};
  comm::run_ranks(2, [&](comm::Communicator& comm) {
    dns::SpectralEngine b(comm, small_config());
    try {
      load_checkpoint(file.path, b);
    } catch (const CheckpointError& e) {
      // Rank 0 sees the root cause; the others the agreed code.
      EXPECT_EQ(e.code(), CheckpointErrc::Truncated);
      ++caught;
    }
  });
  EXPECT_EQ(caught.load(), 2);
}

TEST(Checkpoint, RotationKeepsPreviousCheckpoints) {
  const std::string path = temp_path("psdns_ckp_rotate.bin");
  const FileGuard g0(path), g1(path + ".1"), g2(path + ".2");
  CheckpointOptions opts;
  opts.keep = 2;
  comm::run_ranks(1, [&](comm::Communicator& comm) {
    dns::SpectralEngine a(comm, small_config());
    a.init_taylor_green();
    for (int s = 0; s < 3; ++s) {
      a.step(0.01);
      save_checkpoint(path, a, opts);
    }
  });
  EXPECT_EQ(verify_checkpoint(path).step, 3);
  EXPECT_EQ(verify_checkpoint(path + ".1").step, 2);
  EXPECT_FALSE(std::filesystem::exists(path + ".2"));  // keep=2 bounds disk
  EXPECT_EQ(checkpoint_chain(path).size(), 2u);
}

TEST(Checkpoint, StaleTmpFromCrashedWriteIsHarmless) {
  const std::string path = temp_path("psdns_ckp_staletmp.bin");
  const FileGuard g0(path), g1(path + ".tmp");
  make_checkpoint(path, 2);
  std::FILE* f = std::fopen((path + ".tmp").c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("partial write from a crashed attempt", f);
  std::fclose(f);

  EXPECT_EQ(verify_checkpoint(path).step, 2);  // the tmp is never read
  const auto recovery = recover_checkpoint_chain(path);
  ASSERT_TRUE(recovery.info.has_value());
  EXPECT_EQ(recovery.info->step, 2);
  EXPECT_EQ(recovery.discarded, 0);
}

TEST(Checkpoint, RecoverClosesRenameHoleInChain) {
  // A crash between rotation and the final rename leaves "<path>.1" but no
  // "<path>"; recovery must find the survivor and re-seat it.
  const std::string path = temp_path("psdns_ckp_hole.bin");
  const FileGuard g0(path), g1(path + ".1");
  make_checkpoint(path, 2);
  std::filesystem::rename(path, path + ".1");

  const auto recovery = recover_checkpoint_chain(path);
  ASSERT_TRUE(recovery.info.has_value());
  EXPECT_EQ(recovery.info->step, 2);
  EXPECT_EQ(recovery.discarded, 0);
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".1"));
  EXPECT_EQ(verify_checkpoint(path).step, 2);
}

TEST(Checkpoint, RecoverFallsBackToPreviousValid) {
  const std::string path = temp_path("psdns_ckp_fallback.bin");
  const FileGuard g0(path), g1(path + ".1");
  CheckpointOptions opts;
  opts.keep = 2;
  comm::run_ranks(1, [&](comm::Communicator& comm) {
    dns::SpectralEngine a(comm, small_config());
    a.init_taylor_green();
    a.step(0.01);
    save_checkpoint(path, a, opts);  // step 1 -> becomes ".1"
    a.step(0.01);
    save_checkpoint(path, a, opts);  // step 2 -> newest
  });
  flip_byte(path, kHeaderBytes + 100);  // corrupt the newest

  const auto before = obs::registry().counter("ckpt.discarded");
  const auto recovery = recover_checkpoint_chain(path);
  ASSERT_TRUE(recovery.info.has_value());
  EXPECT_EQ(recovery.info->step, 1);
  EXPECT_EQ(recovery.discarded, 1);
  EXPECT_EQ(obs::registry().counter("ckpt.discarded") - before, 1);
  // The survivor now sits at `path` and the chain is compact.
  EXPECT_EQ(verify_checkpoint(path).step, 1);
  EXPECT_FALSE(std::filesystem::exists(path + ".1"));
}

TEST(Checkpoint, RecoverRemovesEverythingWhenAllCorrupt) {
  const std::string path = temp_path("psdns_ckp_allbad.bin");
  const FileGuard g0(path), g1(path + ".1");
  CheckpointOptions opts;
  opts.keep = 2;
  comm::run_ranks(1, [&](comm::Communicator& comm) {
    dns::SpectralEngine a(comm, small_config());
    a.init_taylor_green();
    a.step(0.01);
    save_checkpoint(path, a, opts);
    a.step(0.01);
    save_checkpoint(path, a, opts);
  });
  flip_byte(path, kHeaderBytes + 50);
  flip_byte(path + ".1", kHeaderBytes + 50);

  const auto recovery = recover_checkpoint_chain(path);
  EXPECT_FALSE(recovery.info.has_value());
  EXPECT_EQ(recovery.discarded, 2);
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".1"));
}

TEST(Checkpoint, InjectedShortWriteIsRetriedToSuccess) {
  const FileGuard file(temp_path("psdns_ckp_shortwrite.bin"));
  const auto retries = obs::registry().counter("resilience.retries");
  const auto injected = obs::registry().counter("fault.injected");
  {
    resilience::ScopedPlan plan("io.ckpt.write@0=short_write");
    make_checkpoint(file.path, 1);
  }
  EXPECT_EQ(verify_checkpoint(file.path).step, 1);  // retry produced a
                                                    // clean file
  EXPECT_GE(obs::registry().counter("resilience.retries") - retries, 1);
  EXPECT_GE(obs::registry().counter("fault.injected") - injected, 1);
}

TEST(Checkpoint, InjectedSilentCorruptionCaughtByVerify) {
  const FileGuard file(temp_path("psdns_ckp_silent.bin"));
  {
    resilience::ScopedPlan plan("io.ckpt.write@0=bit_flip");
    make_checkpoint(file.path, 1);  // the write itself "succeeds"
  }
  EXPECT_EQ(thrown_code([&] { verify_checkpoint(file.path); }),
            CheckpointErrc::CrcMismatch);
}

TEST(Checkpoint, BitFlipDrillThatFailsMidFieldLeavesTheStateClean) {
  // Attempt 1 draws the bit_flip drill and then a real write error inside
  // field 0: "<path>.tmp" is a link to /dev/full, which the failed
  // attempt's AtomicFile removes. Attempt 2 writes a real file, and it
  // must be byte for byte the checkpoint of a clean save: a flip left
  // behind in the gathered field would be written with a CRC that matches
  // it, and no load could tell.
  const FileGuard file(temp_path("psdns_ckp_flip_then_fail.bin"));
  const FileGuard clean(temp_path("psdns_ckp_flip_then_fail_clean.bin"));
  const std::string tmp = file.path + ".tmp";
  std::filesystem::remove(tmp);
  std::filesystem::create_symlink("/dev/full", tmp);
  CheckpointOptions opts;
  opts.retry.max_attempts = 2;
  comm::run_ranks(1, [&](comm::Communicator& comm) {
    dns::SpectralEngine a(comm, small_config());
    a.init_taylor_green();
    a.step(0.01);
    {
      resilience::ScopedPlan plan("io.ckpt.write@0=bit_flip");
      save_checkpoint(file.path, a, opts);
    }
    save_checkpoint(clean.path, a);
    dns::SpectralEngine b(comm, small_config());
    load_checkpoint(file.path, b);
    for (int c = 0; c < 3; ++c) {
      for (std::size_t i = 0; i < a.modes().local_modes(); ++i) {
        ASSERT_EQ(b.uhat(c)[i], a.uhat(c)[i]) << "field " << c << ", " << i;
      }
    }
  });
  EXPECT_FALSE(std::filesystem::is_symlink(tmp));
  EXPECT_TRUE(file_bytes(file.path) == file_bytes(clean.path))
      << "the retried checkpoint differs from a clean save";
}

TEST(Series, AppendModePreservesExistingRows) {
  const FileGuard file(temp_path("psdns_series_append.csv"));
  dns::Diagnostics d;
  d.energy = 0.5;
  {
    SeriesWriter w(file.path);
    w.append(0, 0.0, d);
    w.append(1, 0.01, d);
  }
  {
    SeriesWriter w(file.path, SeriesWriter::Mode::Append);
    w.append(2, 0.02, d);
  }
  std::FILE* f = std::fopen(file.path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char line[256];
  int headers = 0, rows = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::string(line).substr(0, 4) == "step") {
      ++headers;
    } else {
      ++rows;
    }
  }
  std::fclose(f);
  EXPECT_EQ(headers, 1);  // the append run must not repeat the header
  EXPECT_EQ(rows, 3);
}

TEST(Series, FailsLoudlyWhenFileCannotBeOpened) {
  const std::string path =
      temp_path("psdns_no_such_dir") + "/series.csv";
  try {
    SeriesWriter w(path);
    FAIL() << "expected util::Error";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
  }
}

// --- durable-output primitives (util/file.hpp) ---

/// Runs `fn` expecting a util::Error whose message names `path`.
template <class Fn>
void expect_error_naming(const std::string& path, Fn&& fn) {
  try {
    fn();
    ADD_FAILURE() << "expected util::Error naming " << path;
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
}

/// Lowers this process's file-size limit to `bytes` with SIGXFSZ ignored,
/// so a write past it fails with EFBIG instead of killing the process;
/// restores both on scope exit.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(rlim_t bytes) {
    getrlimit(RLIMIT_FSIZE, &saved_);
    old_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    rlimit lowered = saved_;
    lowered.rlim_cur = bytes;
    setrlimit(RLIMIT_FSIZE, &lowered);
  }
  ~FileSizeLimit() {
    setrlimit(RLIMIT_FSIZE, &saved_);
    std::signal(SIGXFSZ, old_handler_);
  }
  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;

 private:
  rlimit saved_{};
  void (*old_handler_)(int) = SIG_DFL;
};

TEST(DurableFile, LineLogTruncatesOrAppendsFlushedLines) {
  const FileGuard file(temp_path("psdns_linelog.txt"));
  {
    util::LineLog log(file.path);
    EXPECT_TRUE(log.was_empty());
    log.append("a");
    EXPECT_EQ(file_bytes(file.path), "a\n");  // flushed per line
  }
  {
    util::LineLog log(file.path, util::LineLog::Mode::Append);
    EXPECT_FALSE(log.was_empty());
    log.append("b");
  }
  EXPECT_EQ(file_bytes(file.path), "a\nb\n");
  {
    util::LineLog log(file.path);
    EXPECT_TRUE(log.was_empty());
  }
  EXPECT_EQ(file_bytes(file.path), "");
}

TEST(DurableFile, LineLogOnFullDeviceThrowsNamingPath) {
  util::LineLog log("/dev/full");
  expect_error_naming("/dev/full", [&] { log.append("lost"); });
}

TEST(DurableFile, AtomicFileReplacesOnlyOnCommit) {
  const FileGuard file(temp_path("psdns_atomic.txt"));
  const FileGuard tmp(file.path + ".tmp");
  {
    util::AtomicFile f(file.path);
    f.write("old");
    f.commit();
  }
  {
    util::AtomicFile f(file.path);
    f.write("abandoned");
    EXPECT_TRUE(std::filesystem::exists(tmp.path));
  }
  EXPECT_FALSE(std::filesystem::exists(tmp.path));
  EXPECT_EQ(file_bytes(file.path), "old");
  {
    util::AtomicFile f(file.path);
    f.write("new");
    f.commit();
  }
  EXPECT_EQ(file_bytes(file.path), "new");
  EXPECT_FALSE(std::filesystem::exists(tmp.path));
}

TEST(DurableFile, AtomicFileIntoMissingDirectoryThrows) {
  const std::string path = temp_path("psdns_no_such_dir") + "/out.bin";
  expect_error_naming(path, [&] { util::AtomicFile f(path); });
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(DurableFile, AtomicFileRenameOntoDirectoryThrows) {
  const std::string path = temp_path("psdns_atomic_onto_dir");
  std::filesystem::remove_all(path);
  std::filesystem::create_directory(path);
  expect_error_naming(path, [&] {
    util::AtomicFile f(path);
    f.write("bytes");
    f.commit();
  });
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_TRUE(std::filesystem::is_directory(path));
  std::filesystem::remove_all(path);
}

TEST(DurableFile, AtomicFileFailingCommitFlushThrows) {
  const FileGuard file(temp_path("psdns_atomic_efbig.bin"));
  const std::string bytes(1000, 'x');  // buffered: only the flush fails
  {
    const FileSizeLimit limit(16);
    expect_error_naming(file.path, [&] {
      util::AtomicFile f(file.path);
      f.write(bytes);
      f.commit();
    });
  }
  EXPECT_FALSE(std::filesystem::exists(file.path));
  EXPECT_FALSE(std::filesystem::exists(file.path + ".tmp"));
}

TEST(DurableFile, WriteTextFileReportsAFailingFlush) {
  const FileGuard file(temp_path("psdns_text_efbig.json"));
  {
    const FileSizeLimit limit(16);
    expect_error_naming(file.path, [&] {
      obs::write_text_file(file.path, std::string(1000, 'x'));
    });
  }
  EXPECT_FALSE(std::filesystem::exists(file.path));
  EXPECT_FALSE(std::filesystem::exists(file.path + ".tmp"));
}

}  // namespace
}  // namespace psdns::io
