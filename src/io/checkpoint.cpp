#include "io/checkpoint.hpp"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <vector>

#include "fft/types.hpp"
#include "obs/log.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "resilience/crc32c.hpp"
#include "resilience/fault.hpp"
#include "util/check.hpp"
#include "util/file.hpp"

namespace psdns::io {

namespace {

namespace fs = std::filesystem;

constexpr char kMagic[8] = {'P', 'S', 'D', 'N', 'S', 'C', 'K', 'P'};
constexpr std::uint32_t kVersion = 3;
// Longest rotation chain recover/chain scans consider. Far above any
// sensible CheckpointOptions::keep; bounds the directory probing.
constexpr int kMaxChain = 32;

using fft::Complex;
using resilience::FaultKind;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

/// Runs one step of the AtomicFile write, rethrowing its util::Error as
/// the typed CheckpointError the collective agreement broadcasts.
template <class Fn>
void typed_io(CheckpointErrc code, const std::string& file, Fn&& fn) {
  try {
    fn();
  } catch (const util::Error& e) {
    throw CheckpointError(code, file, e.what());
  }
}

void write_exact(util::AtomicFile& f, const void* data, std::size_t bytes) {
  typed_io(CheckpointErrc::IoFailed, f.tmp_path(),
           [&] { f.write(data, bytes); });
  obs::registry().counter_add("io.checkpoint.write_bytes",
                              static_cast<std::int64_t>(bytes));
}

void read_exact(std::FILE* f, void* data, std::size_t bytes,
                const std::string& file) {
  if (std::fread(data, 1, bytes, f) != bytes) {
    throw CheckpointError(CheckpointErrc::Truncated, file,
                          "file ends inside a section");
  }
  obs::registry().counter_add("io.checkpoint.read_bytes",
                              static_cast<std::int64_t>(bytes));
}

void write_header(util::AtomicFile& f, const CheckpointInfo& info) {
  std::uint32_t crc = 0;
  const auto put = [&](const void* p, std::size_t n) {
    write_exact(f, p, n);
    crc = resilience::crc32c(p, n, crc);
  };
  put(kMagic, sizeof kMagic);
  put(&kVersion, sizeof kVersion);
  put(&info.n, sizeof info.n);
  put(&info.time, sizeof info.time);
  put(&info.step, sizeof info.step);
  put(&info.viscosity, sizeof info.viscosity);
  put(&info.scalars, sizeof info.scalars);
  write_exact(f, &crc, sizeof crc);
}

CheckpointInfo read_header(std::FILE* f, const std::string& file) {
  std::uint32_t crc = 0;
  const auto get = [&](void* p, std::size_t n) {
    read_exact(f, p, n, file);
    crc = resilience::crc32c(p, n, crc);
  };
  char magic[8];
  get(magic, sizeof magic);
  if (std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    throw CheckpointError(CheckpointErrc::BadMagic, file,
                          "not a psdns checkpoint");
  }
  std::uint32_t version = 0;
  get(&version, sizeof version);
  if (version != kVersion) {
    throw CheckpointError(CheckpointErrc::BadVersion, file,
                          "found version " + std::to_string(version) +
                              ", expected " + std::to_string(kVersion));
  }
  CheckpointInfo info;
  get(&info.n, sizeof info.n);
  get(&info.time, sizeof info.time);
  get(&info.step, sizeof info.step);
  get(&info.viscosity, sizeof info.viscosity);
  get(&info.scalars, sizeof info.scalars);
  std::uint32_t stored = 0;
  read_exact(f, &stored, sizeof stored, file);
  if (stored != crc) {
    obs::registry().counter_add("ckpt.crc_failures");
    throw CheckpointError(CheckpointErrc::CrcMismatch, file,
                          "header checksum");
  }
  return info;
}

/// Reads one field section (payload + trailing CRC) into `data`.
/// `fault` is the (already polled) io.ckpt.read fault for this operation;
/// short_write models a truncated file, bit_flip models bit rot (which the
/// CRC then catches).
void read_field(std::FILE* f, Complex* data, std::size_t bytes,
                const std::string& file, int field_index,
                std::optional<FaultKind> fault) {
  auto* raw = reinterpret_cast<unsigned char*>(data);
  if (fault == FaultKind::ShortWrite && field_index == 0) {
    read_exact(f, raw, bytes / 2, file);
    throw CheckpointError(CheckpointErrc::Truncated, file,
                          "injected truncated read");
  }
  read_exact(f, raw, bytes, file);
  std::uint32_t stored = 0;
  read_exact(f, &stored, sizeof stored, file);
  if (fault == FaultKind::BitFlip && field_index == 0 && bytes > 0) {
    raw[bytes / 2] ^= 0x01u;
  }
  if (resilience::crc32c(raw, bytes) != stored) {
    obs::registry().counter_add("ckpt.crc_failures");
    throw CheckpointError(
        CheckpointErrc::CrcMismatch, file,
        "field " + std::to_string(field_index) + " checksum");
  }
}

void rotate_chain(const std::string& path, int keep) {
  for (int k = keep - 1; k >= 1; --k) {
    const auto from = rotated_checkpoint_name(path, k - 1);
    std::error_code ec;
    if (!fs::exists(from, ec)) continue;
    fs::rename(from, rotated_checkpoint_name(path, k), ec);
    if (ec) {
      throw CheckpointError(CheckpointErrc::IoFailed, from,
                            "rotation failed: " + ec.message());
    }
    obs::registry().counter_add("ckpt.rotations");
  }
}

/// The rank-0 write transaction: tmp file with per-section CRCs, rotation,
/// atomic rename. Retryable as a unit (it never touches `path` until the
/// final rename, and rotates only once the tmp file is complete).
void write_transaction(const std::string& path, const CheckpointOptions& opts,
                       const CheckpointInfo& info,
                       const std::vector<std::vector<Complex>>& fields) {
  // One fault poll per transaction attempt: a retried write is the next
  // call index at this site.
  const auto fault = resilience::poll(resilience::site::ckpt_write);
  if (fault == FaultKind::Throw) {
    throw resilience::InjectedFault(resilience::site::ckpt_write, *fault);
  }
  std::optional<util::AtomicFile> f;
  typed_io(CheckpointErrc::OpenFailed, path + ".tmp",
           [&] { f.emplace(path); });
  const std::string& tmp = f->tmp_path();
  write_header(*f, info);
  for (std::size_t i = 0; i < fields.size(); ++i) {
    const auto* raw = reinterpret_cast<const unsigned char*>(fields[i].data());
    const std::size_t bytes = fields[i].size() * sizeof(Complex);
    const std::uint32_t crc = resilience::crc32c(raw, bytes);
    const std::size_t mid = bytes / 2;
    if (fault == FaultKind::ShortWrite && i == 0) {
      write_exact(*f, raw, mid);
      throw CheckpointError(CheckpointErrc::IoFailed, tmp,
                            "injected short write");
    }
    if (fault == FaultKind::BitFlip && i == 0 && bytes > 0) {
      // bit_flip: corrupt the bytes that hit the disk but store the CRC of
      // the clean payload - silent corruption that only the load-time
      // verification can catch. The flipped byte is a local copy, so a
      // failed write leaves the gathered fields clean for the retry.
      const auto flipped = static_cast<unsigned char>(raw[mid] ^ 0x01u);
      write_exact(*f, raw, mid);
      write_exact(*f, &flipped, 1);
      write_exact(*f, raw + mid + 1, bytes - mid - 1);
    } else {
      write_exact(*f, raw, bytes);
    }
    write_exact(*f, &crc, sizeof crc);
  }
  typed_io(CheckpointErrc::IoFailed, tmp, [&] { f->flush(); });
  rotate_chain(path, opts.keep);
  typed_io(CheckpointErrc::IoFailed, path, [&] { f->commit(); });
}

/// Rank-0 error capture for the collective agreement protocol.
struct Captured {
  CheckpointErrc code = CheckpointErrc::Ok;
  std::exception_ptr ex;
};

template <class Fn>
void capture(Captured& cap, Fn&& fn) {
  try {
    fn();
  } catch (const CheckpointError& e) {
    cap.code = e.code();
    cap.ex = std::current_exception();
  } catch (const std::exception&) {
    cap.code = CheckpointErrc::IoFailed;
    cap.ex = std::current_exception();
  }
}

/// Broadcasts rank 0's error state; when set, every rank throws (rank 0
/// rethrows the original exception, others a CheckpointError naming the
/// file). Keeps all ranks in agreement so nobody is left in a barrier.
void agree_or_throw(comm::Communicator& comm, const Captured& cap,
                    const std::string& path) {
  int code = static_cast<int>(cap.code);
  comm.broadcast(&code, 1, 0);
  if (code == static_cast<int>(CheckpointErrc::Ok)) return;
  if (comm.rank() == 0 && cap.ex != nullptr) {
    std::rethrow_exception(cap.ex);
  }
  throw CheckpointError(static_cast<CheckpointErrc>(code), path,
                        "detected on rank 0");
}

}  // namespace

const char* to_string(CheckpointErrc code) {
  switch (code) {
    case CheckpointErrc::Ok:
      return "ok";
    case CheckpointErrc::OpenFailed:
      return "open_failed";
    case CheckpointErrc::BadMagic:
      return "bad_magic";
    case CheckpointErrc::BadVersion:
      return "bad_version";
    case CheckpointErrc::Truncated:
      return "truncated";
    case CheckpointErrc::CrcMismatch:
      return "crc_mismatch";
    case CheckpointErrc::GridMismatch:
      return "grid_mismatch";
    case CheckpointErrc::ScalarMismatch:
      return "scalar_mismatch";
    case CheckpointErrc::IoFailed:
      return "io_failed";
  }
  return "?";
}

std::string rotated_checkpoint_name(const std::string& path, int k) {
  PSDNS_REQUIRE(k >= 0, "rotation index is non-negative");
  return k == 0 ? path : path + "." + std::to_string(k);
}

std::vector<std::string> checkpoint_chain(const std::string& path) {
  std::vector<std::string> chain;
  for (int k = 0; k < kMaxChain; ++k) {
    const auto name = rotated_checkpoint_name(path, k);
    std::error_code ec;
    // A crash between rotation and rename can leave a hole at position 0,
    // so keep scanning instead of stopping at the first missing file.
    if (fs::exists(name, ec)) chain.push_back(name);
  }
  return chain;
}

void save_checkpoint(const std::string& path, dns::SpectralEngine& solver,
                     const CheckpointOptions& opts) {
  PSDNS_REQUIRE(opts.keep >= 1 && opts.keep <= kMaxChain,
                "checkpoint keep out of range");
  auto& comm = solver.communicator();
  obs::TraceSpan span("io.checkpoint.save", obs::SpanKind::Io);
  const std::size_t n = solver.n();
  const std::size_t nxh = n / 2 + 1;
  const std::size_t nfields = solver.field_count();

  CheckpointInfo info;
  info.n = n;
  info.time = solver.time();
  info.step = solver.step_count();
  info.viscosity = solver.config().viscosity;
  info.scalars = static_cast<std::uint32_t>(solver.extra_field_count());

  // Every field is gathered to its global layout up front so the rank-0
  // write transaction can be retried without re-entering any collective
  // (the other ranks are already past their part).
  std::vector<std::vector<Complex>> fields;
  if (comm.rank() == 0) {
    fields.assign(nfields, std::vector<Complex>(nxh * n * n));
  }
  for (std::size_t c = 0; c < nfields; ++c) {
    Complex* dst = comm.rank() == 0 ? fields[c].data() : nullptr;
    dns::gather_global_field(solver, c, dst);
  }

  Captured cap;
  if (comm.rank() == 0) {
    capture(cap, [&] {
      resilience::with_retry(opts.retry, "checkpoint write " + path, [&] {
        write_transaction(path, opts, info, fields);
      });
    });
  }
  agree_or_throw(comm, cap, path);

  const double seconds = span.end();
  if (comm.rank() == 0) {
    obs::registry().counter_add("io.checkpoint.writes");
    obs::log_event(obs::LogLevel::Info, "io", "checkpoint written",
                   {{"path", path},
                    {"step", solver.step_count()},
                    {"keep", opts.keep},
                    {"seconds", seconds}});
  }
}

CheckpointInfo load_checkpoint(const std::string& path,
                               dns::SpectralEngine& solver) {
  auto& comm = solver.communicator();
  obs::TraceSpan span("io.checkpoint.load", obs::SpanKind::Io);
  const std::size_t n = solver.n();
  const std::size_t nxh = n / 2 + 1;
  const std::size_t local_modes = solver.modes().local_modes();

  CheckpointInfo info;
  std::vector<Complex> global;
  File f;
  std::optional<FaultKind> fault;
  Captured cap;
  if (comm.rank() == 0) {
    capture(cap, [&] {
      f.reset(std::fopen(path.c_str(), "rb"));
      if (f == nullptr) {
        throw CheckpointError(CheckpointErrc::OpenFailed, path,
                              "cannot open for reading");
      }
      fault = resilience::poll(resilience::site::ckpt_read);
      if (fault == FaultKind::Throw) {
        throw resilience::InjectedFault(resilience::site::ckpt_read, *fault);
      }
      info = read_header(f.get(), path);
      if (info.n != n) {
        throw CheckpointError(CheckpointErrc::GridMismatch, path,
                              "checkpoint N=" + std::to_string(info.n) +
                                  ", solver N=" + std::to_string(n));
      }
      if (info.scalars !=
          static_cast<std::uint32_t>(solver.extra_field_count())) {
        throw CheckpointError(
            CheckpointErrc::ScalarMismatch, path,
            "checkpoint has " + std::to_string(info.scalars) +
                " extra fields, solver has " +
                std::to_string(solver.extra_field_count()));
      }
      global.resize(nxh * n * n);
    });
  }
  agree_or_throw(comm, cap, path);
  comm.broadcast(&info, 1, 0);

  const std::size_t nfields = 3 + static_cast<std::size_t>(info.scalars);
  std::vector<std::vector<Complex>> local(nfields);
  std::vector<const Complex*> ptrs(nfields);
  for (std::size_t c = 0; c < nfields; ++c) {
    auto& mine = local[c];
    mine.resize(local_modes);
    if (comm.rank() == 0) {
      capture(cap, [&] {
        read_field(f.get(), global.data(), global.size() * sizeof(Complex),
                   path, static_cast<int>(c), fault);
      });
    }
    agree_or_throw(comm, cap, path);
    dns::scatter_global_field(solver, global.data(), mine.data());
    ptrs[c] = mine.data();
  }

  solver.restore(std::span<const Complex* const>(ptrs.data(), nfields),
                 info.time, info.step);
  const double seconds = span.end();
  if (comm.rank() == 0) {
    obs::registry().counter_add("io.checkpoint.reads");
    obs::log_event(obs::LogLevel::Info, "io", "checkpoint restored",
                   {{"path", path},
                    {"step", info.step},
                    {"seconds", seconds}});
  }
  return info;
}

CheckpointInfo peek_checkpoint(const std::string& path) {
  File f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) {
    throw CheckpointError(CheckpointErrc::OpenFailed, path,
                          "cannot open for reading");
  }
  return read_header(f.get(), path);
}

CheckpointInfo verify_checkpoint(const std::string& path) {
  File f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) {
    throw CheckpointError(CheckpointErrc::OpenFailed, path,
                          "cannot open for reading");
  }
  const auto fault = resilience::poll(resilience::site::ckpt_read);
  if (fault == FaultKind::Throw) {
    throw resilience::InjectedFault(resilience::site::ckpt_read, *fault);
  }
  const auto info = read_header(f.get(), path);
  const std::size_t nxh = info.n / 2 + 1;
  std::vector<Complex> buffer(nxh * info.n * info.n);
  const std::size_t nfields = 3 + static_cast<std::size_t>(info.scalars);
  for (std::size_t c = 0; c < nfields; ++c) {
    read_field(f.get(), buffer.data(), buffer.size() * sizeof(Complex), path,
               static_cast<int>(c), fault);
  }
  return info;
}

CheckpointRecovery recover_checkpoint_chain(const std::string& path) {
  CheckpointRecovery out;
  const auto chain = checkpoint_chain(path);
  int survivor = -1;
  CheckpointInfo info;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    try {
      info = verify_checkpoint(chain[i]);
      survivor = static_cast<int>(i);
      break;
    } catch (const std::exception& e) {
      obs::registry().counter_add("ckpt.discarded");
      obs::log_event(obs::LogLevel::Warn, "io", "discarding bad checkpoint",
                     {{"path", chain[i]}, {"error", e.what()}});
      std::error_code ec;
      fs::remove(chain[i], ec);
      ++out.discarded;
    }
  }
  if (survivor < 0) return out;
  // Shift the surviving suffix down so the newest valid checkpoint sits at
  // `path` again and the chain stays contiguous.
  for (std::size_t j = static_cast<std::size_t>(survivor); j < chain.size();
       ++j) {
    const auto target =
        rotated_checkpoint_name(path, static_cast<int>(j) - survivor);
    if (chain[j] == target) continue;
    std::error_code ec;
    fs::rename(chain[j], target, ec);
    if (ec) {
      throw CheckpointError(CheckpointErrc::IoFailed, chain[j],
                            "chain compaction failed: " + ec.message());
    }
  }
  out.info = info;
  return out;
}

}  // namespace psdns::io
