#pragma once
// Hardened checkpoint / restart for long-running simulations.
//
// The paper's production runs integrate "many thousands of time steps"
// across scheduler allocations; a DNS code without restart capability is
// not usable in production, and a restart layer that cannot survive a node
// failure mid-write (or silent corruption at rest) is not much better.
// Checkpoints store the *global* spectral field: every rank's block goes to
// rank 0 with its ModeView, which places each mode at its global slot. The
// file is the same whatever wrote it, so a run can be restarted on a
// different rank count or decomposition (slab <-> pencil) - exactly what
// happens when a job moves between node allocations.
//
// Hardening (format v3):
//   - every section (header, each field) carries a CRC32C; truncation and
//     bit rot are detected at load instead of silently corrupting physics;
//   - writes go to "<path>.tmp" and are renamed into place, so a crash
//     mid-write never destroys the previous checkpoint;
//   - keep-K rotation: the previous checkpoint survives as "<path>.1" (then
//     ".2", ...), giving rollback targets when the newest file is bad;
//   - all failures surface as typed CheckpointError values naming the file,
//     agreed collectively (rank 0 does the IO, every rank throws the same
//     error), so no rank is left waiting in a barrier;
//   - the write transaction is retried under resilience::RetryPolicy.
//
// File layout (little-endian, doubles):
//   magic "PSDNSCKP" | u32 version=3 | u64 N | f64 time | i64 step |
//   f64 viscosity | u32 extra-field count m | u32 header crc32c |
//   (3+m) x [ (nxh*N*N) complex<double> field | u32 field crc32c ]
// (fields in order u, v, w, then the equation system's extra fields -
// passive scalars for Navier-Stokes, buoyancy for Boussinesq, bx/by/bz for
// MHD; each CRC covers magic..count for the header, the raw field bytes
// for fields). The count slot was "scalar count" before pluggable systems;
// the encoding is unchanged, so NS checkpoints are byte-compatible.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "dns/spectral_core.hpp"
#include "resilience/retry.hpp"
#include "util/check.hpp"

namespace psdns::io {

struct CheckpointInfo {
  std::uint64_t n = 0;
  double time = 0.0;
  std::int64_t step = 0;
  double viscosity = 0.0;
  std::uint32_t scalars = 0;  // extra prognostic fields beyond (u, v, w)
};

/// What went wrong with a checkpoint file. Ok is never thrown; it is the
/// zero value used on the collective agreement path.
enum class CheckpointErrc {
  Ok = 0,
  OpenFailed,      // fopen failed (missing file, permissions, bad dir)
  BadMagic,        // not a psdns checkpoint
  BadVersion,      // unsupported format version
  Truncated,       // file ends before a section does
  CrcMismatch,     // a section checksum does not match its payload
  GridMismatch,    // checkpoint N differs from the solver's N
  ScalarMismatch,  // checkpoint scalar count differs from the solver's
  IoFailed,        // write/flush/rename failed, or an injected IO fault
};

const char* to_string(CheckpointErrc code);

/// Typed checkpoint failure naming the offending file. Derives util::Error
/// so existing catch sites keep working.
class CheckpointError : public util::Error {
 public:
  CheckpointError(CheckpointErrc code, std::string file, std::string detail,
                  std::source_location loc = std::source_location::current())
      : util::Error(std::string("checkpoint ") + io::to_string(code) + ": " +
                        file + (detail.empty() ? "" : " (" + detail + ")"),
                    loc),
        code_(code),
        path_(std::move(file)) {}

  CheckpointErrc code() const { return code_; }
  const std::string& path() const { return path_; }

 private:
  CheckpointErrc code_;
  std::string path_;
};

struct CheckpointOptions {
  /// Total checkpoints retained: `path` plus keep-1 rotated predecessors
  /// ("<path>.1" newest-previous first). 1 = atomic replace, no rotation.
  int keep = 1;
  /// Applied to the rank-0 write transaction (tmp write + rename).
  resilience::RetryPolicy retry;
};

/// Writes the solver state. Collective; rank 0 writes the file (atomically,
/// with rotation and retry per `opts`). Throws CheckpointError on every
/// rank if the write ultimately fails.
void save_checkpoint(const std::string& path, dns::SpectralEngine& solver,
                     const CheckpointOptions& opts = {});

/// Restores the solver state (grid size must match; neither the rank count
/// nor the decomposition need match the writing run's). Collective; returns
/// the header. Throws CheckpointError on every rank when the file is
/// missing, truncated, corrupt, or does not match the solver.
CheckpointInfo load_checkpoint(const std::string& path,
                               dns::SpectralEngine& solver);

/// Reads only the header, verifying its CRC (any single process; not
/// collective).
CheckpointInfo peek_checkpoint(const std::string& path);

/// Full-file verification: header + every field section CRC. Single
/// process; returns the header or throws CheckpointError.
CheckpointInfo verify_checkpoint(const std::string& path);

/// The k-th rotation name: k=0 is `path` itself, k=1 is "<path>.1", ...
std::string rotated_checkpoint_name(const std::string& path, int k);

/// Existing files of the rotation chain, newest first, starting at `path`.
std::vector<std::string> checkpoint_chain(const std::string& path);

struct CheckpointRecovery {
  /// Header of the newest checkpoint that verified, if any.
  std::optional<CheckpointInfo> info;
  /// Corrupt/unreadable files that were discarded ahead of the survivor.
  int discarded = 0;
};

/// Rolls the rotation chain back to the newest checkpoint that passes
/// verify_checkpoint(): corrupt files ahead of it are deleted and the
/// survivor (and the rest of the chain) is renamed so it sits at `path`
/// again. Returns nullopt info when no file in the chain verifies (all
/// invalid files are removed). Single process - call on rank 0 and
/// broadcast the outcome.
CheckpointRecovery recover_checkpoint_chain(const std::string& path);

}  // namespace psdns::io
