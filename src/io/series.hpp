#pragma once
// Plain-text outputs for post-processing: a CSV time series of flow
// statistics (the quantity-of-interest log every production DNS keeps) and
// spectrum snapshots, written through util/file.hpp: series rows are
// flushed as they are appended (a killed run keeps everything it logged)
// and IO failures throw (naming the file) instead of dropping data.

#include <string>
#include <vector>

#include "dns/solver_config.hpp"
#include "util/file.hpp"

namespace psdns::io {

/// Appends one CSV row per call: step,time,energy,dissipation,u_max,
/// taylor_scale,reynolds_lambda,kolmogorov_eta,dt,wall_ms. Call from
/// rank 0 only. dt/wall_ms are the per-step driver stats; callers without
/// stepping context may leave them 0.
///
/// Append mode continues an interrupted run: the header only goes into an
/// empty file. Construction and append() throw util::Error naming the path.
class SeriesWriter {
 public:
  using Mode = util::LineLog::Mode;

  explicit SeriesWriter(const std::string& path, Mode mode = Mode::Truncate);

  void append(std::int64_t step, double time, const dns::Diagnostics& d,
              double dt = 0.0, double wall_ms = 0.0);

 private:
  util::LineLog log_;
};

/// Replaces `path` with "k,E(k)" rows. Call from rank 0 only. Throws
/// util::Error naming the path on failure.
void write_spectrum_csv(const std::string& path,
                        const std::vector<double>& spectrum);

/// Reads back a spectrum CSV (for tests and plotting tools).
std::vector<double> read_spectrum_csv(const std::string& path);

}  // namespace psdns::io
