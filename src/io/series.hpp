#pragma once
// Plain-text outputs for post-processing: a CSV time series of flow
// statistics (the quantity-of-interest log every production DNS keeps) and
// spectrum snapshots. Rows are flushed as they are appended, so a killed
// run keeps everything it logged; IO failures throw (naming the file)
// instead of silently dropping data.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "dns/solver_config.hpp"

namespace psdns::io {

/// Appends one CSV row per call: step,time,energy,dissipation,u_max,
/// taylor_scale,reynolds_lambda,kolmogorov_eta,dt,wall_ms. Call from
/// rank 0 only. dt/wall_ms are the per-step driver stats; callers without
/// stepping context may leave them 0.
///
/// The constructor throws util::Error (naming the path) when the file
/// cannot be opened; append() throws when the underlying stream errors.
/// Every row is flushed immediately.
class SeriesWriter {
 public:
  enum class Mode {
    Truncate,  // fresh file, header written
    Append,    // continue an interrupted run; header only if file is empty
  };

  explicit SeriesWriter(const std::string& path, Mode mode = Mode::Truncate);
  ~SeriesWriter();
  SeriesWriter(const SeriesWriter&) = delete;
  SeriesWriter& operator=(const SeriesWriter&) = delete;

  void append(std::int64_t step, double time, const dns::Diagnostics& d,
              double dt = 0.0, double wall_ms = 0.0);

 private:
  std::FILE* file_;
  std::string path_;
};

/// Writes "k,E(k)" rows. Call from rank 0 only. Throws util::Error naming
/// the path on open or write failure.
void write_spectrum_csv(const std::string& path,
                        const std::vector<double>& spectrum);

/// Reads back a spectrum CSV (for tests and plotting tools).
std::vector<double> read_spectrum_csv(const std::string& path);

}  // namespace psdns::io
