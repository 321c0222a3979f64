#include "io/series.hpp"

#include <cstdio>

#include "obs/trace_export.hpp"
#include "util/check.hpp"

namespace psdns::io {

SeriesWriter::SeriesWriter(const std::string& path, Mode mode)
    : log_(path, mode) {
  // In append mode an interrupted run's rows are preserved; only a fresh
  // (empty) file gets the header.
  if (log_.was_empty()) {
    log_.append(
        "step,time,energy,dissipation,u_max,taylor_scale,"
        "reynolds_lambda,kolmogorov_eta,dt,wall_ms");
  }
}

void SeriesWriter::append(std::int64_t step, double time,
                          const dns::Diagnostics& d, double dt,
                          double wall_ms) {
  char row[512];
  std::snprintf(row, sizeof row,
                "%lld,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g",
                static_cast<long long>(step), time, d.energy, d.dissipation,
                d.u_max, d.taylor_scale, d.reynolds_lambda, d.kolmogorov_eta,
                dt, wall_ms);
  log_.append(row);
}

void write_spectrum_csv(const std::string& path,
                        const std::vector<double>& spectrum) {
  std::string text = "k,E\n";
  char row[64];
  for (std::size_t k = 0; k < spectrum.size(); ++k) {
    std::snprintf(row, sizeof row, "%zu,%.17g\n", k, spectrum[k]);
    text += row;
  }
  obs::write_text_file(path, text);
}

std::vector<double> read_spectrum_csv(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  PSDNS_REQUIRE(f != nullptr, "cannot open spectrum file: " + path);
  char header[64];
  PSDNS_REQUIRE(std::fgets(header, sizeof header, f) != nullptr,
                "empty spectrum file");
  std::vector<double> out;
  std::size_t k = 0;
  double e = 0.0;
  while (std::fscanf(f, "%zu,%lf\n", &k, &e) == 2) {
    if (out.size() <= k) out.resize(k + 1, 0.0);
    out[k] = e;
  }
  std::fclose(f);
  return out;
}

}  // namespace psdns::io
