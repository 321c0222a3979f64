#pragma once
// Durable output, the only two ways psdns writes a file. Every failure
// throws util::Error naming the path.
//  - LineLog: append() writes one line and flushes it, so a killed process
//    keeps every line it logged (series CSV, telemetry and audit JSONL,
//    the log sink).
//  - AtomicFile: bytes go to "<path>.tmp"; commit() checks the flush and
//    the close, then renames the tmp file onto the path, so a reader sees
//    the old file or the whole new one (checkpoints, result-store entries,
//    BENCH reports, Chrome traces, spectra). The destructor removes an
//    uncommitted tmp file.

#include <cstddef>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>

namespace psdns::util {

class LineLog {
 public:
  enum class Mode { Truncate, Append };  // Append creates a missing file

  explicit LineLog(const std::string& path, Mode mode = Mode::Truncate);
  ~LineLog() { std::fclose(file_); }
  LineLog(const LineLog&) = delete;
  LineLog& operator=(const LineLog&) = delete;

  void append(std::string_view line);  // writes line + '\n', flushes
  bool was_empty() const { return was_empty_; }  // at open; Truncate: true

 private:
  std::FILE* file_;
  std::string path_;
  bool was_empty_ = true;
};

class AtomicFile {
 public:
  explicit AtomicFile(const std::string& path);
  ~AtomicFile();
  AtomicFile(const AtomicFile&) = delete;
  AtomicFile& operator=(const AtomicFile&) = delete;

  void write(const void* data, std::size_t bytes);
  void write(std::string_view bytes) { write(bytes.data(), bytes.size()); }
  /// Checks that every byte reached the tmp file (commit() does it too):
  /// the checkpoint rotates its chain only after this.
  void flush();
  void commit();  // flush, close, rename; no write() after it
  const std::string& tmp_path() const { return tmp_; }

 private:
  std::string path_;
  std::string tmp_;
  std::FILE* file_;
};

/// Calls `row` on each non-blank line of `path`. Throws util::Error naming
/// the path when it cannot be opened, and "<path>:<line>: malformed <what>
/// row: <reason>" when `row` throws.
void read_lines(const std::string& path, const std::string& what,
                const std::function<void(const std::string&)>& row);

}  // namespace psdns::util
