#include "util/file.hpp"

#include <cerrno>
#include <cstdint>
#include <fstream>
#include <system_error>
#include <utility>

#include "util/check.hpp"

namespace psdns::util {

namespace {

/// Throws `what` plus the errno text (thread-safe, unlike strerror).
[[noreturn]] void raise_errno(const std::string& what) {
  raise(what + ": " + std::generic_category().message(errno));
}

}  // namespace

LineLog::LineLog(const std::string& path, Mode mode)
    : file_(std::fopen(path.c_str(), mode == Mode::Append ? "ab" : "wb")),
      path_(path) {
  if (file_ == nullptr) raise_errno("cannot open " + path_ + " for writing");
  if (mode == Mode::Append) {
    was_empty_ = std::fseek(file_, 0, SEEK_END) != 0 || std::ftell(file_) <= 0;
  }
}

void LineLog::append(std::string_view line) {
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
      std::fputc('\n', file_) == EOF || std::fflush(file_) != 0) {
    std::clearerr(file_);
    raise_errno("write failed on " + path_);
  }
}

AtomicFile::AtomicFile(const std::string& path)
    : path_(path), tmp_(path + ".tmp"), file_(std::fopen(tmp_.c_str(), "wb")) {
  if (file_ == nullptr) raise_errno("cannot open " + tmp_ + " for writing");
}

AtomicFile::~AtomicFile() {
  if (file_ == nullptr) return;  // committed, or commit() cleaned up
  std::fclose(file_);
  std::remove(tmp_.c_str());
}

void AtomicFile::write(const void* data, std::size_t bytes) {
  if (std::fwrite(data, 1, bytes, file_) != bytes) {
    raise_errno("write failed on " + tmp_);
  }
}

void AtomicFile::flush() {
  if (std::fflush(file_) != 0 || std::ferror(file_) != 0) {
    raise_errno("flush failed on " + tmp_);
  }
}

void AtomicFile::commit() {
  flush();
  if (std::fclose(std::exchange(file_, nullptr)) != 0 ||
      std::rename(tmp_.c_str(), path_.c_str()) != 0) {
    const int err = errno;
    std::remove(tmp_.c_str());
    errno = err;
    raise_errno("cannot commit " + tmp_ + " onto " + path_);
  }
}

void read_lines(const std::string& path, const std::string& what,
                const std::function<void(const std::string&)>& row) {
  std::ifstream in(path);
  if (!in) raise("cannot open " + what + " file " + path);
  std::string line;
  for (std::int64_t lineno = 1; std::getline(in, line); ++lineno) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    try {
      row(line);
    } catch (const std::exception& e) {
      raise(path + ":" + std::to_string(lineno) + ": malformed " + what +
            " row: " + e.what());
    }
  }
}

}  // namespace psdns::util
