#pragma once
// Leveled structured logger: one JSON object per line with timestamp,
// level, subsystem, message, a rank/thread tag and free-form key=value
// fields. Level and sink are selected by environment variables
// (PSDNS_LOG_LEVEL=trace|debug|info|warn|error|off, PSDNS_LOG_FILE=path)
// or programmatically; the default is `warn` to stderr so the library is
// silent in tests and benches unless asked.
//
//   obs::log_event(obs::LogLevel::Info, "fft", "plan cache miss",
//                  {{"n", 18432}});
//   -> {"ts_ms":...,"level":"info","subsystem":"fft","rank":0,"thread":0,
//       "msg":"plan cache miss","n":18432}

#include <cstdint>
#include <initializer_list>
#include <string>
#include <type_traits>

namespace psdns::obs {

enum class LogLevel { Trace = 0, Debug, Info, Warn, Error, Off };

const char* to_string(LogLevel level);
/// Accepts the lowercase names above; throws util::Error on anything else.
LogLevel parse_log_level(const std::string& name);

void set_log_level(LogLevel level);
LogLevel log_level();
bool log_enabled(LogLevel level);

/// Appends to `path` (a util::LineLog); the empty path restores stderr.
/// Throws if the file cannot be opened; a line it refuses later is dropped
/// (log_event never throws).
void set_log_file(const std::string& path);

/// Applies PSDNS_LOG_LEVEL and PSDNS_LOG_FILE when set. Safe to call more
/// than once; unknown level strings throw rather than being ignored.
void init_logging_from_env();

/// Rank tag stamped on every line emitted by this thread (-1 = untagged;
/// the functional communicator's rank threads set it at spawn).
void set_rank_tag(int rank);
int rank_tag();

/// One typed key=value pair of a log event.
struct LogField {
  enum class Kind { String, Number, Int, Bool };

  std::string key;
  Kind kind = Kind::String;
  std::string text;
  double number = 0.0;
  std::int64_t integer = 0;
  bool boolean = false;

  LogField(std::string k, const char* v)
      : key(std::move(k)), kind(Kind::String), text(v) {}
  LogField(std::string k, std::string v)
      : key(std::move(k)), kind(Kind::String), text(std::move(v)) {}
  LogField(std::string k, bool v)
      : key(std::move(k)), kind(Kind::Bool), boolean(v) {}
  template <class T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  LogField(std::string k, T v)
      : key(std::move(k)), kind(Kind::Int),
        integer(static_cast<std::int64_t>(v)) {}
  template <class T, std::enable_if_t<std::is_floating_point_v<T>, int> = 0>
  LogField(std::string k, T v)
      : key(std::move(k)), kind(Kind::Number),
        number(static_cast<double>(v)) {}
};

/// Emits one JSON line when `level` passes the filter. Field keys must not
/// collide with the built-in ones (ts_ms, level, subsystem, rank, thread,
/// msg); collisions are not detected, last key wins in most parsers.
void log_event(LogLevel level, const std::string& subsystem,
               const std::string& message,
               std::initializer_list<LogField> fields = {});

}  // namespace psdns::obs
