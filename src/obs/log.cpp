#include "obs/log.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <sstream>

#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "util/check.hpp"
#include "util/file.hpp"

namespace psdns::obs {

namespace {

struct LogState {
  std::mutex mutex;
  std::atomic<LogLevel> level{LogLevel::Warn};
  std::optional<util::LineLog> sink;  // empty = stderr
};

LogState& log_state() {
  static LogState state;
  return state;
}

thread_local int t_rank_tag = -1;

// Applied once before the first emission, so PSDNS_LOG_LEVEL/PSDNS_LOG_FILE
// work in every binary without an explicit init call. Programmatic
// set_log_level/set_log_file still win: they run eagerly, and the lazy init
// is a no-op when the variables are unset.
std::once_flag env_once;

void ensure_env_init() {
  std::call_once(env_once, [] { init_logging_from_env(); });
}

std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* to_string(LogLevel level) {
  switch (level) {
    case LogLevel::Trace:
      return "trace";
    case LogLevel::Debug:
      return "debug";
    case LogLevel::Info:
      return "info";
    case LogLevel::Warn:
      return "warn";
    case LogLevel::Error:
      return "error";
    case LogLevel::Off:
      return "off";
  }
  return "?";
}

LogLevel parse_log_level(const std::string& name) {
  for (const LogLevel l : {LogLevel::Trace, LogLevel::Debug, LogLevel::Info,
                           LogLevel::Warn, LogLevel::Error, LogLevel::Off}) {
    if (name == to_string(l)) return l;
  }
  util::raise("unknown log level: " + name +
              " (expected trace|debug|info|warn|error|off)");
}

void set_log_level(LogLevel level) { log_state().level.store(level); }

LogLevel log_level() { return log_state().level.load(); }

bool log_enabled(LogLevel level) {
  return level != LogLevel::Off && level >= log_level();
}

void set_log_file(const std::string& path) {
  auto& st = log_state();
  std::lock_guard lock(st.mutex);
  st.sink.reset();
  if (!path.empty()) st.sink.emplace(path, util::LineLog::Mode::Append);
}

void init_logging_from_env() {
  if (const char* level = std::getenv("PSDNS_LOG_LEVEL")) {
    set_log_level(parse_log_level(level));
  }
  if (const char* path = std::getenv("PSDNS_LOG_FILE")) {
    set_log_file(path);
  }
}

void set_rank_tag(int rank) { t_rank_tag = rank; }

int rank_tag() { return t_rank_tag; }

void log_event(LogLevel level, const std::string& subsystem,
               const std::string& message,
               std::initializer_list<LogField> fields) {
  ensure_env_init();
  if (!log_enabled(level)) return;

  std::ostringstream os;
  os << "{\"ts_ms\":" << now_ms() << ",\"level\":" << json_quote(to_string(level))
     << ",\"subsystem\":" << json_quote(subsystem)
     << ",\"rank\":" << t_rank_tag << ",\"thread\":" << thread_index()
     << ",\"msg\":" << json_quote(message);
  for (const LogField& f : fields) {
    os << "," << json_quote(f.key) << ":";
    switch (f.kind) {
      case LogField::Kind::String:
        os << json_quote(f.text);
        break;
      case LogField::Kind::Number:
        os << json_number(f.number);
        break;
      case LogField::Kind::Int:
        os << f.integer;
        break;
      case LogField::Kind::Bool:
        os << (f.boolean ? "true" : "false");
        break;
    }
  }
  os << "}";
  const std::string line = os.str();

  auto& st = log_state();
  std::lock_guard lock(st.mutex);
  if (!st.sink) {
    std::fprintf(stderr, "%s\n", line.c_str());  // stderr is unbuffered
    return;
  }
  // Never throw: a log line is often written on the way to another error.
  try {
    st.sink->append(line);
  } catch (const std::exception&) {
  }
}

}  // namespace psdns::obs
