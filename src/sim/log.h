// Minimal leveled logger stamped with simulated time.
//
// Logging is off by default (benchmarks and tests run silently); examples
// turn it on to narrate scheduler decisions. The sink is pluggable: the
// default writes to stdout, tests capture into a string, and TestBed honors
// the HYBRIDMR_LOG environment variable (debug|info|warn|error|off) so
// examples and benches can raise verbosity without recompiling.
#pragma once

#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "sim/event_queue.h"

namespace hybridmr::sim {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Process-wide log configuration (single-threaded simulator, so a plain
/// global is fine and keeps call sites trivial).
class Log {
 public:
  /// Receives every message that passes the threshold.
  using Sink = std::function<void(LogLevel level, SimTime now,
                                  const std::string& tag,
                                  const std::string& message)>;

  static LogLevel& threshold() {
    // One threshold per process: written only at setup (TestBed/env
    // parsing), read from sim code thereafter.
    static LogLevel level = LogLevel::kOff;
    return level;
  }

  static bool enabled(LogLevel level) {
    return static_cast<int>(level) >= static_cast<int>(threshold());
  }

  /// Replaces the output sink; an empty sink restores the stdout default.
  // sim-lint: allow(unused-api) telemetry_test captures a warning
  static void set_sink(Sink sink) { sink_ref() = std::move(sink); }

  /// The standard "[ 123.456s] LEVEL tag: message" line.
  static std::string format(LogLevel level, SimTime now,
                            const std::string& tag,
                            const std::string& message) {
    char head[48];
    std::snprintf(head, sizeof(head), "[%9.3fs] %-5s %-12s ", now,
                  level_name(level), tag.c_str());
    return std::string(head) + message;
  }

  /// Routes "tag: message" through the sink if `level` passes.
  static void write(LogLevel level, SimTime now, const std::string& tag,
                    const std::string& message) {
    if (!enabled(level)) return;
    const Sink& sink = sink_ref();
    if (sink) {
      sink(level, now, tag, message);
    } else {
      std::printf("%s\n", format(level, now, tag, message).c_str());
    }
  }

  static const char* level_name(LogLevel level) {
    switch (level) {
      case LogLevel::kDebug:
        return "debug";
      case LogLevel::kInfo:
        return "info";
      case LogLevel::kWarn:
        return "warn";
      case LogLevel::kError:
        return "error";
      case LogLevel::kOff:
        return "off";
    }
    return "?";
  }

  /// Parses a level name ("debug", "info", "warn", "error", "off"; case
  /// sensitive, as env vars conventionally are). nullopt on anything else.
  static std::optional<LogLevel> parse_level(std::string_view name) {
    if (name == "debug") return LogLevel::kDebug;
    if (name == "info") return LogLevel::kInfo;
    if (name == "warn" || name == "warning") return LogLevel::kWarn;
    if (name == "error") return LogLevel::kError;
    if (name == "off" || name == "none") return LogLevel::kOff;
    return std::nullopt;
  }

 private:
  static Sink& sink_ref() {
    // Replaced only at setup/teardown, never from inside event handlers.
    static Sink sink;  // empty = stdout default
    return sink;
  }
};

inline void log_debug(SimTime now, const std::string& tag,
                      const std::string& msg) {
  Log::write(LogLevel::kDebug, now, tag, msg);
}
inline void log_info(SimTime now, const std::string& tag,
                     const std::string& msg) {
  Log::write(LogLevel::kInfo, now, tag, msg);
}
inline void log_warn(SimTime now, const std::string& tag,
                     const std::string& msg) {
  Log::write(LogLevel::kWarn, now, tag, msg);
}

}  // namespace hybridmr::sim
