//===- Log.h - Leveled structured logging -----------------------*- C++-*-===//
///
/// \file
/// The process-wide leveled logger behind every diagnostic line the solver
/// stack emits: suite progress, SGE/CEGIS debug traces, load errors, and the
/// fatal-error channel of support/Diagnostics. Each line carries a component
/// tag, the severity, a UTC timestamp with millisecond precision, and a
/// compact per-process thread id, so interleaved output from parallel suite
/// workers stays attributable:
///
///   [suite][info][2026-08-05T12:34:56.789Z][t=3] sortedlist/min ...
///
/// The level is a single relaxed atomic read (\c logEnabled), so disabled
/// levels cost one load and no formatting. Configuration flows through
/// \c SolverConfig (SE2GIS_LOG=error|warn|info|debug plus the optional
/// SE2GIS_LOG_JSON JSONL sink); \c configureLogging is idempotent and safe
/// to call once per SynthesisTask.
///
//===----------------------------------------------------------------------===//

#ifndef SE2GIS_SUPPORT_LOG_H
#define SE2GIS_SUPPORT_LOG_H

#include <cstdarg>
#include <cstdint>
#include <optional>
#include <string>

namespace se2gis {

/// Severity levels, most severe first (the enum order is the filter order:
/// a configured level admits itself and everything more severe).
enum class LogLevel : unsigned char { Error = 0, Warn, Info, Debug };

/// \returns the lowercase level name ("error", "warn", ...).
const char *logLevelName(LogLevel L);

/// Parses "error" / "warn" / "info" / "debug" (case-insensitively; also
/// accepts "warning"). \returns nullopt on anything else.
std::optional<LogLevel> parseLogLevel(const std::string &Name);

/// Logger configuration, carried inside SolverConfig.
struct LogSettings {
  /// Most verbose admitted level. Info by default: progress lines show,
  /// debug traces don't.
  LogLevel Level = LogLevel::Info;
  /// When non-empty, every admitted record is also appended to this file as
  /// one JSON object per line: {"ts":"...","level":"...","tid":N,
  /// "component":"...","msg":"..."}.
  std::string JsonPath;
};

/// Applies \p Settings process-wide. Idempotent: reconfiguring with the
/// same values is a no-op; changing JsonPath reopens the sink (append).
void configureLogging(const LogSettings &Settings);

/// \returns the currently configured level.
LogLevel logLevel();

/// \returns true when records at \p L are admitted — one relaxed atomic
/// load, the only cost of a disabled log site.
bool logEnabled(LogLevel L);

/// \returns a compact 1-based id for the calling thread, assigned on first
/// use. Shared with the tracer so log lines and trace tracks correlate.
unsigned currentThreadId();

/// Binds \p Rid as the calling thread's active request id (0 clears it).
/// Set by the service at request admission and by workers for the duration
/// of a job; propagated manually into portfolio race threads. While set,
/// every log line gains an `[r=N]` bracket (and a `"rid"` JSONL field) and
/// every flight-recorder event carries the id, so one request's activity
/// can be grepped across logs, traces, and post-mortem dumps.
void setThreadRequestId(std::uint64_t Rid);

/// \returns the calling thread's active request id (0 when none).
std::uint64_t threadRequestId();

/// RAII binder for \c setThreadRequestId (restores the previous id).
class RequestIdScope {
public:
  explicit RequestIdScope(std::uint64_t Rid) : Prev(threadRequestId()) {
    setThreadRequestId(Rid);
  }
  ~RequestIdScope() { setThreadRequestId(Prev); }
  RequestIdScope(const RequestIdScope &) = delete;
  RequestIdScope &operator=(const RequestIdScope &) = delete;

private:
  std::uint64_t Prev;
};

/// Escapes \p S as the *contents* of a JSON string literal (no quotes):
/// quotes, backslash, and every control character. The one escaper behind
/// every JSON the program writes (log sink, trace export, service wire,
/// suite perf JSON, fuzz manifests).
std::string jsonEscape(const std::string &S);

/// Emits one record (already formatted). Serialized internally; a no-op
/// when \p L is not admitted.
void logMessage(LogLevel L, const char *Component, const std::string &Message);

/// printf-style convenience wrapper; formatting is skipped entirely when
/// \p L is not admitted.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((format(printf, 3, 4)))
#endif
void logf(LogLevel L, const char *Component, const char *Fmt, ...);

} // namespace se2gis

#endif // SE2GIS_SUPPORT_LOG_H
