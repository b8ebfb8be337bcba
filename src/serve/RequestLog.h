//===- serve/RequestLog.h - Structured NDJSON request log -------*- C++ -*-===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// qualsd's structured request log: one machine-parseable JSON event per
/// request (`--request-log=FILE`), written at request completion. The
/// response stream carries none of this — responses stay pure functions of
/// (source bytes, analysis config) per docs/SERVER.md — so the log is where
/// per-request facts live: timings, cache outcomes, per-phase
/// breakdowns (via support/Metrics.h PhaseCapture), byte counts.
///
/// Events appear in *completion* order (workers finish out of order); the
/// monotone `seq` field restores arrival order on the consumer side. Writes
/// are mutex-serialized and flushed per event so a crashed or killed daemon
/// leaves a readable log. The event schema is documented in
/// docs/OBSERVABILITY.md.
///
//===----------------------------------------------------------------------===//

#ifndef QUALS_SERVE_REQUESTLOG_H
#define QUALS_SERVE_REQUESTLOG_H

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace quals {

/// Everything one log line says about one request. Built by the server
/// while handling the request; optional fields render only when set.
struct RequestLogEvent {
  uint64_t Seq = 0;               ///< Arrival order, 1-based.
  bool HasId = false;             ///< Renders "id":null when false.
  int64_t Id = 0;
  std::string Method;             ///< Wire method, or "invalid".
  bool Ok = false;                ///< Mirrors the response's "ok".
  bool HasExit = false;
  int Exit = 0;                   ///< Analysis exit code (analyze family).
  std::string HashPrefix;         ///< First 8 hex digits of the content hash.
  const char *Cache = nullptr;    ///< "hit" / "miss" (analyze family).
  uint64_t BytesIn = 0;           ///< Request line length (sans newline).
  uint64_t BytesOut = 0;          ///< Response line length (with newline).
  uint64_t QueueUs = 0;           ///< Read-to-worker-pickup wait.
  uint64_t ServiceUs = 0;         ///< Read-to-response-ready, end to end.
  /// Aggregated per-phase micros (PhaseCapture samples summed by name),
  /// first-completion order. Non-empty only on cache-miss analyzes.
  std::vector<std::pair<std::string, uint64_t>> PhasesUs;
};

/// The sink. Null stream means logging is off; `if (Log)` gates all event
/// assembly so the disabled path costs one pointer test.
class RequestLog {
public:
  RequestLog() = default;
  explicit RequestLog(std::ostream *Out) : Out(Out) {}

  explicit operator bool() const { return Out != nullptr; }

  /// Renders, writes, and flushes one event. Thread-safe; events from
  /// concurrent workers serialize here.
  void write(const RequestLogEvent &Ev);

  /// Renders one event as a single JSON line (no trailing newline) with a
  /// fixed key order. Exposed for tests.
  static std::string render(const RequestLogEvent &Ev);

private:
  std::ostream *Out = nullptr;
  std::mutex Mutex;
};

} // namespace quals

#endif // QUALS_SERVE_REQUESTLOG_H
