//===- serve/Server.h - Persistent analysis server --------------*- C++ -*-===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The qualsd request loop: reads newline-delimited JSON requests from an
/// input stream, dispatches `analyze` bodies onto a support/ThreadPool, and
/// answers -- one response line per request, **in request order** -- from
/// the content-addressed ResultCache, falling back to a fully isolated
/// serve/Pipelines run on a miss.
///
/// Ordering works exactly like tools/BatchDriver: workers complete
/// out-of-order into per-request slots, the reader thread flushes the
/// completed prefix, so the response stream is byte-identical for every
/// worker count. Control requests (`invalidate`, `stats`, `shutdown`)
/// barrier on all in-flight analyzes first, so their observable state is
/// deterministic too.
///
/// **Sessions.** run() serves one request stream (one "connection"); its
/// state -- the ordered response slots, backpressure, barriers -- is local
/// to the call, and the cache, worker pool, and telemetry are shared, so
/// many run() calls may execute concurrently: that is exactly what
/// serve/Transport.h does with one session per accepted socket. Response
/// ordering and the control-request barrier are *per-session*; the
/// sequence counter, cache, and metrics are server-wide (docs/SERVER.md
/// defines the cross-connection semantics precisely).
///
/// Robustness follows docs/ROBUSTNESS.md: request lines are read under a
/// hard byte cap (an over-long line is consumed, answered with an error,
/// and the stream keeps serving), the protocol parser is depth- and
/// size-budgeted, and every analysis runs under the server's --limit-*
/// budgets. A malformed request never takes the server down.
///
/// Observability: each request runs under a "req:<n>" trace span in
/// category "serve", and the loop publishes server.requests /
/// server.errors counters next to the cache.* metrics. Request-level
/// telemetry (always on) additionally records every request's queue wait
/// and end-to-end service time into
/// server.latency.<method> / server.queue_wait histograms, readable live
/// through the `metrics` request and the `stats` latency block; an
/// optional structured request log (serve/RequestLog.h) emits one NDJSON
/// event per request. None of it ever touches response bytes: the response
/// stream stays byte-identical at any -jN, request log on or off
/// (docs/SERVER.md, docs/OBSERVABILITY.md).
///
//===----------------------------------------------------------------------===//

#ifndef QUALS_SERVE_SERVER_H
#define QUALS_SERVE_SERVER_H

#include "serve/Protocol.h"
#include "serve/RequestLog.h"
#include "serve/ResultCache.h"
#include "support/Limits.h"
#include "support/Metrics.h"

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

namespace quals {

class ThreadPool;

namespace serve {

/// One server's configuration; fixed for the daemon's lifetime.
struct ServerConfig {
  /// Analyze workers; 1 (the default) runs requests inline on the reader
  /// thread, which is fully deterministic and right for edit streams.
  /// With a socket transport the pool is shared by every connection.
  unsigned Jobs = 1;
  /// In-memory cache payload budget; 0 disables caching.
  uint64_t CacheMaxBytes = 64u << 20;
  /// Resource budgets applied to every per-request analysis context.
  Limits Lim;
  /// Budgets for the request parser itself.
  ProtocolLimits ProtoLim;
  /// Structured request-log sink (one NDJSON event per request, completion
  /// order; serve/RequestLog.h); null disables. Not owned; must outlive
  /// the server. Shared by every session (writes are mutex-serialized).
  std::ostream *RequestLogStream = nullptr;
};

/// The persistent analysis server; see the file comment.
class Server {
public:
  explicit Server(const ServerConfig &Config);
  ~Server(); // Out of line: ThreadPool is incomplete here.

  /// Serves requests from \p In until `shutdown` or end of input, writing
  /// one response line per request to \p Out in request order. Returns the
  /// process exit code (0 on clean shutdown/EOF). May be called again on a
  /// new stream (the cache stays warm across calls; tests rely on this to
  /// model reconnects) and
  /// concurrently from several threads, one call per connection
  /// (serve/Transport.h) -- ordering and barriers are per-call, the cache
  /// and pool are shared.
  int run(std::istream &In, std::ostream &Out);

  /// True once any session has processed a `shutdown` request; the
  /// transport polls this to stop accepting and close other connections.
  bool shutdownRequested() const {
    return ShutdownFlag.load(std::memory_order_acquire);
  }

  /// The cache, for stats assertions in tests/bench.
  const ResultCache &cache() const { return Cache; }

private:
  ServerConfig Config;
  ResultCache Cache;
  /// Analyze workers (ServerConfig::Jobs > 1), shared by every session so
  /// C connections multiplex onto one fixed pool instead of C pools; null
  /// when requests run inline on each session's reader thread.
  std::unique_ptr<ThreadPool> WorkerPool;
  /// Server-wide request sequence; also the `stats` requests count.
  std::atomic<uint64_t> Requests{0};
  /// Requests admitted but not yet flushed, summed over sessions (the
  /// server.queue_depth gauge).
  std::atomic<int64_t> InFlight{0};
  /// Set by the session that processes `shutdown`; never cleared.
  std::atomic<bool> ShutdownFlag{false};

  /// analyze-delta lines seen (atomic: analyzes run on pool workers).
  std::atomic<uint64_t> DeltaRequests{0};

  // Request-level telemetry: per-method latency histograms plus queue
  // instrumentation, owned by MetricsRegistry::global() (stable refs) so
  // the `metrics` request and --metrics reports see them.
  Histogram *LatAnalyze;
  Histogram *LatDelta;
  Histogram *LatInvalidate;
  Histogram *LatStats;
  Histogram *LatMetrics;
  Histogram *QueueWait;
  Gauge *QueueDepth;
  RequestLog Log;

  /// The latency histogram for \p M; null for shutdown.
  Histogram *latencyFor(Method M) const;

  /// Builds the response line (including trailing newline) for one
  /// analyze request; runs on a pool worker when Jobs > 1. With \p Ev set
  /// (request logging on), fills the event's analysis facts: ok/exit,
  /// content-hash prefix, cache outcome, and the per-phase breakdown
  /// captured while computing a miss.
  std::string handleAnalyze(const Request &Req, uint64_t Seq,
                            RequestLogEvent *Ev);

  /// Records latency/queue telemetry for a finished analyze-family request
  /// and, when \p Ev is set, completes and writes its log event.
  void finishAnalyze(const Request &Req, uint64_t Seq, uint64_t T0,
                     uint64_t QueueUs, uint64_t BytesIn, RequestLogEvent *Ev,
                     const std::string &Response);

  std::string handleInvalidate(const Request &Req);
  std::string handleStats(const Request &Req);
  std::string handleMetrics(const Request &Req);
};

/// Serializes an error response: {"id":<id|null>,"ok":false,"error":"..."}.
std::string makeErrorResponse(bool HasId, int64_t Id,
                              const std::string &Error);

} // namespace serve
} // namespace quals

#endif // QUALS_SERVE_SERVER_H
