//===- serve/Server.cpp - Persistent analysis server -----------------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "serve/Pipelines.h"
#include "support/Hash.h"
#include "support/Metrics.h"
#include "support/TextIO.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <istream>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>

using namespace quals;
using namespace quals::serve;

namespace {

/// Outcome of one bounded line read.
enum class ReadStatus { Eof, Ok, TooLong };

/// Reads one line (up to but not including '\n', trailing '\r' stripped)
/// with a hard byte cap: an over-cap line is consumed to its end and
/// reported TooLong, so one hostile line can neither exhaust memory nor
/// desynchronize the stream. The cap is judged on the line *after* CR
/// stripping -- a CRLF peer's request of exactly MaxBytes payload bytes is
/// within budget, identical to the same request with LF framing (the
/// buffer holds at most MaxBytes + 1 bytes to decide this).
ReadStatus readLimitedLine(std::istream &In, std::string &Line,
                           size_t MaxBytes) {
  Line.clear();
  std::streambuf *Buf = In.rdbuf();
  bool ReadAny = false, Over = false;
  for (;;) {
    int C = Buf ? Buf->sbumpc() : std::char_traits<char>::eof();
    if (C == std::char_traits<char>::eof()) {
      In.setstate(std::ios::eofbit);
      if (!ReadAny)
        return ReadStatus::Eof;
      break;
    }
    ReadAny = true;
    if (C == '\n')
      break;
    if (Line.size() > MaxBytes)
      Over = true; // Keep consuming to the newline, discard the excess.
    else
      Line += static_cast<char>(C);
  }
  if (!Line.empty() && Line.back() == '\r')
    Line.pop_back();
  if (Line.size() > MaxBytes)
    Over = true;
  return Over ? ReadStatus::TooLong : ReadStatus::Ok;
}

void appendIdField(std::string &Out, bool HasId, int64_t Id) {
  Out += "{\"id\":";
  Out += HasId ? std::to_string(Id) : std::string("null");
}

std::string hashHex(uint64_t H) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(H));
  return Buf;
}

/// One in-flight request's response slot; the reader flushes the completed
/// prefix in request order (the BatchDriver discipline).
struct Slot {
  std::string Response;
  bool Done = false;
};

/// The wire name of a method, for histogram keys and request-log events.
const char *methodName(Method M) {
  switch (M) {
  case Method::Analyze:
    return "analyze";
  case Method::AnalyzeDelta:
    return "analyze-delta";
  case Method::Invalidate:
    return "invalidate";
  case Method::Stats:
    return "stats";
  case Method::Metrics:
    return "metrics";
  case Method::Shutdown:
    return "shutdown";
  }
  return "invalid";
}

} // namespace

std::string quals::serve::makeErrorResponse(bool HasId, int64_t Id,
                                            const std::string &Error) {
  std::string R;
  appendIdField(R, HasId, Id);
  R += ",\"ok\":false,\"error\":";
  appendJsonString(R, Error);
  R += "}\n";
  return R;
}

Server::Server(const ServerConfig &Config)
    : Config(Config), Cache(Config.CacheMaxBytes),
      Log(Config.RequestLogStream) {
  MetricsRegistry &R = MetricsRegistry::global();
  LatAnalyze = &R.histogram("server.latency.analyze");
  LatDelta = &R.histogram("server.latency.analyze-delta");
  LatInvalidate = &R.histogram("server.latency.invalidate");
  LatStats = &R.histogram("server.latency.stats");
  LatMetrics = &R.histogram("server.latency.metrics");
  QueueWait = &R.histogram("server.queue_wait");
  QueueDepth = &R.gauge("server.queue_depth");
  // One shared analyze pool for every session: C connections multiplex
  // onto Jobs workers rather than spawning C pools (docs/SERVER.md).
  if (Config.Jobs > 1)
    WorkerPool = std::make_unique<ThreadPool>(Config.Jobs);
}

Server::~Server() = default;

Histogram *Server::latencyFor(Method M) const {
  switch (M) {
  case Method::Analyze:
    return LatAnalyze;
  case Method::AnalyzeDelta:
    return LatDelta;
  case Method::Invalidate:
    return LatInvalidate;
  case Method::Stats:
    return LatStats;
  case Method::Metrics:
    return LatMetrics;
  case Method::Shutdown:
    return nullptr;
  }
  return nullptr;
}

void Server::finishAnalyze(const Request &Req, uint64_t Seq, uint64_t T0,
                           uint64_t QueueUs, uint64_t BytesIn,
                           RequestLogEvent *Ev,
                           const std::string &Response) {
  uint64_t End = Tracer::nowMicros();
  latencyFor(Req.M)->record(End - T0);
  QueueWait->record(QueueUs);
  if (Ev) {
    Ev->Seq = Seq;
    Ev->HasId = Req.HasId;
    Ev->Id = Req.Id;
    Ev->Method = methodName(Req.M);
    Ev->BytesIn = BytesIn;
    Ev->BytesOut = Response.size();
    Ev->QueueUs = QueueUs;
    Ev->ServiceUs = End - T0;
    Log.write(*Ev);
  }
}

std::string Server::handleAnalyze(const Request &Req, uint64_t Seq,
                                  RequestLogEvent *Ev) {
  TraceScope Span("req:" + std::to_string(Seq), "serve");

  AnalyzeJob Job;
  Job.Name = Req.Name;
  Job.Language = Req.Language;
  Job.Polymorphic = Req.Polymorphic;
  Job.Protos = Req.Protos;
  Job.Lim = Config.Lim;
  if (Req.HasSource) {
    Job.Source = Req.Source;
  } else {
    std::string ReadErr;
    if (!readFileBytes(Req.Path, Job.Source, ReadErr))
      return makeErrorResponse(Req.HasId, Req.Id,
                               "cannot read '" + Req.Path + "'");
  }

  CacheKey Key;
  Key.ContentHash = hashString(Job.Source);
  Key.ConfigHash = configHash(Job);

  // analyze-delta is served exactly like analyze (same cache, same cold
  // pipeline, same bytes); only its request count and latency histogram are
  // its own.
  if (Req.M == Method::AnalyzeDelta) {
    ++DeltaRequests;
    if (MetricsRegistry::collecting())
      MetricsRegistry::global().counter("server.delta.requests").add();
  }

  CachedResult Res;
  bool Hit = Cache.lookup(Key, Res);
  if (!Hit) {
    std::optional<PhaseCapture> Capture;
    if (Ev)
      Capture.emplace(); // Per-request phase breakdown for the log event.
    runAnalysis(Job, Res);
    Cache.insert(Key, Res);
    if (Ev) {
      // Aggregate the capture by phase name (a phase can close many times
      // per request), keeping first-completion order for stable output.
      for (const PhaseCapture::Sample &Sample : Capture->samples()) {
        auto It = std::find_if(
            Ev->PhasesUs.begin(), Ev->PhasesUs.end(),
            [&](const auto &KV) { return KV.first == Sample.Name; });
        if (It != Ev->PhasesUs.end())
          It->second += Sample.Micros;
        else
          Ev->PhasesUs.emplace_back(Sample.Name, Sample.Micros);
      }
    }
  }
  if (Ev) {
    Ev->Ok = true;
    Ev->HasExit = true;
    Ev->Exit = Res.ExitCode;
    Ev->HashPrefix = hashHex(Key.ContentHash).substr(0, 8);
    Ev->Cache = Hit ? "hit" : "miss";
  }
  if (Tracer::isEnabled())
    Span.setArgs("\"cached\":" + std::string(Hit ? "true" : "false") +
                 ",\"exit\":" + std::to_string(Res.ExitCode));

  // The reply is a pure function of (content, config): the "cached" bit is
  // deliberately NOT in it, so a warm reply is byte-identical to the cold
  // run that filled it (hit-path visibility comes from `stats` and the
  // cache.* metrics instead).
  std::string R;
  appendIdField(R, Req.HasId, Req.Id);
  R += ",\"ok\":true,\"exit\":" + std::to_string(Res.ExitCode);
  R += ",\"hash\":\"" + hashHex(Key.ContentHash) + "\"";
  R += ",\"stdout\":";
  appendJsonString(R, Res.Out);
  R += ",\"stderr\":";
  appendJsonString(R, Res.Err);
  R += "}\n";
  return R;
}

std::string Server::handleInvalidate(const Request &Req) {
  uint64_t Dropped;
  if (!Req.ContentHashHex.empty()) {
    Dropped = Cache.invalidateContent(
        std::strtoull(Req.ContentHashHex.c_str(), nullptr, 16));
  } else {
    Dropped = Cache.invalidateAll();
  }
  std::string R;
  appendIdField(R, Req.HasId, Req.Id);
  R += ",\"ok\":true,\"dropped\":" + std::to_string(Dropped) + "}\n";
  return R;
}

std::string Server::handleStats(const Request &Req) {
  CacheStats S = Cache.stats();
  std::string R;
  appendIdField(R, Req.HasId, Req.Id);
  R += ",\"ok\":true,\"requests\":" + std::to_string(Requests.load());
  R += ",\"cache\":{\"entries\":" + std::to_string(S.Entries);
  R += ",\"bytes\":" + std::to_string(S.Bytes);
  R += ",\"hits\":" + std::to_string(S.Hits);
  R += ",\"misses\":" + std::to_string(S.Misses);
  R += ",\"evictions\":" + std::to_string(S.Evictions);
  R += ",\"inserts\":" + std::to_string(S.Inserts);
  R += "}";
  R += ",\"delta\":{\"requests\":" + std::to_string(DeltaRequests.load()) +
       "}";
  // Live per-method latency distributions; values are exact for this
  // session's traffic because control requests barrier on its in-flight
  // analyzes (other connections may record concurrently).
  auto AppendHist = [&R](const char *Name, const Histogram &H) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.3f", H.mean());
    R += "\"" + std::string(Name) +
         "\":{\"count\":" + std::to_string(H.count()) +
         ",\"mean_us\":" + Buf +
         ",\"p50_us\":" + std::to_string(H.quantile(0.50)) +
         ",\"p90_us\":" + std::to_string(H.quantile(0.90)) +
         ",\"p99_us\":" + std::to_string(H.quantile(0.99)) + "}";
  };
  R += ",\"latency\":{";
  AppendHist("analyze", *LatAnalyze);
  R += ",";
  AppendHist("analyze-delta", *LatDelta);
  R += ",";
  AppendHist("invalidate", *LatInvalidate);
  R += ",";
  AppendHist("stats", *LatStats);
  R += ",";
  AppendHist("metrics", *LatMetrics);
  R += ",";
  AppendHist("queue_wait", *QueueWait);
  R += "}}\n";
  return R;
}

std::string Server::handleMetrics(const Request &Req) {
  // The full registry snapshot -- the server's histograms plus whatever
  // counters/timers the rest of the process has published -- compactly
  // rendered so the response stays one NDJSON line.
  std::string R;
  appendIdField(R, Req.HasId, Req.Id);
  R += ",\"ok\":true,\"metrics\":";
  R += MetricsRegistry::global().renderJson(/*Compact=*/true);
  R += "}\n";
  return R;
}

int Server::run(std::istream &In, std::ostream &Out) {
  TraceScope RunSpan("server.run", "serve");
  ThreadPool *Pool = WorkerPool.get();

  // Session state: everything below is local to this connection's stream,
  // so concurrent run() calls (one per transport connection) interact only
  // through the shared cache/pool/telemetry.
  std::deque<Slot> Pending;
  std::mutex Mutex;
  std::condition_variable DoneCv;

  auto SetDepthGauge = [this](int64_t Delta) {
    QueueDepth->set(InFlight.fetch_add(Delta) + Delta);
  };
  // Writes the completed prefix of Pending to Out, in request order, then
  // flushes. Callers hold Mutex; both the reader thread and the worker
  // that completes the front slot call this (a synchronous peer -- send
  // one request, await the response -- must get its reply while the
  // reader is blocked on the next line, so flushing cannot be the
  // reader's job alone). All writes to Out happen under Mutex, so the
  // response stream stays serialized and in request order.
  auto FlushReadyLocked = [&] {
    int64_t Popped = 0;
    while (!Pending.empty() && Pending.front().Done) {
      Out << Pending.front().Response;
      Pending.pop_front();
      ++Popped;
    }
    if (Popped) {
      SetDepthGauge(-Popped);
      Out.flush();
    }
  };
  auto FlushReady = [&] {
    std::lock_guard<std::mutex> Lock(Mutex);
    FlushReadyLocked();
    Out.flush();
  };
  // Blocks until every in-flight request has completed and flushed; the
  // deterministic point at which control requests read/mutate state.
  auto Barrier = [&] {
    std::unique_lock<std::mutex> Lock(Mutex);
    for (;;) {
      FlushReadyLocked();
      if (Pending.empty())
        break;
      // Workers may pop the whole queue themselves; guard front().
      DoneCv.wait(Lock,
                  [&] { return Pending.empty() || Pending.front().Done; });
    }
    Out.flush();
  };
  // Backpressure: a peer that streams analyze requests faster than the
  // workers drain them must not grow the response backlog without bound.
  // The reader stalls (flushing what it can) once this many requests are
  // in flight or awaiting flush.
  const size_t MaxBacklog = static_cast<size_t>(Config.Jobs) * 16 + 16;
  auto WaitBacklog = [&] {
    std::unique_lock<std::mutex> Lock(Mutex);
    while (Pending.size() >= MaxBacklog) {
      // size >= MaxBacklog implies nonempty, so front() is safe here.
      DoneCv.wait(Lock,
                  [&] { return Pending.size() < MaxBacklog ||
                               Pending.front().Done; });
      FlushReadyLocked();
    }
  };
  auto EmitDone = [&](std::string Response) {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Pending.push_back({std::move(Response), true});
      SetDepthGauge(+1);
    }
    FlushReady();
  };
  // Admits one request into the server-wide sequence; the returned value
  // is this request's seq (1-based, shared by every session).
  auto CountRequest = [&](bool IsError) -> uint64_t {
    uint64_t Seq = ++Requests;
    if (MetricsRegistry::collecting()) {
      MetricsRegistry::global().counter("server.requests").add();
      if (IsError)
        MetricsRegistry::global().counter("server.errors").add();
    }
    return Seq;
  };
  // Logs a request that never reached a handler (over-long or unparseable
  // line): no method, no exit, just the shape and the timings.
  auto LogInvalid = [&](uint64_t Seq, bool HasId, int64_t Id, uint64_t T0,
                        uint64_t BytesIn, const std::string &Response) {
    if (!Log)
      return;
    RequestLogEvent Ev;
    Ev.Seq = Seq;
    Ev.HasId = HasId;
    Ev.Id = Id;
    Ev.Method = "invalid";
    Ev.BytesIn = BytesIn;
    Ev.BytesOut = Response.size();
    Ev.ServiceUs = Tracer::nowMicros() - T0;
    Log.write(Ev);
  };
  // Telemetry + log for a control request (invalidate/stats/metrics/
  // shutdown); the barrier wait is part of its service time.
  auto FinishControl = [&](const Request &Req, uint64_t Seq, uint64_t T0,
                           uint64_t BytesIn, const std::string &Response) {
    Histogram *Lat = latencyFor(Req.M);
    uint64_t End = Tracer::nowMicros();
    if (Lat)
      Lat->record(End - T0);
    if (Log) {
      RequestLogEvent Ev;
      Ev.Seq = Seq;
      Ev.HasId = Req.HasId;
      Ev.Id = Req.Id;
      Ev.Method = methodName(Req.M);
      Ev.Ok = true;
      Ev.BytesIn = BytesIn;
      Ev.BytesOut = Response.size();
      Ev.ServiceUs = End - T0;
      Log.write(Ev);
    }
  };

  std::string Line;
  for (;;) {
    ReadStatus S =
        readLimitedLine(In, Line, Config.ProtoLim.MaxRequestBytes);
    if (S == ReadStatus::Eof)
      break;
    if (Line.find_first_not_of(" \t") == std::string::npos)
      continue; // Blank lines are keep-alives, not requests.
    const uint64_t T0 = Tracer::nowMicros();
    const uint64_t BytesIn = Line.size();
    if (S == ReadStatus::TooLong) {
      uint64_t Seq = CountRequest(/*IsError=*/true);
      std::string R = makeErrorResponse(false, 0, "request exceeds byte limit");
      LogInvalid(Seq, false, 0, T0, BytesIn, R);
      EmitDone(std::move(R));
      continue;
    }
    Request Req;
    std::string Error;
    if (!parseRequest(Line, Config.ProtoLim, Req, Error)) {
      uint64_t Seq = CountRequest(/*IsError=*/true);
      std::string R = makeErrorResponse(Req.HasId, Req.Id, Error);
      LogInvalid(Seq, Req.HasId, Req.Id, T0, BytesIn, R);
      EmitDone(std::move(R));
      continue;
    }
    uint64_t Seq = CountRequest(/*IsError=*/false);

    switch (Req.M) {
    case Method::Analyze:
    case Method::AnalyzeDelta:
      // analyze-delta rides the same ordered-slot path as analyze: same
      // pool, same backpressure, same response schema, same pipeline.
      if (Pool) {
        WaitBacklog();
        Slot *S2;
        {
          std::lock_guard<std::mutex> Lock(Mutex);
          Pending.emplace_back();
          S2 = &Pending.back();
          SetDepthGauge(+1);
        }
        const uint64_t EnqueueUs = Tracer::nowMicros();
        Pool->enqueue([this, S2, &Mutex, &DoneCv, &FlushReadyLocked,
                       Req = std::move(Req), Seq, T0, BytesIn, EnqueueUs] {
          const uint64_t QueueUs = Tracer::nowMicros() - EnqueueUs;
          RequestLogEvent Ev;
          RequestLogEvent *EvPtr = Log ? &Ev : nullptr;
          std::string Response = handleAnalyze(Req, Seq, EvPtr);
          finishAnalyze(Req, Seq, T0, QueueUs, BytesIn, EvPtr, Response);
          std::lock_guard<std::mutex> Lock(Mutex);
          S2->Response = std::move(Response);
          S2->Done = true;
          // Flush the completed prefix from here: the reader may be
          // blocked on the next request line, and a synchronous peer
          // won't send one until this response reaches it.
          FlushReadyLocked();
          DoneCv.notify_all();
        });
      } else {
        RequestLogEvent Ev;
        RequestLogEvent *EvPtr = Log ? &Ev : nullptr;
        std::string Response = handleAnalyze(Req, Seq, EvPtr);
        finishAnalyze(Req, Seq, T0, /*QueueUs=*/0, BytesIn, EvPtr, Response);
        EmitDone(std::move(Response));
      }
      break;
    case Method::Invalidate: {
      Barrier();
      std::string R = handleInvalidate(Req);
      FinishControl(Req, Seq, T0, BytesIn, R);
      EmitDone(std::move(R));
      break;
    }
    case Method::Stats: {
      Barrier();
      std::string R = handleStats(Req);
      FinishControl(Req, Seq, T0, BytesIn, R);
      EmitDone(std::move(R));
      break;
    }
    case Method::Metrics: {
      Barrier();
      std::string R = handleMetrics(Req);
      FinishControl(Req, Seq, T0, BytesIn, R);
      EmitDone(std::move(R));
      break;
    }
    case Method::Shutdown: {
      Barrier();
      std::string R;
      appendIdField(R, Req.HasId, Req.Id);
      R += ",\"ok\":true}\n";
      FinishControl(Req, Seq, T0, BytesIn, R);
      EmitDone(std::move(R));
      // Signal the transport (if any): stop accepting, wind down the
      // other sessions. This session's stream is complete at this point.
      ShutdownFlag.store(true, std::memory_order_release);
      return 0;
    }
    }
  }
  Barrier();
  return 0;
}
