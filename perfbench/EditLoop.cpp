//===- perfbench/EditLoop.cpp - qualsd editor-loop workload ---------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
//
// edit_loop: one in-process serve::Server (default ServerConfig, so one
// analyze worker) and one client in a closed loop over the NDJSON protocol:
// the next request is written only after the previous response line was
// read, and each request is timed from write to response. The edited file
// is the Table-1 uucp-1.04 stand-in (~37k lines). Each cycle sends
//
//   2 analyze-delta  body-only edits of one function each (seeded choice);
//   4 analyze        never-seen 6k-line corpus files (cache misses);
//   4 analyze        files sent before (cache hits).
//
// Checks: every response is ok with exit 0; a hit's bytes equal the miss
// that filled the cache; every analyze-delta response equals an untimed
// cold analyze of the same source in a separate, fresh server.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "constinf/ConstInfer.h"
#include "gen/SynthGen.h"
#include "serve/Protocol.h"
#include "serve/Server.h"

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <istream>
#include <memory>
#include <mutex>
#include <ostream>
#include <random>
#include <sstream>
#include <thread>

using namespace quals;
using namespace perfbench;

namespace {

constexpr unsigned kCorpusLines = 6000;
constexpr unsigned kHitWindow = 8; ///< Recent miss files hits choose from.
/// Cycles checked but not timed: the first few seconds run up to ~2x slower
/// while the process warms up (heap, page mappings).
constexpr unsigned kWarmup = 6;
constexpr const char *kEditedName = "uucp.c";

/// The uucp-1.04 stand-in of the Table 1 suite (bench/BenchUtil.h).
synth::SynthProgram uucpStandIn() {
  synth::SynthParams P = synth::paramsForLines(1006, 36913);
  P.ConstDeclRate = 0.44;
  P.WriterRate = 0.55;
  P.LibraryCallRate = 0.28;
  return synth::generateProgram(P);
}

/// The server's request stream: the client appends lines, the server's
/// reader blocks in underflow() until a line (or end of input) arrives.
class RequestPipe : public std::streambuf {
public:
  void push(const std::string &Line) {
    std::lock_guard<std::mutex> Lock(Mutex);
    Pending += Line;
    Ready.notify_one();
  }
  void close() {
    std::lock_guard<std::mutex> Lock(Mutex);
    Closed = true;
    Ready.notify_one();
  }

protected:
  int_type underflow() override {
    std::unique_lock<std::mutex> Lock(Mutex);
    Ready.wait(Lock, [&] { return !Pending.empty() || Closed; });
    if (Pending.empty())
      return traits_type::eof();
    Current.swap(Pending);
    Pending.clear();
    setg(Current.data(), Current.data(), Current.data() + Current.size());
    return traits_type::to_int_type(Current[0]);
  }

private:
  std::mutex Mutex;
  std::condition_variable Ready;
  std::string Pending;
  bool Closed = false;
  std::string Current; ///< The get area; touched only by the reader.
};

/// The server's response stream; the client blocks in readLine().
class ResponsePipe : public std::streambuf {
public:
  std::string readLine() {
    std::unique_lock<std::mutex> Lock(Mutex);
    size_t Nl;
    Ready.wait(Lock, [&] { return (Nl = Data.find('\n')) != std::string::npos; });
    std::string Line = Data.substr(0, Nl + 1);
    Data.erase(0, Nl + 1);
    return Line;
  }

protected:
  std::streamsize xsputn(const char *S, std::streamsize N) override {
    std::lock_guard<std::mutex> Lock(Mutex);
    Data.append(S, static_cast<size_t>(N));
    if (std::memchr(S, '\n', static_cast<size_t>(N)))
      Ready.notify_one();
    return N;
  }
  int_type overflow(int_type C) override {
    if (traits_type::eq_int_type(C, traits_type::eof()))
      return traits_type::not_eof(C);
    char Ch = traits_type::to_char_type(C);
    xsputn(&Ch, 1);
    return C;
  }

private:
  std::mutex Mutex;
  std::condition_variable Ready;
  std::string Data;
};

/// One server and its one connection, driven as a closed loop.
class Session {
public:
  explicit Session(const serve::ServerConfig &Config)
      : Srv(Config), In(&Requests), Out(&Responses),
        Reader([this] { Exit = Srv.run(In, Out); }) {}
  ~Session() {
    Requests.close();
    if (Reader.joinable())
      Reader.join();
  }
  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  /// Sends one request line and waits for its response; \p Ns is the
  /// client-side latency.
  std::string call(const std::string &Request, uint64_t &Ns) {
    uint64_t T0 = nowNs();
    send(Request);
    std::string Line = receive();
    Ns = nowNs() - T0;
    return Line;
  }
  void send(const std::string &Request) { Requests.push(Request); }
  std::string receive() { return Responses.readLine(); }
  /// Sends `shutdown` and waits for the serving loop to return.
  int shutdown(uint64_t Id) {
    uint64_t Ns;
    call("{\"id\":" + std::to_string(Id) + ",\"method\":\"shutdown\"}\n", Ns);
    Requests.close();
    Reader.join();
    return Exit;
  }

private:
  serve::Server Srv;
  RequestPipe Requests;
  ResponsePipe Responses;
  std::istream In;
  std::ostream Out;
  int Exit = 0;
  std::thread Reader; ///< Last: it runs on every member above.
};

std::string analyzeRequest(uint64_t Id, const char *Method,
                           const std::string &Name, const std::string &Source) {
  std::string R = "{\"id\":" + std::to_string(Id) + ",\"method\":\"" +
                  Method + "\",\"params\":{\"source\":";
  serve::appendJsonString(R, Source);
  R += ",\"name\":";
  serve::appendJsonString(R, Name);
  R += "}}\n";
  return R;
}

/// The response without its `{"id":N` prefix: what must match across ids.
std::string body(const std::string &Response) {
  size_t Comma = Response.find(',');
  return Comma == std::string::npos ? Response : Response.substr(Comma);
}

bool responseOk(const std::string &Response) {
  return body(Response).rfind(",\"ok\":true,\"exit\":0,", 0) == 0;
}

/// The edited file, split at each function's `int loc = n + K;` literal so
/// an edit rewrites exactly one function body and nothing else.
struct EditedFile {
  std::vector<std::string> Pieces; ///< Literals.size() + 1 pieces.
  std::vector<unsigned> Literals;

  explicit EditedFile(const std::string &Source) {
    static const char Marker[] = "\n  int loc = n + ";
    size_t Prev = 0, At;
    while ((At = Source.find(Marker, Prev)) != std::string::npos) {
      size_t Lit = At + sizeof(Marker) - 1;
      size_t End = Source.find(';', Lit);
      Pieces.push_back(Source.substr(Prev, Lit - Prev));
      Literals.push_back(std::stoul(Source.substr(Lit, End - Lit)));
      Prev = End;
    }
    Pieces.push_back(Source.substr(Prev));
  }
  std::string text() const {
    std::string S;
    for (size_t I = 0; I != Literals.size(); ++I)
      S += Pieces[I] + std::to_string(Literals[I]);
    return S + Pieces.back();
  }
};

struct CorpusFile {
  std::string Name, Source, Body;
};

enum class Kind { Delta, Miss, Hit };

struct Sample {
  uint64_t Id;
  Kind K;
  bool Traced;
  uint64_t StartNs, Ns;
};

/// Client-side state of one run: the server, the id counter, the corpus.
struct Client {
  const Options &O;
  Report &R;
  std::unique_ptr<Session> S;
  uint64_t NextId = 0;
  unsigned NextCorpus = 0;
  std::vector<CorpusFile> Recent; ///< Ring of the last kHitWindow misses.
  std::mt19937_64 Rng;

  Client(const Options &O, Report &R) : O(O), R(R), Rng(O.Seed) {}

  std::string send(const std::string &Request, uint64_t &Ns,
                   const char *What) {
    std::string Line = S->call(Request, Ns);
    ++R.Attempted;
    if (!responseOk(Line))
      R.fail(std::string("edit_loop: ") + What + " response not ok: " +
             Line.substr(0, 200));
    return Line;
  }
  uint64_t miss(uint64_t &Ns) {
    unsigned Index = NextCorpus++;
    CorpusFile F;
    F.Name = synth::corpusFileName(Index);
    F.Source = synth::generateProgram(
                   synth::corpusFileParams(O.Seed, Index, kCorpusLines))
                   .Source;
    uint64_t Id = ++NextId;
    F.Body = body(send(analyzeRequest(Id, "analyze", F.Name, F.Source), Ns,
                       "miss"));
    if (Recent.size() < kHitWindow)
      Recent.push_back(std::move(F));
    else
      Recent[Index % kHitWindow] = std::move(F);
    return Id;
  }
  uint64_t hit(uint64_t &Ns) {
    const CorpusFile &F = Recent[Rng() % Recent.size()];
    uint64_t Id = ++NextId;
    std::string Line =
        send(analyzeRequest(Id, "analyze", F.Name, F.Source), Ns, "hit");
    if (body(Line) != F.Body)
      R.fail("edit_loop: hit bytes differ from the miss for " + F.Name);
    return Id;
  }
};

/// Parsed request-log event: service time and per-phase micros.
struct LogEvent {
  double ServiceUs = 0;
  std::vector<std::pair<std::string, double>> Phases;
};

std::map<uint64_t, LogEvent> parseLog(const std::string &Text) {
  std::map<uint64_t, LogEvent> Events;
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    serve::JsonValue V;
    std::string Err;
    if (!serve::parseJson(Line, serve::ProtocolLimits(), V, Err))
      continue;
    const serve::JsonValue *Id = V.find("id");
    const serve::JsonValue *Service = V.find("service_us");
    if (!Id || !Service || Id->isNull())
      continue;
    LogEvent &E = Events[static_cast<uint64_t>(Id->asNumber())];
    E.ServiceUs = Service->asNumber();
    if (const serve::JsonValue *P = V.find("phases"))
      for (const auto &[Name, Us] : P->members())
        E.Phases.push_back({Name, Us.asNumber()});
  }
  return Events;
}

double statsField(const serve::JsonValue &Stats, const char *Group,
                  const char *Field) {
  const serve::JsonValue *G = Stats.find(Group);
  const serve::JsonValue *F = G ? G->find(Field) : nullptr;
  return F ? F->asNumber() : 0;
}

} // namespace

int perfbench::runEditLoop(const Options &O, Report &R) {
  synth::SynthProgram Uucp = uucpStandIn();
  EditedFile File(Uucp.Source);
  if (File.Literals.empty() || File.text() != Uucp.Source) {
    std::fprintf(stderr, "perfbench: edit_loop cannot find edit sites\n");
    return 1;
  }
  {
    // Input facts from one untimed in-process analysis of the edited file.
    FrontEnd F;
    if (!runFrontEnd(F, kEditedName, Uucp.Source, nullptr, -1)) {
      std::fprintf(stderr, "perfbench: edit_loop front end failed\n");
      return 1;
    }
    constinf::ConstInference Inf(F.TU, F.Diags, {});
    Inf.run();
    R.Inputs.push_back({kEditedName,
                        {double(Uucp.LineCount), double(Inf.numQualVars()),
                         double(Inf.numConstraints())}});
  }

  std::ostringstream LogText;
  serve::ServerConfig Config;
  if (O.Trace)
    Config.RequestLogStream = &LogText;

  // Set-up, five times (the last one stays): server construction, the
  // opening analyze that captures the edited file's snapshot, and the
  // first corpus files, which later hits choose from.
  Client D(O, R);
  std::vector<double> SetupS;
  for (unsigned Round = 0; Round != 5; ++Round) {
    if (D.S)
      D.S->shutdown(++D.NextId);
    D.S.reset();
    LogText.str("");
    D.NextCorpus = 0;
    D.Recent.clear();
    // Request latencies only: building requests and corpus files is not
    // set-up the server does.
    uint64_t T0 = nowNs(), Ns;
    D.S = std::make_unique<Session>(Config);
    uint64_t SetupNs = nowNs() - T0;
    D.send(analyzeRequest(++D.NextId, "analyze", kEditedName, Uucp.Source), Ns,
           "opening analyze");
    SetupNs += Ns;
    for (unsigned I = 0; I != 4; ++I) {
      D.miss(Ns);
      SetupNs += Ns;
    }
    SetupS.push_back(SetupNs / 1e9);
  }

  // The closed loop. Cumulative edits: each delta is exactly one function
  // body away from the snapshot the previous request left behind, and its
  // literal is new, so no delta source repeats (none can hit the cache).
  std::vector<Sample> Samples;
  std::vector<std::pair<unsigned, unsigned>> Edits; ///< (site, literal).
  std::vector<std::string> DeltaResponses;
  MetricsRegistry::global().resetValues();
  uint64_t Deadline = 0;
  for (unsigned Cycle = 0; Cycle < kWarmup + 2 || nowNs() < Deadline;
       ++Cycle) {
    if (Cycle == kWarmup)
      Deadline = nowNs() + static_cast<uint64_t>(O.Seconds * 1e9);
    bool Timed = Cycle >= kWarmup;
    bool Tracing = O.Trace && Timed && Cycle % 2 == 1;
    MetricsRegistry::setCollecting(Tracing);
    for (unsigned Half = 0; Half != 2; ++Half) {
      unsigned Site = static_cast<unsigned>(D.Rng() % File.Literals.size());
      unsigned Literal = 1000 + static_cast<unsigned>(Edits.size());
      File.Literals[Site] = Literal;
      Edits.push_back({Site, Literal});
      std::string Request =
          analyzeRequest(++D.NextId, "analyze-delta", kEditedName, File.text());
      Sample Sm{D.NextId, Kind::Delta, Tracing, nowNs(), 0};
      DeltaResponses.push_back(D.send(Request, Sm.Ns, "delta"));
      if (Timed)
        Samples.push_back(Sm);
      for (unsigned I = 0; I != 2; ++I) {
        Sm = {0, Kind::Miss, Tracing, nowNs(), 0};
        Sm.Id = D.miss(Sm.Ns);
        if (Timed)
          Samples.push_back(Sm);
      }
      for (unsigned I = 0; I != 2; ++I) {
        Sm = {0, Kind::Hit, Tracing, nowNs(), 0};
        Sm.Id = D.hit(Sm.Ns);
        if (Timed)
          Samples.push_back(Sm);
      }
    }
    MetricsRegistry::setCollecting(false);
  }
  uint64_t Ns;
  std::string StatsLine = D.S->call(
      "{\"id\":" + std::to_string(++D.NextId) + ",\"method\":\"stats\"}\n", Ns);
  if (D.S->shutdown(++D.NextId) != 0)
    R.fail("edit_loop: the server loop exited non-zero");
  D.S.reset();
  R.PeakRssBytes = peakRssBytes();
  double PeakMb = mib(R.PeakRssBytes);

  // Each delta against a cold analyze of the same source, in a fresh
  // server that never saw an edit (untimed). The server answers in request
  // order at any worker count, so requests go out in batches, one per
  // worker; with this thread and the server's reader that stays within
  // the hardware threads.
  {
    serve::ServerConfig CheckConfig;
    CheckConfig.Jobs =
        std::clamp(std::thread::hardware_concurrency(), 3u, 4u) - 2;
    Session Check(CheckConfig);
    EditedFile Replay(Uucp.Source);
    for (size_t E = 0; E < Edits.size(); E += CheckConfig.Jobs) {
      size_t End = std::min(Edits.size(), E + CheckConfig.Jobs);
      for (size_t I = E; I != End; ++I) {
        Replay.Literals[Edits[I].first] = Edits[I].second;
        Check.send(analyzeRequest(I, "analyze", kEditedName, Replay.text()));
      }
      for (size_t I = E; I != End; ++I)
        if (body(Check.receive()) != body(DeltaResponses[I]))
          R.fail("edit_loop: delta " + std::to_string(I) +
                 " differs from a cold analyze");
    }
    Check.shutdown(Edits.size());
  }

  auto Latencies = [&](Kind K, bool Traced, double Scale) {
    std::vector<double> V;
    for (const Sample &S : Samples)
      if (S.K == K && S.Traced == Traced)
        V.push_back(S.Ns / Scale);
    return V;
  };
  std::vector<double> Delta = Latencies(Kind::Delta, false, 1e6);
  std::vector<double> Miss = Latencies(Kind::Miss, false, 1e6);
  std::vector<double> Hit = Latencies(Kind::Hit, false, 1e3);
  R.named("delta_p50_ms", median(Delta), "ms");
  R.named("delta_p90_ms", quantile(Delta, 0.9), "ms");
  R.named("cold_p50_ms", median(Miss), "ms");
  R.named("cold_p90_ms", quantile(Miss, 0.9), "ms");
  R.named("hit_p50_us", median(Hit), "us");
  R.named("setup_s", median(SetupS), "s");
  R.named("peak_rss_mb", PeakMb, "MB");
  R.named("delta_samples", Delta.size(), "count");
  R.named("cold_samples", Miss.size(), "count");
  R.named("hit_samples", Hit.size(), "count");
  if (!O.Trace) {
    R.Metrics["setup_s"] = median(SetupS);
    R.Metrics["peak_rss_mb"] = PeakMb;
    R.Metrics["op_p50_ms"] = median(Delta);
    return 0;
  }

  // Traced run: rebuild each traced request as spans from the client's
  // latency, the log's service time, and the log's phases.
  std::map<uint64_t, LogEvent> Events = parseLog(LogText.str());
  SpanLog Log;
  double E2ENs = 0, Cycles = 0, TracedDeltas = 0;
  std::vector<double> ProtocolUs;
  std::map<std::string, double> DeltaPhaseUs;
  std::vector<double> CycleTraced, CycleUntraced;
  double CycleNs = 0;
  for (size_t I = 0; I != Samples.size(); ++I) {
    const Sample &S = Samples[I];
    CycleNs += S.Ns;
    if (I % 10 == 9) {
      (S.Traced ? CycleTraced : CycleUntraced).push_back(CycleNs);
      CycleNs = 0;
    }
    if (!S.Traced)
      continue;
    E2ENs += S.Ns;
    auto It = Events.find(S.Id);
    if (It == Events.end()) {
      R.Notes.push_back("request " + std::to_string(S.Id) + " missing from log");
      continue;
    }
    const LogEvent &E = It->second;
    ProtocolUs.push_back(S.Ns / 1e3 - E.ServiceUs);
    int Root = Log.add("serve.request", "serve", -1, 0, S.StartNs, S.Ns);
    int Service = Log.add("serve.service", "serve", Root, 0, S.StartNs,
                          static_cast<uint64_t>(E.ServiceUs * 1e3));
    int Analyze = Service;
    uint64_t At = S.StartNs;
    for (const auto &[Name, Us] : E.Phases)
      if (Name == "serve.analyze")
        Analyze = Log.add(Name, "", Service, 0, At,
                          static_cast<uint64_t>(Us * 1e3));
    for (const auto &[Name, Us] : E.Phases) {
      if (Name == "serve.analyze")
        continue;
      Log.add(Name, phaseLayer(Name), Analyze, 0, At,
              static_cast<uint64_t>(Us * 1e3));
      At += static_cast<uint64_t>(Us * 1e3);
      if (S.K == Kind::Delta)
        DeltaPhaseUs[Name] += Us;
    }
    if (S.K == Kind::Delta)
      ++TracedDeltas;
  }
  Cycles = static_cast<double>(CycleTraced.size());
  reportLayers(Log, "", E2ENs, 0, Cycles, R);
  const std::vector<double> &Facts = R.Inputs.front().second;
  R.Metrics["constinf.vars"] = Facts[1];
  R.Metrics["constinf.constraints"] = Facts[2];
  R.Metrics["constinf.constraints_per_kloc"] = Facts[2] / (Facts[0] / 1000.0);

  serve::JsonValue Stats;
  std::string Err;
  if (!serve::parseJson(StatsLine, serve::ProtocolLimits(), Stats, Err)) {
    R.fail("edit_loop: unreadable stats response: " + Err);
    return 0;
  }
  double Hits = statsField(Stats, "cache", "hits");
  double Misses = statsField(Stats, "cache", "misses");
  double Incremental = statsField(Stats, "delta", "incremental");
  R.Metrics["serve.hit_ratio"] = Hits / (Hits + Misses);
  R.Metrics["serve.delta_incremental_ratio"] =
      Incremental / statsField(Stats, "delta", "requests");
  if (Incremental > 0) {
    R.Metrics["serve.reused_sccs_per_delta"] =
        statsField(Stats, "delta", "reused") / Incremental;
    R.Metrics["serve.dirty_sccs_per_delta"] =
        statsField(Stats, "delta", "dirty_sccs") / Incremental;
  }
  R.Metrics["serve.delta_parse_ms"] = DeltaPhaseUs["parse"] / TracedDeltas / 1e3;
  R.Metrics["serve.delta_cgen_ms"] =
      DeltaPhaseUs["constraint-gen"] / TracedDeltas / 1e3;
  R.Metrics["serve.delta_solve_ms"] = DeltaPhaseUs["solve"] / TracedDeltas / 1e3;
  R.Metrics["serve.protocol_us"] = median(ProtocolUs);
  R.Metrics["trace_overhead"] = median(CycleTraced) / median(CycleUntraced);
  R.Notes.push_back("trace_overhead compares alternating cycles of one "
                    "server; the request log stays on in both");
  if (!O.TraceOut.empty() && !Log.writeChromeTrace(O.TraceOut))
    R.Notes.push_back("could not write " + O.TraceOut);
  return 0;
}
