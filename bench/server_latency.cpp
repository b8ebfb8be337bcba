//===- bench/server_latency.cpp - Request-latency benchmark ---------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
//
// The latency baseline for qualsd's serving story: a sustained mixed
// workload -- cold analyzes, warm cache hits, an analyze-delta edit loop,
// and an invalidate -- is driven through the server three times:
//
//   (1) telemetry on,  -j1: the latency source. Per-method p50/p90/p99 are
//       read from the server.latency.* histograms afterwards.
//   (2) telemetry on,  -jN: the same stream on pool workers; its response
//       bytes must equal pass (1)'s exactly (the determinism contract:
//       telemetry never touches response bytes, at any worker count).
//   (3) telemetry off, -j1: the ablation. Bytes must again be identical,
//       and wall-clock (3) vs (1) bounds what the always-on histograms and
//       request log cost.
//
//   server_latency [--files N] [--lines N] [--edits K] [--jobs N] [--seed S]
//
// Output is a JSON document (checked in as BENCH_latency.json) with the
// per-method latency distributions, the telemetry overhead ratio, and the
// byte-identity verdicts. The run aborts (exit 1) if any pass's response
// stream differs from pass (1)'s, if a histogram's count disagrees with
// the number of requests served, or if the request log dropped an event --
// a latency number for a stream that broke determinism would be a bug, not
// a result. docs/OBSERVABILITY.md and docs/SERVER.md quote the outcome.
//
//===----------------------------------------------------------------------===//

#include "HostContext.h"

#include "gen/SynthGen.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>

using namespace quals;
using namespace quals::serve;

namespace {

/// Functions per call cluster: one shared leaf, three callers, clusters
/// independent. analyze-delta is served by the cold pipeline, so the delta
/// latencies are whole-unit re-analyses of each edited buffer.
constexpr unsigned kClusterSize = 4;

std::string buildEditUnit(unsigned Functions, int EditedFn) {
  std::string Src;
  Src.reserve(Functions * 64);
  char Line[160];
  for (unsigned I = 0; I != Functions; ++I) {
    unsigned Leaf = I - (I % kClusterSize);
    if (I == static_cast<unsigned>(EditedFn)) {
      std::snprintf(Line, sizeof(Line),
                    "int f%u(int **p, int *q) { int *a = *p; int x = *a + *q; "
                    "*q = x; return x + %u; }\n",
                    I, I);
    } else if (I == Leaf) {
      std::snprintf(Line, sizeof(Line),
                    "int f%u(int **p, int *q) { int *a = *p; int x = *a + *q; "
                    "return x + %u; }\n",
                    I, I);
    } else {
      std::snprintf(Line, sizeof(Line),
                    "int f%u(int **p, int *q) { return f%u(p, q) + %u; }\n", I,
                    Leaf, I);
    }
    Src += Line;
  }
  return Src;
}

void appendAnalyze(std::string &Requests, uint64_t Id, const char *Method,
                   const std::string &Source, const std::string &Name) {
  Requests += "{\"id\":" + std::to_string(Id) + ",\"method\":\"" + Method +
              "\",\"params\":{\"source\":";
  appendJsonString(Requests, Source);
  Requests += ",\"name\":";
  appendJsonString(Requests, Name);
  Requests += "}}\n";
}

/// One histogram's numbers, snapshotted before the next pass reuses the
/// process-global registry.
struct LatencySummary {
  uint64_t Count = 0;
  double MeanUs = 0;
  uint64_t P50 = 0, P90 = 0, P99 = 0;
};

LatencySummary summarize(const Histogram &H) {
  LatencySummary S;
  S.Count = H.count();
  S.MeanUs = H.mean();
  S.P50 = H.quantile(0.50);
  S.P90 = H.quantile(0.90);
  S.P99 = H.quantile(0.99);
  return S;
}

void printSummary(const char *Name, const LatencySummary &S, const char *Sep) {
  std::printf("  \"%s\":{\"count\":%llu,\"mean_us\":%.1f,\"p50_us\":%llu,"
              "\"p90_us\":%llu,\"p99_us\":%llu}%s\n",
              Name, static_cast<unsigned long long>(S.Count), S.MeanUs,
              static_cast<unsigned long long>(S.P50),
              static_cast<unsigned long long>(S.P90),
              static_cast<unsigned long long>(S.P99), Sep);
}

} // namespace

int main(int argc, char **argv) {
  unsigned Files = 40;
  unsigned Lines = 200;
  unsigned EditFunctions = 200;
  unsigned Edits = 10;
  unsigned Jobs = 4;
  uint64_t Seed = 1007;
  for (int I = 1; I != argc; ++I) {
    if (!std::strcmp(argv[I], "--files") && I + 1 < argc)
      Files = std::strtoul(argv[++I], nullptr, 10);
    else if (!std::strcmp(argv[I], "--lines") && I + 1 < argc)
      Lines = std::strtoul(argv[++I], nullptr, 10);
    else if (!std::strcmp(argv[I], "--edits") && I + 1 < argc)
      Edits = std::strtoul(argv[++I], nullptr, 10);
    else if (!std::strcmp(argv[I], "--jobs") && I + 1 < argc)
      Jobs = std::strtoul(argv[++I], nullptr, 10);
    else if (!std::strcmp(argv[I], "--seed") && I + 1 < argc)
      Seed = std::strtoull(argv[++I], nullptr, 10);
    else {
      std::fprintf(stderr, "usage: server_latency [--files N] [--lines N] "
                           "[--edits K] [--jobs N] [--seed S]\n");
      return 1;
    }
  }
  EditFunctions -= EditFunctions % kClusterSize;
  unsigned Clusters = EditFunctions / kClusterSize;

  // The mixed stream: cold corpus analyzes, the same corpus again (pure
  // cache hits), an analyze-delta edit loop over one buffer, and a full
  // invalidate. No stats/metrics requests: every response in the stream
  // is a pure function of (source, config), so whole-stream byte
  // comparison across passes is exact.
  std::string Requests;
  uint64_t Id = 0;
  for (unsigned Pass = 0; Pass != 2; ++Pass)
    for (unsigned I = 0; I != Files; ++I) {
      synth::SynthProgram Prog =
          synth::generateProgram(synth::corpusFileParams(Seed, I, Lines));
      appendAnalyze(Requests, ++Id, "analyze", Prog.Source,
                    synth::corpusFileName(I));
    }
  appendAnalyze(Requests, ++Id, "analyze", buildEditUnit(EditFunctions, -1),
                "edit.c");
  for (unsigned E = 0; E != Edits; ++E) {
    unsigned Cluster = (E * 7 + 1) % Clusters;
    appendAnalyze(Requests, ++Id, "analyze-delta",
                  buildEditUnit(EditFunctions,
                                static_cast<int>(Cluster * kClusterSize)),
                  "edit.c");
  }
  Requests += "{\"id\":" + std::to_string(++Id) +
              ",\"method\":\"invalidate\"}\n";
  const uint64_t TotalRequests = Id;
  const uint64_t AnalyzeCount = 2 * static_cast<uint64_t>(Files) + 1;

  // One pass = one fresh server (cold cache) over the same stream.
  auto pass = [&Requests](unsigned PassJobs, bool Telemetry,
                          std::ostream *LogSink, std::string &Responses) {
    ServerConfig Config;
    Config.Jobs = PassJobs;
    Config.Telemetry = Telemetry;
    Config.RequestLogStream = LogSink;
    Server S(Config);
    std::istringstream In(Requests);
    std::ostringstream Out;
    Timer T;
    int Exit = S.run(In, Out);
    double Seconds = T.seconds();
    if (Exit != 0) {
      std::fprintf(stderr, "server_latency: run() exited %d\n", Exit);
      std::exit(1);
    }
    Responses = Out.str();
    return Seconds;
  };

  Timer Wall;
  MetricsRegistry &Reg = MetricsRegistry::global();

  // Pass 1: telemetry on, -j1 -- the latency source.
  Reg.resetValues();
  std::ostringstream Log1;
  std::string Baseline;
  double OnSeconds = pass(1, /*Telemetry=*/true, &Log1, Baseline);
  LatencySummary Analyze = summarize(Reg.histogram("server.latency.analyze"));
  LatencySummary Delta =
      summarize(Reg.histogram("server.latency.analyze-delta"));
  LatencySummary Invalidate =
      summarize(Reg.histogram("server.latency.invalidate"));
  LatencySummary QueueWait = summarize(Reg.histogram("server.queue_wait"));

  // Pass 2: telemetry on, -jN -- must be byte-identical to -j1.
  Reg.resetValues();
  std::ostringstream Log2;
  std::string Parallel;
  pass(Jobs, /*Telemetry=*/true, &Log2, Parallel);

  // Pass 3: telemetry off, -j1 -- the ablation.
  std::string Dark;
  double OffSeconds = pass(1, /*Telemetry=*/false, nullptr, Dark);

  bool Identical = Parallel == Baseline && Dark == Baseline;
  auto countLines = [](const std::string &S) {
    return static_cast<uint64_t>(std::count(S.begin(), S.end(), '\n'));
  };
  uint64_t LogEvents1 = countLines(Log1.str());
  uint64_t LogEvents2 = countLines(Log2.str());
  if (!Identical || Analyze.Count != AnalyzeCount || Delta.Count != Edits ||
      Invalidate.Count != 1 || QueueWait.Count != AnalyzeCount + Edits ||
      LogEvents1 != TotalRequests || LogEvents2 != TotalRequests) {
    std::fprintf(stderr,
                 "server_latency: determinism or accounting violation "
                 "(identical=%d analyze=%llu/%llu delta=%llu/%u "
                 "invalidate=%llu log=%llu,%llu/%llu)\n",
                 Identical, static_cast<unsigned long long>(Analyze.Count),
                 static_cast<unsigned long long>(AnalyzeCount),
                 static_cast<unsigned long long>(Delta.Count), Edits,
                 static_cast<unsigned long long>(Invalidate.Count),
                 static_cast<unsigned long long>(LogEvents1),
                 static_cast<unsigned long long>(LogEvents2),
                 static_cast<unsigned long long>(TotalRequests));
    return 1;
  }

  // Honest-scaling guard: record the runner's parallelism next to any
  // jobs comparison, and flag single-core runners where no cross-worker
  // scaling is observable (docs/PARALLEL.md).
  std::printf("{\"files\":%u,\"lines_per_file\":%u,\"edits\":%u,"
              "\"requests\":%llu,\"jobs_compared\":%u,"
              "%s\n"
              " \"telemetry_on_seconds\":%.4f,\"telemetry_off_seconds\":%.4f,"
              "\"telemetry_overhead\":%.3f,\n"
              " \"request_log_events\":%llu,\"wall_seconds\":%.4f,\n"
              " \"latency_us\":{\n",
              Files, Lines, Edits,
              static_cast<unsigned long long>(TotalRequests), Jobs,
              bench::hardwareThreadsJson().c_str(),
              OnSeconds, OffSeconds,
              OffSeconds > 0 ? OnSeconds / OffSeconds : 0.0,
              static_cast<unsigned long long>(LogEvents1), Wall.seconds());
  printSummary("analyze", Analyze, ",");
  printSummary("analyze-delta", Delta, ",");
  printSummary("invalidate", Invalidate, ",");
  printSummary("queue_wait", QueueWait, "},");
  std::printf(" \"responses_identical\":true}\n");
  return 0;
}
