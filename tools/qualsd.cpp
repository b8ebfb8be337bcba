//===- tools/qualsd.cpp - Persistent analysis daemon -----------------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
//
// The serving-layer artifact of the ROADMAP's north star: where qualcc
// re-pays the full analysis price on every invocation, qualsd stays
// resident, accepts newline-delimited JSON requests on stdin, and answers
// on stdout from a content-addressed result cache -- repeated analysis of
// unchanged inputs costs a hash and a lookup instead of a pipeline run.
//
//   qualsd [options] < requests.ndjson
//   qualsd --listen=/run/qualsd.sock [options]
//
//   --listen=PATH   serve many concurrent clients over the unix-domain
//                   socket PATH instead of stdio. Each connection is an
//                   independent protocol session; `shutdown` from any
//                   client stops the whole daemon (docs/SERVER.md).
//   --cache-mb=N    in-memory result-cache budget in MiB (default 64;
//                   0 disables caching entirely)
//   --request-log=F append one NDJSON event per request to F ('-' =
//                   stderr): timings, cache outcome, per-phase breakdown
//   -jN, --jobs N   analyze requests on N pool workers; responses stay in
//                   request order for every N (docs/PARALLEL.md)
//
// plus the shared observability/limit flags (tools/ToolFlags.h) -- with
// one serving-specific twist: stdout is the response stream, so the
// --metrics report is routed to stderr (never interleaved with protocol
// bytes). The protocol -- analyze / analyze-delta / invalidate / stats /
// metrics / shutdown -- cache keying, and eviction policy are specified in
// docs/SERVER.md (analyze-delta is an alias of analyze); the telemetry
// layer in docs/OBSERVABILITY.md.
//
// Exit status: 0 on clean shutdown or end of input; 1 on bad arguments.
// Per-request analysis failures are reported in responses, never as
// process exit (a hostile request must not take the daemon down).
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"
#include "serve/Transport.h"

#include "ToolFlags.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>

using namespace quals;
using namespace quals::serve;

static const char *kOptionsHelp =
    "  --listen=PATH    accept concurrent clients on the unix-domain socket\n"
    "                   PATH\n"
    "  --cache-mb=N     in-memory result-cache budget in MiB (default 64;\n"
    "                   0 disables caching)\n"
    "  --request-log=F  append one NDJSON event per request to F\n"
    "                   ('-' writes to stderr)\n";

int main(int argc, char **argv) {
  ServerConfig Config;
  ToolFlags Common("qualsd", "< requests.ndjson", kOptionsHelp);
  std::string RequestLogPath;
  std::string ListenPath;

  for (int I = 1; I != argc; ++I) {
    if (Common.parseCommon(argc, argv, I)) {
      if (Common.exitNow())
        return Common.exitStatus();
    } else if (!std::strncmp(argv[I], "--listen=", 9)) {
      ListenPath = argv[I] + 9;
      if (ListenPath.empty())
        return Common.fail("--listen= requires a socket path");
    } else if (!std::strncmp(argv[I], "--cache-mb=", 11)) {
      const char *Digits = argv[I] + 11;
      char *End = nullptr;
      unsigned long long N = std::strtoull(Digits, &End, 10);
      if (*Digits == '\0' || *End != '\0' || N > (1ull << 20))
        return Common.fail(std::string("bad --cache-mb value '") + Digits +
                           "' (want MiB in [0, 1048576])");
      Config.CacheMaxBytes = static_cast<uint64_t>(N) << 20;
    } else if (!std::strncmp(argv[I], "--request-log=", 14)) {
      RequestLogPath = argv[I] + 14;
      if (RequestLogPath.empty())
        return Common.fail("--request-log= requires a file name (or '-')");
    } else {
      return Common.usageError(argv[I]);
    }
  }
  Config.Jobs = Common.jobs();
  Config.Lim = Common.limits();
  // stdout carries the NDJSON response stream; every telemetry artifact
  // (the --metrics report, the request log's '-' sink) goes to stderr so a
  // peer parsing responses can never see a non-protocol line.
  Common.routeMetricsReport(stderr);
  Common.activate();

  std::ofstream LogFile;
  if (!RequestLogPath.empty()) {
    if (RequestLogPath == "-") {
      Config.RequestLogStream = &std::cerr;
    } else {
      LogFile.open(RequestLogPath, std::ios::binary | std::ios::trunc);
      if (!LogFile)
        return Common.fail("cannot open request log '" + RequestLogPath +
                           "'");
      Config.RequestLogStream = &LogFile;
    }
  }

  Server S(Config);
  if (ListenPath.empty())
    return S.run(std::cin, std::cout);

  Transport T(S, ListenPath);
  std::string Error;
  if (!T.open(Error))
    return Common.fail(Error);
  return T.serve();
}
