//===- perfbench/Report.cpp - Clocks, spans and layer figures -------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Metrics.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sys/resource.h>

using namespace perfbench;

uint64_t perfbench::nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double perfbench::peakRssBytes() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) * 1024.0; // Linux: kilobytes.
}

double perfbench::quantile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P * V.size()));
  return V[Rank == 0 ? 0 : Rank - 1];
}

const char *perfbench::phaseLayer(const std::string &Phase) {
  if (Phase == "lex" || Phase == "parse" || Phase == "sema")
    return "cfront";
  if (Phase == "ref-types" || Phase == "fdg" || Phase == "constraint-gen")
    return "constinf";
  if (Phase == "solve")
    return "qual";
  if (Phase == "link-merge" || Phase == "link-unify")
    return "link";
  return "";
}

int SpanLog::open(const char *Name, const char *Layer, int Parent,
                  unsigned Track) {
  Span S;
  S.Name = Name;
  S.Layer = Layer;
  S.Parent = Parent;
  S.Track = Track;
  std::lock_guard<std::mutex> Lock(Mutex);
  S.StartNs = nowNs();
  Spans.push_back(std::move(S));
  return static_cast<int>(Spans.size() - 1);
}

void SpanLog::close(int Id) {
  uint64_t End = nowNs();
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans[Id].EndNs = End;
}

int SpanLog::add(std::string Name, std::string Layer, int Parent,
                 unsigned Track, uint64_t StartNs, uint64_t DurNs) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans.push_back(
      {std::move(Name), std::move(Layer), StartNs, StartNs + DurNs, Parent,
       Track});
  return static_cast<int>(Spans.size() - 1);
}

void SpanLog::addCaptured(int Parent, const quals::PhaseCapture &C) {
  uint64_t Start, Track;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Start = Spans[Parent].StartNs;
    Track = Spans[Parent].Track;
  }
  for (const quals::PhaseCapture::Sample &S : C.samples()) {
    add(S.Name, phaseLayer(S.Name), Parent, Track, Start, S.Micros * 1000);
    Start += S.Micros * 1000;
  }
}

uint64_t SpanLog::totalNs(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  uint64_t Sum = 0;
  for (const Span &S : Spans)
    if (S.Name == Name)
      Sum += S.EndNs - S.StartNs;
  return Sum;
}

std::map<std::string, uint64_t>
SpanLog::selfNsByLayer(const std::string &Root) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<int64_t> Self(Spans.size());
  std::vector<size_t> RootOf(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I) {
    Self[I] = static_cast<int64_t>(Spans[I].EndNs - Spans[I].StartNs);
    // Parents are always recorded before their children.
    RootOf[I] = Spans[I].Parent < 0 ? I : RootOf[Spans[I].Parent];
  }
  for (const Span &S : Spans)
    if (S.Parent >= 0 && Spans[S.Parent].Track == S.Track)
      Self[S.Parent] -= static_cast<int64_t>(S.EndNs - S.StartNs);
  std::map<std::string, uint64_t> ByLayer;
  for (size_t I = 0; I != Spans.size(); ++I)
    if (!Spans[I].Layer.empty() && Self[I] > 0 &&
        (Root.empty() || Spans[RootOf[I]].Name == Root))
      ByLayer[Spans[I].Layer] += static_cast<uint64_t>(Self[I]);
  return ByLayer;
}

bool SpanLog::writeChromeTrace(const std::string &Path) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::ofstream Out(Path, std::ios::binary);
  if (!Out)
    return false;
  uint64_t Origin = UINT64_MAX;
  for (const Span &S : Spans)
    Origin = std::min(Origin, S.StartNs);
  Out << "{\"traceEvents\":[\n";
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}",
                  S.Track, (S.StartNs - Origin) / 1e3,
                  (S.EndNs - S.StartNs) / 1e3, I, S.Parent);
    // Span names and layers are fixed identifiers; none needs escaping.
    Out << (I ? ",\n" : "") << "{\"name\":\"" << S.Name << "\",\"cat\":\""
        << (S.Layer.empty() ? "unattributed" : S.Layer) << Buf;
  }
  Out << "\n]}\n";
  return static_cast<bool>(Out);
}

bool perfbench::runFrontEnd(FrontEnd &F, std::string Name,
                            std::string Source, SpanLog *Log, int Parent,
                            unsigned Track) {
  {
    Scope S(Log, "cfront.parse", "cfront", Parent, Track, true);
    if (!quals::cfront::parseCSource(F.SM, std::move(Name), std::move(Source),
                                     F.Ast, F.Types, F.Idents, F.Diags, F.TU))
      return false;
  }
  Scope S(Log, "cfront.sema", "cfront", Parent, Track, true);
  quals::cfront::CSema Sema(F.Ast, F.Types, F.Idents, F.Diags);
  return Sema.analyze(F.TU);
}

void Report::fail(const std::string &Why) {
  ++Failed;
  // Report the first few; a systematic mismatch would repeat per iteration.
  if (Failed <= 5)
    std::fprintf(stderr, "perfbench: check failed: %s\n", Why.c_str());
}

void perfbench::reportLayers(const SpanLog &Log, const std::string &Root,
                             double EndToEndNs, double ExtraSupportNs,
                             double Cycles, Report &R) {
  auto PerCycleMs = [&](double Ns) { return Ns / Cycles / 1e6; };
  std::map<std::string, uint64_t> Self = Log.selfNsByLayer(Root);
  Self["support"] += static_cast<uint64_t>(ExtraSupportNs);
  double Attributed = 0;
  for (const char *Layer :
       {"cfront", "constinf", "qual", "link", "serve", "support"}) {
    double Ns = static_cast<double>(Self[Layer]);
    R.Metrics[std::string(Layer) + ".self_ms"] = PerCycleMs(Ns);
    Attributed += Ns;
  }
  R.Metrics["unattributed_frac"] =
      EndToEndNs > 0 ? 1.0 - Attributed / EndToEndNs : 0.0;

  auto PhaseMs = [&](const char *Phase) {
    return PerCycleMs(static_cast<double>(Log.totalNs(Phase)));
  };
  R.Metrics["cfront.lex_ms"] = PhaseMs("lex");
  R.Metrics["cfront.parse_ms"] = PhaseMs("parse");
  R.Metrics["cfront.sema_ms"] = PhaseMs("sema");
  R.Metrics["constinf.ref_types_ms"] = PhaseMs("ref-types");
  R.Metrics["constinf.fdg_ms"] = PhaseMs("fdg");
  R.Metrics["constinf.cgen_ms"] = PhaseMs("constraint-gen");
  R.Metrics["qual.solve_ms"] = PhaseMs("solve");
  R.Metrics["link.merge_ms"] = PhaseMs("link-merge");
  R.Metrics["link.unify_ms"] = PhaseMs("link-unify");

  // Arena bytes per leaf phase, from the registry's PhaseScope gauges
  // (collected only while traced cycles run).
  quals::MetricsRegistry &Reg = quals::MetricsRegistry::global();
  auto ArenaBytes = [&](const char *Phase) {
    return static_cast<double>(
        Reg.gauge(std::string("phase.") + Phase + ".arena_bytes").value());
  };
  double Front = ArenaBytes("lex") + ArenaBytes("parse") + ArenaBytes("sema");
  double Gen = ArenaBytes("constraint-gen");
  double All = Front + Gen + ArenaBytes("ref-types") + ArenaBytes("fdg") +
               ArenaBytes("solve") + ArenaBytes("link-merge") +
               ArenaBytes("link-unify");
  R.Metrics["cfront.arena_mb"] = mib(Front) / Cycles;
  R.Metrics["constinf.cgen_arena_mb"] = mib(Gen) / Cycles;
  R.Metrics["support.arena_share"] = All / Cycles / R.PeakRssBytes;
}
