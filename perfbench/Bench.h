//===- perfbench/Bench.h - Pipeline benchmark shared parts ------*- C++ -*-===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the three pipeline workloads (whole_poly, edit_loop, split_link)
/// share: options, clocks and order statistics, the benchmark's own span
/// log, and the report that becomes the result line.
///
/// Spans are recorded from the benchmark's files only, around each call into
/// a library layer; phases *inside* a call come from the program's existing
/// PhaseCapture (or, on edit_loop, from the request log's "phases"). A
/// layer's self time is its span's duration minus the child spans recorded
/// on the same track, so layer self times add up to what the spans cover,
/// and what they miss shows as unattributed time.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "cfront/CParser.h"
#include "cfront/CSema.h"
#include "support/Metrics.h"

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool Trace = false;
  /// Where a traced run writes its spans (Chrome trace JSON); empty skips.
  std::string TraceOut;
};

uint64_t nowNs();
/// Peak resident set of this process (getrusage), in bytes.
double peakRssBytes();
/// Nearest-rank quantile of \p V (P in [0, 1]); 0 for an empty vector.
double quantile(std::vector<double> V, double P);
inline double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }
inline double mib(double Bytes) { return Bytes / (1024.0 * 1024.0); }

/// The library layer a program phase (PhaseScope name) belongs to; "" for
/// phases that cover work of several layers (serve.analyze).
const char *phaseLayer(const std::string &Phase);

/// In-memory span log, written out once at the end of a traced run.
class SpanLog {
public:
  struct Span {
    std::string Name;
    std::string Layer; ///< "" = not attributed to any layer.
    uint64_t StartNs = 0, EndNs = 0;
    int Parent = -1;
    unsigned Track = 0; ///< Thread or request lane (trace file "tid").
  };

  /// Opens a span on \p Track under \p Parent (-1 for a root).
  int open(const char *Name, const char *Layer, int Parent, unsigned Track);
  void close(int Id);
  /// Records an already measured span, e.g. one PhaseCapture sample.
  int add(std::string Name, std::string Layer, int Parent, unsigned Track,
          uint64_t StartNs, uint64_t DurNs);
  /// Adds the phases \p C captured during span \p Parent as its children,
  /// laid out back to back from the parent's start (PhaseCapture keeps
  /// durations, not start times).
  void addCaptured(int Parent, const quals::PhaseCapture &C);

  /// Summed duration (ns) of every span named \p Name.
  uint64_t totalNs(const std::string &Name) const;
  /// Self time per layer (ns) of the spans under roots named \p Root (all
  /// spans when empty); children on other tracks are not subtracted, since
  /// they ran in parallel.
  std::map<std::string, uint64_t> selfNsByLayer(const std::string &Root) const;
  bool writeChromeTrace(const std::string &Path) const;

private:
  mutable std::mutex Mutex;
  std::vector<Span> Spans;
};

/// RAII span; inert when the log is null (untraced iterations). A span
/// around a single library call also installs a PhaseCapture on this
/// thread, so the phases the call records become its children.
class Scope {
public:
  Scope(SpanLog *Log, const char *Name, const char *Layer, int Parent = -1,
        unsigned Track = 0, bool CapturePhases = false)
      : Log(Log), Id(Log ? Log->open(Name, Layer, Parent, Track) : -1) {
    if (Log && CapturePhases)
      Capture.emplace();
  }
  ~Scope() {
    if (!Log)
      return;
    Log->close(Id);
    if (Capture)
      Log->addCaptured(Id, *Capture);
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;
  int id() const { return Id; }

private:
  SpanLog *Log;
  int Id;
  std::optional<quals::PhaseCapture> Capture;
};

/// Front-end state of one analyzed program, kept alive for its inference.
struct FrontEnd {
  quals::SourceManager SM;
  quals::DiagnosticEngine Diags{SM};
  quals::cfront::CAstContext Ast;
  quals::cfront::CTypeContext Types;
  quals::StringInterner Idents;
  quals::cfront::TranslationUnit TU;
};

/// parseCSource then CSema::analyze under the spans cfront.parse and
/// cfront.sema; false on any front-end error.
bool runFrontEnd(FrontEnd &F, std::string Name, std::string Source,
                 SpanLog *Log, int Parent, unsigned Track = 0);

/// Everything a run reports. main.cpp checks metric names against its
/// copies of BENCHMARK.json's lists, so a typo fails loudly.
struct Report {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Result-line metrics: end-to-end (untraced) or per-layer (traced).
  std::map<std::string, double> Metrics;
  /// The workload's own named metrics (the detail line), with units.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Named;
  /// Input facts: name -> {lines, vars, constraints}.
  std::vector<std::pair<std::string, std::vector<double>>> Inputs;
  std::vector<std::string> Notes;
  /// Peak RSS of the measured work, read before any untimed oracle runs.
  double PeakRssBytes = 0;

  void named(const std::string &Name, double Value, const char *Unit) {
    Named.push_back({Name, {Value, Unit}});
  }
  void fail(const std::string &Why);
};

/// Per-layer figures every workload derives the same way from its spans
/// (see selfNsByLayer for \p Root): self time per layer and per cycle, the
/// share of \p EndToEndNs no layer accounts for, program phase times, and
/// arena bytes. \p ExtraSupportNs is support time no span records (pool
/// wait).
void reportLayers(const SpanLog &Log, const std::string &Root,
                  double EndToEndNs, double ExtraSupportNs, double Cycles,
                  Report &R);

int runWholePoly(const Options &O, Report &R);
int runEditLoop(const Options &O, Report &R);
int runSplitLink(const Options &O, Report &R);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
