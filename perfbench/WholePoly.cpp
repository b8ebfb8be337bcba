//===- perfbench/WholePoly.cpp - Whole-program polymorphic workload -------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
//
// whole_poly: the program `qualgen --lines 200000 --seed <seed>` analyzed
// in-process on one thread, as a closed loop of back-to-back analyses:
// parseCSource -> CSema::analyze -> ConstInference::run ->
// classifiedPositions/countPositions -> renderAnnotatedPrototypes. Poly
// constraint generation (generalize/instantiate) is about half of each
// analysis, so this is where work on constraint records and schemes shows.
//
// Checks: every analysis yields the same counts and prototype bytes as the
// first; Declared <= PossibleConst <= Total; the default seed's counts
// equal the recorded ones; and every position possible-const under one
// untimed monomorphic run stays possible-const under poly.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "constinf/ConstInfer.h"
#include "gen/SynthGen.h"
#include "support/Hash.h"

#include <map>
#include <memory>
#include <tuple>

using namespace quals;
using namespace perfbench;

namespace {

constexpr unsigned kLines = 200000;
/// The default seed (`qualgen --lines 200000 --seed 7`), whose Table-2 counts
/// are recorded below.
constexpr uint64_t kDefaultSeed = 7;
constexpr unsigned kExpectedDeclared = 9026;
constexpr unsigned kExpectedPossibleConst = 29286;
constexpr unsigned kExpectedTotal = 37020;
/// Analyses checked but not timed: the first few after the cold one still
/// run up to ~30% slower while the process warms up (heap, page mappings).
constexpr unsigned kWarmup = 3;

using PosKey = std::tuple<std::string, int, unsigned>;

struct Analysis {
  bool Ok = false;
  uint64_t Ns = 0;         ///< Parse through rendered prototypes.
  uint64_t TeardownNs = 0; ///< Destroying the AST and the inference.
  constinf::ConstCounts Counts;
  uint64_t ProtoHash = 0;
  unsigned Vars = 0, Constraints = 0;
  uint64_t EdgeVisits = 0;
  std::map<PosKey, bool> PossibleConst; ///< Filled when asked for.
};

bool possibleConst(constinf::PosClass C) {
  return C != constinf::PosClass::MustNonConst;
}

Analysis analyze(const std::string &Source, bool Polymorphic, SpanLog *Log,
                 bool KeepPositions) {
  Analysis A;
  std::string Buffer = Source; // The read file a CLI would hand over.
  std::unique_ptr<FrontEnd> F;
  std::unique_ptr<constinf::ConstInference> Inf;
  std::vector<constinf::ClassifiedPos> Positions;
  std::string Protos;
  {
    Scope Root(Log, "whole_poly.analysis", "");
    uint64_t T0 = nowNs();
    F = std::make_unique<FrontEnd>();
    if (!runFrontEnd(*F, "whole_poly.c", std::move(Buffer), Log, Root.id()))
      return A;
    {
      Scope S(Log, "constinf.run", "constinf", Root.id(), 0, true);
      constinf::ConstInference::Options Opts;
      Opts.Polymorphic = Polymorphic;
      Inf = std::make_unique<constinf::ConstInference>(F->TU, F->Diags, Opts);
      if (!Inf->run())
        return A;
    }
    {
      Scope S(Log, "constinf.classify", "constinf", Root.id());
      Positions = Inf->classifiedPositions();
      A.Counts = constinf::countPositions(Positions);
    }
    {
      Scope S(Log, "constinf.render", "constinf", Root.id());
      Protos = constinf::renderAnnotatedPrototypes(Positions);
    }
    A.Ns = nowNs() - T0;
  }
  A.Ok = true;
  A.ProtoHash = hashBytes(Protos.data(), Protos.size());
  A.Vars = Inf->numQualVars();
  A.Constraints = Inf->numConstraints();
  A.EdgeVisits = Inf->solverStats().EdgeVisits;
  if (KeepPositions)
    for (const constinf::ClassifiedPos &P : Positions)
      A.PossibleConst[{std::string(P.Pos.Fn->getName()), P.Pos.ParamIndex,
                       P.Pos.Depth}] = possibleConst(P.Class);
  Scope S(Log, "support.teardown", "support");
  uint64_t T1 = nowNs();
  Inf.reset();
  F.reset();
  A.TeardownNs = nowNs() - T1;
  return A;
}

std::string countsText(const constinf::ConstCounts &C) {
  return "declared " + std::to_string(C.Declared) + ", possible-const " +
         std::to_string(C.PossibleConst) + ", total " + std::to_string(C.Total);
}

} // namespace

int perfbench::runWholePoly(const Options &O, Report &R) {
  synth::SynthProgram Prog =
      synth::generateProgram(synth::paramsForLines(O.Seed, kLines));

  // Set-up: the first, cold analysis, which is also the reference every
  // later analysis must reproduce, then the warm-up analyses.
  Analysis First = analyze(Prog.Source, true, nullptr, true);
  ++R.Attempted;
  if (!First.Ok) {
    R.fail("whole_poly: the cold analysis failed");
    return 1;
  }
  uint64_t SetupNs = First.Ns + First.TeardownNs;
  const constinf::ConstCounts &C = First.Counts;
  if (!(C.Declared <= C.PossibleConst && C.PossibleConst <= C.Total))
    R.fail("whole_poly: counts out of order: " + countsText(C));
  if (O.Seed == kDefaultSeed &&
      (C.Declared != kExpectedDeclared ||
       C.PossibleConst != kExpectedPossibleConst || C.Total != kExpectedTotal))
    R.fail("whole_poly: seed 7 counts changed: " + countsText(C));
  R.Inputs.push_back({"whole_poly.c",
                      {double(Prog.LineCount), double(First.Vars),
                       double(First.Constraints)}});

  SpanLog Log;
  MetricsRegistry::global().resetValues();
  std::vector<double> Untraced, Traced;
  uint64_t Deadline = 0;
  for (unsigned I = 0; I < kWarmup + 2 || nowNs() < Deadline; ++I) {
    if (I == kWarmup)
      Deadline = nowNs() + static_cast<uint64_t>(O.Seconds * 1e9);
    bool Timed = I >= kWarmup;
    bool Tracing = O.Trace && Timed && I % 2 == 1;
    MetricsRegistry::setCollecting(Tracing);
    Analysis A = analyze(Prog.Source, true, Tracing ? &Log : nullptr, false);
    MetricsRegistry::setCollecting(false);
    ++R.Attempted;
    if (!A.Ok || A.ProtoHash != First.ProtoHash ||
        A.Counts.Declared != C.Declared ||
        A.Counts.PossibleConst != C.PossibleConst || A.Counts.Total != C.Total) {
      R.fail("whole_poly: analysis " + std::to_string(I) +
             " differs from the first");
      continue;
    }
    if (Timed)
      (Tracing ? Traced : Untraced).push_back(A.Ns / 1e6);
    else
      SetupNs += A.Ns + A.TeardownNs;
  }
  R.PeakRssBytes = peakRssBytes();
  double PeakMb = mib(R.PeakRssBytes);

  // ROADMAP oracle (c): mono-possible-const positions stay possible-const
  // under poly. One untimed monomorphic run, after the peak RSS reading.
  {
    ++R.Attempted;
    Analysis Mono = analyze(Prog.Source, false, nullptr, true);
    unsigned Lost = 0;
    for (const auto &[Key, Possible] : Mono.PossibleConst) {
      auto It = First.PossibleConst.find(Key);
      if (Possible && (It == First.PossibleConst.end() || !It->second))
        ++Lost;
    }
    if (!Mono.Ok || Lost ||
        Mono.PossibleConst.size() != First.PossibleConst.size())
      R.fail("whole_poly: mono is not contained in poly (" +
             std::to_string(Lost) + " positions lost)");
  }

  double SetupS = SetupNs / 1e9;
  R.named("analyze_s", median(Untraced) / 1e3, "s");
  R.named("analyze_samples", static_cast<double>(Untraced.size()), "count");
  R.named("setup_s", SetupS, "s");
  R.named("peak_rss_mb", PeakMb, "MB");
  if (!O.Trace) {
    R.Metrics["setup_s"] = SetupS;
    R.Metrics["peak_rss_mb"] = PeakMb;
    R.Metrics["op_p50_ms"] = median(Untraced);
    return 0;
  }

  double Cycles = static_cast<double>(Traced.size());
  double E2ENs = static_cast<double>(Log.totalNs("whole_poly.analysis"));
  reportLayers(Log, "whole_poly.analysis", E2ENs, 0, Cycles, R);
  auto SpanMs = [&](const char *Name) {
    return static_cast<double>(Log.totalNs(Name)) / Cycles / 1e6;
  };
  double Kloc = Prog.LineCount / 1000.0;
  R.Metrics["cfront.parse_ns_per_line"] =
      R.Metrics["cfront.parse_ms"] * 1e6 / Prog.LineCount;
  R.Metrics["constinf.run_ms"] = SpanMs("constinf.run");
  R.Metrics["constinf.classify_ms"] = SpanMs("constinf.classify");
  R.Metrics["constinf.render_ms"] = SpanMs("constinf.render");
  R.Metrics["constinf.vars"] = First.Vars;
  R.Metrics["constinf.constraints"] = First.Constraints;
  R.Metrics["constinf.constraints_per_kloc"] = First.Constraints / Kloc;
  R.Metrics["constinf.rss_bytes_per_constraint"] =
      R.PeakRssBytes / First.Constraints;
  R.Metrics["qual.edge_visits"] = static_cast<double>(First.EdgeVisits);
  R.Metrics["qual.solve_share"] =
      R.Metrics["qual.solve_ms"] / (E2ENs / Cycles / 1e6);
  R.Metrics["support.teardown_ms"] = SpanMs("support.teardown");
  R.Metrics["trace_overhead"] = median(Traced) / median(Untraced);
  double Outer = 0;
  for (const char *Name : {"cfront.parse", "cfront.sema", "constinf.run",
                           "constinf.classify", "constinf.render"})
    Outer += static_cast<double>(Log.totalNs(Name));
  R.named("outer_span_frac", Outer / E2ENs, "ratio");
  if (!O.TraceOut.empty() && !Log.writeChromeTrace(O.TraceOut))
    R.Notes.push_back("could not write " + O.TraceOut);
  return 0;
}
