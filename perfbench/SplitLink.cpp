//===- perfbench/SplitLink.cpp - Separate-compilation workload ------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
//
// split_link: `qualgen --tus 16 --lines 60000 --seed <seed>`. One round
// summarizes every TU (parse, sema, SummaryMode inference, buildSummary,
// serializeSummary) on a ThreadPool of two workers -- on a 4-core runner
// one worker is ~1.7x slower and four are slower again, so two is the
// steady setting -- then deserializes all summaries, links them (default
// LinkOptions) and classifies, in memory. The path is monomorphic: it
// bypasses generalize/instantiate, so poly-only work should not move it.
//
// Checks: every round's sorted linked positions equal the first round's,
// and those equal an untimed whole-program monomorphic run over the
// concatenated TUs (the docs/LINK.md equivalence contract).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "constinf/ConstInfer.h"
#include "gen/SynthGen.h"
#include "link/Linker.h"
#include "link/Qsum.h"
#include "link/SummaryBuilder.h"
#include "support/Hash.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <memory>

using namespace quals;
using namespace perfbench;

namespace {

constexpr unsigned kTus = 16;
constexpr unsigned kLines = 60000;
constexpr unsigned kWorkers = 2;
/// Rounds checked but not timed, while the process warms up (heap, page
/// mappings).
constexpr unsigned kWarmup = 4;

std::string positionLine(std::string_view Fn, int Param, unsigned Depth,
                         constinf::PosClass Class, bool Declared) {
  return std::string(Fn) + " " + std::to_string(Param) + " " +
         std::to_string(Depth) + " " + std::to_string(static_cast<int>(Class)) +
         (Declared ? " declared" : "") + "\n";
}

std::string sortedText(std::vector<std::string> Lines) {
  std::sort(Lines.begin(), Lines.end());
  std::string Text;
  for (const std::string &L : Lines)
    Text += L;
  return Text;
}

struct Round {
  bool Ok = true;
  uint64_t SummarizeNs = 0, LinkNs = 0;
  double TaskBusyNs = 0;
  size_t QsumBytes = 0;
  std::string Positions; ///< Sorted, one line per linked position.
  double TuVars = 0, TuConstraints = 0;
  double SummaryVars = 0, SummaryConstraints = 0;
  unsigned LinkVars = 0, LinkConstraints = 0;
  uint64_t EdgeVisits = 0;
};

Round runRound(const std::vector<synth::SynthProgram> &Programs,
               ThreadPool &Pool, SpanLog *Log) {
  Round Rd;
  std::vector<std::string> Blobs(kTus);
  std::vector<char> TuOk(kTus, 0);
  std::vector<double> BusyNs(kTus, 0), Vars(kTus, 0), Cons(kTus, 0);
  uint64_t T0 = nowNs();
  Pool.parallelForEach(kTus, [&](size_t I) {
    uint64_t TaskStart = nowNs();
    unsigned Track = 1 + static_cast<unsigned>(I);
    std::string Name = synth::tuFileName(static_cast<unsigned>(I));
    {
      Scope Task(Log, "split_link.summarize_tu", "", -1, Track);
      auto F = std::make_unique<FrontEnd>();
      if (!runFrontEnd(*F, Name, Programs[I].Source, Log, Task.id(), Track))
        return;
      std::unique_ptr<constinf::ConstInference> Inf;
      {
        Scope S(Log, "constinf.run", "constinf", Task.id(), Track, true);
        constinf::ConstInference::Options Opts;
        Opts.Polymorphic = false;
        Opts.SummaryMode = true;
        Inf = std::make_unique<constinf::ConstInference>(F->TU, F->Diags, Opts);
        if (!Inf->run())
          return;
      }
      link::TuSummary Sum;
      {
        Scope S(Log, "link.build_summary", "link", Task.id(), Track);
        const std::string &Src = Programs[I].Source;
        Sum = link::buildSummary(*Inf, F->SM, Name,
                                 hashBytes(Src.data(), Src.size()),
                                 link::summaryConfigHash());
      }
      {
        Scope S(Log, "link.serialize", "link", Task.id(), Track);
        Blobs[I] = link::serializeSummary(Sum);
      }
      Vars[I] = Inf->numQualVars();
      Cons[I] = Inf->numConstraints();
      Scope S(Log, "support.teardown", "support", Task.id(), Track);
      Inf.reset();
      F.reset();
    }
    TuOk[I] = 1;
    BusyNs[I] = static_cast<double>(nowNs() - TaskStart);
  });
  uint64_t T1 = nowNs();

  std::vector<link::TuSummary> Wire(kTus);
  link::LinkResult LR;
  std::vector<std::string> Lines;
  {
    Scope S(Log, "link.deserialize", "link");
    for (unsigned I = 0; I != kTus; ++I) {
      std::string Error;
      if (!TuOk[I] ||
          !link::deserializeSummary(
              reinterpret_cast<const uint8_t *>(Blobs[I].data()),
              Blobs[I].size(), Wire[I], Error))
        Rd.Ok = false;
    }
  }
  {
    Scope S(Log, "link.link", "link", -1, 0, true);
    LR = link::linkSummaries(Wire, link::LinkOptions());
  }
  {
    Scope S(Log, "link.classify", "link");
    for (const link::LinkedPos &P : LR.Positions)
      Lines.push_back(positionLine(P.FnName, P.ParamIndex, P.Depth, P.Class,
                                   P.DeclaredConst));
    Rd.Positions = sortedText(std::move(Lines));
  }
  uint64_t T2 = nowNs();

  Rd.Ok = Rd.Ok && LR.LoadOk && LR.LinkOk && LR.SolveOk;
  Rd.SummarizeNs = T1 - T0;
  Rd.LinkNs = T2 - T1;
  for (unsigned I = 0; I != kTus; ++I) {
    Rd.TaskBusyNs += BusyNs[I];
    Rd.QsumBytes += Blobs[I].size();
    Rd.TuVars += Vars[I];
    Rd.TuConstraints += Cons[I];
    Rd.SummaryVars += Wire[I].NumVars;
    Rd.SummaryConstraints += static_cast<double>(Wire[I].Constraints.size());
  }
  Rd.LinkVars = LR.NumVars;
  Rd.LinkConstraints = LR.NumConstraints;
  Rd.EdgeVisits = LR.Stats.EdgeVisits;
  return Rd;
}

/// Whole-program monomorphic inference over the TUs concatenated in index
/// order, rendered like the linked positions; empty on failure.
std::string wholeProgramPositions(
    const std::vector<synth::SynthProgram> &Programs) {
  FrontEnd F;
  for (unsigned I = 0; I != kTus; ++I)
    if (!cfront::parseCSource(F.SM, synth::tuFileName(I), Programs[I].Source,
                              F.Ast, F.Types, F.Idents, F.Diags, F.TU))
      return "";
  cfront::CSema Sema(F.Ast, F.Types, F.Idents, F.Diags);
  if (!Sema.analyze(F.TU))
    return "";
  constinf::ConstInference::Options Opts;
  Opts.Polymorphic = false;
  constinf::ConstInference Inf(F.TU, F.Diags, Opts);
  if (!Inf.run())
    return "";
  std::vector<std::string> Lines;
  for (const constinf::InterestingPos &P : Inf.positions())
    Lines.push_back(positionLine(P.Fn->getName(), P.ParamIndex, P.Depth,
                                 Inf.classify(P), P.DeclaredConst));
  return sortedText(std::move(Lines));
}

} // namespace

int perfbench::runSplitLink(const Options &O, Report &R) {
  std::vector<synth::SynthProgram> Programs =
      synth::generateTuSplit(synth::paramsForLines(O.Seed, kLines), kTus);
  unsigned Workers = std::min(kWorkers, ThreadPool::defaultWorkers());
  ThreadPool Pool(Workers);
  double Lines = 0;
  for (const synth::SynthProgram &P : Programs)
    Lines += P.LineCount;

  // Set-up: the first, cold round, which is the reference for every later
  // one, then the warm-up rounds.
  Round First = runRound(Programs, Pool, nullptr);
  uint64_t SetupNs = First.SummarizeNs + First.LinkNs;
  ++R.Attempted;
  if (!First.Ok) {
    R.fail("split_link: the cold round failed");
    return 1;
  }
  R.Inputs.push_back({"tu_*.c (16 TUs)",
                      {Lines, First.TuVars, First.TuConstraints}});

  SpanLog Log;
  MetricsRegistry::global().resetValues();
  std::vector<double> Untraced, Traced, SummarizeMs, LinkMs;
  double ThreadNs = 0, PoolNs = 0, BusyNs = 0;
  uint64_t Deadline = 0;
  for (unsigned I = 0; I < kWarmup + 2 || nowNs() < Deadline; ++I) {
    if (I == kWarmup)
      Deadline = nowNs() + static_cast<uint64_t>(O.Seconds * 1e9);
    bool Timed = I >= kWarmup;
    bool Tracing = O.Trace && Timed && I % 2 == 1;
    MetricsRegistry::setCollecting(Tracing);
    Round Rd = runRound(Programs, Pool, Tracing ? &Log : nullptr);
    MetricsRegistry::setCollecting(false);
    ++R.Attempted;
    if (!Rd.Ok || Rd.Positions != First.Positions ||
        Rd.QsumBytes != First.QsumBytes) {
      R.fail("split_link: round " + std::to_string(I) +
             " differs from the first");
      continue;
    }
    if (!Timed) {
      SetupNs += Rd.SummarizeNs + Rd.LinkNs;
      continue;
    }
    double RoundMs = (Rd.SummarizeNs + Rd.LinkNs) / 1e6;
    if (!Tracing) {
      Untraced.push_back(RoundMs);
      SummarizeMs.push_back(Rd.SummarizeNs / 1e6);
      LinkMs.push_back(Rd.LinkNs / 1e6);
      continue;
    }
    Traced.push_back(RoundMs);
    PoolNs += static_cast<double>(Workers * Rd.SummarizeNs);
    ThreadNs += static_cast<double>(Workers * Rd.SummarizeNs + Rd.LinkNs);
    BusyNs += Rd.TaskBusyNs;
  }

  R.PeakRssBytes = peakRssBytes();
  double PeakMb = mib(R.PeakRssBytes);
  // The oracle runs after the peak RSS reading.
  ++R.Attempted;
  if (wholeProgramPositions(Programs) != First.Positions)
    R.fail("split_link: linked positions differ from whole-program --mono");

  double SetupS = SetupNs / 1e9;
  R.named("summarize_s", median(SummarizeMs) / 1e3, "s");
  R.named("link_s", median(LinkMs) / 1e3, "s");
  R.named("qsum_mb", mib(static_cast<double>(First.QsumBytes)), "MB");
  R.named("setup_s", SetupS, "s");
  R.named("peak_rss_mb", PeakMb, "MB");
  R.named("round_samples", static_cast<double>(Untraced.size()), "count");
  R.named("pool_workers", Workers, "count");
  if (!O.Trace) {
    R.Metrics["setup_s"] = SetupS;
    R.Metrics["peak_rss_mb"] = PeakMb;
    R.Metrics["op_p50_ms"] = median(Untraced);
    return 0;
  }

  // Thread time: both workers for the summarize stage, the calling thread
  // for the link stage. Worker time outside any task is pool wait.
  double Cycles = static_cast<double>(Traced.size());
  double WaitNs = std::max(0.0, PoolNs - BusyNs);
  reportLayers(Log, "", ThreadNs, WaitNs, Cycles, R);
  auto SpanMs = [&](const char *Name) {
    return static_cast<double>(Log.totalNs(Name)) / Cycles / 1e6;
  };
  R.Metrics["cfront.parse_ns_per_line"] =
      R.Metrics["cfront.parse_ms"] * 1e6 / Lines;
  R.Metrics["constinf.run_ms"] = SpanMs("constinf.run");
  R.Metrics["constinf.vars"] = First.TuVars;
  R.Metrics["constinf.constraints"] = First.TuConstraints;
  R.Metrics["constinf.constraints_per_kloc"] =
      First.TuConstraints / (Lines / 1000.0);
  R.Metrics["constinf.rss_bytes_per_constraint"] =
      R.PeakRssBytes / First.TuConstraints;
  R.Metrics["qual.edge_visits"] = static_cast<double>(First.EdgeVisits);
  R.Metrics["qual.solve_share"] =
      R.Metrics["qual.solve_ms"] / (ThreadNs / Cycles / 1e6);
  R.Metrics["link.build_summary_ms"] = SpanMs("link.build_summary");
  R.Metrics["link.serialize_ms"] = SpanMs("link.serialize");
  R.Metrics["link.deserialize_ms"] = SpanMs("link.deserialize");
  R.Metrics["link.link_ms"] = SpanMs("link.link");
  R.Metrics["link.vars"] = First.LinkVars;
  R.Metrics["link.constraints"] = First.LinkConstraints;
  R.Metrics["link.kept_var_ratio"] = First.SummaryVars / First.TuVars;
  R.Metrics["link.bytes_per_constraint"] =
      static_cast<double>(First.QsumBytes) / First.SummaryConstraints;
  R.Metrics["link.qsum_mb"] = mib(static_cast<double>(First.QsumBytes));
  R.Metrics["support.pool_busy_frac"] = BusyNs / PoolNs;
  R.Metrics["support.pool_wait_ms"] = WaitNs / Cycles / 1e6;
  R.Metrics["support.teardown_ms"] = SpanMs("support.teardown");
  R.Metrics["trace_overhead"] = median(Traced) / median(Untraced);
  if (!O.TraceOut.empty() && !Log.writeChromeTrace(O.TraceOut))
    R.Notes.push_back("could not write " + O.TraceOut);
  return 0;
}
