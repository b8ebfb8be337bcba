//===- bench/link_throughput.cpp - Cross-TU link benchmark ----------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
//
// Measures the separate-compilation pipeline end to end: a qualgen TU
// split is summarized per TU on the thread pool (the `qualcc
// --emit-summary` path, serialize + deserialize included so the bytes on
// the wire are what gets timed), then linked and globally solved. The
// headline numbers are the per-TU summarize throughput and the link time.
//
//   link_throughput [--smoke] [--tus N] [--lines N] [--max-jobs N] [--seed S]
//
// --max-jobs caps the summarize pool's workers. Output is a JSON document
// (checked in as BENCH_link.json):
//
//   {"tus":16,"lines":12000,"summary_bytes":...,"hardware_threads":8,
//    "summarize_seconds":...,"link_seconds":...,"wall_seconds":...,
//    "identical":true}
//
// The run aborts (exit 1) if a reversed summary order changes the linked
// classification -- the full rendered position listing and counts banner:
// a fast link that broke the determinism contract (docs/LINK.md) would be
// a bug, not a result. `--smoke` runs the small configuration as ctest's
// perf.link_smoke gate.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "HostContext.h"

#include "gen/SynthGen.h"
#include "link/Linker.h"
#include "link/Qsum.h"
#include "link/SummaryBuilder.h"
#include "support/Hash.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace quals;

namespace {

/// Renders a link result the way quallink --positions does, so byte
/// comparison across summary orders covers every classification and count.
std::string render(const link::LinkResult &R) {
  std::string Out;
  char Line[256];
  for (const link::LinkedPos &P : R.Positions) {
    std::snprintf(Line, sizeof(Line), "%s param %d depth %u class %d%s\n",
                  P.FnName.c_str(), P.ParamIndex, P.Depth,
                  static_cast<int>(P.Class),
                  P.DeclaredConst ? " [declared]" : "");
    Out += Line;
  }
  std::snprintf(Line, sizeof(Line),
                "declared %u possible-const %u total %u vars %u cons %u\n",
                R.Counts.Declared, R.Counts.PossibleConst, R.Counts.Total,
                R.NumVars, R.NumConstraints);
  Out += Line;
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  unsigned Tus = 16;
  unsigned Lines = 12000;
  unsigned MaxJobs = 4;
  uint64_t Seed = 1009;
  for (int I = 1; I != argc; ++I) {
    if (!std::strcmp(argv[I], "--smoke")) {
      Tus = 4;
      Lines = 1200;
    } else if (!std::strcmp(argv[I], "--tus") && I + 1 < argc)
      Tus = std::strtoul(argv[++I], nullptr, 10);
    else if (!std::strcmp(argv[I], "--lines") && I + 1 < argc)
      Lines = std::strtoul(argv[++I], nullptr, 10);
    else if (!std::strcmp(argv[I], "--max-jobs") && I + 1 < argc)
      MaxJobs = std::strtoul(argv[++I], nullptr, 10);
    else if (!std::strcmp(argv[I], "--seed") && I + 1 < argc)
      Seed = std::strtoull(argv[++I], nullptr, 10);
    else {
      std::fprintf(stderr, "usage: link_throughput [--smoke] [--tus N] "
                           "[--lines N] [--max-jobs N] [--seed S]\n");
      return 1;
    }
  }
  if (Tus == 0 || MaxJobs == 0) {
    std::fprintf(stderr, "link_throughput: nothing to measure\n");
    return 1;
  }

  Timer Wall;
  std::vector<synth::SynthProgram> Programs =
      synth::generateTuSplit(synth::paramsForLines(Seed, Lines), Tus);

  // Per-TU summarize on the pool: front end, summary-mode inference,
  // build, then a serialize/deserialize round trip -- the link inputs are
  // the decoded wire bytes, exactly as quallink sees them.
  ThreadPool Pool(std::min(MaxJobs, ThreadPool::defaultWorkers()));
  std::vector<link::TuSummary> Wire(Tus);
  std::vector<size_t> Bytes(Tus, 0);
  std::vector<bool> SumOk(Tus, false);
  Timer SummarizeT;
  Pool.parallelForEach(Tus, [&](size_t I) {
    std::string Name = synth::tuFileName(static_cast<unsigned>(I));
    auto C = bench::compile(Name, Programs[I].Source);
    if (!C->Ok)
      return;
    constinf::ConstInference::Options Opts;
    Opts.Polymorphic = false; // Summary interfaces are monomorphic.
    Opts.SummaryMode = true;
    constinf::ConstInference Inf(C->TU, *C->Diags, Opts);
    if (!Inf.run())
      return;
    link::TuSummary S = link::buildSummary(
        Inf, C->SM, Name,
        hashBytes(Programs[I].Source.data(), Programs[I].Source.size()),
        link::summaryConfigHash());
    std::string Blob = link::serializeSummary(S);
    Bytes[I] = Blob.size();
    std::string Error;
    SumOk[I] = link::deserializeSummary(
        reinterpret_cast<const uint8_t *>(Blob.data()), Blob.size(), Wire[I],
        Error);
    if (!SumOk[I])
      std::fprintf(stderr, "link_throughput: %s: %s\n", Name.c_str(),
                   Error.c_str());
  });
  double SummarizeSeconds = SummarizeT.seconds();
  size_t TotalBytes = 0;
  for (unsigned I = 0; I != Tus; ++I) {
    if (!SumOk[I]) {
      std::fprintf(stderr, "link_throughput: TU %u failed to summarize\n", I);
      return 1;
    }
    TotalBytes += Bytes[I];
  }

  // The global solve. linkSummaries canonicalizes its input vector in
  // place, so the run gets a fresh copy.
  std::string Baseline;
  double LinkSeconds = 0;
  {
    std::vector<link::TuSummary> Input = Wire;
    Timer T;
    link::LinkResult R = link::linkSummaries(Input, link::LinkOptions());
    LinkSeconds = T.seconds();
    if (!R.LoadOk || !R.LinkOk || !R.SolveOk) {
      std::fprintf(stderr, "link_throughput: link failed:\n");
      for (const std::string &D : R.Diagnostics)
        std::fprintf(stderr, "%s\n", D.c_str());
      return 1;
    }
    Baseline = render(R);
  }

  // Argument-order independence: linking the summaries reversed must
  // produce the same bytes.
  {
    std::vector<link::TuSummary> Reversed(Wire.rbegin(), Wire.rend());
    link::LinkResult R = link::linkSummaries(Reversed, link::LinkOptions());
    if (!R.SolveOk || render(R) != Baseline) {
      std::fprintf(stderr,
                   "link_throughput: reversed summary order changed the "
                   "classification\n");
      return 1;
    }
  }

  // hardware_threads and wall_seconds keep the numbers honest across
  // runners (docs/PARALLEL.md).
  std::printf("{\"tus\":%u,\"lines\":%u,\"summary_bytes\":%zu,"
              "%s\n"
              " \"summarize_seconds\":%.4f,\"link_seconds\":%.4f,\n"
              " \"wall_seconds\":%.4f,\"identical\":true}\n",
              Tus, Lines, TotalBytes, bench::hardwareThreadsJson().c_str(),
              SummarizeSeconds, LinkSeconds, Wall.seconds());
  return 0;
}
