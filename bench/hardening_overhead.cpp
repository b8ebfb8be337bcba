//===- bench/hardening_overhead.cpp - Resource-guard cost microbench -------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark microbenchmarks bounding the price of the hardening
/// layer (support/Limits.h, docs/ROBUSTNESS.md). The guards sit on the
/// parser's hottest recursive paths, so their cost must stay in the noise:
///
/// \li BM_RecursionMeter -- the raw enter/exitRecursion pair, the per-frame
///     tax every guarded parse function pays. Expect ~1ns.
/// \li BM_ParsePipeline -- the full C parse+sema over a generated program
///     under default budgets, the end-to-end number regressions show up in.
/// \li BM_DepthBailout -- hostile 100k-deep input. Bailout must cost one
///     traversal of the input (the lexer sees every byte) and no more;
///     quadratic blowup here means a diagnostics or recovery regression.
///
//===----------------------------------------------------------------------===//

#include "cfront/FrontEnd.h"
#include "gen/SynthGen.h"
#include "support/Diagnostics.h"

#include <benchmark/benchmark.h>

#include <string>

using namespace quals;

namespace {

void BM_RecursionMeter(benchmark::State &State) {
  SourceManager SM;
  DiagnosticEngine Diags(SM);
  for (auto _ : State) {
    RecursionGuard Guard(Diags, SourceLoc());
    benchmark::DoNotOptimize(Guard.ok());
  }
}
BENCHMARK(BM_RecursionMeter);

void BM_ParsePipeline(benchmark::State &State) {
  synth::SynthParams P =
      synth::paramsForLines(1, static_cast<unsigned>(State.range(0)));
  std::string Source = synth::generateProgram(P).Source;
  for (auto _ : State) {
    cfront::FrontEnd FE;
    bool Ok = FE.parse("bench.c", Source) && FE.analyze();
    benchmark::DoNotOptimize(Ok);
  }
  State.SetBytesProcessed(int64_t(State.iterations()) * Source.size());
}
BENCHMARK(BM_ParsePipeline)->Arg(1000)->Arg(4000);

void BM_DepthBailout(benchmark::State &State) {
  const unsigned Depth = static_cast<unsigned>(State.range(0));
  std::string Source = "int f(void) { return ";
  Source.append(Depth, '(');
  Source += "1";
  Source.append(Depth, ')');
  Source += "; }\n";
  for (auto _ : State) {
    cfront::FrontEnd FE;
    bool Ok = FE.parse("deep.c", Source);
    benchmark::DoNotOptimize(Ok);
  }
  State.SetBytesProcessed(int64_t(State.iterations()) * Source.size());
}
BENCHMARK(BM_DepthBailout)->Arg(10000)->Arg(100000);

} // namespace

BENCHMARK_MAIN();
