//===- tests/synthgen_test.cpp - Synthetic benchmark generator tests ------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//

#include "cfront/FrontEnd.h"
#include "constinf/ConstInfer.h"
#include "gen/SynthGen.h"

#include <gtest/gtest.h>

using namespace quals;
using namespace quals::cfront;
using namespace quals::constinf;
using namespace quals::synth;

namespace {

/// Runs the full pipeline over a generated program.
struct PipelineResult {
  bool ParseOk = false;
  bool SemaOk = false;
  bool InferOk = false;
  ConstCounts Counts;
  std::string Errors;
};

PipelineResult runPipeline(const SynthProgram &Prog, bool Polymorphic) {
  PipelineResult Result;
  FrontEnd FE;
  Result.ParseOk = FE.parse("gen.c", Prog.Source);
  if (!Result.ParseOk) {
    Result.Errors = FE.Diags.renderAll();
    return Result;
  }
  Result.SemaOk = FE.analyze();
  if (!Result.SemaOk) {
    Result.Errors = FE.Diags.renderAll();
    return Result;
  }
  ConstInference::Options Opts;
  Opts.Polymorphic = Polymorphic;
  ConstInference Inf(FE.TU, FE.Diags, Opts);
  Result.InferOk = Inf.run();
  if (!Result.InferOk)
    Result.Errors = FE.Diags.renderAll();
  else
    Result.Counts = Inf.counts();
  return Result;
}

TEST(SynthGen, DeterministicForFixedSeed) {
  SynthParams P;
  P.Seed = 42;
  P.NumFunctions = 30;
  SynthProgram A = generateProgram(P);
  SynthProgram B = generateProgram(P);
  EXPECT_EQ(A.Source, B.Source);
  EXPECT_EQ(A.LineCount, B.LineCount);
}

TEST(SynthGen, DifferentSeedsDiffer) {
  SynthParams P;
  P.NumFunctions = 30;
  P.Seed = 1;
  SynthProgram A = generateProgram(P);
  P.Seed = 2;
  SynthProgram B = generateProgram(P);
  EXPECT_NE(A.Source, B.Source);
}

TEST(SynthGen, ParamsForLinesHitsTarget) {
  for (unsigned Target : {1496u, 5303u, 8741u}) {
    SynthParams P = paramsForLines(/*Seed=*/Target, Target);
    SynthProgram Prog = generateProgram(P);
    EXPECT_GT(Prog.LineCount, Target * 9 / 10) << "target " << Target;
    EXPECT_LT(Prog.LineCount, Target * 11 / 10) << "target " << Target;
  }
}

/// The central property: every generated program is a *correct* C program
/// (parses, type checks, and has consistent const constraints), matching
/// the paper's "all of our benchmarks are correct C programs".
class SynthPipeline : public ::testing::TestWithParam<unsigned> {};

TEST_P(SynthPipeline, GeneratedProgramIsAnalyzableMono) {
  SynthParams P;
  P.Seed = GetParam();
  P.NumFunctions = 40 + GetParam() * 7;
  SynthProgram Prog = generateProgram(P);
  PipelineResult R = runPipeline(Prog, /*Polymorphic=*/false);
  ASSERT_TRUE(R.ParseOk) << R.Errors;
  ASSERT_TRUE(R.SemaOk) << R.Errors;
  ASSERT_TRUE(R.InferOk) << R.Errors;
  EXPECT_GT(R.Counts.Total, 0u);
  EXPECT_GE(R.Counts.PossibleConst, R.Counts.Declared);
}

TEST_P(SynthPipeline, GeneratedProgramIsAnalyzablePoly) {
  SynthParams P;
  P.Seed = GetParam() * 1337 + 11;
  P.NumFunctions = 40 + GetParam() * 7;
  SynthProgram Prog = generateProgram(P);
  PipelineResult R = runPipeline(Prog, /*Polymorphic=*/true);
  ASSERT_TRUE(R.ParseOk) << R.Errors;
  ASSERT_TRUE(R.SemaOk) << R.Errors;
  ASSERT_TRUE(R.InferOk) << R.Errors;
}

TEST_P(SynthPipeline, PolyAllowsAtLeastAsManyConstsAsMono) {
  // The paper's central comparison: Poly >= Mono on every benchmark.
  SynthParams P;
  P.Seed = GetParam() * 7919 + 3;
  P.NumFunctions = 60;
  SynthProgram Prog = generateProgram(P);
  PipelineResult Mono = runPipeline(Prog, false);
  PipelineResult Poly = runPipeline(Prog, true);
  ASSERT_TRUE(Mono.InferOk) << Mono.Errors;
  ASSERT_TRUE(Poly.InferOk) << Poly.Errors;
  EXPECT_EQ(Mono.Counts.Total, Poly.Counts.Total);
  EXPECT_EQ(Mono.Counts.Declared, Poly.Counts.Declared);
  EXPECT_GE(Poly.Counts.PossibleConst, Mono.Counts.PossibleConst);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SynthPipeline,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(SynthGen, InferredExceedsDeclared) {
  // The headline claim: many more consts can be inferred than declared.
  SynthParams P;
  P.Seed = 99;
  P.NumFunctions = 120;
  SynthProgram Prog = generateProgram(P);
  PipelineResult R = runPipeline(Prog, false);
  ASSERT_TRUE(R.InferOk) << R.Errors;
  EXPECT_GT(R.Counts.PossibleConst, R.Counts.Declared);
}

} // namespace
