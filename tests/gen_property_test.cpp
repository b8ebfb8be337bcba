//===- tests/gen_property_test.cpp - Generator knob monotonicity ----------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property tests tying the generator's knobs to the analysis outcomes the
/// benchmark calibration relies on: raising ConstDeclRate raises the
/// declared count, raising WriterRate raises the pinned (must-non-const)
/// count, and every knob setting still yields a correct (analyzable)
/// program. These are the invariants that make the Table 2 calibration in
/// bench/BenchUtil.h meaningful rather than accidental.
///
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

ConstCounts analyzeCounts(const SynthProgram &Prog, bool Poly) {
  FrontEnd FE;
  EXPECT_TRUE(FE.parse("gen.c", Prog.Source)) << FE.Diags.renderAll();
  EXPECT_TRUE(FE.analyze()) << FE.Diags.renderAll();
  ConstInference::Options Opts;
  Opts.Polymorphic = Poly;
  ConstInference Inf(FE.TU, FE.Diags, Opts);
  EXPECT_TRUE(Inf.run()) << FE.Diags.renderAll();
  return Inf.counts();
}

TEST(GenProperty, ConstDeclRateDrivesDeclaredCount) {
  SynthParams P;
  P.Seed = 11;
  P.NumFunctions = 120;
  unsigned Previous = 0;
  for (double Rate : {0.0, 0.3, 0.6, 0.9}) {
    P.ConstDeclRate = Rate;
    ConstCounts C = analyzeCounts(generateProgram(P), false);
    EXPECT_GE(C.Declared, Previous) << "rate " << Rate;
    Previous = C.Declared;
  }
  EXPECT_GT(Previous, 0u);
}

TEST(GenProperty, ZeroConstRateMeansZeroDeclared) {
  SynthParams P;
  P.Seed = 12;
  P.NumFunctions = 80;
  P.ConstDeclRate = 0.0;
  ConstCounts C = analyzeCounts(generateProgram(P), false);
  EXPECT_EQ(C.Declared, 0u);
  // Even with nothing declared, inference finds const-able positions.
  EXPECT_GT(C.PossibleConst, 0u);
}

TEST(GenProperty, WriterRateDrivesPinnedCount) {
  SynthParams P;
  P.Seed = 13;
  P.NumFunctions = 120;
  P.ConstDeclRate = 0.2;
  double PreviousFrac = -1.0;
  for (double Rate : {0.1, 0.5, 0.9}) {
    P.WriterRate = Rate;
    ConstCounts C = analyzeCounts(generateProgram(P), false);
    double Frac = double(C.MustNonConst) / C.Total;
    EXPECT_GT(Frac, PreviousFrac) << "rate " << Rate;
    PreviousFrac = Frac;
  }
}

TEST(GenProperty, ExtremeKnobsStillYieldCorrectPrograms) {
  for (double Const : {0.0, 1.0})
    for (double Writer : {0.0, 1.0})
      for (double Lib : {0.0, 1.0}) {
        SynthParams P;
        P.Seed = 1000 + unsigned(Const * 4 + Writer * 2 + Lib);
        P.NumFunctions = 60;
        P.ConstDeclRate = Const;
        P.WriterRate = Writer;
        P.LibraryCallRate = Lib;
        P.CastRate = 0.5;
        P.VarargsCallRate = 0.5;
        P.SccRate = 0.3;
        P.IdLikeRate = 0.3;
        ConstCounts C = analyzeCounts(generateProgram(P), true);
        EXPECT_EQ(C.PossibleConst + C.MustNonConst, C.Total);
      }
}

TEST(GenProperty, SuiteSizedProgramsStayInCalibrationBand) {
  // The paper band the calibration targets: Declared <= Mono <= Poly and a
  // poly gain between 2% and 25%.
  SynthParams P = paramsForLines(777, 9000);
  SynthProgram Prog = generateProgram(P);
  ConstCounts Mono = analyzeCounts(Prog, false);
  ConstCounts Poly = analyzeCounts(Prog, true);
  ASSERT_GT(Mono.PossibleConst, 0u);
  EXPECT_LE(Mono.Declared, Mono.PossibleConst);
  EXPECT_LE(Mono.PossibleConst, Poly.PossibleConst);
  double Gain = double(Poly.PossibleConst - Mono.PossibleConst) /
                Mono.PossibleConst;
  EXPECT_GT(Gain, 0.02);
  EXPECT_LT(Gain, 0.25);
}

} // namespace
