//===- tests/lambda_extra_test.cpp - Deeper lambda-language coverage ------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Second-round coverage: annotation/assertion algebra, polymorphism corner
/// cases (nested lets, shadowing, higher-order schemes), evaluator store
/// behaviour, and parameterized sweeps over the qualifier lattice.
///
//===----------------------------------------------------------------------===//

#include "LambdaTestUtil.h"

#include <gtest/gtest.h>

#include <cctype>

using namespace quals;
using namespace quals::lambda;

namespace {

//===----------------------------------------------------------------------===//
// Annotation / assertion algebra
//===----------------------------------------------------------------------===//

/// Sweep: annotating with L then asserting bound B must be accepted iff
/// L <= B in the lattice.
struct AnnotAssertCase {
  const char *Annot;
  const char *Assert;
  bool Accepted;
};

/// The ctest name embeds GetParam(); without this gtest dumps the raw bytes
/// of the string pointers, which move with address-space randomization.
void PrintTo(const AnnotAssertCase &C, std::ostream *OS) {
  *OS << "annot=" << C.Annot << " assert=" << C.Assert
      << " accepted=" << (C.Accepted ? "yes" : "no");
}

class AnnotAssertSweep : public ::testing::TestWithParam<AnnotAssertCase> {};

TEST_P(AnnotAssertSweep, MatchesLatticeOrder) {
  const AnnotAssertCase &C = GetParam();
  Rig R;
  std::string Src = std::string("({") + C.Annot + "} 1) |{" + C.Assert +
                    "}";
  CheckResult Res = R.check(Src);
  ASSERT_TRUE(Res.StdTypeOk) << Src;
  EXPECT_EQ(Res.QualOk, C.Accepted) << Src;

  // The runtime agrees (Figure 5's side conditions mirror the rules).
  Rig R2;
  EvalResult Run = R2.run(Src);
  EXPECT_EQ(Run.Outcome == EvalOutcome::Value, C.Accepted) << Src;
}

INSTANTIATE_TEST_SUITE_P(
    Lattice, AnnotAssertSweep,
    ::testing::Values(
        AnnotAssertCase{"", "", true},              // bottom <= bottom
        AnnotAssertCase{"", "const", true},         // bottom <= const
        AnnotAssertCase{"const", "const", true},
        AnnotAssertCase{"const", "", false},        // const !<= bottom
        AnnotAssertCase{"const", "~const", false},  // const !<= :const
        AnnotAssertCase{"dynamic", "~const", true}, // dynamic <= :const
        AnnotAssertCase{"const dynamic", "const", false},
        AnnotAssertCase{"const dynamic", "~nonzero", true},
        AnnotAssertCase{"nonzero", "", true},       // {nonzero} is bottom
        AnnotAssertCase{"~nonzero", "~nonzero", true},
        AnnotAssertCase{"~nonzero", "nonzero", false}),
    [](const ::testing::TestParamInfo<AnnotAssertCase> &Info) {
      std::string Name = std::string(Info.param.Annot) + "_below_" +
                         Info.param.Assert +
                         (Info.param.Accepted ? "_yes" : "_no");
      for (char &C : Name)
        if (!std::isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });

TEST(LambdaExtra, AnnotationChainsMustClimb) {
  Rig R;
  EXPECT_TRUE(R.check("{const dynamic} {const} {} 1").QualOk);
  Rig R2;
  EXPECT_FALSE(R2.check("{const} {const dynamic} 1").QualOk);
}

TEST(LambdaExtra, AssertionDoesNotChangeTheType) {
  // e|l keeps Q tau: a later assertion still sees the original qualifier.
  Rig R;
  EXPECT_FALSE(R.check("(({const} 1) |{const}) |{~const}").QualOk);
}

TEST(LambdaExtra, AnnotationReplacesTheQualifier) {
  // {l} e retypes at exactly l, so a const-excluding assertion on a
  // re-annotated value checks the *new* qualifier.
  Rig R;
  EXPECT_TRUE(
      R.check("(({const dynamic} ({const} 1)) |{const dynamic})").QualOk);
}

//===----------------------------------------------------------------------===//
// Polymorphism corners
//===----------------------------------------------------------------------===//

TEST(LambdaExtra, NestedLetsGeneralizeIndependently) {
  Rig R;
  CheckResult C = R.check(
      "let outer = fn x. x in"
      " let inner = fn y. outer y in"
      "  let a = inner ({const} 1) in"
      "   (inner 2) |{~const}"
      "  ni ni ni",
      /*Polymorphic=*/true);
  EXPECT_TRUE(C.QualOk) << R.Diags.renderAll();
}

TEST(LambdaExtra, ShadowedNamesResolveInnermost) {
  Rig R;
  CheckResult C = R.check(
      "let f = fn x. {const} 1 in"
      " let f = fn x. x in"
      "  (f 2) |{~const}"
      " ni ni",
      true);
  // The inner f is the identity; 2 is unannotated, so the assert passes.
  EXPECT_TRUE(C.QualOk) << R.Diags.renderAll();
  Rig R2;
  CheckResult C2 = R2.check(
      "let f = fn x. {const} 1 in"
      "  (f 2) |{~const}"
      " ni",
      true);
  EXPECT_FALSE(C2.QualOk);
}

TEST(LambdaExtra, PolymorphicConstFunctionStaysConstEverywhere) {
  // A function that *always* returns const data: every use site sees it.
  Rig R;
  CheckResult C = R.check(
      "let mk = fn x. {const} 5 in"
      " let a = (mk 1) |{const} in"
      "  (mk 2) |{~const}"
      " ni ni",
      true);
  EXPECT_FALSE(C.QualOk);
}

TEST(LambdaExtra, HigherOrderSchemePassing) {
  // apply = fn f. fn x. f x used with both a const-producer and identity.
  Rig R;
  CheckResult C = R.check(
      "let apply = fn f. fn x. f x in"
      " let a = ((apply (fn u. {const} u)) 1) |{const} in"
      "  ((apply (fn v. v)) 2) |{~const}"
      " ni ni",
      true);
  EXPECT_TRUE(C.QualOk) << R.Diags.renderAll();
}

TEST(LambdaExtra, MonoVsPolySweep) {
  // A family of programs where use site K writes and the others read; poly
  // accepts all, mono rejects as soon as there are both kinds of use.
  for (int Reads = 1; Reads <= 3; ++Reads) {
    std::string Src = "let id = fn x. x in let w = id (ref 1) in ";
    for (int I = 0; I != Reads; ++I)
      Src += "let r" + std::to_string(I) + " = id ({const} ref 1) in ";
    Src += "w := 2";
    for (int I = 0; I != Reads + 2; ++I)
      Src += " ni";
    Rig Poly;
    EXPECT_TRUE(Poly.check(Src, true).QualOk) << Src;
    Rig Mono;
    EXPECT_FALSE(Mono.check(Src, false).QualOk) << Src;
  }
}

//===----------------------------------------------------------------------===//
// Evaluator corners
//===----------------------------------------------------------------------===//

TEST(LambdaExtra, StoreCellsAreIndependent) {
  Rig R;
  EvalResult E = R.run(
      "let a = ref 1 in let b = ref 2 in"
      " let s = a := 10 in (!a) ni ni ni");
  ASSERT_EQ(E.Outcome, EvalOutcome::Value);
  EXPECT_EQ(cast<IntLitExpr>(Evaluator::bareValue(E.Result))->getValue(),
            10);
}

TEST(LambdaExtra, RefOfRefWorks) {
  Rig R;
  EvalResult E = R.run(
      "let rr = ref (ref 5) in !(!rr) ni");
  ASSERT_EQ(E.Outcome, EvalOutcome::Value);
  EXPECT_EQ(cast<IntLitExpr>(Evaluator::bareValue(E.Result))->getValue(),
            5);
}

TEST(LambdaExtra, ClosuresCaptureValuesNotCells) {
  // Substitution semantics: x is replaced by the *value* at binding time.
  Rig R;
  EvalResult E = R.run(
      "let x = 1 in"
      " let f = fn y. x in"
      "  let x = 2 in"
      "   f 0"
      "  ni ni ni");
  ASSERT_EQ(E.Outcome, EvalOutcome::Value);
  EXPECT_EQ(cast<IntLitExpr>(Evaluator::bareValue(E.Result))->getValue(),
            1);
}

TEST(LambdaExtra, QualifierSurvivesThroughStore) {
  Rig R;
  EvalResult E = R.run(
      "let c = ref ({const nonzero} 9) in (!c)|{const nonzero} ni");
  ASSERT_EQ(E.Outcome, EvalOutcome::Value);
  Evaluator Ev(R.Ast, R.QS);
  EXPECT_TRUE(R.QS.contains(Ev.valueQual(E.Result), R.Const));
}

TEST(LambdaExtra, AnnotatedFunctionValueChecksAtCallTime) {
  // The function value carries {const}; applying it still works (the
  // qualifier is on the function, not the result).
  Rig R;
  EvalResult E = R.run("({const} (fn x. x)) 3");
  ASSERT_EQ(E.Outcome, EvalOutcome::Value);
  EXPECT_EQ(cast<IntLitExpr>(Evaluator::bareValue(E.Result))->getValue(),
            3);
}

TEST(LambdaExtra, DeepLetNestingEvaluates) {
  std::string Src;
  for (int I = 0; I != 200; ++I)
    Src += "let x" + std::to_string(I) + " = " + std::to_string(I) + " in ";
  Src += "x199";
  for (int I = 0; I != 200; ++I)
    Src += " ni";
  Rig R;
  EvalResult E = R.run(Src);
  ASSERT_EQ(E.Outcome, EvalOutcome::Value);
  EXPECT_EQ(cast<IntLitExpr>(Evaluator::bareValue(E.Result))->getValue(),
            199);
}

TEST(LambdaExtra, ChurchStyleArithmeticRuns) {
  // Higher-order stress: double application without recursion.
  Rig R;
  EvalResult E = R.run(
      "let twice = fn f. fn x. f (f x) in"
      " let inc = fn r. (let s = r := 1 in r ni) in"
      "  let cell = ref 0 in"
      "   let u = (twice inc) cell in !cell"
      "  ni ni ni ni");
  ASSERT_EQ(E.Outcome, EvalOutcome::Value);
  EXPECT_EQ(cast<IntLitExpr>(Evaluator::bareValue(E.Result))->getValue(),
            1);
}

} // namespace
