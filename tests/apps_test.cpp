//===- tests/apps_test.cpp - Qualifier application tests ------------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests the non-const qualifier systems built on the framework:
/// binding-time analysis (static/dynamic with the well-formedness rule),
/// taint tracking, and the C nonnull checker -- the applications Sections 1
/// and 5 cite as motivation.
///
//===----------------------------------------------------------------------===//

#include "apps/BindingTime.h"
#include "apps/NonNull.h"
#include "apps/Taint.h"
#include "cfront/FrontEnd.h"

#include <gtest/gtest.h>

using namespace quals;
using namespace quals::apps;

namespace {

//===----------------------------------------------------------------------===//
// Binding-time analysis
//===----------------------------------------------------------------------===//

TEST(BindingTimeTest, UnannotatedProgramIsStatic) {
  BindingTimeAnalysis BTA;
  ASSERT_TRUE(BTA.analyze("let x = 3 in x ni")) << BTA.errors();
  EXPECT_NE(BTA.resultTime(), BindingTime::Dynamic);
}

TEST(BindingTimeTest, DynamicInputForcesDynamicResult) {
  BindingTimeAnalysis BTA;
  ASSERT_TRUE(BTA.analyze(
      "let input = {dynamic} 0 in (fn x. x) input ni"))
      << BTA.errors();
  EXPECT_EQ(BTA.resultTime(), BindingTime::Dynamic);
}

TEST(BindingTimeTest, StaticComputationStaysStaticBesideDynamic) {
  // Only the dynamic half infects its consumers.
  BindingTimeAnalysis BTA;
  ASSERT_TRUE(BTA.analyze(
      "let input = {dynamic} 0 in"
      " let table = 42 in"
      "  table"
      " ni ni"))
      << BTA.errors();
  EXPECT_NE(BTA.resultTime(), BindingTime::Dynamic);
}

TEST(BindingTimeTest, WellFormednessLiftsDynamicOutOfComponents) {
  // A function whose parameter is dynamic cannot itself be static: assert
  // it static and watch the well-formedness rule fire.
  BindingTimeAnalysis BTA;
  EXPECT_FALSE(BTA.analyze(
      "let f = (fn x. x) in"
      " let g = f |{~dynamic} in"
      "  g ({dynamic} 1)"
      " ni ni"));
  EXPECT_NE(BTA.errors().find("dynamic"), std::string::npos);
}

TEST(BindingTimeTest, AssertedStaticSinkRejectsDynamicValue) {
  BindingTimeAnalysis BTA;
  EXPECT_FALSE(BTA.analyze("({dynamic} 3) |{~dynamic}"));
}

TEST(BindingTimeTest, PolymorphicHelperServesBothTimes) {
  // id applied to static and dynamic data: the static use stays static.
  BindingTimeAnalysis BTA;
  ASSERT_TRUE(BTA.analyze(
      "let id = fn x. x in"
      " let s = (id 1) |{~dynamic} in"
      "  let d = id ({dynamic} 2) in"
      "   s"
      "  ni ni ni"))
      << BTA.errors();
}

//===----------------------------------------------------------------------===//
// Taint tracking
//===----------------------------------------------------------------------===//

TEST(TaintTest, CleanProgramHasNoLeaks) {
  TaintAnalysis TA;
  EXPECT_TRUE(TA.analyze("let x = 1 in (x |{~tainted}) ni"))
      << TA.errors();
}

TEST(TaintTest, DirectFlowToSinkReported) {
  TaintAnalysis TA;
  EXPECT_FALSE(TA.analyze(
      "let user_input = {tainted} 7 in (user_input |{~tainted}) ni"));
  ASSERT_EQ(TA.leaks().size(), 1u);
  EXPECT_NE(TA.leaks()[0].find("tainted"), std::string::npos);
}

TEST(TaintTest, FlowThroughFunctionsAndRefs) {
  TaintAnalysis TA;
  EXPECT_FALSE(TA.analyze(
      "let box = ref 0 in"
      " let s = box := ({tainted} 9) in"
      "  ((!box) |{~tainted})"
      " ni ni"));
  EXPECT_EQ(TA.leaks().size(), 1u);
}

TEST(TaintTest, UntaintedBranchDoesNotLeak) {
  TaintAnalysis TA;
  EXPECT_TRUE(TA.analyze(
      "let clean = 3 in"
      " let dirty = {tainted} 4 in"
      "  (clean |{~tainted})"
      " ni ni"))
      << TA.errors();
}

TEST(TaintTest, JoinOfBranchesCarriesTaint) {
  TaintAnalysis TA;
  EXPECT_FALSE(TA.analyze(
      "((if 1 then {tainted} 2 else 3 fi) |{~tainted})"));
}

TEST(TaintTest, MayBeTaintedQueries) {
  TaintAnalysis TA;
  ASSERT_TRUE(TA.analyze("let d = {tainted} 5 in d ni")) << TA.errors();
  EXPECT_TRUE(TA.mayBeTainted(TA.program()));
}

//===----------------------------------------------------------------------===//
// NonNull checking for C
//===----------------------------------------------------------------------===//

struct NullRig : cfront::FrontEnd {
  NonNullChecker Checker;

  bool analyze(const std::string &Source) {
    return parse("null.c", Source) && FrontEnd::analyze() &&
           Checker.analyze(TU);
  }
};

TEST(NonNullTest, CleanPointerUseNoWarnings) {
  NullRig R;
  EXPECT_TRUE(R.analyze(
      "int f(void) { int x; int *p; p = &x; return *p; }"));
  EXPECT_TRUE(R.Checker.warnings().empty());
}

TEST(NonNullTest, NullAssignedThenDereferencedWarns) {
  NullRig R;
  EXPECT_FALSE(R.analyze(
      "int f(void) { int *p; p = 0; return *p; }"));
  ASSERT_EQ(R.Checker.warnings().size(), 1u);
  EXPECT_NE(R.Checker.warnings()[0].Message.find("may be null"),
            std::string::npos);
}

TEST(NonNullTest, NullInitializerWarnsOnArrow) {
  NullRig R;
  EXPECT_FALSE(R.analyze(
      "struct s { int v; };\n"
      "int f(void) { struct s *p = 0; return p->v; }"));
  EXPECT_EQ(R.Checker.warnings().size(), 1u);
}

TEST(NonNullTest, NullnessPropagatesThroughAssignments) {
  NullRig R;
  EXPECT_FALSE(R.analyze(
      "int f(void) { int *a; int *b; a = 0; b = a; return *b; }"));
  EXPECT_EQ(R.Checker.warnings().size(), 1u);
}

TEST(NonNullTest, SubscriptOfMaybeNullWarns) {
  NullRig R;
  EXPECT_FALSE(R.analyze(
      "int f(void) { int *v; v = 0; return v[3]; }"));
  EXPECT_EQ(R.Checker.warnings().size(), 1u);
}

TEST(NonNullTest, UnrelatedNullDoesNotTaintOthers) {
  NullRig R;
  EXPECT_TRUE(R.analyze(
      "int f(void) { int x; int *dead; int *live; dead = 0; live = &x; "
      "return *live; }"));
}

TEST(NonNullTest, MayBeNullQuery) {
  NullRig R;
  EXPECT_FALSE(R.analyze(
      "int g; int *p; int f(void) { p = 0; return *p; }"));
  ASSERT_FALSE(R.TU.GlobalMap.empty());
  EXPECT_TRUE(R.Checker.mayBeNull(R.TU.GlobalMap.at("p")));
}

} // namespace
