//===- tests/flow_nonnull_test.cpp - Flow-sensitive nonnull tests ---------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests the Section 6 future-work implementation: per-program-point types
/// with subtyping constraints between them, strong updates dropping the
/// old constraint. Side-by-side with the flow-INsensitive checker where
/// the difference matters.
///
//===----------------------------------------------------------------------===//

#include "apps/FlowNonNull.h"
#include "apps/NonNull.h"
#include "cfront/FrontEnd.h"

#include <gtest/gtest.h>

using namespace quals;
using namespace quals::apps;

namespace {

struct FlowRig : cfront::FrontEnd {
  FlowNonNullChecker Flow;
  NonNullChecker Insensitive;

  bool parse(const std::string &Source) {
    return FrontEnd::parse("flow.c", Source) && analyze();
  }
};

TEST(FlowNonNull, StrongUpdateKillsOldNullness) {
  // The headline example from the Section 6 sketch: a strong update drops
  // the constraint from the old program point.
  FlowRig R;
  ASSERT_TRUE(R.parse(
      "int f(void) { int x; int *p = 0; p = &x; return *p; }"));
  EXPECT_TRUE(R.Flow.analyze(R.TU))
      << (R.Flow.warnings().empty() ? std::string()
                                    : R.Flow.warnings()[0].Message);
  // The flow-INsensitive checker cannot tell the versions apart and warns.
  EXPECT_FALSE(R.Insensitive.analyze(R.TU));
}

TEST(FlowNonNull, NullStillCaughtBeforeTheUpdate) {
  FlowRig R;
  ASSERT_TRUE(R.parse(
      "int f(void) { int x; int *p = 0; int v = *p; p = &x; return v; }"));
  EXPECT_FALSE(R.Flow.analyze(R.TU));
  ASSERT_EQ(R.Flow.warnings().size(), 1u);
}

TEST(FlowNonNull, UninitializedPointerWarns) {
  FlowRig R;
  ASSERT_TRUE(R.parse("int f(void) { int *p; return *p; }"));
  EXPECT_FALSE(R.Flow.analyze(R.TU));
}

TEST(FlowNonNull, BranchJoinCarriesNullness) {
  // One arm assigns null: the join point may be null.
  FlowRig R;
  ASSERT_TRUE(R.parse(
      "int f(int c) { int x; int *p = &x; if (c) p = 0; return *p; }"));
  EXPECT_FALSE(R.Flow.analyze(R.TU));
}

TEST(FlowNonNull, BothArmsSafeIsAccepted) {
  FlowRig R;
  ASSERT_TRUE(R.parse(
      "int f(int c) { int x; int y; int *p = 0;\n"
      "  if (c) p = &x; else p = &y;\n"
      "  return *p; }"));
  EXPECT_TRUE(R.Flow.analyze(R.TU))
      << R.Flow.warnings()[0].Message;
}

TEST(FlowNonNull, LoopBackEdgeCarriesNullness) {
  // The loop body nulls the pointer; the next iteration's dereference must
  // see it through the back edge.
  FlowRig R;
  ASSERT_TRUE(R.parse(
      "int f(int n) { int x; int *p = &x; int t = 0;\n"
      "  while (n--) { t += *p; p = 0; }\n"
      "  return t; }"));
  EXPECT_FALSE(R.Flow.analyze(R.TU));
}

TEST(FlowNonNull, LoopWithReassignmentIsAccepted) {
  FlowRig R;
  ASSERT_TRUE(R.parse(
      "int f(int n) { int x; int *p = &x; int t = 0;\n"
      "  while (n--) { t += *p; p = &x; }\n"
      "  return t; }"));
  EXPECT_TRUE(R.Flow.analyze(R.TU))
      << R.Flow.warnings()[0].Message;
}

TEST(FlowNonNull, NullnessFlowsThroughCopies) {
  FlowRig R;
  ASSERT_TRUE(R.parse(
      "int f(void) { int *a = 0; int *b = a; return *b; }"));
  EXPECT_FALSE(R.Flow.analyze(R.TU));
}

TEST(FlowNonNull, CopyThenStrongUpdateOfSourceIsSafe) {
  // b copies a's null, then a is fixed; b keeps the old nullness but b is
  // never dereferenced -- only a is, after its strong update.
  FlowRig R;
  ASSERT_TRUE(R.parse(
      "int f(void) { int x; int *a = 0; int *b = a; a = &x; return *a; }"));
  EXPECT_TRUE(R.Flow.analyze(R.TU))
      << R.Flow.warnings()[0].Message;
}

TEST(FlowNonNull, ArrowAndSubscriptChecked) {
  FlowRig R;
  ASSERT_TRUE(R.parse(
      "struct s { int v; };\n"
      "int f(void) { struct s *p = 0; int *q = 0;\n"
      "  return p->v + q[1]; }"));
  EXPECT_FALSE(R.Flow.analyze(R.TU));
  EXPECT_EQ(R.Flow.warnings().size(), 2u);
}

TEST(FlowNonNull, ConditionalExpressionMergesArms) {
  FlowRig R;
  ASSERT_TRUE(R.parse(
      "int f(int c) { int x; int *p = &x;\n"
      "  int t = c ? (p = 0, 1) : 2;\n"
      "  return *p + t; }"));
  EXPECT_FALSE(R.Flow.analyze(R.TU));
}

TEST(FlowNonNull, ParametersAssumedNonNullOnEntry) {
  FlowRig R;
  ASSERT_TRUE(R.parse("int f(int *p) { return *p; }"));
  EXPECT_TRUE(R.Flow.analyze(R.TU));
}

} // namespace
