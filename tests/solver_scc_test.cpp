//===- tests/solver_scc_test.cpp - Solver tests on <= cycles --------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests the worklist solver on <= cycles (see docs/SOLVER.md): cycle
/// members share one solution, masked cycles equalize only their masked
/// components, provenance explanations walk through a ring, incremental
/// solves that join two existing cycles stay correct, and the per-solve
/// stats reset.
///
//===----------------------------------------------------------------------===//

#include "qual/ConstraintSystem.h"

#include <gtest/gtest.h>

using namespace quals;

namespace {

class SolverSccTest : public ::testing::Test {
protected:
  QualifierSet QS;
  QualifierId Const, Tainted, Nonzero;

  void SetUp() override {
    Const = QS.add("const", Polarity::Positive);
    Tainted = QS.add("tainted", Polarity::Positive);
    Nonzero = QS.add("nonzero", Polarity::Negative);
  }

  QualExpr constOf(LatticeValue V) { return QualExpr::makeConst(V); }
  QualExpr varOf(QualVarId V) { return QualExpr::makeVar(V); }
  LatticeValue just(QualifierId Q) { return QS.valueWithPresent({Q}); }
};

TEST_F(SolverSccTest, CycleMembersShareOneSolution) {
  ConstraintSystem Sys(QS);
  QualVarId A = Sys.freshVar(), B = Sys.freshVar(),
            C = Sys.freshVar();
  Sys.addLeq(varOf(A), varOf(B), {"a<=b"});
  Sys.addLeq(varOf(B), varOf(C), {"b<=c"});
  Sys.addLeq(varOf(C), varOf(A), {"c<=a"});
  Sys.addLeq(constOf(just(Const)), varOf(A), {"seed"});
  Sys.addLeq(varOf(B), constOf(QS.notQual(Tainted)), {"cap"});
  ASSERT_TRUE(Sys.solve());
  for (QualVarId V : {A, B, C}) {
    EXPECT_EQ(Sys.lower(V), just(Const));
    EXPECT_EQ(Sys.upper(V), QS.notQual(Tainted));
    EXPECT_TRUE(Sys.mustHave(V, Const));
    EXPECT_FALSE(Sys.mayHave(V, Tainted));
  }
}

TEST_F(SolverSccTest, MaskedCycleIsNotCollapsed) {
  // a <= b on all components, b <= a only on tainted: not a full cycle, so
  // the solutions stay distinct and const still flows one-way only.
  ConstraintSystem Sys(QS);
  QualVarId A = Sys.freshVar(), B = Sys.freshVar();
  Sys.addLeq(varOf(A), varOf(B), {"a<=b"});
  Sys.addLeqMasked(varOf(B), varOf(A), QS.bitFor(Tainted), {"b<=a taint"});
  Sys.addLeq(constOf(just(Const)), varOf(B), {"const b"});
  Sys.addLeq(constOf(just(Tainted)), varOf(B), {"taint b"});
  ASSERT_TRUE(Sys.solve());
  // const reaches only b; tainted flows back to a through the masked edge.
  EXPECT_FALSE(Sys.mustHave(A, Const));
  EXPECT_TRUE(Sys.mustHave(B, Const));
  EXPECT_TRUE(Sys.mustHave(A, Tainted));
  EXPECT_NE(Sys.lower(A), Sys.lower(B));
}

TEST_F(SolverSccTest, ExplainThroughRing) {
  // source -> ring of 5 -> sink with an upper bound: the offending-bit
  // provenance walks back to "source" through the ring, naming each hop on
  // the shortest carrying path.
  ConstraintSystem Sys(QS);
  QualVarId Src = Sys.freshVar();
  Sys.addLeq(constOf(just(Tainted)), varOf(Src), {"source"});
  std::vector<QualVarId> Ring;
  for (int I = 0; I != 5; ++I)
    Ring.push_back(Sys.freshVar());
  for (int I = 0; I != 5; ++I)
    Sys.addLeq(varOf(Ring[I]), varOf(Ring[(I + 1) % 5]),
               {"ring " + std::to_string(I)});
  Sys.addLeq(varOf(Src), varOf(Ring[2]), {"entry"});
  QualVarId Sink = Sys.freshVar();
  Sys.addLeq(varOf(Ring[4]), varOf(Sink), {"exit"});
  Sys.addLeq(varOf(Sink), constOf(QS.notQual(Tainted)),
             {"sink must be untainted"});
  EXPECT_FALSE(Sys.solve());
  std::vector<Violation> Vs = Sys.collectViolations();
  ASSERT_EQ(Vs.size(), 1u);
  EXPECT_EQ(Vs[0].OffendingBits, QS.bitFor(Tainted));
  std::string Explanation = Sys.explain(Vs[0]);
  EXPECT_NE(Explanation.find("sink must be untainted"), std::string::npos);
  EXPECT_NE(Explanation.find("source"), std::string::npos);
  EXPECT_NE(Explanation.find("tainted"), std::string::npos);
  EXPECT_EQ(Explanation, "qualifier constraint violated (qualifier 'tainted' "
                         "not allowed here)\n"
                         "  bound: sink must be untainted\n"
                         "  via: exit\n"
                         "  via: ring 3\n"
                         "  via: ring 2\n"
                         "  via: entry\n"
                         "  via: source\n"
                         "  source: qualifier constant 'tainted nonzero'\n");
}

TEST_F(SolverSccTest, IncrementalEdgeMergesTwoComponents) {
  // Two separate cycles; later edges connect them into one big cycle. The
  // next solve must propagate across the join and equalize the solutions.
  ConstraintSystem Sys(QS);
  QualVarId A1 = Sys.freshVar(), A2 = Sys.freshVar();
  QualVarId B1 = Sys.freshVar(), B2 = Sys.freshVar();
  Sys.addLeq(varOf(A1), varOf(A2), {"a1<=a2"});
  Sys.addLeq(varOf(A2), varOf(A1), {"a2<=a1"});
  Sys.addLeq(varOf(B1), varOf(B2), {"b1<=b2"});
  Sys.addLeq(varOf(B2), varOf(B1), {"b2<=b1"});
  Sys.addLeq(constOf(just(Const)), varOf(A1), {"const a"});
  ASSERT_TRUE(Sys.solve());
  EXPECT_TRUE(Sys.mustHave(A2, Const));
  EXPECT_FALSE(Sys.mustHave(B1, Const));

  Sys.addLeq(varOf(A2), varOf(B1), {"a->b"});
  Sys.addLeq(varOf(B2), varOf(A1), {"b->a"});
  Sys.addLeq(constOf(just(Tainted)), varOf(B2), {"taint b"});
  ASSERT_TRUE(Sys.solve());
  for (QualVarId V : {A1, A2, B1, B2}) {
    EXPECT_TRUE(Sys.mustHave(V, Const));
    EXPECT_TRUE(Sys.mustHave(V, Tainted));
  }

  // A bound on one former component constrains all of them: nonzero is a
  // negative qualifier, so forcing its bit from below forbids it everywhere
  // on the merged cycle.
  Sys.addLeq(constOf(QS.withoutQual(QS.bottom(), Nonzero)), varOf(B1),
             {"not nonzero"});
  ASSERT_TRUE(Sys.solve());
  EXPECT_FALSE(Sys.mayHave(A1, Nonzero));
}

TEST_F(SolverSccTest, StatsResetPerSolveAndExplicitly) {
  // Stats describe the most recent solve(): a second incremental solve must
  // not report the first solve's propagation work, while snapshot fields
  // (vars, constraints, edges) keep describing the current system.
  ConstraintSystem Sys(QS);
  QualVarId A = Sys.freshVar(), B = Sys.freshVar();
  Sys.addLeq(varOf(A), varOf(B), {"a<=b"});
  Sys.addLeq(constOf(just(Const)), varOf(A), {"seed"});
  ASSERT_TRUE(Sys.solve());
  SolverStats First = Sys.getStats();
  EXPECT_EQ(First.SolveCalls, 1u);
  EXPECT_GE(First.EdgeVisits, 1u);

  // No new constraints: the second solve has nothing to propagate and its
  // stats must say so instead of echoing the first solve's counters.
  ASSERT_TRUE(Sys.solve());
  SolverStats Second = Sys.getStats();
  EXPECT_EQ(Second.SolveCalls, 1u);
  EXPECT_EQ(Second.EdgeVisits, 0u);
  EXPECT_EQ(Second.WorklistPushes, 0u);
  EXPECT_EQ(Second.NumVars, 2u);
  EXPECT_EQ(Second.NumConstraints, 2u);
  EXPECT_EQ(Second.VarVarEdges, 1u);

  // Explicit reset() zeroes a snapshot wholesale.
  First.reset();
  EXPECT_EQ(First.SolveCalls, 0u);
  EXPECT_EQ(First.EdgeVisits, 0u);
  EXPECT_EQ(First.NumVars, 0u);
  EXPECT_EQ(First.SolveSeconds, 0.0);
}

} // namespace
