//===- tests/constraint_test.cpp - Constraint solver unit tests -----------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests the atomic constraint solver of Section 3.1: least/greatest
/// solutions, satisfiability, masked (well-formedness) constraints,
/// incremental solving, and provenance explanations.
///
//===----------------------------------------------------------------------===//

#include "qual/ConstraintSystem.h"

#include <gtest/gtest.h>

#include <memory>

using namespace quals;

namespace {

class ConstraintTest : public ::testing::Test {
protected:
  QualifierSet QS;
  QualifierId Const, Tainted, Nonzero;

  void SetUp() override {
    Const = QS.add("const", Polarity::Positive);
    Tainted = QS.add("tainted", Polarity::Positive);
    Nonzero = QS.add("nonzero", Polarity::Negative);
  }

  QualExpr constOf(LatticeValue V) { return QualExpr::makeConst(V); }
  LatticeValue just(QualifierId Q) { return QS.valueWithPresent({Q}); }
};

TEST_F(ConstraintTest, UnconstrainedVarIsFullyFree) {
  ConstraintSystem Sys(QS);
  QualVarId V = Sys.freshVar();
  EXPECT_TRUE(Sys.solve());
  EXPECT_EQ(Sys.lower(V), QS.bottom());
  EXPECT_EQ(Sys.upper(V), QS.top());
  EXPECT_TRUE(Sys.mayHave(V, Const));
  EXPECT_FALSE(Sys.mustHave(V, Const));
}

TEST_F(ConstraintTest, LowerBoundPropagatesThroughChain) {
  ConstraintSystem Sys(QS);
  QualVarId A = Sys.freshVar(), B = Sys.freshVar(),
            C = Sys.freshVar();
  Sys.addLeq(constOf(just(Const)), QualExpr::makeVar(A), {"decl"});
  Sys.addLeq(QualExpr::makeVar(A), QualExpr::makeVar(B), {"a<=b"});
  Sys.addLeq(QualExpr::makeVar(B), QualExpr::makeVar(C), {"b<=c"});
  ASSERT_TRUE(Sys.solve());
  EXPECT_TRUE(Sys.mustHave(C, Const));
  EXPECT_TRUE(Sys.mustHave(B, Const));
}

TEST_F(ConstraintTest, UpperBoundPropagatesBackwards) {
  ConstraintSystem Sys(QS);
  QualVarId A = Sys.freshVar(), B = Sys.freshVar();
  Sys.addLeq(QualExpr::makeVar(A), QualExpr::makeVar(B), {"a<=b"});
  Sys.addLeq(QualExpr::makeVar(B), constOf(QS.notQual(Const)), {"b!const"});
  ASSERT_TRUE(Sys.solve());
  EXPECT_FALSE(Sys.mayHave(A, Const));
  EXPECT_FALSE(Sys.mayHave(B, Const));
}

TEST_F(ConstraintTest, ConflictingBoundsAreUnsatisfiable) {
  ConstraintSystem Sys(QS);
  QualVarId A = Sys.freshVar();
  Sys.addLeq(constOf(just(Const)), QualExpr::makeVar(A), {"must be const"});
  Sys.addLeq(QualExpr::makeVar(A), constOf(QS.notQual(Const)),
             {"must not be const"});
  EXPECT_FALSE(Sys.isSatisfiable());
  Sys.solve();
  std::vector<Violation> Vs = Sys.collectViolations();
  ASSERT_EQ(Vs.size(), 1u);
  EXPECT_EQ(Vs[0].OffendingBits, QS.bitFor(Const));
}

TEST_F(ConstraintTest, ViolationThroughLongChainIsExplained) {
  ConstraintSystem Sys(QS);
  QualVarId V0 = Sys.freshVar();
  Sys.addLeq(constOf(just(Tainted)), QualExpr::makeVar(V0), {"source"});
  QualVarId Prev = V0;
  for (int I = 1; I != 20; ++I) {
    QualVarId Next = Sys.freshVar();
    Sys.addLeq(QualExpr::makeVar(Prev), QualExpr::makeVar(Next),
               {"hop " + std::to_string(I)});
    Prev = Next;
  }
  Sys.addLeq(QualExpr::makeVar(Prev), constOf(QS.notQual(Tainted)),
             {"sink must be untainted"});
  Sys.solve();
  std::vector<Violation> Vs = Sys.collectViolations();
  ASSERT_EQ(Vs.size(), 1u);
  std::string Explanation = Sys.explain(Vs[0]);
  EXPECT_NE(Explanation.find("sink must be untainted"), std::string::npos);
  EXPECT_NE(Explanation.find("hop 19"), std::string::npos);
  EXPECT_NE(Explanation.find("source"), std::string::npos);
  EXPECT_NE(Explanation.find("tainted"), std::string::npos);
}

TEST_F(ConstraintTest, ReasonsOutliveTheStringsTheyWereBuiltFrom) {
  // An origin only views its reason: the system copies the text, so the
  // caller's string may change or die right after add*(). Two systems
  // interning the same texts keep separate tables.
  auto A = std::make_unique<ConstraintSystem>(QS);
  ConstraintSystem B(QS);
  QualVarId VA = A->freshVar(), VB = B.freshVar();
  {
    std::string Source = "tainted input from " + std::string(32, 'x');
    std::string Sink = "sink must be untainted";
    A->addLeq(constOf(just(Tainted)), QualExpr::makeVar(VA), {Source});
    A->addLeq(QualExpr::makeVar(VA), constOf(QS.notQual(Tainted)), {Sink});
    // B meets the texts in the other order, so they get other ids there.
    B.addLeq(QualExpr::makeVar(VB), constOf(QS.notQual(Tainted)), {Sink});
    B.addLeq(constOf(just(Tainted)), QualExpr::makeVar(VB), {Source});
    Source.assign(Source.size(), '?');
    Sink.assign(Sink.size(), '?');
    // The table is keyed on its own copies: fresh equal text finds the id.
    EXPECT_EQ(A->internReason("tainted input from " + std::string(32, 'x')),
              A->getConstraint(0).Reason);
  }
  EXPECT_NE(A->getConstraint(0).Reason, B.getConstraint(1).Reason);
  EXPECT_EQ(A->getReason(A->getConstraint(0).Reason),
            B.getReason(B.getConstraint(1).Reason));

  auto Explain = [](ConstraintSystem &Sys) {
    Sys.solve();
    std::vector<Violation> Vs = Sys.collectViolations();
    return Vs.size() == 1 ? Sys.explain(Vs[0]) : std::string();
  };
  const std::string Expected =
      "qualifier constraint violated (qualifier 'tainted' not allowed here)\n"
      "  bound: sink must be untainted\n"
      "  via: tainted input from " + std::string(32, 'x') + "\n"
      "  source: qualifier constant 'tainted nonzero'\n";
  EXPECT_EQ(Explain(*A), Expected);
  A.reset();
  EXPECT_EQ(Explain(B), Expected);
}

TEST_F(ConstraintTest, EqualityForcesBothDirections) {
  ConstraintSystem Sys(QS);
  QualVarId A = Sys.freshVar(), B = Sys.freshVar();
  Sys.addEq(QualExpr::makeVar(A), QualExpr::makeVar(B), {"a=b"});
  Sys.addLeq(constOf(just(Const)), QualExpr::makeVar(A), {"const a"});
  ASSERT_TRUE(Sys.solve());
  EXPECT_TRUE(Sys.mustHave(B, Const));
  Sys.addLeq(QualExpr::makeVar(B), constOf(QS.notQual(Const)), {"b !const"});
  EXPECT_FALSE(Sys.isSatisfiable());
}

TEST_F(ConstraintTest, MaskedConstraintOnlyTouchesMaskedComponent) {
  ConstraintSystem Sys(QS);
  QualVarId A = Sys.freshVar(), B = Sys.freshVar();
  // Propagate only the tainted component from a to b.
  Sys.addLeqMasked(QualExpr::makeVar(A), QualExpr::makeVar(B),
                   QS.bitFor(Tainted), {"taint only"});
  Sys.addLeq(constOf(just(Const).join(just(Tainted))), QualExpr::makeVar(A),
             {"a is const+tainted"});
  ASSERT_TRUE(Sys.solve());
  EXPECT_TRUE(Sys.mustHave(B, Tainted));
  EXPECT_FALSE(Sys.mustHave(B, Const)); // const did not cross the mask
}

TEST_F(ConstraintTest, MaskedUpperBoundLeavesOtherComponentsFree) {
  ConstraintSystem Sys(QS);
  QualVarId A = Sys.freshVar();
  Sys.addLeqMasked(QualExpr::makeVar(A), constOf(QS.bottom()),
                   QS.bitFor(Const), {"const forbidden"});
  ASSERT_TRUE(Sys.solve());
  EXPECT_FALSE(Sys.mayHave(A, Const));
  EXPECT_TRUE(Sys.mayHave(A, Tainted));
}

TEST_F(ConstraintTest, ConstConstViolationDetected) {
  ConstraintSystem Sys(QS);
  Sys.addLeq(constOf(just(Const)), constOf(QS.bottom()), {"impossible"});
  Sys.solve();
  EXPECT_EQ(Sys.collectViolations().size(), 1u);
  ConstraintSystem Sys2(QS);
  Sys2.addLeq(constOf(QS.bottom()), constOf(just(Const)), {"fine"});
  EXPECT_TRUE(Sys2.isSatisfiable());
}

TEST_F(ConstraintTest, IncrementalSolveSeesNewConstraints) {
  ConstraintSystem Sys(QS);
  QualVarId A = Sys.freshVar(), B = Sys.freshVar();
  Sys.addLeq(QualExpr::makeVar(A), QualExpr::makeVar(B), {"a<=b"});
  ASSERT_TRUE(Sys.solve());
  EXPECT_FALSE(Sys.mustHave(B, Const));
  // Add a lower bound after the first solve; it must still reach B.
  Sys.addLeq(constOf(just(Const)), QualExpr::makeVar(A), {"late decl"});
  ASSERT_TRUE(Sys.solve());
  EXPECT_TRUE(Sys.mustHave(B, Const));
}

TEST_F(ConstraintTest, IncrementalEdgeAfterLowerBound) {
  ConstraintSystem Sys(QS);
  QualVarId A = Sys.freshVar();
  Sys.addLeq(constOf(just(Const)), QualExpr::makeVar(A), {"decl"});
  ASSERT_TRUE(Sys.solve());
  // New edge added later must pick up A's existing lower bound.
  QualVarId B = Sys.freshVar();
  Sys.addLeq(QualExpr::makeVar(A), QualExpr::makeVar(B), {"late edge"});
  ASSERT_TRUE(Sys.solve());
  EXPECT_TRUE(Sys.mustHave(B, Const));
}

TEST_F(ConstraintTest, IncrementalUpperBoundAfterEdges) {
  ConstraintSystem Sys(QS);
  QualVarId A = Sys.freshVar(), B = Sys.freshVar();
  Sys.addLeq(QualExpr::makeVar(A), QualExpr::makeVar(B), {"a<=b"});
  ASSERT_TRUE(Sys.solve());
  Sys.addLeq(QualExpr::makeVar(B), constOf(QS.notQual(Tainted)),
             {"late bound"});
  ASSERT_TRUE(Sys.solve());
  EXPECT_FALSE(Sys.mayHave(A, Tainted));
}

TEST_F(ConstraintTest, CyclesConverge) {
  ConstraintSystem Sys(QS);
  QualVarId A = Sys.freshVar(), B = Sys.freshVar(),
            C = Sys.freshVar();
  Sys.addLeq(QualExpr::makeVar(A), QualExpr::makeVar(B), {"a<=b"});
  Sys.addLeq(QualExpr::makeVar(B), QualExpr::makeVar(C), {"b<=c"});
  Sys.addLeq(QualExpr::makeVar(C), QualExpr::makeVar(A), {"c<=a"});
  Sys.addLeq(constOf(just(Const)), QualExpr::makeVar(B), {"seed"});
  ASSERT_TRUE(Sys.solve());
  EXPECT_TRUE(Sys.mustHave(A, Const));
  EXPECT_TRUE(Sys.mustHave(B, Const));
  EXPECT_TRUE(Sys.mustHave(C, Const));
}

TEST_F(ConstraintTest, DiamondJoinsBothSources) {
  ConstraintSystem Sys(QS);
  QualVarId S1 = Sys.freshVar(), S2 = Sys.freshVar(),
            T = Sys.freshVar();
  Sys.addLeq(constOf(just(Const)), QualExpr::makeVar(S1), {"c"});
  Sys.addLeq(constOf(just(Tainted)), QualExpr::makeVar(S2), {"t"});
  Sys.addLeq(QualExpr::makeVar(S1), QualExpr::makeVar(T), {"s1<=t"});
  Sys.addLeq(QualExpr::makeVar(S2), QualExpr::makeVar(T), {"s2<=t"});
  ASSERT_TRUE(Sys.solve());
  EXPECT_TRUE(Sys.mustHave(T, Const));
  EXPECT_TRUE(Sys.mustHave(T, Tainted));
}

TEST_F(ConstraintTest, NegativeQualifierMustMayLogic) {
  ConstraintSystem Sys(QS);
  QualVarId A = Sys.freshVar();
  // Unconstrained: may be nonzero (bit clear in lower), but not must.
  ASSERT_TRUE(Sys.solve());
  EXPECT_TRUE(Sys.mayHave(A, Nonzero));
  EXPECT_FALSE(Sys.mustHave(A, Nonzero));
  // Force nonzero present everywhere: upper bound excluding its bit.
  Sys.addLeq(QualExpr::makeVar(A), constOf(LatticeValue(QS.usedBits() &
                                                        ~QS.bitFor(Nonzero))),
             {"always nonzero"});
  ASSERT_TRUE(Sys.solve());
  EXPECT_TRUE(Sys.mustHave(A, Nonzero));
}

TEST_F(ConstraintTest, LargeRandomSystemSolvesAndAgreesWithNaive) {
  // Compare against a naive O(n^2) fixpoint on a pseudo-random DAG.
  ConstraintSystem Sys(QS);
  constexpr unsigned N = 500;
  std::vector<QualVarId> V;
  for (unsigned I = 0; I != N; ++I)
    V.push_back(Sys.freshVar());

  // Deterministic pseudo-random generator (no global state).
  uint64_t State = 12345;
  auto Rand = [&State]() {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    return State >> 33;
  };

  struct Edge {
    unsigned From, To;
  };
  std::vector<Edge> Edges;
  std::vector<uint64_t> Seed(N, 0);
  for (unsigned I = 0; I != 2000; ++I) {
    unsigned A = Rand() % N, B = Rand() % N;
    if (A == B)
      continue;
    Edges.push_back({A, B});
    Sys.addLeq(QualExpr::makeVar(V[A]), QualExpr::makeVar(V[B]), {"edge"});
  }
  for (unsigned I = 0; I != 50; ++I) {
    unsigned A = Rand() % N;
    uint64_t Bits = Rand() % 8;
    Seed[A] |= Bits;
    Sys.addLeq(QualExpr::makeConst(LatticeValue(Bits)),
               QualExpr::makeVar(V[A]), {"seed"});
  }
  ASSERT_TRUE(Sys.solve());

  // Naive fixpoint.
  std::vector<uint64_t> Naive = Seed;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (const Edge &E : Edges) {
      uint64_t New = Naive[E.To] | Naive[E.From];
      if (New != Naive[E.To]) {
        Naive[E.To] = New;
        Changed = true;
      }
    }
  }
  for (unsigned I = 0; I != N; ++I)
    EXPECT_EQ(Sys.lower(V[I]).bits(), Naive[I]) << "var " << I;
}

} // namespace
