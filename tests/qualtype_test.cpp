//===- tests/qualtype_test.cpp - Qualified types, subtyping, schemes ------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests Section 2.1's qualified types, Figure 4a's subtyping rules via
/// variance-directed decomposition, Section 3.2's polymorphic constrained
/// types, and the well-formedness closure rules.
///
//===----------------------------------------------------------------------===//

#include "qual/QualType.h"
#include "qual/Subtype.h"
#include "qual/TypeScheme.h"
#include "qual/WellFormed.h"

#include <gtest/gtest.h>

using namespace quals;

namespace {

class QualTypeTest : public ::testing::Test {
protected:
  QualifierSet QS;
  QualifierId Const, Dynamic;
  TypeCtor Int{"int", {}};
  TypeCtor Fn{"->",
              {Variance::Contravariant, Variance::Covariant},
              PrintStyle::Infix};
  TypeCtor Ref{"ref", {Variance::Invariant}};
  QualTypeFactory Factory;

  void SetUp() override {
    Const = QS.add("const", Polarity::Positive);
    Dynamic = QS.add("dynamic", Polarity::Positive);
  }

  QualType intTy(ConstraintSystem &Sys) {
    return Factory.make(QualExpr::makeVar(Sys.freshVar()), &Int);
  }
};

TEST_F(QualTypeTest, MakeAndAccessors) {
  ConstraintSystem Sys(QS);
  QualType I = intTy(Sys);
  QualType R = Factory.make(QualExpr::makeVar(Sys.freshVar()), &Ref, {I});
  EXPECT_EQ(R.getCtor(), &Ref);
  EXPECT_EQ(R.getNumArgs(), 1u);
  EXPECT_EQ(R.getArg(0).getCtor(), &Int);
  EXPECT_TRUE(R.shapeEquals(R));
  EXPECT_FALSE(R.shapeEquals(I));
}

TEST_F(QualTypeTest, SubIntDecomposesToQualifierConstraint) {
  // (SubInt): Q1 <= Q2 implies Q1 int <= Q2 int.
  ConstraintSystem Sys(QS);
  QualType A = intTy(Sys), B = intTy(Sys);
  ASSERT_TRUE(decomposeLeq(Sys, A, B, {"sub"}));
  Sys.addLeq(QualExpr::makeConst(QS.valueWithPresent({Const})), A.getQual(),
             {"a const"});
  ASSERT_TRUE(Sys.solve());
  EXPECT_TRUE(Sys.mustHave(B.getQual().getVar(), Const));
}

TEST_F(QualTypeTest, SubFunIsContravariantInDomain) {
  // (SubFun): Q1 (rho1 -> rho1') <= Q2 (rho2 -> rho2') requires
  // rho2 <= rho1 (contra) and rho1' <= rho2' (co).
  ConstraintSystem Sys(QS);
  QualType P1 = intTy(Sys), R1 = intTy(Sys);
  QualType P2 = intTy(Sys), R2 = intTy(Sys);
  QualType F1 = Factory.make(QualExpr::makeVar(Sys.freshVar()), &Fn,
                             {P1, R1});
  QualType F2 = Factory.make(QualExpr::makeVar(Sys.freshVar()), &Fn,
                             {P2, R2});
  ASSERT_TRUE(decomposeLeq(Sys, F1, F2, {"sub"}));
  // Seed const into P2 (the *supertype's* domain); contravariance sends it
  // into P1.
  Sys.addLeq(QualExpr::makeConst(QS.valueWithPresent({Const})), P2.getQual(),
             {"p2 const"});
  // Seed const into R1; covariance sends it into R2.
  Sys.addLeq(QualExpr::makeConst(QS.valueWithPresent({Const})), R1.getQual(),
             {"r1 const"});
  ASSERT_TRUE(Sys.solve());
  EXPECT_TRUE(Sys.mustHave(P1.getQual().getVar(), Const));
  EXPECT_FALSE(Sys.mustHave(P2.getQual().getVar(), Const) &&
               Sys.mustHave(R1.getQual().getVar(), Const) &&
               !Sys.mustHave(R2.getQual().getVar(), Const));
  EXPECT_TRUE(Sys.mustHave(R2.getQual().getVar(), Const));
}

TEST_F(QualTypeTest, SubRefForcesEqualityOfContents) {
  // (SubRef): ref contents must be *equal*, not merely subtyped -- the fix
  // for the unsound rule discussed in Section 2.4.
  ConstraintSystem Sys(QS);
  QualType C1 = intTy(Sys), C2 = intTy(Sys);
  QualType R1 = Factory.make(QualExpr::makeVar(Sys.freshVar()), &Ref,
                             {C1});
  QualType R2 = Factory.make(QualExpr::makeVar(Sys.freshVar()), &Ref,
                             {C2});
  ASSERT_TRUE(decomposeLeq(Sys, R1, R2, {"sub"}));
  // Const flows in *both* directions between the contents.
  Sys.addLeq(QualExpr::makeConst(QS.valueWithPresent({Const})), C2.getQual(),
             {"c2 const"});
  ASSERT_TRUE(Sys.solve());
  EXPECT_TRUE(Sys.mustHave(C1.getQual().getVar(), Const));
}

TEST_F(QualTypeTest, MismatchedShapesRejected) {
  ConstraintSystem Sys(QS);
  QualType I = intTy(Sys);
  QualType R = Factory.make(QualExpr::makeVar(Sys.freshVar()), &Ref, {I});
  EXPECT_FALSE(decomposeLeq(Sys, I, R, {"bad"}));
}

TEST_F(QualTypeTest, SpreadCreatesFreshVariablesEverywhere) {
  ConstraintSystem Sys(QS);
  QualType I = intTy(Sys);
  QualType F = Factory.make(QualExpr::makeVar(Sys.freshVar()), &Fn,
                            {I, I});
  unsigned Before = Sys.getNumVars();
  QualType Spread = Factory.spread(Sys, F);
  EXPECT_EQ(Sys.getNumVars(), Before + 3); // one per level
  EXPECT_TRUE(Spread.shapeEquals(F));
  EXPECT_NE(Spread.getQual().getVar(), F.getQual().getVar());
}

TEST_F(QualTypeTest, SubstituteRemapsOnlyMappedVars) {
  ConstraintSystem Sys(QS);
  QualVarId A = Sys.freshVar(), B = Sys.freshVar(),
            C = Sys.freshVar();
  QualType I = Factory.make(QualExpr::makeVar(A), &Int);
  QualType F = Factory.make(QualExpr::makeVar(B), &Fn, {I, I});
  QualType Out = Factory.substitute(F, [&](QualVarId V) {
    return QualExpr::makeVar(V == A ? C : V);
  });
  EXPECT_EQ(Out.getQual().getVar(), B);
  EXPECT_EQ(Out.getArg(0).getQual().getVar(), C);
  EXPECT_EQ(Out.getArg(1).getQual().getVar(), C);
}

TEST_F(QualTypeTest, ToStringShowsQualifiersAndStructure) {
  ConstraintSystem Sys(QS);
  QualType I = Factory.make(
      QualExpr::makeConst(QS.valueWithPresent({Const})), &Int);
  QualType R = Factory.make(QualExpr::makeConst(QS.bottom()), &Ref, {I});
  EXPECT_EQ(toString(QS, R), "ref(const int)");
  QualType F = Factory.make(QualExpr::makeConst(QS.bottom()), &Fn, {I, I});
  EXPECT_EQ(toString(QS, F), "(const int -> const int)");
}

//===----------------------------------------------------------------------===//
// Polymorphic schemes (Section 3.2)
//===----------------------------------------------------------------------===//

TEST_F(QualTypeTest, GeneralizeBindsPostWatermarkVars) {
  ConstraintSystem Sys(QS);
  QualVarId EnvVar = Sys.freshVar();
  (void)EnvVar;
  Watermark Mark = takeWatermark(Sys);
  QualType I = intTy(Sys);
  QualScheme S = QualScheme::generalize(Sys, I, Mark);
  EXPECT_TRUE(S.isPolymorphic());
  EXPECT_EQ(S.getNumBoundVars(), 1u);
  EXPECT_TRUE(S.isBound(I.getQual().getVar()));
  EXPECT_FALSE(S.isBound(0));
}

TEST_F(QualTypeTest, InstantiateCreatesIndependentCopies) {
  // The paper's id example: forall k. k int -> k int applied at const and
  // non-const without interference.
  ConstraintSystem Sys(QS);
  Watermark Mark = takeWatermark(Sys);
  QualVarId K = Sys.freshVar();
  QualType I = Factory.make(QualExpr::makeVar(K), &Int);
  QualType IdTy = Factory.make(QualExpr::makeVar(Sys.freshVar()), &Fn,
                               {I, I});
  QualScheme S = QualScheme::generalize(Sys, IdTy, Mark);

  QualType Use1 = S.instantiate(Sys, Factory);
  QualType Use2 = S.instantiate(Sys, Factory);
  // Force const on instance 1's parameter only.
  Sys.addLeq(QualExpr::makeConst(QS.valueWithPresent({Const})),
             Use1.getArg(0).getQual(), {"use1 const"});
  Sys.addLeq(Use2.getArg(0).getQual(),
             QualExpr::makeConst(QS.notQual(Const)), {"use2 not const"});
  EXPECT_TRUE(Sys.isSatisfiable()); // poly: no interference
  // Within instance 1, param and result share the same fresh variable.
  EXPECT_EQ(Use1.getArg(0).getQual().getVar(),
            Use1.getArg(1).getQual().getVar());
  EXPECT_NE(Use1.getArg(0).getQual().getVar(),
            Use2.getArg(0).getQual().getVar());
}

TEST_F(QualTypeTest, MonomorphicSchemeSharesVariables) {
  // Without generalization the same variables are shared, so the two uses
  // above become inconsistent -- this is exactly the mono-vs-poly
  // difference the paper's experiment measures.
  ConstraintSystem Sys(QS);
  QualVarId K = Sys.freshVar();
  QualType I = Factory.make(QualExpr::makeVar(K), &Int);
  QualType IdTy = Factory.make(QualExpr::makeVar(Sys.freshVar()), &Fn,
                               {I, I});
  QualScheme S = QualScheme::monomorphic(IdTy);
  QualType Use1 = S.instantiate(Sys, Factory);
  QualType Use2 = S.instantiate(Sys, Factory);
  Sys.addLeq(QualExpr::makeConst(QS.valueWithPresent({Const})),
             Use1.getArg(0).getQual(), {"use1 const"});
  Sys.addLeq(Use2.getArg(0).getQual(),
             QualExpr::makeConst(QS.notQual(Const)), {"use2 not const"});
  EXPECT_FALSE(Sys.isSatisfiable());
}

TEST_F(QualTypeTest, CannedConstraintsReplayPerInstance) {
  // A scheme whose body variable is bounded below by const: every instance
  // must inherit the bound.
  ConstraintSystem Sys(QS);
  Watermark Mark = takeWatermark(Sys);
  QualVarId K = Sys.freshVar();
  Sys.addLeq(QualExpr::makeConst(QS.valueWithPresent({Const})),
             QualExpr::makeVar(K), {"k is const"});
  QualType I = Factory.make(QualExpr::makeVar(K), &Int);
  QualScheme S = QualScheme::generalize(Sys, I, Mark);
  EXPECT_EQ(S.getCannedConstraints().size(), 1u);

  QualType Use = S.instantiate(Sys, Factory);
  ASSERT_TRUE(Sys.solve());
  EXPECT_TRUE(Sys.mustHave(Use.getQual().getVar(), Const));
}

TEST_F(QualTypeTest, ConstraintsToFreeVarsKeepLinkingInstances) {
  // A bound variable constrained against a *free* (environment) variable:
  // each instance re-links to the same free variable.
  ConstraintSystem Sys(QS);
  QualVarId Global = Sys.freshVar();
  Watermark Mark = takeWatermark(Sys);
  QualVarId K = Sys.freshVar();
  Sys.addLeq(QualExpr::makeVar(K), QualExpr::makeVar(Global), {"k<=global"});
  QualType I = Factory.make(QualExpr::makeVar(K), &Int);
  QualScheme S = QualScheme::generalize(Sys, I, Mark);

  QualType Use = S.instantiate(Sys, Factory);
  Sys.addLeq(QualExpr::makeConst(QS.valueWithPresent({Dynamic})),
             Use.getQual(), {"use dynamic"});
  ASSERT_TRUE(Sys.solve());
  EXPECT_TRUE(Sys.mustHave(Global, Dynamic));
}

TEST_F(QualTypeTest, EscapeHookPreventsGeneralization) {
  ConstraintSystem Sys(QS);
  Watermark Mark = takeWatermark(Sys);
  QualVarId K = Sys.freshVar();
  QualType I = Factory.make(QualExpr::makeVar(K), &Int);
  FreeVarSet Escapes(Sys.getNumVars());
  Escapes[K] = true;
  QualScheme S = QualScheme::generalize(Sys, I, Mark, &Escapes);
  EXPECT_FALSE(S.isPolymorphic());
}

//===----------------------------------------------------------------------===//
// Well-formedness (Section 2's binding-time example)
//===----------------------------------------------------------------------===//

TEST_F(QualTypeTest, UpwardClosedPropagatesDynamicOutOfComponents) {
  // static (dynamic a -> dynamic b) is not well-formed: with dynamic upward
  // closed, a dynamic component forces the function itself dynamic.
  ConstraintSystem Sys(QS);
  QualType P = intTy(Sys), R = intTy(Sys);
  QualType F = Factory.make(QualExpr::makeVar(Sys.freshVar()), &Fn,
                            {P, R});
  requireUpwardClosed(Sys, F, Dynamic, {"wf"});
  Sys.addLeq(QualExpr::makeConst(QS.valueWithPresent({Dynamic})),
             P.getQual(), {"param dynamic"});
  ASSERT_TRUE(Sys.solve());
  EXPECT_TRUE(Sys.mustHave(F.getQual().getVar(), Dynamic));
  // And asserting the function static is now a violation.
  Sys.addLeq(F.getQual(), QualExpr::makeConst(QS.notQual(Dynamic)),
             {"fn static"});
  EXPECT_FALSE(Sys.isSatisfiable());
}

TEST_F(QualTypeTest, DownwardClosedPropagatesIntoComponents) {
  ConstraintSystem Sys(QS);
  QualType C = intTy(Sys);
  QualType R = Factory.make(QualExpr::makeVar(Sys.freshVar()), &Ref, {C});
  requireDownwardClosed(Sys, R, Const, {"wf"});
  Sys.addLeq(QualExpr::makeConst(QS.valueWithPresent({Const})), R.getQual(),
             {"ref const"});
  ASSERT_TRUE(Sys.solve());
  EXPECT_TRUE(Sys.mustHave(C.getQual().getVar(), Const));
}

TEST_F(QualTypeTest, CheckNoInnerWithoutOuterOnSolvedTypes) {
  ConstraintSystem Sys(QS);
  QualType P = intTy(Sys), R = intTy(Sys);
  QualType F = Factory.make(QualExpr::makeVar(Sys.freshVar()), &Fn,
                            {P, R});
  Sys.addLeq(QualExpr::makeConst(QS.valueWithPresent({Dynamic})),
             P.getQual(), {"param dynamic"});
  ASSERT_TRUE(Sys.solve());
  // Parent not dynamic but child dynamic: ill-formed.
  EXPECT_FALSE(checkNoInnerWithoutOuter(Sys, F, Dynamic, Dynamic));
  Sys.addLeq(QualExpr::makeConst(QS.valueWithPresent({Dynamic})),
             F.getQual(), {"fn dynamic"});
  ASSERT_TRUE(Sys.solve());
  EXPECT_TRUE(checkNoInnerWithoutOuter(Sys, F, Dynamic, Dynamic));
}

} // namespace
