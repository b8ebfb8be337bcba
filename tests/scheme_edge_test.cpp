//===- tests/scheme_edge_test.cpp - Scheme simplification edge cases ------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The generalization step *simplifies* schemes to interface summaries
/// (TypeScheme.cpp). These tests pin down that the simplification is
/// behaviour-preserving: masked (well-formedness) constraints survive with
/// their masks, internal chains compress to the same observable bounds,
/// free-variable links replay per instance, and nested instantiation
/// composes. SchemeOracle checks the same property on random bodies against
/// the definition: an instance must solve exactly like a full replay of the
/// body it summarizes.
///
//===----------------------------------------------------------------------===//

#include "qual/Subtype.h"
#include "qual/TypeScheme.h"
#include "qual/WellFormed.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <random>

using namespace quals;

namespace {

class SchemeEdge : public ::testing::Test {
protected:
  QualifierSet QS;
  QualifierId Const, Dynamic;
  TypeCtor Int{"int", {}};
  TypeCtor Fn{"->",
              {Variance::Contravariant, Variance::Covariant},
              PrintStyle::Infix};
  QualTypeFactory Factory;

  void SetUp() override {
    Const = QS.add("const", Polarity::Positive);
    Dynamic = QS.add("dynamic", Polarity::Positive);
  }

  QualExpr var(ConstraintSystem &Sys) {
    return QualExpr::makeVar(Sys.freshVar());
  }
};

TEST_F(SchemeEdge, InternalChainCompressesToSameBounds) {
  // p -> i1 -> ... -> i100 -> r inside the body: the scheme must expose
  // p <= r with the intermediates eliminated.
  ConstraintSystem Sys(QS);
  Watermark Mark = takeWatermark(Sys);
  QualExpr P = var(Sys), R = var(Sys);
  QualExpr Prev = P;
  for (int I = 0; I != 100; ++I) {
    QualExpr Next = var(Sys);
    Sys.addLeq(Prev, Next, {"body"});
    Prev = Next;
  }
  Sys.addLeq(Prev, R, {"body"});
  QualType Body = Factory.make(
      var(Sys), &Fn,
      {Factory.make(P, &Int), Factory.make(R, &Int)});
  QualScheme S = QualScheme::generalize(Sys, Body, Mark);

  // The summary is small: no 100-element chain.
  EXPECT_LE(S.getCannedConstraints().size(), 8u);

  QualType Use = S.instantiate(Sys, Factory);
  Sys.addLeq(QualExpr::makeConst(QS.valueWithPresent({Const})),
             Use.getArg(0).getQual(), {"const into instance param"});
  ASSERT_TRUE(Sys.solve());
  EXPECT_TRUE(Sys.mustHave(Use.getArg(1).getQual().getVar(), Const));
}

TEST_F(SchemeEdge, ConstantBoundsThroughInternalsSurvive) {
  // const flows into an internal var that flows into the result: the
  // instance's result must carry the const lower bound. Symmetrically an
  // upper bound reached through internals caps the parameter.
  ConstraintSystem Sys(QS);
  Watermark Mark = takeWatermark(Sys);
  QualExpr P = var(Sys), R = var(Sys);
  QualExpr Mid1 = var(Sys), Mid2 = var(Sys);
  Sys.addLeq(QualExpr::makeConst(QS.valueWithPresent({Const})), Mid1,
             {"internal const source"});
  Sys.addLeq(Mid1, R, {"to result"});
  Sys.addLeq(P, Mid2, {"param in"});
  Sys.addLeq(Mid2, QualExpr::makeConst(QS.notQual(Dynamic)),
             {"internal cap"});
  QualType Body = Factory.make(
      var(Sys), &Fn,
      {Factory.make(P, &Int), Factory.make(R, &Int)});
  QualScheme S = QualScheme::generalize(Sys, Body, Mark);

  QualType Use = S.instantiate(Sys, Factory);
  ASSERT_TRUE(Sys.solve());
  EXPECT_TRUE(Sys.mustHave(Use.getArg(1).getQual().getVar(), Const));
  EXPECT_FALSE(Sys.mayHave(Use.getArg(0).getQual().getVar(), Dynamic));
}

TEST_F(SchemeEdge, MaskedConstraintsKeepTheirMasks) {
  // A well-formedness edge (dynamic only) inside the body must not start
  // carrying const after simplification.
  ConstraintSystem Sys(QS);
  Watermark Mark = takeWatermark(Sys);
  QualExpr P = var(Sys), R = var(Sys);
  Sys.addLeqMasked(P, R, QS.bitFor(Dynamic), {"wf: dynamic upward"});
  QualType Body = Factory.make(
      var(Sys), &Fn,
      {Factory.make(P, &Int), Factory.make(R, &Int)});
  QualScheme S = QualScheme::generalize(Sys, Body, Mark);

  QualType Use = S.instantiate(Sys, Factory);
  Sys.addLeq(QualExpr::makeConst(
                 QS.valueWithPresent({Const, Dynamic})),
             Use.getArg(0).getQual(), {"const+dynamic into param"});
  ASSERT_TRUE(Sys.solve());
  QualVarId Result = Use.getArg(1).getQual().getVar();
  EXPECT_TRUE(Sys.mustHave(Result, Dynamic));  // crossed the masked edge
  EXPECT_FALSE(Sys.mustHave(Result, Const));   // blocked by the mask
}

TEST_F(SchemeEdge, FreeVariableLinksReplayPerInstance) {
  // Bound var -> global (free) var: every instance links to the same
  // global. Two instances both raise it.
  ConstraintSystem Sys(QS);
  QualVarId Global = Sys.freshVar();
  Watermark Mark = takeWatermark(Sys);
  QualExpr P = var(Sys);
  Sys.addLeq(P, QualExpr::makeVar(Global), {"escapes to global"});
  QualType Body = Factory.make(
      var(Sys), &Fn,
      {Factory.make(P, &Int), Factory.make(P, &Int)});
  QualScheme S = QualScheme::generalize(Sys, Body, Mark);

  QualType U1 = S.instantiate(Sys, Factory);
  QualType U2 = S.instantiate(Sys, Factory);
  Sys.addLeq(QualExpr::makeConst(QS.valueWithPresent({Const})),
             U1.getArg(0).getQual(), {"u1 const"});
  Sys.addLeq(QualExpr::makeConst(QS.valueWithPresent({Dynamic})),
             U2.getArg(0).getQual(), {"u2 dynamic"});
  ASSERT_TRUE(Sys.solve());
  EXPECT_TRUE(Sys.mustHave(Global, Const));
  EXPECT_TRUE(Sys.mustHave(Global, Dynamic));
}

TEST_F(SchemeEdge, ReverseFlowFromFreeVariable) {
  // Global (free) var -> bound var: the global's qualifiers reach every
  // instance, including qualifiers added *after* generalization.
  ConstraintSystem Sys(QS);
  QualVarId Global = Sys.freshVar();
  Watermark Mark = takeWatermark(Sys);
  QualExpr P = var(Sys);
  Sys.addLeq(QualExpr::makeVar(Global), P, {"global flows in"});
  QualType Body = Factory.make(P, &Int);
  QualScheme S = QualScheme::generalize(Sys, Body, Mark);

  QualType Use = S.instantiate(Sys, Factory);
  Sys.addLeq(QualExpr::makeConst(QS.valueWithPresent({Const})),
             QualExpr::makeVar(Global), {"late const on global"});
  ASSERT_TRUE(Sys.solve());
  EXPECT_TRUE(Sys.mustHave(Use.getQual().getVar(), Const));
}

TEST_F(SchemeEdge, FreeVariableKeepsItsOwnConstantBound) {
  // The body stores its parameter into a global (free) and writes through
  // the global. The global's own bound stays in the system: the scheme
  // cans the pair p <= global but no constant bound, and a const argument
  // to an instance fails once, at the global's bound, explained exactly as
  // the monomorphic body explains it.
  std::string Explained[2];
  auto run = [&](bool Generalize) {
    ConstraintSystem Sys(QS);
    QualExpr Global = var(Sys);
    Watermark Mark = takeWatermark(Sys);
    QualExpr P = var(Sys);
    Sys.addLeq(P, Global, {"parameter stored in global"});
    Sys.addLeq(Global, QualExpr::makeConst(QS.notQual(Const)),
               {"write through global"});
    QualType Use = Factory.make(var(Sys), &Fn,
                                {Factory.make(P, &Int),
                                 Factory.make(var(Sys), &Int)});
    if (Generalize) {
      QualScheme S = QualScheme::generalize(Sys, Use, Mark);
      ASSERT_EQ(S.getCannedConstraints().size(), 1u);
      const Constraint &Pair = S.getCannedConstraints()[0];
      EXPECT_TRUE(Pair.Lhs.isVar() && Pair.Lhs.getVar() == P.getVar());
      EXPECT_TRUE(Pair.Rhs.isVar() && Pair.Rhs.getVar() == Global.getVar());
      Use = S.instantiate(Sys, Factory);
    }
    Sys.addLeq(QualExpr::makeConst(QS.valueWithPresent({Const})),
               Use.getArg(0).getQual(), {"const argument"});
    Sys.solve();
    std::vector<Violation> Vs = Sys.collectViolations();
    ASSERT_EQ(Vs.size(), 1u);
    EXPECT_EQ(Sys.getReason(Sys.getConstraint(Vs[0].Cause).Reason),
              "write through global");
    Explained[Generalize] = Sys.explain(Vs[0]);
  };
  run(true);
  run(false);
  EXPECT_EQ(Explained[true], Explained[false]);
}

TEST_F(SchemeEdge, InstantiationOfInstantiationComposes) {
  // Generalize f; instantiate inside g's body; generalize g; instantiate
  // g: bounds flow through both layers.
  ConstraintSystem Sys(QS);

  Watermark MarkF = takeWatermark(Sys);
  QualExpr FP = var(Sys);
  Sys.addLeq(QualExpr::makeConst(QS.valueWithPresent({Const})), FP,
             {"f makes it const"});
  QualType FBody = Factory.make(
      var(Sys), &Fn, {Factory.make(FP, &Int), Factory.make(FP, &Int)});
  QualScheme F = QualScheme::generalize(Sys, FBody, MarkF);

  Watermark MarkG = takeWatermark(Sys);
  QualType FUse = F.instantiate(Sys, Factory);
  // g returns f's result.
  QualType GBody = Factory.make(var(Sys), &Fn,
                                {FUse.getArg(0), FUse.getArg(1)});
  QualScheme G = QualScheme::generalize(Sys, GBody, MarkG);

  QualType GUse = G.instantiate(Sys, Factory);
  ASSERT_TRUE(Sys.solve());
  EXPECT_TRUE(Sys.mustHave(GUse.getArg(1).getQual().getVar(), Const));
}

TEST_F(SchemeEdge, MasterVariablesStayUnpolluted) {
  // Constraints placed on an *instance* must not leak back into the
  // scheme's master variables (this is what the Table 2 poly counting
  // relies on).
  ConstraintSystem Sys(QS);
  Watermark Mark = takeWatermark(Sys);
  QualExpr P = var(Sys);
  QualType Body = Factory.make(
      var(Sys), &Fn, {Factory.make(P, &Int), Factory.make(P, &Int)});
  QualScheme S = QualScheme::generalize(Sys, Body, Mark);
  QualVarId Master = P.getVar();

  QualType Use = S.instantiate(Sys, Factory);
  Sys.addLeq(QualExpr::makeConst(QS.valueWithPresent({Const})),
             Use.getArg(0).getQual(), {"instance made const"});
  Sys.addLeq(Use.getArg(0).getQual(),
             QualExpr::makeConst(QS.valueWithPresent({Const})),
             {"and capped"});
  ASSERT_TRUE(Sys.solve());
  EXPECT_FALSE(Sys.mustHave(Master, Const));
  EXPECT_TRUE(Sys.mayHave(Master, Dynamic));
}

TEST_F(SchemeEdge, SelfLoopInBodyIsHarmless) {
  ConstraintSystem Sys(QS);
  Watermark Mark = takeWatermark(Sys);
  QualExpr P = var(Sys), Q = var(Sys);
  Sys.addLeq(P, Q, {"pq"});
  Sys.addLeq(Q, P, {"qp"}); // cycle between two interface vars
  QualType Body = Factory.make(
      var(Sys), &Fn, {Factory.make(P, &Int), Factory.make(Q, &Int)});
  QualScheme S = QualScheme::generalize(Sys, Body, Mark);
  QualType Use = S.instantiate(Sys, Factory);
  Sys.addLeq(QualExpr::makeConst(QS.valueWithPresent({Const})),
             Use.getArg(0).getQual(), {"seed"});
  ASSERT_TRUE(Sys.solve());
  EXPECT_TRUE(Sys.mustHave(Use.getArg(1).getQual().getVar(), Const));
  EXPECT_TRUE(Sys.mustHave(Use.getArg(0).getQual().getVar(), Const));
}

TEST_F(SchemeEdge, EmptyBodyGeneralizesToNothing) {
  ConstraintSystem Sys(QS);
  Watermark Mark = takeWatermark(Sys);
  QualType Body =
      Factory.make(QualExpr::makeConst(QS.bottom()), &Int);
  QualScheme S = QualScheme::generalize(Sys, Body, Mark);
  EXPECT_FALSE(S.isPolymorphic());
  EXPECT_EQ(S.instantiate(Sys, Factory).getShape(), Body.getShape());
}

TEST_F(SchemeEdge, CallInstanceLeavesOutParameterOnlyVariables) {
  // fn(p, q) -> r with p <= r: q occurs once, inside a parameter, in no
  // canned constraint, so a call instance gives it no variable. p (canned),
  // r (the result) and the function's own qualifier stay observable, and a
  // full instance still copies all four.
  ConstraintSystem Sys(QS);
  TypeCtor Fn2{"fn2",
               {Variance::Contravariant, Variance::Contravariant,
                Variance::Covariant}};
  Watermark Mark = takeWatermark(Sys);
  QualExpr P = var(Sys), Q = var(Sys), R = var(Sys);
  Sys.addLeq(P, R, {"p to result"});
  QualType Body = Factory.make(
      var(Sys), &Fn2,
      {Factory.make(P, &Int), Factory.make(Q, &Int), Factory.make(R, &Int)});
  QualScheme S = QualScheme::generalize(Sys, Body, Mark);
  EXPECT_EQ(S.getNumBoundVars(), 4u);
  EXPECT_EQ(S.getNumDontCareVars(), 1u);

  unsigned Before = Sys.getNumVars();
  QualType Call = S.instantiateCall(Sys, Factory);
  EXPECT_EQ(Sys.getNumVars() - Before, 3u);
  EXPECT_TRUE(QualScheme::isDontCare(Call.getArg(1).getQual()));
  EXPECT_FALSE(QualScheme::isDontCare(Call.getArg(0).getQual()));
  EXPECT_FALSE(QualScheme::isDontCare(Call.getArg(2).getQual()));
  EXPECT_FALSE(QualScheme::isDontCare(Call.getQual()));
  Sys.addLeq(QualExpr::makeConst(QS.valueWithPresent({Const})),
             Call.getArg(0).getQual(), {"const into call param"});

  Before = Sys.getNumVars();
  QualType Full = S.instantiate(Sys, Factory);
  EXPECT_EQ(Sys.getNumVars() - Before, 4u);
  EXPECT_FALSE(QualScheme::isDontCare(Full.getArg(1).getQual()));

  ASSERT_TRUE(Sys.solve());
  EXPECT_TRUE(Sys.mustHave(Call.getArg(2).getQual().getVar(), Const));
  EXPECT_FALSE(Sys.mustHave(Full.getArg(2).getQual().getVar(), Const));
}

TEST_F(SchemeEdge, RepeatedOrResultVariablesStayObservable) {
  // A variable in two parameters, or in a parameter and the result, meets
  // more than one flow at a call, so no call instance leaves it out.
  ConstraintSystem Sys(QS);
  TypeCtor Fn2{"fn2",
               {Variance::Contravariant, Variance::Contravariant,
                Variance::Covariant}};
  Watermark Mark = takeWatermark(Sys);
  QualExpr Shared = var(Sys), Through = var(Sys);
  QualType Body = Factory.make(var(Sys), &Fn2,
                               {Factory.make(Shared, &Int),
                                Factory.make(Shared, &Int),
                                Factory.make(Through, &Int)});
  QualScheme S = QualScheme::generalize(Sys, Body, Mark);
  EXPECT_EQ(S.getNumDontCareVars(), 0u);
  QualType Call = S.instantiateCall(Sys, Factory);
  EXPECT_EQ(Call.getArg(0).getQual(), Call.getArg(1).getQual());
}

/// A random post-watermark body over NumEnv older (environment) variables
/// and NumFresh body variables. Operands index environment variables first,
/// then body variables; -1 is a constant.
struct RandomBody {
  struct Item {
    int Lhs, Rhs;
    uint64_t Bits, Mask;
  };
  unsigned NumEnv = 0, NumFresh = 0;
  std::vector<unsigned> Interface; // Distinct, non-escaping body variables.
  std::vector<bool> Escaping;      // Per body variable.
  std::vector<Item> Cons;
};

RandomBody makeBody(std::mt19937 &Rng, uint64_t Used) {
  auto Pick = [&](unsigned N) {
    return std::uniform_int_distribution<unsigned>(0, N - 1)(Rng);
  };
  auto Bits = [&] { return Rng() & Used; };
  auto Mask = [&] {
    uint64_t M = Used;
    switch (Pick(3)) {
    case 0: // Full mask.
      break;
    case 1: // A well-formedness style single bit.
      M = Used & (uint64_t(1) << Pick(3));
      break;
    default:
      M = Bits();
      break;
    }
    return M;
  };
  RandomBody B;
  B.NumEnv = Pick(4);
  B.NumFresh = 1 + Pick(10);
  B.Escaping.assign(B.NumFresh, false);
  for (unsigned I = 0; I != B.NumFresh; ++I) {
    if (Pick(5) == 0)
      B.Escaping[I] = true;
    else if (Pick(2) == 0)
      B.Interface.push_back(I);
  }
  unsigned NumVars = B.NumEnv + B.NumFresh;
  for (unsigned I = 0, N = Pick(24); I != N; ++I) {
    int L = int(Pick(NumVars)), R = int(Pick(NumVars));
    switch (Pick(6)) {
    case 0: // Constant lower bound.
      B.Cons.push_back({-1, R, Bits(), Mask()});
      break;
    case 1: // Constant upper bound.
      B.Cons.push_back({L, -1, Bits(), Mask()});
      break;
    case 2: { // A two-cycle.
      uint64_t M = Mask();
      B.Cons.push_back({L, R, 0, M});
      B.Cons.push_back({R, L, 0, M});
      break;
    }
    default:
      B.Cons.push_back({L, R, 0, Mask()});
      break;
    }
  }
  return B;
}

/// One side of the comparison: environment, master body, and two call
/// sites -- scheme instances or full replays of the body.
struct OracleSide {
  ConstraintSystem Sys;
  std::vector<QualVarId> Env, Fresh;
  std::vector<std::vector<QualVarId>> Sites; // Interface vars per site.

  OracleSide(const QualifierSet &QS, const RandomBody &B,
             QualTypeFactory &Factory, bool UseScheme)
      : Sys(QS) {
    for (unsigned I = 0; I != B.NumEnv; ++I)
      Env.push_back(Sys.freshVar());
    Watermark Mark = takeWatermark(Sys);
    for (unsigned I = 0; I != B.NumFresh; ++I)
      Fresh.push_back(Sys.freshVar());
    addBody(B, Fresh);

    TypeCtor Tuple("tuple", std::vector<Variance>(B.Interface.size(),
                                                  Variance::Invariant));
    TypeCtor Int("int", {});
    std::vector<QualType> Args;
    for (unsigned I : B.Interface)
      Args.push_back(Factory.make(QualExpr::makeVar(Fresh[I]), &Int));
    QualType Body =
        Factory.make(QualExpr::makeConst(QS.bottom()), &Tuple, Args);
    FreeVarSet Escapes(Mark.FirstVar);
    Escapes.insert(Escapes.end(), B.Escaping.begin(), B.Escaping.end());
    QualScheme S = QualScheme::generalize(Sys, Body, Mark, &Escapes);

    for (int Site = 0; Site != 2; ++Site) {
      std::vector<QualVarId> Interface;
      if (UseScheme) {
        QualType Use = S.instantiate(Sys, Factory);
        for (unsigned K = 0; K != B.Interface.size(); ++K)
          Interface.push_back(Use.getArg(K).getQual().getVar());
      } else {
        std::vector<QualVarId> Copy = Fresh;
        for (unsigned I = 0; I != B.NumFresh; ++I)
          if (!B.Escaping[I])
            Copy[I] = Sys.freshVar();
        addBody(B, Copy);
        for (unsigned I : B.Interface)
          Interface.push_back(Copy[I]);
      }
      Sites.push_back(Interface);
    }
  }

  void addBody(const RandomBody &B, const std::vector<QualVarId> &Body) {
    auto Operand = [&](int I, uint64_t Bits) {
      if (I < 0)
        return QualExpr::makeConst(LatticeValue(Bits));
      return QualExpr::makeVar(unsigned(I) < B.NumEnv ? Env[I]
                                                      : Body[I - B.NumEnv]);
    };
    for (const RandomBody::Item &C : B.Cons)
      Sys.addLeqMasked(Operand(C.Lhs, C.Bits), Operand(C.Rhs, C.Bits),
                       C.Mask, {"body"});
  }
};

} // namespace

TEST(SchemeOracle, InstancesSolveLikeFullBodyReplay) {
  QualifierSet QS;
  QS.add("const", Polarity::Positive);
  QS.add("nonzero", Polarity::Negative);
  QS.add("tainted", Polarity::Positive);
  const uint64_t Used = QS.usedBits();
  QualTypeFactory Factory;
  std::mt19937 Rng(20260);
  for (int Trial = 0; Trial != 400; ++Trial) {
    SCOPED_TRACE("trial " + std::to_string(Trial));
    RandomBody B = makeBody(Rng, Used);
    OracleSide Scheme(QS, B, Factory, /*UseScheme=*/true);
    OracleSide Replay(QS, B, Factory, /*UseScheme=*/false);

    // The calling context: random constants on the environment and on each
    // site's interface, identical on both sides.
    std::vector<std::pair<QualVarId, QualVarId>> Watched;
    for (unsigned I = 0; I != B.NumEnv; ++I)
      Watched.push_back({Scheme.Env[I], Replay.Env[I]});
    for (unsigned I = 0; I != B.NumFresh; ++I)
      if (B.Escaping[I])
        Watched.push_back({Scheme.Fresh[I], Replay.Fresh[I]});
    for (unsigned Site = 0; Site != 2; ++Site)
      for (unsigned K = 0; K != B.Interface.size(); ++K)
        Watched.push_back({Scheme.Sites[Site][K], Replay.Sites[Site][K]});
    for (auto [A, R] : Watched) {
      if (Rng() % 3 == 0) {
        LatticeValue Bits(Rng() & Used);
        Scheme.Sys.addLeq(QualExpr::makeConst(Bits), QualExpr::makeVar(A),
                          {"context seed"});
        Replay.Sys.addLeq(QualExpr::makeConst(Bits), QualExpr::makeVar(R),
                          {"context seed"});
      }
      if (Rng() % 3 == 0) {
        LatticeValue Bits(Rng() & Used);
        Scheme.Sys.addLeq(QualExpr::makeVar(A), QualExpr::makeConst(Bits),
                          {"context cap"});
        Replay.Sys.addLeq(QualExpr::makeVar(R), QualExpr::makeConst(Bits),
                          {"context cap"});
      }
    }

    EXPECT_EQ(Scheme.Sys.solve(), Replay.Sys.solve());
    for (auto [A, R] : Watched) {
      EXPECT_EQ(Scheme.Sys.lower(A).bits(), Replay.Sys.lower(R).bits());
      EXPECT_EQ(Scheme.Sys.upper(A).bits() & Used,
                Replay.Sys.upper(R).bits() & Used);
    }
  }
}

TEST(SchemeScratch, ReusedScratchCansLikeFreshScratch) {
  // Two functions generalized in sequence through one scratch, the second
  // body mentioning the first's variables (older than its watermark), give
  // the same canned constraints as generalizations with fresh scratch.
  QualifierSet QS;
  QS.add("const", Polarity::Positive);
  QS.add("nonzero", Polarity::Negative);
  QS.add("tainted", Polarity::Positive);
  const uint64_t Used = QS.usedBits();
  QualTypeFactory Factory;
  TypeCtor Int("int", {});
  std::deque<TypeCtor> Tuples;
  std::mt19937 Rng(7177);
  SimplifyScratch Shared;
  for (int Trial = 0; Trial != 300; ++Trial) {
    SCOPED_TRACE("trial " + std::to_string(Trial));
    ConstraintSystem Sys(QS);
    std::vector<QualVarId> Env;
    for (unsigned I = 0; I != 4; ++I)
      Env.push_back(Sys.freshVar());
    for (int Fn = 0; Fn != 2; ++Fn) {
      RandomBody B = makeBody(Rng, Used);
      Watermark Mark = takeWatermark(Sys);
      std::vector<QualVarId> Fresh;
      for (unsigned I = 0; I != B.NumFresh; ++I)
        Fresh.push_back(Sys.freshVar());
      auto Operand = [&](int I, uint64_t Bits) {
        if (I < 0)
          return QualExpr::makeConst(LatticeValue(Bits));
        return QualExpr::makeVar(unsigned(I) < B.NumEnv ? Env[I]
                                                        : Fresh[I - B.NumEnv]);
      };
      for (const RandomBody::Item &C : B.Cons)
        Sys.addLeqMasked(Operand(C.Lhs, C.Bits), Operand(C.Rhs, C.Bits),
                         C.Mask, {"body " + std::to_string(Fn)});
      Tuples.emplace_back("tuple", std::vector<Variance>(B.Interface.size(),
                                                         Variance::Invariant));
      std::vector<QualType> Args;
      for (unsigned I : B.Interface)
        Args.push_back(Factory.make(QualExpr::makeVar(Fresh[I]), &Int));
      QualType Body = Factory.make(QualExpr::makeConst(QS.bottom()),
                                   &Tuples.back(), Args);
      FreeVarSet Escapes(Mark.FirstVar);
      Escapes.insert(Escapes.end(), B.Escaping.begin(), B.Escaping.end());

      QualScheme Reused =
          QualScheme::generalize(Sys, Body, Mark, Shared, &Escapes);
      QualScheme Alone = QualScheme::generalize(Sys, Body, Mark, &Escapes);
      EXPECT_EQ(Reused.getNumBoundVars(), Alone.getNumBoundVars());
      const std::vector<Constraint> &R = Reused.getCannedConstraints();
      const std::vector<Constraint> &A = Alone.getCannedConstraints();
      ASSERT_EQ(R.size(), A.size());
      for (size_t K = 0; K != R.size(); ++K) {
        EXPECT_TRUE(R[K].Lhs == A[K].Lhs && R[K].Rhs == A[K].Rhs &&
                    R[K].Mask == A[K].Mask && R[K].Reason == A[K].Reason)
            << "canned constraint " << K;
      }
      // The next function sees this one's variables as its environment.
      Env = Fresh;
      while (Env.size() < 4)
        Env.push_back(Sys.freshVar());
    }
  }
}

namespace {

/// The shapes of the call oracle's parameter and result types: a scalar,
/// a pointer (invariant cell), and a pointer to a one-argument function.
struct CallShapes {
  TypeCtor Int{"int", {}};
  TypeCtor Ref{"ref", {Variance::Invariant}};
  TypeCtor Fn1{"fn1", {Variance::Contravariant, Variance::Covariant}};
  std::deque<TypeCtor> Fns; // Function interfaces, by parameter count.

  const TypeCtor *fn(unsigned NumParams) {
    std::vector<Variance> V(NumParams, Variance::Contravariant);
    V.push_back(Variance::Covariant);
    Fns.emplace_back("fn" + std::to_string(NumParams), V);
    return &Fns.back();
  }

  /// A random type whose qualifiers \p Qual supplies, parents first.
  template <typename QualFn>
  QualType random(std::mt19937 &Rng, QualTypeFactory &Factory, QualFn &Qual,
                  unsigned Depth) {
    QualExpr Q = Qual();
    switch (Depth < 2 ? Rng() % 3 : 0) {
    case 0:
      return Factory.make(Q, &Int);
    case 1:
      return Factory.make(Q, &Ref, {random(Rng, Factory, Qual, Depth + 1)});
    default: {
      QualType Param = random(Rng, Factory, Qual, Depth + 1);
      QualType Result = random(Rng, Factory, Qual, Depth + 1);
      return Factory.make(Q, &Ref,
                          {Factory.make(Qual(), &Fn1, {Param, Result})});
    }
    }
  }
};

/// One side of the call oracle, built from \p Seed: environment, a random
/// function body generalized to a scheme, then two direct calls, each
/// flowing one caller-owned argument into every parameter and the result
/// into two caller-owned receivers (as `y = (*f() = x)` uses it twice; a
/// result position is never a don't-care), with random constant bounds on
/// every variable that exists before the first instance. Only \p AtCall
/// differs between the sides: call instances or full instances.
struct CallSide {
  ConstraintSystem Sys;
  unsigned NumBefore = 0;
  unsigned DontCares = 0;

  CallSide(const QualifierSet &QS, QualTypeFactory &Factory,
           CallShapes &Shapes, uint32_t Seed, bool AtCall)
      : Sys(QS) {
    std::mt19937 Rng(Seed);
    const uint64_t Used = QS.usedBits();
    RandomBody B = makeBody(Rng, Used);
    std::vector<QualVarId> Env, Fresh;
    for (unsigned I = 0; I != B.NumEnv; ++I)
      Env.push_back(Sys.freshVar());
    Watermark Mark = takeWatermark(Sys);
    for (unsigned I = 0; I != B.NumFresh; ++I)
      Fresh.push_back(Sys.freshVar());
    for (const RandomBody::Item &C : B.Cons) {
      auto Operand = [&](int I) {
        if (I < 0)
          return QualExpr::makeConst(LatticeValue(C.Bits));
        return QualExpr::makeVar(unsigned(I) < B.NumEnv ? Env[I]
                                                        : Fresh[I - B.NumEnv]);
      };
      Sys.addLeqMasked(Operand(C.Lhs), Operand(C.Rhs), C.Mask, {"body"});
    }

    // A position holds a variable no body constraint mentions or a random
    // body variable, so some occur once and some repeat across parameters
    // and the result.
    auto BodyQual = [&] {
      return QualExpr::makeVar(Rng() % 2 ? Sys.freshVar()
                                         : Fresh[Rng() % B.NumFresh]);
    };
    const unsigned NumParams = 1 + Rng() % 3;
    std::vector<QualType> Args;
    for (unsigned I = 0; I != NumParams + 1; ++I)
      Args.push_back(Shapes.random(Rng, Factory, BodyQual, 0));
    QualType Body = Factory.make(BodyQual(), Shapes.fn(NumParams), Args);
    FreeVarSet Escapes(Mark.FirstVar);
    Escapes.insert(Escapes.end(), B.Escaping.begin(), B.Escaping.end());
    QualScheme S = QualScheme::generalize(Sys, Body, Mark, &Escapes);
    DontCares = S.getNumDontCareVars();

    // The callers' arguments and receivers, then the context's bounds.
    std::vector<std::vector<QualType>> Actuals(2);
    for (std::vector<QualType> &Site : Actuals)
      for (unsigned I = 0; I != NumParams + 2; ++I)
        Site.push_back(Factory.spread(Sys, Args[std::min(I, NumParams)]));
    NumBefore = Sys.getNumVars();
    for (QualVarId V = 0; V != NumBefore; ++V) {
      if (Rng() % 4 == 0)
        Sys.addLeq(QualExpr::makeConst(LatticeValue(Rng() & Used)),
                   QualExpr::makeVar(V), {"context seed"});
      if (Rng() % 4 == 0)
        Sys.addLeq(QualExpr::makeVar(V),
                   QualExpr::makeConst(LatticeValue(Rng() & Used)),
                   {"context cap"});
    }

    // Instances first, so every constant-bound constraint (the only
    // violation sites) has the same id on both sides.
    std::vector<QualType> Uses;
    for (int Site = 0; Site != 2; ++Site)
      Uses.push_back(AtCall ? S.instantiateCall(Sys, Factory)
                            : S.instantiate(Sys, Factory));
    for (int Site = 0; Site != 2; ++Site) {
      for (unsigned I = 0; I != NumParams; ++I)
        decomposeLeq(Sys, Actuals[Site][I], Uses[Site].getArg(I),
                     {"argument"});
      for (unsigned R = NumParams; R != NumParams + 2; ++R)
        decomposeLeq(Sys, Uses[Site].getArg(NumParams), Actuals[Site][R],
                     {"argument"});
    }
  }
};

} // namespace

TEST(SchemeOracle, CallInstancesSolveLikeFullInstances) {
  QualifierSet QS;
  QS.add("const", Polarity::Positive);
  QS.add("nonzero", Polarity::Negative);
  QS.add("tainted", Polarity::Positive);
  QualTypeFactory Factory;
  CallShapes Shapes;
  std::mt19937 Seeds(4099);
  unsigned DontCares = 0, Violations = 0;
  for (int Trial = 0; Trial != 400; ++Trial) {
    SCOPED_TRACE("trial " + std::to_string(Trial));
    const uint32_t Seed = Seeds();
    CallSide Call(QS, Factory, Shapes, Seed, /*AtCall=*/true);
    CallSide Full(QS, Factory, Shapes, Seed, /*AtCall=*/false);
    ASSERT_EQ(Call.NumBefore, Full.NumBefore);
    ASSERT_EQ(Call.DontCares, Full.DontCares);
    DontCares += Call.DontCares;
    EXPECT_EQ(Full.Sys.getNumVars() - Call.Sys.getNumVars(),
              2 * Call.DontCares);

    EXPECT_EQ(Call.Sys.solve(), Full.Sys.solve());
    for (QualVarId V = 0; V != Call.NumBefore; ++V)
      for (QualifierId Q = 0; Q != QS.size(); ++Q) {
        EXPECT_EQ(Call.Sys.mayHave(V, Q), Full.Sys.mayHave(V, Q))
            << "var " << V << " qualifier " << Q;
        EXPECT_EQ(Call.Sys.mustHave(V, Q), Full.Sys.mustHave(V, Q))
            << "var " << V << " qualifier " << Q;
      }

    std::vector<Violation> CV = Call.Sys.collectViolations();
    std::vector<Violation> FV = Full.Sys.collectViolations();
    ASSERT_EQ(CV.size(), FV.size());
    Violations += CV.size();
    ViolationExplainer CallExplainer(Call.Sys), FullExplainer(Full.Sys);
    for (size_t K = 0; K != CV.size(); ++K) {
      EXPECT_EQ(CV[K].Cause, FV[K].Cause);
      EXPECT_EQ(CV[K].OffendingBits, FV[K].OffendingBits);
      EXPECT_EQ(CV[K].Actual.bits(), FV[K].Actual.bits());
      EXPECT_EQ(CallExplainer.explain(CV[K]), FullExplainer.explain(FV[K]));
    }
  }
  // The oracle must exercise both sides of the claim.
  EXPECT_GT(DontCares, 400u) << DontCares;
  EXPECT_GT(Violations, 400u) << Violations;
}
