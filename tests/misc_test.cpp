//===- tests/misc_test.cpp - Cross-cutting odds and ends ------------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Solver oracles (property tests of the masked lower/upper solutions and
/// the worklist's visit bound against a naive fixpoint), diagnostics
/// rendering, solved-type printing, and the small
/// support pieces not covered elsewhere.
///
//===----------------------------------------------------------------------===//

#include "qual/ConstraintSystem.h"
#include "qual/QualType.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

using namespace quals;

namespace {

//===----------------------------------------------------------------------===//
// Masked solver oracle
//===----------------------------------------------------------------------===//

/// Naive reference implementation of the masked constraint semantics:
/// lower[t] |= lower[s] & mask, upper[s] &= upper[t] | ~mask, to fixpoint.
struct NaiveSolver {
  struct Edge {
    int From, To;
    uint64_t Mask;
  };
  unsigned NumVars;
  uint64_t UsedBits;
  std::vector<Edge> Edges;
  std::vector<std::pair<int, uint64_t>> LowerSeeds; // var, bits(masked)
  std::vector<std::pair<int, uint64_t>> UpperSeeds; // var, cap
  std::vector<uint64_t> Lower, Upper;

  void solve() {
    Lower.assign(NumVars, 0);
    Upper.assign(NumVars, UsedBits);
    for (auto &S : LowerSeeds)
      Lower[S.first] |= S.second;
    for (auto &S : UpperSeeds)
      Upper[S.first] &= S.second;
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (const Edge &E : Edges) {
        uint64_t NewL = Lower[E.To] | (Lower[E.From] & E.Mask);
        if (NewL != Lower[E.To]) {
          Lower[E.To] = NewL;
          Changed = true;
        }
        uint64_t NewU = Upper[E.From] & (Upper[E.To] | ~E.Mask);
        if (NewU != Upper[E.From]) {
          Upper[E.From] = NewU;
          Changed = true;
        }
      }
    }
  }
};

/// Feeds one constraint stream to both the real solver and NaiveSolver, and
/// checks that they agree and that the worklist stays within its linear
/// bound: a variable re-enters a worklist only when its bound changes, at
/// most once per qualifier bit, so over the system's lifetime each var->var
/// edge is visited at most |Q| times per direction.
struct OracleHarness {
  const QualifierSet &QS;
  ConstraintSystem Sys;
  NaiveSolver Naive;
  std::vector<QualVarId> Vars;
  uint64_t LifetimeVisits = 0;
  unsigned VarVarEdges = 0;

  OracleHarness(const QualifierSet &QS, unsigned NumVars)
      : QS(QS), Sys(QS) {
    Naive.NumVars = NumVars;
    Naive.UsedBits = QS.usedBits();
    for (unsigned I = 0; I != NumVars; ++I)
      Vars.push_back(Sys.freshVar());
  }

  void leq(unsigned A, unsigned B, uint64_t Mask) {
    Sys.addLeqMasked(QualExpr::makeVar(Vars[A]), QualExpr::makeVar(Vars[B]),
                     Mask, {"edge"});
    Naive.Edges.push_back({static_cast<int>(A), static_cast<int>(B), Mask});
    ++VarVarEdges;
  }
  void leq(unsigned A, unsigned B) { leq(A, B, QS.usedBits()); }
  void eq(unsigned A, unsigned B) {
    Sys.addEq(QualExpr::makeVar(Vars[A]), QualExpr::makeVar(Vars[B]),
              {"unify"});
    Naive.Edges.push_back({static_cast<int>(A), static_cast<int>(B),
                           QS.usedBits()});
    Naive.Edges.push_back({static_cast<int>(B), static_cast<int>(A),
                           QS.usedBits()});
    VarVarEdges += 2;
  }
  void seed(unsigned A, uint64_t Bits, uint64_t Mask) {
    Sys.addLeqMasked(QualExpr::makeConst(LatticeValue(Bits)),
                     QualExpr::makeVar(Vars[A]), Mask, {"seed"});
    Naive.LowerSeeds.push_back({static_cast<int>(A), Bits & Mask});
  }
  void cap(unsigned A, uint64_t Bits, uint64_t Mask) {
    Sys.addLeqMasked(QualExpr::makeVar(Vars[A]),
                     QualExpr::makeConst(LatticeValue(Bits)), Mask, {"cap"});
    Naive.UpperSeeds.push_back(
        {static_cast<int>(A), (Bits | ~Mask) & QS.usedBits()});
  }
  void solve() {
    Sys.solve();
    LifetimeVisits += Sys.getStats().EdgeVisits;
  }

  /// Solves both sides and compares every variable's bounds. \p Directions
  /// is how many drains can do work (1 when only seeds or only caps exist).
  void check(unsigned Directions = 2) {
    solve();
    Naive.solve();
    const uint64_t Used = QS.usedBits();
    for (unsigned I = 0; I != Vars.size(); ++I) {
      EXPECT_EQ(Sys.lower(Vars[I]).bits(), Naive.Lower[I]) << "lower " << I;
      EXPECT_EQ(Sys.upper(Vars[I]).bits() & Used, Naive.Upper[I])
          << "upper " << I;
    }
    EXPECT_LE(LifetimeVisits,
              uint64_t(Directions) * QS.size() * VarVarEdges);
  }
};

/// xorshift64; deterministic per seed.
struct Xorshift {
  uint64_t State;
  explicit Xorshift(uint64_t Seed) : State(Seed * 0x9E3779B97F4A7C15ULL + 1) {}
  uint64_t operator()() {
    State ^= State << 13;
    State ^= State >> 7;
    State ^= State << 17;
    return State;
  }
};

QualifierSet fourQualifiers() {
  QualifierSet QS;
  QS.add("a", Polarity::Positive);
  QS.add("b", Polarity::Positive);
  QS.add("c", Polarity::Negative);
  QS.add("d", Polarity::Positive);
  return QS;
}

class MaskedOracle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MaskedOracle, SolverMatchesNaiveFixpoint) {
  QualifierSet QS = fourQualifiers();
  const uint64_t Used = QS.usedBits();
  Xorshift Rand(GetParam());

  constexpr unsigned N = 60;
  OracleHarness H(QS, N);
  for (unsigned I = 0; I != 250; ++I) {
    unsigned A = Rand() % N, B = Rand() % N;
    uint64_t Mask = Rand() & Used;
    if (!Mask)
      Mask = Used;
    unsigned Kind = Rand() % 4;
    if (Kind == 0) // const <= var
      H.seed(A, Rand() & Used, Mask);
    else if (Kind == 1) // var <= const
      H.cap(A, Rand() & Used, Mask);
    else // var <= var (twice as likely)
      H.leq(A, B, Mask);
    // Interleave solves to exercise the incremental path.
    if (I % 50 == 49)
      H.solve();
  }
  H.check();
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaskedOracle,
                         ::testing::Range<uint64_t>(1, 13));

TEST(SolverOracle, LongUnmaskedRings) {
  // Three 400-var rings: every seeded bit walks a whole ring, once per bit.
  QualifierSet QS = fourQualifiers();
  const uint64_t Used = QS.usedBits();
  constexpr unsigned Len = 400;
  for (unsigned Shape = 0; Shape != 3; ++Shape) {
    OracleHarness H(QS, Len);
    for (unsigned I = 0; I != Len; ++I)
      H.leq(I, (I + 1) % Len);
    // Shape 0 seeds only (forward drain), 1 caps only (backward drain),
    // 2 both; each bit enters at a different point of the ring.
    for (unsigned Q = 0; Q != QS.size(); ++Q) {
      uint64_t Bit = QS.bitFor(Q);
      if (Shape != 1)
        H.seed((Q * 97) % Len, Bit, Used);
      if (Shape != 0)
        H.cap((Q * 131 + 7) % Len, Used & ~Bit, Used);
    }
    H.check(Shape == 2 ? 2 : 1);
  }
}

TEST(SolverOracle, AddEqTwoCycles) {
  // The link's unification shape: interface variables tied pairwise by
  // addEq, chained across "TUs", with bounds scattered over the chain.
  QualifierSet QS = fourQualifiers();
  const uint64_t Used = QS.usedBits();
  Xorshift Rand(77);
  constexpr unsigned N = 300;
  OracleHarness H(QS, N);
  for (unsigned I = 0; I + 1 < N; I += 2)
    H.eq(I, I + 1);
  for (unsigned I = 1; I + 1 < N; I += 2)
    H.leq(I, I + 1);
  for (unsigned I = 0; I != 40; ++I) {
    H.seed(Rand() % N, Rand() & Used, Used);
    H.cap(Rand() % N, Rand() & Used, Used);
  }
  H.check();
}

TEST(SolverOracle, DisconnectedIslands) {
  // 100 diamonds with their own seeds and caps; nothing may leak between
  // islands.
  QualifierSet QS = fourQualifiers();
  const uint64_t Used = QS.usedBits();
  constexpr unsigned Islands = 100;
  OracleHarness H(QS, Islands * 4);
  for (unsigned I = 0; I != Islands; ++I) {
    unsigned A = 4 * I, B = A + 1, C = A + 2, D = A + 3;
    H.leq(A, B);
    H.leq(A, C);
    H.leq(B, D);
    H.leq(C, D);
    H.seed(A, QS.bitFor(I % QS.size()), Used);
    H.cap(D, Used & ~QS.bitFor((I + 1) % QS.size()), Used);
  }
  H.check();
}

TEST(SolverOracle, MaskedCycles) {
  // Rings whose edges carry different masks: a cycle equalizes only the
  // components every edge on it carries.
  QualifierSet QS = fourQualifiers();
  const uint64_t Used = QS.usedBits();
  Xorshift Rand(5);
  constexpr unsigned Len = 50;
  OracleHarness H(QS, 4 * Len);
  for (unsigned R = 0; R != 4; ++R)
    for (unsigned I = 0; I != Len; ++I) {
      uint64_t Mask = Rand() & Used;
      H.leq(R * Len + I, R * Len + (I + 1) % Len, Mask ? Mask : Used);
    }
  for (unsigned I = 0; I != 30; ++I) {
    H.seed(Rand() % (4 * Len), Rand() & Used, Rand() & Used);
    H.cap(Rand() % (4 * Len), Rand() & Used, Rand() & Used);
  }
  H.check();
}

TEST(SolverOracle, FortyEightQualifierLattice) {
  // A wide lattice: up to 48 bit gains per variable, still within bound.
  QualifierSet QS;
  for (unsigned I = 0; I != 48; ++I)
    QS.add("q" + std::to_string(I),
           I % 2 ? Polarity::Negative : Polarity::Positive);
  const uint64_t Used = QS.usedBits();
  Xorshift Rand(48);
  constexpr unsigned N = 200;
  OracleHarness H(QS, N);
  for (unsigned I = 0; I != 3 * N; ++I)
    H.leq(Rand() % N, Rand() % N, Rand() % 4 ? Used : Rand() & Used);
  for (unsigned Q = 0; Q != QS.size(); ++Q) {
    H.seed(Rand() % N, QS.bitFor(Q), Used);
    H.cap(Rand() % N, Used & ~QS.bitFor(Q), Used);
  }
  H.check();
}

TEST(SolverOracle, InterleavedIncrementalSolves) {
  // Constraints arrive in small batches with a solve after each: new edges
  // carry already-known bounds, and lifetime visits stay within |Q|*E.
  QualifierSet QS = fourQualifiers();
  const uint64_t Used = QS.usedBits();
  Xorshift Rand(2024);
  constexpr unsigned N = 120;
  OracleHarness H(QS, N);
  for (unsigned Batch = 0; Batch != 40; ++Batch) {
    for (unsigned I = 0; I != 10; ++I) {
      unsigned A = Rand() % N, B = Rand() % N;
      if (Rand() % 5 == 0)
        H.eq(A, B);
      else
        H.leq(A, B, Rand() % 3 ? Used : (Rand() & Used) | 1);
    }
    H.seed(Rand() % N, QS.bitFor(Rand() % QS.size()), Used);
    H.cap(Rand() % N, Used & ~QS.bitFor(Rand() % QS.size()), Used);
    H.solve();
  }
  H.check();
}

//===----------------------------------------------------------------------===//
// Diagnostics rendering
//===----------------------------------------------------------------------===//

TEST(DiagnosticsRender, PointsAtTheOffendingColumn) {
  SourceManager SM;
  unsigned Id = SM.addBuffer("d.c", "int x;\nint $bad;\n");
  DiagnosticEngine Diags(SM);
  Diags.error(SM.getLocForOffset(Id, 11), "unexpected character");
  std::string Out = Diags.renderAll();
  EXPECT_NE(Out.find("d.c:2:5: error: unexpected character"),
            std::string::npos)
      << Out;
  // Caret under column 5.
  EXPECT_NE(Out.find("int $bad;\n    ^"), std::string::npos) << Out;
}

TEST(DiagnosticsRender, SeveritiesAndCounts) {
  SourceManager SM;
  DiagnosticEngine Diags(SM);
  Diags.warning(SourceLoc(), "heads up");
  Diags.note(SourceLoc(), "context");
  EXPECT_FALSE(Diags.hasErrors());
  Diags.error(SourceLoc(), "boom");
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_EQ(Diags.getNumErrors(), 1u);
  std::string Out = Diags.renderAll();
  EXPECT_NE(Out.find("warning: heads up"), std::string::npos);
  EXPECT_NE(Out.find("note: context"), std::string::npos);
  EXPECT_NE(Out.find("error: boom"), std::string::npos);
  Diags.clear();
  EXPECT_FALSE(Diags.hasErrors());
  EXPECT_TRUE(Diags.renderAll().empty());
}

//===----------------------------------------------------------------------===//
// Solved-type printing
//===----------------------------------------------------------------------===//

TEST(TypePrinting, SolvedVariablesPrintTheirLeastSolution) {
  QualifierSet QS;
  QualifierId Const = QS.add("const", Polarity::Positive);
  ConstraintSystem Sys(QS);
  QualTypeFactory Factory;
  TypeCtor Int("int", {});
  TypeCtor Ref("ref", {Variance::Invariant});

  QualVarId K = Sys.freshVar();
  Sys.addLeq(QualExpr::makeConst(QS.valueWithPresent({Const})),
             QualExpr::makeVar(K), {"decl"});
  QualType T = Factory.make(
      QualExpr::makeConst(QS.bottom()), &Ref,
      {Factory.make(QualExpr::makeVar(K), &Int)});
  Sys.solve();
  EXPECT_EQ(toString(QS, T, &Sys), "ref(const int)");
  // Unsolved printing shows variable ids instead.
  EXPECT_EQ(toString(QS, T), "ref($0 int)");
}

//===----------------------------------------------------------------------===//
// Support odds and ends
//===----------------------------------------------------------------------===//

TEST(TimerTest, MeasuresElapsedTime) {
  Timer T;
  volatile unsigned Sink = 0;
  for (unsigned I = 0; I != 2000000; ++I)
    Sink = Sink + I;
  double S = T.seconds();
  EXPECT_GT(S, 0.0);
  EXPECT_EQ(T.milliseconds() >= S * 1000.0 * 0.5, true);
  T.reset();
  EXPECT_LT(T.seconds(), S + 1.0);
}

TEST(QualifierSetLimits, SupportsManyQualifiers) {
  QualifierSet QS;
  std::vector<QualifierId> Ids;
  for (unsigned I = 0; I != 48; ++I)
    Ids.push_back(QS.add("q" + std::to_string(I),
                         I % 2 ? Polarity::Negative : Polarity::Positive));
  EXPECT_EQ(QS.size(), 48u);
  LatticeValue V = QS.bottom();
  for (QualifierId Id : Ids)
    V = QS.withQual(V, Id);
  for (QualifierId Id : Ids)
    EXPECT_TRUE(QS.contains(V, Id));
  // Solving still works with a wide lattice. A lower bound forces the
  // *positive* qualifiers present everywhere; the negative ones are only
  // "may be present" (their presence sits at the bottom of the component,
  // so only an upper bound could force it).
  ConstraintSystem Sys(QS);
  QualVarId A = Sys.freshVar(), B = Sys.freshVar();
  Sys.addLeq(QualExpr::makeConst(V), QualExpr::makeVar(A), {"all"});
  Sys.addLeq(QualExpr::makeVar(A), QualExpr::makeVar(B), {"edge"});
  ASSERT_TRUE(Sys.solve());
  for (unsigned I = 0; I != Ids.size(); ++I) {
    if (QS.get(Ids[I]).Pol == Polarity::Positive)
      EXPECT_TRUE(Sys.mustHave(B, Ids[I])) << I;
    else
      EXPECT_TRUE(Sys.mayHave(B, Ids[I])) << I;
  }
}

} // namespace
