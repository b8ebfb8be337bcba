//===- tests/constinf_extra_test.cpp - More const-inference coverage ------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Third-round const-inference coverage: conditional joins over pointers,
/// pointer arithmetic, nested structs, self-referential lists, multi-level
/// write propagation, scale, idempotence of repeated runs, error
/// explanations that do not depend on program size or on a scheme, shared
/// storage that polymorphism must not quantify, struct initializers, and
/// call-site instantiation (a direct call instantiates only what it can
/// observe; a function designator takes the full instance).
///
//===----------------------------------------------------------------------===//

#include "cfront/CParser.h"
#include "cfront/CSema.h"
#include "constinf/ConstInfer.h"
#include "gen/SynthGen.h"

#include <gtest/gtest.h>

using namespace quals;
using namespace quals::cfront;
using namespace quals::constinf;

namespace {

struct XRig {
  XRig() : Diags(SM) {}
  explicit XRig(Limits L) : Diags(SM, L) {}

  SourceManager SM;
  DiagnosticEngine Diags;
  CAstContext Ast;
  CTypeContext Types;
  StringInterner Idents;
  TranslationUnit TU;
  std::unique_ptr<ConstInference> Inf;

  bool analyze(const std::string &Source, bool Polymorphic = true) {
    if (!parseCSource(SM, "x.c", Source, Ast, Types, Idents, Diags, TU))
      return false;
    CSema Sema(Ast, Types, Idents, Diags);
    if (!Sema.analyze(TU))
      return false;
    ConstInference::Options Opts;
    Opts.Polymorphic = Polymorphic;
    Inf = std::make_unique<ConstInference>(TU, Diags, Opts);
    return Inf->run();
  }

  PosClass classOf(std::string_view Fn, int ParamIndex,
                   unsigned Depth = 0) {
    for (const InterestingPos &P : Inf->positions())
      if (P.Fn->getName() == Fn && P.ParamIndex == ParamIndex &&
          P.Depth == Depth)
        return Inf->classify(P);
    ADD_FAILURE() << "missing position " << Fn << "#" << ParamIndex;
    return PosClass::MustNonConst;
  }
};

TEST(ConstInfExtra, ConditionalJoinOfPointersLinksBothArms) {
  // Writing through the join of (a ? p : q) pins both parameters.
  XRig R;
  ASSERT_TRUE(R.analyze(
      "void pick(int a, int *p, int *q) { *(a ? p : q) = 1; }",
      /*Polymorphic=*/false))
      << R.Diags.renderAll();
  EXPECT_EQ(R.classOf("pick", 1), PosClass::MustNonConst);
  EXPECT_EQ(R.classOf("pick", 2), PosClass::MustNonConst);
}

TEST(ConstInfExtra, ConditionalWithNullArmKeepsPointer) {
  XRig R;
  ASSERT_TRUE(R.analyze(
      "int deref_or(int c, int *p) { return c ? *(c ? p : 0) : 0; }"))
      << R.Diags.renderAll();
  EXPECT_EQ(R.classOf("deref_or", 1), PosClass::Either);
}

TEST(ConstInfExtra, PointerArithmeticPreservesTheCell) {
  XRig R;
  ASSERT_TRUE(R.analyze(
      "void wipe(char *s, int n) { *(s + n) = 0; }",
      false))
      << R.Diags.renderAll();
  EXPECT_EQ(R.classOf("wipe", 0), PosClass::MustNonConst);
  XRig R2;
  ASSERT_TRUE(R2.analyze(
      "int peek(char *s, int n) { return *(s + n); }", false))
      << R2.Diags.renderAll();
  EXPECT_EQ(R2.classOf("peek", 0), PosClass::Either);
}

TEST(ConstInfExtra, CompoundAssignmentPinsTheCell) {
  XRig R;
  ASSERT_TRUE(R.analyze("void bump(int *p) { *p += 2; }", false))
      << R.Diags.renderAll();
  EXPECT_EQ(R.classOf("bump", 0), PosClass::MustNonConst);
}

TEST(ConstInfExtra, IncrementOfPointeePins) {
  XRig R;
  ASSERT_TRUE(R.analyze("void tick(int *p) { (*p)++; }", false))
      << R.Diags.renderAll();
  EXPECT_EQ(R.classOf("tick", 0), PosClass::MustNonConst);
}

TEST(ConstInfExtra, IncrementOfLocalPointerDoesNotPinPointee) {
  // s++ writes the *pointer variable*, not the pointed-to cell.
  XRig R;
  ASSERT_TRUE(R.analyze(
      "int len(char *s) { int n = 0; while (*s) { s++; n++; } return n; }",
      false))
      << R.Diags.renderAll();
  EXPECT_EQ(R.classOf("len", 0), PosClass::Either);
}

TEST(ConstInfExtra, NestedStructFieldsShareDeeply) {
  XRig R;
  ASSERT_TRUE(R.analyze(
      "struct inner { int *slot; };\n"
      "struct outer { struct inner in; };\n"
      "void w(struct outer *o) { *(o->in.slot) = 1; }\n"
      "void r(struct outer *p, int *q) { p->in.slot = q; }\n",
      /*Polymorphic=*/false))
      << R.Diags.renderAll();
  // q flows into the shared inner field whose pointee is written.
  EXPECT_EQ(R.classOf("r", 1), PosClass::MustNonConst);
}

TEST(ConstInfExtra, LinkedListTraversalStaysConstable) {
  XRig R;
  ASSERT_TRUE(R.analyze(
      "struct node { int v; struct node *next; };\n"
      "int total(struct node *head) {\n"
      "  int t = 0;\n"
      "  while (head) { t += head->v; head = head->next; }\n"
      "  return t;\n"
      "}\n",
      false))
      << R.Diags.renderAll();
  EXPECT_EQ(R.classOf("total", 0), PosClass::Either);
}

TEST(ConstInfExtra, ListMutationPinsSharedField) {
  XRig R;
  ASSERT_TRUE(R.analyze(
      "struct node { int v; struct node *next; };\n"
      "void bump_all(struct node *head) {\n"
      "  while (head) { head->v = head->v + 1; head = head->next; }\n"
      "}\n"
      "int peek(struct node *n) { return n->v; }\n",
      false))
      << R.Diags.renderAll();
  // The struct-pointer parameters themselves are never written through
  // directly... but head->v = ... writes through head's pointee? No: it
  // writes the *field cell*, which is shared, not the struct cell. The
  // struct pointers stay const-able.
  EXPECT_EQ(R.classOf("bump_all", 0), PosClass::Either);
  EXPECT_EQ(R.classOf("peek", 0), PosClass::Either);
}

TEST(ConstInfExtra, CommaExpressionYieldsRightType) {
  XRig R;
  ASSERT_TRUE(R.analyze(
      "void f(int *a, int *b) { *(a, b) = 1; }", false))
      << R.Diags.renderAll();
  EXPECT_EQ(R.classOf("f", 1), PosClass::MustNonConst);
  EXPECT_EQ(R.classOf("f", 0), PosClass::Either);
}

TEST(ConstInfExtra, RepeatedRunsAreIndependent) {
  // Two ConstInference objects over the same TU don't interfere.
  XRig R;
  ASSERT_TRUE(R.analyze("int f(int *p) { return *p; }"));
  ConstCounts First = R.Inf->counts();
  ConstInference::Options Opts;
  ConstInference Second(R.TU, R.Diags, Opts);
  ASSERT_TRUE(Second.run());
  EXPECT_EQ(Second.counts().Total, First.Total);
  EXPECT_EQ(Second.counts().PossibleConst, First.PossibleConst);
}

TEST(ConstInfExtra, LargeGeneratedProgramFullPipeline) {
  // A ~60k-line program through parse, sema, and both inference modes;
  // guards against superlinear blowups sneaking in.
  synth::SynthParams P = synth::paramsForLines(424242, 60000);
  synth::SynthProgram Prog = synth::generateProgram(P);
  ASSERT_GT(Prog.LineCount, 50000u);

  XRig R;
  ASSERT_TRUE(R.analyze(Prog.Source, /*Polymorphic=*/true))
      << R.Diags.renderAll();
  ConstCounts Poly = R.Inf->counts();
  EXPECT_GT(Poly.Total, 1000u);
  EXPECT_GE(Poly.PossibleConst, Poly.Declared);

  XRig R2;
  ASSERT_TRUE(R2.analyze(Prog.Source, /*Polymorphic=*/false));
  EXPECT_LE(R2.Inf->counts().PossibleConst, Poly.PossibleConst);
}

TEST(ConstInfExtra, ExplanationDoesNotDependOnProgramSize) {
  // A write through a pointer that went round a q <-> r copy cycle: the
  // explanation names both hops of the cycle whether the function is the
  // whole program or the tail of a 6k-line one.
  const std::string BadWriter =
      "void bad_writer(const char *p) { char *q, *r; q = p; r = q; q = r; "
      "*r = 'x'; }\n";
  auto explanations = [](const std::string &Source) {
    XRig R;
    EXPECT_FALSE(R.analyze(Source));
    std::string Out;
    for (const Diagnostic &D : R.Diags.getDiagnostics())
      Out += D.Message + "\n";
    return Out;
  };
  std::string Alone = explanations(BadWriter);
  size_t Hops = 0;
  for (size_t At = Alone.find("via: assigned value flows into cell");
       At != std::string::npos;
       At = Alone.find("via: assigned value flows into cell", At + 1))
    ++Hops;
  EXPECT_EQ(Hops, 2u) << Alone;

  synth::SynthProgram Prog =
      synth::generateProgram(synth::paramsForLines(7, 6000));
  EXPECT_EQ(explanations(Prog.Source + BadWriter), Alone);
}

TEST(ConstInfExtra, PolyErrorThroughSchemeKeepsLocation) {
  // The write's bound reaches use() only through f's scheme; the canned
  // upper bound carries the write's location and reason, as mono does.
  const std::string Source = "void f(int *p) { *p = 1; }\n"
                             "void use(const int *q) { f(q); }\n";
  for (bool Polymorphic : {true, false}) {
    SCOPED_TRACE(Polymorphic ? "poly" : "mono");
    XRig R;
    EXPECT_FALSE(R.analyze(Source, Polymorphic));
    ASSERT_EQ(R.Diags.getDiagnostics().size(), 1u) << R.Diags.renderAll();
    const Diagnostic &D = R.Diags.getDiagnostics()[0];
    PresumedLoc P = R.SM.getPresumedLoc(D.Loc);
    EXPECT_EQ(P.Line, 1u) << R.Diags.renderAll();
    EXPECT_EQ(P.Column, 21u) << R.Diags.renderAll();
    EXPECT_NE(D.Message.find("bound: assignment target must not be const"),
              std::string::npos)
        << D.Message;
  }
}

// Storage that outlives a call is one cell for every instance of a
// polymorphic function, so generalization must not quantify it: poly
// rejects these programs exactly as mono does.
TEST(ConstInfExtra, PolyDoesNotQuantifySharedFieldStorage) {
  const std::string Source =
      "struct S { int *f; };\n"
      "void set(struct S *s, int *p) { s->f = p; }\n"
      "void use(struct S *s) { *s->f = 1; }\n"
      "void caller(const int *c, struct S *s) { set(s, c); use(s); }\n";
  for (bool Polymorphic : {true, false}) {
    SCOPED_TRACE(Polymorphic ? "poly" : "mono");
    XRig R;
    EXPECT_FALSE(R.analyze(Source, Polymorphic));
    EXPECT_TRUE(R.Diags.hasErrors()) << R.Diags.renderAll();
  }
}

TEST(ConstInfExtra, PolyDoesNotQuantifyStaticLocalStorage) {
  const std::string Source =
      "int *keep(int *p) { static int *s; int *old = s; s = p; return old; }\n"
      "void caller(const int *c, int *x) { keep(c); *keep(x) = 1; }\n";
  for (bool Polymorphic : {true, false}) {
    SCOPED_TRACE(Polymorphic ? "poly" : "mono");
    XRig R;
    EXPECT_FALSE(R.analyze(Source, Polymorphic));
    EXPECT_TRUE(R.Diags.hasErrors()) << R.Diags.renderAll();
  }
}

// A library function's interface is translated inside the first body that
// uses it (w), yet every caller shares it: poly must link w's instances to
// it and report the mono diagnostic, not quantify it away.
TEST(ConstInfExtra, PolyDoesNotQuantifyLibraryInterface) {
  const std::string Source = "int **get(void);\n"
                             "void w(int *c) { *get() = c; }\n"
                             "void a(const int *k) { w(k); }\n"
                             "void use(void) { **get() = 1; }\n";
  std::string Rendered[2];
  for (bool Polymorphic : {true, false}) {
    SCOPED_TRACE(Polymorphic ? "poly" : "mono");
    XRig R;
    EXPECT_FALSE(R.analyze(Source, Polymorphic));
    ASSERT_EQ(R.Diags.getDiagnostics().size(), 1u) << R.Diags.renderAll();
    const Diagnostic &D = R.Diags.getDiagnostics()[0];
    PresumedLoc P = R.SM.getPresumedLoc(D.Loc);
    EXPECT_EQ(P.Line, 4u);
    EXPECT_EQ(P.Column, 26u);
    EXPECT_NE(D.Message.find("bound: assignment target must not be const"),
              std::string::npos)
        << D.Message;
    Rendered[Polymorphic] = R.Diags.renderAll();
  }
  EXPECT_EQ(Rendered[true], Rendered[false]);
}

// A struct initializer stores its elements into the record's shared field
// cells, exactly as assignments to the fields do: f's parameter is
// classified like g's, also through a struct nested in a struct, an array
// of structs, and braces around a scalar.
TEST(ConstInfExtra, StructInitializerFlowsIntoFields) {
  const std::string Source =
      "struct P { int *a; };\n"
      "void f(int *x) { struct P p = { x }; *p.a = 2; }\n"
      "void g(int *x) { struct P p; p.a = x; *p.a = 2; }\n"
      "struct Q { int *b; };\n"
      "struct R { struct Q q; };\n"
      "void h(int *y) { struct R r = { { y } }; *r.q.b = 3; }\n"
      "void k(int *y) { struct R r; r.q.b = y; *r.q.b = 3; }\n"
      "struct S { int n; int *c; };\n"
      "void m(int *z) { struct S s[2] = { { 0, z }, { 1, 0 } }; *s[1].c = 4; }\n"
      "void n(int *w) { int *p = { w }; *p = 5; }\n";
  for (bool Polymorphic : {true, false}) {
    SCOPED_TRACE(Polymorphic ? "poly" : "mono");
    XRig R;
    ASSERT_TRUE(R.analyze(Source, Polymorphic)) << R.Diags.renderAll();
    EXPECT_EQ(R.classOf("g", 0), PosClass::MustNonConst);
    EXPECT_EQ(R.classOf("f", 0), R.classOf("g", 0));
    EXPECT_EQ(R.classOf("k", 0), PosClass::MustNonConst);
    EXPECT_EQ(R.classOf("h", 0), R.classOf("k", 0));
    EXPECT_EQ(R.classOf("m", 0), PosClass::MustNonConst);
    EXPECT_EQ(R.classOf("n", 0), PosClass::MustNonConst);
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Explanations through one shared index
//===----------------------------------------------------------------------===//

namespace {

/// The explanation search as a self-contained oracle: it rebuilds the
/// per-variable bit-carrying in-edge lists for every call, the way
/// ConstraintSystem::explain() did before explanations shared an index.
std::string referenceExplain(const ConstraintSystem &Sys, const Violation &V) {
  const QualifierSet &QS = Sys.getQualifierSet();
  uint64_t Bit = V.OffendingBits & ~(V.OffendingBits - 1);
  const Constraint &Cause = Sys.getConstraint(V.Cause);
  std::string Out = "qualifier constraint violated (";
  bool First = true;
  for (unsigned I = 0, E = QS.size(); I != E; ++I) {
    if (!(V.OffendingBits & QS.bitFor(I)))
      continue;
    if (!First)
      Out += "; ";
    First = false;
    const Qualifier &Q = QS.get(I);
    Out += "qualifier '" + Q.Name +
           (Q.Pol == Polarity::Positive ? "' not allowed here"
                                        : "' required here");
  }
  Out += ")\n  bound: " + std::string(Sys.getReason(Cause.Reason)) + "\n";
  if (!Cause.Lhs.isVar())
    return Out + "  source: qualifier constant '" +
           QS.toString(Cause.Lhs.getConst()) + "'\n";
  std::vector<std::vector<ConstraintId>> InEdges(Sys.getNumVars());
  for (ConstraintId Id = 0; Id != Sys.getNumConstraints(); ++Id) {
    const Constraint &C = Sys.getConstraint(Id);
    if (!C.Rhs.isVar() || !(C.Mask & Bit))
      continue;
    if (C.Lhs.isVar() ? !(Sys.lower(C.Lhs.getVar()).bits() & Bit)
                      : !(C.Lhs.getConst().bits() & C.Mask & Bit))
      continue;
    InEdges[C.Rhs.getVar()].push_back(Id);
  }
  QualVarId Root = Cause.Lhs.getVar();
  std::vector<std::pair<QualVarId, ConstraintId>> Parent;
  std::vector<uint32_t> ParentOf(Sys.getNumVars(), ~0u);
  std::vector<QualVarId> Queue{Root};
  ParentOf[Root] = ~1u;
  ConstraintId SeedCons = ~0u;
  QualVarId SeedAt = Root;
  for (size_t Head = 0; Head != Queue.size() && SeedCons == ~0u; ++Head) {
    QualVarId At = Queue[Head];
    for (ConstraintId Id : InEdges[At]) {
      const Constraint &C = Sys.getConstraint(Id);
      if (C.Lhs.isConst()) {
        SeedCons = Id;
        SeedAt = At;
        break;
      }
      QualVarId Src = C.Lhs.getVar();
      if (Src == At || ParentOf[Src] != ~0u)
        continue;
      Parent.push_back({At, Id});
      ParentOf[Src] = Parent.size() - 1;
      Queue.push_back(Src);
    }
  }
  if (SeedCons == ~0u)
    return Out;
  std::vector<ConstraintId> Chain;
  for (QualVarId At = SeedAt; At != Root;) {
    Chain.push_back(Parent[ParentOf[At]].second);
    At = Parent[ParentOf[At]].first;
  }
  std::reverse(Chain.begin(), Chain.end());
  Chain.push_back(SeedCons);
  for (ConstraintId Id : Chain) {
    ReasonId R = Sys.getConstraint(Id).Reason;
    Out += "  via: " +
           std::string(R ? Sys.getReason(R) : "(unlabeled constraint)") + "\n";
  }
  return Out + "  source: qualifier constant '" +
         QS.toString(Sys.getConstraint(SeedCons).Lhs.getConst()) + "'\n";
}

/// The 6000-line seed-7 program plus \p N functions that each write
/// through a const pointer: half directly, half through a pointer whose
/// const arrives through one shared global, so their explanation chains
/// share variables.
std::string programWithViolations(unsigned N) {
  std::string Source =
      synth::generateProgram(synth::paramsForLines(7, 6000)).Source;
  Source += "int *shared_cell;\n"
            "void share(const int *p) { shared_cell = p; }\n";
  for (unsigned I = 0; I != N; ++I) {
    std::string K = std::to_string(I);
    if (I % 2)
      Source += "void w" + K + "(void) { int *q = shared_cell; *q = " + K +
                "; }\n";
    else
      Source += "void v" + K + "(const int *p) { *p = " + K + "; }\n";
  }
  return Source;
}

} // namespace

TEST(SharedExplanations, MatchThePerViolationSearch) {
  const std::string Source = programWithViolations(60);
  for (bool Polymorphic : {true, false}) {
    XRig R;
    EXPECT_FALSE(R.analyze(Source, Polymorphic));
    const ConstraintSystem &Sys = R.Inf->system();
    std::vector<Violation> Violations = Sys.collectViolations();
    ASSERT_GE(Violations.size(), 60u);
    ViolationExplainer Shared(Sys);
    for (const Violation &V : Violations) {
      std::string Expected = referenceExplain(Sys, V);
      EXPECT_NE(Expected.find("via: "), std::string::npos);
      EXPECT_EQ(Shared.explain(V), Expected);
      EXPECT_EQ(Sys.explain(V), Expected);
    }
  }
}

TEST(SharedExplanations, StopAtTheErrorCap) {
  const std::string Source = programWithViolations(60);
  XRig Full;
  EXPECT_FALSE(Full.analyze(Source));
  std::vector<Violation> Violations = Full.Inf->system().collectViolations();
  ASSERT_GE(Violations.size(), 60u);
  ViolationExplainer Shared(Full.Inf->system());

  Limits Lim;
  Lim.MaxErrors = 3;
  XRig Capped(Lim);
  EXPECT_FALSE(Capped.analyze(Source));
  // Three explained errors, then the cap's fatal note and nothing else.
  const std::vector<Diagnostic> &Diags = Capped.Diags.getDiagnostics();
  ASSERT_EQ(Diags.size(), 4u);
  for (unsigned I = 0; I != 3; ++I) {
    EXPECT_EQ(Diags[I].Kind, DiagKind::Error);
    EXPECT_EQ(Diags[I].Message, Shared.explain(Violations[I]));
  }
  EXPECT_EQ(Diags[3].Kind, DiagKind::Fatal);
  EXPECT_TRUE(Capped.Diags.shouldBail());
}

// Call-site instantiation (QualScheme::instantiateCall): a direct call
// creates no variable for a parameter position only its own argument
// meets; every other use of a function name takes the full instance.
namespace {

const char *const CallPrelude =
    "void f(char **p, char **q) { **p = 0; }\n"
    "void (*fp)(char **, char **);\n"
    "void sink(void (*h)(char **, char **)) { }\n";

/// Qualifier variables of CallPrelude plus `void g(char **c) { Body }`.
unsigned varsWithUse(const std::string &Body) {
  XRig R;
  EXPECT_TRUE(R.analyze(std::string(CallPrelude) + "void g(char **c) { " +
                        Body + " }\n"))
      << R.Diags.renderAll();
  return R.Inf->numQualVars();
}

const QualScheme &schemeOf(XRig &R, std::string_view Name) {
  const QualScheme *S = R.Inf->schemeFor(R.TU.FunctionMap.at(Name));
  EXPECT_NE(S, nullptr) << Name;
  return *S;
}

} // namespace

TEST(CallInstance, DesignatorUsesTakeTheFullInstance) {
  XRig R;
  ASSERT_TRUE(R.analyze(std::string(CallPrelude) + "void g(char **c) { }\n"))
      << R.Diags.renderAll();
  const QualScheme &F = schemeOf(R, "f"), &Sink = schemeOf(R, "sink");
  // f's q, and the contents of p below the written cell, are don't-cares.
  ASSERT_GT(F.getNumDontCareVars(), 0u);
  ASSERT_GT(Sink.getNumDontCareVars(), 0u);
  const unsigned Base = R.Inf->numQualVars();
  EXPECT_EQ(varsWithUse(""), Base);
  // A direct call: the observable variables only.
  EXPECT_EQ(varsWithUse("f(c, c);"),
            Base + F.getNumBoundVars() - F.getNumDontCareVars());
  // `fp = f`: a pointer cell over the full instance.
  EXPECT_EQ(varsWithUse("fp = f;"), Base + 1 + F.getNumBoundVars());
  // Calling through fp instantiates nothing.
  EXPECT_EQ(varsWithUse("fp = f; fp(c, c);"), Base + 1 + F.getNumBoundVars());
  // `sink(&f)`: a call instance of sink, a full instance of f.
  EXPECT_EQ(varsWithUse("sink(&f);"),
            Base + Sink.getNumBoundVars() - Sink.getNumDontCareVars() + 1 +
                F.getNumBoundVars());
}

TEST(CallInstance, DirectCallsSaveTheDontCaresAndKeepPositions) {
  // `(&f)(...)` is the same call made through a designator, so it takes
  // the full instance: the two programs differ by f's don't-cares (and the
  // designator's pointer cell) per call, and classify alike.
  const std::string Prelude = "void f(char *p, char *q, char **r) { *p = 0; }\n"
                              "char *id(char *s) { return s; }\n";
  const std::string Direct =
      Prelude + "void g(char *a, char *b, char **c) { f(a, b, c); "
                "f(b, a, c); *id(a) = 1; }\n";
  const std::string Designated =
      Prelude + "void g(char *a, char *b, char **c) { (&f)(a, b, c); "
                "(&f)(b, a, c); *id(a) = 1; }\n";
  XRig D, Full;
  ASSERT_TRUE(D.analyze(Direct)) << D.Diags.renderAll();
  ASSERT_TRUE(Full.analyze(Designated)) << Full.Diags.renderAll();
  const unsigned DontCares = schemeOf(D, "f").getNumDontCareVars();
  ASSERT_GT(DontCares, 0u);
  EXPECT_EQ(Full.Inf->numQualVars() - D.Inf->numQualVars(),
            2 * (DontCares + 1));
  EXPECT_LT(D.Inf->numConstraints(), Full.Inf->numConstraints());

  std::vector<ClassifiedPos> DP = D.Inf->classifiedPositions();
  std::vector<ClassifiedPos> FP = Full.Inf->classifiedPositions();
  ASSERT_EQ(DP.size(), FP.size());
  for (size_t I = 0; I != DP.size(); ++I) {
    EXPECT_EQ(DP[I].Pos.Fn->getName(), FP[I].Pos.Fn->getName());
    EXPECT_EQ(DP[I].Pos.ParamIndex, FP[I].Pos.ParamIndex);
    EXPECT_EQ(DP[I].Pos.Depth, FP[I].Pos.Depth);
    EXPECT_EQ(DP[I].Class, FP[I].Class) << "position " << I;
  }
  EXPECT_EQ(D.Inf->renderAnnotatedPrototypes(),
            Full.Inf->renderAnnotatedPrototypes());
  EXPECT_EQ(D.classOf("g", 0), PosClass::MustNonConst);
  EXPECT_EQ(D.classOf("g", 1), PosClass::MustNonConst);
}
