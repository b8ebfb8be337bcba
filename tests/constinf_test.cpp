//===- tests/constinf_test.cpp - Const inference tests --------------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests Section 4: the l translation's behaviour on the paper's worked
/// examples, assignment/write constraints, struct field sharing, typedef
/// non-sharing, cast severing, library-function conservatism, the FDG, and
/// monomorphic-vs-polymorphic inference differences.
///
//===----------------------------------------------------------------------===//

#include "CTestUtil.h"

#include <gtest/gtest.h>

using namespace quals;
using namespace quals::cfront;
using namespace quals::constinf;

namespace {

/// Parse + sema + const inference pipeline for one program.
struct InfRig : ConstRig {
  bool frontEnd(const std::string &Source) {
    return parse("test.c", Source) && FrontEnd::analyze();
  }

  bool analyze(const std::string &Source, bool Polymorphic = true) {
    ConstInference::Options Opts;
    Opts.Polymorphic = Polymorphic;
    return frontEnd(Source) && infer(Opts);
  }
};

//===----------------------------------------------------------------------===//
// The l translation and basic write constraints
//===----------------------------------------------------------------------===//

TEST(ConstInf, ReadOnlyParamMayBeConst) {
  InfRig R;
  ASSERT_TRUE(R.analyze("int deref(int *p) { return *p; }"))
      << R.Diags.renderAll();
  EXPECT_EQ(R.classOf("deref", 0), PosClass::Either);
}

TEST(ConstInf, WrittenThroughParamMustNotBeConst) {
  InfRig R;
  ASSERT_TRUE(R.analyze("void set(int *p) { *p = 3; }"))
      << R.Diags.renderAll();
  EXPECT_EQ(R.classOf("set", 0), PosClass::MustNonConst);
}

TEST(ConstInf, DeclaredConstIsMustConst) {
  InfRig R;
  ASSERT_TRUE(R.analyze("int get(const int *p) { return *p; }"))
      << R.Diags.renderAll();
  const InterestingPos *P = R.pos("get", 0);
  ASSERT_NE(P, nullptr);
  EXPECT_TRUE(P->DeclaredConst);
  EXPECT_EQ(R.classOf("get", 0), PosClass::MustConst);
}

TEST(ConstInf, WriteToDeclaredConstIsAnError) {
  InfRig R;
  EXPECT_FALSE(R.analyze("void bad(const int *p) { *p = 1; }"));
  EXPECT_TRUE(R.Diags.hasErrors());
}

TEST(ConstInf, PaperSection41AssignmentExample) {
  // int x; const int y; x = y; -- y's constness does not affect x, because
  // const qualifies y's ref, not the int.
  InfRig R;
  ASSERT_TRUE(R.analyze("void f(void) { int x; const int y; x = y; }"))
      << R.Diags.renderAll();
}

TEST(ConstInf, PaperSection41PointerExample) {
  // int *x; const int *y; y = x; -- legal via ref subtyping after the
  // translation shifts const up one level.
  InfRig R;
  ASSERT_TRUE(R.analyze(
      "void f(void) { int *x; const int *y; int v; x = &v; y = x; }"))
      << R.Diags.renderAll();
}

TEST(ConstInf, ReverseFlowConstIntoNonConstPointerRejected) {
  // const int *y; int *x; x = y; *x = 1; -- writing through x would defeat
  // y's const; the invariant ref rule catches the alias.
  InfRig R;
  EXPECT_FALSE(R.analyze(
      "void f(const int *y) { int *x; x = (int *)0; x = y; *x = 1; }"));
}

TEST(ConstInf, IndirectWriteThroughAliasPropagates) {
  // Writing through an alias of p's target makes p's position non-const.
  InfRig R;
  ASSERT_TRUE(R.analyze(
      "void f(int *p) { int *q; q = p; *q = 4; }"))
      << R.Diags.renderAll();
  EXPECT_EQ(R.classOf("f", 0), PosClass::MustNonConst);
}

TEST(ConstInf, DoublePointerHasTwoPositions) {
  InfRig R;
  ASSERT_TRUE(R.analyze("int g(char **v) { return 0; }"))
      << R.Diags.renderAll();
  EXPECT_NE(R.pos("g", 0, 0), nullptr); // char * const * level... depth 0
  EXPECT_NE(R.pos("g", 0, 1), nullptr); // const char ** level
  unsigned Count = 0;
  for (const InterestingPos &P : R.Inf->positions())
    if (P.Fn->getName() == "g")
      ++Count;
  EXPECT_EQ(Count, 2u);
}

TEST(ConstInf, WriteAtOneLevelOnlyPinsThatLevel) {
  InfRig R;
  ASSERT_TRUE(R.analyze("void h(char **v) { *v = (char *)0; }"))
      << R.Diags.renderAll();
  EXPECT_EQ(R.classOf("h", 0, 0), PosClass::MustNonConst); // *v written
  EXPECT_EQ(R.classOf("h", 0, 1), PosClass::Either);       // **v untouched
}

TEST(ConstInf, ReturnPositionTrackedMono) {
  InfRig R;
  ASSERT_TRUE(R.analyze(
      "static int cell;\n"
      "int *give(void) { return &cell; }\n"
      "void user(void) { *give() = 5; }\n",
      /*Polymorphic=*/false))
      << R.Diags.renderAll();
  EXPECT_EQ(R.classOf("give", -1), PosClass::MustNonConst);
}

TEST(ConstInf, ReturnPositionGenericUnderPolymorphism) {
  // Under polymorphism the caller's write pins only its own instantiation;
  // the scheme variable stays unconstrained, and per Section 4.4 such
  // variables are counted as possible consts ("we need to leave these as
  // unconstrained variables, since they may be required to be const or
  // non-const in different contexts").
  InfRig R;
  ASSERT_TRUE(R.analyze(
      "static int cell;\n"
      "int *give(void) { return &cell; }\n"
      "void user(void) { *give() = 5; }\n",
      /*Polymorphic=*/true))
      << R.Diags.renderAll();
  EXPECT_EQ(R.classOf("give", -1), PosClass::Either);
}

TEST(ConstInf, UnusedReturnPointerMayBeConst) {
  InfRig R;
  ASSERT_TRUE(R.analyze(
      "static int cell;\n"
      "int *give(void) { return &cell; }\n"
      "int user(void) { return *give(); }\n"))
      << R.Diags.renderAll();
  EXPECT_EQ(R.classOf("give", -1), PosClass::Either);
}

//===----------------------------------------------------------------------===//
// Structs, typedefs, casts, library functions (Section 4.2)
//===----------------------------------------------------------------------===//

TEST(ConstInf, StructFieldsShareQualifiers) {
  // A write through one instance's field pins the field for all instances:
  // passing any struct st pointer's field cell must reflect the write.
  InfRig R;
  ASSERT_TRUE(R.analyze(
      "struct st { int *p; };\n"
      "void w(struct st *a) { *(a->p) = 1; }\n"
      "int r(struct st *b) { return *(b->p); }\n"))
      << R.Diags.renderAll();
  // Positions here are on the struct pointers themselves (depth 0).
  // The shared field means the *field's* pointee is written; the struct
  // pointer a is written through (field store) -- check a cannot be const
  // at depth 0? A field write does not write the struct cell itself...
  // The struct pointer positions stay Either (no direct struct writes).
  EXPECT_EQ(R.classOf("r", 0, 0), PosClass::Either);
}

TEST(ConstInf, StructAssignmentRequiresNonConstTarget) {
  InfRig R;
  ASSERT_TRUE(R.analyze(
      "struct st { int x; };\n"
      "void copy(struct st *d, struct st *s) { *d = *s; }\n"))
      << R.Diags.renderAll();
  EXPECT_EQ(R.classOf("copy", 0), PosClass::MustNonConst);
  EXPECT_EQ(R.classOf("copy", 1), PosClass::Either);
}

TEST(ConstInf, TypedefsDoNotShareQualifiers) {
  // typedef int *ip; ip c, d -- writing through c must not pin d.
  InfRig R;
  ASSERT_TRUE(R.analyze(
      "typedef int *ip;\n"
      "int reader(ip d) { return *d; }\n"
      "void writer(ip c) { *c = 1; }\n"))
      << R.Diags.renderAll();
  EXPECT_EQ(R.classOf("writer", 0), PosClass::MustNonConst);
  EXPECT_EQ(R.classOf("reader", 0), PosClass::Either);
}

TEST(ConstInf, ExplicitCastSeversFlow) {
  // Casting away the connection: the write through the cast result does not
  // pin p (matching the paper: casts lose the association). This models
  // "casting away const" being implementation-defined.
  InfRig R;
  ASSERT_TRUE(R.analyze(
      "void f(const int *p) { int *q; q = (int *)p; *q = 1; }"))
      << R.Diags.renderAll();
  EXPECT_EQ(R.classOf("f", 0), PosClass::MustConst); // still declared const
}

TEST(ConstInf, ImplicitFlowIsKept) {
  // Without the cast the same program is a const error.
  InfRig R;
  EXPECT_FALSE(R.analyze(
      "void f(const int *p) { int *q; q = p; *q = 1; }"));
}

TEST(ConstInf, LibraryFunctionParamsConservative) {
  // strcpy's first parameter is not declared const: passing p there forces
  // p non-const. The second is declared const: q stays free.
  InfRig R;
  ASSERT_TRUE(R.analyze(
      "char *strcpy(char *dst, const char *src);\n"
      "void f(char *p, char *q) { strcpy(p, q); }\n"))
      << R.Diags.renderAll();
  EXPECT_EQ(R.classOf("f", 0), PosClass::MustNonConst);
  EXPECT_EQ(R.classOf("f", 1), PosClass::Either);
}

TEST(ConstInf, ImplicitlyDeclaredFunctionForcesNonConst) {
  InfRig R;
  ASSERT_TRUE(R.analyze(
      "void f(int *p) { mystery(p); }"))
      << R.Diags.renderAll();
  EXPECT_EQ(R.classOf("f", 0), PosClass::MustNonConst);
}

TEST(ConstInf, VarargsExtraArgsForcedNonConst) {
  InfRig R;
  ASSERT_TRUE(R.analyze(
      "int printf(const char *fmt, ...);\n"
      "void f(const char *fmt, int *data) { printf(fmt, data); }\n"))
      << R.Diags.renderAll();
  EXPECT_EQ(R.classOf("f", 1), PosClass::MustNonConst);
}

TEST(ConstInf, DefinedFunctionsAreNotPenalized) {
  // Calling a *defined* function that only reads leaves the argument free.
  InfRig R;
  ASSERT_TRUE(R.analyze(
      "int reader(int *p) { return *p; }\n"
      "int f(int *q) { return reader(q); }\n"))
      << R.Diags.renderAll();
  EXPECT_EQ(R.classOf("f", 0), PosClass::Either);
}

TEST(ConstInf, CalleeWritePropagatesToCallerArgument) {
  InfRig R;
  ASSERT_TRUE(R.analyze(
      "void setter(int *p) { *p = 0; }\n"
      "void f(int *q) { setter(q); }\n"))
      << R.Diags.renderAll();
  EXPECT_EQ(R.classOf("f", 0), PosClass::MustNonConst);
}

//===----------------------------------------------------------------------===//
// FDG (Definition 4)
//===----------------------------------------------------------------------===//

TEST(ConstInf, FdgFindsMutualRecursion) {
  InfRig R;
  ASSERT_TRUE(R.analyze(
      "int even(int n);\n"
      "int odd(int n) { return n ? even(n - 1) : 0; }\n"
      "int even(int n) { return n ? odd(n - 1) : 1; }\n"
      "int main(void) { return even(10); }\n"))
      << R.Diags.renderAll();
  Fdg G = buildFdg(R.TU);
  unsigned Even = G.NodeOf.at(R.TU.FunctionMap.at("even")->getId());
  unsigned Odd = G.NodeOf.at(R.TU.FunctionMap.at("odd")->getId());
  unsigned Main = G.NodeOf.at(R.TU.FunctionMap.at("main")->getId());
  EXPECT_EQ(G.Sccs.ComponentOf[Even], G.Sccs.ComponentOf[Odd]);
  EXPECT_NE(G.Sccs.ComponentOf[Even], G.Sccs.ComponentOf[Main]);
  // Callees first.
  EXPECT_LT(G.Sccs.ComponentOf[Even], G.Sccs.ComponentOf[Main]);
}

TEST(ConstInf, FdgCountsAddressTakenReferences) {
  InfRig R;
  ASSERT_TRUE(R.analyze(
      "int cb(int x) { return x; }\n"
      "int (*get(void))(int) { return cb; }\n"))
      << R.Diags.renderAll();
  Fdg G = buildFdg(R.TU);
  unsigned Cb = G.NodeOf.at(R.TU.FunctionMap.at("cb")->getId());
  unsigned Get = G.NodeOf.at(R.TU.FunctionMap.at("get")->getId());
  EXPECT_LT(G.Sccs.ComponentOf[Cb], G.Sccs.ComponentOf[Get]);
}

//===----------------------------------------------------------------------===//
// Repeated runs over one unit (memo tables are indexed by declaration id)
//===----------------------------------------------------------------------===//

/// Exercises every id-indexed table: globals, records, prototypes completed
/// by definitions, library functions and a polymorphic callee.
static const char *RerunProgram =
    "struct pt { int *x; int *y; };\n"
    "int g;\n"
    "int *id(int *p);\n"
    "int strlen(const char *s);\n"
    "int *id(int *p) { return p; }\n"
    "void w(int *q) { *id(q) = 1; }\n"
    "int r(int *s) { return *id(s) + g; }\n"
    "int getx(struct pt *v) { *v->y = 0; return *v->x; }\n"
    "int len(char *c) { return strlen(c); }\n"
    "int leaf(int *a, int *b) { *b = *a; return 0; }\n";

/// One "fn#param@depth=class" line per position, then the prototypes.
std::string describe(const ConstInference &Inf) {
  std::string Out;
  for (const ClassifiedPos &CP : Inf.classifiedPositions())
    Out += std::string(CP.Pos.Fn->getName()) + "#" +
           std::to_string(CP.Pos.ParamIndex) + "@" +
           std::to_string(CP.Pos.Depth) + "=" +
           std::to_string(static_cast<int>(CP.Class)) + "\n";
  return Out + Inf.renderAnnotatedPrototypes();
}

/// Runs a second inference over \p R's already analyzed unit.
std::string runOver(InfRig &R, bool Polymorphic) {
  ConstInference::Options Opts;
  Opts.Polymorphic = Polymorphic;
  ConstInference Inf(R.TU, R.Diags, Opts);
  EXPECT_TRUE(Inf.run()) << R.Diags.renderAll();
  return describe(Inf);
}

TEST(ConstInf, RerunsOverOneUnitClassifyLikeFreshUnits) {
  // Mono then poly over one unit, the pattern of the whole-program bench.
  InfRig Fresh;
  ASSERT_TRUE(Fresh.analyze(RerunProgram, /*Polymorphic=*/false))
      << Fresh.Diags.renderAll();
  std::string MonoFresh = describe(*Fresh.Inf);
  InfRig FreshPoly;
  ASSERT_TRUE(FreshPoly.analyze(RerunProgram, /*Polymorphic=*/true));
  std::string PolyFresh = describe(*FreshPoly.Inf);
  ASSERT_NE(MonoFresh, PolyFresh); // r's s is const only under poly.

  InfRig Shared;
  ASSERT_TRUE(Shared.analyze(RerunProgram, /*Polymorphic=*/false));
  EXPECT_EQ(describe(*Shared.Inf), MonoFresh);
  EXPECT_EQ(runOver(Shared, /*Polymorphic=*/true), PolyFresh);
  EXPECT_EQ(runOver(Shared, /*Polymorphic=*/false), MonoFresh);
}

//===----------------------------------------------------------------------===//
// Monomorphic vs polymorphic inference (Sections 3.2 and 4.3)
//===----------------------------------------------------------------------===//

/// The paper's introduction example: one id function used at a const and a
/// written-through context.
static const char *IdProgram =
    "int *id(int *x) { return x; }\n"
    "void writer(int *p) { *id(p) = 1; }\n"
    "int reader(const int *q) { return *id((int *)q); }\n";

TEST(ConstInf, MonomorphicIdConflatesUses) {
  InfRig R;
  ASSERT_TRUE(R.analyze(IdProgram, /*Polymorphic=*/false))
      << R.Diags.renderAll();
  // In mono mode the write through one use of id pins id's parameter.
  EXPECT_EQ(R.classOf("id", 0), PosClass::MustNonConst);
}

TEST(ConstInf, PolymorphicIdKeepsUsesSeparate) {
  InfRig R;
  ASSERT_TRUE(R.analyze(IdProgram, /*Polymorphic=*/true))
      << R.Diags.renderAll();
  // Poly: id's own interface stays unconstrained.
  EXPECT_EQ(R.classOf("id", 0), PosClass::Either);
  const QualScheme *S =
      R.Inf->schemeFor(R.TU.FunctionMap.at("id"));
  ASSERT_NE(S, nullptr);
  EXPECT_TRUE(S->isPolymorphic());
}

TEST(ConstInf, PolyCountsAtLeastMonoCounts) {
  // On the same program the polymorphic analysis never allows fewer consts.
  const char *Prog =
      "int *id(int *x) { return x; }\n"
      "void w(int *p) { *id(p) = 1; }\n"
      "int r(int *q) { return *id(q); }\n"
      "void through(int *a, int *b) { w(id(a)); r(id(b)); }\n";
  InfRig Mono, Poly;
  ASSERT_TRUE(Mono.analyze(Prog, false)) << Mono.Diags.renderAll();
  ASSERT_TRUE(Poly.analyze(Prog, true)) << Poly.Diags.renderAll();
  EXPECT_GE(Poly.Inf->counts().PossibleConst,
            Mono.Inf->counts().PossibleConst);
  EXPECT_EQ(Poly.Inf->counts().Total, Mono.Inf->counts().Total);
}

TEST(ConstInf, StrchrPatternBenefitsFromPolymorphism) {
  // The introduction's strchr: takes const char *, returns char * into the
  // same string. With our own poly strchr clone, a caller that writes the
  // result pins only its own instantiation.
  const char *Prog =
      "char *find(char *s, int c) {\n"
      "  while (*s && *s != c) s = s + 1;\n"
      "  return s;\n"
      "}\n"
      "void scribble(char *buf) { *find(buf, 'x') = '!'; }\n"
      "int probe(char *msg) { return *find(msg, 'y'); }\n";
  InfRig Poly;
  ASSERT_TRUE(Poly.analyze(Prog, true)) << Poly.Diags.renderAll();
  // find's own parameter is read-only within find+probe; only scribble's
  // buf gets pinned.
  EXPECT_EQ(Poly.classOf("scribble", 0), PosClass::MustNonConst);
  EXPECT_EQ(Poly.classOf("probe", 0), PosClass::Either);
  EXPECT_EQ(Poly.classOf("find", 0), PosClass::Either);

  InfRig Mono;
  ASSERT_TRUE(Mono.analyze(Prog, false)) << Mono.Diags.renderAll();
  EXPECT_EQ(Mono.classOf("probe", 0), PosClass::MustNonConst);
}

TEST(ConstInf, RecursiveFunctionAnalyzed) {
  InfRig R;
  ASSERT_TRUE(R.analyze(
      "int len(const char *s) { return *s ? 1 + len(s + 1) : 0; }\n"))
      << R.Diags.renderAll();
  EXPECT_EQ(R.classOf("len", 0), PosClass::MustConst);
}

TEST(ConstInf, GlobalInitializersAnalyzedAfterTraversal) {
  InfRig R;
  ASSERT_TRUE(R.analyze(
      "int cell;\n"
      "int *global_ptr = &cell;\n"
      "void w(void) { *global_ptr = 2; }\n"))
      << R.Diags.renderAll();
}

TEST(ConstInf, GlobalsStayMonomorphic) {
  // A global pointer written through in one function pins it everywhere.
  InfRig R;
  ASSERT_TRUE(R.analyze(
      "int *shared;\n"
      "void setup(int *p) { shared = p; }\n"
      "void mutate(void) { *shared = 7; }\n",
      /*Polymorphic=*/true))
      << R.Diags.renderAll();
  EXPECT_EQ(R.classOf("setup", 0), PosClass::MustNonConst);
}

TEST(ConstInf, CountsAreConsistent) {
  InfRig R;
  ASSERT_TRUE(R.analyze(
      "int g1(const int *a, int *b) { *b = *a; return 0; }\n"
      "char *g2(char *s) { return s; }\n"))
      << R.Diags.renderAll();
  ConstCounts C = R.Inf->counts();
  EXPECT_EQ(C.Total, 4u); // a, b, s, g2 return
  EXPECT_EQ(C.Declared, 1u);
  EXPECT_EQ(C.PossibleConst + C.MustNonConst, C.Total);
  EXPECT_GE(C.PossibleConst, C.Declared);
}

TEST(ConstInf, AnnotatedPrototypesShowInferredConsts) {
  InfRig R;
  ASSERT_TRUE(R.analyze(
      "int read_only(int *p) { return *p; }\n"
      "void write_it(int *p) { *p = 0; }\n"))
      << R.Diags.renderAll();
  std::string Protos = R.Inf->renderAnnotatedPrototypes();
  EXPECT_NE(Protos.find("read_only(const int *"), std::string::npos)
      << Protos;
  EXPECT_NE(Protos.find("write_it(int *"), std::string::npos) << Protos;
}

TEST(ConstInf, ArrayParameterTreatedAsPointer) {
  InfRig R;
  ASSERT_TRUE(R.analyze(
      "int sum(int v[], int n) {\n"
      "  int i; int t = 0;\n"
      "  for (i = 0; i < n; i++) t += v[i];\n"
      "  return t;\n"
      "}\n"))
      << R.Diags.renderAll();
  EXPECT_EQ(R.classOf("sum", 0), PosClass::Either);
}

TEST(ConstInf, ArrayElementWritePins) {
  InfRig R;
  ASSERT_TRUE(R.analyze(
      "void clear(int v[], int n) {\n"
      "  int i;\n"
      "  for (i = 0; i < n; i++) v[i] = 0;\n"
      "}\n"))
      << R.Diags.renderAll();
  EXPECT_EQ(R.classOf("clear", 0), PosClass::MustNonConst);
}

TEST(ConstInf, FunctionPointerCallsConstrainArguments) {
  // Monomorphically: writer flows into fp, fp's parameter is written
  // through, and x/y flow into it -- everything is pinned.
  InfRig R;
  ASSERT_TRUE(R.analyze(
      "void apply(void (*fp)(int *), int *x) { fp(x); }\n"
      "void writer(int *p) { *p = 1; }\n"
      "void use(int *y) { apply(writer, y); }\n",
      /*Polymorphic=*/false))
      << R.Diags.renderAll();
  EXPECT_EQ(R.classOf("writer", 0), PosClass::MustNonConst);
  EXPECT_EQ(R.classOf("apply", 1), PosClass::MustNonConst);
  EXPECT_EQ(R.classOf("use", 0), PosClass::MustNonConst);
}

TEST(ConstInf, UnreferencedDeclarationsAddNoVariables) {
  // Library interfaces and extern cells are translated on first use, so
  // declarations the unit never uses add no variables and no constraints.
  const std::string Unit = "int puts(const char *s);\n"
                           "extern int *counter;\n"
                           "int *keep;\n"
                           "int log_it(char *msg) { *counter = 1;"
                           " return puts(msg); }\n"
                           "void save(int *p) { keep = p; }\n";
  std::string Headers;
  for (int I = 0; I != 100; ++I) {
    std::string N = std::to_string(I);
    Headers += "int lib" + N + "(int *p, const char **q);\n";
    Headers += "extern int *ext" + N + ";\n";
  }
  for (bool Polymorphic : {true, false}) {
    SCOPED_TRACE(Polymorphic ? "poly" : "mono");
    InfRig Alone, WithHeaders;
    ASSERT_TRUE(Alone.analyze(Unit, Polymorphic)) << Alone.Diags.renderAll();
    ASSERT_TRUE(WithHeaders.analyze(Headers + Unit, Polymorphic))
        << WithHeaders.Diags.renderAll();
    EXPECT_EQ(Alone.Inf->numQualVars(), WithHeaders.Inf->numQualVars());
    EXPECT_EQ(Alone.Inf->numConstraints(),
              WithHeaders.Inf->numConstraints());
    EXPECT_EQ(Alone.Inf->renderAnnotatedPrototypes(),
              WithHeaders.Inf->renderAnnotatedPrototypes());
  }
}

} // namespace
