//===- tests/hardening_test.cpp - Hostile-input robustness ----------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
//
// The resource-limit contract (support/Limits.h, docs/ROBUSTNESS.md):
// truncated, malformed, and adversarially huge inputs must end in rendered
// diagnostics and a clean failure return -- never a stack overflow, OOM
// kill, or assert. The nesting tests go to depth 100'000, far past what an
// unguarded recursive-descent parser survives on a default stack, so a
// regression here crashes the test instead of silently shipping.
//
//===----------------------------------------------------------------------===//

#include "cfront/CParser.h"
#include "cfront/CSema.h"
#include "constinf/ConstInfer.h"
#include "lambda/Parser.h"
#include "lambda/QualInfer.h"
#include "support/Diagnostics.h"

#include "gtest/gtest.h"

#include <string>

using namespace quals;

namespace {

/// Everything one C-pipeline run produces.
struct CRun {
  bool Parsed = false;
  bool SemaOk = false;
  bool InferOk = false;
  unsigned NumErrors = 0;
  bool Bailed = false;
  std::string Rendered;
};

/// Runs the full qualcc pipeline over \p Source under \p Lim; must return
/// (the point of this test suite) regardless of input.
CRun runC(const std::string &Source, Limits Lim = Limits()) {
  SourceManager SM;
  DiagnosticEngine Diags(SM, Lim);
  cfront::CAstContext Ast;
  cfront::CTypeContext Types;
  StringInterner Idents;
  cfront::TranslationUnit TU;
  CRun R;
  R.Parsed = cfront::parseCSource(SM, "hostile.c", Source, Ast, Types,
                                  Idents, Diags, TU);
  if (R.Parsed) {
    cfront::CSema Sema(Ast, Types, Idents, Diags);
    R.SemaOk = Sema.analyze(TU);
    if (R.SemaOk) {
      constinf::ConstInference Inf(TU, Diags, {});
      R.InferOk = Inf.run();
    }
  }
  R.NumErrors = Diags.getNumErrors();
  R.Bailed = Diags.shouldBail();
  R.Rendered = Diags.renderAll();
  return R;
}

/// Everything one lambda-pipeline run produces.
struct LambdaRun {
  bool Parsed = false;
  bool StdTypeOk = false;
  bool QualOk = false;
  bool Bailed = false;
  std::string Rendered;
};

/// Runs the full qualcheck pipeline over \p Source under \p Lim.
LambdaRun runLambdaSrc(const std::string &Source, Limits Lim = Limits()) {
  QualifierSet QS;
  QualifierId ConstQual = QS.add("const", Polarity::Positive);

  SourceManager SM;
  DiagnosticEngine Diags(SM, Lim);
  lambda::AstContext Ast;
  StringInterner Idents;
  LambdaRun R;
  const lambda::Expr *Program =
      lambda::parseString(SM, "hostile.q", Source, QS, Ast, Idents, Diags);
  R.Parsed = Program != nullptr;
  if (Program) {
    lambda::STyContext STys;
    SolverConfig Config;
    Config.MaxConstraints = Lim.MaxConstraints;
    ConstraintSystem Sys(QS, Config);
    QualTypeFactory Factory;
    lambda::LambdaTypeCtors Ctors;
    lambda::QualInferOptions Options;
    Options.ConstQual = ConstQual;
    lambda::CheckResult Result = lambda::checkProgram(
        Program, QS, STys, Sys, Factory, Ctors, Diags, Options);
    R.StdTypeOk = Result.StdTypeOk;
    R.QualOk = Result.QualOk;
  }
  R.Bailed = Diags.shouldBail();
  R.Rendered = Diags.renderAll();
  return R;
}

//===----------------------------------------------------------------------===//
// Satellite: deep nesting must hit the depth budget, not the stack.
//===----------------------------------------------------------------------===//

TEST(HardeningDepth, CParensAtDepth100k) {
  std::string Source = "int f(void) { return ";
  Source.append(100000, '(');
  Source += "1";
  Source.append(100000, ')');
  Source += "; }\n";
  CRun R = runC(Source);
  EXPECT_FALSE(R.Parsed);
  EXPECT_TRUE(R.Bailed);
  EXPECT_NE(R.Rendered.find("fatal: resource limit"), std::string::npos)
      << R.Rendered;
  EXPECT_NE(R.Rendered.find("nesting too deep"), std::string::npos);
}

TEST(HardeningDepth, CDeclaratorAtDepth100k) {
  std::string Source = "int ";
  Source.append(100000, '(');
  Source += "*p";
  Source.append(100000, ')');
  Source += ";\n";
  CRun R = runC(Source);
  EXPECT_FALSE(R.Parsed);
  EXPECT_TRUE(R.Bailed);
  EXPECT_NE(R.Rendered.find("nesting too deep"), std::string::npos);
}

TEST(HardeningDepth, CInitializerAtDepth100k) {
  std::string Source = "int a = ";
  Source.append(100000, '{');
  Source += "1";
  Source.append(100000, '}');
  Source += ";\n";
  CRun R = runC(Source);
  EXPECT_FALSE(R.Parsed);
  EXPECT_TRUE(R.Bailed);
  EXPECT_NE(R.Rendered.find("nesting too deep"), std::string::npos);
}

TEST(HardeningDepth, CStatementsAtDepth100k) {
  std::string Source = "void f(void) { ";
  for (int I = 0; I != 100000; ++I)
    Source += "if (1) ";
  Source += "return;";
  Source += " }\n";
  CRun R = runC(Source);
  EXPECT_FALSE(R.Parsed);
  EXPECT_TRUE(R.Bailed);
  EXPECT_NE(R.Rendered.find("nesting too deep"), std::string::npos);
}

TEST(HardeningDepth, LambdaFnChainAtDepth100k) {
  std::string Source;
  for (int I = 0; I != 100000; ++I)
    Source += "fn x. ";
  Source += "x";
  LambdaRun R = runLambdaSrc(Source);
  EXPECT_FALSE(R.Parsed);
  EXPECT_TRUE(R.Bailed);
  EXPECT_NE(R.Rendered.find("nesting too deep"), std::string::npos);
}

TEST(HardeningDepth, LambdaBangChainAtDepth100k) {
  std::string Source(100000, '!');
  Source += "1";
  LambdaRun R = runLambdaSrc(Source);
  EXPECT_FALSE(R.Parsed);
  EXPECT_TRUE(R.Bailed);
  EXPECT_NE(R.Rendered.find("nesting too deep"), std::string::npos);
}

TEST(HardeningDepth, ReasonableNestingStillParses) {
  // The default budget must not reject plausible human code.
  std::string Source = "int f(void) { return ";
  Source.append(40, '(');
  Source += "1";
  Source.append(40, ')');
  Source += "; }\n";
  CRun R = runC(Source);
  EXPECT_TRUE(R.Parsed);
  EXPECT_TRUE(R.InferOk) << R.Rendered;
  EXPECT_FALSE(R.Bailed);
}

TEST(HardeningDepth, ZeroMeansUnlimitedAcceptsModerateDepth) {
  Limits Lim;
  Lim.MaxRecursionDepth = 0;
  std::string Source = "int f(void) { return ";
  Source.append(500, '(');
  Source += "1";
  Source.append(500, ')');
  Source += "; }\n";
  CRun R = runC(Source, Lim);
  EXPECT_TRUE(R.Parsed) << R.Rendered;
  EXPECT_FALSE(R.Bailed);
}

//===----------------------------------------------------------------------===//
// Satellite: the error cap stops diagnostic floods.
//===----------------------------------------------------------------------===//

TEST(HardeningErrorCap, FloodOfErrorsHitsCap) {
  // 1000 statements referencing undeclared variables; the default cap (64)
  // must bail long before all of them are diagnosed and recorded.
  std::string Source = "void f(void) {\n";
  for (int I = 0; I != 1000; ++I)
    Source += "  undeclared_" + std::to_string(I) + " = 1;\n";
  Source += "}\n";
  CRun R = runC(Source);
  EXPECT_FALSE(R.SemaOk);
  EXPECT_TRUE(R.Bailed);
  EXPECT_NE(R.Rendered.find("too many errors"), std::string::npos);
  // Recorded diagnostics are capped even though more errors were counted.
  Limits Defaults;
  EXPECT_GE(R.NumErrors, Defaults.MaxErrors);
}

TEST(HardeningErrorCap, CustomCapOfOneBailsImmediately) {
  Limits Lim;
  Lim.MaxErrors = 1;
  CRun R = runC("void f(void) { a = 1; b = 2; }\n", Lim);
  EXPECT_TRUE(R.Bailed);
  EXPECT_NE(R.Rendered.find("too many errors"), std::string::npos);
}

TEST(HardeningErrorCap, ZeroMeansUnlimited) {
  Limits Lim;
  Lim.MaxErrors = 0;
  std::string Source = "void f(void) {\n";
  for (int I = 0; I != 200; ++I)
    Source += "  undeclared_" + std::to_string(I) + " = 1;\n";
  Source += "}\n";
  CRun R = runC(Source, Lim);
  EXPECT_FALSE(R.SemaOk);
  EXPECT_FALSE(R.Bailed);
  EXPECT_GE(R.NumErrors, 200u);
}

//===----------------------------------------------------------------------===//
// Satellite: integer literals that overflow are diagnosed, not wrapped.
//===----------------------------------------------------------------------===//

TEST(HardeningLexer, COverflowLiteralDiagnosed) {
  CRun R = runC("int f(void) { return 99999999999999999999999999; }\n");
  EXPECT_NE(R.Rendered.find("integer literal out of range"),
            std::string::npos)
      << R.Rendered;
}

TEST(HardeningLexer, CMaxLongStillAccepted) {
  CRun R = runC("long f(void) { return 9223372036854775807; }\n");
  EXPECT_EQ(R.Rendered.find("integer literal out of range"),
            std::string::npos)
      << R.Rendered;
}

TEST(HardeningLexer, LambdaOverflowLiteralDiagnosed) {
  LambdaRun R = runLambdaSrc("99999999999999999999999999");
  EXPECT_NE(R.Rendered.find("integer literal out of range"),
            std::string::npos)
      << R.Rendered;
}

//===----------------------------------------------------------------------===//
// Tentpole: constraint and arena budgets surface as fatal diagnostics.
//===----------------------------------------------------------------------===//

TEST(HardeningBudgets, ConstraintBudgetExhaustionIsFatal) {
  // A tiny budget that any real program exceeds.
  Limits Lim;
  Lim.MaxConstraints = 4;
  CRun R = runC("void set(int *p, int v) { *p = v; }\n"
                "int get(int *p) { return *p; }\n"
                "int roundtrip(int *a, int *b) {\n"
                "  set(a, get(b));\n"
                "  return get(a);\n"
                "}\n",
                Lim);
  EXPECT_TRUE(R.Parsed);
  EXPECT_TRUE(R.SemaOk);
  EXPECT_FALSE(R.InferOk);
  EXPECT_NE(R.Rendered.find("constraint budget exhausted"),
            std::string::npos)
      << R.Rendered;
}

TEST(HardeningBudgets, LambdaConstraintBudgetExhaustionIsFatal) {
  Limits Lim;
  Lim.MaxConstraints = 2;
  LambdaRun R = runLambdaSrc("let id = fn x. x in id (ref 1) ni", Lim);
  EXPECT_TRUE(R.Parsed);
  EXPECT_FALSE(R.StdTypeOk);
  EXPECT_NE(R.Rendered.find("constraint budget exhausted"),
            std::string::npos)
      << R.Rendered;
}

TEST(HardeningBudgets, ArenaBudgetExhaustionIsFatal) {
  // A one-byte arena budget trips on the first allocation after the
  // engine's baseline snapshot.
  Limits Lim;
  Lim.MaxArenaBytes = 1;
  CRun R = runC("int f(void) { return 1; }\n"
                "int g(void) { return f(); }\n",
                Lim);
  EXPECT_FALSE(R.InferOk);
  EXPECT_TRUE(R.Bailed);
  EXPECT_NE(R.Rendered.find("arena bytes"), std::string::npos)
      << R.Rendered;
}

//===----------------------------------------------------------------------===//
// Garbage and truncation through both front ends.
//===----------------------------------------------------------------------===//

TEST(HardeningGarbage, CBinaryGarbageFailsCleanly) {
  std::string Garbage;
  for (int I = 0; I != 256; ++I)
    Garbage += static_cast<char>(I);
  CRun R = runC(Garbage);
  EXPECT_FALSE(R.Parsed);
  EXPECT_GE(R.NumErrors, 1u);
}

TEST(HardeningGarbage, LambdaBinaryGarbageFailsCleanly) {
  std::string Garbage("\x7f\x00\xff\n\"\\", 6); // embedded NUL included
  LambdaRun R = runLambdaSrc(Garbage);
  EXPECT_FALSE(R.Parsed);
}

TEST(HardeningGarbage, CTruncatedFunctionFailsCleanly) {
  CRun R = runC("int f(int x) { return x +");
  EXPECT_FALSE(R.Parsed);
  EXPECT_GE(R.NumErrors, 1u);
}

TEST(HardeningGarbage, LambdaTruncatedLetFailsCleanly) {
  LambdaRun R = runLambdaSrc("let x = fn y.");
  EXPECT_FALSE(R.Parsed);
}

TEST(HardeningGarbage, CUnterminatedCommentFailsCleanly) {
  CRun R = runC("int f(void) { return 1; } /* never closed");
  EXPECT_GE(R.NumErrors, 1u);
}

} // namespace
