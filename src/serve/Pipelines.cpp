//===- serve/Pipelines.cpp - Per-request analysis pipelines ----------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//

#include "serve/Pipelines.h"

#include "cfront/FrontEnd.h"
#include "constinf/ConstInfer.h"
#include "lambda/Parser.h"
#include "lambda/QualInfer.h"
#include "support/Hash.h"
#include "support/Metrics.h"
#include "support/TextIO.h"

using namespace quals;
using namespace quals::serve;

uint64_t quals::serve::configHash(const AnalyzeJob &Job) {
  HashBuilder B;
  B.add(Job.Language)
      .add(Job.Name)
      .add(Job.Polymorphic)
      .add(Job.Protos)
      .add(static_cast<uint64_t>(Job.Lim.MaxErrors))
      .add(static_cast<uint64_t>(Job.Lim.MaxRecursionDepth))
      .add(Job.Lim.MaxConstraints)
      .add(Job.Lim.MaxArenaBytes);
  return B.digest();
}

namespace {

/// The qualcc pipeline over one in-memory buffer: parse, sema, const
/// inference. Timing lines are deliberately omitted (see the header).
void runC(const AnalyzeJob &Job, CachedResult &R) {
  using namespace quals::cfront;
  using namespace quals::constinf;

  FrontEnd FE(Job.Lim);
  if (!FE.parse(Job.Name, Job.Source) || !FE.analyze()) {
    R.Err += FE.Diags.renderAll();
    R.ExitCode = 1;
    return;
  }

  ConstInference::Options InfOpts;
  InfOpts.Polymorphic = Job.Polymorphic;
  ConstInference Inf(FE.TU, FE.Diags, InfOpts);
  if (!Inf.run()) {
    appendf(R.Err, "qualsd: const errors detected:\n%s",
            FE.Diags.renderAll().c_str());
    R.ExitCode = 2;
    return;
  }
  std::vector<ClassifiedPos> Positions = Inf.classifiedPositions();
  if (Job.Protos)
    R.Out += renderAnnotatedPrototypes(Positions);
  ConstCounts C = countPositions(Positions);
  appendf(R.Out,
          "declared %u, inferred possible-const %u, total positions %u\n",
          C.Declared, C.PossibleConst, C.Total);
}

/// The qualcheck pipeline over one in-memory buffer with the default
/// qualifier set; no evaluation (servers check, they don't run programs).
void runLambda(const AnalyzeJob &Job, CachedResult &R) {
  using namespace quals::lambda;

  QualifierSet QS;
  std::string SpecError; // Never set: the default spec parses.
  parseQualifierSpec(DefaultQualifierSpec, QS, SpecError);
  QualifierId ConstQual = 0;
  QS.lookup("const", ConstQual);

  SourceManager SM;
  DiagnosticEngine Diags(SM, Job.Lim);
  AstContext Ast;
  StringInterner Idents;
  const Expr *Program =
      parseString(SM, Job.Name, Job.Source, QS, Ast, Idents, Diags);
  if (!Program) {
    R.Err += Diags.renderAll();
    R.ExitCode = 1;
    return;
  }

  STyContext STys;
  SolverConfig SysConfig;
  SysConfig.MaxConstraints = Job.Lim.MaxConstraints;
  ConstraintSystem Sys(QS, SysConfig);
  QualTypeFactory Factory;
  LambdaTypeCtors Ctors;
  QualInferOptions Options;
  Options.Polymorphic = Job.Polymorphic;
  Options.ConstQual = ConstQual;

  CheckResult Result =
      checkProgram(Program, QS, STys, Sys, Factory, Ctors, Diags, Options);
  if (!Result.StdTypeOk) {
    R.Err += Diags.renderAll();
    R.ExitCode = 1;
    return;
  }
  appendf(R.Out, "qualified type: %s\n",
          toString(QS, Result.Type, &Sys).c_str());
  if (!Result.QualOk) {
    R.Out += "qualifier check: REJECTED\n";
    ViolationExplainer Explainer(Sys);
    for (const Violation &V : Result.Violations)
      R.Out += Explainer.explain(V);
    R.ExitCode = 2;
    return;
  }
  appendf(R.Out, "qualifier check: accepted (%s)\n",
          Job.Polymorphic ? "polymorphic" : "monomorphic");
}

} // namespace

void quals::serve::runAnalysis(const AnalyzeJob &Job, CachedResult &R) {
  PhaseScope Phase("serve.analyze", "serve");
  if (Job.Language == "lambda")
    runLambda(Job, R);
  else
    runC(Job, R);
}
