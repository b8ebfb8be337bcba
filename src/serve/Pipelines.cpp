//===- serve/Pipelines.cpp - Per-request analysis pipelines ----------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//

#include "serve/Pipelines.h"

#include "cfront/CParser.h"
#include "cfront/CSema.h"
#include "constinf/ConstInfer.h"
#include "constinf/Summary.h"
#include "lambda/Parser.h"
#include "lambda/QualInfer.h"
#include "support/Hash.h"
#include "support/Metrics.h"

#include <cstdarg>
#include <cstdio>

using namespace quals;
using namespace quals::serve;

uint64_t quals::serve::configHash(const AnalyzeJob &Job) {
  HashBuilder B;
  B.add(static_cast<uint64_t>(ResultCache::FormatVersion))
      .add(Job.Language)
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

void appendf(std::string &Buf, const char *Fmt, ...)
    __attribute__((format(printf, 2, 3)));

void appendf(std::string &Buf, const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  char Stack[256];
  int Needed = std::vsnprintf(Stack, sizeof(Stack), Fmt, Args);
  va_end(Args);
  if (Needed < 0)
    return;
  if (static_cast<size_t>(Needed) < sizeof(Stack)) {
    Buf.append(Stack, Needed);
    return;
  }
  size_t Old = Buf.size();
  Buf.resize(Old + Needed + 1);
  va_start(Args, Fmt);
  std::vsnprintf(&Buf[Old], Needed + 1, Fmt, Args);
  va_end(Args);
  Buf.resize(Old + Needed);
}

/// One isolated C front-end context: the per-request state runC and the
/// analyze-delta pipeline share (parse + sema staging).
struct CUnit {
  SourceManager SM;
  DiagnosticEngine Diags;
  cfront::CAstContext Ast;
  cfront::CTypeContext Types;
  StringInterner Idents;
  cfront::TranslationUnit TU;

  explicit CUnit(const Limits &Lim) : Diags(SM, Lim) {}

  /// Parse + sema. On failure fills \p R exactly like the cold pipeline
  /// (stderr diagnostics, exit 1) and returns false.
  bool frontend(const AnalyzeJob &Job, CachedResult &R) {
    using namespace quals::cfront;
    if (!parseCSource(SM, Job.Name, Job.Source, Ast, Types, Idents, Diags,
                      TU)) {
      R.Err += Diags.renderAll();
      R.ExitCode = 1;
      return false;
    }
    CSema Sema(Ast, Types, Idents, Diags);
    if (!Sema.analyze(TU)) {
      R.Err += Diags.renderAll();
      R.ExitCode = 1;
      return false;
    }
    return true;
  }
};

/// Renders the success report (optionally prototypes, then the counts
/// banner) from an explicit classification list. Both the cold and the
/// incremental path flow through here, so their bytes cannot diverge.
void renderCReport(const AnalyzeJob &Job,
                   const std::vector<constinf::ClassifiedPos> &Positions,
                   CachedResult &R) {
  using namespace quals::constinf;
  if (Job.Protos)
    R.Out += renderAnnotatedPrototypes(Positions);
  ConstCounts C = countPositions(Positions);
  appendf(R.Out,
          "declared %u, inferred possible-const %u, total positions %u\n",
          C.Declared, C.PossibleConst, C.Total);
}

/// Const inference over an already parsed+analyzed unit; shared by the cold
/// pipeline and the incremental path's full-fallback branch.
void runCInference(const AnalyzeJob &Job, CUnit &U, CachedResult &R,
                   std::shared_ptr<const constinf::UnitSnapshot> *Capture) {
  using namespace quals::constinf;
  ConstInference::Options InfOpts;
  InfOpts.Polymorphic = Job.Polymorphic;
  ConstInference Inf(U.TU, U.Diags, InfOpts);
  if (!Inf.run()) {
    appendf(R.Err, "qualsd: const errors detected:\n%s",
            U.Diags.renderAll().c_str());
    R.ExitCode = 2;
    return;
  }
  renderCReport(Job, Inf.classifiedPositions(), R);
  if (Capture)
    *Capture = captureSnapshot(U.TU, Inf);
}

/// The qualcc pipeline over one in-memory buffer: parse, sema, const
/// inference. Timing lines are deliberately omitted (see the header).
void runC(const AnalyzeJob &Job, CachedResult &R,
          std::shared_ptr<const constinf::UnitSnapshot> *Capture) {
  CUnit U(Job.Lim);
  if (!U.frontend(Job, R))
    return;
  runCInference(Job, U, R, Capture);
}

/// The qualcheck pipeline over one in-memory buffer with the default
/// qualifier set; no evaluation (servers check, they don't run programs).
void runLambda(const AnalyzeJob &Job, CachedResult &R) {
  using namespace quals::lambda;

  QualifierSet QS;
  QualifierId ConstQual = QS.add("const", Polarity::Positive);
  QS.add("nonzero", Polarity::Negative);
  QS.add("dynamic", Polarity::Positive);
  QS.add("tainted", Polarity::Positive);

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
    for (const Violation &V : Result.Violations)
      R.Out += Sys.explain(V);
    R.ExitCode = 2;
    return;
  }
  appendf(R.Out, "qualifier check: accepted (%s)\n",
          Job.Polymorphic ? "polymorphic" : "monomorphic");
}

} // namespace

void quals::serve::runAnalysis(
    const AnalyzeJob &Job, CachedResult &R,
    std::shared_ptr<const constinf::UnitSnapshot> *Capture) {
  PhaseScope Phase("serve.analyze", "serve");
  if (Job.Language == "lambda")
    runLambda(Job, R);
  else
    runC(Job, R, Capture);
}

void quals::serve::runAnalysisDelta(
    const AnalyzeJob &Job, const constinf::UnitSnapshot &Prev,
    CachedResult &R, std::shared_ptr<const constinf::UnitSnapshot> &Next,
    DeltaOutcome &Outcome) {
  using namespace quals::constinf;

  Next = nullptr;
  auto fallBack = [&](const char *Reason) {
    Outcome.UsedDelta = false;
    Outcome.FallbackReason = Reason;
  };

  if (Job.Language == "lambda") {
    // The lambda pipeline has no incremental layer; serve it cold.
    fallBack("language");
    runAnalysis(Job, R, nullptr);
    return;
  }

  PhaseScope Phase("serve.analyze", "serve");
  CUnit U(Job.Lim);
  if (!U.frontend(Job, R)) {
    // Front-end failure: R already holds the exact cold bytes (the cold
    // pipeline stops at the same point with the same diagnostics).
    fallBack("frontend-error");
    return;
  }

  // Plan against the snapshot; any structural surprise means the snapshot's
  // node numbering or interfaces no longer line up, so run the rest of the
  // cold pipeline on the context we already built (identical from here on).
  Fdg Graph = buildFdg(U.TU);
  DeltaPlan Plan = planDelta(U.TU, Graph, Prev);
  if (!Plan.Compatible) {
    fallBack(Plan.FallbackReason);
    runCInference(Job, U, R, &Next);
    return;
  }

  ConstInference::Options InfOpts;
  InfOpts.Polymorphic = Job.Polymorphic;
  InfOpts.OnlyFunctions = &Plan.DirtyFunctions;
  InfOpts.GenGlobalInits = Plan.InitsDirty;
  ConstInference Inf(U.TU, U.Diags, InfOpts);
  if (!Inf.run()) {
    // The edit introduced a const error (or blew a resource budget) inside
    // the dirty region. Error rendering depends on constraint numbering,
    // which a restricted run cannot reproduce -- re-run cold in a fresh
    // context for byte-exact diagnostics.
    fallBack("analysis-error");
    CachedResult Cold;
    runAnalysis(Job, Cold, nullptr);
    R = std::move(Cold);
    return;
  }

  bool Ok = false;
  std::vector<ClassifiedPos> Positions = assemblePositions(Inf, Plan, Prev, Ok);
  if (!Ok) {
    fallBack("summary-miss");
    CachedResult Cold;
    runAnalysis(Job, Cold, &Next);
    R = std::move(Cold);
    return;
  }

  renderCReport(Job, Positions, R);
  Next = captureDeltaSnapshot(U.TU, Inf, Plan, Prev);
  Outcome.UsedDelta = true;
  Outcome.DirtySccs = Plan.NumDirtySccs;
  Outcome.ReusedSccs = Plan.NumReusedSccs;
}
