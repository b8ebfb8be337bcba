//===- tools/qualcheck.cpp - Lambda-language qualifier checker -------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
//
// Checks and optionally runs programs in the paper's demonstration language
// (Figure 1 + references + qualifier annotations/assertions):
//
//   qualcheck [options] file.q [file2.q ...] [@response-file]
//
//   --mono   monomorphic qualifier inference (default: polymorphic)
//   --run    evaluate under the Figure 5 semantics after checking
//   --trace  with --run, print every reduction step
//   --stats  print a solver statistics table after the check
//   -jN, --jobs N  analyze files on N pool workers (docs/PARALLEL.md);
//            output order and bytes are identical for every N
//   --trace-out=<file>  write a Chrome trace of the pipeline phases
//   --metrics[=table|json]  print per-phase metrics on exit
//   --quals  comma-separated qualifier spec, name[:neg] (default:
//            "const,nonzero:neg,dynamic,tainted")
//
// Each file is checked independently in an isolated context; with several
// files the per-file reports are emitted in input order under "== file =="
// banners. Exit status is the worst per-file status: 0 accepted, 1
// front-end/type errors, 2 qualifier errors, 3 evaluation got stuck.
//
//===----------------------------------------------------------------------===//

#include "lambda/Eval.h"
#include "lambda/Parser.h"
#include "lambda/QualInfer.h"

#include "BatchDriver.h"
#include "ToolFlags.h"

#include <cstdio>
#include <cstring>
#include <sstream>

using namespace quals;
using namespace quals::lambda;

namespace {

struct CheckOptions {
  bool Polymorphic = true;
  bool Run = false;
  bool Trace = false;
  bool PrintStats = false;
  std::string QualSpec = "const,nonzero:neg,dynamic,tainted";
  Limits Lim;
};

} // namespace

/// Checks one program in a fully isolated context (own qualifier set,
/// source manager, AST arena, interner, constraint system), buffering all
/// output into \p R. Runs on a batch pool worker at -jN.
static void checkOneFile(const std::string &Path, const CheckOptions &Opts,
                         batch::FileResult &R) {
  QualifierSet QS;
  QualifierId ConstQual = ~0u;
  {
    std::stringstream Spec(Opts.QualSpec);
    std::string Item;
    while (std::getline(Spec, Item, ',')) {
      bool Negative = false;
      size_t Colon = Item.find(':');
      if (Colon != std::string::npos) {
        Negative = Item.substr(Colon + 1) == "neg";
        Item = Item.substr(0, Colon);
      }
      if (Item.empty())
        continue;
      QualifierId Id =
          QS.add(Item, Negative ? Polarity::Negative : Polarity::Positive);
      if (Item == "const")
        ConstQual = Id;
    }
  }

  std::string Source, ReadErr;
  if (!readFileBytes(Path, Source, ReadErr)) {
    appendf(R.Err, "qualcheck: cannot read '%s'\n", Path.c_str());
    R.ExitCode = 1;
    return;
  }

  SourceManager SM;
  DiagnosticEngine Diags(SM, Opts.Lim);
  AstContext Ast;
  StringInterner Idents;
  const Expr *Program =
      parseString(SM, Path, std::move(Source), QS, Ast, Idents, Diags);
  if (!Program) {
    R.Err += Diags.renderAll();
    R.ExitCode = 1;
    return;
  }

  STyContext STys;
  SolverConfig SysConfig;
  SysConfig.MaxConstraints = Opts.Lim.MaxConstraints;
  ConstraintSystem Sys(QS, SysConfig);
  QualTypeFactory Factory;
  LambdaTypeCtors Ctors;
  QualInferOptions Options;
  Options.Polymorphic = Opts.Polymorphic;
  if (ConstQual != ~0u)
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
  if (Opts.PrintStats)
    R.Out += renderSolverStats(Result.Stats);
  if (!Result.QualOk) {
    R.Out += "qualifier check: REJECTED\n";
    ViolationExplainer Explainer(Sys);
    for (const Violation &V : Result.Violations)
      R.Out += Explainer.explain(V);
    R.ExitCode = 2;
    return;
  }
  appendf(R.Out, "qualifier check: accepted (%s)\n",
          Opts.Polymorphic ? "polymorphic" : "monomorphic");

  if (Opts.Run) {
    Evaluator Ev(Ast, QS);
    unsigned StepNo = 0;
    Evaluator::StepObserver Observer;
    if (Opts.Trace)
      Observer = [&](const Expr *Term) {
        appendf(R.Out, "  --> [%u] %s\n", ++StepNo,
                toString(QS, Term).c_str());
      };
    EvalResult Res = Ev.evaluate(Program, 100000, Observer);
    switch (Res.Outcome) {
    case EvalOutcome::Value:
      appendf(R.Out, "value: %s (%u steps)\n",
              toString(QS, Res.Result).c_str(), Res.Steps);
      break;
    case EvalOutcome::Stuck:
      appendf(R.Out, "STUCK after %u steps: %s\n", Res.Steps,
              Res.StuckReason.c_str());
      R.ExitCode = 3;
      break;
    case EvalOutcome::TimedOut:
      R.Out += "step limit reached (possibly diverging)\n";
      break;
    }
  }
}

static const char *kOptionsHelp =
    "  --mono        monomorphic qualifier inference (default: "
    "polymorphic)\n"
    "  --run         evaluate under the Figure 5 semantics after checking\n"
    "  --trace       with --run, print every reduction step\n"
    "  --stats       print a solver statistics table after the check\n"
    "  --quals spec  comma-separated qualifier spec, name[:neg]\n"
    "                (default: \"const,nonzero:neg,dynamic,tainted\")\n";

int main(int argc, char **argv) {
  CheckOptions Opts;
  std::vector<std::string> Files;
  ToolFlags Common("qualcheck", "file.q... [@response-file]", kOptionsHelp);

  for (int I = 1; I != argc; ++I) {
    std::string Error;
    if (Common.parseCommon(argc, argv, I)) {
      if (Common.exitNow())
        return Common.exitStatus();
    } else if (!std::strcmp(argv[I], "--mono"))
      Opts.Polymorphic = false;
    else if (!std::strcmp(argv[I], "--run"))
      Opts.Run = true;
    else if (!std::strcmp(argv[I], "--trace"))
      Opts.Run = Opts.Trace = true;
    else if (!std::strcmp(argv[I], "--stats"))
      Opts.PrintStats = true;
    else if (!std::strcmp(argv[I], "--quals") && I + 1 < argc)
      Opts.QualSpec = argv[++I];
    else if (argv[I][0] == '-')
      return Common.usageError(argv[I]);
    else if (!batch::expandArg(argv[I], Files, Error))
      return Common.fail(Error);
  }
  if (Files.empty())
    return Common.fail("no input file");
  unsigned Jobs = Common.jobs();
  Opts.Lim = Common.limits();
  Common.activate();

  batch::BatchConfig Config;
  Config.Jobs = Jobs;
  Config.Category = "qualcheck";
  Config.Headers = Files.size() > 1;
  return batch::runBatch(Files, Config,
                         [&Opts](const std::string &Path, size_t,
                                 batch::FileResult &R) {
                           checkOneFile(Path, Opts, R);
                         });
}
