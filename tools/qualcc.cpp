//===- tools/qualcc.cpp - Whole-program const inference driver -------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
//
// The command-line artifact of Section 4: takes an entire C program (one or
// more files, analyzed together like the paper's multi-file benchmarks) and
// infers the maximum number of consts that can be syntactically present.
//
//   qualcc [options] file1.c [file2.c ...] [@response-file]
//
//   --mono          monomorphic inference (default: polymorphic)
//   --protos        print annotated prototypes (const where allowed)
//   --positions     print the per-position classification
//   --nonnull       also run the flow-insensitive nonnull checker
//   --flow-nonnull  also run the flow-sensitive (Section 6) checker
//   --stats         print a solver statistics table
//   --batch         analyze each file as its own translation unit (corpus
//                   mode) instead of linking all files into one program
//   -jN, --jobs N   batch workers; implies --batch (docs/PARALLEL.md);
//                   output order and bytes are identical for every N
//   --emit-summary=FILE     whole-program mode: serialize the constraint
//                   summary for quallink (forces --mono; docs/LINK.md)
//   --emit-summary-dir=DIR  batch mode (implied): content-addressed summary
//                   per TU, reusing up-to-date cache entries
//   --trace-out=<file>      write a Chrome trace of the pipeline phases
//   --metrics[=table|json]  print per-phase metrics on exit
//   --quiet         counts only
//
// Exit status: 0 on success, 1 on front-end errors, 2 on const errors; in
// batch mode the worst per-file status.
//
//===----------------------------------------------------------------------===//

#include "apps/FlowNonNull.h"
#include "apps/NonNull.h"
#include "cfront/CParser.h"
#include "cfront/CSema.h"
#include "constinf/ConstInfer.h"
#include "link/Qsum.h"
#include "link/SummaryBuilder.h"
#include "support/Hash.h"
#include "support/Timer.h"

#include "BatchDriver.h"
#include "ToolFlags.h"

#include <cstdio>
#include <cstring>
#include <memory>

#include <cerrno>
#include <sys/stat.h>

using namespace quals;
using namespace quals::cfront;
using namespace quals::constinf;

static const char *className(PosClass C) {
  switch (C) {
  case PosClass::MustConst:    return "must-const";
  case PosClass::MustNonConst: return "non-const";
  case PosClass::Either:       return "either";
  }
  return "?";
}

namespace {

struct QualccOptions {
  bool Polymorphic = true;
  bool PrintProtos = false;
  bool PrintPositions = false;
  bool RunNonNull = false;
  bool RunFlowNonNull = false;
  bool PrintStats = false;
  bool Quiet = false;
  Limits Lim;
  /// Whole-program mode: serialize the unit's constraint summary here.
  std::string EmitSummaryPath;
  /// Batch mode: write each TU's summary into this directory under its
  /// content-addressed name (docs/LINK.md); an existing up-to-date summary
  /// skips the analysis outright.
  std::string EmitSummaryDir;

  bool emitSummary() const {
    return !EmitSummaryPath.empty() || !EmitSummaryDir.empty();
  }
};

} // namespace

/// Runs the full pipeline over one translation unit -- \p Paths is every
/// file of the program (the whole list in whole-program mode, a single
/// file in batch mode) -- in a fully isolated context, buffering all
/// output into \p R. Runs on a batch pool worker at -jN.
static void analyzeUnit(const std::vector<std::string> &Paths,
                        const QualccOptions &Opts, batch::FileResult &R) {
  SourceManager SM;
  DiagnosticEngine Diags(SM, Opts.Lim);
  CAstContext Ast;
  CTypeContext Types;
  StringInterner Idents;
  TranslationUnit TU;

  // Sources are read before parsing: the summary content hash covers the
  // unit's raw bytes (streamed, so it keys identically however the bytes
  // are chunked), and a dir-mode cache hit skips the front end entirely.
  Timer CompileTimer;
  std::vector<std::string> Sources(Paths.size());
  StreamHasher ContentHasher;
  std::string ReadErr;
  for (size_t I = 0; I != Paths.size(); ++I) {
    if (!readFileBytes(Paths[I], Sources[I], ReadErr)) {
      appendf(R.Err, "qualcc: cannot read '%s'\n", Paths[I].c_str());
      R.ExitCode = 1;
      return;
    }
    if (Opts.emitSummary())
      ContentHasher.update(Sources[I]);
  }
  uint64_t ContentHash = ContentHasher.digest();
  std::string SummaryOut = Opts.EmitSummaryPath;
  std::string SummaryName;
  if (!Opts.EmitSummaryDir.empty()) {
    // Content-addressed summary cache, keyed like the serve layer's
    // ResultCache: (content hash, config hash). Identical shared sources
    // summarize once; a stale or foreign file at the key is rewritten.
    uint64_t Key =
        link::summaryCacheKey(ContentHash, link::summaryConfigHash());
    SummaryName = link::summaryFileName(Key);
    SummaryOut = Opts.EmitSummaryDir + "/" + SummaryName;
    std::string Bytes, ProbeErr;
    link::QsumHeader Header;
    if (readFileBytes(SummaryOut, Bytes, ProbeErr) &&
        link::readSummaryHeader(
            reinterpret_cast<const uint8_t *>(Bytes.data()), Bytes.size(),
            Header, ProbeErr) &&
        Header.ConfigHash == link::summaryConfigHash() &&
        Header.ContentHash == ContentHash) {
      // The hit prints exactly what a miss prints, so batch output stays
      // byte-identical whatever the cache held going in.
      appendf(R.Out, "summary: %s -> %s\n", Paths[0].c_str(),
              SummaryName.c_str());
      return;
    }
  }
  for (size_t I = 0; I != Paths.size(); ++I) {
    if (!parseCSource(SM, Paths[I], std::move(Sources[I]), Ast, Types,
                      Idents, Diags, TU)) {
      R.Err += Diags.renderAll();
      R.ExitCode = 1;
      return;
    }
  }
  CSema Sema(Ast, Types, Idents, Diags);
  if (!Sema.analyze(TU)) {
    R.Err += Diags.renderAll();
    R.ExitCode = 1;
    return;
  }
  double CompileSeconds = CompileTimer.seconds();

  ConstInference::Options InfOpts;
  InfOpts.Polymorphic = Opts.Polymorphic;
  InfOpts.SummaryMode = Opts.emitSummary();
  ConstInference Inf(TU, Diags, InfOpts);
  Timer InferTimer;
  if (!Inf.run()) {
    appendf(R.Err, "qualcc: const errors detected:\n%s",
            Diags.renderAll().c_str());
    if (Opts.PrintStats)
      R.Out += renderSolverStats(Inf.solverStats());
    R.ExitCode = 2;
    return;
  }
  double InferSeconds = InferTimer.seconds();

  if (Opts.emitSummary()) {
    link::TuSummary Summary = link::buildSummary(
        Inf, SM, Paths[0], ContentHash, link::summaryConfigHash());
    std::string WriteErr;
    if (!link::writeFileAtomic(SummaryOut, link::serializeSummary(Summary),
                               WriteErr)) {
      appendf(R.Err, "qualcc: %s\n", WriteErr.c_str());
      R.ExitCode = 1;
      return;
    }
    if (!Opts.EmitSummaryDir.empty()) {
      // Dir mode prints one line per TU -- the same line a cache hit
      // prints -- and nothing else, so corpus output is deterministic at
      // any -jN even when identical TUs race for one cache slot.
      appendf(R.Out, "summary: %s -> %s\n", Paths[0].c_str(),
              SummaryName.c_str());
      return;
    }
    if (!Opts.Quiet)
      appendf(R.Out, "summary: %s\n", SummaryOut.c_str());
  }

  if (Opts.PrintStats)
    R.Out += renderSolverStats(Inf.solverStats());

  if (Opts.PrintPositions) {
    for (const InterestingPos &Pos : Inf.positions()) {
      std::string Where = Pos.ParamIndex < 0
                              ? std::string("result")
                              : "param " + std::to_string(Pos.ParamIndex);
      appendf(R.Out, "%-24s %-8s depth %u  %-10s%s\n",
              std::string(Pos.Fn->getName()).c_str(), Where.c_str(),
              Pos.Depth, className(Inf.classify(Pos)),
              Pos.DeclaredConst ? "  [declared]" : "");
    }
  }
  if (Opts.PrintProtos)
    R.Out += Inf.renderAnnotatedPrototypes();

  ConstCounts C = Inf.counts();
  if (!Opts.Quiet)
    appendf(R.Out,
            "%s inference over %zu file(s): compile %.3fs, infer "
            "%.3fs, %u qualifier vars, %u constraints\n",
            Opts.Polymorphic ? "polymorphic" : "monomorphic",
            Paths.size(), CompileSeconds, InferSeconds,
            Inf.numQualVars(), Inf.numConstraints());
  appendf(R.Out,
          "declared %u, inferred possible-const %u, total positions "
          "%u\n",
          C.Declared, C.PossibleConst, C.Total);

  auto printWarnings = [&SM, &R](const char *Title, const auto &Warnings) {
    appendf(R.Out, "%s: %zu warning(s)\n", Title, Warnings.size());
    for (const auto &W : Warnings) {
      PresumedLoc P = SM.getPresumedLoc(W.Loc);
      if (P.isValid())
        appendf(R.Out, "  %s:%u:%u: %s\n",
                std::string(P.Filename).c_str(), P.Line, P.Column,
                W.Message.c_str());
      else
        appendf(R.Out, "  %s\n", W.Message.c_str());
    }
  };
  if (Opts.RunNonNull) {
    quals::apps::NonNullChecker Checker;
    Checker.analyze(TU);
    printWarnings("nonnull (flow-insensitive)", Checker.warnings());
  }
  if (Opts.RunFlowNonNull) {
    quals::apps::FlowNonNullChecker Checker;
    Checker.analyze(TU);
    printWarnings("nonnull (flow-sensitive, Section 6)",
                  Checker.warnings());
  }
}

static const char *kOptionsHelp =
    "  --mono          monomorphic inference (default: polymorphic)\n"
    "  --protos        print annotated prototypes (const where allowed)\n"
    "  --positions     print the per-position classification\n"
    "  --nonnull       also run the flow-insensitive nonnull checker\n"
    "  --flow-nonnull  also run the flow-sensitive (Section 6) checker\n"
    "  --stats         print a solver statistics table\n"
    "  --batch         analyze each file as its own translation unit\n"
    "                  (implied by -jN; parallelism is per unit)\n"
    "  --emit-summary=FILE\n"
    "                  whole-program mode: also serialize the unit's\n"
    "                  constraint summary to FILE for quallink (docs/LINK.md;\n"
    "                  forces --mono)\n"
    "  --emit-summary-dir=DIR\n"
    "                  batch mode (implied): write each TU's summary into\n"
    "                  DIR under its content-addressed name; up-to-date\n"
    "                  summaries are reused without re-analyzing\n"
    "  --quiet         counts only\n";

int main(int argc, char **argv) {
  QualccOptions Opts;
  bool Batch = false;
  std::vector<std::string> Files;
  ToolFlags Common("qualcc", "file.c... [@response-file]", kOptionsHelp);

  for (int I = 1; I != argc; ++I) {
    std::string Error;
    if (Common.parseCommon(argc, argv, I)) {
      if (Common.exitNow())
        return Common.exitStatus();
    } else if (!std::strcmp(argv[I], "--mono"))
      Opts.Polymorphic = false;
    else if (!std::strcmp(argv[I], "--protos"))
      Opts.PrintProtos = true;
    else if (!std::strcmp(argv[I], "--positions"))
      Opts.PrintPositions = true;
    else if (!std::strcmp(argv[I], "--nonnull"))
      Opts.RunNonNull = true;
    else if (!std::strcmp(argv[I], "--flow-nonnull"))
      Opts.RunFlowNonNull = true;
    else if (!std::strcmp(argv[I], "--stats"))
      Opts.PrintStats = true;
    else if (!std::strncmp(argv[I], "--emit-summary=", 15)) {
      Opts.EmitSummaryPath = argv[I] + 15;
      if (Opts.EmitSummaryPath.empty())
        return Common.fail("--emit-summary needs a file path");
    } else if (!std::strncmp(argv[I], "--emit-summary-dir=", 19)) {
      Opts.EmitSummaryDir = argv[I] + 19;
      if (Opts.EmitSummaryDir.empty())
        return Common.fail("--emit-summary-dir needs a directory");
      Batch = true; // Summaries are per translation unit by construction.
    } else if (!std::strcmp(argv[I], "--batch"))
      Batch = true;
    else if (!std::strcmp(argv[I], "--quiet"))
      Opts.Quiet = true;
    else if (argv[I][0] == '-')
      return Common.usageError(argv[I]);
    else if (!batch::expandArg(argv[I], Files, Error))
      return Common.fail(Error);
  }
  if (Files.empty())
    return Common.fail("no input files");
  Batch |= Common.jobsSeen(); // Parallelism is per translation unit.
  if (!Opts.EmitSummaryPath.empty() && !Opts.EmitSummaryDir.empty())
    return Common.fail(
        "--emit-summary and --emit-summary-dir are mutually exclusive");
  if (!Opts.EmitSummaryPath.empty() && Batch)
    return Common.fail("--emit-summary is whole-program only; use "
                       "--emit-summary-dir with --batch/-jN");
  if (Opts.emitSummary())
    Opts.Polymorphic = false; // Summary interfaces are monomorphic.
  if (!Opts.EmitSummaryDir.empty() &&
      mkdir(Opts.EmitSummaryDir.c_str(), 0777) != 0 && errno != EEXIST)
    return Common.fail("cannot create summary directory '" +
                       Opts.EmitSummaryDir + "'");
  unsigned Jobs = Common.jobs();
  Opts.Lim = Common.limits();
  Common.activate();

  if (!Batch) {
    // Whole-program mode (the paper's setup): every file is one linked
    // translation unit, analyzed on this thread.
    batch::FileResult R;
    analyzeUnit(Files, Opts, R);
    if (!R.Out.empty())
      std::fwrite(R.Out.data(), 1, R.Out.size(), stdout);
    if (!R.Err.empty())
      std::fwrite(R.Err.data(), 1, R.Err.size(), stderr);
    return R.ExitCode;
  }

  batch::BatchConfig Config;
  Config.Jobs = Jobs;
  Config.Category = "qualcc";
  Config.Headers = Files.size() > 1;
  return batch::runBatch(Files, Config,
                         [&Opts](const std::string &Path, size_t,
                                 batch::FileResult &R) {
                           analyzeUnit({Path}, Opts, R);
                         });
}
