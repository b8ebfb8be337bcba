//===- tools/quallink.cpp - Cross-TU qualifier link driver -----------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
//
// The link step of the separate-compilation pipeline (docs/LINK.md): loads
// the constraint summaries `qualcc --emit-summary` serialized per TU,
// unifies interface variables across TUs by symbol name, merges everything
// into one constraint system, and runs the whole-program solve.
//
//   quallink [options] file.qsum... [@response-file]
//
//   --positions     print the per-position classification
//   --stats         print a solver statistics table
//   -jN, --jobs N   load summaries on N pool workers
//   --quiet         counts only
//
// Determinism: stdout/stderr are byte-identical at any -jN, and independent
// of the order summaries are named on the command line (they are
// canonicalized before linking).
//
// Exit status: 0 on success, 1 on load or link errors (unreadable, corrupt,
// or stale summaries; duplicate definitions; interface mismatches), 2 on
// qualifier errors in the linked program.
//
//===----------------------------------------------------------------------===//

#include "link/Linker.h"
#include "support/ThreadPool.h"

#include "BatchDriver.h"
#include "ToolFlags.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace quals;
using namespace quals::link;

static const char *className(constinf::PosClass C) {
  switch (C) {
  case constinf::PosClass::MustConst:    return "must-const";
  case constinf::PosClass::MustNonConst: return "non-const";
  case constinf::PosClass::Either:       return "either";
  }
  return "?";
}

static const char *kOptionsHelp =
    "  --positions     print the per-position classification\n"
    "  --stats         print a solver statistics table\n"
    "  --quiet         counts only\n";

int main(int argc, char **argv) {
  bool PrintPositions = false;
  bool PrintStats = false;
  bool Quiet = false;
  LinkOptions Opts;
  std::vector<std::string> Files;
  ToolFlags Common("quallink", "file.qsum... [@response-file]", kOptionsHelp);

  for (int I = 1; I != argc; ++I) {
    std::string Error;
    if (Common.parseCommon(argc, argv, I)) {
      if (Common.exitNow())
        return Common.exitStatus();
    } else if (!std::strcmp(argv[I], "--positions"))
      PrintPositions = true;
    else if (!std::strcmp(argv[I], "--stats"))
      PrintStats = true;
    else if (!std::strcmp(argv[I], "--quiet"))
      Quiet = true;
    else if (argv[I][0] == '-')
      return Common.usageError(argv[I]);
    else if (!batch::expandArg(argv[I], Files, Error))
      return Common.fail(Error);
  }
  if (Files.empty())
    return Common.fail("no input summaries");
  Opts.MaxConstraints = Common.limits().MaxConstraints;
  Common.activate();

  // Load every summary into its input-order slot; the linker canonicalizes
  // afterwards, so load completion order never shows in the output.
  std::vector<TuSummary> Summaries(Files.size());
  std::vector<std::string> LoadErrors(Files.size());
  auto loadOne = [&](size_t I) {
    std::string Bytes, Error;
    if (!readFileBytes(Files[I], Bytes, Error)) {
      LoadErrors[I] = "quallink: " + Error;
      return;
    }
    if (!deserializeSummary(reinterpret_cast<const uint8_t *>(Bytes.data()),
                            Bytes.size(), Summaries[I], Error))
      LoadErrors[I] = "quallink: '" + Files[I] + "': " + Error;
  };
  if (Common.jobs() > 1) {
    ThreadPool Pool(Common.jobs());
    Pool.parallelForEach(Files.size(), loadOne);
  } else
    for (size_t I = 0; I != Files.size(); ++I)
      loadOne(I);

  std::vector<std::string> Failed;
  for (const std::string &E : LoadErrors)
    if (!E.empty())
      Failed.push_back(E);
  if (!Failed.empty()) {
    // Sorted so the report is independent of argument order too.
    std::sort(Failed.begin(), Failed.end());
    for (const std::string &E : Failed)
      std::fprintf(stderr, "%s\n", E.c_str());
    return 1;
  }

  LinkResult R = linkSummaries(Summaries, Opts);

  if (!R.LoadOk || !R.LinkOk) {
    for (const std::string &D : R.Diagnostics)
      std::fprintf(stderr, "%s\n", D.c_str());
    return 1;
  }
  if (!R.SolveOk) {
    std::fprintf(stderr, "quallink: const errors detected:\n");
    for (const std::string &D : R.Diagnostics)
      std::fprintf(stderr, "%s\n", D.c_str());
    if (PrintStats)
      std::fputs(renderSolverStats(R.Stats).c_str(), stdout);
    return 2;
  }

  if (PrintStats)
    std::fputs(renderSolverStats(R.Stats).c_str(), stdout);
  if (PrintPositions)
    for (const LinkedPos &P : R.Positions) {
      std::string Where = P.ParamIndex < 0
                              ? std::string("result")
                              : "param " + std::to_string(P.ParamIndex);
      std::printf("%-24s %-8s depth %u  %-10s%s\n", P.FnName.c_str(),
                  Where.c_str(), P.Depth, className(P.Class),
                  P.DeclaredConst ? "  [declared]" : "");
    }
  if (!Quiet)
    std::printf("linked %u summaries (%u unique TUs): %u qualifier vars, "
                "%u constraints\n",
                R.NumInputs, R.NumSummaries, R.NumVars, R.NumConstraints);
  std::printf("declared %u, inferred possible-const %u, total positions %u\n",
              R.Counts.Declared, R.Counts.PossibleConst, R.Counts.Total);
  return 0;
}
