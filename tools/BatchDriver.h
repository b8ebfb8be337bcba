//===- tools/BatchDriver.h - Ordered parallel batch analysis ----*- C++ -*-===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The corpus layer shared by qualcc, qualcheck, and qualgen: the paper's
/// evaluation (Section 6, Tables 1/2) is a corpus workload -- const
/// inference over six whole GNU packages -- and this driver turns the
/// single-file pipelines into corpus pipelines without changing a byte of
/// their per-file output.
///
/// The contract:
///
/// \li **Inputs.** A list of files assembled from positional arguments and
///     @response-file expansions (expandArg()).
/// \li **Isolation.** The per-file callback builds a fully isolated context
///     (its own BumpPtrAllocator-backed AST contexts, SourceManager,
///     DiagnosticEngine, StringInterner, ConstraintSystem) and writes only
///     into its FileResult buffers -- never directly to stdout/stderr. The
///     only process-wide state a callback may touch is the thread-safe
///     observability layer (support/Trace.h, support/Metrics.h).
/// \li **Determinism.** Buffered per-file output is flushed strictly in
///     input order, so `-j8` stdout/stderr is byte-identical to `-j1`
///     (tools/smoke_batch.sh asserts this over the example corpus).
/// \li **Exit status.** The batch exit code is the maximum per-file exit
///     code, so any failing file fails the run.
/// \li **Observability.** Each file runs under a "file:<path>" trace span
///     on its worker's dense thread track, and the driver publishes
///     batch.files / batch.failed counters, a batch.jobs gauge, and a
///     batch.wall timer. Per-file phase.* / solver.* metrics aggregate into
///     corpus totals through the global registry's atomic adds.
///
/// See docs/PARALLEL.md for the threading model.
///
//===----------------------------------------------------------------------===//

#ifndef QUALS_TOOLS_BATCHDRIVER_H
#define QUALS_TOOLS_BATCHDRIVER_H

#include "support/TextIO.h"

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

namespace quals {
namespace batch {

/// One file's buffered analysis outcome. Callbacks append to Out/Err
/// (appendf(), support/TextIO.h) instead of printing, so the driver can
/// replay the streams in input order.
struct FileResult {
  std::string Out; ///< Buffered stdout.
  std::string Err; ///< Buffered stderr.
  int ExitCode = 0;
};

/// Analyzes one file into \p R; runs on a pool worker (or inline at -j1).
/// \p Index is the file's position in the input list (qualgen derives
/// per-file seeds from it).
using AnalyzeFn = std::function<void(const std::string &Path, size_t Index,
                                     FileResult &R)>;

struct BatchConfig {
  /// Worker count; 1 runs every file inline on the calling thread.
  unsigned Jobs = 1;
  /// Trace category for the per-file spans.
  const char *Category = "batch";
  /// Print a "== <path> ==" banner before each file's stdout block.
  /// Tools enable this when more than one file was given, so single-file
  /// output stays byte-compatible with the pre-batch CLIs.
  bool Headers = false;
  /// Flush targets (tests and benchmarks redirect these).
  std::FILE *OutStream = stdout;
  std::FILE *ErrStream = stderr;
};

/// Expands one positional argument into \p Files: a plain path is appended
/// as-is; "@list" reads paths from the response file `list` (one per line,
/// blank lines and '#' comments skipped, nested @-references allowed up to
/// a small depth). Returns false and sets \p Error on an unreadable
/// response file or a reference cycle.
bool expandArg(const std::string &Arg, std::vector<std::string> &Files,
               std::string &Error);

/// Parses a jobs flag: "-jN", "-j N" (two args), "--jobs=N", "--jobs N".
/// Returns true when \p Arg (plus optionally \p Next, consuming it by
/// setting \p ConsumedNext) is a jobs flag; \p Jobs gets the value. A
/// malformed or zero count sets \p Error.
bool parseJobsFlag(const char *Arg, const char *Next, unsigned &Jobs,
                   bool &ConsumedNext, std::string &Error);

/// Runs \p Analyze over every file, fanning out to ThreadPool workers when
/// Config.Jobs > 1, and flushes each file's buffered streams in input
/// order as results become ready. Returns the maximum per-file exit code.
int runBatch(const std::vector<std::string> &Files,
             const BatchConfig &Config, const AnalyzeFn &Analyze);

} // namespace batch
} // namespace quals

#endif // QUALS_TOOLS_BATCHDRIVER_H
