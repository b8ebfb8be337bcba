//===- serve/Pipelines.h - Per-request analysis pipelines -------*- C++ -*-===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analysis pipelines the server runs on a cache miss, mirroring the
/// batch tools (qualcc's analyzeUnit, qualcheck's checkOneFile, with the
/// same front end and the same default qualifier spec) with two
/// server-driven differences:
///
/// \li **Full isolation.** Every call builds a fresh context -- for C one
///     cfront::FrontEnd (its own SourceManager, DiagnosticEngine, arenas,
///     interner) plus the inference's constraint system -- and tears it
///     all down on return, exactly like one tools/BatchDriver task.
///     Nothing is retained between requests except the result cache; the
///     soak test (tests/server_soak_test.cpp) holds this line.
/// \li **Deterministic output.** No wall-clock timings in the report, so
///     the same (source, config) pair always produces the same bytes --
///     the property that makes results cacheable (docs/SERVER.md).
///
//===----------------------------------------------------------------------===//

#ifndef QUALS_SERVE_PIPELINES_H
#define QUALS_SERVE_PIPELINES_H

#include "serve/ResultCache.h"
#include "support/Limits.h"

#include <cstdint>
#include <string>

namespace quals {

namespace serve {

/// Everything that determines one analysis run's output: the source bytes
/// plus the config half of the cache key.
struct AnalyzeJob {
  std::string Name;     ///< Buffer name for diagnostics.
  std::string Source;   ///< The exact source bytes to analyze.
  std::string Language; ///< "c" or "lambda".
  bool Polymorphic = true;
  bool Protos = false;  ///< Also print annotated prototypes (C only).
  Limits Lim;           ///< Resource budgets for the isolated context.
};

/// Hash of every output-affecting field of \p Job except the source bytes
/// (those are the other key half). Name is included: diagnostics and
/// banners embed it, so the same bytes under a different name are a
/// different (byte-exact) result. The content half of the key stays a pure
/// function of the source bytes, which is what makes `invalidate` by
/// content hash drop every alias at once.
uint64_t configHash(const AnalyzeJob &Job);

/// Runs the pipeline for \p Job in a fully isolated context, buffering
/// stdout/stderr bytes and the exit code into \p R (0 accepted, 1
/// front-end errors, 2 qualifier/const errors -- the tools' convention).
/// `analyze` and `analyze-delta` both land here.
void runAnalysis(const AnalyzeJob &Job, CachedResult &R);

} // namespace serve
} // namespace quals

#endif // QUALS_SERVE_PIPELINES_H
