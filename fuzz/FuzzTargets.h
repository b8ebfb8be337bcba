//===- fuzz/FuzzTargets.h - Shared fuzz entry points -----------*- C++ -*-===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three fuzzable pipelines, factored out of the libFuzzer mains so the
/// regression corpus can also be replayed by an ordinary gtest in normal
/// (non-fuzzer) builds -- see tests/fuzz_replay_test.cpp and the ctest
/// `fuzz.replay_corpus` entry. Each handler runs one hostile input through a
/// fully isolated analysis context under deliberately tiny resource budgets
/// (support/Limits.h) and must return without crashing: every outcome --
/// accept, diagnose, or `fatal: resource limit` bailout -- is a pass; only
/// a signal (assert, stack overflow, OOM, UB trapped by a sanitizer) is a
/// finding. See docs/ROBUSTNESS.md.
///
//===----------------------------------------------------------------------===//

#ifndef QUALS_FUZZ_FUZZTARGETS_H
#define QUALS_FUZZ_FUZZTARGETS_H

#include <cstddef>
#include <cstdint>

namespace quals {
namespace fuzz {

/// Treats \p Data as C source: lex, parse, sema, and whole-program const
/// inference (the full qualcc pipeline). Always returns 0.
int runCFront(const uint8_t *Data, size_t Size);

/// Treats \p Data as lambda-language source: lex, parse, standard HM type
/// inference, and qualifier inference (the full qualcheck pipeline).
/// Always returns 0.
int runLambda(const uint8_t *Data, size_t Size);

/// Treats \p Data as an operation stream driving the constraint solver
/// directly: each byte (plus operands) makes variables, adds (masked)
/// constraints, or solves/queries, exercising incremental re-solves on
/// adversarial cyclic graphs. Always returns 0.
int runSolver(const uint8_t *Data, size_t Size);

/// Treats \p Data as one qualsd request line: JSON parsing under tight
/// budgets, request validation, and -- when anything parsed -- the
/// serialize/re-parse round-trip of every decoded string (the property the
/// server's byte-identical replies rest on). Always returns 0; a round-trip
/// mismatch aborts, which the fuzzer reports as a crash. Never runs an
/// analysis: hostile *sources* are the cfront/lambda targets' job.
int runProtocol(const uint8_t *Data, size_t Size);

/// Treats \p Data as a serialized constraint summary (.qsum): the hardened
/// deserializer must either reject it with a diagnostic or yield a summary
/// that survives linking (quallink's load path). Accepted summaries are
/// also round-tripped: serialize(deserialize(x)) must reach a fixed point,
/// the invariant qualcc's content-addressed summary store rests on. Always
/// returns 0; a missing diagnostic or an unstable round-trip aborts.
int runSummary(const uint8_t *Data, size_t Size);

} // namespace fuzz
} // namespace quals

#endif // QUALS_FUZZ_FUZZTARGETS_H
