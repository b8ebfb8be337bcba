//===- fuzz/fuzz_solver.cpp - libFuzzer main for the constraint solver ----===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
//
// Drives ConstraintSystem through an op-stream interpreter (FuzzTargets.cpp)
// rather than through a front end, so the worklist and incremental re-solve
// machinery sees adversarial graphs no realistic program produces.
//
// Build with -DQUALS_ENABLE_FUZZERS=ON (clang only), then:
//
//   build/fuzz/fuzz_solver fuzz/corpus/solver -max_total_time=60
//
// Crashing inputs belong in fuzz/corpus/solver/ so fuzz.replay_corpus
// guards the fix; see docs/ROBUSTNESS.md.
//
//===----------------------------------------------------------------------===//

#include "FuzzTargets.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  return quals::fuzz::runSolver(Data, Size);
}
