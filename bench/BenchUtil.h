//===- bench/BenchUtil.h - Shared benchmark-suite definitions ---*- C++ -*-===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark suite shared by the Table 1 / Table 2 / Figure 6 harnesses.
/// The paper's programs (Table 1) are not redistributable/available offline,
/// so each is replaced by a deterministic synthetic program at the same line
/// count with a const-annotation density tuned to the paper's Declared/Total
/// ratio (see DESIGN.md, "Substitutions"). Every harness regenerates the
/// same programs bit-for-bit from the fixed seeds.
///
//===----------------------------------------------------------------------===//

#ifndef QUALS_BENCH_BENCHUTIL_H
#define QUALS_BENCH_BENCHUTIL_H

#include "cfront/FrontEnd.h"
#include "constinf/ConstInfer.h"
#include "gen/SynthGen.h"
#include "support/Timer.h"

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

namespace quals {
namespace bench {

/// One entry of the paper's Table 1, with the synthetic stand-in's knobs.
struct BenchmarkSpec {
  const char *Name;
  unsigned PaperLines;
  const char *Description;
  uint64_t Seed;
  double ConstDeclRate;   ///< Tuned toward the paper's Declared/Total ratio.
  double WriterRate;      ///< Tuned toward the paper's Mono/Total ratio.
  double LibraryCallRate; ///< Likewise (library calls pin positions).
  // Paper reference numbers (Table 2) for side-by-side reporting.
  unsigned PaperDeclared;
  unsigned PaperMono;
  unsigned PaperPoly;
  unsigned PaperTotal;
};

/// The six benchmarks of Table 1.
inline const std::vector<BenchmarkSpec> &suite() {
  static const std::vector<BenchmarkSpec> Suite = {
      {"woman-3.0a", 1496, "Replacement for man package", 1001,
       0.92, 0.62, 0.30, 50, 67, 72, 95},
      {"patch-2.5", 5303, "Apply a diff file to an original", 1002,
       0.98, 0.62, 0.28, 84, 99, 107, 148},
      {"m4-1.4", 7741, "Unix macro preprocessor", 1003,
       0.42, 0.44, 0.18, 88, 249, 262, 370},
      {"diffutils-2.7", 8741, "Collection of utilities for diffing files",
       1004, 0.85, 0.78, 0.40, 153, 209, 243, 372},
      {"ssh-1.2.26", 18620, "Secure shell", 1005,
       0.50, 0.63, 0.32, 147, 316, 347, 547},
      {"uucp-1.04", 36913, "Unix to unix copy package", 1006,
       0.44, 0.55, 0.28, 433, 1116, 1299, 1773},
  };
  return Suite;
}

/// Generates the synthetic stand-in for \p Spec.
inline synth::SynthProgram generate(const BenchmarkSpec &Spec) {
  synth::SynthParams P = synth::paramsForLines(Spec.Seed, Spec.PaperLines);
  P.ConstDeclRate = Spec.ConstDeclRate;
  P.WriterRate = Spec.WriterRate;
  P.LibraryCallRate = Spec.LibraryCallRate;
  return synth::generateProgram(P);
}

/// One analyzed program's front end, kept alive for the inference.
struct Compiled : cfront::FrontEnd {
  double CompileSeconds = 0;
  bool Ok = false;
};

/// Parses and analyzes \p Source, timing the front end ("compile time").
inline std::unique_ptr<Compiled> compile(const std::string &Name,
                                         const std::string &Source) {
  auto C = std::make_unique<Compiled>();
  Timer T;
  bool ParseOk = C->parse(Name, Source);
  bool SemaOk = C->analyze();
  C->CompileSeconds = T.seconds();
  C->Ok = ParseOk && SemaOk;
  if (!C->Ok)
    std::fprintf(stderr, "front end failed on %s:\n%s\n", Name.c_str(),
                 C->Diags.renderAll().c_str());
  return C;
}

/// Result of one inference run.
struct InferRun {
  double Seconds = 0;
  bool Ok = false;
  constinf::ConstCounts Counts;
  unsigned NumVars = 0;
  unsigned NumConstraints = 0;
};

/// Runs const inference over \p C, timed; averaged over \p Repeats runs as
/// in the paper ("average of five").
inline InferRun inferTimed(Compiled &C, bool Polymorphic,
                           unsigned Repeats = 5) {
  InferRun Run;
  double Total = 0;
  for (unsigned I = 0; I != Repeats; ++I) {
    constinf::ConstInference::Options Opts;
    Opts.Polymorphic = Polymorphic;
    constinf::ConstInference Inf(C.TU, C.Diags, Opts);
    Timer T;
    Run.Ok = Inf.run();
    Total += T.seconds();
    if (!Run.Ok) {
      std::fprintf(stderr, "inference failed:\n%s\n",
                   C.Diags.renderAll().c_str());
      return Run;
    }
    if (I == 0) {
      Run.Counts = Inf.counts();
      Run.NumVars = Inf.numQualVars();
      Run.NumConstraints = Inf.numConstraints();
    }
  }
  Run.Seconds = Total / Repeats;
  return Run;
}

/// Formats a double with \p Digits decimals.
inline std::string fmt(double Value, int Digits = 2) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.*f", Digits, Value);
  return Buf;
}

} // namespace bench
} // namespace quals

#endif // QUALS_BENCH_BENCHUTIL_H
