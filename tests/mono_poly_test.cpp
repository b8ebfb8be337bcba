//===- tests/mono_poly_test.cpp - Mono is contained in poly ----------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A claim-level oracle for const inference (docs/SOLVER.md): polymorphic
/// inference (Section 3.2) only ever relaxes the monomorphic system, so
/// over any program
///
///   - if --mono accepts it, poly accepts it, and
///   - every position that is possible-const under mono is possible-const
///     under poly, out of the same set of positions.
///
/// Checked over the C programs in examples/programs and over qualgen
/// programs of ~20k lines (seeds 7 and 42), generated in-process.
///
//===----------------------------------------------------------------------===//

#include "cfront/FrontEnd.h"
#include "constinf/ConstInfer.h"
#include "gen/SynthGen.h"
#include "support/TextIO.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#ifndef QUALS_SOURCE_DIR
#define QUALS_SOURCE_DIR "."
#endif

using namespace quals;
using namespace quals::cfront;
using namespace quals::constinf;

namespace {

/// (function, parameter index or -1 for the result, pointer depth).
using PosKey = std::tuple<std::string, int, unsigned>;

/// One whole-program analysis in one mode.
struct Outcome {
  bool FrontEndOk = false;
  bool Accepted = false;      ///< No const errors.
  size_t Positions = 0;       ///< Classified positions.
  std::map<PosKey, bool> PossibleConst;
  unsigned NumPossibleConst = 0;
};

Outcome analyze(const std::string &Name, const std::string &Source,
                bool Polymorphic) {
  Outcome O;
  FrontEnd FE;
  if (!FE.parse(Name, Source) || !FE.analyze())
    return O;
  O.FrontEndOk = true;
  ConstInference::Options Opts;
  Opts.Polymorphic = Polymorphic;
  ConstInference Inf(FE.TU, FE.Diags, Opts);
  O.Accepted = Inf.run();
  if (!O.Accepted)
    return O;
  std::vector<ClassifiedPos> Positions = Inf.classifiedPositions();
  O.Positions = Positions.size();
  for (const ClassifiedPos &P : Positions) {
    bool Possible = P.Class != PosClass::MustNonConst;
    O.PossibleConst[{std::string(P.Pos.Fn->getName()), P.Pos.ParamIndex,
                     P.Pos.Depth}] = Possible;
    O.NumPossibleConst += Possible;
  }
  return O;
}

/// Checks the oracle on one program; returns how many positions poly adds
/// to mono's possible-const set.
unsigned expectMonoWithinPoly(const std::string &Name,
                              const std::string &Source) {
  SCOPED_TRACE(Name);
  Outcome Mono = analyze(Name, Source, /*Polymorphic=*/false);
  Outcome Poly = analyze(Name, Source, /*Polymorphic=*/true);
  EXPECT_TRUE(Mono.FrontEndOk);
  EXPECT_TRUE(Poly.FrontEndOk);
  if (!Mono.Accepted)
    return 0; // Nothing is claimed about a program mono rejects.
  EXPECT_TRUE(Poly.Accepted) << "mono accepts, poly rejects";
  if (!Poly.Accepted)
    return 0;
  EXPECT_EQ(Mono.Positions, Poly.Positions);
  EXPECT_EQ(Mono.PossibleConst.size(), Poly.PossibleConst.size());
  unsigned Lost = 0;
  for (const auto &[Key, Possible] : Mono.PossibleConst) {
    auto It = Poly.PossibleConst.find(Key);
    if (Possible && (It == Poly.PossibleConst.end() || !It->second))
      ++Lost;
  }
  EXPECT_EQ(Lost, 0u) << "possible-const under mono, not under poly";
  EXPECT_LE(Mono.NumPossibleConst, Poly.NumPossibleConst);
  return Poly.NumPossibleConst - std::min(Poly.NumPossibleConst,
                                          Mono.NumPossibleConst);
}

void expectSynthProgram(uint64_t Seed) {
  synth::SynthProgram Prog =
      synth::generateProgram(synth::paramsForLines(Seed, 20000));
  expectMonoWithinPoly("qualgen seed " + std::to_string(Seed), Prog.Source);
}

} // namespace

TEST(MonoWithinPoly, ExamplePrograms) {
  std::filesystem::path Dir =
      std::filesystem::path(QUALS_SOURCE_DIR) / "examples" / "programs";
  std::vector<std::filesystem::path> Files;
  for (const auto &E : std::filesystem::directory_iterator(Dir))
    if (E.path().extension() == ".c")
      Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  ASSERT_FALSE(Files.empty()) << "no .c programs in " << Dir;
  unsigned Gained = 0;
  for (const std::filesystem::path &F : Files) {
    std::string Source, Error;
    ASSERT_TRUE(readFileBytes(F.string(), Source, Error)) << Error;
    Gained += expectMonoWithinPoly(F.filename().string(), Source);
  }
  // Not vacuous: somewhere in the corpus poly proves more (strchr_demo.c).
  EXPECT_GT(Gained, 0u);
}

TEST(MonoWithinPoly, SynthProgramSeed7) { expectSynthProgram(7); }

TEST(MonoWithinPoly, SynthProgramSeed42) { expectSynthProgram(42); }
