//===- tests/programs_test.cpp - Shipped example programs -----------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives the .q programs shipped in examples/programs/ through the full
/// pipeline (the same path tools/qualcheck takes) and pins their expected
/// verdicts, so the corpus can't rot. Also covers Observation 1 (stripping
/// qualifiers preserves standard typability) on the same corpus, and the
/// depth-aware annotated-prototype output for C.
///
//===----------------------------------------------------------------------===//

#include "LambdaTestUtil.h"
#include "cfront/FrontEnd.h"
#include "constinf/ConstInfer.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#ifndef QUALS_SOURCE_DIR
#define QUALS_SOURCE_DIR "."
#endif

using namespace quals;
using namespace quals::lambda;

namespace {

std::string readProgram(const std::string &Name) {
  std::ifstream In(std::string(QUALS_SOURCE_DIR) + "/examples/programs/" +
                   Name);
  EXPECT_TRUE(In.good()) << "missing example program " << Name;
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

struct CorpusCase {
  const char *File;
  bool PolyAccepted;
  bool MonoAccepted;
  bool RunsToValue; ///< Under Figure 5 (independent of static verdict).
};

/// The ctest name embeds GetParam(); without this gtest dumps the raw bytes
/// of the file-name pointer, which move with address-space randomization.
void PrintTo(const CorpusCase &C, std::ostream *OS) {
  auto YesNo = [](bool B) { return B ? "yes" : "no"; };
  *OS << C.File << " poly=" << YesNo(C.PolyAccepted)
      << " mono=" << YesNo(C.MonoAccepted) << " runs=" << YesNo(C.RunsToValue);
}

class Corpus : public ::testing::TestWithParam<CorpusCase> {};

TEST_P(Corpus, VerdictsArePinned) {
  const CorpusCase &C = GetParam();
  std::string Source = readProgram(C.File);
  ASSERT_FALSE(Source.empty());

  {
    Rig R;
    CheckResult Res = R.check(Source, /*Polymorphic=*/true);
    ASSERT_TRUE(Res.StdTypeOk) << R.Diags.renderAll();
    EXPECT_EQ(Res.QualOk, C.PolyAccepted) << C.File;
  }
  {
    Rig R;
    CheckResult Res = R.check(Source, /*Polymorphic=*/false);
    ASSERT_TRUE(Res.StdTypeOk) << R.Diags.renderAll();
    EXPECT_EQ(Res.QualOk, C.MonoAccepted) << C.File;
  }
  {
    Rig R;
    EvalResult Run = R.run(Source);
    EXPECT_EQ(Run.Outcome == EvalOutcome::Value, C.RunsToValue)
        << C.File << ": " << Run.StuckReason;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shipped, Corpus,
    ::testing::Values(
        CorpusCase{"id_poly.q", true, false, true},
        CorpusCase{"nonzero_alias.q", false, false, false},
        CorpusCase{"nonzero_ok.q", true, true, true},
        CorpusCase{"const_cell.q", false, false, true}),
    [](const ::testing::TestParamInfo<CorpusCase> &Info) {
      std::string Name = Info.param.File;
      for (char &C : Name)
        if (C == '.' || C == '-')
          C = '_';
      return Name;
    });

TEST(Corpus, TaintLeakRejectedUnderTaintSystem) {
  // taint_leak.q uses the tainted qualifier; the Rig registers it too.
  Rig R;
  CheckResult Res = R.check(readProgram("taint_leak.q"));
  ASSERT_TRUE(Res.StdTypeOk) << R.Diags.renderAll();
  EXPECT_FALSE(Res.QualOk);
}

TEST(Corpus, ObservationOneStripPreservesStandardTyping) {
  // Observation 1: if e typechecks in the qualified system's standard
  // fragment, strip(e) typechecks in the standard system with the same
  // shape.
  for (const char *File : {"id_poly.q", "nonzero_alias.q", "nonzero_ok.q",
                           "const_cell.q", "taint_leak.q"}) {
    Rig R;
    const Expr *Program = R.parse(readProgram(File));
    ASSERT_NE(Program, nullptr) << File;
    StdTypeChecker Full(R.STys, R.Diags);
    STy *FullTy = Full.check(Program);
    ASSERT_NE(FullTy, nullptr) << File;

    const Expr *Stripped = stripQualifiers(R.Ast, Program);
    StdTypeChecker Plain(R.STys, R.Diags);
    STy *PlainTy = Plain.check(Stripped);
    ASSERT_NE(PlainTy, nullptr) << File;
    EXPECT_EQ(R.STys.toString(FullTy), R.STys.toString(PlainTy)) << File;
  }
}

TEST(Corpus, AnnotatedPrototypesHandleDoublePointers) {
  using namespace quals::cfront;
  using namespace quals::constinf;
  FrontEnd FE;
  ASSERT_TRUE(FE.parse(
      "dp.c",
      "int walk(char **names) {\n"
      "  int n = 0;\n"
      "  while (*names) { n++; names = names + 1; }\n"
      "  return n;\n"
      "}\n"
      "void clobber(char **names) { *names = (char *)0; }\n"));
  ASSERT_TRUE(FE.analyze());
  ConstInference::Options Opts;
  ConstInference Inf(FE.TU, FE.Diags, Opts);
  ASSERT_TRUE(Inf.run()) << FE.Diags.renderAll();
  std::string Protos = Inf.renderAnnotatedPrototypes();
  // walk only reads: both pointer levels may be const.
  EXPECT_NE(Protos.find("walk(const char *const *"), std::string::npos)
      << Protos;
  // clobber writes *names: the outer level must stay non-const, the inner
  // may be const.
  EXPECT_NE(Protos.find("clobber(const char **"), std::string::npos)
      << Protos;
}

} // namespace
