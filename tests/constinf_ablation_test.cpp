//===- tests/constinf_ablation_test.cpp - Design-decision ablations -------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Targeted tests that each Section 4.2 design decision is load-bearing, by
/// toggling the corresponding ConstInference option and watching the result
/// flip on a minimal program.
///
//===----------------------------------------------------------------------===//

#include "CTestUtil.h"

#include <gtest/gtest.h>

using namespace quals;
using namespace quals::cfront;
using namespace quals::constinf;

namespace {

struct AblRig : ConstRig {
  bool analyze(const std::string &Source,
               const ConstInference::Options &Opts) {
    if (TU.Decls.empty() && !(parse("abl.c", Source) && FrontEnd::analyze()))
      return false;
    Diags.clear();
    return infer(Opts);
  }
};

TEST(ConstInfAblation, CastSeveringIsWhatPermitsConstRemoval) {
  // The classic "cast away const then write" program is accepted with the
  // paper's severing rule and rejected when casts keep flow.
  const char *Prog =
      "void f(const int *p) { int *q; q = (int *)p; *q = 1; }";
  {
    AblRig R;
    ConstInference::Options Opts;
    EXPECT_TRUE(R.analyze(Prog, Opts)) << R.Diags.renderAll();
  }
  {
    AblRig R;
    ConstInference::Options Opts;
    Opts.CastsSeverFlow = false;
    EXPECT_FALSE(R.analyze(Prog, Opts));
  }
}

TEST(ConstInfAblation, LibraryConservatismPinsArguments) {
  const char *Prog = "void f(int *p) { mystery(p); }";
  {
    AblRig R;
    ConstInference::Options Opts;
    ASSERT_TRUE(R.analyze(Prog, Opts)) << R.Diags.renderAll();
    EXPECT_EQ(R.classOf("f", 0), PosClass::MustNonConst);
  }
  {
    AblRig R;
    ConstInference::Options Opts;
    Opts.ConservativeLibraries = false;
    ASSERT_TRUE(R.analyze(Prog, Opts)) << R.Diags.renderAll();
    EXPECT_EQ(R.classOf("f", 0), PosClass::Either);
  }
}

TEST(ConstInfAblation, FieldSharingPropagatesAcrossInstances) {
  // A write through one instance's field must pin a pointer stored into
  // the same field via a different instance -- but only when fields share
  // qualifiers.
  const char *Prog =
      "struct st { int *p; };\n"
      "void w(struct st *s) { *(s->p) = 1; }\n"
      "void r(struct st *t, int *q) { t->p = q; }\n";
  {
    AblRig R;
    ConstInference::Options Opts;
    Opts.Polymorphic = false;
    ASSERT_TRUE(R.analyze(Prog, Opts)) << R.Diags.renderAll();
    EXPECT_EQ(R.classOf("r", 1), PosClass::MustNonConst);
  }
  {
    AblRig R;
    ConstInference::Options Opts;
    Opts.Polymorphic = false;
    Opts.StructFieldsShared = false;
    ASSERT_TRUE(R.analyze(Prog, Opts)) << R.Diags.renderAll();
    EXPECT_EQ(R.classOf("r", 1), PosClass::Either);
  }
}

TEST(ConstInfAblation, CalleesFirstOrderEnablesPolymorphism) {
  const char *Prog =
      "int *id(int *x) { return x; }\n"
      "void writer(int *p) { *id(p) = 1; }\n"
      "int reader(int *q) { return *id(q); }\n";
  {
    AblRig R;
    ConstInference::Options Opts;
    ASSERT_TRUE(R.analyze(Prog, Opts)) << R.Diags.renderAll();
    EXPECT_EQ(R.classOf("reader", 0), PosClass::Either);
  }
  {
    AblRig R;
    ConstInference::Options Opts;
    Opts.CalleesFirst = false;
    ASSERT_TRUE(R.analyze(Prog, Opts)) << R.Diags.renderAll();
    // Callers analyzed before id's scheme exists: they used the shared
    // monomorphic interface, so the write pins the reader's argument too.
    EXPECT_EQ(R.classOf("reader", 0), PosClass::MustNonConst);
  }
}

} // namespace
