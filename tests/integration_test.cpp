//===- tests/integration_test.cpp - Whole-pipeline integration ------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end tests over a realistic multi-file C program: parse several
/// buffers into one translation unit (the paper analyzes whole multi-file
/// programs), run both inference modes, and check counts, classifications,
/// annotated output, determinism, and agreement between modes.
///
//===----------------------------------------------------------------------===//

#include "cfront/FrontEnd.h"
#include "constinf/ConstInfer.h"

#include <gtest/gtest.h>

using namespace quals;
using namespace quals::cfront;
using namespace quals::constinf;

namespace {

// A miniature "string library + client" program split across three files,
// exercising prototypes-vs-definitions across buffers, structs, typedefs,
// library calls, varargs, casts, recursion, and function pointers.
const char *Header =
    "typedef unsigned long size_t;\n"
    "int printf(const char *fmt, ...);\n"
    "void *memcpy(void *dst, const void *src, size_t n);\n"
    "size_t my_strlen(const char *s);\n"
    "char *my_strcpy(char *dst, const char *src);\n"
    "char *my_strchr(char *s, int c);\n"
    "struct buffer { char *data; size_t len; size_t cap; };\n"
    "void buf_append(struct buffer *b, const char *text);\n"
    "size_t buf_len(struct buffer *b);\n";

const char *Library =
    "typedef unsigned long size_t;\n"
    "size_t my_strlen(const char *s) {\n"
    "  size_t n = 0;\n"
    "  while (*s) { n++; s = s + 1; }\n"
    "  return n;\n"
    "}\n"
    "char *my_strcpy(char *dst, const char *src) {\n"
    "  char *d = dst;\n"
    "  while (*src) { *d = *src; d = d + 1; src = src + 1; }\n"
    "  *d = 0;\n"
    "  return dst;\n"
    "}\n"
    "char *my_strchr(char *s, int c) {\n"
    "  while (*s && *s != c) s = s + 1;\n"
    "  return s;\n"
    "}\n";

const char *Client =
    "typedef unsigned long size_t;\n"
    "size_t my_strlen(const char *s);\n"
    "char *my_strcpy(char *dst, const char *src);\n"
    "char *my_strchr(char *s, int c);\n"
    "int printf(const char *fmt, ...);\n"
    "struct buffer { char *data; size_t len; size_t cap; };\n"
    "void buf_append(struct buffer *b, const char *text) {\n"
    "  size_t n = my_strlen(text);\n"
    "  my_strcpy(b->data + b->len, text);\n"
    "  b->len = b->len + n;\n"
    "}\n"
    "size_t buf_len(struct buffer *b) { return b->len; }\n"
    "int count(char *text, int c) {\n"
    "  int n = 0;\n"
    "  char *p = my_strchr(text, c);\n"
    "  while (*p) { n++; p = my_strchr(p + 1, c); }\n"
    "  return n;\n"
    "}\n"
    "void shout(char *line) {\n"
    "  char *bang = my_strchr(line, '.');\n"
    "  if (*bang) *bang = '!';\n"
    "  printf(\"%s\\n\", line);\n"
    "}\n";

struct IntRig : FrontEnd {
  bool load() {
    return parse("lib.h", Header) && parse("lib.c", Library) &&
           parse("client.c", Client) && analyze();
  }
};

PosClass classify(ConstInference &Inf, std::string_view Fn, int ParamIndex,
                  unsigned Depth = 0) {
  for (const InterestingPos &P : Inf.positions())
    if (P.Fn->getName() == Fn && P.ParamIndex == ParamIndex &&
        P.Depth == Depth)
      return Inf.classify(P);
  ADD_FAILURE() << "missing position " << Fn << "#" << ParamIndex;
  return PosClass::MustNonConst;
}

TEST(Integration, MultiFileProgramAnalyzes) {
  IntRig R;
  ASSERT_TRUE(R.load()) << R.Diags.renderAll();
  // Definitions from lib.c completed the prototypes from lib.h.
  EXPECT_TRUE(R.TU.FunctionMap.at("my_strlen")->isDefined());
  EXPECT_TRUE(R.TU.FunctionMap.at("buf_append")->isDefined());
  // memcpy stayed a library prototype.
  EXPECT_FALSE(R.TU.FunctionMap.at("memcpy")->isDefined());

  ConstInference::Options Opts;
  ConstInference Inf(R.TU, R.Diags, Opts);
  ASSERT_TRUE(Inf.run()) << R.Diags.renderAll();

  ConstCounts C = Inf.counts();
  EXPECT_GT(C.Total, 8u);
  EXPECT_GE(C.PossibleConst, C.Declared);
  EXPECT_EQ(C.PossibleConst + C.MustNonConst, C.Total);
}

TEST(Integration, ClassificationsMatchTheCode) {
  IntRig R;
  ASSERT_TRUE(R.load()) << R.Diags.renderAll();
  ConstInference::Options Opts;
  ConstInference Inf(R.TU, R.Diags, Opts);
  ASSERT_TRUE(Inf.run()) << R.Diags.renderAll();

  // Declared consts hold.
  EXPECT_EQ(classify(Inf, "my_strlen", 0), PosClass::MustConst);
  EXPECT_EQ(classify(Inf, "my_strcpy", 1), PosClass::MustConst);
  EXPECT_EQ(classify(Inf, "buf_append", 1), PosClass::MustConst);
  // my_strcpy writes through dst.
  EXPECT_EQ(classify(Inf, "my_strcpy", 0), PosClass::MustNonConst);
  // shout writes through my_strchr's result into its own line.
  EXPECT_EQ(classify(Inf, "shout", 0), PosClass::MustNonConst);
  // count only reads: polymorphically const-able.
  EXPECT_EQ(classify(Inf, "count", 0), PosClass::Either);
  // my_strchr's own parameter stays generic under polymorphism.
  EXPECT_EQ(classify(Inf, "my_strchr", 0), PosClass::Either);
}

TEST(Integration, MonoPinsTheStrchrClient) {
  IntRig R;
  ASSERT_TRUE(R.load()) << R.Diags.renderAll();
  ConstInference::Options Opts;
  Opts.Polymorphic = false;
  ConstInference Inf(R.TU, R.Diags, Opts);
  ASSERT_TRUE(Inf.run()) << R.Diags.renderAll();
  // Monomorphically, shout's write through my_strchr pins count's text.
  EXPECT_EQ(classify(Inf, "count", 0), PosClass::MustNonConst);
  EXPECT_EQ(classify(Inf, "my_strchr", 0), PosClass::MustNonConst);
}

TEST(Integration, AnnotatedPrototypesAreConsistent) {
  IntRig R;
  ASSERT_TRUE(R.load()) << R.Diags.renderAll();
  ConstInference::Options Opts;
  ConstInference Inf(R.TU, R.Diags, Opts);
  ASSERT_TRUE(Inf.run()) << R.Diags.renderAll();
  std::string Protos = Inf.renderAnnotatedPrototypes();
  EXPECT_NE(Protos.find("my_strlen(const char *"), std::string::npos)
      << Protos;
  // my_strcpy's dst must stay non-const in the output.
  ASSERT_NE(Protos.find("my_strcpy("), std::string::npos);
  EXPECT_EQ(Protos.find("my_strcpy(const"), std::string::npos) << Protos;
}

TEST(Integration, AnalysisIsDeterministic) {
  // Two fresh pipelines over the same text agree exactly.
  auto runOnce = [](bool Poly) {
    IntRig R;
    EXPECT_TRUE(R.load());
    ConstInference::Options Opts;
    Opts.Polymorphic = Poly;
    ConstInference Inf(R.TU, R.Diags, Opts);
    EXPECT_TRUE(Inf.run());
    ConstCounts C = Inf.counts();
    return std::make_tuple(C.Declared, C.PossibleConst, C.Total,
                           Inf.numQualVars(), Inf.numConstraints());
  };
  EXPECT_EQ(runOnce(true), runOnce(true));
  EXPECT_EQ(runOnce(false), runOnce(false));
}

TEST(Integration, PolyNeverBelowMonoOnThisProgram) {
  IntRig RMono, RPoly;
  ASSERT_TRUE(RMono.load());
  ASSERT_TRUE(RPoly.load());
  ConstInference::Options MonoOpts;
  MonoOpts.Polymorphic = false;
  ConstInference Mono(RMono.TU, RMono.Diags, MonoOpts);
  ASSERT_TRUE(Mono.run());
  ConstInference::Options PolyOpts;
  ConstInference Poly(RPoly.TU, RPoly.Diags, PolyOpts);
  ASSERT_TRUE(Poly.run());
  EXPECT_GT(Poly.counts().PossibleConst, Mono.counts().PossibleConst);
  EXPECT_EQ(Poly.counts().Total, Mono.counts().Total);
}

} // namespace
