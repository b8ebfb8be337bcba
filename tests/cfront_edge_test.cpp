//===- tests/cfront_edge_test.cpp - C front-end edge cases ----------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Second-round coverage for the C front end: gnarlier declarators,
/// statement corners, expression precedence, recovery, and the exact type
/// shapes the const inference depends on.
///
//===----------------------------------------------------------------------===//

#include "cfront/FrontEnd.h"

#include <gtest/gtest.h>

using namespace quals;
using namespace quals::cfront;

namespace {

struct ERig : FrontEnd {
  bool parse(const std::string &Source) {
    return FrontEnd::parse("edge.c", Source);
  }
  bool sema(const std::string &Source) { return parse(Source) && analyze(); }
  VarDecl *global(std::string_view Name) {
    auto It = TU.GlobalMap.find(Name);
    return It == TU.GlobalMap.end() ? nullptr : It->second;
  }
};

//===----------------------------------------------------------------------===//
// Declarators
//===----------------------------------------------------------------------===//

TEST(CFrontEdge, PointerToPointerToConst) {
  ERig R;
  ASSERT_TRUE(R.parse("const char **argv;"));
  const auto *P1 = dyn_cast<PointerType>(R.global("argv")->getType().getType());
  ASSERT_NE(P1, nullptr);
  const auto *P2 = dyn_cast<PointerType>(P1->getPointee().getType());
  ASSERT_NE(P2, nullptr);
  EXPECT_TRUE(P2->getPointee().isConst());
}

TEST(CFrontEdge, ConstPointerToConst) {
  ERig R;
  ASSERT_TRUE(R.parse("const int * const cp = 0;"));
  VarDecl *V = R.global("cp");
  EXPECT_TRUE(V->getType().isConst()); // the pointer itself
  const auto *P = cast<PointerType>(V->getType().getType());
  EXPECT_TRUE(P->getPointee().isConst()); // and the pointee
}

TEST(CFrontEdge, ArrayOfFunctionPointers) {
  ERig R;
  ASSERT_TRUE(R.parse("int (*handlers[8])(int);"));
  const auto *A = dyn_cast<ArrayType>(R.global("handlers")->getType().getType());
  ASSERT_NE(A, nullptr);
  EXPECT_EQ(A->getSize(), 8);
  const auto *P = dyn_cast<PointerType>(A->getElement().getType());
  ASSERT_NE(P, nullptr);
  EXPECT_TRUE(isa<FunctionType>(P->getPointee().getType()));
}

TEST(CFrontEdge, FunctionReturningFunctionPointer) {
  ERig R;
  ASSERT_TRUE(R.parse("int (*pick(int which))(char);"));
  auto It = R.TU.FunctionMap.find("pick");
  ASSERT_NE(It, R.TU.FunctionMap.end());
  const FunctionType *FT = It->second->getType();
  const auto *RetPtr = dyn_cast<PointerType>(FT->getReturn().getType());
  ASSERT_NE(RetPtr, nullptr);
  EXPECT_TRUE(isa<FunctionType>(RetPtr->getPointee().getType()));
}

TEST(CFrontEdge, EnumArraySizeFromConstant) {
  ERig R;
  ASSERT_TRUE(R.parse("enum { N = 4 }; int table[N];"));
  const auto *A = dyn_cast<ArrayType>(R.global("table")->getType().getType());
  ASSERT_NE(A, nullptr);
  EXPECT_EQ(A->getSize(), 4);
}

TEST(CFrontEdge, NegativeAndSizeofConstants) {
  ERig R;
  ASSERT_TRUE(R.parse("enum e { A = -3, B, C = sizeof(int) };"));
  EXPECT_EQ(R.TU.EnumConstants.at("A"), -3);
  EXPECT_EQ(R.TU.EnumConstants.at("B"), -2);
  EXPECT_EQ(R.TU.EnumConstants.at("C"), 8); // sizeof approximated as 8
}

TEST(CFrontEdge, AnonymousStructAndUnion) {
  ERig R;
  ASSERT_TRUE(R.parse("struct { int a; } s1; union { int b; char c; } u1;"));
  EXPECT_TRUE(isa<RecordType>(R.global("s1")->getType().getType()));
  const auto *U = cast<RecordType>(R.global("u1")->getType().getType());
  EXPECT_TRUE(U->getDecl()->isUnion());
}

TEST(CFrontEdge, TypedefChains) {
  ERig R;
  ASSERT_TRUE(R.parse("typedef int base; typedef base *bp; "
                      "typedef bp *bpp; bpp deep;"));
  const auto *P1 = dyn_cast<PointerType>(R.global("deep")->getType().getType());
  ASSERT_NE(P1, nullptr);
  const auto *P2 = dyn_cast<PointerType>(P1->getPointee().getType());
  ASSERT_NE(P2, nullptr);
  EXPECT_TRUE(isa<BuiltinType>(P2->getPointee().getType()));
}

TEST(CFrontEdge, TypedefNameReusableAsMemberOrLocal) {
  // The "lexer hack" must be scoped: a typedef name can still appear as a
  // field name.
  ERig R;
  EXPECT_TRUE(R.sema("typedef int len; struct s { int len; };\n"
                     "int f(struct s *p) { return p->len; }"))
      << R.Diags.renderAll();
}

TEST(CFrontEdge, MultipleDeclaratorsMixKinds) {
  ERig R;
  ASSERT_TRUE(R.parse("int a, *b, c[3], (*d)(void);"));
  EXPECT_TRUE(isa<BuiltinType>(R.global("a")->getType().getType()));
  EXPECT_TRUE(isa<PointerType>(R.global("b")->getType().getType()));
  EXPECT_TRUE(isa<ArrayType>(R.global("c")->getType().getType()));
  EXPECT_TRUE(isa<PointerType>(R.global("d")->getType().getType()));
}

//===----------------------------------------------------------------------===//
// Statements and expressions
//===----------------------------------------------------------------------===//

TEST(CFrontEdge, ForWithCommaAndEmptySections) {
  ERig R;
  EXPECT_TRUE(R.sema(
      "int f(int n) {\n"
      "  int i, j;\n"
      "  for (i = 0, j = n; ; ) { if (i >= j) break; i++; }\n"
      "  for (;;) break;\n"
      "  return i;\n"
      "}"))
      << R.Diags.renderAll();
}

TEST(CFrontEdge, PrecedenceOfMixedOperators) {
  // 2 + 3 * 4 == 14, shifts bind looser than +, & looser than ==, etc.
  // The parser's shape is checked structurally via sema acceptance plus a
  // spot check of the tree.
  ERig R;
  ASSERT_TRUE(R.parse("int x = 2 + 3 * 4;"));
  const auto *Init = dyn_cast<CBinary>(R.global("x")->getInit());
  ASSERT_NE(Init, nullptr);
  EXPECT_EQ(Init->getOp(), BinaryOp::Add);
  const auto *Rhs = dyn_cast<CBinary>(Init->getRhs());
  ASSERT_NE(Rhs, nullptr);
  EXPECT_EQ(Rhs->getOp(), BinaryOp::Mul);
}

TEST(CFrontEdge, AssignmentIsRightAssociative) {
  ERig R;
  ASSERT_TRUE(R.sema("int f(void) { int a; int b; int c; a = b = c = 1; "
                     "return a; }"))
      << R.Diags.renderAll();
}

TEST(CFrontEdge, ConditionalNestsAndAssociates) {
  ERig R;
  EXPECT_TRUE(R.sema(
      "int f(int a, int b) { return a ? b ? 1 : 2 : b ? 3 : 4; }"))
      << R.Diags.renderAll();
}

TEST(CFrontEdge, CastVersusParenthesizedExpression) {
  // (x)(y) is a call when x is a variable, a cast when x is a type.
  ERig R;
  EXPECT_TRUE(R.sema(
      "typedef long word;\n"
      "int g(int v) { return v; }\n"
      "long f(int (*x)(int), int y) { return (word)(x)(y) + (word)y; }"))
      << R.Diags.renderAll();
}

TEST(CFrontEdge, SizeofExpressionAndType) {
  ERig R;
  EXPECT_TRUE(R.sema(
      "struct s { int a[4]; };\n"
      "unsigned long f(struct s *p) {\n"
      "  return sizeof(struct s) + sizeof p + sizeof *p + sizeof(int *);\n"
      "}"))
      << R.Diags.renderAll();
}

TEST(CFrontEdge, StringConcatenationAndEscapes) {
  ERig R;
  EXPECT_TRUE(R.sema(
      "char *f(void) { return \"part one \" \"part two\\n\"; }"))
      << R.Diags.renderAll();
}

TEST(CFrontEdge, NestedSwitchWithFallthrough) {
  ERig R;
  EXPECT_TRUE(R.sema(
      "int f(int a, int b) {\n"
      "  int r = 0;\n"
      "  switch (a) {\n"
      "  case 0:\n"
      "  case 1: r = 1; break;\n"
      "  case 2:\n"
      "    switch (b) { case 9: r = 9; break; default: r = 2; }\n"
      "    break;\n"
      "  default: r = -1;\n"
      "  }\n"
      "  return r;\n"
      "}"))
      << R.Diags.renderAll();
}

TEST(CFrontEdge, DoWhileAndNestedLoops) {
  ERig R;
  EXPECT_TRUE(R.sema(
      "int f(int n) {\n"
      "  int t = 0; int i = 0;\n"
      "  do {\n"
      "    int j;\n"
      "    for (j = 0; j < n; j++)\n"
      "      while (t < j) t++;\n"
      "    i++;\n"
      "  } while (i < n);\n"
      "  return t;\n"
      "}"))
      << R.Diags.renderAll();
}

TEST(CFrontEdge, LocalScopesShadow) {
  ERig R;
  EXPECT_TRUE(R.sema(
      "int f(int x) { { int *x; int y; x = &y; *x = 1; } return x; }"))
      << R.Diags.renderAll();
}

TEST(CFrontEdge, AddressOfFieldAndArrayElement) {
  ERig R;
  EXPECT_TRUE(R.sema(
      "struct s { int v; };\n"
      "int *f(struct s *p, int *a, int i) {\n"
      "  if (i) return &p->v;\n"
      "  return &a[i];\n"
      "}"))
      << R.Diags.renderAll();
}

TEST(CFrontEdge, CommaOperatorInCondition) {
  ERig R;
  EXPECT_TRUE(R.sema(
      "int f(int a) { int b; if ((b = a, b > 0)) return b; return 0; }"))
      << R.Diags.renderAll();
}

//===----------------------------------------------------------------------===//
// Error paths
//===----------------------------------------------------------------------===//

TEST(CFrontEdge, MissingSemicolonRecovers) {
  ERig R;
  EXPECT_FALSE(R.parse("int a = 1\nint b = 2;"));
  EXPECT_TRUE(R.Diags.hasErrors());
}

TEST(CFrontEdge, UnterminatedBlockCommentReported) {
  ERig R;
  EXPECT_FALSE(R.parse("int a; /* never closed"));
  EXPECT_TRUE(R.Diags.hasErrors());
}

TEST(CFrontEdge, CallingNonFunctionReported) {
  ERig R;
  EXPECT_FALSE(R.sema("int f(void) { int x; return x(3); }"));
}

TEST(CFrontEdge, ArrowOnNonPointerReported) {
  ERig R;
  EXPECT_FALSE(R.sema(
      "struct s { int v; }; int f(struct s x) { return x->v; }"));
}

TEST(CFrontEdge, DiagnosticsCarryLineNumbers) {
  ERig R;
  EXPECT_FALSE(R.sema("int f(void) {\n  return missing;\n}"));
  std::string Rendered = R.Diags.renderAll();
  EXPECT_NE(Rendered.find("edge.c:2"), std::string::npos) << Rendered;
}

} // namespace
