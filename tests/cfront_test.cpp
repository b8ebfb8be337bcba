//===- tests/cfront_test.cpp - C front-end tests --------------------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//

#include "cfront/CParser.h"
#include "cfront/CSema.h"

#include <gtest/gtest.h>

#include <set>

using namespace quals;
using namespace quals::cfront;

namespace {

/// One parse+sema pipeline per test.
struct CRig {
  SourceManager SM;
  DiagnosticEngine Diags{SM};
  CAstContext Ast;
  CTypeContext Types;
  StringInterner Idents;
  TranslationUnit TU;

  bool parse(const std::string &Source) {
    return parseCSource(SM, "test.c", Source, Ast, Types, Idents, Diags, TU);
  }

  bool parseAndAnalyze(const std::string &Source) {
    if (!parse(Source))
      return false;
    CSema Sema(Ast, Types, Idents, Diags);
    return Sema.analyze(TU);
  }

  FunctionDecl *fn(std::string_view Name) {
    auto It = TU.FunctionMap.find(Name);
    return It == TU.FunctionMap.end() ? nullptr : It->second;
  }

  VarDecl *global(std::string_view Name) {
    auto It = TU.GlobalMap.find(Name);
    return It == TU.GlobalMap.end() ? nullptr : It->second;
  }
};

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

TEST(CLexer, SkipsPreprocessorAndComments) {
  CRig R;
  unsigned Id = R.SM.addBuffer("t.c", "#include <stdio.h>\n"
                                      "/* block */ int x; // line\n");
  CLexer L(R.SM, Id, R.Diags, R.Idents);
  EXPECT_TRUE(L.next().is(CTok::KwInt));
  EXPECT_TRUE(L.next().is(CTok::Ident));
  EXPECT_TRUE(L.next().is(CTok::Semi));
  EXPECT_TRUE(L.next().is(CTok::Eof));
}

TEST(CLexer, NumbersAndSuffixes) {
  CRig R;
  unsigned Id = R.SM.addBuffer("t.c", "42 0x1F 3.5 1e3 7UL 2.5f");
  CLexer L(R.SM, Id, R.Diags, R.Idents);
  CToken T = L.next();
  EXPECT_TRUE(T.is(CTok::IntLit));
  EXPECT_EQ(T.IntValue, 42);
  T = L.next();
  EXPECT_EQ(T.IntValue, 0x1F);
  T = L.next();
  EXPECT_TRUE(T.is(CTok::FloatLit));
  EXPECT_DOUBLE_EQ(T.FloatValue, 3.5);
  T = L.next();
  EXPECT_TRUE(T.is(CTok::FloatLit));
  T = L.next();
  EXPECT_TRUE(T.is(CTok::IntLit));
  EXPECT_EQ(T.IntValue, 7);
  T = L.next();
  EXPECT_TRUE(T.is(CTok::FloatLit));
}

TEST(CLexer, CharAndStringLiterals) {
  CRig R;
  unsigned Id = R.SM.addBuffer("t.c", "'a' '\\n' \"hi\\\"there\"");
  CLexer L(R.SM, Id, R.Diags, R.Idents);
  CToken T = L.next();
  EXPECT_TRUE(T.is(CTok::CharLit));
  EXPECT_EQ(T.IntValue, 'a');
  T = L.next();
  EXPECT_EQ(T.IntValue, '\n');
  EXPECT_TRUE(L.next().is(CTok::StringLit));
}

TEST(CLexer, MultiCharOperators) {
  CRig R;
  unsigned Id = R.SM.addBuffer("t.c", "-> ++ -- << >> <<= >>= ... && || ==");
  CLexer L(R.SM, Id, R.Diags, R.Idents);
  EXPECT_TRUE(L.next().is(CTok::Arrow));
  EXPECT_TRUE(L.next().is(CTok::PlusPlus));
  EXPECT_TRUE(L.next().is(CTok::MinusMinus));
  EXPECT_TRUE(L.next().is(CTok::LessLess));
  EXPECT_TRUE(L.next().is(CTok::GreaterGreater));
  EXPECT_TRUE(L.next().is(CTok::LessLessAssign));
  EXPECT_TRUE(L.next().is(CTok::GreaterGreaterAssign));
  EXPECT_TRUE(L.next().is(CTok::Ellipsis));
  EXPECT_TRUE(L.next().is(CTok::AmpAmp));
  EXPECT_TRUE(L.next().is(CTok::PipePipe));
  EXPECT_TRUE(L.next().is(CTok::EqEq));
}

TEST(CLexer, EveryKeywordLexesToItsOwnKind) {
  const std::pair<const char *, CTok> Keywords[] = {
      {"void", CTok::KwVoid},         {"char", CTok::KwChar},
      {"short", CTok::KwShort},       {"int", CTok::KwInt},
      {"long", CTok::KwLong},         {"float", CTok::KwFloat},
      {"double", CTok::KwDouble},     {"signed", CTok::KwSigned},
      {"unsigned", CTok::KwUnsigned}, {"struct", CTok::KwStruct},
      {"union", CTok::KwUnion},       {"enum", CTok::KwEnum},
      {"typedef", CTok::KwTypedef},   {"const", CTok::KwConst},
      {"volatile", CTok::KwVolatile}, {"static", CTok::KwStatic},
      {"extern", CTok::KwExtern},     {"register", CTok::KwRegister},
      {"auto", CTok::KwAuto},         {"return", CTok::KwReturn},
      {"if", CTok::KwIf},             {"else", CTok::KwElse},
      {"while", CTok::KwWhile},       {"for", CTok::KwFor},
      {"do", CTok::KwDo},             {"break", CTok::KwBreak},
      {"continue", CTok::KwContinue}, {"switch", CTok::KwSwitch},
      {"case", CTok::KwCase},         {"default", CTok::KwDefault},
      {"sizeof", CTok::KwSizeof},     {"goto", CTok::KwGoto}};
  std::string Source;
  std::set<CTok> Kinds;
  for (const auto &[Spelling, Kind] : Keywords) {
    Source += std::string(Spelling) + " ";
    Kinds.insert(Kind);
  }
  EXPECT_EQ(Kinds.size(), 32u);
  CRig R;
  unsigned Id = R.SM.addBuffer("t.c", Source);
  CLexer L(R.SM, Id, R.Diags, R.Idents);
  for (const auto &[Spelling, Kind] : Keywords) {
    CToken T = L.next();
    EXPECT_EQ(T.Kind, Kind) << Spelling;
    EXPECT_EQ(T.Text, Spelling);
  }
  EXPECT_TRUE(L.next().is(CTok::Eof));
}

TEST(CLexer, KeywordNearMissesAreIdentifiers) {
  const char *Words[] = {"int_", "If", "doubles", "_", "structure", "do1"};
  std::string Source;
  for (const char *W : Words)
    Source += std::string(W) + " ";
  CRig R;
  unsigned Id = R.SM.addBuffer("t.c", Source);
  CLexer L(R.SM, Id, R.Diags, R.Idents);
  for (const char *W : Words) {
    CToken T = L.next();
    EXPECT_TRUE(T.is(CTok::Ident)) << W;
    EXPECT_EQ(T.Text, W);
  }
  EXPECT_TRUE(L.next().is(CTok::Eof));
}

TEST(CLexer, IdentifierTextIsInterned) {
  // The lexer interns each identifier once; later stages key names by it.
  CRig R;
  unsigned Id = R.SM.addBuffer("t.c", "name other name");
  CLexer L(R.SM, Id, R.Diags, R.Idents);
  CToken A = L.next(), B = L.next(), C = L.next();
  EXPECT_EQ(A.Text, "name");
  EXPECT_EQ(A.Text.data(), C.Text.data());
  EXPECT_NE(A.Text.data(), B.Text.data());
}

TEST(CLexer, HexOctalAndControlCharEscapes) {
  CRig R;
  unsigned Id = R.SM.addBuffer(
      "t.c", "'\\x41' '\\012' '\\a' '\\b' '\\f' '\\v' '\\?' '\\0' '\\x7e'");
  CLexer L(R.SM, Id, R.Diags, R.Idents);
  for (long Expected : {65L, 10L, 7L, 8L, 12L, 11L, long('?'), 0L, 126L}) {
    CToken T = L.next();
    EXPECT_TRUE(T.is(CTok::CharLit));
    EXPECT_EQ(T.IntValue, Expected);
  }
  EXPECT_TRUE(L.next().is(CTok::Eof));
  EXPECT_FALSE(R.Diags.hasErrors()) << R.Diags.renderAll();
}

TEST(CParser, CharEscapesInInitializers) {
  CRig R;
  ASSERT_TRUE(R.parseAndAnalyze("char a = '\\x41';\n"
                                "char b = '\\012';\n"
                                "char c = '\\a';\n"))
      << R.Diags.renderAll();
  long Values[3];
  for (int I = 0; I != 3; ++I) {
    const auto *Init = R.TU.Globals[I]->getInit();
    ASSERT_TRUE(Init && isa<CIntLit>(Init));
    Values[I] = cast<CIntLit>(Init)->getValue();
  }
  EXPECT_EQ(Values[0], 65);
  EXPECT_EQ(Values[1], 10);
  EXPECT_EQ(Values[2], 7);
}

//===----------------------------------------------------------------------===//
// Declarations and declarators
//===----------------------------------------------------------------------===//

TEST(CParser, SimpleGlobals) {
  CRig R;
  ASSERT_TRUE(R.parse("int x; const char c; unsigned long ul;"));
  ASSERT_NE(R.global("x"), nullptr);
  EXPECT_EQ(toString(R.global("x")->getType()), "int");
  EXPECT_TRUE(R.global("c")->getType().isConst());
  EXPECT_EQ(toString(R.global("ul")->getType()), "unsigned long");
}

TEST(CParser, PointerDeclarators) {
  CRig R;
  ASSERT_TRUE(R.parse("int *p; const int *q; int * const r;"));
  EXPECT_EQ(toString(R.global("p")->getType()), "int *");
  EXPECT_EQ(toString(R.global("q")->getType()), "const int *");
  // r: const pointer to int.
  EXPECT_TRUE(R.global("r")->getType().isConst());
  EXPECT_TRUE(isa<PointerType>(R.global("r")->getType().getType()));
}

TEST(CParser, ArrayAndMixedDeclarators) {
  CRig R;
  ASSERT_TRUE(R.parse("int a[10]; int *b[4]; char m[3][5];"));
  const auto *A = dyn_cast<ArrayType>(R.global("a")->getType().getType());
  ASSERT_NE(A, nullptr);
  EXPECT_EQ(A->getSize(), 10);
  // b: array of 4 pointers to int.
  const auto *B = dyn_cast<ArrayType>(R.global("b")->getType().getType());
  ASSERT_NE(B, nullptr);
  EXPECT_TRUE(isa<PointerType>(B->getElement().getType()));
  // m: array of 3 arrays of 5 char.
  const auto *M = dyn_cast<ArrayType>(R.global("m")->getType().getType());
  ASSERT_NE(M, nullptr);
  EXPECT_EQ(M->getSize(), 3);
  EXPECT_TRUE(isa<ArrayType>(M->getElement().getType()));
}

TEST(CParser, FunctionPointerDeclarator) {
  CRig R;
  ASSERT_TRUE(R.parse("int (*handler)(int, char *);"));
  VarDecl *H = R.global("handler");
  ASSERT_NE(H, nullptr);
  const auto *PT = dyn_cast<PointerType>(H->getType().getType());
  ASSERT_NE(PT, nullptr);
  const auto *FT = dyn_cast<FunctionType>(PT->getPointee().getType());
  ASSERT_NE(FT, nullptr);
  EXPECT_EQ(FT->getParams().size(), 2u);
}

TEST(CParser, FunctionReturningPointer) {
  CRig R;
  ASSERT_TRUE(R.parse("char *strchr(const char *s, int c);"));
  FunctionDecl *F = R.fn("strchr");
  ASSERT_NE(F, nullptr);
  EXPECT_FALSE(F->isDefined());
  EXPECT_EQ(toString(F->getType()->getReturn()), "char *");
  ASSERT_EQ(F->getParams().size(), 2u);
  const auto *PT =
      dyn_cast<PointerType>(F->getParams()[0]->getType().getType());
  ASSERT_NE(PT, nullptr);
  EXPECT_TRUE(PT->getPointee().isConst());
}

TEST(CParser, TypedefsAreMacroExpanded) {
  // The paper's Section 4.2 example: "typedef int *ip; ip c, d;" -- c and d
  // share no qualifier annotations (each gets the expanded type).
  CRig R;
  ASSERT_TRUE(R.parse("typedef int *ip; ip c, d;"));
  VarDecl *C = R.global("c"), *D = R.global("d");
  ASSERT_NE(C, nullptr);
  ASSERT_NE(D, nullptr);
  EXPECT_TRUE(isa<PointerType>(C->getType().getType()));
  EXPECT_TRUE(isa<PointerType>(D->getType().getType()));
}

TEST(CParser, TypedefListsAtEveryScope) {
  // One declarator loop serves typedefs at file and block scope alike.
  CRig R;
  ASSERT_TRUE(R.parseAndAnalyze("typedef int *ip, **ipp;\n"
                                "int f(void) { typedef char *cp, c; cp p = 0;"
                                " c k = 0; ip q = 0; ipp r = &q; return k; }\n"))
      << R.Diags.renderAll();
}

TEST(CParser, TypedefOfStruct) {
  CRig R;
  ASSERT_TRUE(R.parse("typedef struct node { int v; struct node *next; } "
                      "Node; Node *head;"));
  VarDecl *H = R.global("head");
  ASSERT_NE(H, nullptr);
  const auto *PT = dyn_cast<PointerType>(H->getType().getType());
  ASSERT_NE(PT, nullptr);
  EXPECT_TRUE(isa<RecordType>(PT->getPointee().getType()));
}

TEST(CParser, StructDefinitionAndFields) {
  CRig R;
  ASSERT_TRUE(R.parse("struct st { int x; char *name; };"));
  ASSERT_EQ(R.TU.Records.size(), 1u);
  RecordDecl *RD = R.TU.Records[0];
  EXPECT_TRUE(RD->isComplete());
  ASSERT_EQ(RD->getFields().size(), 2u);
  EXPECT_EQ(RD->getFields()[1]->getName(), "name");
}

TEST(CParser, SelfReferentialStruct) {
  CRig R;
  ASSERT_TRUE(R.parse("struct list { struct list *next; int v; };"));
  RecordDecl *RD = R.TU.Records[0];
  const auto *PT =
      dyn_cast<PointerType>(RD->getFields()[0]->getType().getType());
  ASSERT_NE(PT, nullptr);
  const auto *RT = dyn_cast<RecordType>(PT->getPointee().getType());
  ASSERT_NE(RT, nullptr);
  EXPECT_EQ(RT->getDecl(), RD);
}

TEST(CParser, EnumWithValues) {
  CRig R;
  ASSERT_TRUE(R.parse("enum color { RED, GREEN = 5, BLUE };"));
  EXPECT_EQ(R.TU.EnumConstants.at("RED"), 0);
  EXPECT_EQ(R.TU.EnumConstants.at("GREEN"), 5);
  EXPECT_EQ(R.TU.EnumConstants.at("BLUE"), 6);
}

TEST(CParser, VariadicPrototype) {
  CRig R;
  ASSERT_TRUE(R.parse("int printf(const char *fmt, ...);"));
  FunctionDecl *F = R.fn("printf");
  ASSERT_NE(F, nullptr);
  EXPECT_TRUE(F->getType()->isVariadic());
}

TEST(CParser, KAndRNoPrototype) {
  CRig R;
  ASSERT_TRUE(R.parse("int legacy();"));
  EXPECT_TRUE(R.fn("legacy")->getType()->hasNoPrototype());
}

TEST(CParser, FunctionDefinitionWithBody) {
  CRig R;
  ASSERT_TRUE(R.parse("int add(int a, int b) { return a + b; }"));
  FunctionDecl *F = R.fn("add");
  ASSERT_NE(F, nullptr);
  EXPECT_TRUE(F->isDefined());
  ASSERT_EQ(F->getParams().size(), 2u);
  EXPECT_EQ(F->getParams()[0]->getName(), "a");
}

TEST(CParser, PrototypeThenDefinitionMerges) {
  CRig R;
  ASSERT_TRUE(R.parse("int f(int); int f(int x) { return x; }"));
  FunctionDecl *F = R.fn("f");
  ASSERT_NE(F, nullptr);
  EXPECT_TRUE(F->isDefined());
  // Only one entry in Functions for f.
  int Count = 0;
  for (FunctionDecl *G : R.TU.Functions)
    if (G->getName() == "f")
      ++Count;
  EXPECT_EQ(Count, 1);
}

/// Names of TU.Functions, in order.
std::vector<std::string> functionNames(const TranslationUnit &TU) {
  std::vector<std::string> Names;
  for (const FunctionDecl *F : TU.Functions)
    Names.emplace_back(F->getName());
  return Names;
}

TEST(CParser, CompletedPrototypesKeepTheirSlots) {
  // K prototypes, then their definitions in reverse order: each definition
  // replaces its prototype in place, so Functions keeps prototype order.
  constexpr unsigned K = 50;
  std::string Source;
  for (unsigned I = 0; I != K; ++I)
    Source += "int f" + std::to_string(I) + "(int);\n";
  for (unsigned I = K; I-- != 0;)
    Source += "int f" + std::to_string(I) + "(int x) { return x; }\n";
  CRig R;
  ASSERT_TRUE(R.parse(Source)) << R.Diags.renderAll();
  ASSERT_EQ(R.TU.Functions.size(), K);
  ASSERT_EQ(R.TU.Decls.size(), K);
  for (unsigned I = 0; I != K; ++I) {
    FunctionDecl *F = R.TU.Functions[I];
    EXPECT_EQ(F->getName(), "f" + std::to_string(I));
    EXPECT_TRUE(F->isDefined());
    EXPECT_EQ(R.fn(F->getName()), F);
    // Decls still lists the prototype the definition completed.
    const auto *Proto = dyn_cast<FunctionDecl>(R.TU.Decls[I]);
    ASSERT_NE(Proto, nullptr);
    EXPECT_NE(Proto, F);
    EXPECT_FALSE(Proto->isDefined());
    EXPECT_EQ(Proto->getName(), F->getName());
  }
}

TEST(CParser, PrototypeCompletedFromAnotherBuffer) {
  CRig R;
  ASSERT_TRUE(R.parse("int a(int);\nint shared(int);\nint b(int);\n"));
  std::vector<CDecl *> DeclsAfterA = R.TU.Decls;
  FunctionDecl *Proto = R.fn("shared");
  ASSERT_TRUE(R.parse("int c(int);\nint shared(int x) { return x; }\n"));
  EXPECT_EQ(functionNames(R.TU),
            (std::vector<std::string>{"a", "shared", "b", "c"}));
  FunctionDecl *Def = R.TU.Functions[1];
  EXPECT_NE(Def, Proto);
  EXPECT_TRUE(Def->isDefined());
  EXPECT_EQ(R.fn("shared"), Def);
  // The second buffer added only c's prototype to Decls.
  std::vector<CDecl *> Expected = DeclsAfterA;
  Expected.push_back(R.fn("c"));
  EXPECT_EQ(R.TU.Decls, Expected);
}

TEST(CParser, RedefinitionAfterCompletionAppends) {
  // Completion happens once; a second definition is a new entry.
  CRig R;
  ASSERT_TRUE(R.parse("int f(int);\nint g(void);\n"
                      "int f(int x) { return x; }\n"
                      "int f(int y) { return y + 1; }\n"));
  EXPECT_EQ(functionNames(R.TU),
            (std::vector<std::string>{"f", "g", "f"}));
  FunctionDecl *First = R.TU.Functions[0];
  FunctionDecl *Second = R.TU.Functions[2];
  EXPECT_TRUE(First->isDefined());
  EXPECT_TRUE(Second->isDefined());
  EXPECT_NE(First, Second);
  EXPECT_EQ(R.fn("f"), Second);
  ASSERT_EQ(R.TU.Decls.size(), 3u);
  EXPECT_EQ(R.TU.Decls[0]->getName(), "f");
  EXPECT_NE(R.TU.Decls[0], First); // the completed prototype
  EXPECT_EQ(R.TU.Decls[1], R.fn("g"));
  EXPECT_EQ(R.TU.Decls[2], Second);
}

TEST(CAstContextTest, DeclIdsAreDensePerKind) {
  CRig R;
  ASSERT_TRUE(R.parse("struct s { int a; int b; };\n"
                      "union u { int c; };\n"
                      "int g1, g2;\n"
                      "int f(int p, int q);\n"
                      "int f(int x, int y) { int l = x; return l + y; }\n"
                      "int h(struct s *sp) { return sp->a; }\n"));
  ASSERT_TRUE(R.parse("int k(void) { return f(1, 2); }\n"));
  CSema Sema(R.Ast, R.Types, R.Idents, R.Diags);
  ASSERT_TRUE(Sema.analyze(R.TU)) << R.Diags.renderAll();
  EXPECT_EQ(R.TU.Context, &R.Ast);

  // Every declaration reachable from the unit, including the completed
  // prototype of f (still in Decls) and parameters and locals.
  std::vector<const CDecl *> All(R.TU.Decls.begin(), R.TU.Decls.end());
  for (const FunctionDecl *F : R.TU.Functions) {
    All.push_back(F);
    All.insert(All.end(), F->getParams().begin(), F->getParams().end());
  }
  for (const RecordDecl *RD : R.TU.Records) {
    All.push_back(RD);
    All.insert(All.end(), RD->getFields().begin(), RD->getFields().end());
  }
  const auto *Body = cast<CCompoundStmt>(R.fn("f")->getBody());
  for (const VarDecl *L : cast<CDeclStmt>(Body->getBody()[0])->getDecls())
    All.push_back(L);
  for (const CDecl *D : R.TU.Decls)
    if (const auto *F = dyn_cast<FunctionDecl>(D))
      All.insert(All.end(), F->getParams().begin(), F->getParams().end());

  // Per kind: the distinct ids seen are exactly 0..numDecls-1.
  for (CDecl::Kind K : {CDecl::Kind::Var, CDecl::Kind::Field,
                        CDecl::Kind::Function, CDecl::Kind::Record}) {
    std::set<const CDecl *> Seen;
    std::set<unsigned> Ids;
    for (const CDecl *D : All) {
      if (D->getKind() == K && Seen.insert(D).second) {
        EXPECT_TRUE(Ids.insert(D->getId()).second)
            << "duplicate id " << D->getId();
      }
    }
    ASSERT_FALSE(Ids.empty());
    EXPECT_EQ(Ids.size(), R.TU.numDecls(K));
    EXPECT_EQ(*Ids.rbegin() + 1, R.TU.numDecls(K));
  }
  // g1, g2 and the locals: p, q (prototype), x, y, sp, l.
  EXPECT_EQ(R.TU.numDecls(CDecl::Kind::Var), 8u);
  EXPECT_EQ(R.TU.numDecls(CDecl::Kind::Field), 3u);
  EXPECT_EQ(R.TU.numDecls(CDecl::Kind::Function), 4u); // f twice, h, k
  EXPECT_EQ(R.TU.numDecls(CDecl::Kind::Record), 2u);
}

TEST(CParser, ArrayParamsDecay) {
  CRig R;
  ASSERT_TRUE(R.parse("int sum(int v[], int n) { return 0; }"));
  FunctionDecl *F = R.fn("sum");
  EXPECT_TRUE(isa<PointerType>(F->getParams()[0]->getType().getType()));
}

TEST(CParser, AllStatementForms) {
  CRig R;
  ASSERT_TRUE(R.parse(
      "int f(int n) {\n"
      "  int i; int acc = 0;\n"
      "  for (i = 0; i < n; i++) { acc += i; }\n"
      "  while (acc > 100) acc /= 2;\n"
      "  do { acc--; } while (acc > 50);\n"
      "  switch (n) { case 0: acc = 1; break; default: break; }\n"
      "  if (acc) return acc; else return -1;\n"
      "}\n"));
}

TEST(CParser, GotoAndLabels) {
  CRig R;
  ASSERT_TRUE(R.parse("int f(void) { int x = 0; again: x++; "
                      "if (x < 3) goto again; return x; }"));
}

TEST(CParser, ExpressionZoo) {
  CRig R;
  ASSERT_TRUE(R.parseAndAnalyze(
      "struct p { int x, y; };\n"
      "int g(struct p *q, int n) {\n"
      "  int a = n ? q->x : q->y;\n"
      "  int b = (a << 2) | (n & 7);\n"
      "  int c = sizeof(struct p) + sizeof a;\n"
      "  a += b, b -= c;\n"
      "  return !a == (b != c);\n"
      "}\n")) << R.Diags.renderAll();
}

TEST(CParser, CastExpressions) {
  CRig R;
  ASSERT_TRUE(R.parseAndAnalyze(
      "typedef unsigned long size_t;\n"
      "char *f(void *p, long n) { return (char *)p + (size_t)n; }\n"))
      << R.Diags.renderAll();
  // Find the cast in the body and verify its type.
}

TEST(CParser, NestedInitializerLists) {
  // Initializer lists nest to any depth; each list sits at its '{'.
  CRig R;
  ASSERT_TRUE(R.parseAndAnalyze(
      "int a[1][1][1] = {{{1}}};\n"
      "int f(void) { int b[2][1][1] = {{{2}}, {{3}}}; return b[1][0][0]; }\n"))
      << R.Diags.renderAll();
  const CExpr *E = R.global("a")->getInit();
  for (unsigned Column : {18u, 19u, 20u}) {
    const auto *IL = dyn_cast<CInitList>(E);
    ASSERT_NE(IL, nullptr);
    EXPECT_EQ(R.SM.getPresumedLoc(IL->getLoc()).Column, Column);
    ASSERT_EQ(IL->getInits().size(), 1u);
    E = IL->getInits()[0];
  }
  const auto *One = dyn_cast<CIntLit>(E);
  ASSERT_NE(One, nullptr);
  EXPECT_EQ(One->getValue(), 1);
}

TEST(CParser, ErrorRecoversAndReports) {
  CRig R;
  EXPECT_FALSE(R.parse("int f( { return; }  int ok;"));
  EXPECT_TRUE(R.Diags.hasErrors());
}

//===----------------------------------------------------------------------===//
// Sema
//===----------------------------------------------------------------------===//

TEST(CSemaTest, TypesSimpleExpressions) {
  CRig R;
  ASSERT_TRUE(R.parseAndAnalyze(
      "int g;\n"
      "int f(int a, int *p) { g = a + *p; return g; }\n"))
      << R.Diags.renderAll();
}

TEST(CSemaTest, LValueClassification) {
  CRig R;
  ASSERT_TRUE(R.parseAndAnalyze(
      "struct s { int f; };\n"
      "void f(struct s *p, int *q, int n) {\n"
      "  p->f = 1; q[n] = 2; *q = 3;\n"
      "}\n"))
      << R.Diags.renderAll();
}

TEST(CSemaTest, AddressOfRValueRejected) {
  CRig R;
  EXPECT_FALSE(R.parseAndAnalyze("void f(int a) { int *p = &(a + 1); }"));
}

TEST(CSemaTest, UndeclaredVariableRejected) {
  CRig R;
  EXPECT_FALSE(R.parseAndAnalyze("int f(void) { return missing; }"));
}

TEST(CSemaTest, UnknownFieldRejected) {
  CRig R;
  EXPECT_FALSE(R.parseAndAnalyze(
      "struct s { int a; }; int f(struct s x) { return x.b; }"));
}

TEST(CSemaTest, ImplicitFunctionDeclarationCreated) {
  // Calls to undefined functions become implicit declarations (the
  // library-function case of Section 4.2).
  CRig R;
  ASSERT_TRUE(R.parseAndAnalyze("int f(void) { return external_call(3); }"))
      << R.Diags.renderAll();
  FunctionDecl *F = R.fn("external_call");
  ASSERT_NE(F, nullptr);
  EXPECT_TRUE(F->isImplicit());
  EXPECT_FALSE(F->isDefined());
}

TEST(CSemaTest, EnumConstantsAreInts) {
  CRig R;
  ASSERT_TRUE(R.parseAndAnalyze(
      "enum e { A, B }; int f(void) { return A + B; }"))
      << R.Diags.renderAll();
}

TEST(CSemaTest, StringLiteralIsCharPointer) {
  CRig R;
  ASSERT_TRUE(R.parseAndAnalyze(
      "char *f(void) { return \"hello\"; }"))
      << R.Diags.renderAll();
}

TEST(CSemaTest, MultiBufferWholeProgram) {
  // The paper analyzes multi-file programs at once; declarations merge.
  CRig R;
  ASSERT_TRUE(R.parse("int shared(int x);"));
  ASSERT_TRUE(R.parse("int shared(int x) { return x; }"));
  ASSERT_TRUE(R.parse("int user(void) { return shared(1); }"));
  CSema Sema(R.Ast, R.Types, R.Idents, R.Diags);
  ASSERT_TRUE(Sema.analyze(R.TU)) << R.Diags.renderAll();
  EXPECT_TRUE(R.fn("shared")->isDefined());
}

TEST(CSemaTest, LocalShadowsGlobal) {
  // *x needs the local pointer, not the global int.
  CRig R;
  ASSERT_TRUE(R.parseAndAnalyze(
      "int x;\nint f(void) { int *x = 0; return *x; }\n"))
      << R.Diags.renderAll();
  // And the other way round: the local int hides the global pointer.
  CRig R2;
  EXPECT_FALSE(R2.parseAndAnalyze(
      "int *y;\nint f(void) { int y = 0; return *y; }\n"));
}

TEST(CSemaTest, FunctionWinsOverGlobalOfTheSameName) {
  CRig R;
  ASSERT_TRUE(R.parseAndAnalyze("int h;\n"
                                "int *h(void);\n"
                                "int use(void) { return *h(); }\n"))
      << R.Diags.renderAll();
  const auto *Body = cast<CCompoundStmt>(R.fn("use")->getBody());
  const auto *Ret = cast<CReturnStmt>(Body->getBody()[0]);
  const auto *Call = cast<CCall>(cast<CUnary>(Ret->getValue())->getOperand());
  EXPECT_EQ(cast<CDeclRef>(Call->getCallee())->getDecl(), R.fn("h"));
}

TEST(CSemaTest, ImplicitDeclarationIsReusedByLaterCalls) {
  CRig R;
  ASSERT_TRUE(R.parseAndAnalyze(
      "int f(void) { ext(1); return ext(2); }\n"
      "int g(void) { return ext(3); }\n"))
      << R.Diags.renderAll();
  unsigned Count = 0;
  for (const FunctionDecl *F : R.TU.Functions)
    Count += F->getName() == "ext";
  EXPECT_EQ(Count, 1u);
  ASSERT_NE(R.fn("ext"), nullptr);
  EXPECT_TRUE(R.fn("ext")->isImplicit());
}

TEST(CSemaTest, UseBeforeDeclarationAcrossBuffers) {
  CRig R;
  ASSERT_TRUE(R.parse("int user(void) { return later(counter); }"));
  ASSERT_TRUE(R.parse("int counter;\nint later(int x) { return x; }"));
  CSema Sema(R.Ast, R.Types, R.Idents, R.Diags);
  ASSERT_TRUE(Sema.analyze(R.TU)) << R.Diags.renderAll();
  ASSERT_NE(R.fn("later"), nullptr);
  EXPECT_TRUE(R.fn("later")->isDefined());
  EXPECT_FALSE(R.fn("later")->isImplicit());
  unsigned Count = 0;
  for (const FunctionDecl *F : R.TU.Functions)
    Count += F->getName() == "later";
  EXPECT_EQ(Count, 1u);
}

TEST(CSemaTest, FunctionPointerCall) {
  CRig R;
  ASSERT_TRUE(R.parseAndAnalyze(
      "int apply(int (*fp)(int), int x) { return fp(x); }"))
      << R.Diags.renderAll();
}

} // namespace

//===----------------------------------------------------------------------===//
// Function uses recorded by sema (the FDG's edges)
//===----------------------------------------------------------------------===//

/// The names of the functions \p F's body uses, in recorded order.
static std::vector<std::string_view> useNames(const FunctionDecl *F) {
  std::vector<std::string_view> Names;
  for (const FunctionDecl *G : F->getUses())
    Names.push_back(G->getName());
  return Names;
}

TEST(CSemaUses, CallsDesignatorsAndAssignmentsEachAddAUse) {
  CRig R;
  ASSERT_TRUE(R.parseAndAnalyze("int f(void) { return 1; }\n"
                                "int g(void) { return 2; }\n"
                                "int h(void) { return 3; }\n"
                                "int use(void) {\n"
                                "  int (*fp)(void);\n"
                                "  f();\n"
                                "  fp = &g;\n"
                                "  fp = h;\n"
                                "  return fp();\n"
                                "}\n"))
      << R.Diags.renderAll();
  // The indirect call through fp names no function.
  EXPECT_EQ(useNames(R.fn("use")),
            (std::vector<std::string_view>{"f", "g", "h"}));
  EXPECT_TRUE(R.fn("f")->getUses().empty());
}

TEST(CSemaUses, ImplicitDeclarationAddsAUse) {
  CRig R;
  ASSERT_TRUE(R.parseAndAnalyze("int use(void) { return ext(1); }\n"))
      << R.Diags.renderAll();
  ASSERT_NE(R.fn("ext"), nullptr);
  ASSERT_EQ(R.fn("use")->getUses().size(), 1u);
  EXPECT_EQ(R.fn("use")->getUses()[0], R.fn("ext"));
}

TEST(CSemaUses, LocalShadowingAFunctionAddsNone) {
  CRig R;
  ASSERT_TRUE(R.parseAndAnalyze("int f(void) { return 1; }\n"
                                "int use(void) { int f = 2; return f; }\n"
                                "int after(void) { return f(); }\n"))
      << R.Diags.renderAll();
  EXPECT_TRUE(R.fn("use")->getUses().empty());
  // The shadow ends with its scope.
  EXPECT_EQ(useNames(R.fn("after")), (std::vector<std::string_view>{"f"}));
}

TEST(CSemaUses, GlobalInitializerAddsNone) {
  CRig R;
  ASSERT_TRUE(R.parseAndAnalyze("int f(void) { return 1; }\n"
                                "int (*gp)(void) = f;\n"
                                "int use(void) { return gp(); }\n"))
      << R.Diags.renderAll();
  for (const FunctionDecl *F : R.TU.Functions)
    EXPECT_TRUE(F->getUses().empty()) << F->getName();
}

TEST(CSemaUses, UsesComeInBodyOrder) {
  CRig R;
  ASSERT_TRUE(R.parseAndAnalyze(
      "int a(int x) { return x; }\nint b(int x) { return x; }\n"
      "int c(int x) { return x; }\nint d(int x) { return x; }\n"
      "int e(int x) { return x; }\n"
      "int use(int n) {\n"
      "  int k = e(1);\n"
      "  for (k = d(k); k < c(n); k = b(k))\n"
      "    k = a(k) ? b(k) : c(k);\n"
      "  return d(a(k) + e(k));\n"
      "}\n"))
      << R.Diags.renderAll();
  EXPECT_EQ(useNames(R.fn("use")),
            (std::vector<std::string_view>{"e", "d", "c", "b", "a", "b", "c",
                                           "d", "a", "e"}));
}
