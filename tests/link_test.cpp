//===- tests/link_test.cpp - Cross-TU link pipeline tests ------------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
//
// The separate-compilation pipeline (docs/LINK.md): summary serialization
// round-trips, constraint-graph pruning, canonicalization, cross-TU symbol
// unification with its diagnostics, stale/corrupt-summary rejection, and
// the headline equivalence -- linking per-TU summaries classifies every
// position exactly as whole-program inference over the concatenation.
//
//===----------------------------------------------------------------------===//

#include "cfront/CParser.h"
#include "cfront/CSema.h"
#include "constinf/ConstInfer.h"
#include "gen/SynthGen.h"
#include "link/Linker.h"
#include "link/Qsum.h"
#include "link/SummaryBuilder.h"
#include "support/Hash.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace quals;

namespace {

/// Front-end state for one analyzed TU, kept alive for the inference.
struct Unit {
  SourceManager SM;
  std::unique_ptr<DiagnosticEngine> Diags;
  cfront::CAstContext Ast;
  cfront::CTypeContext Types;
  StringInterner Idents;
  cfront::TranslationUnit TU;
  std::unique_ptr<constinf::ConstInference> Inf;

  Unit() : Diags(std::make_unique<DiagnosticEngine>(SM)) {}

  bool analyze(const std::vector<std::string> &Sources, bool SummaryMode) {
    for (size_t I = 0; I != Sources.size(); ++I)
      if (!cfront::parseCSource(SM, "tu" + std::to_string(I) + ".c",
                                std::string(Sources[I]), Ast, Types, Idents,
                                *Diags, TU))
        return false;
    cfront::CSema Sema(Ast, Types, Idents, *Diags);
    if (!Sema.analyze(TU))
      return false;
    constinf::ConstInference::Options Opts;
    // Summary interfaces are monomorphic (qualcc --emit-summary forces
    // --mono), so the whole-program reference must be monomorphic too.
    Opts.Polymorphic = false;
    Opts.SummaryMode = SummaryMode;
    Inf = std::make_unique<constinf::ConstInference>(TU, *Diags, Opts);
    return Inf->run();
  }
};

/// Runs the `qualcc --emit-summary` pipeline over \p Source.
link::TuSummary summarize(const std::string &Name, const std::string &Source,
                          uint64_t ContentHash = 0) {
  Unit U;
  EXPECT_TRUE(U.analyze({Source}, /*SummaryMode=*/true))
      << U.Diags->renderAll();
  if (!ContentHash)
    ContentHash = hashBytes(Source.data(), Source.size());
  return link::buildSummary(*U.Inf, U.SM, Name, ContentHash,
                            link::summaryConfigHash());
}

/// One comparable key per position: "fn#param#depth declared class".
std::string posKey(const std::string &Fn, int ParamIndex, unsigned Depth,
                   bool Declared, constinf::PosClass Class) {
  return Fn + "#" + std::to_string(ParamIndex) + "#" +
         std::to_string(Depth) + (Declared ? " declared " : " ") +
         std::to_string(static_cast<int>(Class));
}

/// Whole-program inference over the concatenation, as sorted position keys.
std::vector<std::string>
wholeProgramKeys(const std::vector<std::string> &Sources,
                 constinf::ConstCounts *Counts = nullptr) {
  Unit U;
  EXPECT_TRUE(U.analyze(Sources, /*SummaryMode=*/false))
      << U.Diags->renderAll();
  std::vector<std::string> Keys;
  for (const constinf::InterestingPos &P : U.Inf->positions())
    Keys.push_back(posKey(std::string(P.Fn->getName()), P.ParamIndex,
                          P.Depth, P.DeclaredConst, U.Inf->classify(P)));
  std::sort(Keys.begin(), Keys.end());
  if (Counts)
    *Counts = U.Inf->counts();
  return Keys;
}

/// Linked positions as sorted keys.
std::vector<std::string> linkedKeys(const link::LinkResult &R) {
  std::vector<std::string> Keys;
  for (const link::LinkedPos &P : R.Positions)
    Keys.push_back(
        posKey(P.FnName, P.ParamIndex, P.Depth, P.DeclaredConst, P.Class));
  std::sort(Keys.begin(), Keys.end());
  return Keys;
}

const char *kWriterTu =
    "int helper(int *p, int n);\n"
    "int use(int *q, int n) { *q = n; return helper(q, n); }\n";

const char *kReaderHelperTu = "int helper(int *p, int n) { return *p; }\n";

const char *kWriterHelperTu = "int helper(int *p, int n) { *p = n; return 0; }\n";

TEST(Qsum, RoundTripIsSerializerFixedPoint) {
  link::TuSummary S = summarize("rt.c", kWriterTu);
  std::string Bytes = link::serializeSummary(S);

  link::TuSummary Back;
  std::string Error;
  ASSERT_TRUE(link::deserializeSummary(
      reinterpret_cast<const uint8_t *>(Bytes.data()), Bytes.size(), Back,
      Error))
      << Error;
  EXPECT_EQ(S.ContentHash, Back.ContentHash);
  EXPECT_EQ(S.ConfigHash, Back.ConfigHash);
  EXPECT_EQ(S.NumVars, Back.NumVars);
  EXPECT_EQ(S.Constraints.size(), Back.Constraints.size());
  EXPECT_EQ(S.Positions.size(), Back.Positions.size());
  EXPECT_EQ(S.FnExports.size(), Back.FnExports.size());
  EXPECT_EQ(S.FnImports.size(), Back.FnImports.size());
  EXPECT_EQ("rt.c", Back.sourceName());
  EXPECT_EQ(Bytes, link::serializeSummary(Back));
}

TEST(Qsum, HeaderProbeAndStaleRejection) {
  link::TuSummary S = summarize("hdr.c", kWriterTu, /*ContentHash=*/77);
  std::string Bytes = link::serializeSummary(S);

  link::QsumHeader H;
  std::string Error;
  ASSERT_TRUE(link::readSummaryHeader(
      reinterpret_cast<const uint8_t *>(Bytes.data()), Bytes.size(), H,
      Error));
  EXPECT_EQ(link::kSummaryFormatVersion, H.FormatVersion);
  EXPECT_EQ(77u, H.ContentHash);
  EXPECT_EQ(link::summaryConfigHash(), H.ConfigHash);

  // A foreign format version is stale, not garbage: the diagnostic says so.
  std::string Stale = Bytes;
  Stale[4] = char(Stale[4] + 1);
  link::TuSummary Out;
  EXPECT_FALSE(link::deserializeSummary(
      reinterpret_cast<const uint8_t *>(Stale.data()), Stale.size(), Out,
      Error));
  EXPECT_NE(std::string::npos, Error.find("stale")) << Error;

  // Bad magic and truncation are rejected with diagnostics too.
  std::string Garbage = "not a summary";
  EXPECT_FALSE(link::deserializeSummary(
      reinterpret_cast<const uint8_t *>(Garbage.data()), Garbage.size(), Out,
      Error));
  EXPECT_FALSE(Error.empty());
  for (size_t Len = 0; Len < Bytes.size(); Len += 7)
    EXPECT_FALSE(link::deserializeSummary(
        reinterpret_cast<const uint8_t *>(Bytes.data()), Len, Out, Error));
}

TEST(Qsum, CacheKeyAndFileName) {
  uint64_t K1 = link::summaryCacheKey(1, 2);
  uint64_t K2 = link::summaryCacheKey(1, 3);
  uint64_t K3 = link::summaryCacheKey(2, 2);
  EXPECT_NE(K1, K2);
  EXPECT_NE(K1, K3);
  std::string Name = link::summaryFileName(K1);
  EXPECT_EQ(21u, Name.size());
  EXPECT_EQ(".qsum", Name.substr(16));
}

TEST(SummaryBuilder, PrunesPrivateConstraintComponents) {
  // A static function with purely local pointer plumbing: its constraint
  // component is invisible to other TUs and must be pruned, while the
  // exported writer's interface stays.
  std::string Source =
      "static int local(int n) { int a = n; int *p = &a; *p = 2; int *q = p;"
      " return *q; }\n"
      "int exported(int *p, int n) { *p = n; return local(n); }\n";
  link::TuSummary S = summarize("prune.c", Source);

  Unit U;
  ASSERT_TRUE(U.analyze({Source}, /*SummaryMode=*/true));
  EXPECT_LT(S.NumVars, U.Inf->numQualVars());

  // The summary's variables are exactly its seeds: interface-symbol, pin
  // and position variables, each counted once.
  std::vector<uint32_t> Seeds;
  for (const std::vector<link::QsumSymbol> *Section :
       {&S.FnExports, &S.FnImports, &S.GlobExports, &S.GlobImports})
    for (const link::QsumSymbol &Sym : *Section) {
      Seeds.insert(Seeds.end(), Sym.Vars.begin(), Sym.Vars.end());
      for (const link::QsumPin &P : Sym.Pins)
        Seeds.push_back(P.Var);
    }
  for (const link::QsumPos &P : S.Positions)
    Seeds.push_back(P.Var);
  std::sort(Seeds.begin(), Seeds.end());
  Seeds.erase(std::unique(Seeds.begin(), Seeds.end()), Seeds.end());
  EXPECT_EQ(S.NumVars, Seeds.size());

  // Only the non-static function is an export, and its interface variables
  // all survived the renumbering.
  ASSERT_EQ(1u, S.FnExports.size());
  EXPECT_EQ("exported", S.str(S.FnExports[0].Name));
  for (uint32_t V : S.FnExports[0].Vars)
    EXPECT_LT(V, S.NumVars);
}

TEST(SummaryBuilder, UnreferencedImportIsShapeOnly) {
  // `unused` is only declared: its import keeps its name and shape but no
  // variables or pins. `called` is called, so it keeps both.
  const char *Decls = "int unused(int *p, char **q);\n"
                      "int called(int *p);\n";
  link::TuSummary S = summarize(
      "shape_only.c",
      std::string(Decls) + "int f(int *x) { return called(x); }\n");
  ASSERT_EQ(2u, S.FnImports.size());
  const link::QsumSymbol &Unused = S.FnImports[0];
  const link::QsumSymbol &Called = S.FnImports[1];
  ASSERT_EQ("unused", S.str(Unused.Name));
  ASSERT_EQ("called", S.str(Called.Name));
  EXPECT_TRUE(Unused.Vars.empty());
  EXPECT_TRUE(Unused.Pins.empty());
  EXPECT_FALSE(Called.Vars.empty());
  EXPECT_FALSE(Called.Pins.empty());

  // The shape is the one the symbol has when referenced.
  link::TuSummary R = summarize(
      "shape_used.c",
      std::string(Decls) + "int f(int *x) { return called(x) + "
                           "unused(x, 0); }\n");
  ASSERT_EQ(2u, R.FnImports.size());
  EXPECT_FALSE(R.FnImports[0].Vars.empty());
  EXPECT_EQ(R.str(R.FnImports[0].Shape), S.str(Unused.Shape));
}

/// The shape of a translated type -- constructor names, each
/// constructor's arguments in parentheses -- which constinf::shapeOf must
/// reproduce from the C type alone.
std::string translatedShape(QualType T) {
  std::string Shape(T.getCtor()->getName());
  if (unsigned N = T.getNumArgs()) {
    Shape += '(';
    for (unsigned I = 0; I != N; ++I)
      Shape += (I ? "," : "") + translatedShape(T.getArg(I));
    Shape += ')';
  }
  return Shape;
}

TEST(SummaryBuilder, ShapeFromCTypeMatchesTranslation) {
  // A symbol's shape comes from its C type whether or not its TU
  // translated it, so a shape-only occurrence and a translated one of the
  // same declaration always agree.
  std::vector<std::string> Sources;
  std::vector<std::filesystem::path> Examples;
  for (const auto &E : std::filesystem::directory_iterator(
           std::string(QUALS_SOURCE_DIR) + "/examples/programs"))
    if (E.path().extension() == ".c")
      Examples.push_back(E.path());
  std::sort(Examples.begin(), Examples.end());
  ASSERT_FALSE(Examples.empty());
  for (const std::filesystem::path &Path : Examples) {
    std::ifstream In(Path);
    std::stringstream Text;
    Text << In.rdbuf();
    Sources.push_back(Text.str());
  }
  for (const synth::SynthProgram &TU :
       synth::generateTuSplit(synth::paramsForLines(42, 1200), 4))
    Sources.push_back(TU.Source);
  Sources.push_back("enum color { RED, GREEN };\n"
                    "union u { int i; char *s; };\n"
                    "struct node { struct node *next; int vals[4]; };\n"
                    "extern union u cells[8];\n"
                    "extern int (*handler)(const char *, struct node *);\n"
                    "void run(void (*cb)(int **), enum color c);\n"
                    "char **names(struct node *n, int k[], ...);\n"
                    "int old_style();\n");

  unsigned Checked = 0;
  for (const std::string &Source : Sources) {
    Unit U;
    U.analyze({Source}, /*SummaryMode=*/true); // Rejected examples too.
    ASSERT_TRUE(U.Inf) << U.Diags->renderAll();
    constinf::RefTranslator &TR = U.Inf->translator();
    for (const cfront::FunctionDecl *F : U.TU.Functions) {
      EXPECT_EQ(constinf::shapeOf(F),
                translatedShape(TR.functionInterfaceType(F)))
          << F->getName();
      ++Checked;
    }
    for (const cfront::VarDecl *G : U.TU.Globals) {
      EXPECT_EQ(constinf::shapeOf(G), translatedShape(TR.varLValueType(G)))
          << G->getName();
      ++Checked;
    }
  }
  EXPECT_GT(Checked, 100u);
}

TEST(SummaryBuilder, UnreferencedExternGlobalIsShapeOnly) {
  // `unused` is only declared: its import keeps its name and shape but no
  // variables. `used` is read, so it keeps its variables.
  const char *Decls = "extern int *unused;\n"
                      "extern char **used;\n";
  link::TuSummary S =
      summarize("extern_shape_only.c",
                std::string(Decls) + "int f(void) { return **used; }\n");
  ASSERT_EQ(2u, S.GlobImports.size());
  const link::QsumSymbol &Unused = S.GlobImports[0];
  const link::QsumSymbol &Used = S.GlobImports[1];
  ASSERT_EQ("unused", S.str(Unused.Name));
  ASSERT_EQ("used", S.str(Used.Name));
  EXPECT_TRUE(Unused.Vars.empty());
  EXPECT_FALSE(Used.Vars.empty());

  // The shape is the one the symbol has when referenced.
  link::TuSummary R =
      summarize("extern_used.c",
                std::string(Decls) +
                    "int f(void) { return **used + *unused; }\n");
  ASSERT_EQ(2u, R.GlobImports.size());
  EXPECT_FALSE(R.GlobImports[0].Vars.empty());
  EXPECT_EQ(R.str(R.GlobImports[0].Shape), S.str(Unused.Shape));
}

TEST(Linker, CanonicalizationIsOrderAndDuplicateInvariant) {
  link::TuSummary A = summarize("a.c", kWriterTu);
  link::TuSummary B = summarize("b.c", kReaderHelperTu);

  link::LinkOptions Opts;
  std::vector<link::TuSummary> Fwd = {A, B};
  std::vector<link::TuSummary> Rev = {B, A};
  std::vector<link::TuSummary> Dup = {B, A, A};
  link::LinkResult R1 = link::linkSummaries(Fwd, Opts);
  link::LinkResult R2 = link::linkSummaries(Rev, Opts);
  link::LinkResult R3 = link::linkSummaries(Dup, Opts);

  ASSERT_TRUE(R1.LoadOk && R1.LinkOk && R1.SolveOk);
  EXPECT_EQ(linkedKeys(R1), linkedKeys(R2));
  EXPECT_EQ(R1.NumConstraints, R2.NumConstraints);
  // The duplicate content hash is dropped before linking.
  EXPECT_EQ(2u, R3.NumSummaries);
  EXPECT_EQ(3u, R3.NumInputs);
  EXPECT_EQ(linkedKeys(R1), linkedKeys(R3));
}

TEST(Linker, SplitMatchesWholeProgram) {
  // The equivalence contract, helper defined in another TU as a reader:
  // use()'s parameter must classify exactly as in the concatenation
  // (possible-const -- the import's withheld library pin is dropped).
  std::vector<std::string> Sources = {kWriterTu, kReaderHelperTu};
  constinf::ConstCounts Whole;
  std::vector<std::string> WholeKeys = wholeProgramKeys(Sources, &Whole);

  link::TuSummary A = summarize("tu0.c", Sources[0]);
  link::TuSummary B = summarize("tu1.c", Sources[1]);
  std::vector<link::TuSummary> Sums = {A, B};
  link::LinkOptions Opts;
  link::LinkResult R = link::linkSummaries(Sums, Opts);
  ASSERT_TRUE(R.LoadOk && R.LinkOk && R.SolveOk);

  EXPECT_EQ(WholeKeys, linkedKeys(R));
  EXPECT_EQ(Whole.Declared, R.Counts.Declared);
  EXPECT_EQ(Whole.PossibleConst, R.Counts.PossibleConst);
  EXPECT_EQ(Whole.Total, R.Counts.Total);
}

TEST(Linker, WriterCalleePinsAcrossTus) {
  // Same split with a writing helper: the write flows back through the
  // unified interface and pins use()'s parameter non-const in both worlds.
  std::vector<std::string> Sources = {kWriterTu, kWriterHelperTu};
  std::vector<std::string> WholeKeys = wholeProgramKeys(Sources);

  link::TuSummary A = summarize("tu0.c", Sources[0]);
  link::TuSummary B = summarize("tu1.c", Sources[1]);
  std::vector<link::TuSummary> Sums = {A, B};
  link::LinkOptions Opts;
  link::LinkResult R = link::linkSummaries(Sums, Opts);
  ASSERT_TRUE(R.LoadOk && R.LinkOk && R.SolveOk);
  EXPECT_EQ(WholeKeys, linkedKeys(R));

  bool SawNonConstHelperParam = false;
  for (const link::LinkedPos &P : R.Positions)
    if (P.FnName == "helper" && P.ParamIndex == 0)
      SawNonConstHelperParam =
          P.Class == constinf::PosClass::MustNonConst;
  EXPECT_TRUE(SawNonConstHelperParam);
}

TEST(Linker, UnresolvedImportAppliesWithheldPins) {
  // Linking the importer alone: helper stays undefined, so the deferred
  // Section 4.2 pin applies and helper's parameter is non-const, exactly
  // as whole-program inference treats an undefined library function.
  std::vector<std::string> WholeKeys = wholeProgramKeys({kWriterTu});

  link::TuSummary A = summarize("tu0.c", kWriterTu);
  std::vector<link::TuSummary> Sums = {A};
  link::LinkOptions Opts;
  link::LinkResult R = link::linkSummaries(Sums, Opts);
  ASSERT_TRUE(R.LoadOk && R.LinkOk && R.SolveOk);
  EXPECT_EQ(WholeKeys, linkedKeys(R));
}

TEST(Linker, UnreferencedExternMatchesWholeProgram) {
  // TU a stores its parameter into `shared` and declares `spare` without
  // using it; TU b defines both and writes through each. The split links
  // a's shape-only `spare` against b's definition and classifies every
  // position as the concatenation does.
  std::vector<std::string> Sources = {
      "extern int *shared;\nextern int *spare;\n"
      "void put(int *p) { shared = p; }\n",
      "int *shared;\nint *spare;\n"
      "void poke(int *q) { *shared = 1; *spare = 2; spare = q; }\n"};
  std::vector<std::string> WholeKeys = wholeProgramKeys(Sources);

  link::TuSummary A = summarize("tu0.c", Sources[0]);
  ASSERT_EQ(2u, A.GlobImports.size());
  EXPECT_FALSE(A.GlobImports[0].Vars.empty());
  EXPECT_TRUE(A.GlobImports[1].Vars.empty());
  link::TuSummary B = summarize("tu1.c", Sources[1]);
  std::vector<link::TuSummary> Sums = {A, B};
  link::LinkOptions Opts;
  link::LinkResult R = link::linkSummaries(Sums, Opts);
  ASSERT_TRUE(R.LoadOk && R.LinkOk && R.SolveOk)
      << (R.Diagnostics.empty() ? "" : R.Diagnostics[0]);
  EXPECT_EQ(WholeKeys, linkedKeys(R));
  ASSERT_EQ(2u, R.Positions.size());
  for (const link::LinkedPos &P : R.Positions)
    EXPECT_EQ(P.Class, constinf::PosClass::MustNonConst) << P.FnName;
}

TEST(Linker, DuplicateDefinitionDiagnosed) {
  link::TuSummary A = summarize("dup0.c", kWriterHelperTu, 1);
  link::TuSummary B = summarize("dup1.c", kWriterHelperTu, 2);
  std::vector<link::TuSummary> Sums = {A, B};
  link::LinkOptions Opts;
  link::LinkResult R = link::linkSummaries(Sums, Opts);
  EXPECT_TRUE(R.LoadOk);
  EXPECT_FALSE(R.LinkOk);
  ASSERT_FALSE(R.Diagnostics.empty());
  EXPECT_NE(std::string::npos, R.Diagnostics[0].find("duplicate"))
      << R.Diagnostics[0];
  EXPECT_NE(std::string::npos, R.Diagnostics[0].find("helper"))
      << R.Diagnostics[0];
}

TEST(Linker, InterfaceShapeMismatchDiagnosed) {
  // One TU believes helper takes (int*, int); the defining TU says
  // (int*, int*, int). Arity is part of the shape, so the link fails
  // loudly instead of mis-unifying variables -- also when the importing TU
  // never references helper and its import is shape-only.
  const char *Importers[] = {
      kWriterTu,
      "int helper(int *p, int n);\nint other(int *q) { return *q; }\n"};
  for (const char *Importer : Importers) {
    SCOPED_TRACE(Importer);
    link::TuSummary A = summarize("shape0.c", Importer);
    link::TuSummary B = summarize(
        "shape1.c", "int helper(int *p, int *q, int n) { return *p + *q; }\n");
    std::vector<link::TuSummary> Sums = {A, B};
    link::LinkOptions Opts;
    link::LinkResult R = link::linkSummaries(Sums, Opts);
    EXPECT_FALSE(R.LinkOk);
    ASSERT_FALSE(R.Diagnostics.empty());
    EXPECT_NE(std::string::npos, R.Diagnostics[0].find("interface mismatch"))
        << R.Diagnostics[0];
    EXPECT_NE(std::string::npos, R.Diagnostics[0].find("helper"))
        << R.Diagnostics[0];
  }
}

TEST(Linker, ConfigHashMismatchRejected) {
  link::TuSummary A = summarize("cfg0.c", kWriterTu);
  link::TuSummary B = summarize("cfg1.c", kReaderHelperTu);
  B.ConfigHash ^= 0xdead;
  std::vector<link::TuSummary> Sums = {A, B};
  link::LinkOptions Opts;
  link::LinkResult R = link::linkSummaries(Sums, Opts);
  EXPECT_FALSE(R.LoadOk);
  ASSERT_FALSE(R.Diagnostics.empty());
}

TEST(Linker, UnreferencedConstPrototypeMatchesWholeProgram) {
  // TU a declares f's parameter const but never uses f; TU b defines f
  // writing through it. Whole-program inference completes the prototype
  // with the definition, so the program is accepted. The split must agree
  // instead of reporting the prototype's declared const as violated via
  // cross-TU linkage.
  std::vector<std::string> Sources = {
      "void f(const int *p);\nint g(int *q) { return *q; }\n",
      "void f(int *p) { *p = 1; }\n"};
  std::vector<std::string> WholeKeys = wholeProgramKeys(Sources);

  link::TuSummary A = summarize("tu0.c", Sources[0]);
  link::TuSummary B = summarize("tu1.c", Sources[1]);
  std::vector<link::TuSummary> Sums = {A, B};
  link::LinkOptions Opts;
  link::LinkResult R = link::linkSummaries(Sums, Opts);
  ASSERT_TRUE(R.LoadOk && R.LinkOk && R.SolveOk)
      << (R.Diagnostics.empty() ? "" : R.Diagnostics[0]);
  EXPECT_EQ(WholeKeys, linkedKeys(R));
}

TEST(Linker, EscapingFunctionDesignatorKeepsImport) {
  // h reaches printf's variadic arguments as a value (plain and with &):
  // the deferred escape pins sit on h's interface variables in the
  // importing TU, so h must keep them even though no constraint edge
  // touches them, and the link pins h's parameter non-const as the whole
  // program does.
  for (const char *Use : {"h", "&h"}) {
    SCOPED_TRACE(Use);
    std::vector<std::string> Sources = {
        std::string("int printf(const char *fmt, ...);\nint h(int *p);\n"
                    "int run(void) { return printf(\"%p\", ") +
            Use + "); }\n",
        "int h(int *p) { return *p; }\n"};
    std::vector<std::string> WholeKeys = wholeProgramKeys(Sources);

    link::TuSummary A = summarize("tu0.c", Sources[0]);
    link::TuSummary B = summarize("tu1.c", Sources[1]);
    std::vector<link::TuSummary> Sums = {A, B};
    link::LinkOptions Opts;
    link::LinkResult R = link::linkSummaries(Sums, Opts);
    ASSERT_TRUE(R.LoadOk && R.LinkOk && R.SolveOk);
    EXPECT_EQ(WholeKeys, linkedKeys(R));

    bool SawNonConstParam = false;
    for (const link::LinkedPos &P : R.Positions)
      if (P.FnName == "h" && P.ParamIndex == 0)
        SawNonConstParam = P.Class == constinf::PosClass::MustNonConst;
    EXPECT_TRUE(SawNonConstParam);
  }
}

TEST(Linker, ViolationKeepsLocationAndBound) {
  // TU a passes a const pointer to f; TU b defines f writing through it.
  // The write is internal to b's summary, so only the canned bound's
  // origin can still name where and why the const was rejected.
  link::TuSummary A = summarize(
      "a.c", "void f(int *p); void use(const int *q) { f(q); }\n");
  link::TuSummary B = summarize("b.c", "void f(int *p) { *p = 1; }\n");
  std::vector<link::TuSummary> Sums = {A, B};
  link::LinkOptions Opts;
  link::LinkResult R = link::linkSummaries(Sums, Opts);
  ASSERT_TRUE(R.LoadOk && R.LinkOk);
  EXPECT_FALSE(R.SolveOk);
  ASSERT_EQ(R.Diagnostics.size(), 1u);
  const std::string &D = R.Diagnostics[0];
  // summarize() parses every TU as tu0.c; 1:21 is b's `*p`.
  EXPECT_EQ(D.rfind("tu0.c:1:21: error: ", 0), 0u) << D;
  EXPECT_NE(D.find("bound: assignment target must not be const"),
            std::string::npos)
      << D;
}

TEST(Linker, ConstraintBudgetIsLoadFailure) {
  link::TuSummary A = summarize("budget.c", kWriterTu);
  std::vector<link::TuSummary> Sums = {A};
  link::LinkOptions Opts;
  Opts.MaxConstraints = 1;
  link::LinkResult R = link::linkSummaries(Sums, Opts);
  EXPECT_FALSE(R.LoadOk);
  ASSERT_FALSE(R.Diagnostics.empty());
}

TEST(Linker, ConstraintBudgetAbove32BitsDoesNotWrap) {
  // 2^32 + 1 once truncated to a budget of 1 constraint.
  link::TuSummary A = summarize("budget64.c", kWriterTu);
  std::vector<link::TuSummary> Sums = {A};
  link::LinkOptions Opts;
  Opts.MaxConstraints = (uint64_t(1) << 32) + 1;
  link::LinkResult R = link::linkSummaries(Sums, Opts);
  EXPECT_TRUE(R.LoadOk);
  EXPECT_TRUE(R.Diagnostics.empty());
}

TEST(Linker, DiagnosticsComeOutInNameOrder) {
  // Resolution finds a name's occurrences through a hash table but visits
  // names in sorted order. These names are declared neither in sorted nor
  // in hash order, so the duplicate-definition diagnostics show which order
  // was used -- for either summary order.
  const std::vector<std::string> Names = {"zeta", "alpha", "omega", "beta",
                                          "mu",   "gamma", "kappa"};
  std::vector<std::string> Sorted = Names, ByHash = Names;
  std::sort(Sorted.begin(), Sorted.end());
  std::sort(ByHash.begin(), ByHash.end(),
            [](const std::string &A, const std::string &B) {
              std::hash<std::string_view> H;
              return H(A) < H(B);
            });
  ASSERT_NE(Names, Sorted);
  ASSERT_NE(ByHash, Sorted);
  std::string Source;
  for (const std::string &N : Names)
    Source += "int " + N + "(int *p) { return *p; }\n";
  link::TuSummary A = summarize("ord0.c", Source, 1);
  link::TuSummary B = summarize("ord1.c", Source, 2);
  for (bool Reversed : {false, true}) {
    SCOPED_TRACE(Reversed);
    std::vector<link::TuSummary> Sums = {A, B};
    if (Reversed)
      std::swap(Sums[0], Sums[1]);
    link::LinkResult R = link::linkSummaries(Sums, link::LinkOptions());
    EXPECT_FALSE(R.LinkOk);
    ASSERT_EQ(R.Diagnostics.size(), Names.size());
    for (size_t I = 0; I != Sorted.size(); ++I)
      EXPECT_EQ(R.Diagnostics[I], "error: duplicate definition of '" +
                                      Sorted[I] +
                                      "' (defined in 'ord0.c' and 'ord1.c')");
  }
}

TEST(Linker, StatsAreDeterministic) {
  link::TuSummary A = summarize("det0.c", kWriterTu);
  link::TuSummary B = summarize("det1.c", kReaderHelperTu);
  std::vector<link::TuSummary> S1 = {A, B};
  std::vector<link::TuSummary> S2 = {B, A};
  link::LinkOptions Opts;
  link::LinkResult R1 = link::linkSummaries(S1, Opts);
  link::LinkResult R2 = link::linkSummaries(S2, Opts);
  ASSERT_TRUE(R1.SolveOk && R2.SolveOk);
  EXPECT_EQ(0.0, R1.Stats.SolveSeconds);
  EXPECT_EQ(renderSolverStats(R1.Stats), renderSolverStats(R2.Stats));
}

} // namespace
