//===- tests/incremental_test.cpp - Incremental re-analysis tests ---------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests the analyze-delta stack bottom-up: cfront/AstHash (structural
/// hashing that ignores formatting), constinf/Summary (snapshot capture and
/// delta planning: dirtiness seeding, coupling closure, the structural
/// fallbacks), serve/SummaryStore (LRU), and the serve pipeline + Server
/// end-to-end. The load-bearing property everywhere is the determinism
/// contract of docs/INCREMENTAL.md: an analyze-delta response is
/// byte-identical to a cold analyze of the same content, on every path --
/// incremental success, every fallback reason, and every worker count.
///
//===----------------------------------------------------------------------===//

#include "cfront/AstHash.h"
#include "cfront/CParser.h"
#include "cfront/CSema.h"
#include "constinf/ConstInfer.h"
#include "constinf/Summary.h"
#include "serve/Pipelines.h"
#include "serve/Server.h"
#include "serve/SummaryStore.h"
#include "support/Hash.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

using namespace quals;
using namespace quals::cfront;
using namespace quals::constinf;
using namespace quals::serve;

namespace {

/// Parse + sema rig (no inference) for AstHash and planDelta tests.
struct ParseRig {
  SourceManager SM;
  DiagnosticEngine Diags{SM};
  CAstContext Ast;
  CTypeContext Types;
  StringInterner Idents;
  TranslationUnit TU;

  bool parse(const std::string &Source) {
    if (!parseCSource(SM, "test.c", Source, Ast, Types, Idents, Diags, TU))
      return false;
    CSema Sema(Ast, Types, Idents, Diags);
    return Sema.analyze(TU);
  }

  const FunctionDecl *fn(std::string_view Name) {
    for (const FunctionDecl *F : TU.Functions)
      if (F->getName() == Name)
        return F;
    return nullptr;
  }
};

uint64_t bodyHash(ParseRig &R, std::string_view Name) {
  const FunctionDecl *F = R.fn(Name);
  EXPECT_NE(F, nullptr) << Name;
  return F ? hashFunctionBody(F) : 0;
}

} // namespace

//===----------------------------------------------------------------------===//
// cfront/AstHash
//===----------------------------------------------------------------------===//

TEST(AstHash, FormattingInsensitive) {
  ParseRig A, B;
  ASSERT_TRUE(A.parse("int f(int *p) { return *p + 1; }\n"));
  ASSERT_TRUE(B.parse("int  f( int * p )\n{\n  return *p + 1 ;\n}\n"));
  EXPECT_EQ(bodyHash(A, "f"), bodyHash(B, "f"));
  EXPECT_EQ(hashFunctionSignature(A.fn("f")), hashFunctionSignature(B.fn("f")));
  EXPECT_EQ(hashDeclRegion(A.TU), hashDeclRegion(B.TU));
}

TEST(AstHash, BodyEditChangesOnlyThatFunction) {
  ParseRig A, B;
  ASSERT_TRUE(A.parse("int f(int *p) { return *p; }\n"
                      "int g(int *q) { return *q; }\n"));
  ASSERT_TRUE(B.parse("int f(int *p) { return *p; }\n"
                      "int g(int *q) { *q = 1; return *q; }\n"));
  EXPECT_EQ(bodyHash(A, "f"), bodyHash(B, "f"));
  EXPECT_NE(bodyHash(A, "g"), bodyHash(B, "g"));
}

TEST(AstHash, UndefinedFunctionHashesToZero) {
  ParseRig A;
  ASSERT_TRUE(A.parse("int lib(int *p);\nint f(int *p) { return lib(p); }\n"));
  EXPECT_EQ(hashFunctionBody(A.fn("lib")), 0u);
  EXPECT_NE(hashFunctionBody(A.fn("f")), 0u);
}

TEST(AstHash, DeclRegionSeesGlobalsAndSignatures) {
  ParseRig A, B, C;
  ASSERT_TRUE(A.parse("int f(int *p) { return *p; }\n"));
  ASSERT_TRUE(B.parse("int cell;\nint f(int *p) { return *p; }\n"));
  ASSERT_TRUE(C.parse("int f(int p) { return p; }\n"));
  EXPECT_NE(hashDeclRegion(A.TU), hashDeclRegion(B.TU));
  EXPECT_NE(hashDeclRegion(A.TU), hashDeclRegion(C.TU));
}

TEST(AstHash, RenamingALocalChangesTheBody) {
  // Local names feed diagnostics and prototypes, so they are part of the
  // structural identity -- not an over-approximation.
  ParseRig A, B;
  ASSERT_TRUE(A.parse("int f(void) { int x = 1; return x; }\n"));
  ASSERT_TRUE(B.parse("int f(void) { int y = 1; return y; }\n"));
  EXPECT_NE(bodyHash(A, "f"), bodyHash(B, "f"));
}

//===----------------------------------------------------------------------===//
// constinf/Summary: capture + planning
//===----------------------------------------------------------------------===//

namespace {

/// Runs full inference over \p Source and captures a snapshot.
std::shared_ptr<const UnitSnapshot> snapshotOf(const std::string &Source) {
  ParseRig R;
  if (!R.parse(Source))
    return nullptr;
  ConstInference Inf(R.TU, R.Diags, {});
  if (!Inf.run())
    return nullptr;
  return captureSnapshot(R.TU, Inf);
}

/// A plan together with the parse its DirtyFunctions point into.
struct PlannedEdit : DeltaPlan {
  std::unique_ptr<ParseRig> Rig;
};

/// Plans \p NewSource against \p Prev.
PlannedEdit planOf(const std::string &NewSource, const UnitSnapshot &Prev) {
  PlannedEdit Edit;
  Edit.Rig = std::make_unique<ParseRig>();
  EXPECT_TRUE(Edit.Rig->parse(NewSource));
  Fdg Graph = buildFdg(Edit.Rig->TU);
  static_cast<DeltaPlan &>(Edit) = planDelta(Edit.Rig->TU, Graph, Prev);
  return Edit;
}

} // namespace

TEST(DeltaPlan, FormattingOnlyEditIsAllClean) {
  auto Prev = snapshotOf("int f(int *p) { return *p; }\n"
                         "int g(int *q) { return f(q); }\n");
  ASSERT_NE(Prev, nullptr);
  PlannedEdit Plan = planOf("int f(int *p){return *p;}\n"
                            "int g(int *q){return f(q);}\n",
                            *Prev);
  EXPECT_TRUE(Plan.Compatible);
  EXPECT_EQ(Plan.NumDirtySccs, 0u);
  EXPECT_EQ(Plan.NumReusedSccs, 2u);
  EXPECT_TRUE(Plan.DirtyFunctions.empty());
}

TEST(DeltaPlan, LeafEditDirtiesCallersNotSiblings) {
  auto Prev = snapshotOf("int f(int *p) { return *p; }\n"
                         "int g(int *q) { return f(q); }\n"
                         "int h(int *r) { return *r; }\n");
  ASSERT_NE(Prev, nullptr);
  // Edit f: f's SCC is dirty and caller g's SCC depends on it; h is clean.
  PlannedEdit Plan = planOf("int f(int *p) { *p = 0; return *p; }\n"
                            "int g(int *q) { return f(q); }\n"
                            "int h(int *r) { return *r; }\n",
                            *Prev);
  EXPECT_TRUE(Plan.Compatible);
  EXPECT_EQ(Plan.NumDirtySccs, 2u);
  EXPECT_EQ(Plan.NumReusedSccs, 1u);
}

TEST(DeltaPlan, SharedGlobalCouplesOtherwiseUnrelatedFunctions) {
  auto Prev = snapshotOf("int cell;\n"
                         "void w(void) { cell = 1; }\n"
                         "int r(void) { return cell; }\n"
                         "int lone(int *p) { return *p; }\n");
  ASSERT_NE(Prev, nullptr);
  // w and r share no call edge, but both touch `cell`: editing w must
  // re-solve r too (their constraints share the global's variables).
  PlannedEdit Plan = planOf("int cell;\n"
                            "void w(void) { cell = 2; }\n"
                            "int r(void) { return cell; }\n"
                            "int lone(int *p) { return *p; }\n",
                            *Prev);
  EXPECT_TRUE(Plan.Compatible);
  EXPECT_EQ(Plan.NumReusedSccs, 1u); // Only `lone` survives.
  bool WDirty = false, RDirty = false, LoneDirty = false;
  for (const FunctionDecl *F : Plan.DirtyFunctions) {
    WDirty |= F->getName() == "w";
    RDirty |= F->getName() == "r";
    LoneDirty |= F->getName() == "lone";
  }
  EXPECT_TRUE(WDirty);
  EXPECT_TRUE(RDirty);
  EXPECT_FALSE(LoneDirty);
}

TEST(DeltaPlan, StructuralChangesFallBackToFull) {
  const std::string Base = "int f(int *p) { return *p; }\n"
                           "int g(int *q) { return *q; }\n";
  auto Prev = snapshotOf(Base);
  ASSERT_NE(Prev, nullptr);

  // Function added/removed/renamed: the declaration-region hash covers
  // every signature, so the decl-region check reports these (the explicit
  // function-set comparison behind it is a hash-collision backstop).
  PlannedEdit P1 = planOf(Base + "int h(int *r) { return *r; }\n", *Prev);
  EXPECT_FALSE(P1.Compatible);
  EXPECT_STREQ(P1.FallbackReason, "decl-region");

  // Function removed.
  PlannedEdit P2 = planOf("int f(int *p) { return *p; }\n", *Prev);
  EXPECT_FALSE(P2.Compatible);
  EXPECT_STREQ(P2.FallbackReason, "decl-region");

  // Function renamed.
  PlannedEdit P3 = planOf("int f(int *p) { return *p; }\n"
                          "int g2(int *q) { return *q; }\n",
                          *Prev);
  EXPECT_FALSE(P3.Compatible);
  EXPECT_STREQ(P3.FallbackReason, "decl-region");

  // New call edge (call-graph shape change; also a body edit, but the edge
  // check decides first).
  PlannedEdit P4 = planOf("int f(int *p) { return *p; }\n"
                          "int g(int *q) { return f(q); }\n",
                          *Prev);
  EXPECT_FALSE(P4.Compatible);
  EXPECT_STREQ(P4.FallbackReason, "call-graph");

  // Declaration-region change (new global).
  PlannedEdit P5 = planOf("int cell;\n" + Base, *Prev);
  EXPECT_FALSE(P5.Compatible);
  EXPECT_STREQ(P5.FallbackReason, "decl-region");

  // Signature change (parameter type) is a decl-region change too.
  PlannedEdit P6 = planOf("int f(int p) { return p; }\n"
                          "int g(int *q) { return *q; }\n",
                          *Prev);
  EXPECT_FALSE(P6.Compatible);
  EXPECT_STREQ(P6.FallbackReason, "decl-region");
}

TEST(DeltaPlan, SccMergeAndSplitFallBack) {
  // Splitting a cycle removes an edge; merging adds one. Both change the
  // edge set, so both take the full-analysis path.
  const std::string Cycle = "int f(int *p);\n"
                            "int g(int *q) { return f(q); }\n"
                            "int f(int *p) { return g(p); }\n";
  const std::string Chain = "int f(int *p);\n"
                            "int g(int *q) { return f(q); }\n"
                            "int f(int *p) { return *p; }\n";
  auto PrevCycle = snapshotOf(Cycle);
  ASSERT_NE(PrevCycle, nullptr);
  PlannedEdit Split = planOf(Chain, *PrevCycle);
  EXPECT_FALSE(Split.Compatible);
  EXPECT_STREQ(Split.FallbackReason, "call-graph");

  auto PrevChain = snapshotOf(Chain);
  ASSERT_NE(PrevChain, nullptr);
  PlannedEdit Merge = planOf(Cycle, *PrevChain);
  EXPECT_FALSE(Merge.Compatible);
  EXPECT_STREQ(Merge.FallbackReason, "call-graph");
}

TEST(DeltaPlan, EditInsideACycleDirtiesTheWholeScc) {
  auto Prev = snapshotOf("int f(int *p);\n"
                         "int g(int *q) { return f(q); }\n"
                         "int f(int *p) { return g(p); }\n"
                         "int lone(int *r) { return *r; }\n");
  ASSERT_NE(Prev, nullptr);
  PlannedEdit Plan = planOf("int f(int *p);\n"
                            "int g(int *q) { *q = 1; return f(q); }\n"
                            "int f(int *p) { return g(p); }\n"
                            "int lone(int *r) { return *r; }\n",
                            *Prev);
  EXPECT_TRUE(Plan.Compatible);
  EXPECT_EQ(Plan.NumDirtySccs, 1u); // {f, g} is one SCC.
  EXPECT_EQ(Plan.NumReusedSccs, 1u);
  EXPECT_EQ(Plan.DirtyFunctions.size(), 2u);
}

//===----------------------------------------------------------------------===//
// serve/Pipelines: byte-identity of delta vs cold
//===----------------------------------------------------------------------===//

namespace {

AnalyzeJob makeJob(const std::string &Source, bool Protos = true) {
  AnalyzeJob Job;
  Job.Name = "unit.c";
  Job.Language = "c";
  Job.Source = Source;
  Job.Protos = Protos;
  return Job;
}

/// Cold-analyzes \p Source, then delta-analyzes \p Edited against the
/// captured snapshot, then cold-analyzes \p Edited in a fresh context.
/// Asserts the delta result is byte-identical to the fresh cold run and
/// returns the outcome for dirtiness assertions.
DeltaOutcome expectDeltaIdentical(const std::string &Source,
                                  const std::string &Edited,
                                  bool Protos = true) {
  AnalyzeJob First = makeJob(Source, Protos);
  CachedResult ColdFirst;
  std::shared_ptr<const UnitSnapshot> Snap;
  runAnalysis(First, ColdFirst, &Snap);
  EXPECT_EQ(ColdFirst.ExitCode, 0);
  EXPECT_NE(Snap, nullptr);

  AnalyzeJob Second = makeJob(Edited, Protos);
  CachedResult Delta;
  std::shared_ptr<const UnitSnapshot> Next;
  DeltaOutcome Outcome;
  runAnalysisDelta(Second, *Snap, Delta, Next, Outcome);

  CachedResult Cold;
  runAnalysis(Second, Cold, nullptr);

  EXPECT_EQ(Delta.Out, Cold.Out);
  EXPECT_EQ(Delta.Err, Cold.Err);
  EXPECT_EQ(Delta.ExitCode, Cold.ExitCode);
  return Outcome;
}

} // namespace

TEST(DeltaPipeline, SingleFunctionEditIsIncrementalAndIdentical) {
  DeltaOutcome O = expectDeltaIdentical(
      "int f(int *p) { return *p; }\n"
      "int g(int *q) { return f(q); }\n"
      "int h(int *r) { return *r; }\n",
      "int f(int *p) { return *p; }\n"
      "int g(int *q) { return f(q); }\n"
      "int h(int *r) { *r = 1; return *r; }\n");
  EXPECT_TRUE(O.UsedDelta);
  EXPECT_EQ(O.DirtySccs, 1u);
  EXPECT_EQ(O.ReusedSccs, 2u);
}

TEST(DeltaPipeline, FormattingOnlyEditReusesEverything) {
  DeltaOutcome O = expectDeltaIdentical(
      "int f(int *p) { return *p; }\nint g(int *q) { return f(q); }\n",
      "int f(int *p){return *p;}\nint g(int *q){return f(q);}\n");
  EXPECT_TRUE(O.UsedDelta);
  EXPECT_EQ(O.DirtySccs, 0u);
  EXPECT_EQ(O.ReusedSccs, 2u);
}

TEST(DeltaPipeline, CallerEditStaysIdenticalUnrelatedSccReplays) {
  // Editing the caller drags its callee into the dirty class (their
  // constraint graphs share the callee's interface variables -- coupling is
  // symmetric), but the unrelated function's SCC is replayed, not
  // re-solved, and the bytes still match the cold run.
  DeltaOutcome O = expectDeltaIdentical(
      "int f(int *p) { return *p; }\n"
      "int g(int *q) { return f(q); }\n"
      "int h(int *r) { return *r; }\n",
      "int f(int *p) { return *p; }\n"
      "int g(int *q) { *q = 1; return f(q); }\n"
      "int h(int *r) { return *r; }\n");
  EXPECT_TRUE(O.UsedDelta);
  EXPECT_EQ(O.DirtySccs, 2u);
  EXPECT_EQ(O.ReusedSccs, 1u);
}

TEST(DeltaPipeline, CycleEditIsIncrementalAndIdentical) {
  DeltaOutcome O = expectDeltaIdentical(
      "int f(int *p);\n"
      "int g(int *q) { return f(q); }\n"
      "int f(int *p) { return g(p); }\n"
      "int lone(int *r) { return *r; }\n",
      "int f(int *p);\n"
      "int g(int *q) { *q = 1; return f(q); }\n"
      "int f(int *p) { return g(p); }\n"
      "int lone(int *r) { return *r; }\n");
  EXPECT_TRUE(O.UsedDelta);
  EXPECT_EQ(O.DirtySccs, 1u);
  EXPECT_EQ(O.ReusedSccs, 1u);
}

TEST(DeltaPipeline, SharedGlobalEditIsIdentical) {
  DeltaOutcome O = expectDeltaIdentical(
      "int cell;\n"
      "int *w(void) { cell = 1; return &cell; }\n"
      "int r(void) { return cell; }\n"
      "int lone(int *p) { return *p; }\n",
      "int cell;\n"
      "int *w(void) { cell = 2; return &cell; }\n"
      "int r(void) { return cell; }\n"
      "int lone(int *p) { return *p; }\n");
  EXPECT_TRUE(O.UsedDelta);
  EXPECT_EQ(O.ReusedSccs, 1u);
}

TEST(DeltaPipeline, StructuralFallbacksStayIdentical) {
  // Function added (signatures live in the declaration region).
  DeltaOutcome O1 = expectDeltaIdentical(
      "int f(int *p) { return *p; }\n",
      "int f(int *p) { return *p; }\nint g(int *q) { *q = 1; return 0; }\n");
  EXPECT_FALSE(O1.UsedDelta);
  EXPECT_STREQ(O1.FallbackReason, "decl-region");

  // Call-graph change.
  DeltaOutcome O2 = expectDeltaIdentical(
      "int f(int *p) { return *p; }\nint g(int *q) { return *q; }\n",
      "int f(int *p) { return *p; }\nint g(int *q) { return f(q); }\n");
  EXPECT_FALSE(O2.UsedDelta);
  EXPECT_STREQ(O2.FallbackReason, "call-graph");

  // New global (decl region).
  DeltaOutcome O3 = expectDeltaIdentical(
      "int f(int *p) { return *p; }\n",
      "int cell;\nint f(int *p) { cell = *p; return *p; }\n");
  EXPECT_FALSE(O3.UsedDelta);
  EXPECT_STREQ(O3.FallbackReason, "decl-region");
}

TEST(DeltaPipeline, NewCalleeDeclarationFallsBackAndStaysIdentical) {
  // A new external declaration grows the declaration region (and the
  // function set): structural, so delta serves it with the full pipeline.
  DeltaOutcome O = expectDeltaIdentical(
      "int f(int *p) { return *p; }\n",
      "int ext(int *);\nint f(int *p) { return ext(p); }\n");
  EXPECT_FALSE(O.UsedDelta);
}

TEST(DeltaPipeline, ConstViolationEditMatchesColdDiagnostics) {
  AnalyzeJob First = makeJob("int f(const int *p) { return *p; }\n"
                             "int g(int *q) { return f(q); }\n");
  CachedResult ColdFirst;
  std::shared_ptr<const UnitSnapshot> Snap;
  runAnalysis(First, ColdFirst, &Snap);
  ASSERT_EQ(ColdFirst.ExitCode, 0);
  ASSERT_NE(Snap, nullptr);

  // Write through the declared-const pointer: a const error inside f.
  AnalyzeJob Second = makeJob("int f(const int *p) { *p = 1; return *p; }\n"
                              "int g(int *q) { return f(q); }\n");
  CachedResult Delta;
  std::shared_ptr<const UnitSnapshot> Next;
  DeltaOutcome Outcome;
  runAnalysisDelta(Second, *Snap, Delta, Next, Outcome);

  CachedResult Cold;
  runAnalysis(Second, Cold, nullptr);
  EXPECT_EQ(Delta.Out, Cold.Out);
  EXPECT_EQ(Delta.Err, Cold.Err);
  EXPECT_EQ(Delta.ExitCode, Cold.ExitCode);
  EXPECT_NE(Cold.ExitCode, 0);
}

TEST(DeltaPipeline, SyntaxErrorEditMatchesColdDiagnostics) {
  DeltaOutcome O = expectDeltaIdentical("int f(int *p) { return *p; }\n",
                                        "int f(int *p) { return *p;\n");
  EXPECT_FALSE(O.UsedDelta);
  EXPECT_STREQ(O.FallbackReason, "frontend-error");
}

TEST(DeltaPipeline, LambdaLanguageFallsBack) {
  AnalyzeJob Job;
  Job.Name = "t.lam";
  Job.Language = "lambda";
  Job.Source = "let id = fn x => x in id 1";
  CachedResult Cold;
  runAnalysis(Job, Cold, nullptr);

  UnitSnapshot Dummy; // Never consulted on the language fallback.
  CachedResult Delta;
  std::shared_ptr<const UnitSnapshot> Next;
  DeltaOutcome Outcome;
  runAnalysisDelta(Job, Dummy, Delta, Next, Outcome);
  EXPECT_FALSE(Outcome.UsedDelta);
  EXPECT_STREQ(Outcome.FallbackReason, "language");
  EXPECT_EQ(Delta.Out, Cold.Out);
  EXPECT_EQ(Delta.Err, Cold.Err);
  EXPECT_EQ(Next, nullptr);
}

TEST(DeltaPipeline, ChainedEditsKeepSnapshotsUsable) {
  // Snapshot chaining: edit 1 is served incrementally and captures a new
  // snapshot; edit 2 plans against THAT snapshot, not the original.
  std::string V1 = "int a(int *p) { return *p; }\n"
                   "int b(int *q) { return a(q); }\n"
                   "int c(int *r) { return *r; }\n";
  std::string V2 = "int a(int *p) { return *p; }\n"
                   "int b(int *q) { return a(q); }\n"
                   "int c(int *r) { *r = 1; return *r; }\n";
  std::string V3 = "int a(int *p) { *p = 9; return *p; }\n"
                   "int b(int *q) { return a(q); }\n"
                   "int c(int *r) { *r = 1; return *r; }\n";

  CachedResult R1;
  std::shared_ptr<const UnitSnapshot> S1;
  runAnalysis(makeJob(V1), R1, &S1);
  ASSERT_NE(S1, nullptr);

  CachedResult R2;
  std::shared_ptr<const UnitSnapshot> S2;
  DeltaOutcome O2;
  runAnalysisDelta(makeJob(V2), *S1, R2, S2, O2);
  EXPECT_TRUE(O2.UsedDelta);
  ASSERT_NE(S2, nullptr);

  CachedResult R3;
  std::shared_ptr<const UnitSnapshot> S3;
  DeltaOutcome O3;
  runAnalysisDelta(makeJob(V3), *S2, R3, S3, O3);
  EXPECT_TRUE(O3.UsedDelta);
  EXPECT_EQ(O3.DirtySccs, 2u); // a and its caller b; c replays.
  EXPECT_EQ(O3.ReusedSccs, 1u);

  CachedResult Cold3;
  runAnalysis(makeJob(V3), Cold3, nullptr);
  EXPECT_EQ(R3.Out, Cold3.Out);
  EXPECT_EQ(R3.Err, Cold3.Err);
}

//===----------------------------------------------------------------------===//
// serve/SummaryStore
//===----------------------------------------------------------------------===//

namespace {

std::shared_ptr<const UnitSnapshot> dummySnapshot() {
  auto S = std::make_shared<UnitSnapshot>();
  S->DeclRegionHash = 1;
  return S;
}

} // namespace

TEST(SummaryStore, LookupStoreAndReplace) {
  SummaryStore Store(4);
  EXPECT_EQ(Store.lookup("a.c", 1), nullptr);
  auto S1 = dummySnapshot();
  Store.store("a.c", 1, S1);
  EXPECT_EQ(Store.lookup("a.c", 1), S1);
  EXPECT_EQ(Store.lookup("a.c", 2), nullptr); // Config is part of the key.
  EXPECT_EQ(Store.lookup("b.c", 1), nullptr);
  auto S2 = dummySnapshot();
  Store.store("a.c", 1, S2); // Replace, not duplicate.
  EXPECT_EQ(Store.lookup("a.c", 1), S2);
  EXPECT_EQ(Store.stats().Entries, 1u);
}

TEST(SummaryStore, LruEvictsOldest) {
  SummaryStore Store(2);
  Store.store("a.c", 1, dummySnapshot());
  Store.store("b.c", 1, dummySnapshot());
  EXPECT_NE(Store.lookup("a.c", 1), nullptr); // Bump a.c to most-recent.
  Store.store("c.c", 1, dummySnapshot());     // Evicts b.c.
  EXPECT_NE(Store.lookup("a.c", 1), nullptr);
  EXPECT_EQ(Store.lookup("b.c", 1), nullptr);
  EXPECT_NE(Store.lookup("c.c", 1), nullptr);
  EXPECT_EQ(Store.stats().Evictions, 1u);
}

TEST(SummaryStore, ZeroCapacityDisables) {
  SummaryStore Store(0);
  Store.store("a.c", 1, dummySnapshot());
  EXPECT_EQ(Store.lookup("a.c", 1), nullptr);
  EXPECT_EQ(Store.stats().Entries, 0u);
}

TEST(SummaryStore, ClearDropsEverything) {
  SummaryStore Store(4);
  Store.store("a.c", 1, dummySnapshot());
  Store.store("b.c", 1, dummySnapshot());
  Store.clear();
  EXPECT_EQ(Store.stats().Entries, 0u);
  EXPECT_EQ(Store.stats().Bytes, 0u);
  EXPECT_EQ(Store.lookup("a.c", 1), nullptr);
}

//===----------------------------------------------------------------------===//
// serve/Server: analyze-delta end-to-end
//===----------------------------------------------------------------------===//

namespace {

std::string serveStream(const std::string &Requests, ServerConfig Config = {},
                        int ExpectExit = 0) {
  Server S(Config);
  std::istringstream In(Requests);
  std::ostringstream Out;
  EXPECT_EQ(S.run(In, Out), ExpectExit);
  return Out.str();
}

const char *kV1 = "int f(int *p) { return *p; }\\n"
                  "int g(int *q) { return f(q); }\\n"
                  "int h(int *r) { return *r; }\\n";
const char *kV2 = "int f(int *p) { return *p; }\\n"
                  "int g(int *q) { return f(q); }\\n"
                  "int h(int *r) { *r = 1; return *r; }\\n";

std::string analyzeReq(int Id, const char *Method, const char *Src) {
  std::string R = "{\"id\":" + std::to_string(Id) + ",\"method\":\"";
  R += Method;
  R += "\",\"params\":{\"name\":\"t.c\",\"source\":\"";
  R += Src;
  R += "\"}}\n";
  return R;
}

/// First response line of a fresh-server cold analyze of \p Src with \p Id.
std::string coldResponse(int Id, const char *Src) {
  std::string Out = serveStream(analyzeReq(Id, "analyze", Src) +
                                "{\"id\":99,\"method\":\"shutdown\"}\n");
  return Out.substr(0, Out.find('\n') + 1);
}

} // namespace

TEST(ServerDelta, EditLoopIsIncrementalAndByteIdentical) {
  std::string Out = serveStream(analyzeReq(1, "analyze", kV1) +
                                analyzeReq(2, "analyze-delta", kV2) +
                                "{\"id\":3,\"method\":\"stats\"}\n"
                                "{\"id\":4,\"method\":\"shutdown\"}\n");
  std::istringstream Lines(Out);
  std::string L1, L2, L3;
  std::getline(Lines, L1);
  std::getline(Lines, L2);
  std::getline(Lines, L3);

  // The delta response is byte-identical to a cold analyze of the edited
  // source on a fresh server (same id so the line matches exactly).
  EXPECT_EQ(L2 + "\n", coldResponse(2, kV2));

  // Delta accounting: one incremental request, summaries replayed.
  EXPECT_NE(L3.find("\"delta\":{"), std::string::npos);
  EXPECT_NE(L3.find("\"snapshot_hits\":1"), std::string::npos);
  EXPECT_NE(L3.find("\"incremental\":1"), std::string::npos);
  EXPECT_NE(L3.find("\"full\":0"), std::string::npos);
  EXPECT_NE(L3.find("\"dirty_sccs\":1"), std::string::npos);
  EXPECT_NE(L3.find("\"reused\":2"), std::string::npos);
}

TEST(ServerDelta, NeverSeenContentFallsBackToFullThenChains) {
  // analyze-delta with no prior snapshot: full run, but it seeds the store,
  // so the NEXT delta is incremental.
  std::string Out = serveStream(analyzeReq(1, "analyze-delta", kV1) +
                                analyzeReq(2, "analyze-delta", kV2) +
                                "{\"id\":3,\"method\":\"stats\"}\n"
                                "{\"id\":4,\"method\":\"shutdown\"}\n");
  std::istringstream Lines(Out);
  std::string L1, L2, L3;
  std::getline(Lines, L1);
  std::getline(Lines, L2);
  std::getline(Lines, L3);
  EXPECT_EQ(L1 + "\n", coldResponse(1, kV1));
  EXPECT_EQ(L2 + "\n", coldResponse(2, kV2));
  EXPECT_NE(L3.find("\"snapshot_misses\":1"), std::string::npos);
  EXPECT_NE(L3.find("\"snapshot_hits\":1"), std::string::npos);
  EXPECT_NE(L3.find("\"full\":1"), std::string::npos);
  EXPECT_NE(L3.find("\"incremental\":1"), std::string::npos);
}

TEST(ServerDelta, SnapshotsDisabledStillAnswersIdentically) {
  ServerConfig Config;
  Config.MaxSnapshots = 0;
  std::string Out = serveStream(analyzeReq(1, "analyze", kV1) +
                                    analyzeReq(2, "analyze-delta", kV2) +
                                    "{\"id\":3,\"method\":\"stats\"}\n"
                                    "{\"id\":4,\"method\":\"shutdown\"}\n",
                                Config);
  std::istringstream Lines(Out);
  std::string L1, L2, L3;
  std::getline(Lines, L1);
  std::getline(Lines, L2);
  std::getline(Lines, L3);
  EXPECT_EQ(L2 + "\n", coldResponse(2, kV2));
  EXPECT_NE(L3.find("\"snapshots\":0"), std::string::npos);
  EXPECT_NE(L3.find("\"incremental\":0"), std::string::npos);
  EXPECT_NE(L3.find("\"full\":1"), std::string::npos);
}

TEST(ServerDelta, InvalidateClearsSnapshots) {
  std::string Out = serveStream(analyzeReq(1, "analyze", kV1) +
                                "{\"id\":2,\"method\":\"invalidate\"}\n"
                                "{\"id\":3,\"method\":\"stats\"}\n"
                                "{\"id\":4,\"method\":\"shutdown\"}\n");
  std::istringstream Lines(Out);
  std::string L1, L2, L3;
  std::getline(Lines, L1);
  std::getline(Lines, L2);
  std::getline(Lines, L3);
  EXPECT_NE(L3.find("\"snapshots\":0"), std::string::npos);
}

TEST(ServerDelta, CacheHitShortCircuitsDelta) {
  // Re-sending identical content as analyze-delta answers from the result
  // cache: neither full nor incremental analysis runs.
  std::string Out = serveStream(analyzeReq(1, "analyze", kV1) +
                                analyzeReq(2, "analyze-delta", kV1) +
                                "{\"id\":3,\"method\":\"stats\"}\n"
                                "{\"id\":4,\"method\":\"shutdown\"}\n");
  std::istringstream Lines(Out);
  std::string L1, L2, L3;
  std::getline(Lines, L1);
  std::getline(Lines, L2);
  std::getline(Lines, L3);
  // Identical bytes modulo the id.
  EXPECT_EQ(L1.substr(L1.find(",\"ok\"")), L2.substr(L2.find(",\"ok\"")));
  EXPECT_NE(L3.find("\"requests\":1"), std::string::npos); // delta.requests
  EXPECT_NE(L3.find("\"incremental\":0"), std::string::npos);
  EXPECT_NE(L3.find("\"full\":0"), std::string::npos);
}

TEST(ServerDelta, ParallelStreamMatchesSerial) {
  // The same mixed analyze / analyze-delta stream answers byte-identically
  // at -j1 and -j4 (the ordered-slot discipline extends to delta).
  std::string Requests;
  Requests += analyzeReq(1, "analyze", kV1);
  Requests += analyzeReq(2, "analyze-delta", kV2);
  Requests += analyzeReq(3, "analyze-delta", kV1);
  Requests += analyzeReq(4, "analyze", kV2);
  Requests += "{\"id\":5,\"method\":\"shutdown\"}\n";

  ServerConfig Serial;
  Serial.Jobs = 1;
  ServerConfig Parallel;
  Parallel.Jobs = 4;
  EXPECT_EQ(serveStream(Requests, Serial), serveStream(Requests, Parallel));
}
