//===- tests/support_test.cpp - Support substrate unit tests --------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//

#include "support/Allocator.h"
#include "support/PagedArray.h"
#include "support/Scc.h"
#include "support/SourceManager.h"
#include "support/StringInterner.h"
#include "support/TextTable.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>

using namespace quals;

//===----------------------------------------------------------------------===//
// BumpPtrAllocator
//===----------------------------------------------------------------------===//

TEST(Allocator, AllocatesAlignedMemory) {
  BumpPtrAllocator A;
  void *P1 = A.allocate(3, 1);
  void *P8 = A.allocate(16, 8);
  void *P16 = A.allocate(32, 16);
  EXPECT_NE(P1, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(P8) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(P16) % 16, 0u);
}

TEST(Allocator, CreateConstructsObjects) {
  BumpPtrAllocator A;
  struct Point {
    int X, Y;
    Point(int X, int Y) : X(X), Y(Y) {}
  };
  Point *P = A.create<Point>(3, 4);
  EXPECT_EQ(P->X, 3);
  EXPECT_EQ(P->Y, 4);
}

TEST(Allocator, HandlesLargeAllocations) {
  BumpPtrAllocator A;
  // Larger than the default slab: must still succeed.
  void *P = A.allocate(1 << 20, 8);
  EXPECT_NE(P, nullptr);
  std::memset(P, 0xAB, 1 << 20);
  EXPECT_GE(A.bytesAllocated(), size_t(1 << 20));
}

TEST(Allocator, ManySmallAllocationsStayDistinct) {
  BumpPtrAllocator A;
  std::set<void *> Seen;
  for (int I = 0; I != 10000; ++I)
    Seen.insert(A.allocate(24, 8));
  EXPECT_EQ(Seen.size(), 10000u);
}

TEST(Allocator, CopyArrayCopiesContents) {
  BumpPtrAllocator A;
  int Src[] = {1, 2, 3, 4};
  int *Copy = A.copyArray(Src, 4);
  Src[0] = 99;
  EXPECT_EQ(Copy[0], 1);
  EXPECT_EQ(Copy[3], 4);
  EXPECT_EQ(A.copyArray(Src, 0), nullptr);
}

//===----------------------------------------------------------------------===//
// PagedArray
//===----------------------------------------------------------------------===//

TEST(PagedArray, GrowsAcrossPageBoundariesWithDenseIds) {
  PagedArray<uint32_t> A;
  const size_t N = 3 * PagedArray<uint32_t>::PageSize + 5;
  for (size_t I = 0; I != N; ++I)
    EXPECT_EQ(A.push_back(static_cast<uint32_t>(I * 7)), I);
  ASSERT_EQ(A.size(), N);
  EXPECT_EQ(A.allocatedPages(), 4u);
  for (size_t I = 0; I != N; ++I)
    EXPECT_EQ(A[I], I * 7) << "at " << I;
  // append() continues the numbering and fills every new entry.
  size_t First = A.append(PagedArray<uint32_t>::PageSize, 9);
  EXPECT_EQ(First, N);
  EXPECT_EQ(A.size(), N + PagedArray<uint32_t>::PageSize);
  EXPECT_EQ(A[First], 9u);
  EXPECT_EQ(A[A.size() - 1], 9u);
  EXPECT_EQ(A[N - 1], (N - 1) * 7);
}

TEST(PagedArray, ReferencesSurviveGrowth) {
  PagedArray<uint64_t> A;
  A.push_back(41);
  uint64_t &First = A[0];
  const uint64_t *Addr = &First;
  for (unsigned I = 0; I != 10 * PagedArray<uint64_t>::PageSize; ++I)
    A.push_back(I);
  EXPECT_EQ(&A[0], Addr);
  First = 42;
  EXPECT_EQ(A[0], 42u);
}

TEST(PagedArray, LookupAllocatesNoPage) {
  const size_t N = 4 * PagedArray<int>::PageSize;
  PagedArray<int> A(N);
  EXPECT_EQ(A.size(), N);
  EXPECT_EQ(A.allocatedPages(), 0u);
  for (size_t I = 0; I < N; I += 97)
    EXPECT_EQ(A.lookup(I), 0);
  EXPECT_EQ(A.allocatedPages(), 0u);
  // Writing one entry allocates exactly its page, value-initialized.
  A.slot(N - 1) = 5;
  EXPECT_EQ(A.allocatedPages(), 1u);
  EXPECT_EQ(A.lookup(N - 1), 5);
  EXPECT_EQ(A.lookup(N - 2), 0);
  EXPECT_EQ(A.lookup(0), 0);
  EXPECT_EQ(A.allocatedPages(), 1u);
}

//===----------------------------------------------------------------------===//
// StringInterner
//===----------------------------------------------------------------------===//

TEST(StringInterner, EqualStringsShareStorage) {
  StringInterner SI;
  std::string A = "hello";
  std::string B = "hello";
  std::string_view VA = SI.intern(A);
  std::string_view VB = SI.intern(B);
  EXPECT_EQ(VA.data(), VB.data());
  EXPECT_EQ(SI.size(), 1u);
}

TEST(StringInterner, DistinctStringsStayDistinct) {
  StringInterner SI;
  std::string_view A = SI.intern("alpha");
  std::string_view B = SI.intern("beta");
  EXPECT_NE(A.data(), B.data());
  EXPECT_EQ(SI.size(), 2u);
}

TEST(StringInterner, SurvivesManyInsertions) {
  StringInterner SI;
  std::string_view First = SI.intern("stable");
  for (int I = 0; I != 5000; ++I)
    SI.intern("key" + std::to_string(I));
  // The early view must still be valid and re-internable to the same data.
  EXPECT_EQ(SI.intern("stable").data(), First.data());
}

//===----------------------------------------------------------------------===//
// SCC
//===----------------------------------------------------------------------===//

TEST(Scc, SingleNodesNoEdges) {
  Digraph G(3);
  SccResult R = computeSccs(G);
  EXPECT_EQ(R.Components.size(), 3u);
  for (unsigned I = 0; I != 3; ++I)
    EXPECT_EQ(R.Components[R.ComponentOf[I]].front(), I);
}

TEST(Scc, SimpleCycleIsOneComponent) {
  Digraph G(3);
  G.addEdge(0, 1);
  G.addEdge(1, 2);
  G.addEdge(2, 0);
  SccResult R = computeSccs(G);
  ASSERT_EQ(R.Components.size(), 1u);
  EXPECT_EQ(R.Components[0].size(), 3u);
}

TEST(Scc, ReverseTopologicalOrder) {
  // 0 -> 1 -> 2 (a chain): callees (2) must appear before callers (0).
  Digraph G(3);
  G.addEdge(0, 1);
  G.addEdge(1, 2);
  SccResult R = computeSccs(G);
  ASSERT_EQ(R.Components.size(), 3u);
  EXPECT_LT(R.ComponentOf[2], R.ComponentOf[1]);
  EXPECT_LT(R.ComponentOf[1], R.ComponentOf[0]);
}

TEST(Scc, MixedGraphMatchesPaperFdgShape) {
  // Two mutually recursive functions {1,2} called by 0, calling leaf 3.
  Digraph G(4);
  G.addEdge(0, 1);
  G.addEdge(1, 2);
  G.addEdge(2, 1);
  G.addEdge(2, 3);
  SccResult R = computeSccs(G);
  ASSERT_EQ(R.Components.size(), 3u);
  EXPECT_EQ(R.ComponentOf[1], R.ComponentOf[2]);
  EXPECT_LT(R.ComponentOf[3], R.ComponentOf[1]);
  EXPECT_LT(R.ComponentOf[1], R.ComponentOf[0]);
}

TEST(Scc, SelfLoopIsItsOwnComponent) {
  Digraph G(2);
  G.addEdge(0, 0);
  G.addEdge(0, 1);
  SccResult R = computeSccs(G);
  EXPECT_EQ(R.Components.size(), 2u);
  EXPECT_NE(R.ComponentOf[0], R.ComponentOf[1]);
}

TEST(Scc, DeepChainDoesNotOverflow) {
  // The iterative Tarjan must handle recursion depths that would overflow a
  // recursive implementation.
  constexpr unsigned N = 200000;
  Digraph G(N);
  for (unsigned I = 0; I + 1 != N; ++I)
    G.addEdge(I, I + 1);
  SccResult R = computeSccs(G);
  EXPECT_EQ(R.Components.size(), N);
}

//===----------------------------------------------------------------------===//
// SourceManager
//===----------------------------------------------------------------------===//

TEST(SourceManager, MapsOffsetsToLineAndColumn) {
  SourceManager SM;
  unsigned Id = SM.addBuffer("test.q", "abc\ndef\nghi\n");
  PresumedLoc P = SM.getPresumedLoc(SM.getLocForOffset(Id, 5));
  EXPECT_EQ(P.Filename, "test.q");
  EXPECT_EQ(P.Line, 2u);
  EXPECT_EQ(P.Column, 2u);
}

TEST(SourceManager, FirstCharacterIsLineOneColumnOne) {
  SourceManager SM;
  unsigned Id = SM.addBuffer("a.q", "xyz");
  PresumedLoc P = SM.getPresumedLoc(SM.getBufferStart(Id));
  EXPECT_EQ(P.Line, 1u);
  EXPECT_EQ(P.Column, 1u);
}

TEST(SourceManager, MultipleBuffersDisjoint) {
  SourceManager SM;
  unsigned A = SM.addBuffer("a.q", "aaa");
  unsigned B = SM.addBuffer("b.q", "bbbb\nbb");
  PresumedLoc PA = SM.getPresumedLoc(SM.getLocForOffset(A, 1));
  PresumedLoc PB = SM.getPresumedLoc(SM.getLocForOffset(B, 5));
  EXPECT_EQ(PA.Filename, "a.q");
  EXPECT_EQ(PB.Filename, "b.q");
  EXPECT_EQ(PB.Line, 2u);
}

TEST(SourceManager, InvalidLocHasInvalidPresumedLoc) {
  SourceManager SM;
  SM.addBuffer("a.q", "aaa");
  EXPECT_FALSE(SM.getPresumedLoc(SourceLoc()).isValid());
}

TEST(SourceManager, GetLineTextReturnsWholeLine) {
  SourceManager SM;
  unsigned Id = SM.addBuffer("a.q", "first\nsecond line\nthird");
  EXPECT_EQ(SM.getLineText(SM.getLocForOffset(Id, 8)), "second line");
  EXPECT_EQ(SM.getLineText(SM.getLocForOffset(Id, 20)), "third");
}

//===----------------------------------------------------------------------===//
// TextTable
//===----------------------------------------------------------------------===//

TEST(TextTable, AlignsColumns) {
  TextTable T;
  T.addColumn("Name");
  T.addColumn("Lines", Align::Right);
  T.addRow({"woman-3.0a", "1496"});
  T.addRow({"uucp-1.04", "36913"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("Name"), std::string::npos);
  EXPECT_NE(Out.find("36913"), std::string::npos);
  // Right-aligned numbers end at the same column.
  size_t L1 = Out.find("1496");
  size_t L2 = Out.find("36913");
  ASSERT_NE(L1, std::string::npos);
  ASSERT_NE(L2, std::string::npos);
}

TEST(TextTable, StackedBarUsesFullWidth) {
  std::string Bar = renderStackedBar(
      {{"a", 0.25, '#'}, {"b", 0.25, '+'}, {"c", 0.5, '.'}}, 40);
  EXPECT_EQ(Bar.size(), 40u);
  EXPECT_EQ(std::count(Bar.begin(), Bar.end(), '#'), 10);
  EXPECT_EQ(std::count(Bar.begin(), Bar.end(), '+'), 10);
  EXPECT_EQ(std::count(Bar.begin(), Bar.end(), '.'), 20);
}

TEST(TextTable, EmptyTableRendersHeaderOnly) {
  TextTable T;
  T.addColumn("Metric");
  T.addColumn("Value", Align::Right);
  std::string Out = T.render();
  EXPECT_NE(Out.find("Metric"), std::string::npos);
  EXPECT_NE(Out.find("Value"), std::string::npos);
  // Header plus separator: exactly two lines of output.
  EXPECT_EQ(std::count(Out.begin(), Out.end(), '\n'), 2);
}

TEST(TextTable, SingleRowTable) {
  TextTable T;
  T.addColumn("Name");
  T.addRow({"only"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("Name"), std::string::npos);
  EXPECT_NE(Out.find("only"), std::string::npos);
  EXPECT_EQ(std::count(Out.begin(), Out.end(), '\n'), 3);
}

TEST(TextTable, WideCellStretchesColumn) {
  TextTable T;
  T.addColumn("K");
  T.addColumn("V", Align::Right);
  std::string Wide(120, 'w');
  T.addRow({Wide, "1"});
  T.addRow({"x", "22"});
  std::string Out = T.render();
  EXPECT_NE(Out.find(Wide), std::string::npos);
  // Every line pads to the widened first column, so all data lines are at
  // least as long as the wide cell itself.
  size_t LineStart = 0;
  int Lines = 0;
  while (LineStart < Out.size()) {
    size_t LineEnd = Out.find('\n', LineStart);
    if (LineEnd == std::string::npos)
      LineEnd = Out.size();
    EXPECT_GE(LineEnd - LineStart, Wide.size());
    LineStart = LineEnd + 1;
    ++Lines;
  }
  EXPECT_EQ(Lines, 4); // header, separator, two rows
}

TEST(TextTable, StackedBarEmptySegments) {
  // No segments means nothing to draw: the bar is empty, not padded.
  EXPECT_TRUE(renderStackedBar({}, 20).empty());
}

TEST(TextTable, StackedBarSingleFullSegment) {
  std::string Bar = renderStackedBar({{"all", 1.0, '#'}}, 16);
  EXPECT_EQ(Bar, std::string(16, '#'));
}

//===----------------------------------------------------------------------===//
// Timer
//===----------------------------------------------------------------------===//

namespace {
/// Spins until the live timer has visibly advanced; keeps the tests free of
/// sleeps while still exercising real clock movement.
void spinUntilAdvanced(const quals::Timer &T, double Floor) {
  while (T.seconds() <= Floor) {
  }
}
} // namespace

TEST(Timer, RunsOnConstruction) {
  Timer T;
  EXPECT_TRUE(T.isRunning());
  spinUntilAdvanced(T, 0.0);
  EXPECT_GT(T.seconds(), 0.0);
  T.stop(); // freeze so the two unit readings observe the same value
  EXPECT_DOUBLE_EQ(T.milliseconds(), T.seconds() * 1000.0);
}

TEST(Timer, StopFreezesAccumulation) {
  Timer T;
  spinUntilAdvanced(T, 0.0);
  T.stop();
  EXPECT_FALSE(T.isRunning());
  double Frozen = T.seconds();
  EXPECT_GT(Frozen, 0.0);
  // A stopped timer does not advance.
  EXPECT_DOUBLE_EQ(T.seconds(), Frozen);
  // Redundant stop is a no-op.
  T.stop();
  EXPECT_DOUBLE_EQ(T.seconds(), Frozen);
}

TEST(Timer, ResumeAccumulatesAcrossSegments) {
  Timer T;
  spinUntilAdvanced(T, 0.0);
  T.stop();
  double FirstSegment = T.seconds();
  T.resume();
  EXPECT_TRUE(T.isRunning());
  // Redundant resume is a no-op (must not discard the live segment start).
  T.resume();
  spinUntilAdvanced(T, FirstSegment);
  T.stop();
  EXPECT_GT(T.seconds(), FirstSegment);
}

TEST(Timer, ResetZeroesAndRestarts) {
  Timer T;
  spinUntilAdvanced(T, 0.0);
  T.stop();
  T.reset();
  EXPECT_TRUE(T.isRunning());
  spinUntilAdvanced(T, 0.0);
  T.stop();
  // Post-reset reading reflects only the new segment, and the timer keeps
  // the source-compatible start-on-construction behavior.
  EXPECT_GT(T.seconds(), 0.0);
}
