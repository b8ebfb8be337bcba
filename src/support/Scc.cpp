//===- support/Scc.cpp - Strongly-connected components --------------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//

#include "support/Scc.h"

#include <cassert>

using namespace quals;

namespace {

constexpr unsigned Undefined = ~0u;

/// Explicit-stack Tarjan state for one DFS root.
struct Frame {
  unsigned Node;
  size_t NextSucc;
};

} // namespace

SccResult quals::computeSccs(const Digraph &G) {
  unsigned N = G.getNumNodes();
  SccResult Result;
  Result.ComponentOf.assign(N, Undefined);

  std::vector<unsigned> Index(N, Undefined);
  std::vector<unsigned> LowLink(N, 0);
  std::vector<bool> OnStack(N, false);
  std::vector<unsigned> Stack;
  std::vector<Frame> CallStack;
  unsigned NextIndex = 0;

  for (unsigned Root = 0; Root != N; ++Root) {
    if (Index[Root] != Undefined)
      continue;
    CallStack.push_back({Root, 0});
    Index[Root] = LowLink[Root] = NextIndex++;
    Stack.push_back(Root);
    OnStack[Root] = true;

    while (!CallStack.empty()) {
      Frame &F = CallStack.back();
      unsigned V = F.Node;
      const std::vector<unsigned> &Succs = G.successors(V);
      if (F.NextSucc < Succs.size()) {
        unsigned W = Succs[F.NextSucc++];
        if (Index[W] == Undefined) {
          Index[W] = LowLink[W] = NextIndex++;
          Stack.push_back(W);
          OnStack[W] = true;
          CallStack.push_back({W, 0});
        } else if (OnStack[W] && Index[W] < LowLink[V]) {
          LowLink[V] = Index[W];
        }
        continue;
      }

      // All successors explored: maybe pop an SCC, then return to caller.
      if (LowLink[V] == Index[V]) {
        std::vector<unsigned> Component;
        unsigned W;
        do {
          W = Stack.back();
          Stack.pop_back();
          OnStack[W] = false;
          Result.ComponentOf[W] = Result.Components.size();
          Component.push_back(W);
        } while (W != V);
        Result.Components.push_back(std::move(Component));
      }
      CallStack.pop_back();
      if (!CallStack.empty()) {
        unsigned Parent = CallStack.back().Node;
        if (LowLink[V] < LowLink[Parent])
          LowLink[Parent] = LowLink[V];
      }
    }
  }

  assert(Stack.empty() && "Tarjan stack should be empty at the end");
  return Result;
}
