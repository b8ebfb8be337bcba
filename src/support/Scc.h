//===- support/Scc.h - Strongly-connected components ------------*- C++ -*-===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tarjan's SCC algorithm over a dense adjacency-list digraph. Used to find
/// the sets of mutually-recursive functions in the function dependence graph
/// (Definition 4 in the paper) for polymorphic const inference.
///
//===----------------------------------------------------------------------===//

#ifndef QUALS_SUPPORT_SCC_H
#define QUALS_SUPPORT_SCC_H

#include <cstddef>
#include <vector>

namespace quals {

/// A digraph over dense node ids [0, N).
class Digraph {
public:
  explicit Digraph(unsigned NumNodes) : Adj(NumNodes) {}

  unsigned getNumNodes() const { return Adj.size(); }

  /// Adds the edge From -> To (parallel edges allowed and harmless).
  void addEdge(unsigned From, unsigned To) { Adj[From].push_back(To); }

  const std::vector<unsigned> &successors(unsigned Node) const {
    return Adj[Node];
  }

private:
  std::vector<std::vector<unsigned>> Adj;
};

/// Result of an SCC decomposition.
struct SccResult {
  /// Components in *reverse topological order*: every edge goes from a
  /// component with a higher index in this vector to one with a lower or
  /// equal index. This is exactly the order the paper's FDG traversal wants
  /// (callees analyzed before callers).
  std::vector<std::vector<unsigned>> Components;

  /// Maps node id -> index into Components.
  std::vector<unsigned> ComponentOf;
};

/// Runs Tarjan's algorithm (iterative; safe for deep graphs).
SccResult computeSccs(const Digraph &G);

} // namespace quals

#endif // QUALS_SUPPORT_SCC_H
