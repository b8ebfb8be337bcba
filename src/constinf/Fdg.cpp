//===- constinf/Fdg.cpp - Function dependence graph -------------------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//

#include "constinf/Fdg.h"

#include "support/Metrics.h"

using namespace quals;
using namespace quals::constinf;
using namespace quals::cfront;

Fdg quals::constinf::buildFdg(const TranslationUnit &TU) {
  PhaseScope Phase("fdg", "constinf");
  Fdg Result;
  Result.NodeOf.assign(TU.numDecls(CDecl::Kind::Function), Fdg::NoNode);
  for (FunctionDecl *F : TU.Functions) {
    Result.NodeOf[F->getId()] = Result.Functions.size();
    Result.Functions.push_back(F);
  }
  Result.Graph = Digraph(Result.Functions.size());
  // Sema recorded each body's function-name occurrences in body order.
  for (FunctionDecl *F : TU.Functions) {
    if (!F->isDefined())
      continue;
    unsigned From = Result.NodeOf[F->getId()];
    for (const FunctionDecl *G : F->getUses())
      if (Result.NodeOf[G->getId()] != Fdg::NoNode)
        Result.Graph.addEdge(From, Result.NodeOf[G->getId()]);
  }
  Result.Sccs = computeSccs(Result.Graph);
  return Result;
}
