//===- constinf/Fdg.h - Function dependence graph ----------------*- C++ -*-===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Definition 4: the function dependence graph has the program's functions
/// as vertices and an edge from f to g iff f contains an occurrence of the
/// *name* g (not just calls -- taking a function's address counts). The
/// polymorphic const inference analyzes the FDG's strongly-connected
/// components (the sets of mutually-recursive functions) in reverse
/// depth-first (topological) order: callees before callers.
///
//===----------------------------------------------------------------------===//

#ifndef QUALS_CONSTINF_FDG_H
#define QUALS_CONSTINF_FDG_H

#include "cfront/CAst.h"
#include "support/Scc.h"

#include <vector>

namespace quals {
namespace constinf {

/// The FDG plus its SCC decomposition.
struct Fdg {
  static constexpr unsigned NoNode = ~0u;

  /// Node ids correspond to indices into Functions.
  std::vector<cfront::FunctionDecl *> Functions;
  /// Node of each function, indexed by FunctionDecl id; NoNode for
  /// declarations outside TranslationUnit::Functions (completed prototypes).
  std::vector<unsigned> NodeOf;
  Digraph Graph{0};
  /// Components in reverse topological order (callees first).
  SccResult Sccs;
};

/// Builds the FDG of \p TU (name resolution must have run).
Fdg buildFdg(const cfront::TranslationUnit &TU);

} // namespace constinf
} // namespace quals

#endif // QUALS_CONSTINF_FDG_H
