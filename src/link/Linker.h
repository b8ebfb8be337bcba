//===- link/Linker.h - Whole-program link over TU summaries ------*- C++ -*-===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The link step: merges every TU's serialized constraint summary into one
/// ConstraintSystem, unifies interface variables across TUs by symbol name,
/// applies the deferred Section 4.2 library pins for symbols no TU defines,
/// and runs the global solve.
///
/// Determinism contract (docs/LINK.md): summaries are canonicalized --
/// sorted by (source name, content hash) and deduplicated by (content hash,
/// config hash) -- before any merging, so diagnostics, position
/// classifications, and solver statistics are byte-identical regardless of
/// the order summaries were passed in or loaded.
///
/// Equivalence contract: linking the summaries of a program split across N
/// TUs yields the same classification for every exported interface as
/// whole-program inference over the concatenation. Imports unify with the
/// export when one exists (so the library pins withheld at compile time are
/// dropped, exactly as whole-program inference never adds them for defined
/// functions); imports of a symbol no TU defines unify with each other and
/// every TU's withheld pins apply (whole-program inference sees one
/// undefined declaration and pins it once -- the duplicate pins are
/// idempotent bounds).
///
//===----------------------------------------------------------------------===//

#ifndef QUALS_LINK_LINKER_H
#define QUALS_LINK_LINKER_H

#include "constinf/ConstInfer.h"
#include "link/Qsum.h"

#include <string>
#include <vector>

namespace quals {
namespace link {

struct LinkOptions {
  /// Constraint budget (0 = unlimited); hitting it is a load failure.
  uint64_t MaxConstraints = 0;
};

/// One interesting position of the linked program, classified under the
/// global solution.
struct LinkedPos {
  std::string FnName;
  int ParamIndex = -1; ///< -1 for the result position.
  unsigned Depth = 0;
  bool DeclaredConst = false;
  constinf::PosClass Class = constinf::PosClass::Either;
};

struct LinkResult {
  /// Summaries were mutually compatible (format, config hash, qualifier
  /// set) and the merge stayed within the constraint budget.
  bool LoadOk = true;
  /// Symbol resolution succeeded: no duplicate definitions, no
  /// function/object kind clashes, no interface shape or arity mismatches.
  bool LinkOk = true;
  /// The global solve produced no qualifier violations. Only meaningful
  /// when LoadOk and LinkOk hold.
  bool SolveOk = true;
  /// Rendered diagnostics ("file:line:col: error: ..." where a location is
  /// known), in deterministic order.
  std::vector<std::string> Diagnostics;
  /// All interesting positions, sorted by (function, parameter with the
  /// result last, depth). Populated when the solve ran.
  std::vector<LinkedPos> Positions;
  /// Table 2 counts over Positions.
  constinf::ConstCounts Counts;
  /// Global solver statistics; SolveSeconds is zeroed so rendering is
  /// byte-identical across runs.
  SolverStats Stats{};
  /// Summaries remaining after deduplication.
  unsigned NumSummaries = 0;
  /// Summaries passed in.
  unsigned NumInputs = 0;
  /// Merged system size.
  unsigned NumVars = 0;
  unsigned NumConstraints = 0;
};

/// Sorts \p Summaries by (source name, content hash, config hash) and drops
/// duplicates by (content hash, config hash) -- the canonical order every
/// link runs in. Exposed for tests; linkSummaries() applies it itself.
void canonicalizeSummaries(std::vector<TuSummary> &Summaries);

/// Links \p Summaries (canonicalizing them in place first) and returns the
/// outcome. quallink maps !LoadOk / !LinkOk to exit 1 (the link analogue of
/// qualcc's front-end errors) and !SolveOk to exit 2 (qualifier errors in
/// the linked program).
LinkResult linkSummaries(std::vector<TuSummary> &Summaries,
                         const LinkOptions &Opts);

} // namespace link
} // namespace quals

#endif // QUALS_LINK_LINKER_H
