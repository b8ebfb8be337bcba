//===- qual/Subtype.h - Structural subtype decomposition -------*- C++ -*-===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implements the subtyping rules of Figure 4a generically: a subtype
/// constraint rho_1 <= rho_2 between qualified types with identical shape
/// decomposes into the atomic constraint Q_1 <= Q_2 on the top-level
/// qualifiers plus recursive constraints on the arguments directed by each
/// constructor's declared variance:
///
///   Covariant      arg_1 <= arg_2        (SubFun result position)
///   Contravariant  arg_2 <= arg_1        (SubFun parameter position)
///   Invariant      arg_1 = arg_2         (SubRef -- sound ref subtyping)
///
/// After decomposition only atomic lattice constraints remain, which the
/// ConstraintSystem solves in linear time (Section 3.1). A level where
/// either side's qualifier is QualScheme::DontCare (a call instance's
/// unobservable variable) takes no constraint; its arguments still do.
///
//===----------------------------------------------------------------------===//

#ifndef QUALS_QUAL_SUBTYPE_H
#define QUALS_QUAL_SUBTYPE_H

#include "qual/QualType.h"

namespace quals {

/// Adds the atomic constraints for \p A <= \p B. Where the shapes disagree
/// it adds nothing for that pair or below it, goes on with the rest, and
/// returns false -- callers that ran standard type checking first never see
/// that; const inference ignores it, since a C conversion drops the flow.
bool decomposeLeq(ConstraintSystem &Sys, QualType A, QualType B,
                  const ConstraintOrigin &Origin);

/// Adds the atomic constraints for \p A = \p B (equality at every level).
bool decomposeEq(ConstraintSystem &Sys, QualType A, QualType B,
                 const ConstraintOrigin &Origin);

} // namespace quals

#endif // QUALS_QUAL_SUBTYPE_H
