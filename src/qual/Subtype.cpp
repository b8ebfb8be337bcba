//===- qual/Subtype.cpp - Structural subtype decomposition ----------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//

#include "qual/Subtype.h"
#include "qual/TypeScheme.h"

using namespace quals;

/// False when either qualifier is QualScheme::DontCare: the level takes no
/// constraint.
static bool relates(QualType A, QualType B) {
  return !QualScheme::isDontCare(A.getQual()) &&
         !QualScheme::isDontCare(B.getQual());
}

bool quals::decomposeLeq(ConstraintSystem &Sys, QualType A, QualType B,
                         const ConstraintOrigin &Origin) {
  if (A.isNull() || B.isNull())
    return A.isNull() == B.isNull();
  if (A.getCtor() != B.getCtor())
    return false;
  if (relates(A, B))
    Sys.addLeq(A.getQual(), B.getQual(), Origin);
  bool Ok = true;
  for (unsigned I = 0, E = A.getNumArgs(); I != E; ++I) {
    switch (A.getCtor()->getVariance(I)) {
    case Variance::Covariant:
      Ok &= decomposeLeq(Sys, A.getArg(I), B.getArg(I), Origin);
      break;
    case Variance::Contravariant:
      Ok &= decomposeLeq(Sys, B.getArg(I), A.getArg(I), Origin);
      break;
    case Variance::Invariant:
      Ok &= decomposeEq(Sys, A.getArg(I), B.getArg(I), Origin);
      break;
    }
  }
  return Ok;
}

bool quals::decomposeEq(ConstraintSystem &Sys, QualType A, QualType B,
                        const ConstraintOrigin &Origin) {
  if (A.isNull() || B.isNull())
    return A.isNull() == B.isNull();
  if (A.getCtor() != B.getCtor())
    return false;
  if (relates(A, B))
    Sys.addEq(A.getQual(), B.getQual(), Origin);
  bool Ok = true;
  for (unsigned I = 0, E = A.getNumArgs(); I != E; ++I)
    Ok &= decomposeEq(Sys, A.getArg(I), B.getArg(I), Origin);
  return Ok;
}
