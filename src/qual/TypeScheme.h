//===- qual/TypeScheme.h - Polymorphic constrained types -------*- C++ -*-===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Qualifier polymorphism (Section 3.2). A polymorphic constrained type
///
///   sigma ::= forall kappa_vec . rho \ C
///
/// quantifies over *qualifier* variables only -- never over the underlying
/// type structure. Generalization (rule Letv) binds the qualifier variables
/// created while inferring a syntactic value that do not occur free in the
/// environment, together with the constraints that mention them (the
/// existentially-bound "purely local" variables of the paper). Instantiation
/// (rule Var') substitutes fresh variables for the bound ones in both the
/// body and the canned constraints, re-adding the latter to the caller's
/// constraint system.
///
/// The watermark discipline: because qualified types are immutable and
/// qualifier inference never unifies type structure, a variable created
/// *after* inference of the value began can only occur in the environment if
/// the caller deliberately leaked it; so "not free in A" reduces to "created
/// at or after the watermark and not explicitly marked escaping".
///
//===----------------------------------------------------------------------===//

#ifndef QUALS_QUAL_TYPESCHEME_H
#define QUALS_QUAL_TYPESCHEME_H

#include "qual/QualType.h"

#include <functional>
#include <utility>
#include <vector>

namespace quals {

/// Snapshot of a ConstraintSystem taken before inferring a let-bound value;
/// generalization considers only variables/constraints created after it.
struct Watermark {
  QualVarId FirstVar;
  ConstraintId FirstConstraint;
};

/// Captures the current counters of \p Sys.
inline Watermark takeWatermark(const ConstraintSystem &Sys) {
  return {Sys.getNumVars(), Sys.getNumConstraints()};
}

/// forall kappa_vec . rho \ C.
class QualScheme {
public:
  /// A trivial (monomorphic) scheme with no bound variables.
  static QualScheme monomorphic(QualType Body) {
    QualScheme S;
    S.Body = Body;
    return S;
  }

  /// Generalizes \p Body over the qualifier variables of \p Sys created at
  /// or after \p Mark, excluding those for which \p Escapes returns true
  /// (variables that leaked into the environment, e.g. via global state).
  /// Constraints created after the watermark that mention at least one bound
  /// variable are canned into the scheme for per-instantiation replay; their
  /// reasons are interned in \p Sys, the system every instance lives in.
  static QualScheme
  generalize(ConstraintSystem &Sys, QualType Body, Watermark Mark,
             const std::function<bool(QualVarId)> &Escapes = nullptr);

  /// Instantiates the scheme: substitutes a block of fresh variables
  /// (created in \p Sys) for the bound variables in the body and replays
  /// the canned constraints under the substitution.
  QualType instantiate(ConstraintSystem &Sys, QualTypeFactory &Factory) const;

  QualType getBody() const { return Body; }
  bool isPolymorphic() const { return !BoundVars.empty(); }
  unsigned getNumBoundVars() const { return BoundVars.size(); }
  const std::vector<Constraint> &getCannedConstraints() const {
    return Canned;
  }

  /// True if \p Var is quantified by this scheme.
  bool isBound(QualVarId Var) const { return boundIndex(Var) != ~0u; }

private:
  QualType Body;
  std::vector<QualVarId> BoundVars;
  /// (bound variable, its index in BoundVars), sorted by variable.
  std::vector<std::pair<QualVarId, uint32_t>> BoundSet;
  std::vector<Constraint> Canned;

  /// Index of \p Var in BoundVars, or ~0u if it is free.
  uint32_t boundIndex(QualVarId Var) const;
};

} // namespace quals

#endif // QUALS_QUAL_TYPESCHEME_H
