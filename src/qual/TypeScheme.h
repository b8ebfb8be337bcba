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
/// constraint system. A direct call instantiates only the bound variables
/// its own flows can observe (QualScheme::instantiateCall).
///
/// The watermark discipline: because qualified types are immutable and
/// qualifier inference never unifies type structure, a variable created
/// *after* inference of the value began can only occur in the environment if
/// the caller deliberately leaked it; so "not free in A" reduces to "created
/// at or after the watermark and not explicitly marked escaping".
///
/// The same interface simplifier (simplifyConstraints) builds the canned
/// constraints of a scheme and the constraint section of a `.qsum` link
/// summary (link/SummaryBuilder.h): both summarize a constraint range over
/// the variables other code can observe, eliminating every other variable.
///
//===----------------------------------------------------------------------===//

#ifndef QUALS_QUAL_TYPESCHEME_H
#define QUALS_QUAL_TYPESCHEME_H

#include "qual/QualType.h"

#include <memory>
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

/// Variables a summary treats as free besides those older than its
/// watermark: V is free iff V < size() and bit V is set (for const
/// inference, constinf::RefTranslator::sharedStorage()).
using FreeVarSet = std::vector<bool>;

/// The working storage of simplifyConstraints and QualScheme::generalize
/// (node maps, bound and reachability arrays, edge lists and work lists).
/// A caller that summarizes many ranges owns one and passes it to every
/// call: the buffers are cleared between calls, never freed, so a steady
/// stream of summaries allocates only their results. One scratch serves
/// one thread at a time; every call leaves it ready for the next.
class SimplifyScratch {
public:
  SimplifyScratch();
  ~SimplifyScratch();
  SimplifyScratch(const SimplifyScratch &) = delete;
  SimplifyScratch &operator=(const SimplifyScratch &) = delete;

  struct Buffers; // TypeScheme.cpp
  Buffers &buffers() { return *B; }

private:
  std::unique_ptr<Buffers> B;
};

/// The observable effect of the constraints created since \p Mark on the
/// \p Interface variables (distinct, created at or after Mark.FirstVar),
/// with every other variable eliminated (Section 3.2's constraint
/// simplification; TypeScheme.cpp). Variables older than Mark, and those
/// in \p Free, are *free*: they live on in \p Sys, so they take no bounds
/// and no pairs among themselves, and their own constant bounds stay in
/// \p Sys instead of seeding the interface variables' bounds; but they are
/// interface variables for reachability. The result, in order:
///
///   - masked reachability `a <= b` between interface variables a and b,
///     one of them not free, through non-interface variables only (a
///     search stops at the first interface variable it reaches);
///   - per variable of \p Interface, in order, the join of the constants
///     reaching it (`c <= v`) and the meet of the constant bounds it
///     reaches (`v <= c`), when not trivial.
///
/// Each canned constraint carries the location and reason of a witness
/// constraint of the range: the constant bound that set it, or the first
/// hop of the path it summarizes. \p Scratch holds the working storage.
std::vector<Constraint>
simplifyConstraints(const ConstraintSystem &Sys, Watermark Mark,
                    const std::vector<QualVarId> &Interface,
                    SimplifyScratch &Scratch,
                    const FreeVarSet *Free = nullptr);

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
  /// or after \p Mark, excluding those in \p Escapes (variables that
  /// leaked into the environment, e.g. via global state or storage every
  /// instance shares). The constraints created after the watermark are
  /// simplified over the bound variables (simplifyConstraints, working in
  /// \p Scratch) and canned into the scheme for per-instantiation replay in
  /// \p Sys, the system every instance lives in.
  ///
  /// A bound variable is marked *don't-care* when it occurs exactly once
  /// in the body, inside a parameter (a contravariant argument of the
  /// body's constructor, as in a function interface fn(params..., result)),
  /// and in no canned constraint: at a direct call the only flow to meet
  /// it is the call's own argument (instantiateCall).
  static QualScheme generalize(const ConstraintSystem &Sys, QualType Body,
                               Watermark Mark, SimplifyScratch &Scratch,
                               const FreeVarSet *Escapes = nullptr);

  /// generalize() with a scratch of its own, for one-off callers.
  static QualScheme generalize(const ConstraintSystem &Sys, QualType Body,
                               Watermark Mark,
                               const FreeVarSet *Escapes = nullptr) {
    SimplifyScratch Scratch;
    return generalize(Sys, Body, Mark, Scratch, Escapes);
  }

  /// Instantiates the scheme: substitutes a block of fresh variables
  /// (created in \p Sys) for the bound variables in the body and replays
  /// the canned constraints under the substitution. Every use that may
  /// meet a parameter position more than once (a function designator
  /// stored or passed as a value) takes this full instance.
  QualType instantiate(ConstraintSystem &Sys, QualTypeFactory &Factory) const {
    return instance(Sys, Factory, /*AtCall=*/false);
  }

  /// Instantiates the scheme at a direct call, which flows one argument
  /// into each parameter and nothing else into them: only the bound
  /// variables not marked don't-care get fresh variables, and every
  /// don't-care position of the instance holds DontCare. The caller must
  /// add no constraint that mentions DontCare. Dropping those constraints
  /// is sound: a variable met only by `a <= v`, `v <= a` or `v = a`, with
  /// no constant bound, moves no other variable's solution, is never a
  /// violation site, and lies on no shortest explanation path.
  QualType instantiateCall(ConstraintSystem &Sys,
                           QualTypeFactory &Factory) const {
    return instance(Sys, Factory, /*AtCall=*/true);
  }

  /// The variable at a don't-care position of a call instance. It belongs
  /// to no system.
  static constexpr QualVarId DontCare = InvalidQualVar - 1;
  static bool isDontCare(QualExpr E) {
    return E.isVar() && E.getVar() == DontCare;
  }

  QualType getBody() const { return Body; }
  bool isPolymorphic() const { return !Bound.empty(); }
  unsigned getNumBoundVars() const { return Bound.size(); }
  /// Bound variables a call instance leaves out.
  unsigned getNumDontCareVars() const { return Bound.size() - NumCallVars; }
  const std::vector<Constraint> &getCannedConstraints() const {
    return Canned;
  }

  /// True if \p Var is quantified by this scheme.
  bool isBound(QualVarId Var) const { return find(Var) != nullptr; }

private:
  static constexpr uint32_t NotAtCall = ~0u;

  struct BoundVar {
    QualVarId Var;
    /// Position in body order: a full instance maps Var to First + Index.
    uint32_t Index;
    /// A call instance maps Var to First + CallIndex, or to DontCare when
    /// this is NotAtCall.
    uint32_t CallIndex;
  };

  QualType Body;
  /// Sorted by variable.
  std::vector<BoundVar> Bound;
  uint32_t NumCallVars = 0;
  std::vector<Constraint> Canned;

  /// The entry of \p Var, or null if it is free.
  const BoundVar *find(QualVarId Var) const;
  QualType instance(ConstraintSystem &Sys, QualTypeFactory &Factory,
                    bool AtCall) const;
};

} // namespace quals

#endif // QUALS_QUAL_TYPESCHEME_H
