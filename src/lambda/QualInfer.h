//===- lambda/QualInfer.h - Qualified type inference ------------*- C++ -*-===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Qualifier inference for the demonstration language: the qualified type
/// system of Figure 4 in inference form (Section 3.1), with qualifier
/// polymorphism (Section 3.2, rules Letv/Var' under the value restriction)
/// and the const rule (Section 2.4, rule Assign').
///
/// Runs after standard type checking (TypeCheck.h); only qualifier
/// variables and atomic lattice constraints are introduced here, never type
/// structure -- the paper's Observation 1.
///
/// The inference is parameterized the way the paper's framework is:
/// \li an arbitrary QualifierSet,
/// \li an optional "const-like" qualifier enabling the Assign' restriction,
/// \li optional well-formedness closure rules (e.g. binding-time's "nothing
///     dynamic inside static" = dynamic is upward closed),
/// \li an optional literal hook assigning lattice lower bounds to integer
///     literals (e.g. nonzero literals).
///
//===----------------------------------------------------------------------===//

#ifndef QUALS_LAMBDA_QUALINFER_H
#define QUALS_LAMBDA_QUALINFER_H

#include "lambda/TypeCheck.h"
#include "qual/Subtype.h"
#include "qual/TypeScheme.h"

#include <functional>
#include <optional>
#include <unordered_map>

namespace quals {
namespace lambda {

/// Type constructors of the demonstration language's qualified types
/// (Figure 3 plus ref/unit from Section 2.4). One instance per inference
/// pipeline; QualTypes point into it.
struct LambdaTypeCtors {
  TypeCtor Int{"int", {}};
  TypeCtor Unit{"unit", {}};
  TypeCtor Fn{"->",
              {Variance::Contravariant, Variance::Covariant},
              PrintStyle::Infix};
  // SubRef: ref contents are invariant, which is what rejects the paper's
  // Section 2.4 nonzero-smuggling example.
  TypeCtor Ref{"ref", {Variance::Invariant}};
};

/// Knobs for the qualifier inference.
struct QualInferOptions {
  /// Generalize let-bound syntactic values (rule Letv) and instantiate at
  /// uses (rule Var'). When false, inference is monomorphic.
  bool Polymorphic = true;

  /// When set, assignment left-hand sides must lack this qualifier
  /// (rule Assign': the ref being assigned through is bounded by :const).
  std::optional<QualifierId> ConstQual;

  /// Qualifiers required to be upward closed in every type (child <= parent
  /// on that component); e.g. dynamic in binding-time analysis.
  std::vector<QualifierId> UpwardClosedQuals;

  /// Qualifiers required to be downward closed (parent <= child); e.g.
  /// tainted containers have tainted contents.
  std::vector<QualifierId> DownwardClosedQuals;

  /// Optional lattice lower bound for integer literals (e.g. mark non-zero
  /// literals nonzero). Defaults to bottom, matching the paper's (Int) rule.
  std::function<LatticeValue(long)> IntLiteralQual;
};

/// Runs qualifier inference over one program.
class QualInferencer {
public:
  QualInferencer(const QualifierSet &QS, ConstraintSystem &Sys,
                 QualTypeFactory &Factory, const LambdaTypeCtors &Ctors,
                 DiagnosticEngine &Diags, QualInferOptions Options);

  /// Infers the qualified type of \p Program, whose shapes were resolved by
  /// \p Shapes. Returns a null type on error. Constraints accumulate in the
  /// ConstraintSystem; the caller solves and checks violations.
  QualType infer(const Expr *Program, const StdTypeChecker &Shapes);

  /// Qualified type recorded for \p E during the last infer().
  QualType getNodeType(const Expr *E) const {
    auto It = NodeTypes.find(E);
    return It == NodeTypes.end() ? QualType() : It->second;
  }

  /// The scheme bound for the let at \p E (for tests inspecting
  /// generalization).
  const QualScheme *getLetScheme(const Expr *E) const {
    auto It = LetSchemes.find(E);
    return It == LetSchemes.end() ? nullptr : &It->second;
  }

private:
  const QualifierSet &QS;
  ConstraintSystem &Sys;
  QualTypeFactory &Factory;
  const LambdaTypeCtors &Ctors;
  DiagnosticEngine &Diags;
  QualInferOptions Options;
  const StdTypeChecker *Shapes = nullptr;

  std::unordered_map<const Expr *, QualType> NodeTypes;
  std::unordered_map<const Expr *, QualScheme> LetSchemes;
  std::unordered_map<std::string_view, std::vector<QualScheme>> Env;

  QualType inferExpr(const Expr *E);
  QualType fail(const Expr *E, const std::string &Message);

  /// Fresh top-level qualifier variable.
  QualExpr freshQual() { return QualExpr::makeVar(Sys.freshVar()); }

  /// sp over a resolved standard type: qualified type with fresh variables
  /// at every level, with well-formedness rules applied.
  QualType spreadSTy(STy *T, SourceLoc Loc);

  /// Applies the configured closure rules to one freshly built level.
  void applyWFLevel(QualType T, SourceLoc Loc);
};

/// End-to-end result of checkProgram().
struct CheckResult {
  bool StdTypeOk = false;   ///< Standard type checking succeeded.
  bool QualOk = false;      ///< Qualifier constraints are satisfiable.
  QualType Type;            ///< Inferred qualified type (if StdTypeOk).
  std::vector<Violation> Violations; ///< Qualifier violations (if any).
  SolverStats Stats;        ///< Solver instrumentation after the solve.
};

/// Convenience pipeline: standard type check, qualifier inference, solve.
/// All state objects are caller-provided so results can be inspected.
CheckResult checkProgram(const Expr *Program, const QualifierSet &QS,
                         STyContext &STys, ConstraintSystem &Sys,
                         QualTypeFactory &Factory,
                         const LambdaTypeCtors &Ctors,
                         DiagnosticEngine &Diags,
                         const QualInferOptions &Options);

} // namespace lambda
} // namespace quals

#endif // QUALS_LAMBDA_QUALINFER_H
