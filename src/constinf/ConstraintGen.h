//===- constinf/ConstraintGen.h - Qualifier constraints from C ASTs -*- C++ -*-===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Walks typed C function bodies and global initializers emitting atomic
/// qualifier constraints over the l-translated types (RefTypes.h):
///
/// \li assignment (and ++/--/compound assignment) upper-bounds the target
///     cell's qualifier with :const (rule Assign');
/// \li value flow (initialization, assignment right-hand sides, argument
///     passing, returns) adds structural <= constraints, with ref contents
///     invariant (SubRef);
/// \li explicit casts sever qualifier flow (fresh variables, Section 4.2);
///     implicit conversions keep as much structure as matches;
/// \li extra arguments to undefined/variadic functions are conservatively
///     forced non-const at every pointer level; extra arguments to defined
///     functions are ignored (Section 4.2);
/// \li function name uses go through a hook so the driver can instantiate
///     polymorphic schemes per use site (rule Var'); a direct call's
///     argument adds no constraint at a don't-care position of its
///     instance (QualScheme::instantiateCall).
///
//===----------------------------------------------------------------------===//

#ifndef QUALS_CONSTINF_CONSTRAINTGEN_H
#define QUALS_CONSTINF_CONSTRAINTGEN_H

#include "constinf/RefTypes.h"
#include "qual/TypeScheme.h"
#include "support/Diagnostics.h"

#include <functional>

namespace quals {
namespace constinf {

/// Generates constraints for one function body or initializer at a time.
class ConstraintGen {
public:
  /// \p FunctionUse maps a referenced function to the qualified type to use
  /// for this occurrence (monomorphic interface or fresh instantiation);
  /// its flag is true for the callee of a direct call, whose parameters
  /// meet only that call's arguments.
  ConstraintGen(ConstraintSystem &Sys, QualTypeFactory &Factory,
                ConstCtors &Ctors, RefTranslator &Translator,
                QualifierId ConstQual, DiagnosticEngine &Diags,
                std::function<QualType(const cfront::FunctionDecl *,
                                       bool DirectCall)>
                    FunctionUse,
                bool CastsSeverFlow = true,
                bool ConservativeLibraries = true)
      : Sys(Sys), Factory(Factory), Ctors(Ctors), Translator(Translator),
        ConstQual(ConstQual), Diags(Diags),
        FunctionUse(std::move(FunctionUse)),
        CastsSeverFlow(CastsSeverFlow),
        ConservativeLibraries(ConservativeLibraries) {}

  /// Emits constraints for \p FD's body against its interface type \p FnTy.
  void genFunction(const cfront::FunctionDecl *FD, QualType FnTy);

  /// Emits constraints for a global variable's initializer.
  void genGlobalInit(const cfront::VarDecl *VD);

  /// Structural flow A <= B where the shapes match; silently stops at shape
  /// mismatches (conversions drop the association). A level where either
  /// side is QualScheme::DontCare adds no constraint.
  void flowInto(QualType A, QualType B, const ConstraintOrigin &Origin);

private:
  ConstraintSystem &Sys;
  QualTypeFactory &Factory;
  ConstCtors &Ctors;
  RefTranslator &Translator;
  QualifierId ConstQual;
  DiagnosticEngine &Diags;
  std::function<QualType(const cfront::FunctionDecl *, bool DirectCall)>
      FunctionUse;
  bool CastsSeverFlow;
  bool ConservativeLibraries;

  QualType CurrentRet; ///< Result position of the function being walked.

  // The fixed reasons, each interned by the first constraint it labels.
  InternedReason InitFlow{"initializer flows into cell"};
  InternedReason AssignFlow{"assigned value flows into cell"};
  InternedReason ArgumentFlow{"argument flows into parameter"};
  InternedReason BranchJoin{"conditional branch joins"};
  InternedReason CastFlow{"cast keeps flow (ablation)"};
  InternedReason UnknownArgument{"argument to unknown/variadic function"};
  InternedReason AssignTarget{"assignment target must not be const"};
  InternedReason CompoundTarget{
      "compound assignment target must not be const"};
  InternedReason IncDecTarget{"increment/decrement target must not be const"};
  /// The current function's return reason, "returned value flows into
  /// result of 'f'".
  std::string ReturnReasonText;
  InternedReason ReturnFlow;

  void genStmt(const cfront::CStmt *S);
  /// Qualified type of \p E: the l-type (shape ref) for l-values, the
  /// r-type otherwise. Null only on internal inconsistency.
  QualType genExpr(const cfront::CExpr *E);
  /// r-value type of \p E (auto-dereference of l-values).
  QualType rvalue(const cfront::CExpr *E);

  void flowBoth(QualType A, QualType B, const ConstraintOrigin &Origin);
  /// Flows initializer \p Init into the contents of a cell of C type
  /// \p CellType, recursing through braced lists by array element and
  /// struct field.
  void genInitInto(cfront::CQualType CellType, QualType CellContents,
                   const cfront::CExpr *Init);
  void requireNonConstCell(QualType LType, SourceLoc Loc, InternedReason &Why);
  QualType freshVal() {
    return Factory.make(QualExpr::makeVar(Sys.freshVar()), Ctors.val());
  }
  /// A fresh ref cell over \p Contents, whose variables come first.
  QualType freshCell(QualType Contents) {
    return Factory.make(QualExpr::makeVar(Sys.freshVar()), Ctors.ref(),
                        {Contents});
  }
};

} // namespace constinf
} // namespace quals

#endif // QUALS_CONSTINF_CONSTRAINTGEN_H
