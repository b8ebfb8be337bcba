//===- constinf/RefTypes.h - The l translation from C types ------*- C++ -*-===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 4.1's translation from C types to qualified ref types:
///
///   l(CTyp)         = Q' ref(rho)   where (Q', rho) = l'(CTyp)
///   l'(Q int)       = (Q, bottom int)
///   l'(Q ptr(CTyp)) = (Q, (Q'' ref(rho')))  where (Q'', rho') = l'(CTyp)
///
/// Every C variable is an updateable memory cell (one extra ref on the
/// outside); const shifts up one level, attaching to the ref constructor.
/// In inference mode every qualifier position is a fresh variable; a
/// source-level const becomes a lower bound on the corresponding variable.
///
/// Design decisions from Section 4.2 encoded here:
/// \li struct/union values are *nominal* nullary constructors; all variables
///     of the same record type share one field environment (identical field
///     qualifiers), while their top-level ref qualifiers stay independent.
/// \li typedefs were macro-expanded by the parser, so they share nothing.
/// \li arrays translate like pointers to their element cells.
/// \li functions translate to per-arity constructors over the parameter and
///     result r-types (contravariant/covariant).
///
/// The translator also records the "interesting" const positions of
/// Section 4.4: one per pointer level inside the parameters and result of a
/// function type (arguments are by-value, so only pointer contents can
/// meaningfully be const).
///
//===----------------------------------------------------------------------===//

#ifndef QUALS_CONSTINF_REFTYPES_H
#define QUALS_CONSTINF_REFTYPES_H

#include "cfront/CAst.h"
#include "support/PagedArray.h"
#include "qual/QualType.h"
#include "qual/TypeScheme.h"

#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

namespace quals {
namespace constinf {

/// Type constructors for the translated C types. Function constructors are
/// created per arity on demand.
class ConstCtors {
public:
  /// \p NumRecords sizes the per-record table (TranslationUnit::numDecls).
  explicit ConstCtors(unsigned NumRecords);

  const TypeCtor *val() const { return &Val; }
  const TypeCtor *ref() const { return &Ref; }

  /// fnN: N contravariant parameters plus one covariant result.
  const TypeCtor *fn(unsigned NumParams);

  /// The nullary nominal constructor for \p RD.
  const TypeCtor *record(const cfront::RecordDecl *RD);

private:
  TypeCtor Val;
  TypeCtor Ref;
  std::deque<TypeCtor> Owned;
  std::unordered_map<unsigned, const TypeCtor *> FnCtors;
  /// Indexed by RecordDecl id; null until first use.
  std::vector<const TypeCtor *> Records;
};

/// An "interesting" const position (Section 4.4): a place in a defined
/// function's parameters or result where the C syntax can carry const.
struct InterestingPos {
  const cfront::FunctionDecl *Fn = nullptr;
  /// -1 for the result, otherwise the parameter index.
  int ParamIndex = -1;
  /// Pointer depth of the position (0 = pointee of the outer pointer).
  unsigned Depth = 0;
  QualVarId Var = InvalidQualVar;
  bool DeclaredConst = false;
};

/// A Section 4.2 library-conservatism constraint withheld in summary mode
/// (ConstInference::Options::SummaryMode): "Var <= not-const" that normal
/// whole-program inference would add because \p Fn is undefined. A TU
/// summary records these per imported symbol instead of adding them, and
/// the link step applies them only when the symbol stays unresolved across
/// every linked TU -- exactly reproducing whole-program behaviour, where a
/// function defined in another file gets no library pins (src/link,
/// docs/LINK.md).
struct DeferredPin {
  /// The undefined callee the pin belongs to.
  const cfront::FunctionDecl *Fn = nullptr;
  /// The variable to pin <= not-const when the symbol stays unresolved.
  QualVarId Var = InvalidQualVar;
  /// Diagnostic location (declaration for parameter pins, argument for
  /// escape pins).
  SourceLoc Loc;
  /// False: an undeclared-const parameter position of the import's
  /// interface. True: a ref level of an extra argument escaping into an
  /// unknown/variadic call.
  bool IsEscape = false;
};

/// The shape of the qualified type the l translation gives \p D -- a
/// FunctionDecl's interface fnN(...) or a VarDecl's cell ref(...) --
/// computed from its C type alone, without translating it: constructor
/// names, each constructor's arguments in parentheses. Two declarations
/// with equal shapes translate to positionally identical variable lists,
/// which is what cross-TU symbol unification relies on (link/Linker.h).
std::string shapeOf(const cfront::CDecl *D);
/// Appends shapeOf(\p D) to \p Shape, so a caller shaping many
/// declarations reuses one buffer.
void appendShapeOf(const cfront::CDecl *D, std::string &Shape);

/// Performs the l translation, memoizing shared structure (record field
/// environments, variable cell types, function interfaces) in tables
/// indexed by declaration id and sized once from \p TU's declaration counts.
class RefTranslator {
public:
  /// With \p DeferLibraryPins set (summary mode) the Section 4.2 library
  /// pins are recorded into deferredPins() instead of being added to the
  /// system, so the link step can drop them for symbols another TU defines.
  RefTranslator(const cfront::TranslationUnit &TU, ConstraintSystem &Sys,
                QualTypeFactory &Factory, ConstCtors &Ctors,
                QualifierId ConstQual, bool ConservativeLibraries = true,
                bool StructFieldsShared = true,
                bool DeferLibraryPins = false)
      : Sys(Sys), Factory(Factory), Ctors(Ctors), ConstQual(ConstQual),
        ConservativeLibraries(ConservativeLibraries),
        StructFieldsShared(StructFieldsShared),
        DeferLibraryPins(DeferLibraryPins),
        VarTypes(TU.numDecls(cfront::CDecl::Kind::Var)),
        FieldTypes(TU.numDecls(cfront::CDecl::Kind::Field)),
        FnTypes(TU.numDecls(cfront::CDecl::Kind::Function)) {}

  /// The l-value type of \p VD: kappa ref(rho). Memoized.
  QualType varLValueType(const cfront::VarDecl *VD);

  /// The shared l-value type of record field \p FD. Memoized per FieldDecl,
  /// so every instance of the record shares the field's qualifiers
  /// (Section 4.2's struct rule).
  QualType fieldLValueType(const cfront::FieldDecl *FD);

  /// The interface type of \p FD: fnN(param r-types..., result r-type).
  /// Memoized; interesting positions are recorded on first creation for
  /// *defined* functions, and the Section 4.2 library rule (undeclared
  /// non-const parameters are non-const) is applied for undefined ones.
  /// An undefined (library) function's interface is translated on first
  /// use, inside whichever function body uses it; its variables are marked
  /// as shared storage, since every caller shares the one interface.
  QualType functionInterfaceType(const cfront::FunctionDecl *FD);

  /// The memoized interface of \p FD, or a null type if nothing has used
  /// it yet. Creates no variables.
  QualType translatedInterface(const cfront::FunctionDecl *FD) const {
    return FnTypes.lookup(FD->getId());
  }

  /// The memoized cell of \p VD, or a null type if it was never
  /// translated (an `extern` global the unit does not use). Creates no
  /// variables.
  QualType translatedCell(const cfront::VarDecl *VD) const {
    return VarTypes.lookup(VD->getId());
  }

  /// Translates a C type to an r-value qualified type with all-fresh
  /// variables (used for casts, which sever qualifier flow).
  QualType freshRValueType(cfront::CQualType T, SourceLoc Loc);

  const std::vector<InterestingPos> &interestingPositions() const {
    return Interesting;
  }

  /// The variables created for storage that outlives a call -- a shared
  /// record field or a variable with static storage -- or for a library
  /// function's interface. Every instance of a polymorphic function shares
  /// them, so generalization must not quantify them.
  const FreeVarSet &sharedStorage() const { return SharedStorage; }

  /// Adds "kappa must not be const" upper bounds on every ref level of
  /// \p T (the conservative treatment of values escaping to unknown code).
  void forceNonConstRefs(QualType T, const ConstraintOrigin &Origin);

  /// True when library pins are being recorded rather than added (summary
  /// mode); ConstraintGen consults this at unknown-callee argument sites.
  bool deferringLibraryPins() const { return DeferLibraryPins; }

  /// Records deferred escape pins for every ref level of \p T: an extra
  /// argument at \p Loc escaping into a call of undefined \p Callee. The
  /// link step pins them only if \p Callee's symbol stays unresolved.
  void deferEscapePins(const cfront::FunctionDecl *Callee, QualType T,
                       SourceLoc Loc);

  /// The library pins withheld so far (summary mode only; stable order:
  /// recorded as interfaces and call sites are visited).
  const std::vector<DeferredPin> &deferredPins() const { return Deferred; }

private:
  ConstraintSystem &Sys;
  QualTypeFactory &Factory;
  ConstCtors &Ctors;
  QualifierId ConstQual;
  bool ConservativeLibraries;
  bool StructFieldsShared;
  bool DeferLibraryPins;
  std::vector<DeferredPin> Deferred;

  // Indexed by declaration id; a null QualType means "not translated yet".
  PagedArray<QualType> VarTypes;
  PagedArray<QualType> FieldTypes;
  PagedArray<QualType> FnTypes;
  std::vector<InterestingPos> Interesting;
  /// Scratch for a library interface's positions (they are pinned, never
  /// kept).
  std::vector<InterestingPos> Positions;
  /// Indexed by variable id; see sharedStorage().
  std::vector<bool> SharedStorage;
  InternedReason DeclaredConst{"declared const"};

  struct LPair {
    QualExpr TopQual;
    QualType Contents;
  };

  /// The l' operation. When \p Collect is non-null, the top qualifiers of
  /// pointee levels are appended as interesting positions.
  LPair lprime(cfront::CQualType T, SourceLoc Loc,
               std::vector<InterestingPos> *Collect, unsigned Depth);

  /// The l-value type kappa ref(rho) of a declaration of type \p T; marks
  /// its variables as shared storage when \p Shared is set.
  QualType lvalueType(cfront::CQualType T, SourceLoc Loc, bool Shared);

  /// Marks every variable created since \p First as shared storage.
  void markShared(QualVarId First);
};

} // namespace constinf
} // namespace quals

#endif // QUALS_CONSTINF_REFTYPES_H
