//===- constinf/RefTypes.cpp - The l translation from C types --------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//

#include "constinf/RefTypes.h"

#include <algorithm>
#include <charconv>

using namespace quals;
using namespace quals::constinf;
using namespace quals::cfront;

namespace {

/// The constructor names, shared by the translation and shapeOf(); they
/// append, so a shape is built in one buffer.
void appendFnCtorName(size_t NumParams, std::string &Out) {
  char Digits[24];
  Out += "fn";
  Out.append(Digits,
             std::to_chars(Digits, Digits + sizeof(Digits), NumParams).ptr);
}

void appendRecordCtorName(const RecordDecl *RD, std::string &Out) {
  Out += RD->isUnion() ? "union " : "struct ";
  Out += RD->getName();
}

/// Appends the shape of the r-type l'(T), mirroring RefTranslator::lprime.
void appendShape(CQualType T, std::string &Shape) {
  const CType *Ty = T.getType();
  switch (Ty ? Ty->getKind() : CType::Kind::Builtin) {
  case CType::Kind::Builtin:
  case CType::Kind::Enum:
    Shape += "val";
    return;
  case CType::Kind::Pointer:
  case CType::Kind::Array:
    Shape += "ref(";
    appendShape(isa<PointerType>(Ty) ? cast<PointerType>(Ty)->getPointee()
                                     : cast<ArrayType>(Ty)->getElement(),
                Shape);
    Shape += ')';
    return;
  case CType::Kind::Record:
    appendRecordCtorName(cast<RecordType>(Ty)->getDecl(), Shape);
    return;
  case CType::Kind::Function: {
    const auto *FT = cast<FunctionType>(Ty);
    appendFnCtorName(FT->getParams().size(), Shape);
    Shape += '(';
    for (CQualType P : FT->getParams()) {
      appendShape(P, Shape);
      Shape += ',';
    }
    appendShape(FT->getReturn(), Shape);
    Shape += ')';
    return;
  }
  }
}

} // namespace

void constinf::appendShapeOf(const CDecl *D, std::string &Shape) {
  if (const auto *FD = dyn_cast<FunctionDecl>(D)) {
    appendShape(CQualType(FD->getType()), Shape);
  } else {
    Shape += "ref(";
    appendShape(cast<VarDecl>(D)->getType(), Shape);
    Shape += ')';
  }
}

std::string constinf::shapeOf(const CDecl *D) {
  std::string Shape;
  appendShapeOf(D, Shape);
  return Shape;
}

ConstCtors::ConstCtors(unsigned NumRecords)
    : Val("val", {}), Ref("ref", {Variance::Invariant}), Records(NumRecords) {}

const TypeCtor *ConstCtors::fn(unsigned NumParams) {
  auto It = FnCtors.find(NumParams);
  if (It != FnCtors.end())
    return It->second;
  std::vector<Variance> Args(NumParams, Variance::Contravariant);
  Args.push_back(Variance::Covariant);
  std::string Name;
  appendFnCtorName(NumParams, Name);
  Owned.emplace_back(std::move(Name), std::move(Args));
  FnCtors[NumParams] = &Owned.back();
  return &Owned.back();
}

const TypeCtor *ConstCtors::record(const RecordDecl *RD) {
  const TypeCtor *&Ctor = Records[RD->getId()];
  if (Ctor)
    return Ctor;
  std::string Name;
  appendRecordCtorName(RD, Name);
  Owned.emplace_back(std::move(Name), std::vector<Variance>());
  Ctor = &Owned.back();
  return Ctor;
}

RefTranslator::LPair
RefTranslator::lprime(CQualType T, SourceLoc Loc,
                      std::vector<InterestingPos> *Collect, unsigned Depth) {
  LPair Result;
  Result.TopQual = QualExpr::makeVar(Sys.freshVar());
  if (!T.isNull() && T.isConst())
    Sys.addLeq(QualExpr::makeConst(
                   Sys.getQualifierSet().withQual(
                       Sys.getQualifierSet().bottom(), ConstQual)),
               Result.TopQual, ConstraintOrigin(Loc, DeclaredConst));

  const CType *Ty = T.isNull() ? nullptr : T.getType();
  if (!Ty) {
    Result.Contents =
        Factory.make(QualExpr::makeVar(Sys.freshVar()), Ctors.val());
    return Result;
  }

  switch (Ty->getKind()) {
  case CType::Kind::Builtin:
  case CType::Kind::Enum:
    Result.Contents =
        Factory.make(QualExpr::makeVar(Sys.freshVar()), Ctors.val());
    break;
  case CType::Kind::Pointer:
  case CType::Kind::Array: {
    CQualType Pointee = isa<PointerType>(Ty)
                            ? cast<PointerType>(Ty)->getPointee()
                            : cast<ArrayType>(Ty)->getElement();
    LPair Inner = lprime(Pointee, Loc, Collect, Depth + 1);
    if (Collect && Inner.TopQual.isVar()) {
      InterestingPos Pos;
      Pos.Depth = Depth;
      Pos.Var = Inner.TopQual.getVar();
      Pos.DeclaredConst = Pointee.isConst();
      Collect->push_back(Pos);
    }
    Result.Contents =
        Factory.make(Inner.TopQual, Ctors.ref(), {Inner.Contents});
    break;
  }
  case CType::Kind::Record:
    Result.Contents =
        Factory.make(QualExpr::makeVar(Sys.freshVar()),
                     Ctors.record(cast<RecordType>(Ty)->getDecl()));
    break;
  case CType::Kind::Function: {
    const auto *FT = cast<FunctionType>(Ty);
    // Function types nested inside other types (function pointers): build
    // the interface shape; interesting-position collection does not descend
    // into them (only direct parameters/results are counted, Section 4.4).
    const unsigned NumParams = FT->getParams().size();
    QualType *Args = Factory.allocateArgs(NumParams + 1);
    for (unsigned I = 0; I != NumParams; ++I)
      Args[I] =
          lprime(FT->getParams()[I], Loc, /*Collect=*/nullptr, 0).Contents;
    Args[NumParams] =
        lprime(FT->getReturn(), Loc, /*Collect=*/nullptr, 0).Contents;
    Result.Contents = Factory.adopt(QualExpr::makeVar(Sys.freshVar()),
                                    Ctors.fn(NumParams), Args);
    break;
  }
  }
  return Result;
}

void RefTranslator::markShared(QualVarId First) {
  SharedStorage.resize(Sys.getNumVars(), false);
  std::fill(SharedStorage.begin() + First, SharedStorage.end(), true);
}

QualType RefTranslator::lvalueType(CQualType T, SourceLoc Loc, bool Shared) {
  QualVarId First = Sys.getNumVars();
  LPair LP = lprime(T, Loc, /*Collect=*/nullptr, 0);
  if (Shared)
    markShared(First);
  return Factory.make(LP.TopQual, Ctors.ref(), {LP.Contents});
}

QualType RefTranslator::varLValueType(const VarDecl *VD) {
  QualType &Memo = VarTypes.slot(VD->getId());
  if (Memo.isNull()) {
    StorageClass SC = VD->getStorageClass();
    Memo = lvalueType(VD->getType(), VD->getLoc(),
                      VD->isGlobal() || SC == StorageClass::Static ||
                          SC == StorageClass::Extern);
  }
  return Memo;
}

QualType RefTranslator::fieldLValueType(const FieldDecl *FD) {
  if (!FieldTypes.lookup(FD->getId()).isNull())
    return FieldTypes.lookup(FD->getId());
  // Section 4.2: all variables with the same struct type share the field
  // declaration, so field qualifiers are shared (memoized). The ablation
  // mode skips the memoization, giving each access fresh (unsound)
  // qualifiers.
  QualType T = lvalueType(FD->getType(), FD->getLoc(), StructFieldsShared);
  if (StructFieldsShared)
    FieldTypes.slot(FD->getId()) = T;
  return T;
}

QualType RefTranslator::functionInterfaceType(const FunctionDecl *FD) {
  if (!FnTypes.lookup(FD->getId()).isNull())
    return FnTypes.lookup(FD->getId());

  const FunctionType *FT = FD->getType();
  const QualifierSet &QS = Sys.getQualifierSet();
  bool Defined = FD->isDefined();
  QualVarId First = Sys.getNumVars();
  const unsigned NumParams = FT->getParams().size();
  QualType *Args = Factory.allocateArgs(NumParams + 1);
  // A defined function's positions go straight to Interesting; nothing
  // else appends to it while the interface is built.
  std::vector<InterestingPos> &Collect = Defined ? Interesting : Positions;
  // Built on the first library pin this interface adds.
  std::string LibraryReasonText;
  InternedReason LibraryReason;

  const auto &Params = FD->getParams();
  for (unsigned I = 0; I != NumParams; ++I) {
    size_t FirstPos = Collect.size();
    LPair LP = lprime(FT->getParams()[I],
                      I < Params.size() ? Params[I]->getLoc() : FD->getLoc(),
                      &Collect, 0);
    for (size_t K = FirstPos; K != Collect.size(); ++K) {
      InterestingPos &Pos = Collect[K];
      Pos.Fn = FD;
      Pos.ParamIndex = static_cast<int>(I);
      if (Defined || !ConservativeLibraries || Pos.DeclaredConst)
        continue;
      // Section 4.2: parameters of undefined (library) functions not
      // declared const are treated as non-const. In summary mode the pin is
      // deferred: another TU may define this function, in which case
      // whole-program inference would never pin it.
      if (DeferLibraryPins) {
        Deferred.push_back({FD, Pos.Var, FD->getLoc(), /*IsEscape=*/false});
        continue;
      }
      if (LibraryReasonText.empty()) {
        LibraryReasonText = "library function '" + std::string(FD->getName()) +
                            "' parameter not declared const";
        LibraryReason = InternedReason(LibraryReasonText);
      }
      Sys.addLeq(QualExpr::makeVar(Pos.Var),
                 QualExpr::makeConst(QS.notQual(ConstQual)),
                 ConstraintOrigin(FD->getLoc(), LibraryReason));
    }
    if (!Defined)
      Positions.clear();
    // The parameter *variable* shares the interface r-type as its cell
    // contents, so writes through the pointer inside the body constrain the
    // interface.
    if (Defined && I < Params.size() &&
        VarTypes.lookup(Params[I]->getId()).isNull())
      VarTypes.slot(Params[I]->getId()) =
          Factory.make(LP.TopQual, Ctors.ref(), {LP.Contents});
    Args[I] = LP.Contents;
  }

  size_t FirstPos = Collect.size();
  LPair Ret = lprime(FT->getReturn(), FD->getLoc(), &Collect, 0);
  for (size_t K = FirstPos; K != Collect.size(); ++K) {
    Collect[K].Fn = FD;
    Collect[K].ParamIndex = -1;
  }
  if (!Defined)
    Positions.clear();
  Args[NumParams] = Ret.Contents;

  QualType T = Factory.adopt(QualExpr::makeVar(Sys.freshVar()),
                             Ctors.fn(NumParams), Args);
  FnTypes.slot(FD->getId()) = T;
  // A library interface is translated inside the body that first uses it,
  // but it belongs to every caller, like a global.
  if (!Defined)
    markShared(First);
  return T;
}

QualType RefTranslator::freshRValueType(CQualType T, SourceLoc Loc) {
  return lprime(T, Loc, /*Collect=*/nullptr, 0).Contents;
}

void RefTranslator::forceNonConstRefs(QualType T,
                                      const ConstraintOrigin &Origin) {
  const QualifierSet &QS = Sys.getQualifierSet();
  T.visit([&](QualType Node) {
    if (Node.getCtor() == Ctors.ref() && Node.getQual().isVar())
      Sys.addLeq(Node.getQual(), QualExpr::makeConst(QS.notQual(ConstQual)),
                 Origin);
  });
}

void RefTranslator::deferEscapePins(const FunctionDecl *Callee, QualType T,
                                    SourceLoc Loc) {
  T.visit([&](QualType Node) {
    if (Node.getCtor() == Ctors.ref() && Node.getQual().isVar())
      Deferred.push_back(
          {Callee, Node.getQual().getVar(), Loc, /*IsEscape=*/true});
  });
}
