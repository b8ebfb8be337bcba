//===- constinf/ConstraintGen.cpp - Qualifier constraints from C ASTs ------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//

#include "constinf/ConstraintGen.h"
#include "qual/Subtype.h"

using namespace quals;
using namespace quals::constinf;
using namespace quals::cfront;

void ConstraintGen::requireNonConstCell(QualType LType, SourceLoc Loc,
                                        InternedReason &Why) {
  if (LType.isNull() || LType.getCtor() != Ctors.ref())
    return;
  Sys.addLeq(LType.getQual(),
             QualExpr::makeConst(Sys.getQualifierSet().notQual(ConstQual)),
             ConstraintOrigin(Loc, Why));
}

QualType ConstraintGen::rvalue(const CExpr *E) {
  QualType T = genExpr(E);
  if (T.isNull())
    return T;
  if (E->isLValue() && T.getCtor() == Ctors.ref())
    return T.getArg(0);
  return T;
}

void ConstraintGen::genFunction(const FunctionDecl *FD, QualType FnTy) {
  unsigned NumParams = FD->getType()->getParams().size();
  assert(FnTy.getNumArgs() == NumParams + 1 && "interface arity mismatch");
  if (FnTy.getNumArgs() != NumParams + 1) {
    // Release-build recovery for the invariant above: skip the function
    // with a diagnostic instead of indexing out of bounds.
    Diags.error(FD->getLoc(), "internal: interface arity mismatch for '" +
                                  std::string(FD->getName()) + "'");
    return;
  }
  CurrentRet = FnTy.getArg(NumParams);
  // Built once per function; interned by the first return that flows.
  ReturnReasonText = "returned value flows into result of '";
  ReturnReasonText += FD->getName();
  ReturnReasonText += '\'';
  ReturnFlow = InternedReason(ReturnReasonText);
  genStmt(FD->getBody());
  CurrentRet = QualType();
}

void ConstraintGen::genGlobalInit(const VarDecl *VD) {
  if (!VD->getInit())
    return;
  QualType Cell = Translator.varLValueType(VD);
  genInitInto(VD->getType(), Cell.getArg(0), VD->getInit());
}

void ConstraintGen::genInitInto(CQualType CellType, QualType CellContents,
                                const CExpr *Init) {
  const auto *IL = dyn_cast<CInitList>(Init);
  if (!IL) {
    QualType V = rvalue(Init);
    decomposeLeq(Sys, V, CellContents,
                 ConstraintOrigin(Init->getLoc(), InitFlow));
    return;
  }
  const CType *Ty = CellType.getType();
  const auto *AT = dyn_cast_or_null<ArrayType>(Ty);
  if (AT && !CellContents.isNull() && CellContents.getCtor() == Ctors.ref()) {
    // Array initializer: every element flows into the shared element cell.
    for (const CExpr *E : IL->getInits())
      genInitInto(AT->getElement(), CellContents.getArg(0), E);
    return;
  }
  // Struct initializer: element I flows into field I's cell, which every
  // instance of the record shares (Section 4.2). Braces around a scalar
  // initialize it with their first element. Other elements are only
  // evaluated.
  std::span<FieldDecl *const> Fields;
  if (const auto *RT = dyn_cast_or_null<RecordType>(Ty))
    Fields = RT->getDecl()->getFields();
  std::span<const CExpr *const> Inits = IL->getInits();
  for (size_t I = 0; I != Inits.size(); ++I) {
    if (I < Fields.size())
      genInitInto(Fields[I]->getType(),
                  Translator.fieldLValueType(Fields[I]).getArg(0), Inits[I]);
    else if (I == 0 && Ty && isScalar(Ty))
      genInitInto(CellType, CellContents, Inits[I]);
    else
      genInitInto(CQualType(), QualType(), Inits[I]);
  }
}

void ConstraintGen::genStmt(const CStmt *S) {
  if (!S)
    return;
  switch (S->getKind()) {
  case CStmt::Kind::Compound:
    for (const CStmt *Sub : cast<CCompoundStmt>(S)->getBody())
      genStmt(Sub);
    return;
  case CStmt::Kind::Expr:
    genExpr(cast<CExprStmt>(S)->getExpr());
    return;
  case CStmt::Kind::Decl:
    for (const VarDecl *V : cast<CDeclStmt>(S)->getDecls()) {
      QualType Cell = Translator.varLValueType(V);
      if (V->getInit())
        genInitInto(V->getType(), Cell.getArg(0), V->getInit());
    }
    return;
  case CStmt::Kind::If: {
    const auto *I = cast<CIfStmt>(S);
    genExpr(I->getCond());
    genStmt(I->getThen());
    genStmt(I->getElse());
    return;
  }
  case CStmt::Kind::While: {
    const auto *W = cast<CWhileStmt>(S);
    genExpr(W->getCond());
    genStmt(W->getBody());
    return;
  }
  case CStmt::Kind::DoWhile: {
    const auto *W = cast<CDoWhileStmt>(S);
    genStmt(W->getBody());
    genExpr(W->getCond());
    return;
  }
  case CStmt::Kind::For: {
    const auto *F = cast<CForStmt>(S);
    genStmt(F->getInit());
    if (F->getCond())
      genExpr(F->getCond());
    if (F->getStep())
      genExpr(F->getStep());
    genStmt(F->getBody());
    return;
  }
  case CStmt::Kind::Return: {
    const auto *R = cast<CReturnStmt>(S);
    if (R->getValue() && !CurrentRet.isNull()) {
      QualType V = rvalue(R->getValue());
      decomposeLeq(Sys, V, CurrentRet,
                   ConstraintOrigin(S->getLoc(), ReturnFlow));
    } else if (R->getValue()) {
      rvalue(R->getValue());
    }
    return;
  }
  case CStmt::Kind::Switch: {
    const auto *Sw = cast<CSwitchStmt>(S);
    genExpr(Sw->getCond());
    genStmt(Sw->getBody());
    return;
  }
  case CStmt::Kind::Case: {
    const auto *C = cast<CCaseStmt>(S);
    genExpr(C->getValue());
    genStmt(C->getSub());
    return;
  }
  case CStmt::Kind::Default:
    genStmt(cast<CDefaultStmt>(S)->getSub());
    return;
  case CStmt::Kind::Label:
    genStmt(cast<CLabelStmt>(S)->getSub());
    return;
  case CStmt::Kind::Break:
  case CStmt::Kind::Continue:
  case CStmt::Kind::Null:
  case CStmt::Kind::Goto:
    return;
  }
}

QualType ConstraintGen::genExpr(const CExpr *E) {
  switch (E->getKind()) {
  case CExpr::Kind::IntLit:
  case CExpr::Kind::FloatLit:
    return freshVal();
  case CExpr::Kind::StringLit: {
    // char *: a pointer to a fresh character cell. The cell's constness is
    // free: "..." can be viewed const or not (C89).
    return freshCell(freshVal());
  }
  case CExpr::Kind::DeclRef: {
    const auto *Ref = cast<CDeclRef>(E);
    const CDecl *D = Ref->getDecl();
    if (const auto *V = dyn_cast_or_null<VarDecl>(D))
      return Translator.varLValueType(V);
    if (const auto *F = dyn_cast_or_null<FunctionDecl>(D)) {
      // A function designator used as a value: a pointer to the function.
      return freshCell(FunctionUse(F, /*DirectCall=*/false));
    }
    return freshVal(); // enum constant
  }
  case CExpr::Kind::Unary: {
    const auto *U = cast<CUnary>(E);
    switch (U->getOp()) {
    case UnaryOp::Deref: {
      QualType P = rvalue(U->getOperand());
      if (!P.isNull() && P.getCtor() == Ctors.ref())
        return P; // The pointee cell *is* the pointer's r-value.
      // Deref of a converted value: fresh cell of the right shape.
      return freshCell(Translator.freshRValueType(E->getType(), E->getLoc()));
    }
    case UnaryOp::AddrOf: {
      QualType T = genExpr(U->getOperand());
      // &lvalue: the cell itself is the pointer r-value. &function is
      // already a pointer from the DeclRef case.
      return T;
    }
    case UnaryOp::PreInc:
    case UnaryOp::PreDec:
    case UnaryOp::PostInc:
    case UnaryOp::PostDec: {
      QualType T = genExpr(U->getOperand());
      if (U->getOperand()->isLValue())
        requireNonConstCell(T, E->getLoc(), IncDecTarget);
      if (!T.isNull() && U->getOperand()->isLValue() &&
          T.getCtor() == Ctors.ref())
        return T.getArg(0);
      return T;
    }
    case UnaryOp::Plus:
    case UnaryOp::Minus:
    case UnaryOp::Not:
    case UnaryOp::BitNot:
      rvalue(U->getOperand());
      return freshVal();
    }
    return freshVal();
  }
  case CExpr::Kind::Binary: {
    const auto *B = cast<CBinary>(E);
    if (B->getOp() == BinaryOp::Assign) {
      QualType L = genExpr(B->getLhs());
      QualType R = rvalue(B->getRhs());
      if (!L.isNull() && L.getCtor() == Ctors.ref()) {
        requireNonConstCell(L, E->getLoc(), AssignTarget);
        decomposeLeq(Sys, R, L.getArg(0),
                     ConstraintOrigin(E->getLoc(), AssignFlow));
        return L.getArg(0);
      }
      return R;
    }
    if (isAssignmentOp(B->getOp())) {
      // Compound assignment: scalar (or pointer-arithmetic) update; the
      // cell keeps its contents type.
      QualType L = genExpr(B->getLhs());
      rvalue(B->getRhs());
      if (!L.isNull() && L.getCtor() == Ctors.ref()) {
        requireNonConstCell(L, E->getLoc(), CompoundTarget);
        return L.getArg(0);
      }
      return L;
    }
    if (B->getOp() == BinaryOp::Add || B->getOp() == BinaryOp::Sub) {
      // Pointer arithmetic preserves the pointed-to cell.
      QualType L = rvalue(B->getLhs());
      QualType R = rvalue(B->getRhs());
      if (!L.isNull() && L.getCtor() == Ctors.ref())
        return L;
      if (!R.isNull() && R.getCtor() == Ctors.ref())
        return R;
      return freshVal();
    }
    rvalue(B->getLhs());
    rvalue(B->getRhs());
    return freshVal();
  }
  case CExpr::Kind::Conditional: {
    const auto *C = cast<CConditional>(E);
    rvalue(C->getCond());
    QualType T = rvalue(C->getThen());
    QualType F = rvalue(C->getElse());
    if (!T.isNull() && !F.isNull() && T.shapeEquals(F)) {
      QualType Join = Factory.spread(Sys, T);
      ConstraintOrigin Origin(E->getLoc(), BranchJoin);
      decomposeLeq(Sys, T, Join, Origin);
      decomposeLeq(Sys, F, Join, Origin);
      return Join;
    }
    // Shape mismatch (e.g. "p ? p : 0"): keep the pointer-ish side.
    if (!T.isNull() && T.getCtor() == Ctors.ref())
      return T;
    if (!F.isNull() && F.getCtor() == Ctors.ref())
      return F;
    return T.isNull() ? F : T;
  }
  case CExpr::Kind::Call: {
    const auto *Call = cast<CCall>(E);
    const FunctionDecl *Callee = nullptr;
    QualType FnTy;
    if (const auto *Ref = dyn_cast<CDeclRef>(Call->getCallee())) {
      Callee = dyn_cast_or_null<FunctionDecl>(Ref->getDecl());
      if (Callee)
        FnTy = FunctionUse(Callee, /*DirectCall=*/true);
    }
    if (FnTy.isNull()) {
      // Indirect call: the callee's r-value should be ref(fn...).
      QualType CT = rvalue(Call->getCallee());
      if (!CT.isNull() && CT.getCtor() == Ctors.ref() &&
          CT.getArg(0).getCtor()->getName().substr(0, 2) == "fn")
        FnTy = CT.getArg(0);
    }
    unsigned NumParams =
        FnTy.isNull() ? 0 : FnTy.getNumArgs() - 1;
    bool CalleeUnknown = !Callee || !Callee->isDefined();
    const auto &Args = Call->getArgs();
    for (unsigned I = 0, N = Args.size(); I != N; ++I) {
      QualType A = rvalue(Args[I]);
      if (!FnTy.isNull() && I < NumParams) {
        decomposeLeq(Sys, A, FnTy.getArg(I),
                     ConstraintOrigin(Args[I]->getLoc(), ArgumentFlow));
      } else if (CalleeUnknown && ConservativeLibraries) {
        // Extra argument to an undefined/variadic function: conservatively
        // non-const at every pointer level (Section 4.2). In summary mode a
        // *named* undefined callee may be defined in another TU (where the
        // extras would simply be ignored), so the pins are deferred to the
        // link step; an indirect call has no symbol to resolve and is
        // pinned immediately in both modes.
        if (Callee && Translator.deferringLibraryPins())
          Translator.deferEscapePins(Callee, A, Args[I]->getLoc());
        else
          Translator.forceNonConstRefs(
              A, ConstraintOrigin(Args[I]->getLoc(), UnknownArgument));
      }
      // Extra arguments to defined functions are simply ignored.
    }
    if (!FnTy.isNull())
      return FnTy.getArg(NumParams);
    return Translator.freshRValueType(E->getType(), E->getLoc());
  }
  case CExpr::Kind::Member: {
    const auto *M = cast<CMember>(E);
    genExpr(M->getBase());
    if (const FieldDecl *F = M->getField())
      return Translator.fieldLValueType(F);
    return freshCell(Translator.freshRValueType(E->getType(), E->getLoc()));
  }
  case CExpr::Kind::Subscript: {
    const auto *S = cast<CSubscript>(E);
    rvalue(S->getIndex());
    QualType Base = rvalue(S->getBase());
    if (!Base.isNull() && Base.getCtor() == Ctors.ref())
      return Base; // All elements share the pointee cell.
    return freshCell(Translator.freshRValueType(E->getType(), E->getLoc()));
  }
  case CExpr::Kind::Cast: {
    const auto *C = cast<CCast>(E);
    QualType Op = rvalue(C->getOperand());
    // Explicit casts lose the association between operand and result
    // (Section 4.2): an all-fresh type from the target. The ablation mode
    // keeps whatever structural flow the shapes allow.
    QualType Result =
        Translator.freshRValueType(C->getTargetType(), E->getLoc());
    if (!CastsSeverFlow)
      decomposeLeq(Sys, Op, Result,
                   ConstraintOrigin(E->getLoc(), CastFlow));
    return Result;
  }
  case CExpr::Kind::SizeOf: {
    const auto *S = cast<CSizeOf>(E);
    if (S->getArgExpr())
      genExpr(S->getArgExpr());
    return freshVal();
  }
  case CExpr::Kind::Comma: {
    const auto *C = cast<CComma>(E);
    genExpr(C->getLhs());
    return rvalue(C->getRhs());
  }
  case CExpr::Kind::InitList:
    for (const CExpr *I : cast<CInitList>(E)->getInits())
      rvalue(I);
    return freshVal();
  }
  return freshVal();
}
