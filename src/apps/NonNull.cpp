//===- apps/NonNull.cpp - lclint-style nonnull checking for C ---------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//

#include "apps/NonNull.h"

using namespace quals;
using namespace quals::apps;
using namespace quals::cfront;

NonNullChecker::NonNullChecker() : Sys(QS) {
  // The ConstraintSystem only binds a reference to the qualifier set, so
  // registering the qualifier after construction is safe.
  NonNull = QS.add("nonnull", Polarity::Negative);
}

QualVarId NonNullChecker::varFor(const VarDecl *VD) {
  auto It = PtrVars.find(VD);
  if (It != PtrVars.end())
    return It->second;
  QualVarId V = Sys.freshVar();
  PtrVars.emplace(VD, V);
  return V;
}

const VarDecl *NonNullChecker::pointerVarOf(const CExpr *E) {
  const auto *Ref = dyn_cast<CDeclRef>(E);
  if (!Ref)
    return nullptr;
  const auto *VD = dyn_cast_or_null<VarDecl>(Ref->getDecl());
  if (!VD)
    return nullptr;
  if (VD->getType().isNull() ||
      !isa<PointerType>(VD->getType().getType()))
    return nullptr;
  return VD;
}

bool NonNullChecker::isNullConstant(const CExpr *E) {
  if (const auto *I = dyn_cast<CIntLit>(E))
    return I->getValue() == 0;
  if (const auto *C = dyn_cast<CCast>(E))
    return isNullConstant(C->getOperand());
  return false;
}

void NonNullChecker::recordFlow(const CExpr *Target, const CExpr *Value,
                                SourceLoc Loc) {
  const VarDecl *TargetVar = pointerVarOf(Target);
  if (!TargetVar)
    return;
  QualVarId T = varFor(TargetVar);
  if (isNullConstant(Value)) {
    // May-be-null: the *absence* of the negative qualifier nonnull, i.e.
    // the top of its component lattice.
    Sys.addLeq(QualExpr::makeConst(QS.withoutQual(QS.bottom(), NonNull)),
               QualExpr::makeVar(T),
               ConstraintOrigin(Loc, "null assigned to '" +
                                         std::string(TargetVar->getName()) +
                                         "'"));
    return;
  }
  if (const VarDecl *SourceVar = pointerVarOf(Value)) {
    Sys.addLeq(QualExpr::makeVar(varFor(SourceVar)), QualExpr::makeVar(T),
               ConstraintOrigin(Loc, "'" + std::string(SourceVar->getName()) +
                                         "' flows into '" +
                                         std::string(TargetVar->getName()) +
                                         "'"));
  }
  // Address-of and function results: assumed non-null (bottom); nothing to
  // add.
}

void NonNullChecker::walkExpr(const CExpr *E) {
  if (!E)
    return;
  switch (E->getKind()) {
  case CExpr::Kind::Unary: {
    const auto *U = cast<CUnary>(E);
    if (U->getOp() == UnaryOp::Deref)
      if (const VarDecl *VD = pointerVarOf(U->getOperand()))
        Derefs.push_back({VD, E->getLoc()});
    walkExpr(U->getOperand());
    return;
  }
  case CExpr::Kind::Binary: {
    const auto *B = cast<CBinary>(E);
    if (B->getOp() == BinaryOp::Assign)
      recordFlow(B->getLhs(), B->getRhs(), E->getLoc());
    walkExpr(B->getLhs());
    walkExpr(B->getRhs());
    return;
  }
  case CExpr::Kind::Member: {
    const auto *M = cast<CMember>(E);
    if (M->isArrow())
      if (const VarDecl *VD = pointerVarOf(M->getBase()))
        Derefs.push_back({VD, E->getLoc()});
    walkExpr(M->getBase());
    return;
  }
  case CExpr::Kind::Subscript: {
    const auto *S = cast<CSubscript>(E);
    if (const VarDecl *VD = pointerVarOf(S->getBase()))
      Derefs.push_back({VD, E->getLoc()});
    walkExpr(S->getBase());
    walkExpr(S->getIndex());
    return;
  }
  case CExpr::Kind::Conditional: {
    const auto *C = cast<CConditional>(E);
    walkExpr(C->getCond());
    walkExpr(C->getThen());
    walkExpr(C->getElse());
    return;
  }
  case CExpr::Kind::Call: {
    const auto *C = cast<CCall>(E);
    walkExpr(C->getCallee());
    for (const CExpr *A : C->getArgs())
      walkExpr(A);
    return;
  }
  case CExpr::Kind::Cast:
    walkExpr(cast<CCast>(E)->getOperand());
    return;
  case CExpr::Kind::Comma: {
    const auto *C = cast<CComma>(E);
    walkExpr(C->getLhs());
    walkExpr(C->getRhs());
    return;
  }
  case CExpr::Kind::SizeOf:
    walkExpr(cast<CSizeOf>(E)->getArgExpr());
    return;
  case CExpr::Kind::InitList:
    for (const CExpr *I : cast<CInitList>(E)->getInits())
      walkExpr(I);
    return;
  default:
    return;
  }
}

void NonNullChecker::walkStmt(const CStmt *S) {
  if (!S)
    return;
  switch (S->getKind()) {
  case CStmt::Kind::Compound:
    for (const CStmt *Sub : cast<CCompoundStmt>(S)->getBody())
      walkStmt(Sub);
    return;
  case CStmt::Kind::Expr:
    walkExpr(cast<CExprStmt>(S)->getExpr());
    return;
  case CStmt::Kind::Decl:
    for (const VarDecl *V : cast<CDeclStmt>(S)->getDecls()) {
      if (!V->getInit())
        continue;
      walkExpr(V->getInit());
      if (!V->getType().isNull() &&
          isa<PointerType>(V->getType().getType())) {
        if (isNullConstant(V->getInit()))
          Sys.addLeq(
              QualExpr::makeConst(QS.withoutQual(QS.bottom(), NonNull)),
              QualExpr::makeVar(varFor(V)),
              ConstraintOrigin(V->getLoc(),
                               "'" + std::string(V->getName()) +
                                   "' initialized to null"));
        else if (const VarDecl *Src = pointerVarOf(V->getInit()))
          Sys.addLeq(QualExpr::makeVar(varFor(Src)),
                     QualExpr::makeVar(varFor(V)),
                     ConstraintOrigin(V->getLoc(), "initializer flow"));
      }
    }
    return;
  case CStmt::Kind::If: {
    const auto *I = cast<CIfStmt>(S);
    walkExpr(I->getCond());
    walkStmt(I->getThen());
    walkStmt(I->getElse());
    return;
  }
  case CStmt::Kind::While: {
    const auto *W = cast<CWhileStmt>(S);
    walkExpr(W->getCond());
    walkStmt(W->getBody());
    return;
  }
  case CStmt::Kind::DoWhile: {
    const auto *W = cast<CDoWhileStmt>(S);
    walkStmt(W->getBody());
    walkExpr(W->getCond());
    return;
  }
  case CStmt::Kind::For: {
    const auto *F = cast<CForStmt>(S);
    walkStmt(F->getInit());
    walkExpr(F->getCond());
    walkExpr(F->getStep());
    walkStmt(F->getBody());
    return;
  }
  case CStmt::Kind::Return:
    walkExpr(cast<CReturnStmt>(S)->getValue());
    return;
  case CStmt::Kind::Switch: {
    const auto *Sw = cast<CSwitchStmt>(S);
    walkExpr(Sw->getCond());
    walkStmt(Sw->getBody());
    return;
  }
  case CStmt::Kind::Case: {
    const auto *C = cast<CCaseStmt>(S);
    walkExpr(C->getValue());
    walkStmt(C->getSub());
    return;
  }
  case CStmt::Kind::Default:
    walkStmt(cast<CDefaultStmt>(S)->getSub());
    return;
  case CStmt::Kind::Label:
    walkStmt(cast<CLabelStmt>(S)->getSub());
    return;
  default:
    return;
  }
}

bool NonNullChecker::analyze(const TranslationUnit &TU) {
  Warnings.clear();
  Derefs.clear();

  for (const VarDecl *G : TU.Globals)
    if (G->getInit() && !G->getType().isNull() &&
        isa<PointerType>(G->getType().getType())) {
      if (isNullConstant(G->getInit()))
        Sys.addLeq(QualExpr::makeConst(QS.withoutQual(QS.bottom(), NonNull)),
                   QualExpr::makeVar(varFor(G)),
                   ConstraintOrigin(G->getLoc(), "global initialized null"));
    }

  for (const FunctionDecl *F : TU.Functions)
    if (F->isDefined())
      walkStmt(F->getBody());

  Sys.solve();
  for (const DerefSite &D : Derefs) {
    auto It = PtrVars.find(D.Var);
    if (It == PtrVars.end())
      continue;
    // A negative qualifier is "maybe absent" when the least solution
    // already carries its absence bit.
    if (!Sys.mustHave(It->second, NonNull) &&
        (Sys.lower(It->second).bits() & QS.bitFor(NonNull))) {
      Warnings.push_back(
          {D.Loc, "'" + std::string(D.Var->getName()) +
                      "' may be null when dereferenced"});
    }
  }
  return Warnings.empty();
}

bool NonNullChecker::mayBeNull(const VarDecl *VD) {
  auto It = PtrVars.find(VD);
  if (It == PtrVars.end())
    return false;
  Sys.solve();
  return (Sys.lower(It->second).bits() & QS.bitFor(NonNull)) != 0;
}
