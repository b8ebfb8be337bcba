//===- apps/FlowNonNull.cpp - Flow-sensitive nonnull (Section 6) ------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//

#include "apps/FlowNonNull.h"

using namespace quals;
using namespace quals::apps;
using namespace quals::cfront;

FlowNonNullChecker::FlowNonNullChecker() : Sys(QS) {
  NonNull = QS.add("nonnull", Polarity::Negative);
}

QualVarId FlowNonNullChecker::freshVersion(const VarDecl *VD) {
  QualVarId V = Sys.freshVar();
  Current[VD] = V;
  return V;
}

void FlowNonNullChecker::markMaybeNull(QualVarId Version, SourceLoc Loc,
                                       const std::string &Why) {
  // May-be-null = the nonnull qualifier absent = the top of its two-point
  // component (negative qualifier).
  Sys.addLeq(QualExpr::makeConst(QS.withoutQual(QS.bottom(), NonNull)),
             QualExpr::makeVar(Version), ConstraintOrigin(Loc, Why));
}

void FlowNonNullChecker::weakEdge(QualVarId From, QualVarId To,
                                  SourceLoc Loc) {
  Sys.addLeq(QualExpr::makeVar(From), QualExpr::makeVar(To),
             ConstraintOrigin(Loc, "program-point flow"));
}

void FlowNonNullChecker::mergeStates(const State &A, const State &B,
                                     SourceLoc Loc) {
  State Merged;
  for (const auto &Entry : A) {
    auto InB = B.find(Entry.first);
    if (InB == B.end())
      continue; // Out of scope on one side.
    if (InB->second == Entry.second) {
      Merged.emplace(Entry.first, Entry.second);
      continue;
    }
    QualVarId Join = Sys.freshVar();
    weakEdge(Entry.second, Join, Loc);
    weakEdge(InB->second, Join, Loc);
    Merged.emplace(Entry.first, Join);
  }
  Current = std::move(Merged);
}

const VarDecl *FlowNonNullChecker::trackedVarOf(const CExpr *E) const {
  const auto *Ref = dyn_cast<CDeclRef>(E);
  if (!Ref)
    return nullptr;
  const auto *VD = dyn_cast_or_null<VarDecl>(Ref->getDecl());
  if (!VD || VD->isGlobal())
    return nullptr; // Globals stay flow-insensitive across calls.
  if (VD->getType().isNull() || !isa<PointerType>(VD->getType().getType()))
    return nullptr;
  return Current.count(VD) ? VD : nullptr;
}

bool FlowNonNullChecker::isNullConstant(const CExpr *E) {
  if (const auto *I = dyn_cast<CIntLit>(E))
    return I->getValue() == 0;
  if (const auto *C = dyn_cast<CCast>(E))
    return isNullConstant(C->getOperand());
  return false;
}

void FlowNonNullChecker::handleAssign(const CExpr *Target,
                                      const CExpr *Value, SourceLoc Loc) {
  const VarDecl *VD = trackedVarOf(Target);
  if (!VD)
    return;
  // A direct assignment is a *strong update*: the new version gets no
  // constraint from the old one (the Section 6 rule).
  QualVarId OldSource = InvalidQualVar;
  if (const VarDecl *Src = trackedVarOf(Value))
    OldSource = Current[Src];
  QualVarId New = freshVersion(VD);
  if (isNullConstant(Value)) {
    markMaybeNull(New, Loc,
                  "null assigned to '" + std::string(VD->getName()) + "'");
    return;
  }
  if (OldSource != InvalidQualVar)
    weakEdge(OldSource, New, Loc);
  // Address-of / call results: assumed non-null (bottom), nothing to add.
}

void FlowNonNullChecker::walkExpr(const CExpr *E) {
  if (!E)
    return;
  switch (E->getKind()) {
  case CExpr::Kind::Unary: {
    const auto *U = cast<CUnary>(E);
    if (U->getOp() == UnaryOp::Deref)
      if (const VarDecl *VD = trackedVarOf(U->getOperand()))
        Derefs.push_back({VD, Current[VD], E->getLoc()});
    walkExpr(U->getOperand());
    return;
  }
  case CExpr::Kind::Binary: {
    const auto *B = cast<CBinary>(E);
    walkExpr(B->getRhs());
    if (B->getOp() == BinaryOp::Assign) {
      // Right-hand side evaluated above; the store changes the state.
      handleAssign(B->getLhs(), B->getRhs(), E->getLoc());
      if (!trackedVarOf(B->getLhs()))
        walkExpr(B->getLhs());
      return;
    }
    walkExpr(B->getLhs());
    return;
  }
  case CExpr::Kind::Member: {
    const auto *M = cast<CMember>(E);
    if (M->isArrow())
      if (const VarDecl *VD = trackedVarOf(M->getBase()))
        Derefs.push_back({VD, Current[VD], E->getLoc()});
    walkExpr(M->getBase());
    return;
  }
  case CExpr::Kind::Subscript: {
    const auto *S = cast<CSubscript>(E);
    if (const VarDecl *VD = trackedVarOf(S->getBase()))
      Derefs.push_back({VD, Current[VD], E->getLoc()});
    walkExpr(S->getBase());
    walkExpr(S->getIndex());
    return;
  }
  case CExpr::Kind::Conditional: {
    const auto *C = cast<CConditional>(E);
    walkExpr(C->getCond());
    State Before = Current;
    walkExpr(C->getThen());
    State AfterThen = Current;
    Current = Before;
    walkExpr(C->getElse());
    mergeStates(AfterThen, Current, E->getLoc());
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

void FlowNonNullChecker::walkStmt(const CStmt *S) {
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
      if (V->getInit())
        walkExpr(V->getInit());
      if (V->getType().isNull() ||
          !isa<PointerType>(V->getType().getType()))
        continue;
      QualVarId Version = freshVersion(V);
      if (!V->getInit()) {
        markMaybeNull(Version, V->getLoc(),
                      "'" + std::string(V->getName()) +
                          "' declared without initializer");
      } else if (isNullConstant(V->getInit())) {
        markMaybeNull(Version, V->getLoc(),
                      "'" + std::string(V->getName()) +
                          "' initialized to null");
      } else if (const VarDecl *Src = trackedVarOf(V->getInit())) {
        weakEdge(Current[Src], Version, V->getLoc());
      }
    }
    return;
  case CStmt::Kind::If: {
    const auto *I = cast<CIfStmt>(S);
    walkExpr(I->getCond());
    State Before = Current;
    walkStmt(I->getThen());
    State AfterThen = Current;
    Current = Before;
    if (I->getElse())
      walkStmt(I->getElse());
    mergeStates(AfterThen, Current, S->getLoc());
    return;
  }
  case CStmt::Kind::While:
  case CStmt::Kind::DoWhile:
  case CStmt::Kind::For: {
    // Loop: pre-state flows into join versions, the body runs from the
    // joins, and its final state feeds back into them. The post-state is
    // the joins (zero or more iterations).
    const CStmt *Body = nullptr;
    const CExpr *Cond = nullptr;
    const CStmt *Init = nullptr;
    const CExpr *Step = nullptr;
    if (const auto *W = dyn_cast<CWhileStmt>(S)) {
      Body = W->getBody();
      Cond = W->getCond();
    } else if (const auto *W = dyn_cast<CDoWhileStmt>(S)) {
      Body = W->getBody();
      Cond = W->getCond();
    } else {
      const auto *F = cast<CForStmt>(S);
      Init = F->getInit();
      Cond = F->getCond();
      Step = F->getStep();
      Body = F->getBody();
    }
    if (Init)
      walkStmt(Init);
    State Joins;
    for (const auto &Entry : Current) {
      QualVarId Join = Sys.freshVar();
      weakEdge(Entry.second, Join, S->getLoc());
      Joins.emplace(Entry.first, Join);
    }
    Current = Joins;
    if (Cond)
      walkExpr(Cond);
    walkStmt(Body);
    if (Step)
      walkExpr(Step);
    // Back edges from the body's final state.
    for (const auto &Entry : Joins) {
      auto It = Current.find(Entry.first);
      if (It != Current.end() && It->second != Entry.second)
        weakEdge(It->second, Entry.second, S->getLoc());
    }
    Current = std::move(Joins);
    return;
  }
  case CStmt::Kind::Return:
    walkExpr(cast<CReturnStmt>(S)->getValue());
    return;
  case CStmt::Kind::Switch: {
    // Coarse: the body runs weakly (its final state merges with the
    // pre-state, accounting for taken/untaken cases).
    const auto *Sw = cast<CSwitchStmt>(S);
    walkExpr(Sw->getCond());
    State Before = Current;
    walkStmt(Sw->getBody());
    mergeStates(Before, Current, S->getLoc());
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

void FlowNonNullChecker::walkFunction(const FunctionDecl *FD) {
  Current.clear();
  for (const VarDecl *P : FD->getParams()) {
    if (P->getType().isNull() || !isa<PointerType>(P->getType().getType()))
      continue;
    // Parameters are assumed non-null on entry (callers are checked at
    // their own call sites in a richer system; lclint uses annotations).
    freshVersion(P);
  }
  walkStmt(FD->getBody());
}

bool FlowNonNullChecker::analyze(const TranslationUnit &TU) {
  Warnings.clear();
  Derefs.clear();

  for (const FunctionDecl *F : TU.Functions)
    if (F->isDefined())
      walkFunction(F);

  Sys.solve();
  for (const DerefSite &D : Derefs) {
    if (Sys.lower(D.Version).bits() & QS.bitFor(NonNull)) {
      Warnings.push_back(
          {D.Loc, "'" + std::string(D.Var->getName()) +
                      "' may be null when dereferenced here"});
    }
  }
  return Warnings.empty();
}
