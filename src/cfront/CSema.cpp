//===- cfront/CSema.cpp - C semantic analysis -------------------------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//

#include "cfront/CSema.h"

#include "support/Metrics.h"

using namespace quals;
using namespace quals::cfront;

void CSema::error(SourceLoc Loc, const std::string &Message) {
  Diags.error(Loc, Message);
  HadError = true;
}

void CSema::declare(const CDecl *D) {
  if (!D->getSymbol().empty())
    Bindings.push_back({D->getSymbol(), D});
}

const CDecl *CSema::lookup(Symbol Name) {
  // Innermost first, so a later declaration shadows an earlier one.
  for (auto It = Bindings.rbegin(); It != Bindings.rend(); ++It)
    if (It->Name == Name)
      return It->Decl;
  // File scope: the unit's own tables. A function wins over a global of the
  // same name.
  auto [Memo, New] = FileScope.try_emplace(Name, nullptr);
  if (New) {
    if (auto F = TU->FunctionMap.find(Name); F != TU->FunctionMap.end())
      Memo->second = F->second;
    else if (auto G = TU->GlobalMap.find(Name); G != TU->GlobalMap.end())
      Memo->second = G->second;
  }
  return Memo->second;
}

CQualType CSema::decayed(CQualType T) {
  if (T.isNull())
    return T;
  if (const auto *AT = dyn_cast<ArrayType>(T.getType()))
    return CQualType(Types.getPointer(AT->getElement()));
  if (isa<FunctionType>(T.getType()))
    return CQualType(Types.getPointer(CQualType(T.getType())));
  return T;
}

bool CSema::analyze(TranslationUnit &Unit) {
  PhaseScope Phase("sema", "cfront");
  TU = &Unit;
  Bindings.clear();
  FileScope.clear();

  // The file scope is the unit's FunctionMap and GlobalMap, complete before
  // sema starts (whole-program analysis merges files, so
  // use-before-declaration across buffers is tolerated).

  // Type global initializers.
  for (VarDecl *G : Unit.Globals) {
    if (Diags.shouldBail())
      break;
    if (const CExpr *Init = G->getInit())
      checkExpr(Init);
  }

  // By index: implicit declarations (resolveCallee) append to Functions
  // while bodies are analyzed. They have no body, so they need no visit.
  for (size_t I = 0, E = Unit.Functions.size(); I != E; ++I) {
    FunctionDecl *F = Unit.Functions[I];
    // Stop cleanly once the error cap or a resource budget fired; the
    // recoverable `fatal:` diagnostic is already in the engine.
    if (Diags.shouldBail() || !Diags.checkResources(F->getLoc()))
      break;
    if (F->isDefined())
      analyzeFunction(F);
  }

  return !HadError && !Diags.shouldBail();
}

void CSema::analyzeFunction(FunctionDecl *FD) {
  CurrentFunction = FD;
  size_t Mark = enterScope();
  for (VarDecl *P : FD->getParams())
    declare(P);
  analyzeStmt(FD->getBody());
  exitScope(Mark);
  FD->setUses(Ast.list(Uses));
  Uses.clear();
  CurrentFunction = nullptr;
}

void CSema::analyzeStmt(const CStmt *S) {
  switch (S->getKind()) {
  case CStmt::Kind::Compound: {
    size_t Mark = enterScope();
    for (const CStmt *Sub : cast<CCompoundStmt>(S)->getBody())
      analyzeStmt(Sub);
    exitScope(Mark);
    return;
  }
  case CStmt::Kind::Expr:
    checkExpr(cast<CExprStmt>(S)->getExpr());
    return;
  case CStmt::Kind::Decl: {
    for (VarDecl *V : cast<CDeclStmt>(S)->getDecls()) {
      declare(V);
      if (const CExpr *Init = V->getInit())
        checkExpr(Init);
    }
    return;
  }
  case CStmt::Kind::If: {
    const auto *I = cast<CIfStmt>(S);
    checkExpr(I->getCond());
    analyzeStmt(I->getThen());
    if (I->getElse())
      analyzeStmt(I->getElse());
    return;
  }
  case CStmt::Kind::While: {
    const auto *W = cast<CWhileStmt>(S);
    checkExpr(W->getCond());
    analyzeStmt(W->getBody());
    return;
  }
  case CStmt::Kind::DoWhile: {
    const auto *W = cast<CDoWhileStmt>(S);
    analyzeStmt(W->getBody());
    checkExpr(W->getCond());
    return;
  }
  case CStmt::Kind::For: {
    const auto *F = cast<CForStmt>(S);
    size_t Mark = enterScope();
    if (F->getInit())
      analyzeStmt(F->getInit());
    if (F->getCond())
      checkExpr(F->getCond());
    if (F->getStep())
      checkExpr(F->getStep());
    analyzeStmt(F->getBody());
    exitScope(Mark);
    return;
  }
  case CStmt::Kind::Return: {
    const auto *R = cast<CReturnStmt>(S);
    if (R->getValue())
      checkExpr(R->getValue());
    return;
  }
  case CStmt::Kind::Switch: {
    const auto *Sw = cast<CSwitchStmt>(S);
    checkExpr(Sw->getCond());
    analyzeStmt(Sw->getBody());
    return;
  }
  case CStmt::Kind::Case: {
    const auto *C = cast<CCaseStmt>(S);
    checkExpr(C->getValue());
    analyzeStmt(C->getSub());
    return;
  }
  case CStmt::Kind::Default:
    analyzeStmt(cast<CDefaultStmt>(S)->getSub());
    return;
  case CStmt::Kind::Label:
    analyzeStmt(cast<CLabelStmt>(S)->getSub());
    return;
  case CStmt::Kind::Break:
  case CStmt::Kind::Continue:
  case CStmt::Kind::Null:
  case CStmt::Kind::Goto:
    return;
  }
}

const FunctionDecl *CSema::resolveCallee(const CExpr *Callee) {
  const auto *Ref = dyn_cast<CDeclRef>(Callee);
  if (!Ref)
    return nullptr; // Indirect call through a function pointer.
  const CDecl *D = lookup(Ref->getSymbol());
  if (D) {
    Ref->setDecl(D);
    const auto *FD = dyn_cast<FunctionDecl>(D);
    if (FD)
      noteUse(FD);
    return FD;
  }
  // Implicit declaration: "int name()" with unknown parameters. Section
  // 4.2's conservative library-function treatment kicks in downstream.
  const FunctionType *FT = Types.getFunction(
      CQualType(Types.getInt()), {}, /*Variadic=*/true, /*NoPrototype=*/true);
  auto *FD = Ast.create<FunctionDecl>(Ref->getSymbol(), FT,
                                      std::span<VarDecl *const>(),
                                      StorageClass::Extern, Callee->getLoc());
  FD->setImplicit(true);
  TU->FunctionMap.emplace(Ref->getName(), FD);
  FileScope[Ref->getSymbol()] = FD;
  FD->setFunctionIndex(TU->Functions.size());
  TU->Functions.push_back(FD);
  Ref->setDecl(FD);
  noteUse(FD);
  return FD;
}

CQualType CSema::checkExpr(const CExpr *E) {
  CQualType Result;
  bool LValue = false;

  switch (E->getKind()) {
  case CExpr::Kind::IntLit:
    Result = CQualType(Types.getInt());
    break;
  case CExpr::Kind::FloatLit:
    Result = CQualType(Types.getDouble());
    break;
  case CExpr::Kind::StringLit:
    // char[N]; we give the decayed char * directly (C89 string literals are
    // writable in principle; the analysis treats them as plain char).
    Result = CQualType(Types.getPointer(CQualType(Types.getChar())));
    break;
  case CExpr::Kind::DeclRef: {
    const auto *Ref = cast<CDeclRef>(E);
    const CDecl *D = lookup(Ref->getSymbol());
    if (!D) {
      auto It = TU->EnumConstants.find(Ref->getName());
      if (It != TU->EnumConstants.end()) {
        Result = CQualType(Types.getInt());
        break;
      }
      error(E->getLoc(),
            "use of undeclared identifier '" + std::string(Ref->getName()) +
                "'");
      Result = CQualType(Types.getInt());
      break;
    }
    Ref->setDecl(D);
    if (const auto *V = dyn_cast<VarDecl>(D)) {
      Result = V->getType();
      LValue = true;
    } else if (const auto *F = dyn_cast<FunctionDecl>(D)) {
      Result = CQualType(F->getType());
      noteUse(F);
    } else {
      Result = CQualType(Types.getInt());
    }
    break;
  }
  case CExpr::Kind::Unary: {
    const auto *U = cast<CUnary>(E);
    CQualType Op = checkExpr(U->getOperand());
    switch (U->getOp()) {
    case UnaryOp::Deref: {
      CQualType D = decayed(Op);
      if (const auto *PT = dyn_cast_or_null<PointerType>(
              D.isNull() ? nullptr : D.getType())) {
        Result = PT->getPointee();
        LValue = true;
      } else {
        error(E->getLoc(), "cannot dereference non-pointer type '" +
                               toString(Op) + "'");
        Result = CQualType(Types.getInt());
      }
      break;
    }
    case UnaryOp::AddrOf:
      if (!U->getOperand()->isLValue() &&
          !isa<FunctionType>(Op.isNull() ? Types.getInt() : Op.getType()))
        error(E->getLoc(), "cannot take the address of an rvalue");
      Result = CQualType(Types.getPointer(Op));
      break;
    case UnaryOp::Not:
      Result = CQualType(Types.getInt());
      break;
    case UnaryOp::Plus:
    case UnaryOp::Minus:
    case UnaryOp::BitNot:
      Result = decayed(Op);
      break;
    case UnaryOp::PreInc:
    case UnaryOp::PreDec:
    case UnaryOp::PostInc:
    case UnaryOp::PostDec:
      if (!U->getOperand()->isLValue())
        error(E->getLoc(), "increment/decrement needs an l-value");
      Result = decayed(Op);
      break;
    }
    break;
  }
  case CExpr::Kind::Binary: {
    const auto *B = cast<CBinary>(E);
    CQualType L = checkExpr(B->getLhs());
    CQualType R = checkExpr(B->getRhs());
    if (isAssignmentOp(B->getOp())) {
      if (!B->getLhs()->isLValue())
        error(E->getLoc(), "assignment needs an l-value on the left");
      Result = L.withoutConst();
      break;
    }
    switch (B->getOp()) {
    case BinaryOp::LAnd: case BinaryOp::LOr:
    case BinaryOp::Lt: case BinaryOp::Gt: case BinaryOp::Le:
    case BinaryOp::Ge: case BinaryOp::Eq: case BinaryOp::Ne:
      Result = CQualType(Types.getInt());
      break;
    case BinaryOp::Add:
    case BinaryOp::Sub: {
      CQualType DL = decayed(L), DR = decayed(R);
      bool PL = !DL.isNull() && isa<PointerType>(DL.getType());
      bool PR = !DR.isNull() && isa<PointerType>(DR.getType());
      if (PL && PR)
        Result = CQualType(Types.getBuiltin(BuiltinType::Id::Long)); // ptrdiff
      else if (PL)
        Result = DL;
      else if (PR)
        Result = DR;
      else
        Result = DL;
      break;
    }
    default: {
      CQualType DL = decayed(L);
      Result = DL.isNull() ? CQualType(Types.getInt()) : DL;
      break;
    }
    }
    break;
  }
  case CExpr::Kind::Conditional: {
    const auto *C = cast<CConditional>(E);
    checkExpr(C->getCond());
    CQualType T = checkExpr(C->getThen());
    checkExpr(C->getElse());
    Result = decayed(T);
    break;
  }
  case CExpr::Kind::Call: {
    const auto *Call = cast<CCall>(E);
    const FunctionDecl *FD = resolveCallee(Call->getCallee());
    const FunctionType *FT = nullptr;
    if (FD) {
      FT = FD->getType();
      Call->getCallee()->setType(CQualType(FT));
    } else {
      CQualType CalleeTy = decayed(checkExpr(Call->getCallee()));
      if (!CalleeTy.isNull()) {
        if (const auto *PT = dyn_cast<PointerType>(CalleeTy.getType()))
          FT = dyn_cast<FunctionType>(PT->getPointee().getType());
        else
          FT = dyn_cast<FunctionType>(CalleeTy.getType());
      }
      if (!FT)
        error(E->getLoc(), "called object is not a function");
    }
    for (const CExpr *Arg : Call->getArgs())
      checkExpr(Arg);
    Result = FT ? FT->getReturn() : CQualType(Types.getInt());
    break;
  }
  case CExpr::Kind::Member: {
    const auto *M = cast<CMember>(E);
    CQualType Base = checkExpr(M->getBase());
    const RecordType *RT = nullptr;
    if (M->isArrow()) {
      CQualType D = decayed(Base);
      if (const auto *PT = dyn_cast_or_null<PointerType>(
              D.isNull() ? nullptr : D.getType()))
        RT = dyn_cast<RecordType>(PT->getPointee().getType());
    } else if (!Base.isNull()) {
      RT = dyn_cast<RecordType>(Base.getType());
    }
    if (!RT) {
      error(E->getLoc(), "member access on non-struct type");
      Result = CQualType(Types.getInt());
      break;
    }
    FieldDecl *F = RT->getDecl()->findField(M->getFieldName());
    if (!F) {
      error(E->getLoc(), "no field named '" +
                             std::string(M->getFieldName()) + "' in '" +
                             std::string(RT->getDecl()->getName()) + "'");
      Result = CQualType(Types.getInt());
      break;
    }
    M->setField(F);
    Result = F->getType();
    LValue = true;
    break;
  }
  case CExpr::Kind::Subscript: {
    const auto *S = cast<CSubscript>(E);
    CQualType Base = decayed(checkExpr(S->getBase()));
    checkExpr(S->getIndex());
    if (const auto *PT = dyn_cast_or_null<PointerType>(
            Base.isNull() ? nullptr : Base.getType())) {
      Result = PT->getPointee();
      LValue = true;
    } else {
      // Also allow int[ptr] (C's commutative subscripting) -- rare; treat
      // as an error in the subset.
      error(E->getLoc(), "subscript of non-pointer type");
      Result = CQualType(Types.getInt());
    }
    break;
  }
  case CExpr::Kind::Cast: {
    const auto *C = cast<CCast>(E);
    checkExpr(C->getOperand());
    Result = C->getTargetType();
    break;
  }
  case CExpr::Kind::SizeOf: {
    const auto *S = cast<CSizeOf>(E);
    if (S->getArgExpr())
      checkExpr(S->getArgExpr());
    Result = CQualType(Types.getBuiltin(BuiltinType::Id::ULong));
    break;
  }
  case CExpr::Kind::Comma: {
    const auto *C = cast<CComma>(E);
    checkExpr(C->getLhs());
    Result = checkExpr(C->getRhs());
    break;
  }
  case CExpr::Kind::InitList: {
    for (const CExpr *I : cast<CInitList>(E)->getInits())
      checkExpr(I);
    Result = CQualType(Types.getInt());
    break;
  }
  }

  E->setType(Result);
  E->setLValue(LValue);
  return Result;
}
