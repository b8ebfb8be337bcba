//===- constinf/Fdg.cpp - Function dependence graph -------------------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//

#include "constinf/Fdg.h"

#include "support/Metrics.h"

using namespace quals;
using namespace quals::constinf;
using namespace quals::cfront;

namespace {

/// Collects every FunctionDecl referenced from an expression tree.
void collectExpr(const CExpr *E,
                 std::vector<const FunctionDecl *> &Out) {
  if (!E)
    return;
  switch (E->getKind()) {
  case CExpr::Kind::DeclRef:
    if (const auto *FD =
            dyn_cast_or_null<FunctionDecl>(cast<CDeclRef>(E)->getDecl()))
      Out.push_back(FD);
    return;
  case CExpr::Kind::Unary:
    collectExpr(cast<CUnary>(E)->getOperand(), Out);
    return;
  case CExpr::Kind::Binary: {
    const auto *B = cast<CBinary>(E);
    collectExpr(B->getLhs(), Out);
    collectExpr(B->getRhs(), Out);
    return;
  }
  case CExpr::Kind::Conditional: {
    const auto *C = cast<CConditional>(E);
    collectExpr(C->getCond(), Out);
    collectExpr(C->getThen(), Out);
    collectExpr(C->getElse(), Out);
    return;
  }
  case CExpr::Kind::Call: {
    const auto *C = cast<CCall>(E);
    collectExpr(C->getCallee(), Out);
    for (const CExpr *A : C->getArgs())
      collectExpr(A, Out);
    return;
  }
  case CExpr::Kind::Member:
    collectExpr(cast<CMember>(E)->getBase(), Out);
    return;
  case CExpr::Kind::Subscript: {
    const auto *S = cast<CSubscript>(E);
    collectExpr(S->getBase(), Out);
    collectExpr(S->getIndex(), Out);
    return;
  }
  case CExpr::Kind::Cast:
    collectExpr(cast<CCast>(E)->getOperand(), Out);
    return;
  case CExpr::Kind::SizeOf:
    collectExpr(cast<CSizeOf>(E)->getArgExpr(), Out);
    return;
  case CExpr::Kind::Comma: {
    const auto *C = cast<CComma>(E);
    collectExpr(C->getLhs(), Out);
    collectExpr(C->getRhs(), Out);
    return;
  }
  case CExpr::Kind::InitList:
    for (const CExpr *I : cast<CInitList>(E)->getInits())
      collectExpr(I, Out);
    return;
  case CExpr::Kind::IntLit:
  case CExpr::Kind::FloatLit:
  case CExpr::Kind::StringLit:
    return;
  }
}

void collectStmt(const CStmt *S, std::vector<const FunctionDecl *> &Out) {
  if (!S)
    return;
  switch (S->getKind()) {
  case CStmt::Kind::Compound:
    for (const CStmt *Sub : cast<CCompoundStmt>(S)->getBody())
      collectStmt(Sub, Out);
    return;
  case CStmt::Kind::Expr:
    collectExpr(cast<CExprStmt>(S)->getExpr(), Out);
    return;
  case CStmt::Kind::Decl:
    for (const VarDecl *V : cast<CDeclStmt>(S)->getDecls())
      collectExpr(V->getInit(), Out);
    return;
  case CStmt::Kind::If: {
    const auto *I = cast<CIfStmt>(S);
    collectExpr(I->getCond(), Out);
    collectStmt(I->getThen(), Out);
    collectStmt(I->getElse(), Out);
    return;
  }
  case CStmt::Kind::While: {
    const auto *W = cast<CWhileStmt>(S);
    collectExpr(W->getCond(), Out);
    collectStmt(W->getBody(), Out);
    return;
  }
  case CStmt::Kind::DoWhile: {
    const auto *W = cast<CDoWhileStmt>(S);
    collectStmt(W->getBody(), Out);
    collectExpr(W->getCond(), Out);
    return;
  }
  case CStmt::Kind::For: {
    const auto *F = cast<CForStmt>(S);
    collectStmt(F->getInit(), Out);
    collectExpr(F->getCond(), Out);
    collectExpr(F->getStep(), Out);
    collectStmt(F->getBody(), Out);
    return;
  }
  case CStmt::Kind::Return:
    collectExpr(cast<CReturnStmt>(S)->getValue(), Out);
    return;
  case CStmt::Kind::Switch: {
    const auto *Sw = cast<CSwitchStmt>(S);
    collectExpr(Sw->getCond(), Out);
    collectStmt(Sw->getBody(), Out);
    return;
  }
  case CStmt::Kind::Case: {
    const auto *C = cast<CCaseStmt>(S);
    collectExpr(C->getValue(), Out);
    collectStmt(C->getSub(), Out);
    return;
  }
  case CStmt::Kind::Default:
    collectStmt(cast<CDefaultStmt>(S)->getSub(), Out);
    return;
  case CStmt::Kind::Label:
    collectStmt(cast<CLabelStmt>(S)->getSub(), Out);
    return;
  case CStmt::Kind::Break:
  case CStmt::Kind::Continue:
  case CStmt::Kind::Null:
  case CStmt::Kind::Goto:
    return;
  }
}

} // namespace

Fdg quals::constinf::buildFdg(const TranslationUnit &TU) {
  PhaseScope Phase("fdg", "constinf");
  Fdg Result;
  Result.NodeOf.assign(TU.numDecls(CDecl::Kind::Function), Fdg::NoNode);
  for (FunctionDecl *F : TU.Functions) {
    Result.NodeOf[F->getId()] = Result.Functions.size();
    Result.Functions.push_back(F);
  }
  Result.Graph = Digraph(Result.Functions.size());
  for (FunctionDecl *F : TU.Functions) {
    if (!F->isDefined())
      continue;
    std::vector<const FunctionDecl *> Refs;
    collectStmt(F->getBody(), Refs);
    unsigned From = Result.NodeOf[F->getId()];
    for (const FunctionDecl *G : Refs)
      if (Result.NodeOf[G->getId()] != Fdg::NoNode)
        Result.Graph.addEdge(From, Result.NodeOf[G->getId()]);
  }
  Result.Sccs = computeSccs(Result.Graph);
  return Result;
}
