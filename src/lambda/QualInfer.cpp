//===- lambda/QualInfer.cpp - Qualified type inference --------------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//

#include "lambda/QualInfer.h"

#include "qual/WellFormed.h"
#include "support/Metrics.h"

using namespace quals;
using namespace quals::lambda;

QualInferencer::QualInferencer(const QualifierSet &QS, ConstraintSystem &Sys,
                               QualTypeFactory &Factory,
                               const LambdaTypeCtors &Ctors,
                               DiagnosticEngine &Diags,
                               QualInferOptions Options)
    : QS(QS), Sys(Sys), Factory(Factory), Ctors(Ctors), Diags(Diags),
      Options(std::move(Options)) {}

QualType QualInferencer::fail(const Expr *E, const std::string &Message) {
  Diags.error(E->getLoc(), Message);
  return QualType();
}

void QualInferencer::applyWFLevel(QualType T, SourceLoc Loc) {
  for (QualifierId Q : Options.UpwardClosedQuals) {
    uint64_t Mask = QS.bitFor(Q);
    for (unsigned I = 0, E = T.getNumArgs(); I != E; ++I)
      Sys.addLeqMasked(T.getArg(I).getQual(), T.getQual(), Mask,
                       ConstraintOrigin(Loc, "well-formedness: '" +
                                                 QS.get(Q).Name +
                                                 "' is upward closed"));
  }
  for (QualifierId Q : Options.DownwardClosedQuals) {
    uint64_t Mask = QS.bitFor(Q);
    for (unsigned I = 0, E = T.getNumArgs(); I != E; ++I)
      Sys.addLeqMasked(T.getQual(), T.getArg(I).getQual(), Mask,
                       ConstraintOrigin(Loc, "well-formedness: '" +
                                                 QS.get(Q).Name +
                                                 "' is downward closed"));
  }
}

QualType QualInferencer::spreadSTy(STy *T, SourceLoc Loc) {
  // Resolve through unification links; an unconstrained shape variable
  // defaults to int (the program never uses the value's structure).
  STy *R = T;
  while (R->getKind() == STy::Kind::Var && R->Link)
    R = R->Link;

  QualExpr Q = freshQual();
  QualType Result;
  switch (R->getKind()) {
  case STy::Kind::Var:
  case STy::Kind::Int:
    Result = Factory.make(Q, &Ctors.Int);
    break;
  case STy::Kind::Unit:
    Result = Factory.make(Q, &Ctors.Unit);
    break;
  case STy::Kind::Fn: {
    QualType P = spreadSTy(R->Arg0, Loc);
    QualType B = spreadSTy(R->Arg1, Loc);
    Result = Factory.make(Q, &Ctors.Fn, {P, B});
    break;
  }
  case STy::Kind::Ref: {
    QualType C = spreadSTy(R->Arg0, Loc);
    Result = Factory.make(Q, &Ctors.Ref, {C});
    break;
  }
  }
  applyWFLevel(Result, Loc);
  return Result;
}

QualType QualInferencer::infer(const Expr *Program,
                               const StdTypeChecker &ShapeInfo) {
  Shapes = &ShapeInfo;
  NodeTypes.clear();
  LetSchemes.clear();
  Env.clear();
  return inferExpr(Program);
}

QualType QualInferencer::inferExpr(const Expr *E) {
  // Term depth is normally capped by the parser's guard, but hand-built
  // ASTs (tests, future front ends) reach here directly.
  RecursionGuard Guard(Diags, E->getLoc());
  if (!Guard.ok())
    return QualType();
  QualType Result;
  switch (E->getKind()) {
  case Expr::Kind::IntLit: {
    // (Int): A |- n : bottom int. In inference form the literal gets a fresh
    // variable bounded below by bottom (no constraint needed) or by the
    // designer's literal hook.
    const auto *I = cast<IntLitExpr>(E);
    QualExpr Q = freshQual();
    if (Options.IntLiteralQual) {
      LatticeValue L = Options.IntLiteralQual(I->getValue());
      if (L != QS.bottom())
        Sys.addLeq(QualExpr::makeConst(L), Q,
                   ConstraintOrigin(E->getLoc(),
                                    "literal qualifier rule for " +
                                        std::to_string(I->getValue())));
    }
    Result = Factory.make(Q, &Ctors.Int);
    break;
  }
  case Expr::Kind::UnitLit:
    Result = Factory.make(freshQual(), &Ctors.Unit);
    break;
  case Expr::Kind::Var: {
    const auto *V = cast<VarExpr>(E);
    auto It = Env.find(V->getName());
    if (It == Env.end() || It->second.empty())
      return fail(E, "unbound variable '" + std::string(V->getName()) + "'");
    // (Var'): instantiate the scheme with fresh qualifier variables.
    const QualScheme &Scheme = It->second.back();
    Result = Scheme.instantiate(Sys, Factory);
    break;
  }
  case Expr::Kind::Lambda: {
    const auto *L = cast<LambdaExpr>(E);
    STy *ShapeTy = Shapes->getNodeType(E);
    // The shape checker types every node it accepts, but this inferencer is
    // a public entry point callable with a foreign checker/AST pair -- so
    // recover instead of asserting (the assert would compile away in
    // release builds and leave a null deref).
    if (!ShapeTy)
      return fail(E, "internal: lambda without a standard type");
    // The lambda's resolved standard type is Fn(param, body); spread the
    // parameter's shape into a qualified type with fresh variables.
    STy *Resolved = ShapeTy;
    while (Resolved->getKind() == STy::Kind::Var && Resolved->Link)
      Resolved = Resolved->Link;
    if (Resolved->getKind() != STy::Kind::Fn)
      return fail(E, "internal: lambda's standard type is not a function");
    QualType ParamTy = spreadSTy(Resolved->Arg0, E->getLoc());
    Env[L->getParam()].push_back(QualScheme::monomorphic(ParamTy));
    QualType BodyTy = inferExpr(L->getBody());
    Env[L->getParam()].pop_back();
    if (BodyTy.isNull())
      return QualType();
    // (Lam): the function value itself carries a fresh (bottom-bounded)
    // qualifier.
    Result = Factory.make(freshQual(), &Ctors.Fn,
                          {ParamTy, BodyTy});
    applyWFLevel(Result, E->getLoc());
    break;
  }
  case Expr::Kind::App: {
    const auto *A = cast<AppExpr>(E);
    QualType FnTy = inferExpr(A->getFn());
    if (FnTy.isNull())
      return QualType();
    QualType ArgTy = inferExpr(A->getArg());
    if (ArgTy.isNull())
      return QualType();
    if (FnTy.getCtor() != &Ctors.Fn)
      return fail(E, "applying a non-function (qualifier phase)");
    // (App) with subsumption folded in: actual <= formal.
    if (!decomposeLeq(Sys, ArgTy, FnTy.getArg(0),
                      ConstraintOrigin(E->getLoc(),
                                       "argument flows into parameter")))
      return fail(E, "argument/parameter shape mismatch (qualifier phase)");
    Result = FnTy.getArg(1);
    break;
  }
  case Expr::Kind::If: {
    const auto *I = cast<IfExpr>(E);
    QualType CondTy = inferExpr(I->getCond());
    if (CondTy.isNull())
      return QualType();
    QualType ThenTy = inferExpr(I->getThen());
    if (ThenTy.isNull())
      return QualType();
    QualType ElseTy = inferExpr(I->getElse());
    if (ElseTy.isNull())
      return QualType();
    // (If): both branches flow into a fresh result type (least upper bound
    // via subsumption).
    STy *ShapeTy = Shapes->getNodeType(E);
    if (!ShapeTy)
      return fail(E, "internal: if without a standard type");
    Result = spreadSTy(ShapeTy, E->getLoc());
    ConstraintOrigin Origin(E->getLoc(), "if-branch flows into result");
    if (!decomposeLeq(Sys, ThenTy, Result, Origin) ||
        !decomposeLeq(Sys, ElseTy, Result, Origin))
      return fail(E, "if-branch shape mismatch (qualifier phase)");
    break;
  }
  case Expr::Kind::Let: {
    const auto *L = cast<LetExpr>(E);
    bool Generalizable =
        Options.Polymorphic && isSyntacticValue(L->getInit());
    QualScheme Scheme;
    if (Generalizable) {
      // (Letv): generalize qualifier variables created while inferring the
      // value. The value restriction [Wri95] keeps updateable references
      // monomorphic.
      Watermark Mark = takeWatermark(Sys);
      QualType InitTy = inferExpr(L->getInit());
      if (InitTy.isNull())
        return QualType();
      Scheme = QualScheme::generalize(Sys, InitTy, Mark);
    } else {
      QualType InitTy = inferExpr(L->getInit());
      if (InitTy.isNull())
        return QualType();
      Scheme = QualScheme::monomorphic(InitTy);
    }
    LetSchemes.emplace(E, Scheme);
    Env[L->getName()].push_back(std::move(Scheme));
    QualType BodyTy = inferExpr(L->getBody());
    Env[L->getName()].pop_back();
    if (BodyTy.isNull())
      return QualType();
    Result = BodyTy;
    break;
  }
  case Expr::Kind::Ref: {
    const auto *R = cast<RefExpr>(E);
    QualType InitTy = inferExpr(R->getInit());
    if (InitTy.isNull())
      return QualType();
    Result = Factory.make(freshQual(), &Ctors.Ref,
                          {InitTy});
    applyWFLevel(Result, E->getLoc());
    break;
  }
  case Expr::Kind::Deref: {
    const auto *D = cast<DerefExpr>(E);
    QualType RefTy = inferExpr(D->getRef());
    if (RefTy.isNull())
      return QualType();
    if (RefTy.getCtor() != &Ctors.Ref)
      return fail(E, "dereferencing a non-ref (qualifier phase)");
    Result = RefTy.getArg(0);
    break;
  }
  case Expr::Kind::Assign: {
    const auto *A = cast<AssignExpr>(E);
    QualType TargetTy = inferExpr(A->getTarget());
    if (TargetTy.isNull())
      return QualType();
    QualType ValueTy = inferExpr(A->getValue());
    if (ValueTy.isNull())
      return QualType();
    if (TargetTy.getCtor() != &Ctors.Ref)
      return fail(E, "assigning through a non-ref (qualifier phase)");
    if (!decomposeLeq(Sys, ValueTy, TargetTy.getArg(0),
                      ConstraintOrigin(E->getLoc(),
                                       "assigned value flows into ref "
                                       "contents")))
      return fail(E, "assignment shape mismatch (qualifier phase)");
    // (Assign'): the assigned-through ref must not be const.
    if (Options.ConstQual) {
      LatticeValue Bound = QS.notQual(*Options.ConstQual);
      Sys.addLeq(TargetTy.getQual(), QualExpr::makeConst(Bound),
                 ConstraintOrigin(E->getLoc(),
                                  "assignment left-hand side must not be '" +
                                      QS.get(*Options.ConstQual).Name + "'"));
    }
    Result = Factory.make(freshQual(), &Ctors.Unit);
    break;
  }
  case Expr::Kind::Annot: {
    // (Annot): A |- e : Q tau and Q <= l gives A |- {l} e : l tau.
    const auto *A = cast<AnnotExpr>(E);
    QualType OpTy = inferExpr(A->getOperand());
    if (OpTy.isNull())
      return QualType();
    Sys.addLeq(OpTy.getQual(), QualExpr::makeConst(A->getQual()),
               ConstraintOrigin(E->getLoc(),
                                "annotation {" + QS.toString(A->getQual()) +
                                    "} raises the qualifier monotonically"));
    Result = OpTy.withQual(QualExpr::makeConst(A->getQual()));
    break;
  }
  case Expr::Kind::Assert: {
    // (Assert): A |- e : Q tau and Q <= l gives A |- e|l : Q tau.
    const auto *A = cast<AssertExpr>(E);
    QualType OpTy = inferExpr(A->getOperand());
    if (OpTy.isNull())
      return QualType();
    Sys.addLeq(OpTy.getQual(), QualExpr::makeConst(A->getBound()),
               ConstraintOrigin(E->getLoc(),
                                "assertion |{" + QS.toString(A->getBound()) +
                                    "}"));
    Result = OpTy;
    break;
  }
  case Expr::Kind::Loc:
    return fail(E, "store locations cannot appear in source programs");
  }
  if (!Result.isNull())
    NodeTypes[E] = Result;
  return Result;
}

CheckResult quals::lambda::checkProgram(const Expr *Program,
                                        const QualifierSet &QS,
                                        STyContext &STys,
                                        ConstraintSystem &Sys,
                                        QualTypeFactory &Factory,
                                        const LambdaTypeCtors &Ctors,
                                        DiagnosticEngine &Diags,
                                        const QualInferOptions &Options) {
  CheckResult Result;
  StdTypeChecker Checker(STys, Diags);
  {
    PhaseScope Phase("sema", "lambda");
    if (!Checker.check(Program))
      return Result;
  }
  Result.StdTypeOk = true;

  QualInferencer Inferencer(QS, Sys, Factory, Ctors, Diags, Options);
  {
    PhaseScope Phase("constraint-gen", "lambda");
    Result.Type = Inferencer.infer(Program, Checker);
  }
  if (Sys.hitConstraintLimit()) {
    Diags.fatal(Program->getLoc(),
                "resource limit: constraint budget exhausted (" +
                    std::to_string(Sys.getConfig().MaxConstraints) +
                    " constraints); raise with --limit-constraints=N, 0 "
                    "for unlimited");
    Result.StdTypeOk = false;
    return Result;
  }
  if (Result.Type.isNull() || Diags.shouldBail()) {
    Result.StdTypeOk = false; // Qualifier phase found a structural problem.
    return Result;
  }

  // The "solve" phase span is recorded inside ConstraintSystem::solve().
  Sys.solve();
  Result.Violations = Sys.collectViolations();
  Result.QualOk = Result.Violations.empty();
  Result.Stats = Sys.getStats();
  return Result;
}
