//===- apps/BindingTime.cpp - Binding-time analysis -------------------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//

#include "apps/BindingTime.h"

using namespace quals;
using namespace quals::apps;
using namespace quals::lambda;

BindingTimeAnalysis::BindingTimeAnalysis() {
  Dynamic = QS.add("dynamic", Polarity::Positive);
  Diags = std::make_unique<DiagnosticEngine>(SM);
  Sys = std::make_unique<ConstraintSystem>(QS);
}

BindingTimeAnalysis::~BindingTimeAnalysis() = default;

bool BindingTimeAnalysis::analyze(const std::string &Source) {
  Program = parseString(SM, "bta.q", Source, QS, Ast, Idents, *Diags);
  if (!Program)
    return false;

  StdTypeChecker Checker(STys, *Diags);
  if (!Checker.check(Program))
    return false;

  QualInferOptions Options;
  Options.Polymorphic = true;
  // The binding-time well-formedness rule: dynamic is upward closed, so a
  // static value can never contain a dynamic component.
  Options.UpwardClosedQuals = {Dynamic};
  Inferencer = std::make_unique<QualInferencer>(QS, *Sys, Factory, Ctors,
                                                *Diags, Options);
  QualType T = Inferencer->infer(Program, Checker);
  if (T.isNull())
    return false;

  Sys->solve();
  Violations = Sys->collectViolations();
  return Violations.empty();
}

BindingTime BindingTimeAnalysis::timeOf(const lambda::Expr *E) const {
  assert(Inferencer && "analyze() first");
  QualType T = Inferencer->getNodeType(E);
  if (T.isNull())
    return BindingTime::Either;
  QualExpr Q = T.getQual();
  if (Q.isConst())
    return QS.contains(Q.getConst(), Dynamic) ? BindingTime::Dynamic
                                              : BindingTime::Static;
  if (Sys->mustHave(Q.getVar(), Dynamic))
    return BindingTime::Dynamic;
  if (!Sys->mayHave(Q.getVar(), Dynamic))
    return BindingTime::Static;
  return BindingTime::Either;
}

std::string BindingTimeAnalysis::errors() const {
  std::string Out = Diags->renderAll();
  ViolationExplainer Explainer(*Sys);
  for (const Violation &V : Violations)
    Out += Explainer.explain(V);
  return Out;
}
