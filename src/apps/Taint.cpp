//===- apps/Taint.cpp - Taint/trust tracking ---------------------------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//

#include "apps/Taint.h"

using namespace quals;
using namespace quals::apps;
using namespace quals::lambda;

TaintAnalysis::TaintAnalysis() {
  Tainted = QS.add("tainted", Polarity::Positive);
  Diags = std::make_unique<DiagnosticEngine>(SM);
  Sys = std::make_unique<ConstraintSystem>(QS);
}

TaintAnalysis::~TaintAnalysis() = default;

bool TaintAnalysis::analyze(const std::string &Source) {
  Leaks.clear();
  Program = parseString(SM, "taint.q", Source, QS, Ast, Idents, *Diags);
  if (!Program)
    return false;

  StdTypeChecker Checker(STys, *Diags);
  if (!Checker.check(Program))
    return false;

  QualInferOptions Options;
  Options.Polymorphic = true;
  // A tainted structure has tainted parts.
  Options.DownwardClosedQuals = {Tainted};
  Inferencer = std::make_unique<QualInferencer>(QS, *Sys, Factory, Ctors,
                                                *Diags, Options);
  QualType T = Inferencer->infer(Program, Checker);
  if (T.isNull())
    return false;

  Sys->solve();
  ViolationExplainer Explainer(*Sys);
  for (const Violation &V : Sys->collectViolations())
    Leaks.push_back(Explainer.explain(V));
  return Leaks.empty();
}

bool TaintAnalysis::mayBeTainted(const lambda::Expr *E) const {
  assert(Inferencer && "analyze() first");
  QualType T = Inferencer->getNodeType(E);
  if (T.isNull())
    return false;
  QualExpr Q = T.getQual();
  if (Q.isConst())
    return QS.contains(Q.getConst(), Tainted);
  // "May" in the security sense: the least solution already carries taint.
  return Sys->mustHave(Q.getVar(), Tainted);
}

std::string TaintAnalysis::errors() const { return Diags->renderAll(); }
