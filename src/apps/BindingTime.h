//===- apps/BindingTime.h - Binding-time analysis ---------------*- C++ -*-===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Binding-time analysis as a qualifier system (Section 1, [Hen91, DHM95]):
/// values known at specialization time are *static*, values possibly unknown
/// until run time are *dynamic*. static is just the absence of the positive
/// qualifier dynamic (the duality noted in Section 2), and the
/// well-formedness condition "nothing dynamic may appear within a value that
/// is static" is the upward-closure rule of WellFormed.h, so e.g.
/// static (dynamic a -> dynamic b) is rejected.
///
/// Inputs mark run-time values with {dynamic} annotations; the analysis
/// infers the binding time of every subexpression; everything not forced
/// dynamic can be computed at specialization time.
///
//===----------------------------------------------------------------------===//

#ifndef QUALS_APPS_BINDINGTIME_H
#define QUALS_APPS_BINDINGTIME_H

#include "lambda/Eval.h"
#include "lambda/Parser.h"
#include "lambda/QualInfer.h"

#include <memory>
#include <string>

namespace quals {
namespace apps {

/// Binding time of one expression after inference.
enum class BindingTime {
  Static,  ///< Known at specialization time in every solution.
  Dynamic, ///< Possibly unknown until run time in every solution.
  Either   ///< Unconstrained (defaults to static when specializing).
};

/// One-program binding-time analysis over the demonstration language.
class BindingTimeAnalysis {
public:
  BindingTimeAnalysis();
  ~BindingTimeAnalysis();

  /// Parses and analyzes \p Source. Returns false on parse/type errors or
  /// an inconsistent annotation set (details via errors()).
  bool analyze(const std::string &Source);

  /// The parsed program (valid after analyze()).
  const lambda::Expr *program() const { return Program; }

  /// Binding time of \p E (valid after a successful analyze()).
  BindingTime timeOf(const lambda::Expr *E) const;

  /// Binding time of the whole program.
  BindingTime resultTime() const { return timeOf(Program); }

  /// Accumulated diagnostics (parse errors, qualifier violations).
  std::string errors() const;

private:
  QualifierSet QS;
  QualifierId Dynamic;
  SourceManager SM;
  std::unique_ptr<DiagnosticEngine> Diags;
  lambda::AstContext Ast;
  StringInterner Idents;
  lambda::STyContext STys;
  std::unique_ptr<ConstraintSystem> Sys;
  QualTypeFactory Factory;
  lambda::LambdaTypeCtors Ctors;
  std::unique_ptr<lambda::QualInferencer> Inferencer;
  const lambda::Expr *Program = nullptr;
  std::vector<Violation> Violations;
};

} // namespace apps
} // namespace quals

#endif // QUALS_APPS_BINDINGTIME_H
