//===- cfront/CSema.h - C semantic analysis ----------------------*- C++ -*-===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Semantic analysis for the C subset: name resolution, expression typing,
/// and l-value classification. This is the "standard type system" phase of
/// the paper's factorization -- const inference (constinf/) runs afterwards
/// over the typed AST and deals purely in qualifiers.
///
/// Per Section 4.2, calls to functions the program never defines get an
/// implicit declaration (the conservative library-function handling); the
/// analysis later treats their non-const parameters as non-const.
///
//===----------------------------------------------------------------------===//

#ifndef QUALS_CFRONT_CSEMA_H
#define QUALS_CFRONT_CSEMA_H

#include "cfront/CAst.h"
#include "support/Diagnostics.h"
#include "support/StringInterner.h"

#include <unordered_map>
#include <vector>

namespace quals {
namespace cfront {

/// Types expressions and resolves names in a parsed TranslationUnit.
class CSema {
public:
  CSema(CAstContext &Ast, CTypeContext &Types, StringInterner &Idents,
        DiagnosticEngine &Diags)
      : Ast(Ast), Types(Types), Idents(Idents), Diags(Diags) {}

  /// Analyzes the whole unit. Returns false if errors were reported
  /// (analysis still completes as far as possible).
  bool analyze(TranslationUnit &TU);

private:
  CAstContext &Ast;
  CTypeContext &Types;
  StringInterner &Idents;
  DiagnosticEngine &Diags;
  TranslationUnit *TU = nullptr;
  const FunctionDecl *CurrentFunction = nullptr;
  bool HadError = false;

  /// The block-scope bindings of the body being analyzed, innermost last.
  /// A scope is the suffix pushed since its entry; leaving it truncates the
  /// stack back to its mark.
  struct Binding {
    Symbol Name;
    const CDecl *Decl;
  };
  std::vector<Binding> Bindings;
  /// The file scope behind the bindings is the unit's FunctionMap and
  /// GlobalMap; each name's result (null: neither has it) is memoized here
  /// on its first lookup.
  std::unordered_map<Symbol, const CDecl *, Symbol::Hash> FileScope;
  /// The functions the current body names so far, in body order; they
  /// become its FunctionDecl::getUses().
  std::vector<const FunctionDecl *> Uses;

  size_t enterScope() const { return Bindings.size(); }
  void exitScope(size_t Mark) { Bindings.resize(Mark); }
  void declare(const CDecl *D);
  const CDecl *lookup(Symbol Name);
  /// Records a use of \p F by the function being analyzed (none in a
  /// global initializer).
  void noteUse(const FunctionDecl *F) {
    if (CurrentFunction)
      Uses.push_back(F);
  }

  void error(SourceLoc Loc, const std::string &Message);

  void analyzeFunction(FunctionDecl *FD);
  void analyzeStmt(const CStmt *S);
  /// Types \p E (and records the type on the node). Returns the type.
  CQualType checkExpr(const CExpr *E);
  /// Type of \p E as an r-value: arrays decay to pointers, functions to
  /// function pointers.
  CQualType decayed(CQualType T);
  /// Ensures the callee is resolvable, creating an implicit declaration for
  /// unknown functions (C89 style).
  const FunctionDecl *resolveCallee(const CExpr *Callee);
};

} // namespace cfront
} // namespace quals

#endif // QUALS_CFRONT_CSEMA_H
