//===- cfront/FrontEnd.h - One C unit's front-end state ---------*- C++ -*-===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The front end of one C unit: the state parseCSource and CSema thread
/// through, owned in one object. Section 4's inference runs over a whole
/// program, so every buffer parse() is given lands in the one
/// TranslationUnit (as CParser requires), and analyze() then types the
/// unit. The members stay alive for whatever runs over the typed unit
/// (const inference, the nonnull checkers, summaries), so they are public.
///
/// The DiagnosticEngine refers to the SourceManager and meters arena growth
/// from its own construction, so the members are declared in pipeline
/// order and the object is neither copyable nor movable; a caller that
/// holds several keeps them by unique_ptr.
///
//===----------------------------------------------------------------------===//

#ifndef QUALS_CFRONT_FRONTEND_H
#define QUALS_CFRONT_FRONTEND_H

#include "cfront/CParser.h"
#include "cfront/CSema.h"

#include <string>
#include <utility>

namespace quals {
namespace cfront {

class FrontEnd {
public:
  explicit FrontEnd(Limits L = {}) : Diags(SM, L) {}
  FrontEnd(const FrontEnd &) = delete;
  FrontEnd &operator=(const FrontEnd &) = delete;

  /// Parses one buffer, registered under \p Name, into the unit; returns
  /// false on any parse error.
  bool parse(std::string Name, std::string Source) {
    return parseCSource(SM, std::move(Name), std::move(Source), Ast, Types,
                        Idents, Diags, TU);
  }

  /// Runs semantic analysis over the whole unit; returns false if errors
  /// were reported.
  bool analyze() { return CSema(Ast, Types, Idents, Diags).analyze(TU); }

  SourceManager SM;
  DiagnosticEngine Diags;
  CAstContext Ast;
  CTypeContext Types;
  StringInterner Idents;
  TranslationUnit TU;
};

} // namespace cfront
} // namespace quals

#endif // QUALS_CFRONT_FRONTEND_H
