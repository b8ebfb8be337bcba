//===- cfront/CLexer.h - C lexer ---------------------------------*- C++ -*-===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//

#ifndef QUALS_CFRONT_CLEXER_H
#define QUALS_CFRONT_CLEXER_H

#include "cfront/CToken.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"
#include "support/StringInterner.h"

namespace quals {
namespace cfront {

/// Hand-written C lexer. Handles // and /* */ comments; lines starting with
/// '#' (preprocessor directives) are skipped wholesale -- benchmark inputs
/// are expected to be preprocessed or directive-free.
///
/// Every identifier is interned into \p Idents as it is lexed, once: an
/// Ident token's Name is its Symbol and its Text the interned spelling, so
/// later stages compare and key names by identity without re-hashing.
class CLexer {
public:
  CLexer(const SourceManager &SM, unsigned BufferId, DiagnosticEngine &Diags,
         StringInterner &Idents);

  CToken next();

private:
  DiagnosticEngine &Diags;
  StringInterner &Idents;
  std::string_view Text;
  size_t Pos = 0;
  uint32_t StartOffset; ///< Location offset of Text[0].

  SourceLoc locAt(size_t Offset) const {
    return SourceLoc(StartOffset + static_cast<uint32_t>(Offset));
  }
  void skipTrivia();
  CToken make(CTok Kind, size_t Begin);
  CToken lexNumber(size_t Begin);
  CToken lexIdentOrKeyword(size_t Begin);
  CToken lexCharLit(size_t Begin);
  CToken lexStringLit(size_t Begin);
};

} // namespace cfront
} // namespace quals

#endif // QUALS_CFRONT_CLEXER_H
