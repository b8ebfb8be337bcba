//===- cfront/CToken.h - C token kinds ---------------------------*- C++ -*-===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Token kinds for the C-subset front end used by the const-inference
/// system of Section 4. The subset covers everything the analysis needs:
/// declarator types (pointers/arrays/functions), const/volatile, structs,
/// unions, enums, typedefs, varargs, casts, and the full statement and
/// expression grammar. Preprocessor lines ('#...') are skipped as comments.
///
//===----------------------------------------------------------------------===//

#ifndef QUALS_CFRONT_CTOKEN_H
#define QUALS_CFRONT_CTOKEN_H

#include "support/SourceLoc.h"
#include "support/StringInterner.h"

#include <string_view>

namespace quals {
namespace cfront {

enum class CTok {
  Eof,
  Error,

  Ident,
  IntLit,
  CharLit,
  FloatLit,
  StringLit,

  // Keywords.
  KwVoid, KwChar, KwShort, KwInt, KwLong, KwFloat, KwDouble,
  KwSigned, KwUnsigned,
  KwStruct, KwUnion, KwEnum, KwTypedef,
  KwConst, KwVolatile,
  KwStatic, KwExtern, KwRegister, KwAuto,
  KwReturn, KwIf, KwElse, KwWhile, KwFor, KwDo,
  KwBreak, KwContinue, KwSwitch, KwCase, KwDefault,
  KwSizeof, KwGoto,

  // Punctuation.
  LParen, RParen, LBrace, RBrace, LBracket, RBracket,
  Semi, Comma, Colon, Question, Ellipsis,
  Dot, Arrow,
  Amp, AmpAmp, Pipe, PipePipe, Caret, Tilde, Bang,
  Plus, PlusPlus, Minus, MinusMinus, Star, Slash, Percent,
  Less, LessEq, Greater, GreaterEq, EqEq, BangEq,
  LessLess, GreaterGreater,
  Assign,
  PlusAssign, MinusAssign, StarAssign, SlashAssign, PercentAssign,
  AmpAssign, PipeAssign, CaretAssign, LessLessAssign, GreaterGreaterAssign
};

/// A lexed C token.
struct CToken {
  CTok Kind = CTok::Eof;
  SourceLoc Loc;
  /// The spelling; for an Ident, the interned name (Name.str()).
  std::string_view Text;
  Symbol Name;              ///< For Ident: the interned identifier.
  long IntValue = 0;        ///< For IntLit / CharLit.
  double FloatValue = 0.0;  ///< For FloatLit.

  bool is(CTok K) const { return Kind == K; }
};

/// Human-readable token-kind name for diagnostics.
const char *ctokName(CTok Kind);

} // namespace cfront
} // namespace quals

#endif // QUALS_CFRONT_CTOKEN_H
