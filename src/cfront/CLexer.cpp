//===- cfront/CLexer.cpp - C lexer -----------------------------------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//

#include "cfront/CLexer.h"

#include <cerrno>
#include <cstdlib>
#include <string>

using namespace quals;
using namespace quals::cfront;

const char *quals::cfront::ctokName(CTok Kind) {
  switch (Kind) {
  case CTok::Eof:        return "end of input";
  case CTok::Error:      return "invalid token";
  case CTok::Ident:      return "identifier";
  case CTok::IntLit:     return "integer literal";
  case CTok::CharLit:    return "character literal";
  case CTok::FloatLit:   return "floating literal";
  case CTok::StringLit:  return "string literal";
  case CTok::KwVoid:     return "'void'";
  case CTok::KwChar:     return "'char'";
  case CTok::KwShort:    return "'short'";
  case CTok::KwInt:      return "'int'";
  case CTok::KwLong:     return "'long'";
  case CTok::KwFloat:    return "'float'";
  case CTok::KwDouble:   return "'double'";
  case CTok::KwSigned:   return "'signed'";
  case CTok::KwUnsigned: return "'unsigned'";
  case CTok::KwStruct:   return "'struct'";
  case CTok::KwUnion:    return "'union'";
  case CTok::KwEnum:     return "'enum'";
  case CTok::KwTypedef:  return "'typedef'";
  case CTok::KwConst:    return "'const'";
  case CTok::KwVolatile: return "'volatile'";
  case CTok::KwStatic:   return "'static'";
  case CTok::KwExtern:   return "'extern'";
  case CTok::KwRegister: return "'register'";
  case CTok::KwAuto:     return "'auto'";
  case CTok::KwReturn:   return "'return'";
  case CTok::KwIf:       return "'if'";
  case CTok::KwElse:     return "'else'";
  case CTok::KwWhile:    return "'while'";
  case CTok::KwFor:      return "'for'";
  case CTok::KwDo:       return "'do'";
  case CTok::KwBreak:    return "'break'";
  case CTok::KwContinue: return "'continue'";
  case CTok::KwSwitch:   return "'switch'";
  case CTok::KwCase:     return "'case'";
  case CTok::KwDefault:  return "'default'";
  case CTok::KwSizeof:   return "'sizeof'";
  case CTok::KwGoto:     return "'goto'";
  case CTok::LParen:     return "'('";
  case CTok::RParen:     return "')'";
  case CTok::LBrace:     return "'{'";
  case CTok::RBrace:     return "'}'";
  case CTok::LBracket:   return "'['";
  case CTok::RBracket:   return "']'";
  case CTok::Semi:       return "';'";
  case CTok::Comma:      return "','";
  case CTok::Colon:      return "':'";
  case CTok::Question:   return "'?'";
  case CTok::Ellipsis:   return "'...'";
  case CTok::Dot:        return "'.'";
  case CTok::Arrow:      return "'->'";
  case CTok::Amp:        return "'&'";
  case CTok::AmpAmp:     return "'&&'";
  case CTok::Pipe:       return "'|'";
  case CTok::PipePipe:   return "'||'";
  case CTok::Caret:      return "'^'";
  case CTok::Tilde:      return "'~'";
  case CTok::Bang:       return "'!'";
  case CTok::Plus:       return "'+'";
  case CTok::PlusPlus:   return "'++'";
  case CTok::Minus:      return "'-'";
  case CTok::MinusMinus: return "'--'";
  case CTok::Star:       return "'*'";
  case CTok::Slash:      return "'/'";
  case CTok::Percent:    return "'%'";
  case CTok::Less:       return "'<'";
  case CTok::LessEq:     return "'<='";
  case CTok::Greater:    return "'>'";
  case CTok::GreaterEq:  return "'>='";
  case CTok::EqEq:       return "'=='";
  case CTok::BangEq:     return "'!='";
  case CTok::LessLess:   return "'<<'";
  case CTok::GreaterGreater: return "'>>'";
  case CTok::Assign:     return "'='";
  case CTok::PlusAssign: return "'+='";
  case CTok::MinusAssign: return "'-='";
  case CTok::StarAssign: return "'*='";
  case CTok::SlashAssign: return "'/='";
  case CTok::PercentAssign: return "'%='";
  case CTok::AmpAssign:  return "'&='";
  case CTok::PipeAssign: return "'|='";
  case CTok::CaretAssign: return "'^='";
  case CTok::LessLessAssign: return "'<<='";
  case CTok::GreaterGreaterAssign: return "'>>='";
  }
  return "unknown token";
}

namespace {

/// Character classes, one table lookup per byte (the "C" locale's
/// isspace/isdigit/isxdigit/isalpha, plus '_' as a letter).
enum : uint8_t {
  CC_Space = 1,
  CC_Digit = 2,
  CC_Hex = 4,
  CC_Letter = 8, ///< [A-Za-z_]
  CC_Octal = 16,
};

struct CharTable {
  uint8_t Class[256] = {};
  constexpr CharTable() {
    for (char C : {' ', '\t', '\n', '\v', '\f', '\r'})
      Class[static_cast<unsigned char>(C)] |= CC_Space;
    for (int C = '0'; C <= '9'; ++C)
      Class[C] |= CC_Digit | CC_Hex | (C <= '7' ? CC_Octal : 0);
    for (int C = 'a'; C <= 'z'; ++C)
      Class[C] |= CC_Letter | (C <= 'f' ? CC_Hex : 0);
    for (int C = 'A'; C <= 'Z'; ++C)
      Class[C] |= CC_Letter | (C <= 'F' ? CC_Hex : 0);
    Class[static_cast<unsigned char>('_')] |= CC_Letter;
  }
};
constexpr CharTable Chars;

bool is(char C, uint8_t Classes) {
  return Chars.Class[static_cast<unsigned char>(C)] & Classes;
}

/// The keyword spelled \p W, or Ident: a switch on length and first
/// character, then one comparison.
CTok keywordKind(std::string_view W) {
  auto Kw = [&](std::string_view Spelling, CTok Kind) {
    return W == Spelling ? Kind : CTok::Ident;
  };
  switch (W.size()) {
  case 2:
    switch (W[0]) {
    case 'i': return Kw("if", CTok::KwIf);
    case 'd': return Kw("do", CTok::KwDo);
    }
    break;
  case 3:
    switch (W[0]) {
    case 'i': return Kw("int", CTok::KwInt);
    case 'f': return Kw("for", CTok::KwFor);
    }
    break;
  case 4:
    switch (W[0]) {
    case 'v': return Kw("void", CTok::KwVoid);
    case 'c':
      return W[1] == 'h' ? Kw("char", CTok::KwChar) : Kw("case", CTok::KwCase);
    case 'l': return Kw("long", CTok::KwLong);
    case 'e':
      return W[1] == 'n' ? Kw("enum", CTok::KwEnum) : Kw("else", CTok::KwElse);
    case 'a': return Kw("auto", CTok::KwAuto);
    case 'g': return Kw("goto", CTok::KwGoto);
    }
    break;
  case 5:
    switch (W[0]) {
    case 's': return Kw("short", CTok::KwShort);
    case 'f': return Kw("float", CTok::KwFloat);
    case 'u': return Kw("union", CTok::KwUnion);
    case 'c': return Kw("const", CTok::KwConst);
    case 'w': return Kw("while", CTok::KwWhile);
    case 'b': return Kw("break", CTok::KwBreak);
    }
    break;
  case 6:
    switch (W[0]) {
    case 'd': return Kw("double", CTok::KwDouble);
    case 'e': return Kw("extern", CTok::KwExtern);
    case 'r': return Kw("return", CTok::KwReturn);
    case 's':
      switch (W[1]) {
      case 'i':
        return W[2] == 'g' ? Kw("signed", CTok::KwSigned)
                           : Kw("sizeof", CTok::KwSizeof);
      case 't':
        return W[2] == 'r' ? Kw("struct", CTok::KwStruct)
                           : Kw("static", CTok::KwStatic);
      case 'w': return Kw("switch", CTok::KwSwitch);
      }
      break;
    }
    break;
  case 7:
    switch (W[0]) {
    case 't': return Kw("typedef", CTok::KwTypedef);
    case 'd': return Kw("default", CTok::KwDefault);
    }
    break;
  case 8:
    switch (W[0]) {
    case 'u': return Kw("unsigned", CTok::KwUnsigned);
    case 'v': return Kw("volatile", CTok::KwVolatile);
    case 'r': return Kw("register", CTok::KwRegister);
    case 'c': return Kw("continue", CTok::KwContinue);
    }
    break;
  }
  return CTok::Ident;
}

} // namespace

CLexer::CLexer(const SourceManager &SM, unsigned BufferId,
               DiagnosticEngine &Diags, StringInterner &Idents)
    : Diags(Diags), Idents(Idents), Text(SM.getBufferText(BufferId)),
      StartOffset(SM.getBufferStart(BufferId).getOffset()) {}

void CLexer::skipTrivia() {
  while (Pos < Text.size()) {
    char C = Text[Pos];
    if (is(C, CC_Space)) {
      ++Pos;
      continue;
    }
    if (C == '#') { // Preprocessor directive: skip to end of line.
      while (Pos < Text.size() && Text[Pos] != '\n')
        ++Pos;
      continue;
    }
    if (C == '/' && Pos + 1 < Text.size()) {
      if (Text[Pos + 1] == '/') {
        while (Pos < Text.size() && Text[Pos] != '\n')
          ++Pos;
        continue;
      }
      if (Text[Pos + 1] == '*') {
        size_t Start = Pos;
        Pos += 2;
        while (Pos + 1 < Text.size() &&
               !(Text[Pos] == '*' && Text[Pos + 1] == '/'))
          ++Pos;
        if (Pos + 1 >= Text.size()) {
          Diags.error(locAt(Start), "unterminated block comment");
          Pos = Text.size();
          return;
        }
        Pos += 2;
        continue;
      }
    }
    break;
  }
}

CToken CLexer::make(CTok Kind, size_t Begin) {
  CToken T;
  T.Kind = Kind;
  T.Loc = locAt(Begin);
  T.Text = Text.substr(Begin, Pos - Begin);
  return T;
}

CToken CLexer::lexNumber(size_t Begin) {
  bool IsFloat = false;
  auto skip = [&](uint8_t Classes) {
    while (Pos < Text.size() && is(Text[Pos], Classes))
      ++Pos;
  };
  if (Text[Pos] == '0' && Pos + 1 < Text.size() &&
      (Text[Pos + 1] == 'x' || Text[Pos + 1] == 'X')) {
    Pos += 2;
    skip(CC_Hex);
  } else {
    skip(CC_Digit);
    if (Pos < Text.size() && Text[Pos] == '.') {
      IsFloat = true;
      ++Pos;
      skip(CC_Digit);
    }
    if (Pos < Text.size() && (Text[Pos] == 'e' || Text[Pos] == 'E')) {
      IsFloat = true;
      ++Pos;
      if (Pos < Text.size() && (Text[Pos] == '+' || Text[Pos] == '-'))
        ++Pos;
      skip(CC_Digit);
    }
  }
  // Integer/float suffixes.
  while (Pos < Text.size() &&
         (Text[Pos] == 'u' || Text[Pos] == 'U' || Text[Pos] == 'l' ||
          Text[Pos] == 'L' || Text[Pos] == 'f' || Text[Pos] == 'F')) {
    if (Text[Pos] == 'f' || Text[Pos] == 'F')
      IsFloat = true;
    ++Pos;
  }
  CToken T = make(IsFloat ? CTok::FloatLit : CTok::IntLit, Begin);
  std::string Spelling(T.Text);
  if (IsFloat) {
    T.FloatValue = std::strtod(Spelling.c_str(), nullptr);
  } else {
    // strtol silently clamps to LONG_MAX/LONG_MIN on overflow; only errno
    // distinguishes 9223372036854775807 from a runaway literal.
    errno = 0;
    T.IntValue = std::strtol(Spelling.c_str(), nullptr, 0);
    if (errno == ERANGE)
      Diags.error(T.Loc, "integer literal out of range");
  }
  return T;
}

CToken CLexer::lexIdentOrKeyword(size_t Begin) {
  while (Pos < Text.size() && is(Text[Pos], CC_Letter | CC_Digit))
    ++Pos;
  std::string_view Word = Text.substr(Begin, Pos - Begin);
  CTok Kind = keywordKind(Word);
  CToken T = make(Kind, Begin);
  if (Kind == CTok::Ident) {
    T.Name = Idents.internSymbol(Word);
    T.Text = T.Name.str();
  }
  return T;
}

CToken CLexer::lexCharLit(size_t Begin) {
  ++Pos; // consume '
  long Value = 0;
  if (Pos < Text.size() && Text[Pos] == '\\') {
    ++Pos;
    if (Pos < Text.size()) {
      char C = Text[Pos++];
      switch (C) {
      case 'n': Value = '\n'; break;
      case 't': Value = '\t'; break;
      case 'r': Value = '\r'; break;
      case 'a': Value = '\a'; break;
      case 'b': Value = '\b'; break;
      case 'f': Value = '\f'; break;
      case 'v': Value = '\v'; break;
      case 'x': {
        // Any number of hex digits; like GCC, the value is truncated to a
        // (signed) char.
        unsigned long Bits = 0;
        while (Pos < Text.size() && is(Text[Pos], CC_Hex)) {
          char D = Text[Pos++];
          Bits = Bits * 16 +
                 (is(D, CC_Digit) ? D - '0' : (D | 0x20) - 'a' + 10);
        }
        Value = static_cast<char>(Bits);
        break;
      }
      default:
        if (is(C, CC_Octal)) {
          // Up to three octal digits, the first already consumed.
          unsigned Bits = C - '0';
          for (int I = 1;
               I != 3 && Pos < Text.size() && is(Text[Pos], CC_Octal); ++I)
            Bits = Bits * 8 + (Text[Pos++] - '0');
          Value = static_cast<char>(Bits);
        } else {
          Value = C; // \\ \' \" \? and unknown escapes stand for themselves.
        }
        break;
      }
    }
  } else if (Pos < Text.size()) {
    Value = Text[Pos];
    ++Pos;
  }
  if (Pos < Text.size() && Text[Pos] == '\'')
    ++Pos;
  else
    Diags.error(locAt(Begin), "unterminated character literal");
  CToken T = make(CTok::CharLit, Begin);
  T.IntValue = Value;
  return T;
}

CToken CLexer::lexStringLit(size_t Begin) {
  ++Pos; // consume "
  while (Pos < Text.size() && Text[Pos] != '"') {
    if (Text[Pos] == '\\' && Pos + 1 < Text.size())
      ++Pos;
    ++Pos;
  }
  if (Pos < Text.size())
    ++Pos;
  else
    Diags.error(locAt(Begin), "unterminated string literal");
  return make(CTok::StringLit, Begin);
}

CToken CLexer::next() {
  skipTrivia();
  if (Pos >= Text.size())
    return make(CTok::Eof, Pos);

  size_t Begin = Pos;
  char C = Text[Pos];

  if (is(C, CC_Letter))
    return lexIdentOrKeyword(Begin);
  if (is(C, CC_Digit))
    return lexNumber(Begin);
  if (C == '\'')
    return lexCharLit(Begin);
  if (C == '"')
    return lexStringLit(Begin);

  auto twoChar = [&](char Next, CTok Two, CTok One) {
    ++Pos;
    if (Pos < Text.size() && Text[Pos] == Next) {
      ++Pos;
      return make(Two, Begin);
    }
    return make(One, Begin);
  };

  switch (C) {
  case '(': ++Pos; return make(CTok::LParen, Begin);
  case ')': ++Pos; return make(CTok::RParen, Begin);
  case '{': ++Pos; return make(CTok::LBrace, Begin);
  case '}': ++Pos; return make(CTok::RBrace, Begin);
  case '[': ++Pos; return make(CTok::LBracket, Begin);
  case ']': ++Pos; return make(CTok::RBracket, Begin);
  case ';': ++Pos; return make(CTok::Semi, Begin);
  case ',': ++Pos; return make(CTok::Comma, Begin);
  case ':': ++Pos; return make(CTok::Colon, Begin);
  case '?': ++Pos; return make(CTok::Question, Begin);
  case '~': ++Pos; return make(CTok::Tilde, Begin);
  case '.':
    if (Pos + 2 < Text.size() && Text[Pos + 1] == '.' &&
        Text[Pos + 2] == '.') {
      Pos += 3;
      return make(CTok::Ellipsis, Begin);
    }
    ++Pos;
    return make(CTok::Dot, Begin);
  case '!': return twoChar('=', CTok::BangEq, CTok::Bang);
  case '=': return twoChar('=', CTok::EqEq, CTok::Assign);
  case '^': return twoChar('=', CTok::CaretAssign, CTok::Caret);
  case '*': return twoChar('=', CTok::StarAssign, CTok::Star);
  case '/': return twoChar('=', CTok::SlashAssign, CTok::Slash);
  case '%': return twoChar('=', CTok::PercentAssign, CTok::Percent);
  case '+':
    ++Pos;
    if (Pos < Text.size() && Text[Pos] == '+') { ++Pos; return make(CTok::PlusPlus, Begin); }
    if (Pos < Text.size() && Text[Pos] == '=') { ++Pos; return make(CTok::PlusAssign, Begin); }
    return make(CTok::Plus, Begin);
  case '-':
    ++Pos;
    if (Pos < Text.size() && Text[Pos] == '-') { ++Pos; return make(CTok::MinusMinus, Begin); }
    if (Pos < Text.size() && Text[Pos] == '=') { ++Pos; return make(CTok::MinusAssign, Begin); }
    if (Pos < Text.size() && Text[Pos] == '>') { ++Pos; return make(CTok::Arrow, Begin); }
    return make(CTok::Minus, Begin);
  case '&':
    ++Pos;
    if (Pos < Text.size() && Text[Pos] == '&') { ++Pos; return make(CTok::AmpAmp, Begin); }
    if (Pos < Text.size() && Text[Pos] == '=') { ++Pos; return make(CTok::AmpAssign, Begin); }
    return make(CTok::Amp, Begin);
  case '|':
    ++Pos;
    if (Pos < Text.size() && Text[Pos] == '|') { ++Pos; return make(CTok::PipePipe, Begin); }
    if (Pos < Text.size() && Text[Pos] == '=') { ++Pos; return make(CTok::PipeAssign, Begin); }
    return make(CTok::Pipe, Begin);
  case '<':
    ++Pos;
    if (Pos < Text.size() && Text[Pos] == '<') {
      ++Pos;
      if (Pos < Text.size() && Text[Pos] == '=') { ++Pos; return make(CTok::LessLessAssign, Begin); }
      return make(CTok::LessLess, Begin);
    }
    if (Pos < Text.size() && Text[Pos] == '=') { ++Pos; return make(CTok::LessEq, Begin); }
    return make(CTok::Less, Begin);
  case '>':
    ++Pos;
    if (Pos < Text.size() && Text[Pos] == '>') {
      ++Pos;
      if (Pos < Text.size() && Text[Pos] == '=') { ++Pos; return make(CTok::GreaterGreaterAssign, Begin); }
      return make(CTok::GreaterGreater, Begin);
    }
    if (Pos < Text.size() && Text[Pos] == '=') { ++Pos; return make(CTok::GreaterEq, Begin); }
    return make(CTok::Greater, Begin);
  default:
    break;
  }
  ++Pos;
  Diags.error(locAt(Begin), std::string("unexpected character '") + C + "'");
  return make(CTok::Error, Begin);
}
