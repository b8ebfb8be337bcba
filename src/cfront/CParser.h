//===- cfront/CParser.h - C parser -------------------------------*- C++ -*-===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for the C subset. Highlights:
///
/// \li Full declarator syntax (pointers with qualifier lists, arrays,
///     function declarators including function pointers) via the classic
///     chunk-collection algorithm.
/// \li Typedef-name disambiguation with a scoped typedef table (the "lexer
///     hack" hosted in the parser).
/// \li struct/union/enum definitions with forward references; one tag
///     namespace, scoped.
/// \li The full C89 statement and expression grammar (minus bitfields and
///     K&R parameter definitions).
///
/// Multiple buffers can be parsed into one TranslationUnit, matching the
/// paper's whole-program analysis of multi-file benchmarks.
///
//===----------------------------------------------------------------------===//

#ifndef QUALS_CFRONT_CPARSER_H
#define QUALS_CFRONT_CPARSER_H

#include "cfront/CAst.h"
#include "cfront/CLexer.h"
#include "support/StringInterner.h"

#include <span>
#include <unordered_map>

namespace quals {
namespace cfront {

/// Parses one buffer into (an extension of) a TranslationUnit.
class CParser {
public:
  CParser(const SourceManager &SM, unsigned BufferId, CAstContext &Ast,
          CTypeContext &Types, StringInterner &Idents,
          DiagnosticEngine &Diags, TranslationUnit &TU);

  /// Parses every external declaration in the buffer. Returns false if any
  /// parse error was reported.
  bool parseTranslationUnit();

private:
  CLexer Lex;
  CAstContext &Ast;
  CTypeContext &Types;
  StringInterner &Idents;
  DiagnosticEngine &Diags;
  TranslationUnit &TU;
  CToken Tok;
  CToken PeekTok;
  bool HasPeek = false;
  bool HadError = false;
  unsigned InitialErrors = 0;

  // Scoped name tables, keyed by the lexer's interned identifiers. Tags
  // (struct/union/enum) share one namespace; typedef names live in the
  // ordinary namespace but only the typedef subset matters for parsing.
  std::vector<std::unordered_map<Symbol, TypedefDecl *, Symbol::Hash>>
      TypedefScopes;
  std::vector<std::unordered_map<Symbol, CDecl *, Symbol::Hash>> TagScopes;

  //===--------------------------------------------------------------------===//
  // Token plumbing
  //===--------------------------------------------------------------------===//
  void advance() {
    if (HasPeek) {
      Tok = PeekTok;
      HasPeek = false;
    } else {
      Tok = Lex.next();
    }
  }
  const CToken &peek() {
    if (!HasPeek) {
      PeekTok = Lex.next();
      HasPeek = true;
    }
    return PeekTok;
  }
  bool expect(CTok Kind);
  bool consumeIf(CTok Kind);
  void error(const std::string &Message);
  /// Skips tokens until a likely recovery point (';' or '}').
  void skipToRecovery();

  void pushScope();
  void popScope();
  TypedefDecl *lookupTypedef(Symbol Name) const;
  CDecl *lookupTag(Symbol Name) const;

  //===--------------------------------------------------------------------===//
  // Declarations
  //===--------------------------------------------------------------------===//
  struct DeclSpec {
    CQualType Base;
    StorageClass SC = StorageClass::None;
    SourceLoc Loc;
  };

  /// One declarator "chunk"; see parseDeclarator for ordering.
  struct DeclChunk {
    enum class K { Pointer, Array, Function } Kind;
    unsigned Quals = CQ_None;               // Pointer
    long ArraySize = -1;                    // Array
    std::span<VarDecl *const> Params;       // Function (arena array)
    bool Variadic = false;                  // Function
    bool NoPrototype = false;               // Function
  };

  /// Chunks of the declarators being parsed, innermost declarator on top:
  /// a declarator's chunks are the top of the stack from its Begin up, and
  /// a parameter's declarator is popped before its list goes on.
  std::vector<DeclChunk> ChunkStack;
  /// Parameters of the lists being parsed, likewise nested; a finished
  /// list is copied into the arena once and popped.
  std::vector<VarDecl *> ParamStack;
  /// Parameter types handed to CTypeContext::getFunction (which copies).
  std::vector<CQualType> ParamTypes;

  /// A declarator under construction. Its chunks, from the name outward,
  /// live on the parser's ChunkStack until it is destroyed or reset, so
  /// declarators must nest (each one's lifetime inside the previous one's).
  class Declarator {
  public:
    explicit Declarator(CParser &P)
        : Stack(P.ChunkStack), Begin(P.ChunkStack.size()) {}
    Declarator(const Declarator &) = delete;
    Declarator &operator=(const Declarator &) = delete;
    ~Declarator() { Stack.resize(Begin); }

    Symbol Name; ///< Empty for abstract declarators.
    SourceLoc Loc;

    std::span<const DeclChunk> chunks() const {
      return {Stack.data() + Begin, Stack.size() - Begin};
    }
    /// True when the name declares a function (its first chunk is a
    /// function declarator), whose parameters are params().
    bool isFunction() const {
      return Stack.size() > Begin &&
             Stack[Begin].Kind == DeclChunk::K::Function;
    }
    std::span<VarDecl *const> params() const { return Stack[Begin].Params; }
    /// Forgets everything parsed into this declarator, for the next one of
    /// a declarator list.
    void reset() {
      Stack.resize(Begin);
      Name = Symbol();
      Loc = SourceLoc();
    }

  private:
    std::vector<DeclChunk> &Stack;
    size_t Begin;
  };

  /// True if the current token can begin a declaration.
  bool atDeclarationStart();
  /// True if \p T can begin a type name (for casts/sizeof).
  bool startsTypeName(const CToken &T) const;

  bool parseDeclSpec(DeclSpec &DS);
  const CType *parseStructOrUnionSpec();
  const CType *parseEnumSpec();
  bool parseDeclarator(Declarator &D, bool AllowAbstract);
  bool parseParamList(DeclChunk &Chunk);
  CQualType buildType(CQualType Base, const Declarator &D);
  /// Parses a type-name (declspec + abstract declarator), for casts/sizeof.
  bool parseTypeName(CQualType &Out);

  /// Parses one external declaration (function def, prototype, globals,
  /// typedef, or tag-only declaration).
  bool parseExternalDecl();
  /// Parses the declarator list after the first declarator of a
  /// declaration (typedefs, prototypes and variables); shared by globals
  /// and locals.
  /// \p D holds the first declarator on entry and is reset for each
  /// following one.
  bool parseInitDeclarators(const DeclSpec &DS, Declarator &D,
                            std::vector<VarDecl *> &Out, bool IsGlobal);
  VarDecl *makeVarDecl(const DeclSpec &DS, const Declarator &D,
                       bool IsGlobal);
  /// Parses an initializer: an assignment expression or a brace-enclosed
  /// list of initializers, nested to any depth.
  const CExpr *parseInitializer();

  //===--------------------------------------------------------------------===//
  // Statements
  //===--------------------------------------------------------------------===//
  const CStmt *parseStmt();
  const CStmt *parseCompoundStmt();

  //===--------------------------------------------------------------------===//
  // Expressions (precedence climbing)
  //===--------------------------------------------------------------------===//
  const CExpr *parseExpr();           ///< Includes comma.
  const CExpr *parseAssignExpr();
  const CExpr *parseConditionalExpr();
  const CExpr *parseBinaryExpr(int MinPrec);
  const CExpr *parseCastExpr();
  const CExpr *parseUnaryExpr();
  const CExpr *parsePostfixExpr();
  const CExpr *parsePrimaryExpr();
  /// Parses a constant integer expression (enum values, array sizes).
  bool parseConstantInt(long &Out);
};

/// Parses \p Source (registered under \p Name) into \p TU; returns false on
/// any parse error.
bool parseCSource(SourceManager &SM, std::string Name, std::string Source,
                  CAstContext &Ast, CTypeContext &Types,
                  StringInterner &Idents, DiagnosticEngine &Diags,
                  TranslationUnit &TU);

} // namespace cfront
} // namespace quals

#endif // QUALS_CFRONT_CPARSER_H
