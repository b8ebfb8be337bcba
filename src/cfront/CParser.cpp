//===- cfront/CParser.cpp - C parser ---------------------------------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//

#include "cfront/CParser.h"

#include "support/Metrics.h"

#include <algorithm>

using namespace quals;
using namespace quals::cfront;

CParser::CParser(const SourceManager &SM, unsigned BufferId, CAstContext &Ast,
                 CTypeContext &Types, StringInterner &Idents,
                 DiagnosticEngine &Diags, TranslationUnit &TU)
    : Lex(SM, BufferId, Diags, Idents), Ast(Ast), Types(Types),
      Idents(Idents), Diags(Diags), TU(TU),
      InitialErrors(Diags.getNumErrors()) {
  // Declaration ids are per context, so every buffer of a unit must share
  // one (CDecl::getId).
  assert((!TU.Context || TU.Context == &Ast) &&
         "all buffers of a unit must parse into one CAstContext");
  TU.Context = &Ast;
  TypedefScopes.emplace_back();
  TagScopes.emplace_back();
  advance();
}

bool CParser::expect(CTok Kind) {
  if (Tok.is(Kind)) {
    advance();
    return true;
  }
  error(std::string("expected ") + ctokName(Kind) + " but found " +
        ctokName(Tok.Kind));
  return false;
}

bool CParser::consumeIf(CTok Kind) {
  if (!Tok.is(Kind))
    return false;
  advance();
  return true;
}

void CParser::error(const std::string &Message) {
  Diags.error(Tok.Loc, Message);
  HadError = true;
}

void CParser::skipToRecovery() {
  unsigned Depth = 0;
  while (!Tok.is(CTok::Eof)) {
    if (Tok.is(CTok::LBrace))
      ++Depth;
    if (Tok.is(CTok::RBrace)) {
      if (Depth == 0) {
        advance();
        return;
      }
      --Depth;
    }
    if (Tok.is(CTok::Semi) && Depth == 0) {
      advance();
      return;
    }
    advance();
  }
}

void CParser::pushScope() {
  TypedefScopes.emplace_back();
  TagScopes.emplace_back();
}

void CParser::popScope() {
  TypedefScopes.pop_back();
  TagScopes.pop_back();
}

TypedefDecl *CParser::lookupTypedef(Symbol Name) const {
  for (auto It = TypedefScopes.rbegin(); It != TypedefScopes.rend(); ++It) {
    auto Found = It->find(Name);
    if (Found != It->end())
      return Found->second;
  }
  return nullptr;
}

CDecl *CParser::lookupTag(Symbol Name) const {
  for (auto It = TagScopes.rbegin(); It != TagScopes.rend(); ++It) {
    auto Found = It->find(Name);
    if (Found != It->end())
      return Found->second;
  }
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Declaration specifiers
//===----------------------------------------------------------------------===//

bool CParser::atDeclarationStart() {
  switch (Tok.Kind) {
  case CTok::KwTypedef: case CTok::KwStatic: case CTok::KwExtern:
  case CTok::KwRegister: case CTok::KwAuto:
    return true;
  default:
    return startsTypeName(Tok);
  }
}

bool CParser::startsTypeName(const CToken &T) const {
  switch (T.Kind) {
  case CTok::KwVoid: case CTok::KwChar: case CTok::KwShort: case CTok::KwInt:
  case CTok::KwLong: case CTok::KwFloat: case CTok::KwDouble:
  case CTok::KwSigned: case CTok::KwUnsigned:
  case CTok::KwStruct: case CTok::KwUnion: case CTok::KwEnum:
  case CTok::KwConst: case CTok::KwVolatile:
    return true;
  case CTok::Ident:
    return lookupTypedef(T.Name) != nullptr;
  default:
    return false;
  }
}

bool CParser::parseDeclSpec(DeclSpec &DS) {
  // Nested struct/union/enum definitions re-enter via the member loop.
  RecursionGuard Guard(Diags, Tok.Loc);
  if (!Guard.ok())
    return false;
  DS.Loc = Tok.Loc;
  unsigned Quals = CQ_None;
  bool SawUnsigned = false, SawSigned = false;
  bool SawChar = false, SawShort = false, SawInt = false, SawLong = false;
  bool SawVoid = false, SawFloat = false, SawDouble = false;
  const CType *Tagged = nullptr;
  const TypedefDecl *FromTypedef = nullptr;
  bool Any = false;

  for (;;) {
    switch (Tok.Kind) {
    case CTok::KwTypedef:  DS.SC = StorageClass::Typedef; advance(); break;
    case CTok::KwExtern:   DS.SC = StorageClass::Extern; advance(); break;
    case CTok::KwStatic:   DS.SC = StorageClass::Static; advance(); break;
    case CTok::KwRegister: DS.SC = StorageClass::Register; advance(); break;
    case CTok::KwAuto:     DS.SC = StorageClass::Auto; advance(); break;
    case CTok::KwConst:    Quals |= CQ_Const; advance(); break;
    case CTok::KwVolatile: Quals |= CQ_Volatile; advance(); break;
    case CTok::KwVoid:     SawVoid = true; advance(); break;
    case CTok::KwChar:     SawChar = true; advance(); break;
    case CTok::KwShort:    SawShort = true; advance(); break;
    case CTok::KwInt:      SawInt = true; advance(); break;
    case CTok::KwLong:     SawLong = true; advance(); break;
    case CTok::KwFloat:    SawFloat = true; advance(); break;
    case CTok::KwDouble:   SawDouble = true; advance(); break;
    case CTok::KwSigned:   SawSigned = true; advance(); break;
    case CTok::KwUnsigned: SawUnsigned = true; advance(); break;
    case CTok::KwStruct:
    case CTok::KwUnion:
      Tagged = parseStructOrUnionSpec();
      if (!Tagged)
        return false;
      break;
    case CTok::KwEnum:
      Tagged = parseEnumSpec();
      if (!Tagged)
        return false;
      break;
    case CTok::Ident: {
      // A typedef name is a type specifier only if no other type specifier
      // has been seen (so "typedef int foo; foo foo;" behaves).
      bool HaveType = Tagged || FromTypedef || SawVoid || SawChar ||
                      SawShort || SawInt || SawLong || SawFloat ||
                      SawDouble || SawSigned || SawUnsigned;
      if (HaveType)
        goto done;
      if (TypedefDecl *TD = lookupTypedef(Tok.Name)) {
        FromTypedef = TD;
        advance();
        break;
      }
      goto done;
    }
    default:
      goto done;
    }
    Any = true;
  }
done:
  if (!Any)
    return false;

  if (FromTypedef) {
    // Typedefs are macro-expanded (Section 4.2): splice the underlying type
    // and merge qualifiers.
    DS.Base = FromTypedef->getUnderlying().withQuals(Quals);
    return true;
  }
  if (Tagged) {
    DS.Base = CQualType(Tagged, Quals);
    return true;
  }

  BuiltinType::Id Id = BuiltinType::Id::Int;
  if (SawVoid)
    Id = BuiltinType::Id::Void;
  else if (SawChar)
    Id = SawUnsigned ? BuiltinType::Id::UChar
                     : (SawSigned ? BuiltinType::Id::SChar
                                  : BuiltinType::Id::Char);
  else if (SawDouble)
    Id = BuiltinType::Id::Double;
  else if (SawFloat)
    Id = BuiltinType::Id::Float;
  else if (SawShort)
    Id = SawUnsigned ? BuiltinType::Id::UShort : BuiltinType::Id::Short;
  else if (SawLong)
    Id = SawUnsigned ? BuiltinType::Id::ULong : BuiltinType::Id::Long;
  else
    Id = SawUnsigned ? BuiltinType::Id::UInt : BuiltinType::Id::Int;
  DS.Base = CQualType(Types.getBuiltin(Id), Quals);
  return true;
}

const CType *CParser::parseStructOrUnionSpec() {
  bool IsUnion = Tok.is(CTok::KwUnion);
  SourceLoc KwLoc = Tok.Loc;
  advance();

  Symbol Tag;
  if (Tok.is(CTok::Ident)) {
    Tag = Tok.Name;
    advance();
  }

  RecordDecl *RD = nullptr;
  if (!Tag.empty()) {
    if (auto *Existing = dyn_cast_or_null<RecordDecl>(lookupTag(Tag)))
      RD = Existing;
  }
  bool HasBody = Tok.is(CTok::LBrace);
  if (!RD || (HasBody && RD->isComplete())) {
    RD = Ast.create<RecordDecl>(
        Tag.empty() ? Idents.internSymbol("<anon>") : Tag, IsUnion, KwLoc);
    TU.Records.push_back(RD);
    TU.Decls.push_back(RD);
    if (!Tag.empty())
      TagScopes.back()[Tag] = RD;
  }

  if (!HasBody)
    return Types.getRecord(RD);

  advance(); // {
  std::vector<FieldDecl *> Fields;
  while (!Tok.is(CTok::RBrace) && !Tok.is(CTok::Eof)) {
    DeclSpec DS;
    if (!parseDeclSpec(DS)) {
      error("expected a field declaration");
      skipToRecovery();
      return Types.getRecord(RD);
    }
    do {
      Declarator D(*this);
      if (!parseDeclarator(D, /*AllowAbstract=*/false)) {
        skipToRecovery();
        return Types.getRecord(RD);
      }
      CQualType FieldTy = buildType(DS.Base, D);
      Fields.push_back(Ast.create<FieldDecl>(D.Name, FieldTy,
                                             Fields.size(), D.Loc));
    } while (consumeIf(CTok::Comma));
    if (!expect(CTok::Semi))
      return Types.getRecord(RD);
  }
  expect(CTok::RBrace);
  RD->complete(Ast.list(Fields));
  return Types.getRecord(RD);
}

const CType *CParser::parseEnumSpec() {
  SourceLoc KwLoc = Tok.Loc;
  advance();

  Symbol Tag;
  if (Tok.is(CTok::Ident)) {
    Tag = Tok.Name;
    advance();
  }

  EnumDecl *ED = nullptr;
  if (!Tag.empty()) {
    if (auto *Existing = dyn_cast_or_null<EnumDecl>(lookupTag(Tag)))
      ED = Existing;
  }
  if (!ED) {
    ED = Ast.create<EnumDecl>(
        Tag.empty() ? Idents.internSymbol("<anon>") : Tag, KwLoc);
    TU.Decls.push_back(ED);
    if (!Tag.empty())
      TagScopes.back()[Tag] = ED;
  }

  if (!Tok.is(CTok::LBrace))
    return Types.getEnum(ED);

  advance(); // {
  long NextValue = 0;
  while (!Tok.is(CTok::RBrace) && !Tok.is(CTok::Eof)) {
    if (!Tok.is(CTok::Ident)) {
      error("expected enumerator name");
      skipToRecovery();
      return Types.getEnum(ED);
    }
    std::string_view Name = Tok.Text;
    advance();
    if (consumeIf(CTok::Assign)) {
      long Value;
      if (!parseConstantInt(Value))
        return Types.getEnum(ED);
      NextValue = Value;
    }
    TU.EnumConstants[Name] = NextValue;
    ++NextValue;
    if (!consumeIf(CTok::Comma))
      break;
  }
  expect(CTok::RBrace);
  return Types.getEnum(ED);
}

//===----------------------------------------------------------------------===//
// Declarators
//===----------------------------------------------------------------------===//

bool CParser::parseDeclarator(Declarator &D, bool AllowAbstract) {
  // Parenthesized declarators ('(*(*(*...)))') recurse here.
  RecursionGuard Guard(Diags, Tok.Loc);
  if (!Guard.ok())
    return false;
  // Pointers (with qualifier lists) in source order; moved behind the
  // suffixes below.
  size_t PtrBegin = ChunkStack.size();
  while (Tok.is(CTok::Star)) {
    advance();
    DeclChunk P;
    P.Kind = DeclChunk::K::Pointer;
    for (;;) {
      if (consumeIf(CTok::KwConst)) {
        P.Quals |= CQ_Const;
        continue;
      }
      if (consumeIf(CTok::KwVolatile)) {
        P.Quals |= CQ_Volatile;
        continue;
      }
      break;
    }
    ChunkStack.push_back(P);
  }
  size_t PtrEnd = ChunkStack.size();

  // Direct declarator. An identifier here is always the declared name,
  // even if it collides with a typedef: fields and block-scope locals may
  // shadow typedef names (the declspec already consumed any leading
  // typedef-as-type).
  if (Tok.is(CTok::Ident)) {
    D.Name = Tok.Name;
    D.Loc = Tok.Loc;
    advance();
  } else if (Tok.is(CTok::LParen)) {
    // '(' begins a nested declarator when the inside cannot start a
    // parameter list: '*', '(', or a non-typedef identifier.
    const CToken &Next = peek();
    bool Nested = Next.is(CTok::Star) || Next.is(CTok::LParen) ||
                  (Next.is(CTok::Ident) && !lookupTypedef(Next.Name));
    if (Nested) {
      advance(); // (
      if (!parseDeclarator(D, AllowAbstract))
        return false;
      if (!expect(CTok::RParen))
        return false;
    } else if (!AllowAbstract) {
      // Function suffix handled below; but a concrete declarator needs a
      // name first.
      error("expected a declarator name");
      return false;
    }
  } else if (!AllowAbstract) {
    error("expected a declarator name");
    return false;
  }

  // Suffixes in source order.
  for (;;) {
    if (Tok.is(CTok::LBracket)) {
      advance();
      DeclChunk A;
      A.Kind = DeclChunk::K::Array;
      if (!Tok.is(CTok::RBracket)) {
        long Size;
        if (!parseConstantInt(Size))
          return false;
        A.ArraySize = Size;
      }
      if (!expect(CTok::RBracket))
        return false;
      ChunkStack.push_back(A);
      continue;
    }
    if (Tok.is(CTok::LParen)) {
      advance();
      DeclChunk F;
      F.Kind = DeclChunk::K::Function;
      if (!parseParamList(F))
        return false;
      ChunkStack.push_back(F);
      continue;
    }
    break;
  }

  // Pointers bind less tightly than suffixes: move them to the end,
  // reversed.
  std::rotate(ChunkStack.begin() + PtrBegin, ChunkStack.begin() + PtrEnd,
              ChunkStack.end());
  std::reverse(ChunkStack.end() - (PtrEnd - PtrBegin), ChunkStack.end());
  return true;
}

bool CParser::parseParamList(DeclChunk &Chunk) {
  if (consumeIf(CTok::RParen)) {
    Chunk.NoPrototype = true; // K&R "T f()"
    return true;
  }
  if (Tok.is(CTok::KwVoid) && peek().is(CTok::RParen)) {
    advance();
    advance();
    return true;
  }
  // This list's parameters are ParamStack[Begin..); a parameter's own
  // function declarator finishes (and pops) its list before the parameter
  // is pushed.
  size_t Begin = ParamStack.size();
  for (;;) {
    if (Tok.is(CTok::Ellipsis)) {
      advance();
      Chunk.Variadic = true;
      break;
    }
    DeclSpec DS;
    if (!parseDeclSpec(DS)) {
      error("expected a parameter declaration");
      ParamStack.resize(Begin);
      return false;
    }
    Declarator D(*this);
    if (!parseDeclarator(D, /*AllowAbstract=*/true)) {
      ParamStack.resize(Begin);
      return false;
    }
    CQualType T = buildType(DS.Base, D);
    // Parameter adjustment: arrays decay to pointers, functions to
    // function pointers.
    if (const auto *AT = dyn_cast<ArrayType>(T.getType()))
      T = CQualType(Types.getPointer(AT->getElement()), T.getQuals());
    else if (isa<FunctionType>(T.getType()))
      T = CQualType(Types.getPointer(CQualType(T.getType())), CQ_None);
    ParamStack.push_back(Ast.create<VarDecl>(
        D.Name, T, StorageClass::None, /*IsParam=*/true,
        D.Loc.isValid() ? D.Loc : DS.Loc));
    if (!consumeIf(CTok::Comma))
      break;
  }
  Chunk.Params = Ast.list(std::span<VarDecl *const>(
      ParamStack.data() + Begin, ParamStack.size() - Begin));
  ParamStack.resize(Begin);
  return expect(CTok::RParen);
}

CQualType CParser::buildType(CQualType Base, const Declarator &D) {
  CQualType T = Base;
  std::span<const DeclChunk> Chunks = D.chunks();
  for (auto It = Chunks.rbegin(); It != Chunks.rend(); ++It) {
    switch (It->Kind) {
    case DeclChunk::K::Pointer:
      T = CQualType(Types.getPointer(T), It->Quals);
      break;
    case DeclChunk::K::Array:
      T = CQualType(Types.getArray(T, It->ArraySize));
      break;
    case DeclChunk::K::Function:
      ParamTypes.clear();
      for (const VarDecl *P : It->Params)
        ParamTypes.push_back(P->getType());
      T = CQualType(Types.getFunction(T, ParamTypes, It->Variadic,
                                      It->NoPrototype));
      break;
    }
  }
  return T;
}

bool CParser::parseTypeName(CQualType &Out) {
  DeclSpec DS;
  if (!parseDeclSpec(DS)) {
    error("expected a type name");
    return false;
  }
  Declarator D(*this);
  if (!parseDeclarator(D, /*AllowAbstract=*/true))
    return false;
  Out = buildType(DS.Base, D);
  return true;
}

//===----------------------------------------------------------------------===//
// External declarations
//===----------------------------------------------------------------------===//

VarDecl *CParser::makeVarDecl(const DeclSpec &DS, const Declarator &D,
                              bool IsGlobal) {
  CQualType T = buildType(DS.Base, D);
  auto *V = Ast.create<VarDecl>(D.Name, T, DS.SC, /*IsParam=*/false,
                                D.Loc.isValid() ? D.Loc : DS.Loc);
  V->setGlobal(IsGlobal);
  return V;
}

bool CParser::parseExternalDecl() {
  DeclSpec DS;
  if (!parseDeclSpec(DS)) {
    error("expected a declaration");
    skipToRecovery();
    return false;
  }
  if (consumeIf(CTok::Semi))
    return true; // struct/union/enum declaration alone

  Declarator First(*this);
  if (!parseDeclarator(First, /*AllowAbstract=*/false)) {
    skipToRecovery();
    return false;
  }

  // Function definition.
  if (First.isFunction() && DS.SC != StorageClass::Typedef &&
      Tok.is(CTok::LBrace)) {
    CQualType T = buildType(DS.Base, First);
    const auto *FT = cast<FunctionType>(T.getType());
    auto *FD = Ast.create<FunctionDecl>(First.Name, FT, First.params(),
                                        DS.SC, First.Loc);
    FunctionDecl *&Slot = TU.FunctionMap.try_emplace(First.Name).first->second;
    if (Slot && !Slot->isDefined()) {
      // Complete a previous prototype (possibly from another buffer) in its
      // Functions slot; the definition's parameter names and type win. An
      // undefined map entry is the only Functions entry of its name, since
      // prototypes and implicit declarations are added only for new names.
      FD->setFunctionIndex(Slot->getFunctionIndex());
      TU.Functions[FD->getFunctionIndex()] = FD;
    } else {
      FD->setFunctionIndex(TU.Functions.size());
      TU.Functions.push_back(FD);
      TU.Decls.push_back(FD);
    }
    Slot = FD;
    pushScope();
    const CStmt *Body = parseCompoundStmt();
    popScope();
    if (!Body)
      return false;
    FD->setBody(Body);
    return true;
  }

  // Typedefs, prototypes and global variables (possibly a comma-separated
  // list).
  std::vector<VarDecl *> Vars;
  return parseInitDeclarators(DS, First, Vars, /*IsGlobal=*/true);
}

bool CParser::parseInitDeclarators(const DeclSpec &DS, Declarator &D,
                                   std::vector<VarDecl *> &Out,
                                   bool IsGlobal) {
  for (;;) {
    if (DS.SC == StorageClass::Typedef) {
      auto *TD = Ast.create<TypedefDecl>(D.Name, buildType(DS.Base, D), D.Loc);
      TypedefScopes.back()[D.Name] = TD;
      if (IsGlobal)
        TU.Decls.push_back(TD);
    } else if (D.isFunction()) {
      // A prototype.
      auto [It, New] = TU.FunctionMap.try_emplace(D.Name);
      if (New) {
        const auto *FT = cast<FunctionType>(buildType(DS.Base, D).getType());
        auto *FD = Ast.create<FunctionDecl>(D.Name, FT, D.params(), DS.SC,
                                            D.Loc);
        It->second = FD;
        FD->setFunctionIndex(TU.Functions.size());
        TU.Functions.push_back(FD);
        TU.Decls.push_back(FD);
      }
    } else {
      VarDecl *V = makeVarDecl(DS, D, IsGlobal);
      if (consumeIf(CTok::Assign)) {
        const CExpr *Init = parseInitializer();
        if (!Init)
          return false;
        V->setInit(Init);
      }
      Out.push_back(V);
      // Extern redeclarations of the same global merge.
      if (IsGlobal && TU.GlobalMap.try_emplace(V->getName(), V).second) {
        TU.Globals.push_back(V);
        TU.Decls.push_back(V);
      }
    }
    if (!consumeIf(CTok::Comma))
      break;
    D.reset();
    if (!parseDeclarator(D, false)) {
      skipToRecovery();
      return false;
    }
  }
  return expect(CTok::Semi);
}

const CExpr *CParser::parseInitializer() {
  if (!Tok.is(CTok::LBrace))
    return parseAssignExpr();
  // Nested initializer lists ('{{{...}}}') recurse here.
  RecursionGuard Guard(Diags, Tok.Loc);
  if (!Guard.ok())
    return nullptr;
  SourceLoc Loc = Tok.Loc;
  advance(); // {
  std::vector<const CExpr *> Inits;
  while (!Tok.is(CTok::RBrace) && !Tok.is(CTok::Eof)) {
    const CExpr *E = parseInitializer();
    if (!E)
      return nullptr;
    Inits.push_back(E);
    if (!consumeIf(CTok::Comma))
      break;
  }
  expect(CTok::RBrace);
  return Ast.create<CInitList>(Ast.list(Inits), Loc);
}

bool CParser::parseTranslationUnit() {
  while (!Tok.is(CTok::Eof)) {
    if (Diags.shouldBail() || !Diags.checkResources(Tok.Loc)) {
      HadError = true;
      break;
    }
    if (!parseExternalDecl() && Tok.is(CTok::Eof))
      break;
  }
  // Lexer errors (unterminated comments/literals, bad characters) land in
  // the diagnostic engine without setting HadError; count them too.
  return !HadError && Diags.getNumErrors() == InitialErrors;
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

const CStmt *CParser::parseCompoundStmt() {
  SourceLoc Loc = Tok.Loc;
  if (!expect(CTok::LBrace))
    return nullptr;
  pushScope();
  std::vector<const CStmt *> Body;
  while (!Tok.is(CTok::RBrace) && !Tok.is(CTok::Eof)) {
    if (Diags.shouldBail())
      break;
    const CStmt *S = parseStmt();
    if (!S) {
      skipToRecovery();
      continue;
    }
    Body.push_back(S);
  }
  popScope();
  expect(CTok::RBrace);
  return Ast.create<CCompoundStmt>(Ast.list(Body), Loc);
}

const CStmt *CParser::parseStmt() {
  // Nested blocks and control-flow bodies recurse here.
  RecursionGuard Guard(Diags, Tok.Loc);
  if (!Guard.ok())
    return nullptr;
  SourceLoc Loc = Tok.Loc;
  switch (Tok.Kind) {
  case CTok::LBrace:
    return parseCompoundStmt();
  case CTok::Semi:
    advance();
    return Ast.create<CNullStmt>(Loc);
  case CTok::KwIf: {
    advance();
    if (!expect(CTok::LParen))
      return nullptr;
    const CExpr *Cond = parseExpr();
    if (!Cond || !expect(CTok::RParen))
      return nullptr;
    const CStmt *Then = parseStmt();
    if (!Then)
      return nullptr;
    const CStmt *Else = nullptr;
    if (consumeIf(CTok::KwElse)) {
      Else = parseStmt();
      if (!Else)
        return nullptr;
    }
    return Ast.create<CIfStmt>(Cond, Then, Else, Loc);
  }
  case CTok::KwWhile: {
    advance();
    if (!expect(CTok::LParen))
      return nullptr;
    const CExpr *Cond = parseExpr();
    if (!Cond || !expect(CTok::RParen))
      return nullptr;
    const CStmt *Body = parseStmt();
    if (!Body)
      return nullptr;
    return Ast.create<CWhileStmt>(Cond, Body, Loc);
  }
  case CTok::KwDo: {
    advance();
    const CStmt *Body = parseStmt();
    if (!Body || !expect(CTok::KwWhile) || !expect(CTok::LParen))
      return nullptr;
    const CExpr *Cond = parseExpr();
    if (!Cond || !expect(CTok::RParen) || !expect(CTok::Semi))
      return nullptr;
    return Ast.create<CDoWhileStmt>(Body, Cond, Loc);
  }
  case CTok::KwFor: {
    advance();
    if (!expect(CTok::LParen))
      return nullptr;
    const CStmt *Init = nullptr;
    if (!Tok.is(CTok::Semi)) {
      if (atDeclarationStart()) {
        Init = parseStmt(); // declaration statement consumes its ';'
        if (!Init)
          return nullptr;
      } else {
        const CExpr *E = parseExpr();
        if (!E || !expect(CTok::Semi))
          return nullptr;
        Init = Ast.create<CExprStmt>(E, Loc);
      }
    } else {
      advance();
    }
    const CExpr *Cond = nullptr;
    if (!Tok.is(CTok::Semi)) {
      Cond = parseExpr();
      if (!Cond)
        return nullptr;
    }
    if (!expect(CTok::Semi))
      return nullptr;
    const CExpr *Step = nullptr;
    if (!Tok.is(CTok::RParen)) {
      Step = parseExpr();
      if (!Step)
        return nullptr;
    }
    if (!expect(CTok::RParen))
      return nullptr;
    const CStmt *Body = parseStmt();
    if (!Body)
      return nullptr;
    return Ast.create<CForStmt>(Init, Cond, Step, Body, Loc);
  }
  case CTok::KwReturn: {
    advance();
    const CExpr *Value = nullptr;
    if (!Tok.is(CTok::Semi)) {
      Value = parseExpr();
      if (!Value)
        return nullptr;
    }
    if (!expect(CTok::Semi))
      return nullptr;
    return Ast.create<CReturnStmt>(Value, Loc);
  }
  case CTok::KwBreak:
    advance();
    if (!expect(CTok::Semi))
      return nullptr;
    return Ast.create<CBreakStmt>(Loc);
  case CTok::KwContinue:
    advance();
    if (!expect(CTok::Semi))
      return nullptr;
    return Ast.create<CContinueStmt>(Loc);
  case CTok::KwSwitch: {
    advance();
    if (!expect(CTok::LParen))
      return nullptr;
    const CExpr *Cond = parseExpr();
    if (!Cond || !expect(CTok::RParen))
      return nullptr;
    const CStmt *Body = parseStmt();
    if (!Body)
      return nullptr;
    return Ast.create<CSwitchStmt>(Cond, Body, Loc);
  }
  case CTok::KwCase: {
    advance();
    const CExpr *Value = parseConditionalExpr();
    if (!Value || !expect(CTok::Colon))
      return nullptr;
    const CStmt *Sub = parseStmt();
    if (!Sub)
      return nullptr;
    return Ast.create<CCaseStmt>(Value, Sub, Loc);
  }
  case CTok::KwDefault: {
    advance();
    if (!expect(CTok::Colon))
      return nullptr;
    const CStmt *Sub = parseStmt();
    if (!Sub)
      return nullptr;
    return Ast.create<CDefaultStmt>(Sub, Loc);
  }
  case CTok::KwGoto: {
    advance();
    if (!Tok.is(CTok::Ident)) {
      error("expected label after 'goto'");
      return nullptr;
    }
    std::string_view Label = Tok.Text;
    advance();
    if (!expect(CTok::Semi))
      return nullptr;
    return Ast.create<CGotoStmt>(Label, Loc);
  }
  case CTok::Ident:
    // Label?
    if (peek().is(CTok::Colon) && !lookupTypedef(Tok.Name)) {
      std::string_view Label = Tok.Text;
      advance();
      advance();
      const CStmt *Sub = parseStmt();
      if (!Sub)
        return nullptr;
      return Ast.create<CLabelStmt>(Label, Sub, Loc);
    }
    break;
  default:
    break;
  }

  // Local declaration?
  if (atDeclarationStart()) {
    DeclSpec DS;
    if (!parseDeclSpec(DS))
      return nullptr;
    if (consumeIf(CTok::Semi))
      return Ast.create<CNullStmt>(Loc); // bare struct decl in a block
    Declarator First(*this);
    if (!parseDeclarator(First, false))
      return nullptr;
    std::vector<VarDecl *> Vars;
    if (!parseInitDeclarators(DS, First, Vars, /*IsGlobal=*/false))
      return nullptr;
    return Ast.create<CDeclStmt>(Ast.list(Vars), Loc);
  }

  // Expression statement.
  const CExpr *E = parseExpr();
  if (!E || !expect(CTok::Semi))
    return nullptr;
  return Ast.create<CExprStmt>(E, Loc);
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

bool CParser::parseConstantInt(long &Out) {
  // Constant expressions in the subset: integer literals, enum constants,
  // character literals, optional unary minus, sizeof approximations.
  bool Negate = false;
  while (Tok.is(CTok::Minus)) {
    Negate = !Negate;
    advance();
  }
  if (Tok.is(CTok::IntLit) || Tok.is(CTok::CharLit)) {
    Out = Negate ? -Tok.IntValue : Tok.IntValue;
    advance();
    return true;
  }
  if (Tok.is(CTok::Ident)) {
    auto It = TU.EnumConstants.find(Tok.Text);
    if (It != TU.EnumConstants.end()) {
      Out = Negate ? -It->second : It->second;
      advance();
      return true;
    }
  }
  if (Tok.is(CTok::KwSizeof)) {
    // Treat sizeof(...) as 8 in constant contexts; array extents are not
    // semantically relevant to the qualifier analysis.
    advance();
    if (consumeIf(CTok::LParen)) {
      CQualType T;
      if (startsTypeName(Tok)) {
        if (!parseTypeName(T))
          return false;
      } else if (!parseExpr()) {
        return false;
      }
      if (!expect(CTok::RParen))
        return false;
    }
    Out = Negate ? -8 : 8;
    return true;
  }
  error("expected a constant expression");
  return false;
}

const CExpr *CParser::parseExpr() {
  const CExpr *E = parseAssignExpr();
  if (!E)
    return nullptr;
  while (Tok.is(CTok::Comma)) {
    SourceLoc Loc = Tok.Loc;
    advance();
    const CExpr *R = parseAssignExpr();
    if (!R)
      return nullptr;
    E = Ast.create<CComma>(E, R, Loc);
  }
  return E;
}

static bool tokToAssignOp(CTok Kind, BinaryOp &Op) {
  switch (Kind) {
  case CTok::Assign:                Op = BinaryOp::Assign; return true;
  case CTok::PlusAssign:            Op = BinaryOp::AddAssign; return true;
  case CTok::MinusAssign:           Op = BinaryOp::SubAssign; return true;
  case CTok::StarAssign:            Op = BinaryOp::MulAssign; return true;
  case CTok::SlashAssign:           Op = BinaryOp::DivAssign; return true;
  case CTok::PercentAssign:         Op = BinaryOp::RemAssign; return true;
  case CTok::LessLessAssign:        Op = BinaryOp::ShlAssign; return true;
  case CTok::GreaterGreaterAssign:  Op = BinaryOp::ShrAssign; return true;
  case CTok::AmpAssign:             Op = BinaryOp::AndAssign; return true;
  case CTok::PipeAssign:            Op = BinaryOp::OrAssign; return true;
  case CTok::CaretAssign:           Op = BinaryOp::XorAssign; return true;
  default:
    return false;
  }
}

const CExpr *CParser::parseAssignExpr() {
  const CExpr *Lhs = parseConditionalExpr();
  if (!Lhs)
    return nullptr;
  BinaryOp Op;
  if (!tokToAssignOp(Tok.Kind, Op))
    return Lhs;
  SourceLoc Loc = Tok.Loc;
  advance();
  const CExpr *Rhs = parseAssignExpr(); // right-associative
  if (!Rhs)
    return nullptr;
  return Ast.create<CBinary>(Op, Lhs, Rhs, Loc);
}

const CExpr *CParser::parseConditionalExpr() {
  const CExpr *Cond = parseBinaryExpr(0);
  if (!Cond)
    return nullptr;
  if (!Tok.is(CTok::Question))
    return Cond;
  SourceLoc Loc = Tok.Loc;
  advance();
  const CExpr *Then = parseExpr();
  if (!Then || !expect(CTok::Colon))
    return nullptr;
  const CExpr *Else = parseConditionalExpr();
  if (!Else)
    return nullptr;
  return Ast.create<CConditional>(Cond, Then, Else, Loc);
}

namespace {
struct BinOpInfo {
  BinaryOp Op;
  int Prec;
};
} // namespace

static bool tokToBinOp(CTok Kind, BinOpInfo &Info) {
  switch (Kind) {
  case CTok::PipePipe:        Info = {BinaryOp::LOr, 1}; return true;
  case CTok::AmpAmp:          Info = {BinaryOp::LAnd, 2}; return true;
  case CTok::Pipe:            Info = {BinaryOp::Or, 3}; return true;
  case CTok::Caret:           Info = {BinaryOp::Xor, 4}; return true;
  case CTok::Amp:             Info = {BinaryOp::And, 5}; return true;
  case CTok::EqEq:            Info = {BinaryOp::Eq, 6}; return true;
  case CTok::BangEq:          Info = {BinaryOp::Ne, 6}; return true;
  case CTok::Less:            Info = {BinaryOp::Lt, 7}; return true;
  case CTok::Greater:         Info = {BinaryOp::Gt, 7}; return true;
  case CTok::LessEq:          Info = {BinaryOp::Le, 7}; return true;
  case CTok::GreaterEq:       Info = {BinaryOp::Ge, 7}; return true;
  case CTok::LessLess:        Info = {BinaryOp::Shl, 8}; return true;
  case CTok::GreaterGreater:  Info = {BinaryOp::Shr, 8}; return true;
  case CTok::Plus:            Info = {BinaryOp::Add, 9}; return true;
  case CTok::Minus:           Info = {BinaryOp::Sub, 9}; return true;
  case CTok::Star:            Info = {BinaryOp::Mul, 10}; return true;
  case CTok::Slash:           Info = {BinaryOp::Div, 10}; return true;
  case CTok::Percent:         Info = {BinaryOp::Rem, 10}; return true;
  default:
    return false;
  }
}

const CExpr *CParser::parseBinaryExpr(int MinPrec) {
  const CExpr *Lhs = parseCastExpr();
  if (!Lhs)
    return nullptr;
  for (;;) {
    BinOpInfo Info;
    if (!tokToBinOp(Tok.Kind, Info) || Info.Prec < MinPrec)
      return Lhs;
    SourceLoc Loc = Tok.Loc;
    advance();
    const CExpr *Rhs = parseBinaryExpr(Info.Prec + 1);
    if (!Rhs)
      return nullptr;
    Lhs = Ast.create<CBinary>(Info.Op, Lhs, Rhs, Loc);
  }
}

const CExpr *CParser::parseCastExpr() {
  // Every level of expression nesting -- parenthesized expressions, casts,
  // conditional/assignment chains -- owns one frame here.
  RecursionGuard Guard(Diags, Tok.Loc);
  if (!Guard.ok() || !Diags.checkResources(Tok.Loc))
    return nullptr;
  // A cast: '(' type-name ')' cast-expr.
  if (Tok.is(CTok::LParen) && startsTypeName(peek())) {
    SourceLoc Loc = Tok.Loc;
    advance(); // (
    CQualType T;
    if (!parseTypeName(T) || !expect(CTok::RParen))
      return nullptr;
    const CExpr *Operand = parseCastExpr();
    if (!Operand)
      return nullptr;
    return Ast.create<CCast>(T, Operand, Loc);
  }
  return parseUnaryExpr();
}

const CExpr *CParser::parseUnaryExpr() {
  // '++'/'--'/'sizeof' chains recurse here without a parseCastExpr frame.
  RecursionGuard Guard(Diags, Tok.Loc);
  if (!Guard.ok())
    return nullptr;
  SourceLoc Loc = Tok.Loc;
  UnaryOp Op;
  switch (Tok.Kind) {
  case CTok::PlusPlus:   Op = UnaryOp::PreInc; break;
  case CTok::MinusMinus: Op = UnaryOp::PreDec; break;
  case CTok::Amp:        Op = UnaryOp::AddrOf; break;
  case CTok::Star:       Op = UnaryOp::Deref; break;
  case CTok::Plus:       Op = UnaryOp::Plus; break;
  case CTok::Minus:      Op = UnaryOp::Minus; break;
  case CTok::Bang:       Op = UnaryOp::Not; break;
  case CTok::Tilde:      Op = UnaryOp::BitNot; break;
  case CTok::KwSizeof: {
    advance();
    if (Tok.is(CTok::LParen) && startsTypeName(peek())) {
      advance();
      CQualType T;
      if (!parseTypeName(T) || !expect(CTok::RParen))
        return nullptr;
      return Ast.create<CSizeOf>(T, nullptr, Loc);
    }
    const CExpr *E = parseUnaryExpr();
    return E ? Ast.create<CSizeOf>(CQualType(), E, Loc) : nullptr;
  }
  default:
    return parsePostfixExpr();
  }
  advance();
  // '++'/'--' apply to a unary expression, the rest to a cast expression.
  const CExpr *E = Op == UnaryOp::PreInc || Op == UnaryOp::PreDec
                       ? parseUnaryExpr()
                       : parseCastExpr();
  return E ? Ast.create<CUnary>(Op, E, Loc) : nullptr;
}

const CExpr *CParser::parsePostfixExpr() {
  const CExpr *E = parsePrimaryExpr();
  if (!E)
    return nullptr;
  for (;;) {
    SourceLoc Loc = Tok.Loc;
    switch (Tok.Kind) {
    case CTok::LParen: {
      advance();
      std::vector<const CExpr *> Args;
      if (!Tok.is(CTok::RParen)) {
        for (;;) {
          const CExpr *A = parseAssignExpr();
          if (!A)
            return nullptr;
          Args.push_back(A);
          if (!consumeIf(CTok::Comma))
            break;
        }
      }
      if (!expect(CTok::RParen))
        return nullptr;
      E = Ast.create<CCall>(E, Ast.list(Args), Loc);
      break;
    }
    case CTok::LBracket: {
      advance();
      const CExpr *Index = parseExpr();
      if (!Index || !expect(CTok::RBracket))
        return nullptr;
      E = Ast.create<CSubscript>(E, Index, Loc);
      break;
    }
    case CTok::Dot: {
      advance();
      if (!Tok.is(CTok::Ident)) {
        error("expected field name after '.'");
        return nullptr;
      }
      E = Ast.create<CMember>(E, Tok.Text, false, Loc);
      advance();
      break;
    }
    case CTok::Arrow: {
      advance();
      if (!Tok.is(CTok::Ident)) {
        error("expected field name after '->'");
        return nullptr;
      }
      E = Ast.create<CMember>(E, Tok.Text, true, Loc);
      advance();
      break;
    }
    case CTok::PlusPlus:
      advance();
      E = Ast.create<CUnary>(UnaryOp::PostInc, E, Loc);
      break;
    case CTok::MinusMinus:
      advance();
      E = Ast.create<CUnary>(UnaryOp::PostDec, E, Loc);
      break;
    default:
      return E;
    }
  }
}

const CExpr *CParser::parsePrimaryExpr() {
  SourceLoc Loc = Tok.Loc;
  switch (Tok.Kind) {
  case CTok::IntLit:
  case CTok::CharLit: {
    long Value = Tok.IntValue;
    advance();
    return Ast.create<CIntLit>(Value, Loc);
  }
  case CTok::FloatLit: {
    double Value = Tok.FloatValue;
    advance();
    return Ast.create<CFloatLit>(Value, Loc);
  }
  case CTok::StringLit: {
    std::string_view Text = Idents.intern(Tok.Text);
    advance();
    // Adjacent string literal concatenation.
    while (Tok.is(CTok::StringLit))
      advance();
    return Ast.create<CStringLit>(Text, Loc);
  }
  case CTok::Ident: {
    Symbol Name = Tok.Name;
    advance();
    return Ast.create<CDeclRef>(Name, Loc);
  }
  case CTok::LParen: {
    advance();
    const CExpr *E = parseExpr();
    if (!E || !expect(CTok::RParen))
      return nullptr;
    return E;
  }
  default:
    error(std::string("expected an expression but found ") +
          ctokName(Tok.Kind));
    return nullptr;
  }
}

bool quals::cfront::parseCSource(SourceManager &SM, std::string Name,
                                 std::string Source, CAstContext &Ast,
                                 CTypeContext &Types, StringInterner &Idents,
                                 DiagnosticEngine &Diags,
                                 TranslationUnit &TU) {
  std::string TraceArgs =
      "\"file\":\"" + jsonEscape(Name) + "\"";
  unsigned BufferId = SM.addBuffer(std::move(Name), std::move(Source));
  // Lexing is fused into the parse; measure it with a token-counting
  // pre-scan when observability is on (lex diagnostics go to a sink engine
  // -- the parse below re-lexes and re-reports them -- and identifiers to
  // a scratch interner, so the pre-scan pays the parse's interning cost).
  if (observabilityActive()) {
    PhaseScope Phase("lex", "cfront");
    DiagnosticEngine Sink(SM);
    StringInterner ScratchIdents;
    CLexer L(SM, BufferId, Sink, ScratchIdents);
    uint64_t Tokens = 0;
    while (L.next().Kind != CTok::Eof)
      ++Tokens;
    Phase.setTraceArgs(TraceArgs + ",\"tokens\":" + std::to_string(Tokens));
    if (MetricsRegistry::collecting())
      MetricsRegistry::global().counter("cfront.lex.tokens").add(Tokens);
  }
  PhaseScope Phase("parse", "cfront");
  Phase.setTraceArgs(std::move(TraceArgs));
  CParser P(SM, BufferId, Ast, Types, Idents, Diags, TU);
  return P.parseTranslationUnit();
}
