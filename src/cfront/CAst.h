//===- cfront/CAst.h - C declarations, statements, expressions --*- C++ -*-===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AST for the C-subset front end. Arena-allocated, kind-tag RTTI. Every
/// node is trivially destructible: child lists are spans over arena arrays
/// (CAstContext::list), so the arena frees a whole AST with its slabs.
/// Expressions carry the type computed by semantic analysis (CSema) plus an
/// l-value flag -- the distinction Section 4.1 builds on (every C variable
/// is an updateable ref; r-value uses auto-dereference).
///
//===----------------------------------------------------------------------===//

#ifndef QUALS_CFRONT_CAST_H
#define QUALS_CFRONT_CAST_H

#include "cfront/CType.h"
#include "support/SourceLoc.h"
#include "support/StringInterner.h"

#include <span>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

namespace quals {
namespace cfront {

class CAstContext;
class CExpr;
class CStmt;
class VarDecl;

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

/// Storage class of a declaration.
enum class StorageClass { None, Typedef, Extern, Static, Register, Auto };

/// Base class of all declarations.
class CDecl {
public:
  enum class Kind { Var, Function, Record, Enum, Typedef, Field };

  static constexpr unsigned NumKinds = static_cast<unsigned>(Kind::Field) + 1;

  Kind getKind() const { return TheKind; }
  SourceLoc getLoc() const { return Loc; }
  std::string_view getName() const { return Name.str(); }
  /// The interned name: sema resolves a CDeclRef by comparing Symbols.
  Symbol getSymbol() const { return Name; }
  /// Dense per-kind id assigned by CAstContext::create: the declarations of
  /// one kind in one context are numbered 0, 1, 2, ... in creation order,
  /// so later passes index plain arrays by it instead of hashing pointers.
  unsigned getId() const { return Id; }

protected:
  CDecl(Kind K, Symbol Name, SourceLoc Loc)
      : TheKind(K), Name(Name), Loc(Loc) {}

private:
  friend class CAstContext;

  Kind TheKind;
  unsigned Id = 0;
  Symbol Name;
  SourceLoc Loc;
};

/// A variable or parameter.
class VarDecl : public CDecl {
public:
  VarDecl(Symbol Name, CQualType Type, StorageClass SC,
          bool IsParam, SourceLoc Loc)
      : CDecl(Kind::Var, Name, Loc), Type(Type), SC(SC), IsParam(IsParam) {}

  CQualType getType() const { return Type; }
  StorageClass getStorageClass() const { return SC; }
  bool isParam() const { return IsParam; }
  const CExpr *getInit() const { return Init; }
  void setInit(const CExpr *E) { Init = E; }
  bool isGlobal() const { return Global; }
  void setGlobal(bool G) { Global = G; }
  /// False only for an `extern` declaration without an initializer, which
  /// names storage defined elsewhere.
  bool isDefinition() const { return SC != StorageClass::Extern || Init; }

  static bool classof(const CDecl *D) { return D->getKind() == Kind::Var; }

private:
  CQualType Type;
  StorageClass SC;
  bool IsParam;
  bool Global = false;
  const CExpr *Init = nullptr;
};

/// A struct/union field.
class FieldDecl : public CDecl {
public:
  FieldDecl(Symbol Name, CQualType Type, unsigned Index,
            SourceLoc Loc)
      : CDecl(Kind::Field, Name, Loc), Type(Type), Index(Index) {}
  CQualType getType() const { return Type; }
  unsigned getIndex() const { return Index; }
  static bool classof(const CDecl *D) { return D->getKind() == Kind::Field; }

private:
  CQualType Type;
  unsigned Index;
};

/// struct S { ... } or union U { ... }. Definitions may be completed after
/// first (forward) use.
class RecordDecl : public CDecl {
public:
  RecordDecl(Symbol Tag, bool IsUnion, SourceLoc Loc)
      : CDecl(Kind::Record, Tag, Loc), IsUnion(IsUnion) {}

  bool isUnion() const { return IsUnion; }
  bool isComplete() const { return Complete; }
  void complete(std::span<FieldDecl *const> TheFields) {
    Fields = TheFields;
    Complete = true;
  }
  std::span<FieldDecl *const> getFields() const { return Fields; }
  FieldDecl *findField(std::string_view Name) const {
    for (FieldDecl *F : Fields)
      if (F->getName() == Name)
        return F;
    return nullptr;
  }

  static bool classof(const CDecl *D) { return D->getKind() == Kind::Record; }

private:
  bool IsUnion;
  bool Complete = false;
  std::span<FieldDecl *const> Fields;
};

/// enum E { A, B = 4 }. The enumerators' values live in
/// TranslationUnit::EnumConstants.
class EnumDecl : public CDecl {
public:
  EnumDecl(Symbol Tag, SourceLoc Loc)
      : CDecl(Kind::Enum, Tag, Loc) {}
  static bool classof(const CDecl *D) { return D->getKind() == Kind::Enum; }
};

/// typedef T Name. Per Section 4.2, typedefs are macro-expanded: the
/// underlying type is substituted at use sites with fresh qualifier
/// variables, so distinct declarations do not share qualifiers.
class TypedefDecl : public CDecl {
public:
  TypedefDecl(Symbol Name, CQualType Underlying, SourceLoc Loc)
      : CDecl(Kind::Typedef, Name, Loc), Underlying(Underlying) {}
  CQualType getUnderlying() const { return Underlying; }
  static bool classof(const CDecl *D) {
    return D->getKind() == Kind::Typedef;
  }

private:
  CQualType Underlying;
};

/// A function declaration or definition.
class FunctionDecl : public CDecl {
public:
  FunctionDecl(Symbol Name, const FunctionType *Type,
               std::span<VarDecl *const> Params, StorageClass SC,
               SourceLoc Loc)
      : CDecl(Kind::Function, Name, Loc), Type(Type), Params(Params),
        SC(SC) {}

  const FunctionType *getType() const { return Type; }
  std::span<VarDecl *const> getParams() const { return Params; }
  StorageClass getStorageClass() const { return SC; }
  const CStmt *getBody() const { return Body; }
  void setBody(const CStmt *B) { Body = B; }
  bool isDefined() const { return Body != nullptr; }
  /// True when the program never defines this function (library function,
  /// Section 4.2's conservative handling).
  bool isImplicit() const { return Implicit; }
  void setImplicit(bool I) { Implicit = I; }
  /// Index of this declaration in TranslationUnit::Functions, so a
  /// definition completing a prototype replaces it in O(1) -- also when the
  /// prototype was parsed from another buffer of the same unit.
  unsigned getFunctionIndex() const { return FunctionIndex; }
  void setFunctionIndex(unsigned I) { FunctionIndex = I; }
  /// Every occurrence of a function name in the body, in body order --
  /// calls, designators, implicit declarations -- recorded by CSema. These
  /// are the function dependence graph's edges (Definition 4, constinf/Fdg).
  std::span<const FunctionDecl *const> getUses() const { return Uses; }
  void setUses(std::span<const FunctionDecl *const> U) { Uses = U; }

  static bool classof(const CDecl *D) {
    return D->getKind() == Kind::Function;
  }

private:
  const FunctionType *Type;
  std::span<VarDecl *const> Params;
  StorageClass SC;
  const CStmt *Body = nullptr;
  std::span<const FunctionDecl *const> Uses;
  bool Implicit = false;
  unsigned FunctionIndex = 0;
};

/// A whole translation unit (or several merged ones; the paper analyzes
/// multi-file programs at once).
struct TranslationUnit {
  std::vector<CDecl *> Decls;
  /// Function definitions and declarations, in order of appearance.
  std::vector<FunctionDecl *> Functions;
  /// File-scope variables.
  std::vector<VarDecl *> Globals;
  /// All record declarations (for struct-field sharing in constinf).
  std::vector<RecordDecl *> Records;
  /// Functions by name; redeclarations across buffers merge here.
  std::unordered_map<std::string_view, FunctionDecl *> FunctionMap;
  /// File-scope variables by name.
  std::unordered_map<std::string_view, VarDecl *> GlobalMap;
  /// Enumerator constants (flat namespace; adequate for the subset).
  std::unordered_map<std::string_view, long> EnumConstants;
  /// The context owning this unit's declarations (set by the parser; null
  /// until a buffer is parsed into the unit).
  const CAstContext *Context = nullptr;

  /// Declarations of kind \p K created in Context: the exact size of a
  /// table indexed by CDecl::getId() over this unit's declarations.
  unsigned numDecls(CDecl::Kind K) const;
};

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

/// Base class of C expressions. Sema fills Type and LValue.
class CExpr {
public:
  enum class Kind {
    IntLit,
    FloatLit,
    StringLit,
    DeclRef,
    Unary,
    Binary,
    Conditional,
    Call,
    Member,
    Subscript,
    Cast,
    SizeOf,
    Comma,
    InitList
  };

  Kind getKind() const { return TheKind; }
  SourceLoc getLoc() const { return Loc; }

  CQualType getType() const { return Type; }
  void setType(CQualType T) const { Type = T; }
  bool isLValue() const { return LValue; }
  void setLValue(bool L) const { LValue = L; }

protected:
  CExpr(Kind K, SourceLoc Loc) : TheKind(K), Loc(Loc) {}

private:
  Kind TheKind;
  SourceLoc Loc;
  // Written by semantic analysis after construction; the AST is otherwise
  // immutable, so these are the usual analysis side-tables folded in.
  mutable CQualType Type;
  mutable bool LValue = false;
};

/// Integer or character literal.
class CIntLit : public CExpr {
public:
  CIntLit(long Value, SourceLoc Loc) : CExpr(Kind::IntLit, Loc), Value(Value) {}
  long getValue() const { return Value; }
  static bool classof(const CExpr *E) { return E->getKind() == Kind::IntLit; }

private:
  long Value;
};

/// Floating literal.
class CFloatLit : public CExpr {
public:
  CFloatLit(double Value, SourceLoc Loc)
      : CExpr(Kind::FloatLit, Loc), Value(Value) {}
  double getValue() const { return Value; }
  static bool classof(const CExpr *E) {
    return E->getKind() == Kind::FloatLit;
  }

private:
  double Value;
};

/// String literal (type char[N] / decays to char *).
class CStringLit : public CExpr {
public:
  CStringLit(std::string_view Text, SourceLoc Loc)
      : CExpr(Kind::StringLit, Loc), Text(Text) {}
  std::string_view getText() const { return Text; }
  static bool classof(const CExpr *E) {
    return E->getKind() == Kind::StringLit;
  }

private:
  std::string_view Text;
};

/// Reference to a variable, function, or enumerator.
class CDeclRef : public CExpr {
public:
  CDeclRef(Symbol Name, SourceLoc Loc)
      : CExpr(Kind::DeclRef, Loc), Name(Name) {}
  std::string_view getName() const { return Name.str(); }
  Symbol getSymbol() const { return Name; }
  const CDecl *getDecl() const { return Decl; }
  void setDecl(const CDecl *D) const { Decl = D; }
  static bool classof(const CExpr *E) { return E->getKind() == Kind::DeclRef; }

private:
  Symbol Name;
  mutable const CDecl *Decl = nullptr;
};

/// Unary operators.
enum class UnaryOp {
  Deref,     ///< *p
  AddrOf,    ///< &x
  Plus,      ///< +e
  Minus,     ///< -e
  Not,       ///< !e
  BitNot,    ///< ~e
  PreInc, PreDec, PostInc, PostDec
};

class CUnary : public CExpr {
public:
  CUnary(UnaryOp Op, const CExpr *Operand, SourceLoc Loc)
      : CExpr(Kind::Unary, Loc), Op(Op), Operand(Operand) {}
  UnaryOp getOp() const { return Op; }
  const CExpr *getOperand() const { return Operand; }
  static bool classof(const CExpr *E) { return E->getKind() == Kind::Unary; }

private:
  UnaryOp Op;
  const CExpr *Operand;
};

/// Binary (and assignment) operators.
enum class BinaryOp {
  Add, Sub, Mul, Div, Rem,
  Shl, Shr, And, Or, Xor,
  LAnd, LOr,
  Lt, Gt, Le, Ge, Eq, Ne,
  Assign,
  AddAssign, SubAssign, MulAssign, DivAssign, RemAssign,
  ShlAssign, ShrAssign, AndAssign, OrAssign, XorAssign
};

/// True for '=' and the compound assignments.
bool isAssignmentOp(BinaryOp Op);

class CBinary : public CExpr {
public:
  CBinary(BinaryOp Op, const CExpr *Lhs, const CExpr *Rhs, SourceLoc Loc)
      : CExpr(Kind::Binary, Loc), Op(Op), Lhs(Lhs), Rhs(Rhs) {}
  BinaryOp getOp() const { return Op; }
  const CExpr *getLhs() const { return Lhs; }
  const CExpr *getRhs() const { return Rhs; }
  static bool classof(const CExpr *E) { return E->getKind() == Kind::Binary; }

private:
  BinaryOp Op;
  const CExpr *Lhs;
  const CExpr *Rhs;
};

/// c ? t : f.
class CConditional : public CExpr {
public:
  CConditional(const CExpr *Cond, const CExpr *Then, const CExpr *Else,
               SourceLoc Loc)
      : CExpr(Kind::Conditional, Loc), Cond(Cond), Then(Then), Else(Else) {}
  const CExpr *getCond() const { return Cond; }
  const CExpr *getThen() const { return Then; }
  const CExpr *getElse() const { return Else; }
  static bool classof(const CExpr *E) {
    return E->getKind() == Kind::Conditional;
  }

private:
  const CExpr *Cond;
  const CExpr *Then;
  const CExpr *Else;
};

/// f(args...).
class CCall : public CExpr {
public:
  CCall(const CExpr *Callee, std::span<const CExpr *const> Args,
        SourceLoc Loc)
      : CExpr(Kind::Call, Loc), Callee(Callee), Args(Args) {}
  const CExpr *getCallee() const { return Callee; }
  std::span<const CExpr *const> getArgs() const { return Args; }
  static bool classof(const CExpr *E) { return E->getKind() == Kind::Call; }

private:
  const CExpr *Callee;
  std::span<const CExpr *const> Args;
};

/// base.field or base->field.
class CMember : public CExpr {
public:
  CMember(const CExpr *Base, std::string_view Field, bool IsArrow,
          SourceLoc Loc)
      : CExpr(Kind::Member, Loc), Base(Base), Field(Field), IsArrow(IsArrow) {}
  const CExpr *getBase() const { return Base; }
  std::string_view getFieldName() const { return Field; }
  bool isArrow() const { return IsArrow; }
  const FieldDecl *getField() const { return ResolvedField; }
  void setField(const FieldDecl *F) const { ResolvedField = F; }
  static bool classof(const CExpr *E) { return E->getKind() == Kind::Member; }

private:
  const CExpr *Base;
  std::string_view Field;
  bool IsArrow;
  mutable const FieldDecl *ResolvedField = nullptr;
};

/// base[index].
class CSubscript : public CExpr {
public:
  CSubscript(const CExpr *Base, const CExpr *Index, SourceLoc Loc)
      : CExpr(Kind::Subscript, Loc), Base(Base), Index(Index) {}
  const CExpr *getBase() const { return Base; }
  const CExpr *getIndex() const { return Index; }
  static bool classof(const CExpr *E) {
    return E->getKind() == Kind::Subscript;
  }

private:
  const CExpr *Base;
  const CExpr *Index;
};

/// (T)e -- explicit casts sever qualifier flow (Section 4.2).
class CCast : public CExpr {
public:
  CCast(CQualType TargetType, const CExpr *Operand, SourceLoc Loc)
      : CExpr(Kind::Cast, Loc), TargetType(TargetType), Operand(Operand) {}
  CQualType getTargetType() const { return TargetType; }
  const CExpr *getOperand() const { return Operand; }
  static bool classof(const CExpr *E) { return E->getKind() == Kind::Cast; }

private:
  CQualType TargetType;
  const CExpr *Operand;
};

/// sizeof(T) or sizeof e.
class CSizeOf : public CExpr {
public:
  CSizeOf(CQualType ArgType, const CExpr *ArgExpr, SourceLoc Loc)
      : CExpr(Kind::SizeOf, Loc), ArgType(ArgType), ArgExpr(ArgExpr) {}
  CQualType getArgType() const { return ArgType; }
  const CExpr *getArgExpr() const { return ArgExpr; }
  static bool classof(const CExpr *E) { return E->getKind() == Kind::SizeOf; }

private:
  CQualType ArgType;      ///< Null when the operand is an expression.
  const CExpr *ArgExpr;   ///< Null when the operand is a type.
};

/// a, b.
class CComma : public CExpr {
public:
  CComma(const CExpr *Lhs, const CExpr *Rhs, SourceLoc Loc)
      : CExpr(Kind::Comma, Loc), Lhs(Lhs), Rhs(Rhs) {}
  const CExpr *getLhs() const { return Lhs; }
  const CExpr *getRhs() const { return Rhs; }
  static bool classof(const CExpr *E) { return E->getKind() == Kind::Comma; }

private:
  const CExpr *Lhs;
  const CExpr *Rhs;
};

/// { e1, e2, ... } initializer list.
class CInitList : public CExpr {
public:
  CInitList(std::span<const CExpr *const> Inits, SourceLoc Loc)
      : CExpr(Kind::InitList, Loc), Inits(Inits) {}
  std::span<const CExpr *const> getInits() const { return Inits; }
  static bool classof(const CExpr *E) {
    return E->getKind() == Kind::InitList;
  }

private:
  std::span<const CExpr *const> Inits;
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

class CStmt {
public:
  enum class Kind {
    Compound,
    Expr,
    Decl,
    If,
    While,
    DoWhile,
    For,
    Return,
    Break,
    Continue,
    Switch,
    Case,
    Default,
    Null,
    Goto,
    Label
  };

  Kind getKind() const { return TheKind; }
  SourceLoc getLoc() const { return Loc; }

protected:
  CStmt(Kind K, SourceLoc Loc) : TheKind(K), Loc(Loc) {}

private:
  Kind TheKind;
  SourceLoc Loc;
};

class CCompoundStmt : public CStmt {
public:
  CCompoundStmt(std::span<const CStmt *const> Body, SourceLoc Loc)
      : CStmt(Kind::Compound, Loc), Body(Body) {}
  std::span<const CStmt *const> getBody() const { return Body; }
  static bool classof(const CStmt *S) {
    return S->getKind() == Kind::Compound;
  }

private:
  std::span<const CStmt *const> Body;
};

class CExprStmt : public CStmt {
public:
  CExprStmt(const CExpr *E, SourceLoc Loc) : CStmt(Kind::Expr, Loc), E(E) {}
  const CExpr *getExpr() const { return E; }
  static bool classof(const CStmt *S) { return S->getKind() == Kind::Expr; }

private:
  const CExpr *E;
};

/// A local declaration statement (possibly several declarators).
class CDeclStmt : public CStmt {
public:
  CDeclStmt(std::span<VarDecl *const> Decls, SourceLoc Loc)
      : CStmt(Kind::Decl, Loc), Decls(Decls) {}
  std::span<VarDecl *const> getDecls() const { return Decls; }
  static bool classof(const CStmt *S) { return S->getKind() == Kind::Decl; }

private:
  std::span<VarDecl *const> Decls;
};

class CIfStmt : public CStmt {
public:
  CIfStmt(const CExpr *Cond, const CStmt *Then, const CStmt *Else,
          SourceLoc Loc)
      : CStmt(Kind::If, Loc), Cond(Cond), Then(Then), Else(Else) {}
  const CExpr *getCond() const { return Cond; }
  const CStmt *getThen() const { return Then; }
  const CStmt *getElse() const { return Else; } ///< May be null.
  static bool classof(const CStmt *S) { return S->getKind() == Kind::If; }

private:
  const CExpr *Cond;
  const CStmt *Then;
  const CStmt *Else;
};

class CWhileStmt : public CStmt {
public:
  CWhileStmt(const CExpr *Cond, const CStmt *Body, SourceLoc Loc)
      : CStmt(Kind::While, Loc), Cond(Cond), Body(Body) {}
  const CExpr *getCond() const { return Cond; }
  const CStmt *getBody() const { return Body; }
  static bool classof(const CStmt *S) { return S->getKind() == Kind::While; }

private:
  const CExpr *Cond;
  const CStmt *Body;
};

class CDoWhileStmt : public CStmt {
public:
  CDoWhileStmt(const CStmt *Body, const CExpr *Cond, SourceLoc Loc)
      : CStmt(Kind::DoWhile, Loc), Body(Body), Cond(Cond) {}
  const CStmt *getBody() const { return Body; }
  const CExpr *getCond() const { return Cond; }
  static bool classof(const CStmt *S) {
    return S->getKind() == Kind::DoWhile;
  }

private:
  const CStmt *Body;
  const CExpr *Cond;
};

class CForStmt : public CStmt {
public:
  CForStmt(const CStmt *Init, const CExpr *Cond, const CExpr *Step,
           const CStmt *Body, SourceLoc Loc)
      : CStmt(Kind::For, Loc), Init(Init), Cond(Cond), Step(Step),
        Body(Body) {}
  const CStmt *getInit() const { return Init; } ///< May be null.
  const CExpr *getCond() const { return Cond; } ///< May be null.
  const CExpr *getStep() const { return Step; } ///< May be null.
  const CStmt *getBody() const { return Body; }
  static bool classof(const CStmt *S) { return S->getKind() == Kind::For; }

private:
  const CStmt *Init;
  const CExpr *Cond;
  const CExpr *Step;
  const CStmt *Body;
};

class CReturnStmt : public CStmt {
public:
  CReturnStmt(const CExpr *Value, SourceLoc Loc)
      : CStmt(Kind::Return, Loc), Value(Value) {}
  const CExpr *getValue() const { return Value; } ///< May be null.
  static bool classof(const CStmt *S) { return S->getKind() == Kind::Return; }

private:
  const CExpr *Value;
};

class CBreakStmt : public CStmt {
public:
  explicit CBreakStmt(SourceLoc Loc) : CStmt(Kind::Break, Loc) {}
  static bool classof(const CStmt *S) { return S->getKind() == Kind::Break; }
};

class CContinueStmt : public CStmt {
public:
  explicit CContinueStmt(SourceLoc Loc) : CStmt(Kind::Continue, Loc) {}
  static bool classof(const CStmt *S) {
    return S->getKind() == Kind::Continue;
  }
};

class CSwitchStmt : public CStmt {
public:
  CSwitchStmt(const CExpr *Cond, const CStmt *Body, SourceLoc Loc)
      : CStmt(Kind::Switch, Loc), Cond(Cond), Body(Body) {}
  const CExpr *getCond() const { return Cond; }
  const CStmt *getBody() const { return Body; }
  static bool classof(const CStmt *S) { return S->getKind() == Kind::Switch; }

private:
  const CExpr *Cond;
  const CStmt *Body;
};

class CCaseStmt : public CStmt {
public:
  CCaseStmt(const CExpr *Value, const CStmt *Sub, SourceLoc Loc)
      : CStmt(Kind::Case, Loc), Value(Value), Sub(Sub) {}
  const CExpr *getValue() const { return Value; }
  const CStmt *getSub() const { return Sub; }
  static bool classof(const CStmt *S) { return S->getKind() == Kind::Case; }

private:
  const CExpr *Value;
  const CStmt *Sub;
};

class CDefaultStmt : public CStmt {
public:
  CDefaultStmt(const CStmt *Sub, SourceLoc Loc)
      : CStmt(Kind::Default, Loc), Sub(Sub) {}
  const CStmt *getSub() const { return Sub; }
  static bool classof(const CStmt *S) {
    return S->getKind() == Kind::Default;
  }

private:
  const CStmt *Sub;
};

class CNullStmt : public CStmt {
public:
  explicit CNullStmt(SourceLoc Loc) : CStmt(Kind::Null, Loc) {}
  static bool classof(const CStmt *S) { return S->getKind() == Kind::Null; }
};

class CGotoStmt : public CStmt {
public:
  CGotoStmt(std::string_view Label, SourceLoc Loc)
      : CStmt(Kind::Goto, Loc), Label(Label) {}
  std::string_view getLabel() const { return Label; }
  static bool classof(const CStmt *S) { return S->getKind() == Kind::Goto; }

private:
  std::string_view Label;
};

class CLabelStmt : public CStmt {
public:
  CLabelStmt(std::string_view Label, const CStmt *Sub, SourceLoc Loc)
      : CStmt(Kind::Label, Loc), Label(Label), Sub(Sub) {}
  std::string_view getLabel() const { return Label; }
  const CStmt *getSub() const { return Sub; }
  static bool classof(const CStmt *S) { return S->getKind() == Kind::Label; }

private:
  std::string_view Label;
  const CStmt *Sub;
};

/// Owns the arena behind a translation unit's AST and numbers its
/// declarations (CDecl::getId).
class CAstContext {
public:
  template <typename T, typename... Args> T *create(Args &&...A) {
    T *Node = Arena.create<T>(std::forward<Args>(A)...);
    if constexpr (std::is_base_of_v<CDecl, T>)
      Node->Id = NumDecls[static_cast<unsigned>(Node->getKind())]++;
    return Node;
  }

  /// Copies \p V into the arena: the child list of a node.
  template <typename T> std::span<const T> list(std::span<const T> V) {
    return {Arena.copyArray(V.data(), V.size()), V.size()};
  }
  template <typename T> std::span<const T> list(const std::vector<T> &V) {
    return list(std::span<const T>(V));
  }

  /// Declarations of kind \p K created so far; their ids are [0, count).
  unsigned numDecls(CDecl::Kind K) const {
    return NumDecls[static_cast<unsigned>(K)];
  }

private:
  BumpPtrAllocator Arena;
  unsigned NumDecls[CDecl::NumKinds] = {};
};

inline unsigned TranslationUnit::numDecls(CDecl::Kind K) const {
  return Context ? Context->numDecls(K) : 0;
}

} // namespace cfront
} // namespace quals

#endif // QUALS_CFRONT_CAST_H
