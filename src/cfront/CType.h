//===- cfront/CType.h - C types ----------------------------------*- C++ -*-===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// C types for the const-inference front end. Section 4.1 of the paper:
/// C types already contain qualifiers (CTyp ::= Q int | Q ptr(CTyp)), and
/// the analysis translates them into qualified ref types. This header
/// models the source-level types; constinf/RefTypes.h performs the
/// translation.
///
//===----------------------------------------------------------------------===//

#ifndef QUALS_CFRONT_CTYPE_H
#define QUALS_CFRONT_CTYPE_H

#include "support/Allocator.h"
#include "support/Casting.h"

#include <cassert>
#include <span>
#include <string>

namespace quals {
namespace cfront {

class CType;
class RecordDecl;
class EnumDecl;

/// Source-level qualifier bits on a C type.
enum CQualBits : unsigned {
  CQ_None = 0,
  CQ_Const = 1u << 0,
  CQ_Volatile = 1u << 1
};

/// A C type together with its source qualifiers (clang-style QualType).
class CQualType {
public:
  CQualType() : Ty(nullptr), Quals(CQ_None) {}
  CQualType(const CType *Ty, unsigned Quals = CQ_None)
      : Ty(Ty), Quals(Quals) {}

  bool isNull() const { return Ty == nullptr; }
  const CType *getType() const { return Ty; }
  unsigned getQuals() const { return Quals; }
  bool isConst() const { return Quals & CQ_Const; }
  bool isVolatile() const { return Quals & CQ_Volatile; }

  CQualType withoutConst() const { return CQualType(Ty, Quals & ~CQ_Const); }
  CQualType withQuals(unsigned Q) const { return CQualType(Ty, Quals | Q); }

private:
  const CType *Ty;
  unsigned Quals;
};

/// Base class of all C types (kind-tag RTTI).
class CType {
public:
  enum class Kind {
    Builtin,
    Pointer,
    Array,
    Function,
    Record,
    Enum
  };

  Kind getKind() const { return TheKind; }

protected:
  explicit CType(Kind K) : TheKind(K) {}

private:
  Kind TheKind;
};

/// void / char / int / double, etc.
class BuiltinType : public CType {
public:
  enum class Id {
    Void,
    Char, SChar, UChar,
    Short, UShort,
    Int, UInt,
    Long, ULong,
    Float, Double
  };

  explicit BuiltinType(Id TheId) : CType(Kind::Builtin), TheId(TheId) {}
  Id getId() const { return TheId; }
  bool isVoid() const { return TheId == Id::Void; }
  bool isInteger() const {
    return TheId != Id::Void && TheId != Id::Float && TheId != Id::Double;
  }
  static bool classof(const CType *T) { return T->getKind() == Kind::Builtin; }

private:
  Id TheId;
};

/// T *
class PointerType : public CType {
public:
  explicit PointerType(CQualType Pointee)
      : CType(Kind::Pointer), Pointee(Pointee) {}
  CQualType getPointee() const { return Pointee; }
  static bool classof(const CType *T) { return T->getKind() == Kind::Pointer; }

private:
  CQualType Pointee;
};

/// T [N]  (Size < 0 when unspecified)
class ArrayType : public CType {
public:
  ArrayType(CQualType Element, long Size)
      : CType(Kind::Array), Element(Element), Size(Size) {}
  CQualType getElement() const { return Element; }
  long getSize() const { return Size; }
  static bool classof(const CType *T) { return T->getKind() == Kind::Array; }

private:
  CQualType Element;
  long Size;
};

/// T (params...)
class FunctionType : public CType {
public:
  FunctionType(CQualType Ret, std::span<const CQualType> Params,
               bool Variadic, bool NoPrototype)
      : CType(Kind::Function), Ret(Ret), Params(Params), Variadic(Variadic),
        NoPrototype(NoPrototype) {}
  CQualType getReturn() const { return Ret; }
  std::span<const CQualType> getParams() const { return Params; }
  bool isVariadic() const { return Variadic; }
  /// True for K&R-style "T f()" declarations with unknown parameters.
  bool hasNoPrototype() const { return NoPrototype; }
  static bool classof(const CType *T) {
    return T->getKind() == Kind::Function;
  }

private:
  CQualType Ret;
  std::span<const CQualType> Params;
  bool Variadic;
  bool NoPrototype;
};

/// struct S / union U (fields live on the RecordDecl).
class RecordType : public CType {
public:
  explicit RecordType(RecordDecl *Decl) : CType(Kind::Record), Decl(Decl) {}
  RecordDecl *getDecl() const { return Decl; }
  static bool classof(const CType *T) { return T->getKind() == Kind::Record; }

private:
  RecordDecl *Decl;
};

/// enum E.
class EnumType : public CType {
public:
  explicit EnumType(EnumDecl *Decl) : CType(Kind::Enum), Decl(Decl) {}
  EnumDecl *getDecl() const { return Decl; }
  static bool classof(const CType *T) { return T->getKind() == Kind::Enum; }

private:
  EnumDecl *Decl;
};

/// Allocates C types; builtins are shared singletons.
class CTypeContext {
public:
  CTypeContext();

  const BuiltinType *getBuiltin(BuiltinType::Id Id) const {
    return Builtins[static_cast<unsigned>(Id)];
  }
  const BuiltinType *getInt() const {
    return getBuiltin(BuiltinType::Id::Int);
  }
  const BuiltinType *getChar() const {
    return getBuiltin(BuiltinType::Id::Char);
  }
  const BuiltinType *getDouble() const {
    return getBuiltin(BuiltinType::Id::Double);
  }

  const PointerType *getPointer(CQualType Pointee) {
    return Arena.create<PointerType>(Pointee);
  }
  const ArrayType *getArray(CQualType Element, long Size) {
    return Arena.create<ArrayType>(Element, Size);
  }
  /// Copies \p Params into the arena.
  const FunctionType *getFunction(CQualType Ret,
                                  std::span<const CQualType> Params,
                                  bool Variadic, bool NoPrototype = false) {
    std::span<const CQualType> Copy(
        Arena.copyArray(Params.data(), Params.size()), Params.size());
    return Arena.create<FunctionType>(Ret, Copy, Variadic, NoPrototype);
  }
  const RecordType *getRecord(RecordDecl *Decl) {
    return Arena.create<RecordType>(Decl);
  }
  const EnumType *getEnum(EnumDecl *Decl) {
    return Arena.create<EnumType>(Decl);
  }

private:
  BumpPtrAllocator Arena;
  const BuiltinType *Builtins[12];
};

/// True if \p T behaves as an integer (including enums) in conditions and
/// arithmetic.
bool isIntegerLike(const CType *T);

/// True if \p T is a scalar (integer, floating, or pointer).
bool isScalar(const CType *T);

/// Renders \p T in C-ish syntax ("const int *", "int (*)(char *)").
std::string toString(CQualType T);

/// Appends toString(\p T) to \p Out.
void appendType(CQualType T, std::string &Out);

} // namespace cfront
} // namespace quals

#endif // QUALS_CFRONT_CTYPE_H
