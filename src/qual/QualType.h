//===- qual/QualType.h - Qualified types over user constructors -*- C++ -*-===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's qualified types (Section 2.1):
///
///   QTyp ::= Q tau      tau ::= c(QTyp_1, ..., QTyp_arity(c))
///
/// Types are terms over a user-registered signature of type constructors,
/// with a qualifier expression on every level. Each constructor declares the
/// *variance* of each argument position, which drives the structural
/// subtyping decomposition (Subtype.h): functions are contravariant in the
/// domain and covariant in the range (SubFun), updateable references are
/// invariant in their contents (SubRef -- the paper's fix for the classic
/// unsound ref-subtyping rule).
///
/// Type variables are not needed at this level: per the paper's two-phase
/// factorization, the standard type system resolves all type structure
/// *before* qualifier inference, so qualified types are always fully
/// constructed (Observation 1: qualifiers never change the type structure).
///
//===----------------------------------------------------------------------===//

#ifndef QUALS_QUAL_QUALTYPE_H
#define QUALS_QUAL_QUALTYPE_H

#include "qual/ConstraintSystem.h"
#include "qual/QualExpr.h"
#include "support/Allocator.h"

#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace quals {

/// Subtyping behaviour of one constructor argument position.
enum class Variance {
  Covariant,     ///< arg_1 <= arg_2 required (e.g. function results).
  Contravariant, ///< arg_2 <= arg_1 required (e.g. function parameters).
  Invariant      ///< arg_1 = arg_2 required (e.g. ref contents, SubRef).
};

/// How a constructor renders in pretty-printed types.
enum class PrintStyle {
  Prefix, ///< name(arg1, arg2)  -- and bare "name" for arity 0.
  Infix   ///< (arg1 name arg2)  -- arity-2 only, e.g. "->".
};

/// A type constructor c in Sigma with its arity and per-argument variance.
class TypeCtor {
public:
  TypeCtor(std::string Name, std::vector<Variance> ArgVariance,
           PrintStyle Style = PrintStyle::Prefix)
      : Name(std::move(Name)), ArgVariance(std::move(ArgVariance)),
        Style(Style) {
    assert((Style != PrintStyle::Infix || arity() == 2) &&
           "infix constructors must be binary");
  }

  const std::string &getName() const { return Name; }
  unsigned arity() const { return ArgVariance.size(); }
  Variance getVariance(unsigned Arg) const {
    assert(Arg < ArgVariance.size() && "argument index out of range");
    return ArgVariance[Arg];
  }
  PrintStyle getPrintStyle() const { return Style; }

private:
  std::string Name;
  std::vector<Variance> ArgVariance;
  PrintStyle Style;
};

class QualType;

/// Arena-allocated application of a constructor to qualified-type arguments.
struct ShapeNode {
  const TypeCtor *Ctor;
  const QualType *Args; ///< Arena array of Ctor->arity() children.
};

/// A qualified type Q tau: a qualifier expression plus a shape. Cheap value
/// type (two words + qual expr); shapes are interned per factory call.
class QualType {
public:
  QualType() : Shape(nullptr) {}
  QualType(QualExpr Qual, const ShapeNode *Shape)
      : Qual(Qual), Shape(Shape) {}

  bool isNull() const { return Shape == nullptr; }

  QualExpr getQual() const { return Qual; }
  const TypeCtor *getCtor() const {
    assert(Shape && "null qualified type");
    return Shape->Ctor;
  }
  unsigned getNumArgs() const { return getCtor()->arity(); }
  QualType getArg(unsigned I) const {
    assert(Shape && I < getNumArgs() && "argument index out of range");
    return Shape->Args[I];
  }
  const ShapeNode *getShape() const { return Shape; }

  /// Returns the same type with its top-level qualifier replaced, sharing
  /// the shape (used by the annotation rule, which retypes l e at l tau).
  QualType withQual(QualExpr NewQual) const {
    return QualType(NewQual, Shape);
  }

  /// Structural equality of shapes (same constructors everywhere),
  /// ignoring qualifiers.
  bool shapeEquals(QualType Other) const;

  /// Calls \p Fn on this type and every nested qualified type, preorder.
  template <typename FnT> void visit(FnT &&Fn) const {
    if (isNull())
      return;
    Fn(*this);
    for (unsigned I = 0, E = getNumArgs(); I != E; ++I)
      getArg(I).visit(Fn);
  }

private:
  QualExpr Qual;
  const ShapeNode *Shape;
};

/// Allocates qualified types. Owns the arena backing every shape node it
/// creates; types remain valid while the factory lives. Building a type
/// allocates only its arena nodes.
class QualTypeFactory {
public:
  /// Builds Q c(Args...); the arguments are copied into the arena.
  QualType make(QualExpr Qual, const TypeCtor *Ctor,
                std::span<const QualType> Args = {});
  QualType make(QualExpr Qual, const TypeCtor *Ctor,
                std::initializer_list<QualType> Args) {
    return make(Qual, Ctor, std::span<const QualType>(Args.begin(),
                                                      Args.size()));
  }

  /// Rebuilds \p T with every qualifier variable remapped through \p MapVar
  /// (a callable QualVarId -> QualExpr; variables outside the map's domain
  /// map to themselves). A subtree whose qualifiers all map to themselves
  /// is shared, not copied. Used by scheme instantiation.
  template <typename MapFn> QualType substitute(QualType T, MapFn &&MapVar) {
    if (T.isNull())
      return T;
    QualExpr Q = T.getQual();
    if (Q.isVar())
      Q = MapVar(Q.getVar());
    // The argument array is allocated at the first argument that changes.
    QualType *Args = nullptr;
    for (unsigned I = 0, E = T.getNumArgs(); I != E; ++I) {
      QualType Old = T.getArg(I);
      QualType New = substitute(Old, MapVar);
      if (!Args && (New.getShape() != Old.getShape() ||
                    New.getQual() != Old.getQual())) {
        Args = allocateArgs(E);
        for (unsigned J = 0; J != I; ++J)
          Args[J] = T.getArg(J);
      }
      if (Args)
        Args[I] = New;
    }
    if (!Args)
      return T.withQual(Q);
    return adopt(Q, T.getCtor(), Args);
  }

  /// The sp operator of Section 3.1: rebuilds \p T with *fresh* qualifier
  /// variables at every level, preserving the shape. \p Sys provides fresh
  /// variables (children before their parent).
  QualType spread(ConstraintSystem &Sys, QualType T);

  /// An arena array of \p N null types, for the arguments of a type that
  /// adopt() will build (null when \p N is zero). Lets a caller build
  /// arguments in place instead of in a temporary container.
  QualType *allocateArgs(unsigned N) {
    if (N == 0)
      return nullptr;
    void *Mem = Arena.allocate(sizeof(QualType) * N, alignof(QualType));
    QualType *Args = static_cast<QualType *>(Mem);
    for (unsigned I = 0; I != N; ++I)
      new (Args + I) QualType();
    return Args;
  }

  /// Builds Q c(Args...) over \p Args, an allocateArgs() array the caller
  /// filled with Ctor->arity() arguments; the array is not copied.
  QualType adopt(QualExpr Qual, const TypeCtor *Ctor, QualType *Args) {
    assert(Ctor && "null type constructor");
    assert((Args != nullptr) == (Ctor->arity() != 0) &&
           "constructor arity mismatch");
    ShapeNode *Shape = Arena.create<ShapeNode>();
    Shape->Ctor = Ctor;
    Shape->Args = Args;
    return QualType(Qual, Shape);
  }

private:
  BumpPtrAllocator Arena;
};

/// Renders a qualified type. Qualifier variables print as `$<id>` when
/// \p Sys is null; when \p Sys is provided (solved), variables print as
/// their least-solution lattice value.
std::string toString(const QualifierSet &QS, QualType T,
                     const ConstraintSystem *Sys = nullptr);

} // namespace quals

#endif // QUALS_QUAL_QUALTYPE_H
