//===- qual/QualType.cpp - Qualified types over user constructors ---------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//

#include "qual/QualType.h"

#include <algorithm>

using namespace quals;

bool QualType::shapeEquals(QualType Other) const {
  if (isNull() || Other.isNull())
    return isNull() == Other.isNull();
  if (getCtor() != Other.getCtor())
    return false;
  for (unsigned I = 0, E = getNumArgs(); I != E; ++I)
    if (!getArg(I).shapeEquals(Other.getArg(I)))
      return false;
  return true;
}

QualType QualTypeFactory::make(QualExpr Qual, const TypeCtor *Ctor,
                               std::span<const QualType> Args) {
  assert(Ctor && "null type constructor");
  assert(Args.size() == Ctor->arity() && "constructor arity mismatch");
  QualType *ArgArray = allocateArgs(Args.size());
  std::copy(Args.begin(), Args.end(), ArgArray);
  return adopt(Qual, Ctor, ArgArray);
}

QualType QualTypeFactory::spread(ConstraintSystem &Sys, QualType T) {
  if (T.isNull())
    return T;
  QualType *Args = allocateArgs(T.getNumArgs());
  for (unsigned I = 0, E = T.getNumArgs(); I != E; ++I)
    Args[I] = spread(Sys, T.getArg(I));
  QualExpr Fresh = QualExpr::makeVar(Sys.freshVar());
  return adopt(Fresh, T.getCtor(), Args);
}

static void printQual(const QualifierSet &QS, QualExpr Q,
                      const ConstraintSystem *Sys, std::string &Out) {
  if (Q.isConst()) {
    std::string S = QS.toString(Q.getConst());
    if (!S.empty()) {
      Out += S;
      Out += ' ';
    }
    return;
  }
  if (Sys) {
    std::string S = QS.toString(Sys->lower(Q.getVar()));
    if (!S.empty()) {
      Out += S;
      Out += ' ';
    }
    return;
  }
  Out += '$' + std::to_string(Q.getVar()) + ' ';
}

static void printType(const QualifierSet &QS, QualType T,
                      const ConstraintSystem *Sys, std::string &Out) {
  if (T.isNull()) {
    Out += "<null>";
    return;
  }
  printQual(QS, T.getQual(), Sys, Out);
  const TypeCtor *Ctor = T.getCtor();
  if (Ctor->getPrintStyle() == PrintStyle::Infix) {
    Out += '(';
    printType(QS, T.getArg(0), Sys, Out);
    Out += ' ';
    Out += Ctor->getName();
    Out += ' ';
    printType(QS, T.getArg(1), Sys, Out);
    Out += ')';
    return;
  }
  Out += Ctor->getName();
  if (Ctor->arity() == 0)
    return;
  Out += '(';
  for (unsigned I = 0, E = Ctor->arity(); I != E; ++I) {
    if (I)
      Out += ", ";
    printType(QS, T.getArg(I), Sys, Out);
  }
  Out += ')';
}

std::string quals::toString(const QualifierSet &QS, QualType T,
                            const ConstraintSystem *Sys) {
  std::string Out;
  printType(QS, T, Sys, Out);
  return Out;
}
