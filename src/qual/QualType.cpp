//===- qual/QualType.cpp - Qualified types over user constructors ---------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//

#include "qual/QualType.h"

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

void QualType::visit(const std::function<void(QualType)> &Fn) const {
  if (isNull())
    return;
  Fn(*this);
  for (unsigned I = 0, E = getNumArgs(); I != E; ++I)
    getArg(I).visit(Fn);
}

QualType QualTypeFactory::make(QualExpr Qual, const TypeCtor *Ctor,
                               const std::vector<QualType> &Args) {
  assert(Ctor && "null type constructor");
  assert(Args.size() == Ctor->arity() && "constructor arity mismatch");
  QualType *ArgArray =
      Args.empty() ? nullptr : Arena.copyArray(Args.data(), Args.size());
  ShapeNode *Shape = Arena.create<ShapeNode>();
  Shape->Ctor = Ctor;
  Shape->Args = ArgArray;
  return QualType(Qual, Shape);
}

QualType QualTypeFactory::substitute(
    QualType T, const std::function<QualExpr(QualVarId)> &MapVar) {
  if (T.isNull())
    return T;
  QualExpr Q = T.getQual();
  if (Q.isVar())
    Q = MapVar(Q.getVar());
  std::vector<QualType> Args;
  Args.reserve(T.getNumArgs());
  bool ArgsChanged = false;
  for (unsigned I = 0, E = T.getNumArgs(); I != E; ++I) {
    QualType NewArg = substitute(T.getArg(I), MapVar);
    ArgsChanged |= NewArg.getShape() != T.getArg(I).getShape() ||
                   NewArg.getQual() != T.getArg(I).getQual();
    Args.push_back(NewArg);
  }
  if (!ArgsChanged)
    return T.withQual(Q);
  return make(Q, T.getCtor(), Args);
}

QualType QualTypeFactory::spread(ConstraintSystem &Sys, QualType T) {
  if (T.isNull())
    return T;
  std::vector<QualType> Args;
  Args.reserve(T.getNumArgs());
  for (unsigned I = 0, E = T.getNumArgs(); I != E; ++I)
    Args.push_back(spread(Sys, T.getArg(I)));
  QualExpr Fresh = QualExpr::makeVar(Sys.freshVar());
  return make(Fresh, T.getCtor(), Args);
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
