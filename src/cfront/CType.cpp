//===- cfront/CType.cpp - C types ------------------------------------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//

#include "cfront/CType.h"

#include "cfront/CAst.h"

using namespace quals;
using namespace quals::cfront;

CTypeContext::CTypeContext() {
  for (unsigned I = 0; I != 12; ++I)
    Builtins[I] =
        Arena.create<BuiltinType>(static_cast<BuiltinType::Id>(I));
}

bool quals::cfront::isIntegerLike(const CType *T) {
  if (const auto *B = dyn_cast<BuiltinType>(T))
    return B->isInteger();
  return isa<EnumType>(T);
}

bool quals::cfront::isScalar(const CType *T) {
  if (const auto *B = dyn_cast<BuiltinType>(T))
    return !B->isVoid();
  return isa<PointerType>(T) || isa<EnumType>(T);
}

bool quals::cfront::isAssignmentOp(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Assign:
  case BinaryOp::AddAssign:
  case BinaryOp::SubAssign:
  case BinaryOp::MulAssign:
  case BinaryOp::DivAssign:
  case BinaryOp::RemAssign:
  case BinaryOp::ShlAssign:
  case BinaryOp::ShrAssign:
  case BinaryOp::AndAssign:
  case BinaryOp::OrAssign:
  case BinaryOp::XorAssign:
    return true;
  default:
    return false;
  }
}

static const char *builtinName(BuiltinType::Id Id) {
  switch (Id) {
  case BuiltinType::Id::Void:   return "void";
  case BuiltinType::Id::Char:   return "char";
  case BuiltinType::Id::SChar:  return "signed char";
  case BuiltinType::Id::UChar:  return "unsigned char";
  case BuiltinType::Id::Short:  return "short";
  case BuiltinType::Id::UShort: return "unsigned short";
  case BuiltinType::Id::Int:    return "int";
  case BuiltinType::Id::UInt:   return "unsigned int";
  case BuiltinType::Id::Long:   return "long";
  case BuiltinType::Id::ULong:  return "unsigned long";
  case BuiltinType::Id::Float:  return "float";
  case BuiltinType::Id::Double: return "double";
  }
  return "?";
}

void quals::cfront::appendType(CQualType T, std::string &Out) {
  if (T.isNull()) {
    Out += "<null>";
    return;
  }
  if (T.isConst())
    Out += "const ";
  if (T.isVolatile())
    Out += "volatile ";
  const CType *Ty = T.getType();
  switch (Ty->getKind()) {
  case CType::Kind::Builtin:
    Out += builtinName(cast<BuiltinType>(Ty)->getId());
    return;
  case CType::Kind::Pointer: {
    appendType(cast<PointerType>(Ty)->getPointee(), Out);
    Out += " *";
    return;
  }
  case CType::Kind::Array: {
    const auto *A = cast<ArrayType>(Ty);
    appendType(A->getElement(), Out);
    Out += " [";
    if (A->getSize() >= 0)
      Out += std::to_string(A->getSize());
    Out += ']';
    return;
  }
  case CType::Kind::Function: {
    const auto *F = cast<FunctionType>(Ty);
    appendType(F->getReturn(), Out);
    Out += " (";
    const auto &Params = F->getParams();
    for (size_t I = 0; I != Params.size(); ++I) {
      if (I)
        Out += ", ";
      appendType(Params[I], Out);
    }
    if (F->isVariadic())
      Out += Params.empty() ? "..." : ", ...";
    if (Params.empty() && !F->isVariadic())
      Out += F->hasNoPrototype() ? "" : "void";
    Out += ')';
    return;
  }
  case CType::Kind::Record: {
    const RecordDecl *D = cast<RecordType>(Ty)->getDecl();
    Out += D->isUnion() ? "union " : "struct ";
    Out += D->getName();
    return;
  }
  case CType::Kind::Enum: {
    Out += "enum ";
    Out += cast<EnumType>(Ty)->getDecl()->getName();
    return;
  }
  }
}

std::string quals::cfront::toString(CQualType T) {
  std::string Out;
  appendType(T, Out);
  return Out;
}
