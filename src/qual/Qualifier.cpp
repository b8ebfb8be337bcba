//===- qual/Qualifier.cpp - Qualifiers and the qualifier lattice ----------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//

#include "qual/Qualifier.h"

using namespace quals;

QualifierId QualifierSet::add(std::string Name, Polarity Pol) {
  assert(Qualifiers.size() < 64 && "at most 64 qualifiers per set");
#ifndef NDEBUG
  for (const Qualifier &Q : Qualifiers)
    assert(Q.Name != Name && "duplicate qualifier name");
#endif
  Qualifiers.push_back({std::move(Name), Pol});
  return Qualifiers.size() - 1;
}

bool QualifierSet::lookup(std::string_view Name, QualifierId &Id) const {
  for (unsigned I = 0, E = Qualifiers.size(); I != E; ++I) {
    if (Qualifiers[I].Name == Name) {
      Id = I;
      return true;
    }
  }
  return false;
}

bool quals::parseQualifierSpec(std::string_view Spec, QualifierSet &QS,
                               std::string &Error) {
  while (!Spec.empty()) {
    size_t Comma = Spec.find(',');
    std::string_view Name = Spec.substr(0, Comma);
    Spec = Comma == std::string_view::npos ? std::string_view()
                                           : Spec.substr(Comma + 1);
    Polarity Pol = Polarity::Positive;
    if (size_t Colon = Name.find(':'); Colon != std::string_view::npos) {
      std::string_view Suffix = Name.substr(Colon + 1);
      Name = Name.substr(0, Colon);
      if (Suffix != "neg") {
        Error = "unknown suffix ':" + std::string(Suffix) +
                "' on qualifier '" + std::string(Name) +
                "' (only ':neg' is allowed)";
        return false;
      }
      Pol = Polarity::Negative;
    }
    if (Name.empty())
      continue;
    QualifierId Existing;
    if (QS.lookup(Name, Existing)) {
      Error = "duplicate qualifier '" + std::string(Name) + "'";
      return false;
    }
    if (QS.size() == 64) {
      Error = "more than 64 qualifiers";
      return false;
    }
    QS.add(std::string(Name), Pol);
  }
  return true;
}

LatticeValue
QualifierSet::valueWithPresent(const std::vector<QualifierId> &Ids) const {
  LatticeValue V = bottom();
  for (QualifierId Id : Ids)
    V = withQual(V, Id);
  return V;
}

std::string QualifierSet::toString(LatticeValue V) const {
  std::string Out;
  for (unsigned I = 0, E = Qualifiers.size(); I != E; ++I) {
    if (!contains(V, I))
      continue;
    if (!Out.empty())
      Out += ' ';
    Out += Qualifiers[I].Name;
  }
  return Out;
}
