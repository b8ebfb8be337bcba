//===- qual/Qualifier.h - Qualifiers and the qualifier lattice --*- C++ -*-===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// User-registered type qualifiers and the product lattice they induce.
///
/// Following Definition 1 of the paper, a qualifier q is *positive* when
/// tau <= q tau for every type tau (e.g. const: unqualified values promote to
/// qualified ones) and *negative* when q tau <= tau (e.g. nonnull: qualified
/// values promote to unqualified ones). Per Definition 2, each qualifier
/// contributes a two-point lattice and the full qualifier lattice L is their
/// product.
///
/// Representation: a lattice element is a bitmask with one bit per registered
/// qualifier, where a set bit is the *top* of that qualifier's two-point
/// lattice. For a positive qualifier, top means "present"; for a negative
/// qualifier, top means "absent" (the dualization the paper describes in
/// Section 2). This makes the whole product lattice a powerset lattice:
/// <= is subset, join is bitwise-or, meet is bitwise-and.
///
//===----------------------------------------------------------------------===//

#ifndef QUALS_QUAL_QUALIFIER_H
#define QUALS_QUAL_QUALIFIER_H

#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace quals {

/// Whether tau <= q tau (Positive) or q tau <= tau (Negative); Definition 1.
enum class Polarity { Positive, Negative };

/// Dense id of a registered qualifier within its QualifierSet.
using QualifierId = unsigned;

/// An element of the qualifier lattice L = L_q1 x ... x L_qn (Definition 2).
///
/// Plain value type; interpretation of the bits requires the owning
/// QualifierSet (see file comment for the encoding).
class LatticeValue {
public:
  LatticeValue() = default;
  explicit LatticeValue(uint64_t Bits) : Bits(Bits) {}

  uint64_t bits() const { return Bits; }

  /// Lattice order: this <= Other.
  bool subsumedBy(LatticeValue Other) const {
    return (Bits & ~Other.Bits) == 0;
  }

  LatticeValue join(LatticeValue Other) const {
    return LatticeValue(Bits | Other.Bits);
  }
  LatticeValue meet(LatticeValue Other) const {
    return LatticeValue(Bits & Other.Bits);
  }

  friend bool operator==(LatticeValue A, LatticeValue B) {
    return A.Bits == B.Bits;
  }
  friend bool operator!=(LatticeValue A, LatticeValue B) { return !(A == B); }

private:
  uint64_t Bits = 0;
};

/// One registered qualifier.
struct Qualifier {
  std::string Name;
  Polarity Pol;
};

/// The user-supplied set of qualifiers q1, ..., qn and the lattice they
/// generate. At most 64 qualifiers per set (one bit each).
class QualifierSet {
public:
  /// Registers a qualifier; names must be unique within the set.
  QualifierId add(std::string Name, Polarity Pol);

  unsigned size() const { return Qualifiers.size(); }

  const Qualifier &get(QualifierId Id) const {
    assert(Id < Qualifiers.size() && "qualifier id out of range");
    return Qualifiers[Id];
  }

  /// Finds a qualifier by name; returns true and sets \p Id on success.
  bool lookup(std::string_view Name, QualifierId &Id) const;

  /// The single lattice bit belonging to qualifier \p Id.
  uint64_t bitFor(QualifierId Id) const {
    assert(Id < Qualifiers.size() && "qualifier id out of range");
    return uint64_t(1) << Id;
  }

  /// Mask of all bits in use by this set.
  uint64_t usedBits() const {
    return Qualifiers.size() == 64 ? ~uint64_t(0)
                                   : (uint64_t(1) << Qualifiers.size()) - 1;
  }

  /// Bottom of L: every positive qualifier absent, every negative present.
  LatticeValue bottom() const { return LatticeValue(0); }

  /// Top of L: every positive qualifier present, every negative absent.
  LatticeValue top() const { return LatticeValue(usedBits()); }

  /// True if qualifier \p Id is semantically *present* in \p V.
  bool contains(LatticeValue V, QualifierId Id) const {
    bool BitSet = (V.bits() & bitFor(Id)) != 0;
    return get(Id).Pol == Polarity::Positive ? BitSet : !BitSet;
  }

  /// Returns \p V with qualifier \p Id made present.
  LatticeValue withQual(LatticeValue V, QualifierId Id) const {
    if (get(Id).Pol == Polarity::Positive)
      return LatticeValue(V.bits() | bitFor(Id));
    return LatticeValue(V.bits() & ~bitFor(Id));
  }

  /// Returns \p V with qualifier \p Id made absent.
  LatticeValue withoutQual(LatticeValue V, QualifierId Id) const {
    if (get(Id).Pol == Polarity::Positive)
      return LatticeValue(V.bits() & ~bitFor(Id));
    return LatticeValue(V.bits() | bitFor(Id));
  }

  /// The paper's ":q" element: top everywhere except qualifier \p Id, which
  /// is absent. Used as the upper bound in assertions like e |_{:const}.
  LatticeValue notQual(QualifierId Id) const {
    return withoutQual(top(), Id);
  }

  /// The element where exactly the named qualifiers are present and every
  /// other qualifier is absent-if-positive / present-if-negative (i.e. the
  /// literal annotation "q1 q2 e" from the paper's source syntax, which sits
  /// at the *bottom* of every unmentioned qualifier's component).
  LatticeValue valueWithPresent(const std::vector<QualifierId> &Ids) const;

  /// Renders \p V as the space-separated names of the qualifiers present in
  /// it ("const nonzero"), or "" for a value with no qualifiers present.
  std::string toString(LatticeValue V) const;

private:
  std::vector<Qualifier> Qualifiers;
};

/// The qualifiers of the paper's demonstration language, as the lambda
/// tools register them when no spec is given.
inline constexpr std::string_view DefaultQualifierSpec =
    "const,nonzero:neg,dynamic,tainted";

/// Adds the qualifiers of \p Spec to \p QS: comma-separated items, each
/// `name` (positive) or `name:neg` (negative); empty names are skipped.
/// Returns false with a message in \p Error on more than 64 qualifiers, a
/// duplicate name, or any suffix other than `:neg`.
bool parseQualifierSpec(std::string_view Spec, QualifierSet &QS,
                        std::string &Error);

} // namespace quals

#endif // QUALS_QUAL_QUALIFIER_H
