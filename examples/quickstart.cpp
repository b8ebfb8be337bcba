//===- examples/quickstart.cpp - The qualifier framework in 5 minutes ------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
//
// Walks through the core API end to end:
//
//   1. register qualifiers (positive/negative) to form the lattice of
//      Definition 2 -- here the paper's Figure 2 lattice;
//   2. build qualified types over user-declared type constructors with
//      variances (Section 2.1);
//   3. pose subtype constraints, which decompose to atomic lattice
//      constraints (Figure 4a / Section 3.1);
//   4. solve in linear time and query least/greatest solutions;
//   5. diagnose an inconsistency with a provenance path;
//   6. generalize and instantiate a polymorphic scheme (Section 3.2).
//
// Build: cmake --build build && ./build/examples/quickstart
//
//===----------------------------------------------------------------------===//

#include "qual/ConstraintSystem.h"
#include "qual/QualType.h"
#include "qual/Subtype.h"
#include "qual/TypeScheme.h"

#include <cstdio>

using namespace quals;

int main() {
  std::printf("== libquals quickstart ==\n\n");

  // -- 1. The Figure 2 qualifier lattice ---------------------------------
  QualifierSet QS;
  QualifierId Const = QS.add("const", Polarity::Positive);
  QualifierId Dynamic = QS.add("dynamic", Polarity::Positive);
  QualifierId Nonzero = QS.add("nonzero", Polarity::Negative);
  (void)Dynamic;

  std::printf("lattice bottom: {%s}\n",
              QS.toString(QS.bottom()).c_str());
  std::printf("lattice top:    {%s}\n\n", QS.toString(QS.top()).c_str());

  // -- 2. Qualified types -------------------------------------------------
  // Constructors carry per-argument variance: ref is invariant in its
  // contents (the paper's sound SubRef rule), functions are contravariant
  // in the domain and covariant in the range (SubFun).
  TypeCtor Int("int", {});
  TypeCtor Ref("ref", {Variance::Invariant});
  TypeCtor Fn("->", {Variance::Contravariant, Variance::Covariant},
              PrintStyle::Infix);

  ConstraintSystem Sys(QS);
  QualTypeFactory Factory;

  // kappa_1 int and kappa_2 ref(kappa_3 int)
  QualType PlainInt =
      Factory.make(QualExpr::makeVar(Sys.freshVar()), &Int);
  QualType Cell = Factory.make(
      QualExpr::makeVar(Sys.freshVar()), &Ref,
      {Factory.make(QualExpr::makeVar(Sys.freshVar()), &Int)});
  std::printf("types: %s and %s (variables print as their ids)\n\n",
              toString(QS, PlainInt).c_str(), toString(QS, Cell).c_str());

  // -- 3 & 4. Constraints and solving --------------------------------------
  // "The value stored in the cell is a dynamic input": annotate with a
  // lattice element and let subsumption carry it into the cell. (nonzero is
  // negative, so it is present at bottom and *may*-queries are the natural
  // ones for it.)
  Sys.addLeq(QualExpr::makeConst(QS.valueWithPresent({Dynamic})),
             PlainInt.getQual(), {"annotation: the value is dynamic"});
  decomposeLeq(Sys, PlainInt, Cell.getArg(0),
               {"store: value flows into the cell contents"});
  Sys.solve();
  std::printf("cell contents must be dynamic: %s\n",
              Sys.mustHave(Cell.getArg(0).getQual().getVar(), Dynamic)
                  ? "yes"
                  : "no");
  std::printf("cell contents may be nonzero:  %s\n",
              Sys.mayHave(Cell.getArg(0).getQual().getVar(), Nonzero)
                  ? "yes"
                  : "no");
  std::printf("cell itself may be const:      %s\n\n",
              Sys.mayHave(Cell.getQual().getVar(), Const) ? "yes" : "no");

  // -- 5. Diagnosing an inconsistency --------------------------------------
  // Assert the cell is const, then try to make it assignable: the Assign'
  // rule's upper bound conflicts and the solver explains the path.
  Sys.addLeq(QualExpr::makeConst(QS.valueWithPresent({Const})),
             Cell.getQual(), {"declared const"});
  Sys.addLeq(Cell.getQual(), QualExpr::makeConst(QS.notQual(Const)),
             {"assignment left-hand side must not be const"});
  Sys.solve();
  for (const Violation &V : Sys.collectViolations())
    std::printf("violation detected:\n%s\n", Sys.explain(V).c_str());

  // -- 6. Qualifier polymorphism -------------------------------------------
  // The identity function's scheme: forall k. k int -> k int. Two uses at
  // different qualifiers coexist (the monomorphic C type system cannot do
  // this; Section 3.2).
  ConstraintSystem PolySys(QS);
  Watermark Mark = takeWatermark(PolySys);
  QualVarId K = PolySys.freshVar();
  QualType KInt = Factory.make(QualExpr::makeVar(K), &Int);
  QualType IdTy = Factory.make(
      QualExpr::makeVar(PolySys.freshVar()), &Fn, {KInt, KInt});
  QualScheme Scheme = QualScheme::generalize(PolySys, IdTy, Mark);
  std::printf("id's scheme binds %u qualifier variable(s)\n",
              Scheme.getNumBoundVars());

  QualType Use1 = Scheme.instantiate(PolySys, Factory);
  QualType Use2 = Scheme.instantiate(PolySys, Factory);
  PolySys.addLeq(QualExpr::makeConst(QS.valueWithPresent({Const})),
                 Use1.getArg(0).getQual(), {"use 1 at const"});
  PolySys.addLeq(Use2.getArg(0).getQual(),
                 QualExpr::makeConst(QS.notQual(Const)),
                 {"use 2 at non-const"});
  std::printf("two instantiations at const and non-const: %s\n",
              PolySys.isSatisfiable() ? "consistent (polymorphism!)"
                                      : "inconsistent");
  return 0;
}
