//===- qual/ConstraintSystem.cpp - Atomic qualifier constraints -----------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//

#include "qual/ConstraintSystem.h"

#include "support/Metrics.h"
#include "support/TextTable.h"
#include "support/Timer.h"

#include <algorithm>

using namespace quals;

QualVarId ConstraintSystem::freshVars(unsigned N) {
  QualVarId First = Vars.size();
  Vars.resize(Vars.size() + N, VarInfo{QS.bottom(), QS.top()});
  return First;
}

ReasonId ConstraintSystem::internReason(std::string_view Text) {
  auto It = ReasonIndex.find(Text);
  if (It == ReasonIndex.end()) {
    // Key the entry on the owned copy: Text may be a temporary.
    ReasonText.emplace_back(Text);
    It = ReasonIndex.emplace(ReasonText.back(), ReasonText.size() - 1).first;
  }
  return It->second;
}

void ConstraintSystem::addLeq(QualExpr Lhs, QualExpr Rhs,
                              ConstraintOrigin Origin) {
  addLeqMasked(Lhs, Rhs, QS.usedBits(), Origin);
}

void ConstraintSystem::addLeqMasked(QualExpr Lhs, QualExpr Rhs, uint64_t Mask,
                                    ConstraintOrigin Origin) {
  addConstraint({Lhs, Rhs, Mask, Origin.Loc, internReason(Origin.Reason)});
}

void ConstraintSystem::addConstraint(const Constraint &C) {
  if (Config.MaxConstraints && Constraints.size() >= Config.MaxConstraints) {
    // Dropping the constraint keeps every invariant intact; the latch below
    // forces callers onto their resource-limit failure path before any
    // solution could be reported.
    ConstraintLimitHit = true;
    return;
  }
  ConstraintId Id = Constraints.size();
  Constraints.push_back(C);
  if (C.Lhs.isVar() && C.Rhs.isVar()) {
    ++NumVarVarEdges;
    VarInfo &L = Vars[C.Lhs.getVar()];
    VarInfo &R = Vars[C.Rhs.getVar()];
    EdgePool.push_back({Id, L.SuccHead});
    L.SuccHead = EdgePool.size() - 1;
    EdgePool.push_back({Id, R.PredHead});
    R.PredHead = EdgePool.size() - 1;
    return;
  }
  if (C.Rhs.isConst()) {
    if (C.Lhs.isConst())
      ConstConstIds.push_back(Id);
    else
      UpperBoundIds.push_back(Id);
  }
}

void ConstraintSystem::addEq(QualExpr Lhs, QualExpr Rhs,
                             ConstraintOrigin Origin) {
  addLeq(Lhs, Rhs, Origin);
  addLeq(Rhs, Lhs, Origin);
}

bool ConstraintSystem::raiseLower(QualVarId Var, LatticeValue NewBits) {
  uint64_t Gained = NewBits.bits() & ~Vars[Var].Lower.bits();
  if (!Gained)
    return false;
  Vars[Var].Lower = Vars[Var].Lower.join(NewBits);
  return true;
}

bool ConstraintSystem::capUpper(QualVarId Var, LatticeValue Cap) {
  LatticeValue NewUpper = Vars[Var].Upper.meet(Cap);
  if (NewUpper == Vars[Var].Upper)
    return false;
  Vars[Var].Upper = NewUpper;
  return true;
}

void ConstraintSystem::runWorklists(std::vector<QualVarId> &LowerWork,
                                    std::vector<QualVarId> &UpperWork) {
  // Forward join propagation: least solution of the lower bounds. A var is
  // pushed only when it gains a bit, so each edge is visited at most |Q|
  // times over the system's lifetime.
  while (!LowerWork.empty()) {
    QualVarId V = LowerWork.back();
    LowerWork.pop_back();
    uint64_t LV = Vars[V].Lower.bits();
    for (uint32_t I = Vars[V].SuccHead; I != ~0u; I = EdgePool[I].Next) {
      ++Stats.EdgeVisits;
      const Constraint &C = Constraints[EdgePool[I].Cons];
      QualVarId To = C.Rhs.getVar();
      if (raiseLower(To, LatticeValue(LV & C.Mask))) {
        LowerWork.push_back(To);
        ++Stats.WorklistPushes;
      }
    }
  }

  // Backward meet propagation: greatest solution of the upper bounds.
  while (!UpperWork.empty()) {
    QualVarId V = UpperWork.back();
    UpperWork.pop_back();
    uint64_t UV = Vars[V].Upper.bits();
    for (uint32_t I = Vars[V].PredHead; I != ~0u; I = EdgePool[I].Next) {
      ++Stats.EdgeVisits;
      const Constraint &C = Constraints[EdgePool[I].Cons];
      QualVarId From = C.Lhs.getVar();
      if (capUpper(From, LatticeValue(UV | ~C.Mask))) {
        UpperWork.push_back(From);
        ++Stats.WorklistPushes;
      }
    }
  }
}

bool ConstraintSystem::solve() {
  PhaseScope Phase("solve", "qual");
  Timer SolveTimer;
  // Work counters describe one solve.
  Stats.reset();
  ++Stats.SolveCalls;

  std::vector<QualVarId> LowerWork;
  std::vector<QualVarId> UpperWork;

  // Seed the solution state from constraints added since the last solve.
  for (ConstraintId Id = SolvedConstraints, E = Constraints.size(); Id != E;
       ++Id) {
    const Constraint &C = Constraints[Id];
    if (C.Lhs.isConst() && C.Rhs.isVar()) {
      QualVarId R = C.Rhs.getVar();
      if (raiseLower(R, LatticeValue(C.Lhs.getConst().bits() & C.Mask)))
        LowerWork.push_back(R);
    } else if (C.Lhs.isVar() && C.Rhs.isVar()) {
      // A new edge may carry an already-known lower bound forward and an
      // already-known upper bound backward.
      QualVarId L = C.Lhs.getVar();
      QualVarId R = C.Rhs.getVar();
      if (raiseLower(R, LatticeValue(Vars[L].Lower.bits() & C.Mask)))
        LowerWork.push_back(R);
      if (capUpper(L, LatticeValue(Vars[R].Upper.bits() | ~C.Mask)))
        UpperWork.push_back(L);
    } else if (C.Lhs.isVar() && C.Rhs.isConst()) {
      QualVarId L = C.Lhs.getVar();
      if (capUpper(L, LatticeValue(C.Rhs.getConst().bits() | ~C.Mask)))
        UpperWork.push_back(L);
    }
    // const <= const constraints are checked in collectViolations().
  }
  SolvedConstraints = Constraints.size();

  Stats.WorklistPushes += LowerWork.size() + UpperWork.size();
  runWorklists(LowerWork, UpperWork);

  // Satisfiable iff no variable's required bits exceed its allowed bits and
  // no direct upper bound fails; a cheap necessary-and-sufficient check is
  // lower <= upper on every variable plus the const-const constraints.
  bool Ok = true;
  for (QualVarId V = 0, N = Vars.size(); Ok && V != N; ++V)
    if (!Vars[V].Lower.subsumedBy(Vars[V].Upper))
      Ok = false;
  for (size_t I = 0; Ok && I != ConstConstIds.size(); ++I) {
    const Constraint &C = Constraints[ConstConstIds[I]];
    if ((C.Lhs.getConst().bits() & C.Mask) & ~C.Rhs.getConst().bits())
      Ok = false;
  }
  Stats.SolveSeconds += SolveTimer.seconds();
  if (MetricsRegistry::collecting())
    getStats().publishTo(MetricsRegistry::global());
  return Ok;
}

bool ConstraintSystem::mustHave(QualVarId Var, QualifierId Id) const {
  // Positive qualifier: present iff bit set, and the bit is set in every
  // solution iff it is in the least solution. Negative qualifier: present iff
  // bit clear, and the bit is clear in every solution iff it is not in the
  // greatest solution.
  if (QS.get(Id).Pol == Polarity::Positive)
    return (lower(Var).bits() & QS.bitFor(Id)) != 0;
  return (upper(Var).bits() & QS.bitFor(Id)) == 0;
}

bool ConstraintSystem::mayHave(QualVarId Var, QualifierId Id) const {
  if (QS.get(Id).Pol == Polarity::Positive)
    return (upper(Var).bits() & QS.bitFor(Id)) != 0;
  return (lower(Var).bits() & QS.bitFor(Id)) == 0;
}

std::vector<Violation> ConstraintSystem::collectViolations() const {
  assert(SolvedConstraints == Constraints.size() && "call solve() first");
  std::vector<Violation> Result;
  for (ConstraintId Id : UpperBoundIds) {
    const Constraint &C = Constraints[Id];
    LatticeValue Actual = lower(C.Lhs.getVar());
    uint64_t Off = (Actual.bits() & C.Mask) & ~C.Rhs.getConst().bits();
    if (Off)
      Result.push_back({Id, Actual, C.Rhs.getConst(), Off});
  }
  for (ConstraintId Id : ConstConstIds) {
    const Constraint &C = Constraints[Id];
    uint64_t Off =
        (C.Lhs.getConst().bits() & C.Mask) & ~C.Rhs.getConst().bits();
    if (Off)
      Result.push_back({Id, C.Lhs.getConst(), C.Rhs.getConst(), Off});
  }
  return Result;
}

bool ConstraintSystem::isSatisfiable() {
  if (!solve())
    return false;
  return collectViolations().empty();
}

std::string ConstraintSystem::explain(const Violation &V) const {
  // Reconstruct the provenance of the lowest offending bit backwards from
  // the violated constraint's left-hand side to a constant that introduced
  // it. Provenance is computed lazily here (never recorded during
  // propagation), so the hot loops stay free of bookkeeping and the
  // rendered chain is a pure function of the constraint sequence.
  uint64_t Bit = V.OffendingBits & ~(V.OffendingBits - 1);

  // Name every offending qualifier component in the header line.
  const Constraint &Cause = Constraints[V.Cause];
  std::string Out = "qualifier constraint violated (";
  bool First = true;
  for (unsigned I = 0, E = QS.size(); I != E; ++I) {
    if (!(V.OffendingBits & QS.bitFor(I)))
      continue;
    if (!First)
      Out += "; ";
    First = false;
    const Qualifier &Q = QS.get(I);
    if (Q.Pol == Polarity::Positive) {
      Out += "qualifier '";
      Out += Q.Name;
      Out += "' not allowed here";
    } else {
      Out += "qualifier '";
      Out += Q.Name;
      Out += "' required here";
    }
  }
  Out += ")";
  Out += "\n  bound: ";
  Out += getReason(Cause.Reason);
  Out += '\n';

  if (Cause.Lhs.isVar()) {
    // Breadth-first search from the violated variable backwards over the
    // constraints that can carry the bit: an edge Src <= Dst with the bit
    // in its mask is a genuine carrier iff the bit is in Src's least
    // solution (the solved fixpoint guarantees it then reached Dst), and a
    // constant left-hand side with the bit under the mask is a seed. FIFO
    // order with in-edges scanned in constraint-id order makes the chain
    // deterministic: the shortest one, ties broken by lowest id.
    QualVarId Root = Cause.Lhs.getVar();
    std::vector<std::pair<QualVarId, ConstraintId>> Parent; // BFS tree.
    std::vector<uint32_t> ParentOf(Vars.size(), ~0u); // Var -> Parent index.
    std::vector<QualVarId> Queue{Root};
    ParentOf[Root] = ~1u; // Visited marker for the root (no parent edge).
    ConstraintId SeedCons = ~0u;
    QualVarId SeedAt = Root;
    // Index the bit-carrying in-edges per variable, in id order.
    std::vector<std::vector<ConstraintId>> InEdges(Vars.size());
    for (ConstraintId Id = 0, E = Constraints.size(); Id != E; ++Id) {
      const Constraint &C = Constraints[Id];
      if (!C.Rhs.isVar() || !(C.Mask & Bit))
        continue;
      if (C.Lhs.isVar() && !(Vars[C.Lhs.getVar()].Lower.bits() & Bit))
        continue;
      if (C.Lhs.isConst() && !(C.Lhs.getConst().bits() & C.Mask & Bit))
        continue;
      InEdges[C.Rhs.getVar()].push_back(Id);
    }
    for (size_t Head = 0; Head != Queue.size() && SeedCons == ~0u; ++Head) {
      QualVarId At = Queue[Head];
      for (ConstraintId Id : InEdges[At]) {
        const Constraint &C = Constraints[Id];
        if (C.Lhs.isConst()) {
          SeedCons = Id;
          SeedAt = At;
          break;
        }
        QualVarId Src = C.Lhs.getVar();
        if (Src == At || ParentOf[Src] != ~0u)
          continue;
        Parent.push_back({At, Id});
        ParentOf[Src] = Parent.size() - 1;
        Queue.push_back(Src);
      }
    }
    if (SeedCons != ~0u) {
      // Unwind the tree from the seed's variable back to the root, then
      // print the chain violation-first: each step's constraint, ending at
      // the seed itself and its constant.
      std::vector<ConstraintId> Chain;
      for (QualVarId At = SeedAt; At != Root;) {
        auto &Link = Parent[ParentOf[At]];
        Chain.push_back(Link.second);
        At = Link.first;
      }
      std::reverse(Chain.begin(), Chain.end());
      Chain.push_back(SeedCons);
      for (ConstraintId Id : Chain) {
        const Constraint &Step = Constraints[Id];
        Out += "  via: ";
        Out += Step.Reason ? getReason(Step.Reason)
                           : "(unlabeled constraint)";
        Out += '\n';
      }
      Out += "  source: qualifier constant '";
      Out += QS.toString(Constraints[SeedCons].Lhs.getConst());
      Out += "'\n";
    }
    // No seed found would mean the bit appeared from nowhere; be defensive
    // and leave the chain empty (matches the old walker's defensive stop).
  } else {
    // A const <= const violation: the constant itself is the source.
    Out += "  source: qualifier constant '";
    Out += QS.toString(Cause.Lhs.getConst());
    Out += "'\n";
  }
  return Out;
}

SolverStats ConstraintSystem::getStats() const {
  SolverStats S = Stats;
  S.NumVars = Vars.size();
  S.NumConstraints = Constraints.size();
  S.VarVarEdges = NumVarVarEdges;
  return S;
}

void SolverStats::publishTo(MetricsRegistry &R) const {
  R.gauge("solver.vars").set(NumVars);
  R.gauge("solver.constraints").set(NumConstraints);
  R.gauge("solver.var_var_edges").set(VarVarEdges);
  R.counter("solver.solve_calls").add(SolveCalls);
  R.counter("solver.worklist_pushes").add(WorklistPushes);
  R.counter("solver.edge_visits").add(EdgeVisits);
  R.timer("solver.solve").addSeconds(SolveSeconds);
}

std::string quals::renderSolverStats(const SolverStats &S) {
  TextTable T;
  T.addColumn("Solver metric");
  T.addColumn("Value", Align::Right);
  auto Row = [&T](const char *Name, uint64_t Value) {
    T.addRow({Name, std::to_string(Value)});
  };
  Row("qualifier vars", S.NumVars);
  Row("constraints", S.NumConstraints);
  Row("var->var edges", S.VarVarEdges);
  Row("solve() calls", S.SolveCalls);
  Row("worklist pushes", S.WorklistPushes);
  Row("edge visits", S.EdgeVisits);
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.3f", S.SolveSeconds * 1000.0);
  T.addRow({"solve time (ms)", Buf});
  return T.render();
}
