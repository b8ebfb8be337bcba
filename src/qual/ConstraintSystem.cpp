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
  return Vars.append(N, VarInfo{QS.bottom(), QS.top()});
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

ReasonId ConstraintSystem::internReason(const ConstraintOrigin &Origin) {
  if (!Origin.Interned)
    return internReason(Origin.Reason);
  if (Origin.Interned->Id == NoReasonId)
    Origin.Interned->Id = internReason(Origin.Interned->Text);
  return Origin.Interned->Id;
}

void ConstraintSystem::addLeq(QualExpr Lhs, QualExpr Rhs,
                              ConstraintOrigin Origin) {
  addLeqMasked(Lhs, Rhs, QS.usedBits(), Origin);
}

void ConstraintSystem::addLeqMasked(QualExpr Lhs, QualExpr Rhs, uint64_t Mask,
                                    ConstraintOrigin Origin) {
  addConstraint({Lhs, Rhs, Mask, Origin.Loc, internReason(Origin)});
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
    L.SuccHead = EdgePool.push_back({Id, L.SuccHead});
    R.PredHead = EdgePool.push_back({Id, R.PredHead});
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
  return ViolationExplainer(*this).explain(V);
}

const ViolationExplainer::InEdgeIndex &
ViolationExplainer::indexFor(uint64_t Bit) {
  for (const InEdgeIndex &Index : Indexes)
    if (Index.Bit == Bit)
      return Index;
  // An edge Src <= Dst with the bit in its mask is a genuine carrier iff
  // the bit is in Src's least solution (the solved fixpoint guarantees it
  // then reached Dst), and a constant left-hand side with the bit under
  // the mask is a seed. A counting sort by target keeps each variable's
  // in-edges in constraint-id order.
  auto Carries = [&](const Constraint &C) {
    if (!C.Rhs.isVar() || !(C.Mask & Bit))
      return false;
    if (C.Lhs.isVar())
      return (Sys.lower(C.Lhs.getVar()).bits() & Bit) != 0;
    return (C.Lhs.getConst().bits() & C.Mask & Bit) != 0;
  };
  InEdgeIndex &Index = Indexes.emplace_back();
  Index.Bit = Bit;
  const unsigned NumVars = Sys.getNumVars();
  const ConstraintId NumConstraints = Sys.getNumConstraints();
  Index.Start.assign(NumVars + 1, 0);
  for (ConstraintId Id = 0; Id != NumConstraints; ++Id) {
    const Constraint &C = Sys.getConstraint(Id);
    if (Carries(C))
      ++Index.Start[C.Rhs.getVar() + 1];
  }
  for (unsigned V = 0; V != NumVars; ++V)
    Index.Start[V + 1] += Index.Start[V];
  Index.Ids.resize(Index.Start[NumVars]);
  std::vector<uint32_t> Fill(Index.Start.begin(), Index.Start.end() - 1);
  for (ConstraintId Id = 0; Id != NumConstraints; ++Id) {
    const Constraint &C = Sys.getConstraint(Id);
    if (Carries(C))
      Index.Ids[Fill[C.Rhs.getVar()]++] = Id;
  }
  return Index;
}

std::string ViolationExplainer::explain(const Violation &V) {
  // Reconstruct the provenance of the lowest offending bit backwards from
  // the violated constraint's left-hand side to a constant that introduced
  // it. Provenance is computed lazily here (never recorded during
  // propagation), so the hot loops stay free of bookkeeping and the
  // rendered chain is a pure function of the constraint sequence.
  const QualifierSet &QS = Sys.getQualifierSet();
  uint64_t Bit = V.OffendingBits & ~(V.OffendingBits - 1);

  // Name every offending qualifier component in the header line.
  const Constraint &Cause = Sys.getConstraint(V.Cause);
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
  Out += Sys.getReason(Cause.Reason);
  Out += '\n';

  if (!Cause.Lhs.isVar()) {
    // A const <= const violation: the constant itself is the source.
    Out += "  source: qualifier constant '";
    Out += QS.toString(Cause.Lhs.getConst());
    Out += "'\n";
    return Out;
  }

  // Breadth-first search from the violated variable backwards over the
  // bit-carrying in-edges. FIFO order with in-edges scanned in
  // constraint-id order makes the chain deterministic: the shortest one,
  // ties broken by lowest id.
  const InEdgeIndex &Index = indexFor(Bit);
  constexpr uint32_t Unvisited = ~0u, IsRoot = ~1u;
  if (ParentOf.size() != Sys.getNumVars())
    ParentOf.assign(Sys.getNumVars(), Unvisited);
  QualVarId Root = Cause.Lhs.getVar();
  Parent.clear();
  Queue.assign(1, Root);
  ParentOf[Root] = IsRoot;
  ConstraintId SeedCons = ~0u;
  QualVarId SeedAt = Root;
  for (size_t Head = 0; Head != Queue.size() && SeedCons == ~0u; ++Head) {
    QualVarId At = Queue[Head];
    for (uint32_t I = Index.Start[At]; I != Index.Start[At + 1]; ++I) {
      ConstraintId Id = Index.Ids[I];
      const Constraint &C = Sys.getConstraint(Id);
      if (C.Lhs.isConst()) {
        SeedCons = Id;
        SeedAt = At;
        break;
      }
      QualVarId Src = C.Lhs.getVar();
      if (Src == At || ParentOf[Src] != Unvisited)
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
      const Constraint &Step = Sys.getConstraint(Id);
      Out += "  via: ";
      Out += Step.Reason ? Sys.getReason(Step.Reason)
                         : "(unlabeled constraint)";
      Out += '\n';
    }
    Out += "  source: qualifier constant '";
    Out += QS.toString(Sys.getConstraint(SeedCons).Lhs.getConst());
    Out += "'\n";
  }
  // No seed found would mean the bit appeared from nowhere; be defensive
  // and leave the chain empty (matches the old walker's defensive stop).

  // Every visited variable is on the queue: reset exactly those.
  for (QualVarId At : Queue)
    ParentOf[At] = Unvisited;
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
