//===- qual/TypeScheme.cpp - Polymorphic constrained types ----------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// Generalization performs *constraint simplification*: the paper notes that
/// "in practice these constraint systems can be large"; replaying a whole
/// function body's constraints at every call site makes polymorphic
/// inference quadratic or worse up the call DAG. Since the constraints are
/// atomic inequalities over a powerset lattice, the observable effect of a
/// scheme on its interface is fully characterized by
///
///   (1) the join of constants reaching each interface variable through the
///       scheme's local constraint subgraph (a lower-bound summary),
///   (2) the meet of constant upper bounds reachable from it (an upper-bound
///       summary), and
///   (3) bit-masked reachability between interface variables and the free
///       (environment) variables adjacent to the subgraph.
///
/// Internal variables are eliminated entirely; the canned constraints are
/// linear in the interface size instead of the body size. This is exactly
/// the specialization-over-BANE speedup the paper anticipates in
/// Section 4.4.
///
//===----------------------------------------------------------------------===//

#include "qual/TypeScheme.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

using namespace quals;

namespace {

/// A var-to-var edge of the local (post-watermark) subgraph, locally numbered.
struct LocalEdge {
  uint32_t Target;
  uint64_t Mask;
};

/// Adjacency lists in compressed-sparse-row form, built by a stable counting
/// sort of (source, edge) pairs: node N's edges are Edges[Start[N] ..
/// Start[N + 1]), in constraint order.
struct Csr {
  std::vector<uint32_t> Start;
  std::vector<LocalEdge> Edges;

  Csr(uint32_t NumNodes,
      const std::vector<std::pair<uint32_t, LocalEdge>> &Pairs)
      : Start(NumNodes + 1, 0), Edges(Pairs.size()) {
    for (const auto &P : Pairs)
      ++Start[P.first + 1];
    std::partial_sum(Start.begin(), Start.end(), Start.begin());
    std::vector<uint32_t> Fill(Start.begin(), Start.end() - 1);
    for (const auto &P : Pairs)
      Edges[Fill[P.first]++] = P.second;
  }

  const LocalEdge *begin(uint32_t N) const { return Edges.data() + Start[N]; }
  const LocalEdge *end(uint32_t N) const { return Edges.data() + Start[N + 1]; }
};

} // namespace

QualScheme
QualScheme::generalize(ConstraintSystem &Sys, QualType Body, Watermark Mark,
                       const std::function<bool(QualVarId)> &Escapes) {
  QualScheme S;
  S.Body = Body;

  auto IsFresh = [&](QualVarId V) {
    return V >= Mark.FirstVar && !(Escapes && Escapes(V));
  };

  // Interface variables: fresh variables occurring in the body type. Only
  // these are observable by callers, so only these need per-instance copies.
  const uint32_t NumFresh = Sys.getNumVars() - Mark.FirstVar;
  std::vector<bool> IsBound(NumFresh, false);
  Body.visit([&](QualType T) {
    if (!T.getQual().isVar())
      return;
    QualVarId V = T.getQual().getVar();
    if (IsFresh(V) && !IsBound[V - Mark.FirstVar]) {
      IsBound[V - Mark.FirstVar] = true;
      S.BoundVars.push_back(V);
    }
  });
  if (S.BoundVars.empty())
    return S;
  for (uint32_t I = 0; I != S.BoundVars.size(); ++I)
    S.BoundSet.push_back({S.BoundVars[I], I});
  std::sort(S.BoundSet.begin(), S.BoundSet.end());

  const uint64_t UsedBits = Sys.getQualifierSet().usedBits();

  // Local numbering: variables created since the watermark are dense at
  // V - FirstVar, older ones get the numbers after them on first touch.
  // External nodes are the bound interface variables plus, in first-touch
  // order, the free variables adjacent to the subgraph (globals, escapees).
  std::vector<uint64_t> Lower(NumFresh, 0);        // const -> var
  std::vector<uint64_t> Upper(NumFresh, UsedBits); // var -> const
  std::vector<bool> EscapeSeen(NumFresh, false);
  std::unordered_map<QualVarId, uint32_t> OlderIndex;
  std::vector<std::pair<uint32_t, QualVarId>> Externals; // (local, var)
  for (QualVarId V : S.BoundVars)
    Externals.push_back({V - Mark.FirstVar, V});
  auto localOf = [&](QualVarId V) -> uint32_t {
    if (V < Mark.FirstVar) {
      auto [It, New] = OlderIndex.try_emplace(V, Lower.size());
      if (New) {
        Externals.push_back({It->second, V});
        Lower.push_back(0);
        Upper.push_back(UsedBits);
      }
      return It->second;
    }
    uint32_t L = V - Mark.FirstVar;
    if (!IsFresh(V) && !EscapeSeen[L]) {
      EscapeSeen[L] = true;
      Externals.push_back({L, V});
    }
    return L;
  };

  // One pass over the local constraints: constant seeds go straight into
  // the summary arrays, var-to-var edges into the adjacency lists.
  std::vector<uint32_t> LowerWork, UpperWork; // Seeded with those bounds.
  std::vector<std::pair<uint32_t, LocalEdge>> FwdPairs, BwdPairs;
  for (ConstraintId Id = Mark.FirstConstraint, E = Sys.getNumConstraints();
       Id != E; ++Id) {
    const Constraint &C = Sys.getConstraint(Id);
    uint32_t L = C.Lhs.isVar() ? localOf(C.Lhs.getVar()) : 0;
    uint32_t R = C.Rhs.isVar() ? localOf(C.Rhs.getVar()) : 0;
    if (C.Lhs.isVar() && C.Rhs.isVar()) {
      FwdPairs.push_back({L, {R, C.Mask}});
      BwdPairs.push_back({R, {L, C.Mask}});
    } else if (C.Lhs.isConst() && C.Rhs.isVar()) {
      Lower[R] |= C.Lhs.getConst().bits() & C.Mask;
      LowerWork.push_back(R);
    } else if (C.Lhs.isVar() && C.Rhs.isConst()) {
      Upper[L] &= C.Rhs.getConst().bits() | ~C.Mask;
      UpperWork.push_back(L);
    }
  }
  const uint32_t NumLocal = Lower.size();
  const Csr Fwd(NumLocal, FwdPairs), Bwd(NumLocal, BwdPairs);

  // Forward join propagation of Bits from the nodes on Work; every edge
  // scanned reports its target to OnScan.
  auto joinForward = [&Fwd](std::vector<uint64_t> &Bits,
                            std::vector<uint32_t> &Work, auto OnScan) {
    while (!Work.empty()) {
      uint32_t V = Work.back();
      Work.pop_back();
      for (const LocalEdge *Edge = Fwd.begin(V); Edge != Fwd.end(V); ++Edge) {
        OnScan(Edge->Target);
        if (uint64_t Add = Bits[V] & Edge->Mask & ~Bits[Edge->Target]) {
          Bits[Edge->Target] |= Add;
          Work.push_back(Edge->Target);
        }
      }
    }
  };

  // (1) Lower-bound summaries: forward join propagation of local constants.
  joinForward(Lower, LowerWork, [](uint32_t) {});

  // (2) Upper-bound summaries: backward meet propagation.
  while (!UpperWork.empty()) {
    uint32_t V = UpperWork.back();
    UpperWork.pop_back();
    for (const LocalEdge *Edge = Bwd.begin(V); Edge != Bwd.end(V); ++Edge) {
      uint64_t Old = Upper[Edge->Target];
      uint64_t New = Old & (Upper[V] | ~Edge->Mask);
      if (New != Old) {
        Upper[Edge->Target] = New;
        UpperWork.push_back(Edge->Target);
      }
    }
  }

  // (3) Bit-masked reachability between external nodes, one search per
  // source. A node is reached once an edge into it is scanned (even with no
  // bits), and only reached nodes yield pairs; the touched list resets
  // exactly those entries for the next source.
  const ReasonId EdgeReason = Sys.internReason("scheme summary edge");
  std::vector<uint64_t> Reach(NumLocal, 0);
  std::vector<bool> Reached(NumLocal, false);
  std::vector<uint32_t> Touched, Work;
  auto reach = [&](uint32_t L) {
    if (!Reached[L]) {
      Reached[L] = true;
      Touched.push_back(L);
    }
  };
  auto Bound = [&](uint32_t L) { return L < NumFresh && IsBound[L]; };
  for (auto [Source, From] : Externals) {
    reach(Source);
    Reach[Source] = UsedBits;
    Work.push_back(Source);
    joinForward(Reach, Work, reach);
    // Pairs of free variables are already linked in the global system.
    for (auto [Target, To] : Externals)
      if (Target != Source && Reached[Target] &&
          (Bound(Source) || Bound(Target)))
        S.Canned.push_back({QualExpr::makeVar(From), QualExpr::makeVar(To),
                            Reach[Target], SourceLoc(), EdgeReason});
    for (uint32_t L : Touched) {
      Reach[L] = 0;
      Reached[L] = false;
    }
    Touched.clear();
  }

  // Constant summaries for the bound interface variables. (Free variables
  // already carry their local constant bounds in the global system.)
  const ReasonId LowerReason = Sys.internReason("scheme lower-bound summary");
  const ReasonId UpperReason = Sys.internReason("scheme upper-bound summary");
  for (QualVarId V : S.BoundVars) {
    uint32_t L = V - Mark.FirstVar;
    if (Lower[L])
      S.Canned.push_back({QualExpr::makeConst(LatticeValue(Lower[L])),
                          QualExpr::makeVar(V), UsedBits, SourceLoc(),
                          LowerReason});
    if ((Upper[L] & UsedBits) != UsedBits)
      S.Canned.push_back({QualExpr::makeVar(V),
                          QualExpr::makeConst(LatticeValue(Upper[L])),
                          UsedBits, SourceLoc(), UpperReason});
  }

  return S;
}

uint32_t QualScheme::boundIndex(QualVarId Var) const {
  auto It = std::lower_bound(BoundSet.begin(), BoundSet.end(),
                             std::make_pair(Var, 0u));
  return It != BoundSet.end() && It->first == Var ? It->second : ~0u;
}

QualType QualScheme::instantiate(ConstraintSystem &Sys,
                                 QualTypeFactory &Factory) const {
  if (BoundVars.empty())
    return Body;

  // BoundVars[I] becomes First + I.
  const QualVarId First = Sys.freshVars(BoundVars.size());
  auto MapVar = [&](QualVarId V) {
    uint32_t I = boundIndex(V);
    return QualExpr::makeVar(I == ~0u ? V : First + I);
  };
  auto MapExpr = [&](QualExpr E) { return E.isVar() ? MapVar(E.getVar()) : E; };

  for (const Constraint &C : Canned)
    Sys.addConstraint(
        {MapExpr(C.Lhs), MapExpr(C.Rhs), C.Mask, C.Loc, C.Reason});

  return Factory.substitute(Body, MapVar);
}
