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
/// Section 4.4. The link step summarizes a whole translation unit the same
/// way, with the TU's symbol, pin and position variables as the interface.
///
//===----------------------------------------------------------------------===//

#include "qual/TypeScheme.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

using namespace quals;

namespace {

/// A var-to-var edge of the local subgraph, locally numbered; Id is the
/// constraint it came from (a witness for the paths through it).
struct LocalEdge {
  uint32_t Target;
  ConstraintId Id;
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

constexpr ConstraintId NoWitness = ~0u;

/// A node's bits in one propagation, and the witness constraint of the
/// first change to them (NoWitness until then).
struct Flow {
  uint64_t Bits;
  ConstraintId Wit;
};

} // namespace

std::vector<Constraint>
quals::simplifyConstraints(const ConstraintSystem &Sys, Watermark Mark,
                           const std::vector<QualVarId> &Interface,
                           const std::function<bool(QualVarId)> &Free) {
  std::vector<Constraint> Canned;
  if (Interface.empty())
    return Canned;
  const uint64_t UsedBits = Sys.getQualifierSet().usedBits();

  // Local numbering: the interface variables are nodes 0 .. NumOwned - 1,
  // every other variable the range touches gets the next node on first
  // touch. External nodes are the interface variables plus, in first-touch
  // order, the free variables the range touches (globals, escapees); ExtPos
  // is a node's position in Externals, NotExternal for internal nodes.
  constexpr uint32_t NoNode = ~0u, NotExternal = ~0u;
  const uint32_t NumOwned = Interface.size();
  std::vector<uint32_t> FreshNode(Sys.getNumVars() - Mark.FirstVar, NoNode);
  std::unordered_map<QualVarId, uint32_t> OlderNode;
  std::vector<Flow> Lower, Upper; // const -> var, var -> const
  std::vector<uint32_t> ExtPos;
  std::vector<std::pair<uint32_t, QualVarId>> Externals; // (node, var)
  Lower.reserve(FreshNode.size());
  Upper.reserve(FreshNode.size());
  ExtPos.reserve(FreshNode.size());
  auto newNode = [&](QualVarId V, bool External) -> uint32_t {
    uint32_t N = Lower.size();
    Lower.push_back({0, NoWitness});
    Upper.push_back({UsedBits, NoWitness});
    ExtPos.push_back(External ? Externals.size() : NotExternal);
    if (External)
      Externals.push_back({N, V});
    return N;
  };
  for (QualVarId V : Interface)
    FreshNode[V - Mark.FirstVar] = newNode(V, true);
  auto localOf = [&](QualVarId V) -> uint32_t {
    if (V < Mark.FirstVar) {
      auto [It, New] = OlderNode.try_emplace(V, 0);
      if (New)
        It->second = newNode(V, true);
      return It->second;
    }
    uint32_t &N = FreshNode[V - Mark.FirstVar];
    if (N == NoNode)
      N = newNode(V, Free && Free(V));
    return N;
  };

  // One pass over the range: constant seeds go straight into the bounds
  // (the first constraint that moves a bound is its witness), var-to-var
  // edges into the adjacency lists. A free variable's own constant bounds
  // are skipped: they stay in Sys, and the pairs to it carry them.
  auto isFree = [&](QualVarId V) {
    return V < Mark.FirstVar || (Free && Free(V));
  };
  std::vector<uint32_t> LowerWork, UpperWork; // Seeded with those bounds.
  std::vector<std::pair<uint32_t, LocalEdge>> FwdPairs, BwdPairs;
  for (ConstraintId Id = Mark.FirstConstraint, E = Sys.getNumConstraints();
       Id != E; ++Id) {
    const Constraint &C = Sys.getConstraint(Id);
    if (C.Lhs.isVar() && C.Rhs.isVar()) {
      uint32_t L = localOf(C.Lhs.getVar());
      uint32_t R = localOf(C.Rhs.getVar());
      FwdPairs.push_back({L, {R, Id, C.Mask}});
      BwdPairs.push_back({R, {L, Id, C.Mask}});
    } else if (C.Lhs.isConst() && C.Rhs.isVar() && !isFree(C.Rhs.getVar())) {
      uint32_t R = localOf(C.Rhs.getVar());
      uint64_t Bits = C.Lhs.getConst().bits() & C.Mask;
      if (Bits && Lower[R].Wit == NoWitness)
        Lower[R].Wit = Id;
      Lower[R].Bits |= Bits;
      LowerWork.push_back(R);
    } else if (C.Lhs.isVar() && C.Rhs.isConst() && !isFree(C.Lhs.getVar())) {
      uint32_t L = localOf(C.Lhs.getVar());
      uint64_t New = Upper[L].Bits & (C.Rhs.getConst().bits() | ~C.Mask);
      if (New != Upper[L].Bits && Upper[L].Wit == NoWitness)
        Upper[L].Wit = Id;
      Upper[L].Bits = New;
      UpperWork.push_back(L);
    }
  }
  const uint32_t NumLocal = Lower.size();
  const Csr Fwd(NumLocal, FwdPairs), Bwd(NumLocal, BwdPairs);

  // Forward join propagation from the nodes on Work, expanding only nodes
  // Expand accepts. A node first gaining bits takes its predecessor's
  // witness, or, from a node without one, the edge's. Every edge scanned
  // reports its target to OnScan.
  auto joinForward = [&Fwd](std::vector<Flow> &Nodes,
                            std::vector<uint32_t> &Work, auto Expand,
                            auto OnScan) {
    while (!Work.empty()) {
      const Flow &From = Nodes[Work.back()];
      const uint32_t V = Work.back();
      Work.pop_back();
      for (const LocalEdge *Edge = Fwd.begin(V); Edge != Fwd.end(V); ++Edge) {
        OnScan(Edge->Target);
        Flow &To = Nodes[Edge->Target];
        if (uint64_t Add = From.Bits & Edge->Mask & ~To.Bits) {
          To.Bits |= Add;
          if (To.Wit == NoWitness)
            To.Wit = From.Wit != NoWitness ? From.Wit : Edge->Id;
          if (Expand(Edge->Target))
            Work.push_back(Edge->Target);
        }
      }
    }
  };

  // (1) Lower-bound summaries: forward join propagation of local constants.
  joinForward(Lower, LowerWork, [](uint32_t) { return true; },
              [](uint32_t) {});

  // (2) Upper-bound summaries: backward meet propagation.
  while (!UpperWork.empty()) {
    const Flow &From = Upper[UpperWork.back()];
    const uint32_t V = UpperWork.back();
    UpperWork.pop_back();
    for (const LocalEdge *Edge = Bwd.begin(V); Edge != Bwd.end(V); ++Edge) {
      Flow &To = Upper[Edge->Target];
      uint64_t New = To.Bits & (From.Bits | ~Edge->Mask);
      if (New != To.Bits) {
        To.Bits = New;
        if (To.Wit == NoWitness)
          To.Wit = From.Wit;
        UpperWork.push_back(Edge->Target);
      }
    }
  }

  // Emits a canned constraint carrying the location and reason of witness
  // \p Wit (none for a pair reached without bits).
  auto emit = [&](QualExpr Lhs, QualExpr Rhs, uint64_t Mask,
                  ConstraintId Wit) {
    Constraint C{Lhs, Rhs, Mask, SourceLoc(), 0};
    if (Wit != NoWitness) {
      C.Loc = Sys.getConstraint(Wit).Loc;
      C.Reason = Sys.getConstraint(Wit).Reason;
    }
    Canned.push_back(C);
  };

  // (3) Bit-masked reachability between external nodes, one search per
  // source, never expanding another external node. A node is reached once
  // an edge into it is scanned (even with no bits), and only reached
  // external nodes yield pairs, in Externals order; the touched list
  // resets exactly the reached entries for the next source.
  std::vector<Flow> Reach(NumLocal, {0, NoWitness});
  std::vector<bool> Reached(NumLocal, false);
  std::vector<uint32_t> Touched, Work, Hits;
  auto reach = [&](uint32_t L) {
    if (!Reached[L]) {
      Reached[L] = true;
      Touched.push_back(L);
    }
  };
  auto internal = [&](uint32_t L) { return ExtPos[L] == NotExternal; };
  for (uint32_t SourcePos = 0; SourcePos != Externals.size(); ++SourcePos) {
    auto [Source, From] = Externals[SourcePos];
    reach(Source);
    Reach[Source].Bits = UsedBits;
    Work.push_back(Source);
    joinForward(Reach, Work, internal, reach);
    // Pairs of free variables are already linked in the system.
    Hits.clear();
    for (uint32_t L : Touched)
      if (L != Source && !internal(L) &&
          (SourcePos < NumOwned || ExtPos[L] < NumOwned))
        Hits.push_back(ExtPos[L]);
    std::sort(Hits.begin(), Hits.end());
    for (uint32_t TargetPos : Hits) {
      auto [Target, To] = Externals[TargetPos];
      emit(QualExpr::makeVar(From), QualExpr::makeVar(To), Reach[Target].Bits,
           Reach[Target].Wit);
    }
    for (uint32_t L : Touched) {
      Reach[L] = {0, NoWitness};
      Reached[L] = false;
    }
    Touched.clear();
  }

  // Constant bounds for the interface variables. (Free variables keep
  // their own constant bounds in the system.)
  for (uint32_t L = 0; L != NumOwned; ++L) {
    QualExpr V = QualExpr::makeVar(Interface[L]);
    if (Lower[L].Bits)
      emit(QualExpr::makeConst(LatticeValue(Lower[L].Bits)), V, UsedBits,
           Lower[L].Wit);
    if ((Upper[L].Bits & UsedBits) != UsedBits)
      emit(V, QualExpr::makeConst(LatticeValue(Upper[L].Bits)), UsedBits,
           Upper[L].Wit);
  }
  return Canned;
}

QualScheme
QualScheme::generalize(const ConstraintSystem &Sys, QualType Body,
                       Watermark Mark,
                       const std::function<bool(QualVarId)> &Escapes) {
  QualScheme S;
  S.Body = Body;

  // Bound (interface) variables: fresh variables occurring in the body
  // type. Only these are observable by callers, so only these need
  // per-instance copies.
  std::vector<bool> IsBound(Sys.getNumVars() - Mark.FirstVar, false);
  Body.visit([&](QualType T) {
    if (!T.getQual().isVar())
      return;
    QualVarId V = T.getQual().getVar();
    if (V >= Mark.FirstVar && !(Escapes && Escapes(V)) &&
        !IsBound[V - Mark.FirstVar]) {
      IsBound[V - Mark.FirstVar] = true;
      S.BoundVars.push_back(V);
    }
  });
  if (S.BoundVars.empty())
    return S;
  for (uint32_t I = 0; I != S.BoundVars.size(); ++I)
    S.BoundSet.push_back({S.BoundVars[I], I});
  std::sort(S.BoundSet.begin(), S.BoundSet.end());

  S.Canned = simplifyConstraints(Sys, Mark, S.BoundVars, Escapes);
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
