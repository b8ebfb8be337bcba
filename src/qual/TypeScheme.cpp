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
  std::vector<uint32_t> Fill;

  /// Rebuilds the lists, reusing this object's buffers.
  void build(uint32_t NumNodes,
             const std::vector<std::pair<uint32_t, LocalEdge>> &Pairs) {
    Start.assign(NumNodes + 1, 0);
    Edges.resize(Pairs.size());
    for (const auto &P : Pairs)
      ++Start[P.first + 1];
    std::partial_sum(Start.begin(), Start.end(), Start.begin());
    Fill.assign(Start.begin(), Start.end() - 1);
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

struct SimplifyScratch::Buffers {
  /// Variable - watermark -> local node, NoNode outside a call; grown to
  /// the largest range seen. NodeVar (node -> variable) undoes it after a
  /// call.
  std::vector<uint32_t> NodeOf;
  std::vector<QualVarId> NodeVar;
  /// Variables older than the watermark -> node, in an open-addressing
  /// table (linear probing, power-of-two size, at most half full) that a
  /// call empties again. A range touches few older variables, so a dense
  /// map over every variable would cost more memory than it saves time.
  std::vector<std::pair<QualVarId, uint32_t>> Older;
  uint32_t NumOlder = 0;
  std::vector<Flow> Lower, Upper, Reach; // const -> var, var -> const
  /// Node -> position in Externals, or NotExternal for internal nodes.
  std::vector<uint32_t> ExtPos;
  std::vector<std::pair<uint32_t, QualVarId>> Externals; // (node, var)
  std::vector<std::pair<uint32_t, LocalEdge>> FwdPairs, BwdPairs;
  Csr Fwd, Bwd;
  std::vector<uint32_t> LowerWork, UpperWork, Work, Touched, Hits;
  /// Node -> reached by the current reachability search.
  std::vector<bool> Reached;
  /// generalize(): variable - watermark -> its Occurrence, NotBound
  /// outside a call; the bound variables in body order.
  enum Occurrence : uint8_t { NotBound, OnceInParam, Observed };
  std::vector<Occurrence> Occurs;
  std::vector<QualVarId> BoundVars;

  static constexpr QualVarId NoVar = ~0u;

  size_t olderHome(QualVarId V) const {
    return ((uint64_t(V) * 0x9E3779B97F4A7C15ull) >> 32) & (Older.size() - 1);
  }

  /// The node of older variable \p V, or NoNode.
  uint32_t findOlder(QualVarId V) const {
    if (Older.empty())
      return ~0u;
    for (size_t I = olderHome(V);; I = (I + 1) & (Older.size() - 1)) {
      if (Older[I].first == V)
        return Older[I].second;
      if (Older[I].first == NoVar)
        return ~0u;
    }
  }

  void addOlder(QualVarId V, uint32_t Node) {
    if (2 * (NumOlder + 1) > Older.size()) {
      std::vector<std::pair<QualVarId, uint32_t>> Old;
      Old.swap(Older);
      Older.assign(std::max<size_t>(16, 2 * Old.size()), {NoVar, 0});
      NumOlder = 0;
      for (const auto &Entry : Old)
        if (Entry.first != NoVar)
          addOlder(Entry.first, Entry.second);
    }
    size_t I = olderHome(V);
    while (Older[I].first != NoVar)
      I = (I + 1) & (Older.size() - 1);
    Older[I] = {V, Node};
    ++NumOlder;
  }

  void clearOlder() {
    if (NumOlder)
      std::fill(Older.begin(), Older.end(),
                std::pair<QualVarId, uint32_t>(NoVar, 0));
    NumOlder = 0;
  }
};

SimplifyScratch::SimplifyScratch() : B(std::make_unique<Buffers>()) {}
SimplifyScratch::~SimplifyScratch() = default;

std::vector<Constraint>
quals::simplifyConstraints(const ConstraintSystem &Sys, Watermark Mark,
                           const std::vector<QualVarId> &Interface,
                           SimplifyScratch &Scratch, const FreeVarSet *Free) {
  std::vector<Constraint> Canned;
  if (Interface.empty())
    return Canned;
  SimplifyScratch::Buffers &B = Scratch.buffers();
  const uint64_t UsedBits = Sys.getQualifierSet().usedBits();

  // Local numbering: the interface variables are nodes 0 .. NumOwned - 1,
  // every other variable the range touches gets the next node on first
  // touch. External nodes are the interface variables plus, in first-touch
  // order, the free variables the range touches (globals, escapees); ExtPos
  // is a node's position in Externals, NotExternal for internal nodes.
  constexpr uint32_t NoNode = ~0u, NotExternal = ~0u;
  const uint32_t NumOwned = Interface.size();
  auto isFree = [&](QualVarId V) {
    return V < Mark.FirstVar || (Free && V < Free->size() && (*Free)[V]);
  };
  const size_t Range = Sys.getNumVars() - Mark.FirstVar;
  if (B.NodeOf.size() < Range)
    B.NodeOf.resize(Range, NoNode);
  auto newNode = [&](QualVarId V, bool External) -> uint32_t {
    uint32_t N = B.Lower.size();
    if (V >= Mark.FirstVar)
      B.NodeOf[V - Mark.FirstVar] = N;
    else
      B.addOlder(V, N);
    B.NodeVar.push_back(V);
    B.Lower.push_back({0, NoWitness});
    B.Upper.push_back({UsedBits, NoWitness});
    B.ExtPos.push_back(External ? B.Externals.size() : NotExternal);
    if (External)
      B.Externals.push_back({N, V});
    return N;
  };
  for (QualVarId V : Interface)
    newNode(V, true);
  auto localOf = [&](QualVarId V) -> uint32_t {
    if (V < Mark.FirstVar) {
      uint32_t N = B.findOlder(V);
      return N != NoNode ? N : newNode(V, true);
    }
    uint32_t N = B.NodeOf[V - Mark.FirstVar];
    return N != NoNode ? N : newNode(V, isFree(V));
  };

  // One pass over the range: constant seeds go straight into the bounds
  // (the first constraint that moves a bound is its witness), var-to-var
  // edges into the adjacency lists. A free variable's own constant bounds
  // are skipped: they stay in Sys, and the pairs to it carry them.
  for (ConstraintId Id = Mark.FirstConstraint, E = Sys.getNumConstraints();
       Id != E; ++Id) {
    const Constraint &C = Sys.getConstraint(Id);
    if (C.Lhs.isVar() && C.Rhs.isVar()) {
      uint32_t L = localOf(C.Lhs.getVar());
      uint32_t R = localOf(C.Rhs.getVar());
      B.FwdPairs.push_back({L, {R, Id, C.Mask}});
      B.BwdPairs.push_back({R, {L, Id, C.Mask}});
    } else if (C.Lhs.isConst() && C.Rhs.isVar() && !isFree(C.Rhs.getVar())) {
      uint32_t R = localOf(C.Rhs.getVar());
      uint64_t Bits = C.Lhs.getConst().bits() & C.Mask;
      if (Bits && B.Lower[R].Wit == NoWitness)
        B.Lower[R].Wit = Id;
      B.Lower[R].Bits |= Bits;
      B.LowerWork.push_back(R);
    } else if (C.Lhs.isVar() && C.Rhs.isConst() && !isFree(C.Lhs.getVar())) {
      uint32_t L = localOf(C.Lhs.getVar());
      uint64_t New = B.Upper[L].Bits & (C.Rhs.getConst().bits() | ~C.Mask);
      if (New != B.Upper[L].Bits && B.Upper[L].Wit == NoWitness)
        B.Upper[L].Wit = Id;
      B.Upper[L].Bits = New;
      B.UpperWork.push_back(L);
    }
  }
  const uint32_t NumLocal = B.Lower.size();
  B.Fwd.build(NumLocal, B.FwdPairs);
  B.Bwd.build(NumLocal, B.BwdPairs);
  const Csr &Fwd = B.Fwd, &Bwd = B.Bwd;

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
  joinForward(B.Lower, B.LowerWork, [](uint32_t) { return true; },
              [](uint32_t) {});

  // (2) Upper-bound summaries: backward meet propagation.
  std::vector<Flow> &Upper = B.Upper;
  while (!B.UpperWork.empty()) {
    const Flow &From = Upper[B.UpperWork.back()];
    const uint32_t V = B.UpperWork.back();
    B.UpperWork.pop_back();
    for (const LocalEdge *Edge = Bwd.begin(V); Edge != Bwd.end(V); ++Edge) {
      Flow &To = Upper[Edge->Target];
      uint64_t New = To.Bits & (From.Bits | ~Edge->Mask);
      if (New != To.Bits) {
        To.Bits = New;
        if (To.Wit == NoWitness)
          To.Wit = From.Wit;
        B.UpperWork.push_back(Edge->Target);
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
  B.Reach.assign(NumLocal, {0, NoWitness});
  B.Reached.assign(NumLocal, false);
  auto reach = [&](uint32_t L) {
    if (!B.Reached[L]) {
      B.Reached[L] = true;
      B.Touched.push_back(L);
    }
  };
  auto internal = [&](uint32_t L) { return B.ExtPos[L] == NotExternal; };
  for (uint32_t SourcePos = 0; SourcePos != B.Externals.size(); ++SourcePos) {
    auto [Source, From] = B.Externals[SourcePos];
    reach(Source);
    B.Reach[Source].Bits = UsedBits;
    B.Work.push_back(Source);
    joinForward(B.Reach, B.Work, internal, reach);
    // Pairs of free variables are already linked in the system.
    B.Hits.clear();
    for (uint32_t L : B.Touched)
      if (L != Source && !internal(L) &&
          (SourcePos < NumOwned || B.ExtPos[L] < NumOwned))
        B.Hits.push_back(B.ExtPos[L]);
    std::sort(B.Hits.begin(), B.Hits.end());
    for (uint32_t TargetPos : B.Hits) {
      auto [Target, To] = B.Externals[TargetPos];
      emit(QualExpr::makeVar(From), QualExpr::makeVar(To),
           B.Reach[Target].Bits, B.Reach[Target].Wit);
    }
    for (uint32_t L : B.Touched) {
      B.Reach[L] = {0, NoWitness};
      B.Reached[L] = false;
    }
    B.Touched.clear();
  }

  // Constant bounds for the interface variables. (Free variables keep
  // their own constant bounds in the system.)
  for (uint32_t L = 0; L != NumOwned; ++L) {
    QualExpr V = QualExpr::makeVar(Interface[L]);
    if (B.Lower[L].Bits)
      emit(QualExpr::makeConst(LatticeValue(B.Lower[L].Bits)), V, UsedBits,
           B.Lower[L].Wit);
    if ((Upper[L].Bits & UsedBits) != UsedBits)
      emit(V, QualExpr::makeConst(LatticeValue(Upper[L].Bits)), UsedBits,
           Upper[L].Wit);
  }

  // Leave the scratch empty for the next call (the work lists drained).
  for (QualVarId V : B.NodeVar)
    if (V >= Mark.FirstVar)
      B.NodeOf[V - Mark.FirstVar] = NoNode;
  B.clearOlder();
  B.NodeVar.clear();
  B.Lower.clear();
  B.Upper.clear();
  B.ExtPos.clear();
  B.Externals.clear();
  B.FwdPairs.clear();
  B.BwdPairs.clear();
  return Canned;
}

QualScheme QualScheme::generalize(const ConstraintSystem &Sys, QualType Body,
                                  Watermark Mark, SimplifyScratch &Scratch,
                                  const FreeVarSet *Escapes) {
  using Buffers = SimplifyScratch::Buffers;
  QualScheme S;
  S.Body = Body;

  // Bound (interface) variables: fresh variables occurring in the body
  // type, in visit order. Only these are observable by callers, so only
  // these need per-instance copies. A variable whose one occurrence lies
  // inside a parameter stays OnceInParam.
  Buffers &B = Scratch.buffers();
  std::vector<Buffers::Occurrence> &Occurs = B.Occurs;
  if (Occurs.size() < Sys.getNumVars() - Mark.FirstVar)
    Occurs.resize(Sys.getNumVars() - Mark.FirstVar, Buffers::NotBound);
  auto Note = [&](QualType T, bool InParam) {
    if (!T.getQual().isVar())
      return;
    QualVarId V = T.getQual().getVar();
    if (V < Mark.FirstVar || (Escapes && V < Escapes->size() && (*Escapes)[V]))
      return;
    Buffers::Occurrence &O = Occurs[V - Mark.FirstVar];
    if (O == Buffers::NotBound) {
      O = InParam ? Buffers::OnceInParam : Buffers::Observed;
      B.BoundVars.push_back(V);
    } else {
      O = Buffers::Observed;
    }
  };
  if (!Body.isNull()) {
    Note(Body, false);
    for (unsigned I = 0, E = Body.getNumArgs(); I != E; ++I) {
      bool InParam = Body.getCtor()->getVariance(I) == Variance::Contravariant;
      Body.getArg(I).visit([&](QualType T) { Note(T, InParam); });
    }
  }
  if (B.BoundVars.empty())
    return S;

  S.Canned = simplifyConstraints(Sys, Mark, B.BoundVars, Scratch, Escapes);
  // A bound variable some canned constraint mentions is observable at
  // every instance.
  auto Observe = [&](QualExpr E) {
    if (E.isVar() && E.getVar() >= Mark.FirstVar &&
        Occurs[E.getVar() - Mark.FirstVar] == Buffers::OnceInParam)
      Occurs[E.getVar() - Mark.FirstVar] = Buffers::Observed;
  };
  for (const Constraint &C : S.Canned) {
    Observe(C.Lhs);
    Observe(C.Rhs);
  }

  S.Bound.reserve(B.BoundVars.size());
  for (uint32_t I = 0; I != B.BoundVars.size(); ++I) {
    QualVarId V = B.BoundVars[I];
    Buffers::Occurrence &O = Occurs[V - Mark.FirstVar];
    S.Bound.push_back(
        {V, I, O == Buffers::OnceInParam ? NotAtCall : S.NumCallVars++});
    O = Buffers::NotBound;
  }
  B.BoundVars.clear();
  std::sort(S.Bound.begin(), S.Bound.end(),
            [](const BoundVar &L, const BoundVar &R) { return L.Var < R.Var; });
  return S;
}

const QualScheme::BoundVar *QualScheme::find(QualVarId Var) const {
  auto It = std::lower_bound(
      Bound.begin(), Bound.end(), Var,
      [](const BoundVar &B, QualVarId V) { return B.Var < V; });
  return It != Bound.end() && It->Var == Var ? &*It : nullptr;
}

QualType QualScheme::instance(ConstraintSystem &Sys, QualTypeFactory &Factory,
                              bool AtCall) const {
  if (Bound.empty())
    return Body;

  // A full instance maps the bound variable of body position I to
  // First + I; a call instance numbers only the observable ones.
  const QualVarId First = Sys.freshVars(AtCall ? NumCallVars : Bound.size());
  auto MapVar = [&](QualVarId V) {
    const BoundVar *B = find(V);
    if (!B)
      return QualExpr::makeVar(V);
    if (!AtCall)
      return QualExpr::makeVar(First + B->Index);
    return QualExpr::makeVar(B->CallIndex == NotAtCall ? DontCare
                                                       : First + B->CallIndex);
  };
  auto MapExpr = [&](QualExpr E) { return E.isVar() ? MapVar(E.getVar()) : E; };

  // No canned constraint mentions a don't-care variable.
  for (const Constraint &C : Canned)
    Sys.addConstraint(
        {MapExpr(C.Lhs), MapExpr(C.Rhs), C.Mask, C.Loc, C.Reason});

  return Factory.substitute(Body, MapVar);
}
