//===- qual/ConstraintSystem.h - Atomic qualifier constraints --*- C++ -*-===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The atomic subtyping constraint system of Section 3.1. After structural
/// decomposition (Subtype.h) all constraints have the form kappa <= kappa',
/// kappa <= l, l <= kappa, or l <= l', over the qualifier lattice. Such
/// systems are solvable in linear time for a fixed qualifier set [HR97]; the
/// solver below computes the *least* solution by forward join propagation and
/// the *greatest* solution by backward meet propagation, then reports every
/// upper-bound violation with a provenance path.
///
/// The paper solved these with BANE's generic engine and remarks that "we
/// expect substantial speedups would be achieved with a framework specialized
/// to the qualifier lattice" -- this class is that specialized framework: a
/// seeded worklist over per-variable edge lists. A variable re-enters a
/// worklist only when its bound changes, which happens at most once per
/// qualifier bit, so a solve visits each var->var edge at most |Q| times per
/// direction.
///
/// Constraints optionally carry a bit \p Mask restricting them to a subset of
/// the qualifier components; masked constraints implement well-formedness
/// rules such as binding-time's "nothing dynamic inside something static"
/// (see WellFormed.h) without leaving the atomic fragment.
///
/// See docs/SOLVER.md for the full algorithm and invariants.
///
//===----------------------------------------------------------------------===//

#ifndef QUALS_QUAL_CONSTRAINTSYSTEM_H
#define QUALS_QUAL_CONSTRAINTSYSTEM_H

#include "qual/QualExpr.h"
#include "support/PagedArray.h"
#include "support/SourceLoc.h"

#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace quals {

/// Dense id of a constraint within its ConstraintSystem.
using ConstraintId = uint32_t;

/// Id of an interned reason text within its ConstraintSystem (0 = empty).
using ReasonId = uint32_t;

/// No reason interned yet (see InternedReason).
constexpr ReasonId NoReasonId = ~ReasonId(0);

/// A fixed reason text together with its id in one ConstraintSystem. The
/// id starts out NoReasonId; the first constraint added with it interns
/// the text and stores the id, and every later one uses the id without
/// hashing the text. Reasons are thus interned in the order their first
/// constraints are added, exactly as plain text reasons are.
struct InternedReason {
  std::string_view Text;
  ReasonId Id = NoReasonId;

  InternedReason() = default;
  explicit InternedReason(std::string_view Text) : Text(Text) {}
};

/// Where (and why) a constraint is generated, for error explanations. add*()
/// copies a borrowed text reason, so it may view a temporary for the call;
/// an InternedReason must outlive the call and belong to the same system.
struct ConstraintOrigin {
  SourceLoc Loc;
  std::string_view Reason;
  InternedReason *Interned = nullptr;

  ConstraintOrigin() = default;
  ConstraintOrigin(std::string_view Reason) : Reason(Reason) {}
  ConstraintOrigin(SourceLoc Loc, std::string_view Reason)
      : Loc(Loc), Reason(Reason) {}
  ConstraintOrigin(SourceLoc Loc, InternedReason &Interned)
      : Loc(Loc), Interned(&Interned) {}
};

/// An atomic constraint: (Lhs & Mask) <= (Rhs | ~Mask) componentwise, i.e.
/// Lhs <= Rhs restricted to the qualifier bits in Mask.
struct Constraint {
  QualExpr Lhs;
  QualExpr Rhs;
  uint64_t Mask;
  SourceLoc Loc;   ///< Where it was generated.
  ReasonId Reason; ///< Why; ConstraintSystem::getReason() gives the text.
};
static_assert(sizeof(Constraint) <= 48, "constraint record grew");

/// A failed upper bound discovered by the solver.
struct Violation {
  ConstraintId Cause;       ///< The upper-bound constraint that failed.
  LatticeValue Actual;      ///< Least solution of the left-hand side.
  LatticeValue Bound;       ///< The bound it had to fit under.
  uint64_t OffendingBits;   ///< Lattice bits of Actual exceeding Bound.
};

/// Solver configuration.
struct SolverConfig {
  /// Constraint budget (support/Limits.h): once this many constraints are
  /// stored, further add*() calls are dropped and hitConstraintLimit()
  /// latches. The analyses translate the latch into a recoverable
  /// `fatal: resource limit` diagnostic. 0 = unlimited.
  uint64_t MaxConstraints = 0;
};

class MetricsRegistry;

/// Counters describing where solve time went; see getStats().
///
/// Work counters (SolveCalls, WorklistPushes, EdgeVisits, SolveSeconds)
/// describe the *most recent* solve(): the system zeroes them on solve()
/// entry so repeated incremental solves never report accumulated counts.
/// Snapshot fields (NumVars..VarVarEdges) describe the current system.
/// Callers wanting lifetime totals sum the per-solve snapshots (or read the
/// "solver.*" counters a metrics-collecting run accumulates in
/// MetricsRegistry::global(); see publishTo()).
struct SolverStats {
  unsigned NumVars = 0;         ///< Qualifier variables created.
  unsigned NumConstraints = 0;  ///< Constraints added (all four forms).
  unsigned VarVarEdges = 0;     ///< var <= var constraints among them.
  unsigned SolveCalls = 0;      ///< solve() invocations.
  uint64_t WorklistPushes = 0;  ///< Worklist insertions.
  /// Edge traversals across both drains; deterministic for a given
  /// constraint sequence.
  uint64_t EdgeVisits = 0;
  double SolveSeconds = 0;      ///< Wall-clock spent inside solve().

  /// Zeroes every field (solve() calls this on entry; also for tests and
  /// harnesses reusing a stats value).
  void reset() { *this = SolverStats(); }

  /// Publishes this snapshot into \p R under the "solver." namespace: work
  /// counters *add* (so per-solve snapshots accumulate into lifetime
  /// totals), snapshot fields *set* gauges, and SolveSeconds feeds the
  /// "solver.solve" timer. solve() does this automatically when
  /// MetricsRegistry::collecting() is on.
  ///
  /// Safe to call from concurrent batch workers (docs/PARALLEL.md): the
  /// registry synchronizes internally, counters/timers accumulate into
  /// corpus totals, and the gauges are last-writer-wins snapshots.
  void publishTo(MetricsRegistry &R) const;
};

/// Renders \p Stats as an aligned two-column ASCII table (support/TextTable)
/// for the tools' --stats output.
std::string renderSolverStats(const SolverStats &Stats);

/// Collects and solves atomic qualifier constraints.
///
/// Solving is incremental: constraints may be added after a solve() and the
/// next solve() only propagates the new information. Queries (lower/upper)
/// require a preceding solve() with no constraints added in between.
class ConstraintSystem {
public:
  explicit ConstraintSystem(const QualifierSet &QS, SolverConfig Config = {})
      : QS(QS), Config(Config), ReasonText(1) {
    ReasonIndex.emplace(ReasonText[0], 0);
  }
  ConstraintSystem(const ConstraintSystem &) = delete; // Index views table.

  const QualifierSet &getQualifierSet() const { return QS; }
  const SolverConfig &getConfig() const { return Config; }

  /// Creates a fresh qualifier variable (nameless: explanations cite reasons).
  QualVarId freshVar() { return freshVars(1); }

  /// Creates \p N fresh variables with consecutive ids; returns the first.
  QualVarId freshVars(unsigned N);

  unsigned getNumVars() const { return Vars.size(); }
  unsigned getNumConstraints() const { return Constraints.size(); }

  const Constraint &getConstraint(ConstraintId Id) const {
    return Constraints[Id];
  }

  /// The id of \p Text in the reason table; the text is copied in once.
  ReasonId internReason(std::string_view Text);

  /// The reason id \p Origin carries, interning its text if needed.
  ReasonId internReason(const ConstraintOrigin &Origin);

  /// The text of reason \p Id (lives as long as this system).
  std::string_view getReason(ReasonId Id) const { return ReasonText[Id]; }
  /// Reasons interned so far; their ids are [0, count).
  size_t getNumReasons() const { return ReasonText.size(); }

  /// Adds a record whose reason is already interned here (scheme replay).
  void addConstraint(const Constraint &C);

  /// Adds Lhs <= Rhs over all qualifier components.
  void addLeq(QualExpr Lhs, QualExpr Rhs, ConstraintOrigin Origin);

  /// Adds Lhs <= Rhs restricted to the components in \p Mask.
  void addLeqMasked(QualExpr Lhs, QualExpr Rhs, uint64_t Mask,
                    ConstraintOrigin Origin);

  /// Adds Lhs = Rhs (as two <= constraints).
  void addEq(QualExpr Lhs, QualExpr Rhs, ConstraintOrigin Origin);

  /// Runs the propagation fixpoint over constraints added since the last
  /// solve. Returns true if the system is satisfiable so far.
  bool solve();

  /// Least solution of \p Var (valid after solve()).
  LatticeValue lower(QualVarId Var) const {
    assert(SolvedConstraints == Constraints.size() && "call solve() first");
    return Vars[Var].Lower;
  }

  /// Greatest solution of \p Var (valid after solve()).
  LatticeValue upper(QualVarId Var) const {
    assert(SolvedConstraints == Constraints.size() && "call solve() first");
    return Vars[Var].Upper;
  }

  /// Least solution of an arbitrary qualifier expression.
  LatticeValue lower(QualExpr E) const {
    return E.isVar() ? lower(E.getVar()) : E.getConst();
  }

  /// Greatest solution of an arbitrary qualifier expression.
  LatticeValue upper(QualExpr E) const {
    return E.isVar() ? upper(E.getVar()) : E.getConst();
  }

  /// True if qualifier \p Id *must* be present in \p Var in every solution.
  bool mustHave(QualVarId Var, QualifierId Id) const;

  /// True if qualifier \p Id *may* be present in \p Var in some solution.
  bool mayHave(QualVarId Var, QualifierId Id) const;

  /// Scans every upper-bound constraint; returns all violations.
  std::vector<Violation> collectViolations() const;

  /// True if a full solve + violation scan finds no inconsistency.
  bool isSatisfiable();

  /// True once SolverConfig::MaxConstraints stopped an add*() call. The
  /// stored system is then a prefix of the intended one, so solutions are
  /// meaningless; callers must fail with a resource-limit diagnostic.
  bool hitConstraintLimit() const { return ConstraintLimitHit; }

  /// Renders a human-readable explanation of \p V: the chain of constraints
  /// that carried the offending qualifier from its source to the bound.
  /// Builds a search index over the whole system; to explain several
  /// violations, share one ViolationExplainer instead.
  std::string explain(const Violation &V) const;

  /// Instrumentation snapshot; cheap, callable at any time.
  SolverStats getStats() const;

private:
  struct VarInfo {
    LatticeValue Lower;           ///< Join of reachable lower bounds.
    LatticeValue Upper;           ///< Meet of reachable upper bounds.
    /// Heads of this var's outgoing/incoming edge lists (indices into
    /// EdgePool, ~0u = empty).
    uint32_t SuccHead = ~0u;
    uint32_t PredHead = ~0u;
  };
  static_assert(sizeof(VarInfo) == 24, "variable record grew");

  /// One node of an intrusive singly-linked edge list. All nodes live in
  /// EdgePool, so adding an edge costs two appends and no per-variable
  /// allocation.
  struct EdgeNode {
    ConstraintId Cons;
    uint32_t Next;
  };

  const QualifierSet &QS;
  SolverConfig Config;
  // Paged (support/PagedArray.h): ids stay dense and growth never copies a
  // record, so adding a constraint never reallocates.
  PagedArray<VarInfo> Vars;
  PagedArray<Constraint> Constraints;
  /// Backing store for the per-var edge lists.
  PagedArray<EdgeNode> EdgePool;
  unsigned NumVarVarEdges = 0;
  /// Ids of constraints whose Rhs is a constant (upper bounds), for the
  /// violation scan.
  std::vector<ConstraintId> UpperBoundIds;
  /// Ids of const <= const constraints (checked directly).
  std::vector<ConstraintId> ConstConstIds;
  /// Reason texts by id; a deque never moves them, so ReasonIndex may view
  /// them.
  std::deque<std::string> ReasonText;
  std::unordered_map<std::string_view, ReasonId> ReasonIndex;
  unsigned SolvedConstraints = 0;
  bool ConstraintLimitHit = false;
  SolverStats Stats;

  /// Joins \p NewBits into \p Var's lower solution. Returns true if any bit
  /// was gained.
  bool raiseLower(QualVarId Var, LatticeValue NewBits);

  /// Meets \p Cap into \p Var's upper solution; true if it shrank.
  bool capUpper(QualVarId Var, LatticeValue Cap);

  /// Drains both worklists to fixpoint: forward join propagation for the
  /// least solution, then backward meet propagation for the greatest.
  void runWorklists(std::vector<QualVarId> &LowerWork,
                    std::vector<QualVarId> &UpperWork);
};

/// Explains the violations of one solved system. explain() searches, per
/// offending qualifier bit, an index of the constraints that carry the bit
/// into each variable; the index is built on the first explanation that
/// needs its bit and shared by every later one, so explaining k violations
/// costs one index build per bit plus k searches. The system must stay
/// unchanged while the explainer is in use.
class ViolationExplainer {
public:
  explicit ViolationExplainer(const ConstraintSystem &Sys) : Sys(Sys) {}

  /// The explanation ConstraintSystem::explain(\p V) gives.
  std::string explain(const Violation &V);

private:
  /// The bit-carrying in-edges of every variable, in constraint-id order,
  /// in compressed-sparse-row form: variable V's are
  /// Ids[Start[V] .. Start[V + 1]).
  struct InEdgeIndex {
    uint64_t Bit = 0;
    std::vector<uint32_t> Start;
    std::vector<ConstraintId> Ids;
  };

  const ConstraintSystem &Sys;
  std::vector<InEdgeIndex> Indexes; ///< One per bit explained so far.
  /// Search scratch: BFS parent link per variable (~0u = unvisited),
  /// reset after each search, and the BFS queue.
  std::vector<uint32_t> ParentOf;
  std::vector<std::pair<QualVarId, ConstraintId>> Parent;
  std::vector<QualVarId> Queue;

  const InEdgeIndex &indexFor(uint64_t Bit);
};

} // namespace quals

#endif // QUALS_QUAL_CONSTRAINTSYSTEM_H
