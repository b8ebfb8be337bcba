//===- link/Linker.cpp - Whole-program link over TU summaries --------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//

#include "link/Linker.h"

#include "support/Metrics.h"

#include <algorithm>
#include <span>
#include <unordered_map>

using namespace quals;
using namespace quals::link;

void link::canonicalizeSummaries(std::vector<TuSummary> &Summaries) {
  std::stable_sort(Summaries.begin(), Summaries.end(),
                   [](const TuSummary &A, const TuSummary &B) {
                     if (A.sourceName() != B.sourceName())
                       return A.sourceName() < B.sourceName();
                     if (A.ContentHash != B.ContentHash)
                       return A.ContentHash < B.ContentHash;
                     return A.ConfigHash < B.ConfigHash;
                   });
  Summaries.erase(std::unique(Summaries.begin(), Summaries.end(),
                              [](const TuSummary &A, const TuSummary &B) {
                                return A.ContentHash == B.ContentHash &&
                                       A.ConfigHash == B.ConfigHash;
                              }),
                  Summaries.end());
}

namespace {

/// Renders "file:line:col: error: <msg>" (no location prefix when the
/// origin carries none).
std::string renderError(const TuSummary &S, const QsumOrigin &O,
                        const std::string &Msg) {
  std::string Out;
  if (O.Line != 0) {
    Out += S.str(O.File);
    Out += ':';
    Out += std::to_string(O.Line);
    Out += ':';
    Out += std::to_string(O.Col);
    Out += ": ";
  }
  Out += "error: ";
  Out += Msg;
  return Out;
}

/// One symbol occurrence during resolution.
struct SymEntry {
  uint32_t Key = 0; ///< Summary index << 2 | section (Fn/Glob x Exp/Imp).
  const QsumSymbol *Sym = nullptr;

  uint32_t sum() const { return Key >> 2; }
  bool isFn() const { return (Key & 2) == 0; }
  bool isExport() const { return (Key & 1) == 0; }
};

/// The occurrences Entries[Begin, End) of one name.
struct SymGroup {
  std::string_view Name;
  uint32_t Begin = 0, End = 0;
};

/// Groups every symbol occurrence of \p Summaries by name, through a hash
/// table from name to group: Entries holds each group's occurrences
/// contiguously, in canonical order (by summary, then section, then
/// position), and the groups come back sorted by name. No string is copied
/// and no per-name container is built.
std::vector<SymGroup> groupSymbols(const std::vector<TuSummary> &Summaries,
                                   std::vector<SymEntry> &Entries) {
  auto forEachOccurrence = [&](auto Fn) {
    for (size_t K = 0; K != Summaries.size(); ++K) {
      const TuSummary &S = Summaries[K];
      const std::vector<QsumSymbol> *Sections[] = {
          &S.FnExports, &S.FnImports, &S.GlobExports, &S.GlobImports};
      for (uint32_t Section = 0; Section != 4; ++Section)
        for (const QsumSymbol &Sym : *Sections[Section])
          Fn(SymEntry{static_cast<uint32_t>(K) << 2 | Section, &Sym},
             S.str(Sym.Name));
    }
  };
  size_t Total = 0;
  forEachOccurrence([&](SymEntry, std::string_view) { ++Total; });

  // Pass 1: the group of every occurrence, and each group's size (in End).
  std::unordered_map<std::string_view, uint32_t> GroupIndex;
  std::vector<SymGroup> Groups;
  std::vector<uint32_t> GroupOf;
  GroupOf.reserve(Total);
  forEachOccurrence([&](SymEntry, std::string_view Name) {
    auto [It, New] = GroupIndex.try_emplace(Name, Groups.size());
    if (New)
      Groups.push_back({Name, 0, 0});
    GroupOf.push_back(It->second);
    ++Groups[It->second].End;
  });
  GroupIndex = {};

  // Pass 2: lay the groups out and place each occurrence in its group.
  uint32_t Next = 0;
  for (SymGroup &G : Groups) {
    G.Begin = Next;
    Next += G.End;
    G.End = G.Begin;
  }
  Entries.resize(Total);
  size_t Occurrence = 0;
  forEachOccurrence([&](SymEntry E, std::string_view) {
    Entries[Groups[GroupOf[Occurrence++]].End++] = E;
  });

  std::sort(Groups.begin(), Groups.end(),
            [](const SymGroup &A, const SymGroup &B) {
              return A.Name < B.Name;
            });
  return Groups;
}

} // namespace

LinkResult link::linkSummaries(std::vector<TuSummary> &Summaries,
                               const LinkOptions &Opts) {
  LinkResult R;
  R.NumInputs = static_cast<unsigned>(Summaries.size());
  canonicalizeSummaries(Summaries);
  R.NumSummaries = static_cast<unsigned>(Summaries.size());

  if (Summaries.empty()) {
    R.LoadOk = false;
    R.Diagnostics.push_back("error: no summaries to link");
    return R;
  }

  // Compatibility: one configuration, one qualifier lattice. The config
  // hash already separates every result-affecting option, so a mismatch
  // means the summaries were compiled for different analyses.
  const TuSummary &First = Summaries.front();
  for (const TuSummary &S : Summaries) {
    if (S.ConfigHash != First.ConfigHash) {
      R.LoadOk = false;
      R.Diagnostics.push_back(
          "error: summary '" + std::string(S.sourceName()) +
          "': configuration hash mismatch with '" +
          std::string(First.sourceName()) + "' (stale or foreign summary)");
      continue;
    }
    bool SameQuals = S.Qualifiers.size() == First.Qualifiers.size();
    for (size_t I = 0; SameQuals && I != S.Qualifiers.size(); ++I)
      SameQuals = S.str(S.Qualifiers[I].Name) ==
                      First.str(First.Qualifiers[I].Name) &&
                  S.Qualifiers[I].Polarity == First.Qualifiers[I].Polarity;
    if (!SameQuals) {
      R.LoadOk = false;
      R.Diagnostics.push_back("error: summary '" + std::string(S.sourceName()) +
                              "': qualifier set differs from '" +
                              std::string(First.sourceName()) + "'");
    }
  }
  if (!R.LoadOk)
    return R;

  QualifierSet QS;
  for (const QsumQualifier &Q : First.Qualifiers)
    QS.add(std::string(First.str(Q.Name)),
           Q.Polarity ? Polarity::Negative : Polarity::Positive);
  QualifierId ConstQual = 0;
  if (!QS.lookup("const", ConstQual)) {
    R.LoadOk = false;
    R.Diagnostics.push_back(
        "error: summaries do not declare the qualifier 'const'");
    return R;
  }

  SolverConfig Config;
  Config.MaxConstraints = Opts.MaxConstraints;
  ConstraintSystem Sys(QS, Config);

  // Merge: each summary's variables get a contiguous block, and its
  // constraints the contiguous ids from MergeBase[K] on (the budget may
  // drop some, but that fails the load before any origin is read). So a
  // merged constraint's serialized origin is found from its id, and only
  // the library pins added by resolution need a side table: ConstraintOrigin's
  // SourceLoc cannot describe locations in files this process never parsed.
  std::vector<ConstraintId> MergeBase(Summaries.size());
  std::vector<uint32_t> VarBase(Summaries.size(), 0);
  {
    PhaseScope Phase("link-merge", "link");
    std::vector<ReasonId> ReasonOf; // Summary string id -> interned reason.
    for (size_t K = 0; K != Summaries.size(); ++K) {
      const TuSummary &S = Summaries[K];
      VarBase[K] = Sys.freshVars(S.NumVars);
      MergeBase[K] = Sys.getNumConstraints();
      ReasonOf.assign(S.Strings.size(), ~ReasonId(0));
      for (const QsumConstraint &C : S.Constraints) {
        QualExpr Lhs =
            C.LhsIsVar
                ? QualExpr::makeVar(VarBase[K] + static_cast<uint32_t>(C.Lhs))
                : QualExpr::makeConst(LatticeValue(C.Lhs));
        QualExpr Rhs =
            C.RhsIsVar
                ? QualExpr::makeVar(VarBase[K] + static_cast<uint32_t>(C.Rhs))
                : QualExpr::makeConst(LatticeValue(C.Rhs));
        ReasonId &Reason = ReasonOf[C.Origin.Reason];
        if (Reason == ~ReasonId(0))
          Reason = Sys.internReason(S.str(C.Origin.Reason));
        Sys.addConstraint({Lhs, Rhs, C.Mask, SourceLoc(), Reason});
      }
    }
  }
  ConstraintId MergeEnd = Sys.getNumConstraints();

  // Resolution: group every occurrence by name (names visited in sorted
  // order; within a name, occurrences follow canonical summary order),
  // pick the defining occurrence -- or else the first one with variables
  // -- as representative, and unify. A shape-only import (no variables:
  // its TU never references the function) meets the kind and shape checks
  // but equates nothing.
  struct PinOrigin {
    ConstraintId Id;
    uint32_t Sum;
    const QsumOrigin *Origin;
  };
  std::vector<PinOrigin> PinOrigins; // Ascending Id.
  {
    PhaseScope Phase("link-unify", "link");
    std::vector<SymEntry> Entries;
    std::vector<SymGroup> Groups = groupSymbols(Summaries, Entries);

    for (const SymGroup &G : Groups) {
      std::string_view Name = G.Name;
      std::span<const SymEntry> Occurrences(Entries.data() + G.Begin,
                                            G.End - G.Begin);
      const SymEntry *Rep = nullptr;
      for (const SymEntry &E : Occurrences)
        if (E.isExport()) {
          Rep = &E;
          break;
        }
      bool Resolved = Rep != nullptr;
      for (const SymEntry &E : Occurrences)
        if (!Rep && !E.Sym->Vars.empty())
          Rep = &E;
      if (!Rep)
        Rep = &Occurrences.front();
      std::string_view RepSrc = Summaries[Rep->sum()].sourceName();
      std::string_view RepShape = Summaries[Rep->sum()].str(Rep->Sym->Shape);
      ReasonId Linkage = 0; // Interned on the first equated variable.

      for (const SymEntry &E : Occurrences) {
        if (&E == Rep)
          continue;
        const TuSummary &S = Summaries[E.sum()];
        if (E.isExport()) {
          R.LinkOk = false;
          R.Diagnostics.push_back("error: duplicate definition of '" +
                                  std::string(Name) + "' (defined in '" +
                                  std::string(RepSrc) + "' and '" +
                                  std::string(S.sourceName()) + "')");
          continue;
        }
        if (E.isFn() != Rep->isFn()) {
          R.LinkOk = false;
          R.Diagnostics.push_back(
              "error: symbol '" + std::string(Name) + "' is a " +
              (Rep->isFn() ? "function" : "object") + " in '" +
              std::string(RepSrc) + "' but a " +
              (E.isFn() ? "function" : "object") + " in '" +
              std::string(S.sourceName()) + "'");
          continue;
        }
        std::string_view Shape = S.str(E.Sym->Shape);
        bool VarsMismatch = !E.Sym->Vars.empty() &&
                            E.Sym->Vars.size() != Rep->Sym->Vars.size();
        if (Shape != RepShape || VarsMismatch) {
          R.LinkOk = false;
          R.Diagnostics.push_back(
              "error: interface mismatch for '" + std::string(Name) + "': '" +
              std::string(RepSrc) + "' declares " + std::string(RepShape) +
              ", '" + std::string(S.sourceName()) + "' declares " +
              std::string(Shape));
          continue;
        }
        // Equal shapes carry positionally-identical variable lists: equate
        // them, welding this occurrence's interface to the representative.
        // These constraints have no serialized origin.
        if (!E.Sym->Vars.empty() && !Linkage)
          Linkage = Sys.internReason("cross-TU linkage of '" +
                                     std::string(Name) + "'");
        for (size_t I = 0; I != E.Sym->Vars.size(); ++I) {
          QualExpr Occ =
              QualExpr::makeVar(VarBase[E.sum()] + E.Sym->Vars[I]);
          QualExpr Def =
              QualExpr::makeVar(VarBase[Rep->sum()] + Rep->Sym->Vars[I]);
          Sys.addConstraint({Occ, Def, QS.usedBits(), SourceLoc(), Linkage});
          Sys.addConstraint({Def, Occ, QS.usedBits(), SourceLoc(), Linkage});
        }
      }

      // Section 4.2's library conservatism, deferred from compile time:
      // applies only when no TU defines the symbol. Every occurrence's pins
      // apply; after unification they bound the same variables, so the
      // duplicates are idempotent.
      if (!Resolved)
        for (const SymEntry &E : Occurrences)
          for (const QsumPin &Pin : E.Sym->Pins) {
            const TuSummary &S = Summaries[E.sum()];
            PinOrigins.push_back(
                {Sys.getNumConstraints(), E.sum(), &Pin.Origin});
            Sys.addLeq(QualExpr::makeVar(VarBase[E.sum()] + Pin.Var),
                       QualExpr::makeConst(QS.notQual(ConstQual)),
                       ConstraintOrigin(S.str(Pin.Origin.Reason)));
          }
    }
  }

  R.NumVars = Sys.getNumVars();
  R.NumConstraints = Sys.getNumConstraints();
  if (Sys.hitConstraintLimit()) {
    R.LoadOk = false;
    R.Diagnostics.push_back(
        "error: resource limit: constraint budget exhausted (" +
        std::to_string(Opts.MaxConstraints) +
        " constraints); raise with --limit-constraints=N, 0 for unlimited");
    return R;
  }
  if (!R.LinkOk)
    return R;

  // The global solve.
  bool Ok = Sys.solve();
  std::vector<Violation> Violations = Sys.collectViolations();
  if (!Ok || !Violations.empty()) {
    R.SolveOk = false;
    ViolationExplainer Explainer(Sys);
    for (const Violation &V : Violations) {
      // The summary and serialized origin of V's cause (none for linkage).
      uint32_t Sum = 0;
      const QsumOrigin *Origin = nullptr;
      if (V.Cause < MergeEnd) {
        Sum = std::upper_bound(MergeBase.begin(), MergeBase.end(), V.Cause) -
              MergeBase.begin() - 1;
        Origin = &Summaries[Sum].Constraints[V.Cause - MergeBase[Sum]].Origin;
      } else {
        auto Pin = std::lower_bound(
            PinOrigins.begin(), PinOrigins.end(), V.Cause,
            [](const PinOrigin &P, ConstraintId Id) { return P.Id < Id; });
        if (Pin != PinOrigins.end() && Pin->Id == V.Cause) {
          Sum = Pin->Sum;
          Origin = Pin->Origin;
        }
      }
      R.Diagnostics.push_back(renderError(Summaries[Sum],
                                          Origin ? *Origin : QsumOrigin(),
                                          Explainer.explain(V)));
    }
  }

  // Classification of every interesting position under the global
  // solution, in a canonical order (the result position sorts last within
  // its function, mirroring qualcc's per-function layout).
  for (size_t K = 0; K != Summaries.size(); ++K) {
    const TuSummary &S = Summaries[K];
    for (const QsumPos &P : S.Positions) {
      QualVarId Var = VarBase[K] + P.Var;
      constinf::PosClass Class = constinf::PosClass::Either;
      if (!Sys.mayHave(Var, ConstQual))
        Class = constinf::PosClass::MustNonConst;
      else if (Sys.mustHave(Var, ConstQual))
        Class = constinf::PosClass::MustConst;
      R.Positions.push_back({std::string(S.str(P.FnName)), P.ParamIndex,
                             P.Depth, P.DeclaredConst, Class});
    }
  }
  std::stable_sort(R.Positions.begin(), R.Positions.end(),
                   [](const LinkedPos &A, const LinkedPos &B) {
                     if (A.FnName != B.FnName)
                       return A.FnName < B.FnName;
                     unsigned PA = A.ParamIndex < 0 ? ~0u
                                                    : unsigned(A.ParamIndex);
                     unsigned PB = B.ParamIndex < 0 ? ~0u
                                                    : unsigned(B.ParamIndex);
                     if (PA != PB)
                       return PA < PB;
                     return A.Depth < B.Depth;
                   });

  for (const LinkedPos &P : R.Positions) {
    ++R.Counts.Total;
    if (P.DeclaredConst)
      ++R.Counts.Declared;
    if (P.Class == constinf::PosClass::MustNonConst)
      ++R.Counts.MustNonConst;
    else
      ++R.Counts.PossibleConst;
  }

  R.Stats = Sys.getStats();
  R.Stats.SolveSeconds = 0; // Wall-clock: unfit for byte-identical output.
  return R;
}
