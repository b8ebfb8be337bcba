//===- link/Linker.cpp - Whole-program link over TU summaries --------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//

#include "link/Linker.h"

#include "support/Metrics.h"

#include <algorithm>
#include <map>

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
  bool IsFn = false;
  bool IsExport = false;
  uint32_t Sum = 0; ///< Canonical summary index.
  const QsumSymbol *Sym = nullptr;
};

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

  // Merge: each summary's variables get a contiguous block; a side table
  // maps every merged constraint id back to (summary, serialized origin)
  // for diagnostics, since ConstraintOrigin's SourceLoc cannot describe
  // locations in files this process never parsed.
  struct MergedOrigin {
    uint32_t Sum = 0;
    QsumOrigin Origin;
  };
  std::vector<MergedOrigin> Origins;
  std::vector<uint32_t> VarBase(Summaries.size(), 0);
  {
    PhaseScope Phase("link-merge", "link");
    for (size_t K = 0; K != Summaries.size(); ++K) {
      const TuSummary &S = Summaries[K];
      VarBase[K] = Sys.freshVars(S.NumVars);
      for (const QsumConstraint &C : S.Constraints) {
        QualExpr Lhs =
            C.LhsIsVar
                ? QualExpr::makeVar(VarBase[K] + static_cast<uint32_t>(C.Lhs))
                : QualExpr::makeConst(LatticeValue(C.Lhs));
        QualExpr Rhs =
            C.RhsIsVar
                ? QualExpr::makeVar(VarBase[K] + static_cast<uint32_t>(C.Rhs))
                : QualExpr::makeConst(LatticeValue(C.Rhs));
        Sys.addLeqMasked(Lhs, Rhs, C.Mask, {S.str(C.Origin.Reason)});
        Origins.resize(Sys.getNumConstraints(),
                       {static_cast<uint32_t>(K), C.Origin});
      }
    }
  }

  // Resolution: group every occurrence by name (std::map iterates names in
  // sorted order; within a name, occurrences follow canonical summary
  // order), pick the defining occurrence -- or else the first one with
  // variables -- as representative, and unify. A shape-only import (no
  // variables: its TU never references the function) meets the kind and
  // shape checks but equates nothing.
  {
    PhaseScope Phase("link-unify", "link");
    std::map<std::string_view, std::vector<SymEntry>> ByName;
    for (size_t K = 0; K != Summaries.size(); ++K) {
      const TuSummary &S = Summaries[K];
      uint32_t Ki = static_cast<uint32_t>(K);
      for (const QsumSymbol &Sym : S.FnExports)
        ByName[S.str(Sym.Name)].push_back({true, true, Ki, &Sym});
      for (const QsumSymbol &Sym : S.FnImports)
        ByName[S.str(Sym.Name)].push_back({true, false, Ki, &Sym});
      for (const QsumSymbol &Sym : S.GlobExports)
        ByName[S.str(Sym.Name)].push_back({false, true, Ki, &Sym});
      for (const QsumSymbol &Sym : S.GlobImports)
        ByName[S.str(Sym.Name)].push_back({false, false, Ki, &Sym});
    }

    for (const auto &[Name, Entries] : ByName) {
      const SymEntry *Rep = nullptr;
      for (const SymEntry &E : Entries)
        if (E.IsExport) {
          Rep = &E;
          break;
        }
      bool Resolved = Rep != nullptr;
      for (const SymEntry &E : Entries)
        if (!Rep && !E.Sym->Vars.empty())
          Rep = &E;
      if (!Rep)
        Rep = &Entries.front();
      std::string_view RepSrc = Summaries[Rep->Sum].sourceName();
      std::string_view RepShape = Summaries[Rep->Sum].str(Rep->Sym->Shape);
      ReasonId Linkage = 0; // Interned on the first equated variable.

      for (const SymEntry &E : Entries) {
        if (&E == Rep)
          continue;
        const TuSummary &S = Summaries[E.Sum];
        if (E.IsExport) {
          R.LinkOk = false;
          R.Diagnostics.push_back("error: duplicate definition of '" +
                                  std::string(Name) + "' (defined in '" +
                                  std::string(RepSrc) + "' and '" +
                                  std::string(S.sourceName()) + "')");
          continue;
        }
        if (E.IsFn != Rep->IsFn) {
          R.LinkOk = false;
          R.Diagnostics.push_back(
              "error: symbol '" + std::string(Name) + "' is a " +
              (Rep->IsFn ? "function" : "object") + " in '" +
              std::string(RepSrc) + "' but a " +
              (E.IsFn ? "function" : "object") + " in '" +
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
        if (!E.Sym->Vars.empty() && !Linkage)
          Linkage = Sys.internReason("cross-TU linkage of '" +
                                     std::string(Name) + "'");
        for (size_t I = 0; I != E.Sym->Vars.size(); ++I) {
          QualExpr Occ = QualExpr::makeVar(VarBase[E.Sum] + E.Sym->Vars[I]);
          QualExpr Def =
              QualExpr::makeVar(VarBase[Rep->Sum] + Rep->Sym->Vars[I]);
          Sys.addConstraint({Occ, Def, QS.usedBits(), SourceLoc(), Linkage});
          Sys.addConstraint({Def, Occ, QS.usedBits(), SourceLoc(), Linkage});
          Origins.resize(Sys.getNumConstraints(),
                         {E.Sum, QsumOrigin()});
        }
      }

      // Section 4.2's library conservatism, deferred from compile time:
      // applies only when no TU defines the symbol. Every occurrence's pins
      // apply; after unification they bound the same variables, so the
      // duplicates are idempotent.
      if (!Resolved)
        for (const SymEntry &E : Entries)
          for (const QsumPin &Pin : E.Sym->Pins) {
            const TuSummary &S = Summaries[E.Sum];
            Sys.addLeq(QualExpr::makeVar(VarBase[E.Sum] + Pin.Var),
                       QualExpr::makeConst(QS.notQual(ConstQual)),
                       ConstraintOrigin(S.str(Pin.Origin.Reason)));
            Origins.resize(Sys.getNumConstraints(), {E.Sum, Pin.Origin});
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
    for (const Violation &V : Violations) {
      const MergedOrigin &MO = Origins[V.Cause];
      R.Diagnostics.push_back(
          renderError(Summaries[MO.Sum], MO.Origin, Sys.explain(V)));
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
