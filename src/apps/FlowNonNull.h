//===- apps/FlowNonNull.h - Flow-sensitive nonnull (Section 6) --*- C++ -*-===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An implementation of the paper's Section 6 future-work proposal:
///
///   "One solution we are investigating is to assign each location a
///    distinct type at every program point and to add subtyping constraints
///    between the different types. ... if s does not perform a strong
///    update of x we add the constraint tau_1 <= tau_2; if s does strongly
///    update x then we do not add this constraint. This technique allows a
///    measure of flow sensitivity."
///
/// Realized here for the nonnull qualifier over C function bodies: every
/// pointer variable gets a fresh qualifier variable ("version") after each
/// assignment; a direct assignment is a *strong update* (no constraint from
/// the old version), everything else carries tau_old <= tau_new edges; the
/// two arms of an if merge by flowing both versions into a fresh join
/// version, and loop bodies feed back into their heads. Dereferences check
/// the version in scope at that point -- so, unlike the flow-insensitive
/// NonNullChecker, `p = 0; p = &x; *p;` is accepted while `p = 0; *p;`
/// still warns.
///
/// Everything stays inside the atomic constraint fragment; the qualifier
/// machinery is unchanged -- exactly the paper's point.
///
//===----------------------------------------------------------------------===//

#ifndef QUALS_APPS_FLOWNONNULL_H
#define QUALS_APPS_FLOWNONNULL_H

#include "cfront/CAst.h"
#include "qual/ConstraintSystem.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace quals {
namespace apps {

/// Flow-sensitive may-be-null checking per Section 6's sketch.
class FlowNonNullChecker {
public:
  struct Warning {
    SourceLoc Loc;
    std::string Message;
  };

  FlowNonNullChecker();

  /// Analyzes every defined function of \p TU. Returns true iff no
  /// dereference of a may-be-null version was found.
  bool analyze(const cfront::TranslationUnit &TU);

  const std::vector<Warning> &warnings() const { return Warnings; }

private:
  QualifierSet QS;
  QualifierId NonNull;
  ConstraintSystem Sys;

  /// The in-scope version of each tracked pointer variable ("the type of x
  /// at the current program point").
  using State = std::unordered_map<const cfront::VarDecl *, QualVarId>;
  State Current;

  struct DerefSite {
    const cfront::VarDecl *Var;
    QualVarId Version;
    SourceLoc Loc;
  };
  std::vector<DerefSite> Derefs;
  std::vector<Warning> Warnings;

  QualVarId freshVersion(const cfront::VarDecl *VD);
  void markMaybeNull(QualVarId Version, SourceLoc Loc,
                     const std::string &Why);
  /// Weak edge tau_old <= tau_new (no strong update).
  void weakEdge(QualVarId From, QualVarId To, SourceLoc Loc);
  /// Merges two branch states into the fall-through state.
  void mergeStates(const State &A, const State &B, SourceLoc Loc);

  const cfront::VarDecl *trackedVarOf(const cfront::CExpr *E) const;
  static bool isNullConstant(const cfront::CExpr *E);

  void walkFunction(const cfront::FunctionDecl *FD);
  void walkStmt(const cfront::CStmt *S);
  void walkExpr(const cfront::CExpr *E);
  void handleAssign(const cfront::CExpr *Target, const cfront::CExpr *Value,
                    SourceLoc Loc);
};

} // namespace apps
} // namespace quals

#endif // QUALS_APPS_FLOWNONNULL_H
