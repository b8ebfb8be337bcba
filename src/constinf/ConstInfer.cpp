//===- constinf/ConstInfer.cpp - Whole-program const inference --------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//

#include "constinf/ConstInfer.h"

#include "support/Metrics.h"

#include <algorithm>

using namespace quals;
using namespace quals::constinf;
using namespace quals::cfront;

ConstInference::ConstInference(TranslationUnit &TU, DiagnosticEngine &Diags,
                               Options Opts)
    : TU(TU), Diags(Diags), Opts(Opts),
      Ctors(TU.numDecls(CDecl::Kind::Record)),
      Schemes(TU.numDecls(CDecl::Kind::Function)) {
  // Summary mode links interface variables across TUs by name, which needs
  // monomorphic (plain-variable) interfaces (docs/LINK.md).
  if (this->Opts.SummaryMode)
    this->Opts.Polymorphic = false;
  ConstQual = QS.add("const", Polarity::Positive);
  SolverConfig Config;
  Config.MaxConstraints = Diags.limits().MaxConstraints;
  Sys = std::make_unique<ConstraintSystem>(QS, Config);
  Translator = std::make_unique<RefTranslator>(
      TU, *Sys, Factory, Ctors, ConstQual, this->Opts.ConservativeLibraries,
      this->Opts.StructFieldsShared, this->Opts.SummaryMode);
}

ConstInference::~ConstInference() = default;

QualType ConstInference::functionUse(const FunctionDecl *FD,
                                     bool DirectCall) {
  const QualScheme &S = Schemes.lookup(FD->getId());
  if (Opts.Polymorphic && S.isPolymorphic())
    return DirectCall ? S.instantiateCall(*Sys, Factory)
                      : S.instantiate(*Sys, Factory);
  return Translator->functionInterfaceType(FD);
}

bool ConstInference::run() {
  // 1. The globals the unit defines come first so their qualifier
  //    variables are never generalized. Extern globals and library
  //    interfaces are translated on first use, marked as shared storage.
  {
    PhaseScope Phase("ref-types", "constinf");
    for (VarDecl *G : TU.Globals)
      if (G->isDefinition())
        Translator->varLValueType(G);
  }

  ConstraintGen Gen(*Sys, Factory, Ctors, *Translator, ConstQual, Diags,
                    [this](const FunctionDecl *FD, bool DirectCall) {
                      return functionUse(FD, DirectCall);
                    },
                    Opts.CastsSeverFlow, Opts.ConservativeLibraries);

  // 2-3. FDG traversal, callees before callers (or callers-first in the
  // ablation mode, which starves the polymorphic instantiation).
  // buildFdg records its own "fdg" phase; everything from here to the solve
  // is the "constraint-gen" phase.
  Graph = buildFdg(TU);
  {
    PhaseScope GenPhase("constraint-gen", "constinf");
    std::vector<unsigned> Order;
    Order.reserve(Graph.Sccs.Components.size());
    for (unsigned I = 0; I != Graph.Sccs.Components.size(); ++I)
      Order.push_back(I);
    if (!Opts.CalleesFirst)
      std::reverse(Order.begin(), Order.end());
    for (unsigned ComponentIdx : Order) {
      const std::vector<unsigned> &Component =
          Graph.Sccs.Components[ComponentIdx];
      // Resource checkpoint once per SCC: stop generating as soon as the
      // constraint budget, arena budget, or error cap fired.
      if (Sys->hitConstraintLimit() || Diags.shouldBail() ||
          !Diags.checkResources(Graph.Functions[Component.front()]->getLoc()))
        break;
      Watermark Mark = takeWatermark(*Sys);
      // Interfaces for the whole SCC first (mutual recursion uses them
      // monomorphically within the component, as in the paper).
      for (unsigned Node : Component)
        if (Graph.Functions[Node]->isDefined())
          Translator->functionInterfaceType(Graph.Functions[Node]);
      for (unsigned Node : Component) {
        FunctionDecl *F = Graph.Functions[Node];
        if (F->isDefined())
          Gen.genFunction(F, Translator->functionInterfaceType(F));
      }
      if (!Opts.Polymorphic)
        continue;
      for (unsigned Node : Component) {
        FunctionDecl *F = Graph.Functions[Node];
        if (!F->isDefined())
          continue;
        // Fields and statics are one cell for every instance of a
        // function, so they are never bound.
        Schemes.slot(F->getId()) = QualScheme::generalize(
            *Sys, Translator->functionInterfaceType(F), Mark, Scratch,
            &Translator->sharedStorage());
      }
    }

    // 4. Global variable definitions are analyzed after the FDG traversal.
    for (VarDecl *G : TU.Globals) {
      if (Sys->hitConstraintLimit() || Diags.shouldBail())
        break;
      Gen.genGlobalInit(G);
    }
  }

  if (Sys->hitConstraintLimit()) {
    Diags.fatal(SourceLoc(),
                "resource limit: constraint budget exhausted (" +
                    std::to_string(Diags.limits().MaxConstraints) +
                    " constraints); raise with --limit-constraints=N, 0 "
                    "for unlimited");
    return false;
  }
  if (Diags.shouldBail())
    return false;

  // 5. Solve ("solve" phase recorded inside ConstraintSystem::solve()).
  bool Ok = Sys->solve();
  std::vector<Violation> Violations = Sys->collectViolations();
  if (!Ok || !Violations.empty()) {
    // One explainer shares its search index across the violations; those
    // past the error cap would be dropped by Diags, so they are not
    // explained at all.
    ViolationExplainer Explainer(*Sys);
    for (const Violation &V : Violations) {
      if (Diags.shouldBail())
        break;
      Diags.error(Sys->getConstraint(V.Cause).Loc, Explainer.explain(V));
    }
    return false;
  }
  return true;
}

const std::vector<InterestingPos> &ConstInference::positions() const {
  return Translator->interestingPositions();
}

PosClass ConstInference::classify(const InterestingPos &Pos) const {
  if (!Sys->mayHave(Pos.Var, ConstQual))
    return PosClass::MustNonConst;
  if (Sys->mustHave(Pos.Var, ConstQual))
    return PosClass::MustConst;
  return PosClass::Either;
}

std::vector<ClassifiedPos> ConstInference::classifiedPositions() const {
  std::vector<ClassifiedPos> Out;
  Out.reserve(positions().size());
  for (const InterestingPos &Pos : positions())
    Out.push_back({Pos, classify(Pos)});
  return Out;
}

ConstCounts ConstInference::counts() const {
  return countPositions(classifiedPositions());
}

const QualScheme *
ConstInference::schemeFor(const FunctionDecl *FD) const {
  const QualScheme &S = Schemes.lookup(FD->getId());
  return S.getBody().isNull() ? nullptr : &S;
}

unsigned ConstInference::numQualVars() const { return Sys->getNumVars(); }
unsigned ConstInference::numConstraints() const {
  return Sys->getNumConstraints();
}
SolverStats ConstInference::solverStats() const { return Sys->getStats(); }

std::string ConstInference::renderAnnotatedPrototypes() const {
  return constinf::renderAnnotatedPrototypes(classifiedPositions());
}

namespace quals {
namespace constinf {

ConstCounts countPositions(const std::vector<ClassifiedPos> &Positions) {
  ConstCounts C;
  for (const ClassifiedPos &CP : Positions) {
    ++C.Total;
    if (CP.Pos.DeclaredConst)
      ++C.Declared;
    switch (CP.Class) {
    case PosClass::MustNonConst:
      ++C.MustNonConst;
      break;
    case PosClass::MustConst:
    case PosClass::Either:
      ++C.PossibleConst;
      break;
    }
  }
  return C;
}

namespace {

/// The positions of one function, in classification order.
using PosGroup = std::vector<const ClassifiedPos *>;

/// True if the position at (\p ParamIndex, \p Depth) may be const.
bool constAt(const PosGroup &Group, int ParamIndex, unsigned Depth) {
  for (const ClassifiedPos *P : Group)
    if (P->Pos.ParamIndex == ParamIndex && P->Pos.Depth == Depth)
      return P->Class != PosClass::MustNonConst;
  return false;
}

bool isPointerLike(CQualType T) {
  return !T.isNull() &&
         (isa<PointerType>(T.getType()) || isa<ArrayType>(T.getType()));
}

/// Appends \p T with const inserted at the annotatable pointer depths. C
/// spelling: a const pointee that is itself a pointer reads "T * const *",
/// while a const non-pointer pointee reads "const T *".
void appendAnnotated(CQualType T, const PosGroup &Group, int ParamIndex,
                     unsigned Depth, std::string &Out) {
  if (!isPointerLike(T)) {
    appendType(T, Out);
    return;
  }
  const CType *Ty = T.getType();
  CQualType Pointee = isa<PointerType>(Ty)
                          ? cast<PointerType>(Ty)->getPointee()
                          : cast<ArrayType>(Ty)->getElement();
  bool AddConst = constAt(Group, ParamIndex, Depth) && !Pointee.isConst();
  bool PointeeIsPtr = isPointerLike(Pointee);
  if (AddConst && !PointeeIsPtr)
    Out += "const "; // e.g. "const char *"
  size_t Start = Out.size();
  appendAnnotated(Pointee, Group, ParamIndex, Depth + 1, Out);
  if (AddConst && PointeeIsPtr)
    Out += "const "; // e.g. "char * const *"
  if (Out.size() != Start && Out.back() != ' ' && Out.back() != '*')
    Out += ' ';
  Out += '*';
}

} // namespace

std::string renderAnnotatedPrototypes(const std::vector<ClassifiedPos> &Positions) {
  // Group positions by function (indexed by FunctionDecl id, sized once to
  // the largest id present), then rebuild each prototype with const
  // inserted at every may-be-const pointer level.
  unsigned NumFnIds = 0;
  for (const ClassifiedPos &CP : Positions)
    NumFnIds = std::max(NumFnIds, CP.Pos.Fn->getId() + 1);
  std::vector<PosGroup> ByFn(NumFnIds);
  std::vector<const FunctionDecl *> Order;
  for (const ClassifiedPos &CP : Positions) {
    PosGroup &Group = ByFn[CP.Pos.Fn->getId()];
    if (Group.empty())
      Order.push_back(CP.Pos.Fn);
    Group.push_back(&CP);
  }

  std::string Out;
  for (const FunctionDecl *FD : Order) {
    const PosGroup &Group = ByFn[FD->getId()];
    appendAnnotated(FD->getType()->getReturn(), Group, -1, 0, Out);
    if (Out.size() && Out.back() != '*')
      Out += ' ';
    Out += FD->getName();
    Out += '(';
    const auto &ParamTypes = FD->getType()->getParams();
    const auto &Params = FD->getParams();
    for (unsigned I = 0; I != ParamTypes.size(); ++I) {
      if (I)
        Out += ", ";
      appendAnnotated(ParamTypes[I], Group, static_cast<int>(I), 0, Out);
      if (I < Params.size() && !Params[I]->getName().empty()) {
        if (Out.back() != '*' && Out.back() != ' ')
          Out += ' ';
        Out += Params[I]->getName();
      }
    }
    if (FD->getType()->isVariadic())
      Out += ", ...";
    Out += ");\n";
  }
  return Out;
}

} // namespace constinf
} // namespace quals
