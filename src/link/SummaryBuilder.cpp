//===- link/SummaryBuilder.cpp - Extract a TU's summary --------------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//

#include "link/SummaryBuilder.h"

#include "constinf/ConstInfer.h"
#include "qual/TypeScheme.h"
#include "support/SourceManager.h"

#include <unordered_map>

using namespace quals;
using namespace quals::link;
using namespace quals::cfront;

namespace {

/// Interns strings into TuSummary::Strings; index 0 is the empty string.
class StringTable {
public:
  explicit StringTable(std::vector<std::string> &Out) : Out(Out) {
    Out.clear();
    Out.emplace_back();
    Index.emplace("", 0);
  }

  uint32_t intern(std::string_view S) {
    auto It = Index.find(S); // Heterogeneous: no string is built to look.
    if (It != Index.end())
      return It->second;
    uint32_t Id = static_cast<uint32_t>(Out.size());
    Out.emplace_back(S);
    Index.emplace(Out.back(), Id);
    return Id;
  }

private:
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view S) const {
      return std::hash<std::string_view>()(S);
    }
  };
  std::vector<std::string> &Out;
  std::unordered_map<std::string, uint32_t, Hash, std::equal_to<>> Index;
};

/// Serialized origins. A SourceManager hands out each buffer's file name as
/// one view, so the name is interned once per buffer, not per origin.
class OriginTable {
public:
  OriginTable(const SourceManager &SM, StringTable &ST) : SM(SM), ST(ST) {}

  QsumOrigin presumed(SourceLoc Loc, uint32_t Reason) {
    QsumOrigin O;
    PresumedLoc P = SM.getPresumedLoc(Loc);
    if (P.isValid()) {
      if (P.Filename.data() != LastFile.data() ||
          P.Filename.size() != LastFile.size()) {
        LastFile = P.Filename;
        LastFileId = ST.intern(P.Filename);
      }
      O.File = LastFileId;
      O.Line = P.Line;
      O.Col = P.Column;
    }
    O.Reason = Reason;
    return O;
  }

private:
  const SourceManager &SM;
  StringTable &ST;
  std::string_view LastFile;
  uint32_t LastFileId = 0;
};

} // namespace

TuSummary link::buildSummary(constinf::ConstInference &Inf,
                             const SourceManager &SM,
                             std::string_view SourceName, uint64_t ContentHash,
                             uint64_t ConfigHash) {
  TuSummary S;
  S.ConfigHash = ConfigHash;
  S.ContentHash = ContentHash;
  StringTable ST(S.Strings);
  S.SourceName = ST.intern(SourceName);

  ConstraintSystem &Sys = Inf.system();
  const QualifierSet &QS = Sys.getQualifierSet();
  for (QualifierId I = 0, E = QS.size(); I != E; ++I) {
    const Qualifier &Q = QS.get(I);
    S.Qualifiers.push_back(
        {ST.intern(Q.Name),
         static_cast<uint8_t>(Q.Pol == Polarity::Negative ? 1 : 0)});
  }

  constinf::RefTranslator &TR = Inf.translator();

  // Interface symbols: the shape comes from the C type, the variables (in
  // preorder) from the translated type. run() translated every definition;
  // an import it never translated -- an undefined function or an extern
  // global the TU never uses -- is shape-only: no variables and no pins,
  // and the linker only checks its kind and shape.
  std::string Shape; // One buffer for every symbol's shape.
  auto makeSymbol = [&](const CDecl *D, QualType T) {
    QsumSymbol Sym;
    Sym.Name = ST.intern(D->getName());
    Shape.clear();
    constinf::appendShapeOf(D, Shape);
    Sym.Shape = ST.intern(Shape);
    T.visit([&](QualType Node) {
      if (Node.getQual().isVar())
        Sym.Vars.push_back(Node.getQual().getVar());
    });
    return Sym;
  };
  std::unordered_map<const FunctionDecl *, size_t> ImportIndex;
  for (FunctionDecl *F : Inf.unit().Functions) {
    QualType T = TR.translatedInterface(F);
    if (!F->isDefined()) {
      if (!T.isNull())
        ImportIndex[F] = S.FnImports.size();
      S.FnImports.push_back(makeSymbol(F, T));
    } else if (F->getStorageClass() != StorageClass::Static) {
      S.FnExports.push_back(makeSymbol(F, T));
    }
  }
  for (VarDecl *G : Inf.unit().Globals) {
    if (G->getStorageClass() == StorageClass::Static)
      continue; // TU-local: never linked.
    (G->isDefinition() ? S.GlobExports : S.GlobImports)
        .push_back(makeSymbol(G, TR.translatedCell(G)));
  }

  OriginTable Origins(SM, ST);

  // Withheld library pins, attached to the imported symbol they belong to.
  // Every DeferredPin's function is undefined, hence in FnImports; the pins
  // of a shape-only import are dropped with its variables. (An escape pin's
  // function was called, so it is never shape-only.)
  for (const constinf::DeferredPin &DP : TR.deferredPins()) {
    auto It = ImportIndex.find(DP.Fn);
    if (It == ImportIndex.end())
      continue;
    QsumPin Pin;
    Pin.Var = DP.Var;
    Pin.IsEscape = DP.IsEscape;
    uint32_t Reason =
        ST.intern(DP.IsEscape
                      ? std::string("argument to unknown/variadic function")
                      : "library function '" + std::string(DP.Fn->getName()) +
                            "' parameter not declared const");
    Pin.Origin = Origins.presumed(DP.Loc, Reason);
    S.FnImports[It->second].Pins.push_back(Pin);
  }

  // Interesting positions, keyed by function name (positions only exist
  // for defined functions).
  for (const constinf::InterestingPos &Pos : Inf.positions()) {
    QsumPos P;
    P.FnName = ST.intern(Pos.Fn->getName());
    P.ParamIndex = Pos.ParamIndex;
    P.Depth = Pos.Depth;
    P.Var = Pos.Var;
    P.DeclaredConst = Pos.DeclaredConst;
    S.Positions.push_back(P);
  }

  // The summary's variables are the seeds, renumbered densely in ascending
  // original id; its constraints are the TU's constraints simplified over
  // them (see the header comment).
  auto forEachSeed = [&](auto Fn) {
    for (std::vector<QsumSymbol> *Section :
         {&S.FnExports, &S.FnImports, &S.GlobExports, &S.GlobImports})
      for (QsumSymbol &Sym : *Section) {
        for (uint32_t &V : Sym.Vars)
          Fn(V);
        for (QsumPin &P : Sym.Pins)
          Fn(P.Var);
      }
    for (QsumPos &P : S.Positions)
      Fn(P.Var);
  };
  std::vector<bool> IsSeed(Sys.getNumVars(), false);
  forEachSeed([&](uint32_t V) { IsSeed[V] = true; });
  std::vector<QualVarId> Seeds;
  std::vector<uint32_t> Remap(Sys.getNumVars(), ~0u);
  for (QualVarId V = 0, E = Sys.getNumVars(); V != E; ++V)
    if (IsSeed[V]) {
      Remap[V] = Seeds.size();
      Seeds.push_back(V);
    }
  S.NumVars = Seeds.size();
  forEachSeed([&](uint32_t &V) { V = Remap[V]; });

  SimplifyScratch Scratch;
  std::vector<Constraint> Canned =
      simplifyConstraints(Sys, {0, 0}, Seeds, Scratch);
  S.Constraints.reserve(Canned.size());
  std::vector<uint32_t> ReasonString(Sys.getNumReasons(), ~0u);
  for (const Constraint &C : Canned) {
    QsumConstraint Q;
    Q.LhsIsVar = C.Lhs.isVar();
    Q.Lhs = Q.LhsIsVar ? Remap[C.Lhs.getVar()] : C.Lhs.getConst().bits();
    Q.RhsIsVar = C.Rhs.isVar();
    Q.Rhs = Q.RhsIsVar ? Remap[C.Rhs.getVar()] : C.Rhs.getConst().bits();
    Q.Mask = C.Mask;
    uint32_t &Reason = ReasonString[C.Reason];
    if (Reason == ~0u)
      Reason = ST.intern(Sys.getReason(C.Reason));
    Q.Origin = Origins.presumed(C.Loc, Reason);
    S.Constraints.push_back(Q);
  }
  return S;
}
