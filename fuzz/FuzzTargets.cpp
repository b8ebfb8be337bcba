//===- fuzz/FuzzTargets.cpp - Shared fuzz entry points --------------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//

#include "FuzzTargets.h"

#include "cfront/FrontEnd.h"
#include "constinf/ConstInfer.h"
#include "lambda/Parser.h"
#include "lambda/QualInfer.h"
#include "link/Linker.h"
#include "link/Qsum.h"
#include "qual/ConstraintSystem.h"
#include "serve/Protocol.h"
#include "support/Limits.h"

#include <cstdlib>
#include <string>
#include <vector>

using namespace quals;

/// Copies the raw input into a string, tolerating the (nullptr, 0) empty
/// input libFuzzer and the replay test both produce.
static std::string toSource(const uint8_t *Data, size_t Size) {
  return Size ? std::string(reinterpret_cast<const char *>(Data), Size)
              : std::string();
}

/// Budgets an order of magnitude below the CLI defaults: a fuzzer finds
/// pathological inputs quickly, and a tight budget keeps each execution
/// fast (so coverage grows) while still proving the bailout paths work.
static Limits fuzzLimits() {
  Limits L;
  L.MaxErrors = 16;
  L.MaxRecursionDepth = 64;
  L.MaxConstraints = 1u << 15;
  L.MaxArenaBytes = 32u << 20;
  return L;
}

int fuzz::runCFront(const uint8_t *Data, size_t Size) {
  std::string Source = toSource(Data, Size);

  cfront::FrontEnd FE(fuzzLimits());
  if (!FE.parse("<fuzz>", std::move(Source)) || !FE.analyze())
    return 0;

  constinf::ConstInference::Options InfOpts;
  InfOpts.Polymorphic = true;
  constinf::ConstInference Inf(FE.TU, FE.Diags, InfOpts);
  (void)Inf.run();
  return 0;
}

int fuzz::runLambda(const uint8_t *Data, size_t Size) {
  std::string Source = toSource(Data, Size);

  QualifierSet QS;
  QualifierId ConstQual = QS.add("const", Polarity::Positive);
  QS.add("nonzero", Polarity::Negative);
  QS.add("tainted", Polarity::Positive);

  SourceManager SM;
  DiagnosticEngine Diags(SM, fuzzLimits());
  lambda::AstContext Ast;
  StringInterner Idents;
  const lambda::Expr *Program =
      lambda::parseString(SM, "<fuzz>", std::move(Source), QS, Ast, Idents,
                          Diags);
  if (!Program)
    return 0;

  lambda::STyContext STys;
  SolverConfig SysConfig;
  SysConfig.MaxConstraints = Diags.limits().MaxConstraints;
  ConstraintSystem Sys(QS, SysConfig);
  QualTypeFactory Factory;
  lambda::LambdaTypeCtors Ctors;
  lambda::QualInferOptions Options;
  Options.ConstQual = ConstQual;
  (void)lambda::checkProgram(Program, QS, STys, Sys, Factory, Ctors, Diags,
                             Options);
  return 0;
}

namespace {

/// Little-endian byte cursor over the fuzz input.
class ByteStream {
public:
  ByteStream(const uint8_t *Data, size_t Size) : Data(Data), Size(Size) {}

  bool done() const { return Pos >= Size; }

  uint8_t next() { return done() ? 0 : Data[Pos++]; }

private:
  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
};

} // namespace

int fuzz::runSolver(const uint8_t *Data, size_t Size) {
  QualifierSet QS;
  QS.add("const", Polarity::Positive);
  QS.add("nonzero", Polarity::Negative);
  QS.add("tainted", Polarity::Positive);
  QS.add("dynamic", Polarity::Positive);

  SolverConfig Config;
  Config.MaxConstraints = 1u << 15;
  ConstraintSystem Sys(QS, Config);

  // Interpret the input as an op stream. Caps keep one execution to
  // milliseconds: at most 256 variables (operand bytes address them
  // directly) and 4096 ops regardless of input size.
  constexpr unsigned MaxVars = 256;
  constexpr unsigned MaxOps = 4096;

  ByteStream In(Data, Size);
  unsigned NumVars = 0;
  bool Solved = false;
  auto var = [&](uint8_t B) { return QualVarId(B % NumVars); };
  auto latticeConst = [&](uint8_t B) {
    return QualExpr::makeConst(LatticeValue(B & QS.usedBits()));
  };

  for (unsigned Op = 0; Op != MaxOps && !In.done(); ++Op) {
    switch (In.next() % 8) {
    case 0:
      if (NumVars < MaxVars) {
        Sys.freshVar();
        ++NumVars;
      }
      break;
    case 1: // var <= var
      if (NumVars) {
        QualVarId A = var(In.next()), B = var(In.next());
        Sys.addLeq(QualExpr::makeVar(A), QualExpr::makeVar(B), {"fuzz"});
        Solved = false;
      }
      break;
    case 2: // const <= var (lower bound)
      if (NumVars) {
        QualExpr C = latticeConst(In.next());
        Sys.addLeq(C, QualExpr::makeVar(var(In.next())), {"fuzz"});
        Solved = false;
      }
      break;
    case 3: // var <= const (upper bound)
      if (NumVars) {
        QualVarId A = var(In.next());
        Sys.addLeq(QualExpr::makeVar(A), latticeConst(In.next()), {"fuzz"});
        Solved = false;
      }
      break;
    case 4: // masked var <= var
      if (NumVars) {
        QualVarId A = var(In.next()), B = var(In.next());
        uint64_t Mask = In.next() & QS.usedBits();
        Sys.addLeqMasked(QualExpr::makeVar(A), QualExpr::makeVar(B), Mask,
                         {"fuzz"});
        Solved = false;
      }
      break;
    case 5: // var = var (two <=, cycle seed)
      if (NumVars) {
        QualVarId A = var(In.next()), B = var(In.next());
        Sys.addEq(QualExpr::makeVar(A), QualExpr::makeVar(B), {"fuzz"});
        Solved = false;
      }
      break;
    case 6: // incremental solve
      (void)Sys.solve();
      Solved = true;
      break;
    case 7: // solved-state queries
      if (Solved && NumVars) {
        QualVarId A = var(In.next());
        (void)Sys.lower(A);
        (void)Sys.upper(A);
        (void)Sys.mustHave(A, 0);
        (void)Sys.mayHave(A, 1);
      }
      break;
    }
  }

  // Final satisfiability pass plus a full violation scan with provenance
  // rendering, the deepest read-only path through the solver.
  (void)Sys.isSatisfiable();
  for (const Violation &V : Sys.collectViolations())
    (void)Sys.explain(V);
  (void)Sys.getStats();
  return 0;
}

namespace {

/// Asserts the decode -> encode -> decode round-trip for one decoded
/// string: appendJsonString must emit a literal the parser accepts and
/// decodes to the same bytes. abort() (not a gtest macro) so the property
/// holds identically under libFuzzer and the replay test.
void checkStringRoundTrip(const std::string &Decoded,
                          const serve::ProtocolLimits &Lim) {
  if (Decoded.size() > Lim.MaxStringBytes)
    return; // Re-parsing would trip the budget, not the codec.
  std::string Encoded;
  serve::appendJsonString(Encoded, Decoded);
  serve::JsonValue Back;
  std::string Error;
  if (!serve::parseJson(Encoded, Lim, Back, Error) ||
      Back.kind() != serve::JsonValue::Kind::String ||
      Back.asString() != Decoded)
    std::abort();
}

/// Walks every string in a parsed document (values and object keys) and
/// round-trips it.
void checkValueStrings(const serve::JsonValue &V,
                       const serve::ProtocolLimits &Lim) {
  if (V.kind() == serve::JsonValue::Kind::String)
    checkStringRoundTrip(V.asString(), Lim);
  for (const serve::JsonValue &E : V.elements())
    checkValueStrings(E, Lim);
  for (const auto &M : V.members()) {
    checkStringRoundTrip(M.first, Lim);
    checkValueStrings(M.second, Lim);
  }
}

} // namespace

int fuzz::runProtocol(const uint8_t *Data, size_t Size) {
  std::string Line = toSource(Data, Size);

  // Budgets an order of magnitude below the server defaults, same
  // rationale as fuzzLimits(): tight budgets keep executions fast and
  // prove the bailout paths.
  serve::ProtocolLimits Lim;
  Lim.MaxRequestBytes = 64u << 10;
  Lim.MaxDepth = 32;
  Lim.MaxStringBytes = 16u << 10;

  serve::JsonValue Doc;
  std::string Error;
  if (parseJson(Line, Lim, Doc, Error))
    checkValueStrings(Doc, Lim);
  else if (Error.empty())
    std::abort(); // Failures must always carry a diagnostic.

  serve::Request Req;
  Error.clear();
  if (!parseRequest(Line, Lim, Req, Error) && Error.empty())
    std::abort();
  return 0;
}

int fuzz::runSummary(const uint8_t *Data, size_t Size) {
  link::TuSummary S;
  std::string Error;
  if (!link::deserializeSummary(Data, Size, S, Error)) {
    if (Error.empty())
      std::abort(); // Rejections must always carry a diagnostic.
    return 0;
  }

  // Accepted bytes must round-trip to a serializer fixed point: one decode
  // and re-encode is canonical, so encoding it again reproduces it byte for
  // byte (the invariant behind content-addressed summary reuse).
  std::string Once = link::serializeSummary(S);
  link::TuSummary S2;
  if (!link::deserializeSummary(
          reinterpret_cast<const uint8_t *>(Once.data()), Once.size(), S2,
          Error))
    std::abort();
  if (link::serializeSummary(S2) != Once)
    std::abort();

  // The summary also has to survive quallink's merge/unify/solve, alone
  // and linked against a copy of itself (self-links exercise the duplicate
  // and unification paths). Tight budget, same rationale as fuzzLimits().
  link::LinkOptions Opts;
  Opts.MaxConstraints = 1u << 15;
  std::vector<link::TuSummary> One(1, S);
  (void)link::linkSummaries(One, Opts);
  std::vector<link::TuSummary> Two(2, S);
  Two[1].ContentHash ^= 1; // Defeat dedup so the symbols actually unify.
  (void)link::linkSummaries(Two, Opts);
  return 0;
}
