//===- constinf/ConstInfer.h - Whole-program const inference -----*- C++ -*-===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The driver for Section 4's const inference. Given an analyzed
/// translation unit it
///
///  1. translates the global variables the unit defines to qualified ref
///     types (an `extern` global's cell and a library function's interface
///     are translated when constraint generation first uses them, so a
///     declaration the unit never uses costs no variables),
///  2. builds the function dependence graph (Definition 4),
///  3. traverses its SCCs in reverse topological order, analyzing each set
///     of mutually-recursive functions monomorphically and then (in
///     polymorphic mode) generalizing their interfaces (rule Letv),
///  4. analyzes global variable initializers,
///  5. solves the atomic constraint system, and
///  6. classifies every "interesting" const position as must-const,
///     must-not-const, or could-be-either (Section 4.4's three outcomes).
///
/// The paper's headline numbers (Table 2) are: Declared (source const
/// annotations), Mono/Poly (positions that *may* be const = categories 1+3),
/// and Total (all interesting positions).
///
//===----------------------------------------------------------------------===//

#ifndef QUALS_CONSTINF_CONSTINFER_H
#define QUALS_CONSTINF_CONSTINFER_H

#include "constinf/ConstraintGen.h"
#include "support/PagedArray.h"
#include "constinf/Fdg.h"
#include "qual/TypeScheme.h"

#include <memory>

namespace quals {
namespace constinf {

/// How an interesting position may be annotated (Section 4.4's trichotomy).
enum class PosClass {
  MustConst,    ///< const in every solution.
  MustNonConst, ///< const in no solution.
  Either        ///< Unconstrained: the programmer may add const.
};

/// Aggregate counts matching the columns of Table 2.
struct ConstCounts {
  unsigned Declared = 0;     ///< Source-level interesting consts.
  unsigned PossibleConst = 0;///< May-be-const positions (Mono/Poly column).
  unsigned Total = 0;        ///< All interesting positions (Total possible).
  unsigned MustNonConst = 0; ///< Positions pinned non-const by some write.
};

/// An interesting position together with its inferred classification -- the
/// analysis result in portable form. countPositions() and
/// renderAnnotatedPrototypes() below consume lists of these, so a caller
/// that classifies once can render and count from the same list.
struct ClassifiedPos {
  InterestingPos Pos;
  PosClass Class = PosClass::Either;
};

/// Table 2 counts over an explicit classification list; the cold-path
/// ConstInference::counts() delegates here.
ConstCounts countPositions(const std::vector<ClassifiedPos> &Positions);

/// Renders annotated prototypes from an explicit classification list (see
/// ConstInference::renderAnnotatedPrototypes). Positions must carry valid
/// Fn pointers into the current AST; Var fields are not consulted.
std::string renderAnnotatedPrototypes(const std::vector<ClassifiedPos> &Positions);

/// Whole-program const inference over an analyzed TranslationUnit.
class ConstInference {
public:
  struct Options {
    bool Polymorphic = true;

    // Ablation switches for the Section 4.2 design decisions (all default
    // to the paper's behaviour; bench/ablation_design exercises them).

    /// Explicit casts sever qualifier flow. When false, casts keep as much
    /// structural flow as the shapes allow.
    bool CastsSeverFlow = true;
    /// Parameters of undefined (library) functions not declared const are
    /// forced non-const, and extra arguments to unknown/variadic functions
    /// are pinned. When false, unknown code is optimistically ignored
    /// (unsound for real programs; the ablation shows how much the
    /// conservatism costs).
    bool ConservativeLibraries = true;
    /// All variables of a struct type share their field qualifiers. When
    /// false every field access gets fresh qualifiers (unsound; shows why
    /// the paper requires sharing).
    bool StructFieldsShared = true;
    /// Traverse the FDG callees-first (reverse topological). When false the
    /// traversal runs callers-first, so call sites precede their callee's
    /// generalization and polymorphism degenerates toward monomorphic.
    bool CalleesFirst = true;

    // Cross-TU link pipeline hook (src/link; docs/LINK.md).

    /// Separate-compilation mode for `qualcc --emit-summary`: Section 4.2's
    /// library conservatism for *named* undefined functions is deferred
    /// (recorded in RefTranslator::deferredPins() instead of constraining
    /// the system), because another TU may define them -- the link step
    /// applies the pins only for symbols no TU exports. Forces monomorphic
    /// inference: interface variables must be plain variables to unify
    /// across TUs by name (polymorphic boundary schemes are future work,
    /// see ROADMAP.md).
    bool SummaryMode = false;
  };

  ConstInference(cfront::TranslationUnit &TU, DiagnosticEngine &Diags,
                 Options Opts);
  ~ConstInference();

  /// Runs the analysis; returns false if the constraints are inconsistent
  /// (which would indicate a const error in the input program).
  bool run();

  /// All interesting positions of defined functions (valid after run()).
  const std::vector<InterestingPos> &positions() const;

  /// positions() paired with their classifications (valid after run()).
  std::vector<ClassifiedPos> classifiedPositions() const;

  /// Classification of one position (valid after run()).
  PosClass classify(const InterestingPos &Pos) const;

  /// Table 2 counts (valid after run()).
  ConstCounts counts() const;

  /// The scheme inferred for \p FD (null in monomorphic mode or for
  /// undefined functions).
  const QualScheme *schemeFor(const cfront::FunctionDecl *FD) const;

  /// The function dependence graph the traversal used (valid after run()).
  const Fdg &fdg() const { return Graph; }

  /// Renders the defined functions' prototypes with every may-be-const
  /// position annotated const -- "the text of the original C program with
  /// some extra const qualifiers inserted" (Section 4.2), in prototype form.
  std::string renderAnnotatedPrototypes() const;

  /// Constraint-system statistics for the benchmark harnesses.
  unsigned numQualVars() const;
  unsigned numConstraints() const;

  /// Full solver instrumentation (qualcc --stats, benches).
  SolverStats solverStats() const;

  ConstraintSystem &system() { return *Sys; }

  /// The l-translator, exposing memoized interface/variable types, the
  /// interesting positions, and (in SummaryMode) the deferred library pins.
  /// The link layer's summary extraction reads interface skeletons through
  /// it after run(); a declaration it never translated is one the unit
  /// never used.
  RefTranslator &translator() { return *Translator; }

  /// The analyzed translation unit.
  cfront::TranslationUnit &unit() { return TU; }

private:
  cfront::TranslationUnit &TU;
  DiagnosticEngine &Diags;
  Options Opts;

  QualifierSet QS;
  QualifierId ConstQual;
  std::unique_ptr<ConstraintSystem> Sys;
  QualTypeFactory Factory;
  ConstCtors Ctors;
  std::unique_ptr<RefTranslator> Translator;
  /// Indexed by FunctionDecl id; a null body means no scheme.
  PagedArray<QualScheme> Schemes;
  /// Working storage every generalization of this run reuses.
  SimplifyScratch Scratch;
  Fdg Graph;

  /// The type of one use of \p FD: a call instance of its scheme for a
  /// direct call, a full instance for any other use, and its interface in
  /// monomorphic mode or before its SCC is generalized.
  QualType functionUse(const cfront::FunctionDecl *FD, bool DirectCall);
};

} // namespace constinf
} // namespace quals

#endif // QUALS_CONSTINF_CONSTINFER_H
