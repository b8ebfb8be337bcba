//===- link/Qsum.h - Serialized per-TU constraint summaries ------*- C++ -*-===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `.qsum` format: one translation unit's constraint summary, produced
/// by `qualcc --emit-summary` and consumed by `quallink` (docs/LINK.md).
///
/// A summary is a Section 3.2 constrained type for the whole TU: canned
/// constraints over the variables other TUs can observe (SummaryBuilder.h),
/// plus an interface section naming the exported
/// and imported symbols with their qualified-type skeletons, the TU's
/// interesting const positions, and the Section 4.2 library pins the
/// summary-mode inference withheld (constinf::DeferredPin). The link step
/// unifies interface variables by symbol name, merges every TU's
/// constraints into one system, and solves globally.
///
/// The format is versioned and content-addressed: the header carries
/// kSummaryFormatVersion, the configuration hash (format version plus every
/// inference option that changes results), and the hash of the source bytes
/// the summary was computed from. Cache keys combine the content and config
/// hashes, mirroring the serve layer's ResultCache keying, so identical
/// shared sources are summarized once and stale summaries are rejected on
/// load instead of silently mislinking.
///
/// All multi-byte fields are little-endian. The reader is hardened against
/// hostile input (fuzz/fuzz_summary.cpp): every offset, count, string index,
/// and variable id is bounds-checked, allocations are capped by the input
/// size, and malformed bytes produce an error string, never a crash.
///
//===----------------------------------------------------------------------===//

#ifndef QUALS_LINK_QSUM_H
#define QUALS_LINK_QSUM_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace quals {
namespace link {

/// Bumped on any change to the serialized layout or its meaning; readers
/// reject other versions as stale. Version 2: an import may be shape-only
/// (no variables), which a version-1 linker would call a mismatch.
constexpr uint32_t kSummaryFormatVersion = 2;

/// The four magic bytes opening every summary file.
constexpr char kSummaryMagic[4] = {'Q', 'S', 'U', 'M'};

/// A source position rendered to presumed (file, line, column) form at
/// summary-build time -- raw SourceLocs index a SourceManager that does not
/// survive serialization. Line 0 means "no location".
struct QsumOrigin {
  uint32_t File = 0; ///< String-table index of the file name.
  uint32_t Line = 0; ///< 1-based; 0 = unknown.
  uint32_t Col = 0;  ///< 1-based.
  uint32_t Reason = 0; ///< String-table index of the human-readable reason.
};

/// One atomic constraint Lhs <= Rhs (under Mask). Operands are either a
/// summary-local variable id or a lattice constant's bit pattern.
struct QsumConstraint {
  bool LhsIsVar = false;
  bool RhsIsVar = false;
  uint64_t Lhs = 0;
  uint64_t Rhs = 0;
  uint64_t Mask = 0;
  QsumOrigin Origin;
};

/// One interesting const position (constinf::InterestingPos) keyed by
/// function name rather than FunctionDecl pointer.
struct QsumPos {
  uint32_t FnName = 0; ///< String-table index.
  int32_t ParamIndex = -1; ///< -1 for the result position.
  uint32_t Depth = 0;
  uint32_t Var = 0; ///< Summary-local qualifier variable.
  bool DeclaredConst = false;
};

/// One withheld Section 4.2 library pin "Var <= not-const", applied by the
/// link step only when the owning imported symbol stays unresolved.
struct QsumPin {
  uint32_t Var = 0;
  bool IsEscape = false; ///< See constinf::DeferredPin::IsEscape.
  QsumOrigin Origin;
};

/// One exported or imported symbol: its name, the skeleton of its qualified
/// type (a shape string; equal shapes have identical variable layouts), and
/// the flattened preorder list of interface qualifier variables. Imports
/// additionally carry their deferred library pins. An import its TU never
/// uses (a function or an `extern` global) is shape-only: no variables and
/// no pins.
struct QsumSymbol {
  uint32_t Name = 0;  ///< String-table index.
  uint32_t Shape = 0; ///< String-table index.
  std::vector<uint32_t> Vars;
  std::vector<QsumPin> Pins;
};

/// One registered qualifier of the TU's lattice.
struct QsumQualifier {
  uint32_t Name = 0;   ///< String-table index.
  uint8_t Polarity = 0; ///< 0 = positive, 1 = negative.
};

/// A deserialized (or to-be-serialized) translation-unit summary.
struct TuSummary {
  uint64_t ConfigHash = 0;
  uint64_t ContentHash = 0;
  /// Interned strings; index 0 is always the empty string.
  std::vector<std::string> Strings;
  uint32_t SourceName = 0; ///< String-table index of the source file name.
  std::vector<QsumQualifier> Qualifiers;
  uint32_t NumVars = 0;
  std::vector<QsumConstraint> Constraints;
  std::vector<QsumPos> Positions;
  std::vector<QsumSymbol> FnExports;
  std::vector<QsumSymbol> FnImports;
  std::vector<QsumSymbol> GlobExports;
  std::vector<QsumSymbol> GlobImports;

  std::string_view str(uint32_t Index) const {
    return Index < Strings.size() ? std::string_view(Strings[Index])
                                  : std::string_view();
  }
  std::string_view sourceName() const { return str(SourceName); }
};

/// The fixed-size head of a summary, readable without parsing the body --
/// enough to decide cache validity (`qualcc --emit-summary-dir` probes).
struct QsumHeader {
  uint32_t FormatVersion = 0;
  uint64_t ConfigHash = 0;
  uint64_t ContentHash = 0;
};

/// Serializes \p S to the versioned binary format.
std::string serializeSummary(const TuSummary &S);

/// Parses a summary, validating every structural invariant (magic, version,
/// bounds, string indices, variable ids, qualifier-set well-formedness).
/// Returns false and sets \p Error on any defect; never crashes on hostile
/// input.
bool deserializeSummary(const uint8_t *Data, size_t Size, TuSummary &Out,
                        std::string &Error);

/// Parses only the header. Returns false and sets \p Error on bad magic,
/// truncation, or a foreign format version.
bool readSummaryHeader(const uint8_t *Data, size_t Size, QsumHeader &Out,
                       std::string &Error);

/// The content-address of a summary: source bytes' hash combined with the
/// configuration hash. Two compiles agree on the key iff they analyzed the
/// same bytes under the same configuration and format version.
uint64_t summaryCacheKey(uint64_t ContentHash, uint64_t ConfigHash);

/// "<16 hex digits>.qsum" for \p Key.
std::string summaryFileName(uint64_t Key);

/// The configuration hash for the compile-step defaults: format version
/// plus every inference option `qualcc --emit-summary` bakes into results.
uint64_t summaryConfigHash();

/// Writes \p Bytes to \p Path atomically (unique temporary in the same
/// directory, then rename), so concurrent writers of the same key race
/// benignly. Returns false and sets \p Error on I/O failure.
bool writeFileAtomic(const std::string &Path, std::string_view Bytes,
                     std::string &Error);

} // namespace link
} // namespace quals

#endif // QUALS_LINK_QSUM_H
