//===- link/SummaryBuilder.h - Extract a TU's summary ------------*- C++ -*-===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds a link::TuSummary from a completed summary-mode const inference
/// (ConstInference::Options::SummaryMode): the TU's interface symbols with
/// their qualified-type skeletons, the interesting positions, the withheld
/// library pins, and canned constraints over their variables.
///
/// A summary is a Section 3.2 constrained type for the whole TU. Its
/// variables are the *seeds* -- interface-symbol variables, interesting
/// positions' variables, and deferred pins' variables -- renumbered densely
/// in ascending original id, so identical inputs serialize identically. Its
/// constraints are the TU's constraints simplified over the seeds by the
/// scheme simplifier (simplifyConstraints in qual/TypeScheme.h): each seed's
/// constant bounds plus masked reachability between seeds, every other
/// variable eliminated, each canned constraint carrying the source location
/// and reason of a witness constraint. That is exact for linking: the TU
/// was solved locally with no violations (the compile step refuses to emit
/// a summary otherwise), and the link step only ever adds constraints on
/// seeds. An import the TU never uses -- an undefined function or an
/// `extern` global inference never translated -- is a shape-only symbol
/// with no variables, so it seeds nothing. Every symbol's shape comes from
/// its C type (constinf::shapeOf), so shape-only and translated occurrences
/// of a symbol always agree.
///
//===----------------------------------------------------------------------===//

#ifndef QUALS_LINK_SUMMARYBUILDER_H
#define QUALS_LINK_SUMMARYBUILDER_H

#include "link/Qsum.h"

#include <string_view>

namespace quals {
class SourceManager;
namespace constinf {
class ConstInference;
}

namespace link {

/// Extracts the summary of \p Inf, whose run() must have completed without
/// violations under Options::SummaryMode. \p SourceName is recorded for
/// diagnostics and canonical link ordering; \p ContentHash / \p ConfigHash
/// populate the header (see summaryCacheKey, summaryConfigHash).
TuSummary buildSummary(constinf::ConstInference &Inf, const SourceManager &SM,
                       std::string_view SourceName, uint64_t ContentHash,
                       uint64_t ConfigHash);

} // namespace link
} // namespace quals

#endif // QUALS_LINK_SUMMARYBUILDER_H
