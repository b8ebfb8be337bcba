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
/// library pins, and the constraint subgraph that can still interact with
/// other TUs.
///
/// Pruning: the constraint graph is partitioned into connected components
/// (union-find over variable-variable edges); a component is kept iff it
/// contains a *seed* -- an interface variable, an interesting position's
/// variable, or a deferred pin's variable. An undefined function the TU
/// never references (ConstInference::isReferenced) is a shape-only import
/// with no variables, so it seeds nothing. Everything else was solved
/// locally with no violations (the compile step refuses to emit a summary
/// otherwise) and can never gain constraints at link time, because the link
/// step only ever adds constraints on interface variables and their
/// components. Kept variables are renumbered densely in ascending original
/// id, so identical inputs serialize identically.
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
