//===- tests/CTestUtil.h - Shared const-inference test rig ------*- C++ -*-===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//

#ifndef QUALS_TESTS_CTESTUTIL_H
#define QUALS_TESTS_CTESTUTIL_H

#include "cfront/FrontEnd.h"
#include "constinf/ConstInfer.h"

#include <gtest/gtest.h>

#include <memory>
#include <string_view>

namespace quals {
namespace constinf {

/// One C unit's front end plus the latest const inference over it; the
/// const-inference test rigs add only how they parse and configure.
struct ConstRig : cfront::FrontEnd {
  using cfront::FrontEnd::FrontEnd;

  std::unique_ptr<ConstInference> Inf;

  /// Runs a fresh inference over the analyzed unit.
  bool infer(const ConstInference::Options &Opts) {
    Inf = std::make_unique<ConstInference>(TU, Diags, Opts);
    return Inf->run();
  }

  /// Finds the interesting position for parameter \p ParamIndex of \p Fn at
  /// pointer depth \p Depth (-1 = return).
  const InterestingPos *pos(std::string_view Fn, int ParamIndex,
                            unsigned Depth = 0) const {
    for (const InterestingPos &P : Inf->positions())
      if (P.Fn->getName() == Fn && P.ParamIndex == ParamIndex &&
          P.Depth == Depth)
        return &P;
    return nullptr;
  }

  /// The class of that position; a missing one fails the test.
  PosClass classOf(std::string_view Fn, int ParamIndex,
                   unsigned Depth = 0) const {
    const InterestingPos *P = pos(Fn, ParamIndex, Depth);
    EXPECT_NE(P, nullptr) << "no position " << Fn << "#" << ParamIndex;
    return P ? Inf->classify(*P) : PosClass::MustNonConst;
  }
};

} // namespace constinf
} // namespace quals

#endif // QUALS_TESTS_CTESTUTIL_H
