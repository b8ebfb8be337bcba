//===- tools/LimitFlags.h - Shared resource-limit CLI plumbing -*- C++ -*-===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The --limit-* flags shared by qualcc, qualcheck, and qualgen, in the
/// style of ObsFlags.h: each tool feeds unrecognized arguments through
/// parseFlag() and passes the resulting Limits into every analysis context
/// it creates. A value of 0 always means "unlimited".
///
///   --limit-errors=N       errors before `fatal: too many errors` bailout
///   --limit-depth=N        parser/type recursion depth
///   --limit-constraints=N  qualifier constraints per constraint system
///   --limit-arena-mb=N     arena megabytes per analysis context
///
/// See docs/ROBUSTNESS.md for what each budget protects against.
///
//===----------------------------------------------------------------------===//

#ifndef QUALS_TOOLS_LIMITFLAGS_H
#define QUALS_TOOLS_LIMITFLAGS_H

#include "support/Limits.h"

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace quals {

/// Resource-limit flag state for one tool invocation; see the file comment.
class LimitFlags {
public:
  /// Returns true (and consumes the flag) when \p Arg is a --limit-* flag;
  /// prints to stderr and sets badFlag() on a malformed value.
  bool parseFlag(const char *Arg) {
    uint64_t Value;
    if (parseUint(Arg, "--limit-errors=", UINT32_MAX, Value)) {
      Lim.MaxErrors = static_cast<unsigned>(Value);
      return true;
    }
    if (parseUint(Arg, "--limit-depth=", UINT32_MAX, Value)) {
      Lim.MaxRecursionDepth = static_cast<unsigned>(Value);
      return true;
    }
    if (parseUint(Arg, "--limit-constraints=", UINT64_MAX, Value)) {
      Lim.MaxConstraints = Value;
      return true;
    }
    if (parseUint(Arg, "--limit-arena-mb=", UINT64_MAX >> 20, Value)) {
      Lim.MaxArenaBytes = Value << 20;
      return true;
    }
    return false;
  }

  /// True if a recognized limit flag had a malformed value.
  bool badFlag() const { return Bad; }

  /// The budgets to run every analysis context under.
  const Limits &limits() const { return Lim; }

private:
  /// Parses the decimal value after \p Prefix; a value that is not all
  /// digits or exceeds \p Max is rejected rather than wrapped.
  bool parseUint(const char *Arg, const char *Prefix, uint64_t Max,
                 uint64_t &Value) {
    size_t Len = std::strlen(Prefix);
    if (std::strncmp(Arg, Prefix, Len))
      return false;
    const char *Digits = Arg + Len;
    char *End = nullptr;
    errno = 0;
    Value = std::strtoull(Digits, &End, 10);
    if (!std::isdigit(static_cast<unsigned char>(*Digits)) || *End != '\0' ||
        errno == ERANGE || Value > Max) {
      std::fprintf(stderr, "%s wants a number, got '%s'\n",
                   std::string(Prefix, Len - 1).c_str(), Digits);
      Bad = true;
    }
    return true;
  }

  Limits Lim;
  bool Bad = false;
};

} // namespace quals

#endif // QUALS_TOOLS_LIMITFLAGS_H
