//===- support/StringInterner.h - Unique'd identifier storage --*- C++ -*-===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interns identifier strings so the front ends can compare names by pointer.
///
//===----------------------------------------------------------------------===//

#ifndef QUALS_SUPPORT_STRINGINTERNER_H
#define QUALS_SUPPORT_STRINGINTERNER_H

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

namespace quals {

/// The identity of an interned string: two Symbols from one interner are
/// equal exactly when their strings are, and compare and hash by address.
/// Only StringInterner makes a non-empty Symbol, so a table keyed by Symbol
/// cannot be probed with text that was never interned.
class Symbol {
public:
  Symbol() = default;

  std::string_view str() const {
    if (!Data)
      return {};
    uint32_t Len;
    std::memcpy(&Len, Data - sizeof(Len), sizeof(Len));
    return {Data, Len};
  }
  operator std::string_view() const { return str(); }
  bool empty() const { return !Data; }

  friend bool operator==(Symbol A, Symbol B) { return A.Data == B.Data; }

  struct Hash {
    size_t operator()(Symbol S) const {
      return std::hash<const char *>()(S.Data);
    }
  };

private:
  friend class StringInterner;
  explicit Symbol(const char *Data) : Data(Data) {}

  /// The characters; their length is stored in the 4 bytes before them.
  const char *Data = nullptr;
};

/// Stable, unique'd string storage: an open-addressing table over
/// characters kept in blocks that never move. Returned views and Symbols
/// remain valid for the lifetime of the interner.
class StringInterner {
public:
  /// Interns \p Str; equal strings always return the same Symbol. The
  /// empty string is the empty Symbol.
  Symbol internSymbol(std::string_view Str);

  /// Interns \p Str; equal strings always return the same view (same .data()).
  std::string_view intern(std::string_view Str) {
    return internSymbol(Str).str();
  }

  /// Number of distinct strings interned.
  size_t size() const { return Count; }

private:
  struct Slot {
    uint64_t Hash = 0;
    const char *Data = nullptr; ///< Null: empty slot.
  };

  std::vector<Slot> Slots; ///< Power-of-two size, at most half full.
  size_t Count = 0;
  /// Character storage: heap blocks, filled in order (not an arena, whose
  /// byte counters measure AST and constraint memory).
  std::vector<std::unique_ptr<char[]>> Blocks;
  char *Cur = nullptr;
  char *End = nullptr;

  void grow();
  /// Copies \p Str behind its 4-byte length; returns the characters.
  const char *store(std::string_view Str);
};

} // namespace quals

#endif // QUALS_SUPPORT_STRINGINTERNER_H
