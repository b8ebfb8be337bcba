//===- constinf/DeclTable.h - Tables indexed by declaration id ---*- C++ -*-===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// DeclTable<T>: a memo table over one kind of declaration, indexed by the
/// dense per-kind id CAstContext::create assigns (CDecl::getId). Its extent
/// is fixed once, from TranslationUnit::numDecls, so it never reallocates.
/// Entries live in fixed-size pages allocated on first touch: a page is a
/// small heap block that fits into the gaps a growing constraint system
/// leaves behind, where one table-sized block would extend the heap.
///
//===----------------------------------------------------------------------===//

#ifndef QUALS_CONSTINF_DECLTABLE_H
#define QUALS_CONSTINF_DECLTABLE_H

#include <cassert>
#include <memory>
#include <vector>

namespace quals {
namespace constinf {

template <typename T> class DeclTable {
public:
  /// A table of \p Size value-initialized entries.
  explicit DeclTable(unsigned Size)
      : Pages((Size + PageSize - 1) / PageSize), Size(Size) {}

  T &operator[](unsigned Id) {
    assert(Id < Size && "declaration from another AST context");
    std::unique_ptr<T[]> &Page = Pages[Id / PageSize];
    if (!Page)
      Page = std::make_unique<T[]>(PageSize);
    return Page[Id % PageSize];
  }

  /// Reads entry \p Id without allocating its page.
  const T &lookup(unsigned Id) const {
    assert(Id < Size && "declaration from another AST context");
    const std::unique_ptr<T[]> &Page = Pages[Id / PageSize];
    return Page ? Page[Id % PageSize] : Empty;
  }

private:
  static constexpr unsigned PageSize = 1024;

  std::vector<std::unique_ptr<T[]>> Pages;
  unsigned Size;
  T Empty{};
};

} // namespace constinf
} // namespace quals

#endif // QUALS_CONSTINF_DECLTABLE_H
