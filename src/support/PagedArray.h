//===- support/PagedArray.h - Dense array in never-moving pages -*- C++ -*-===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// PagedArray<T>: a dense array indexed 0 .. size() - 1 whose entries live
/// in fixed-size pages. A page never moves once allocated, so growth copies
/// no entry and a reference to an entry stays valid for the array's life;
/// only the page directory (one pointer per page) is reallocated.
///
/// Pages are allocated on first write (push_back, append, slot) and
/// value-initialized; lookup() reads an entry without allocating its page,
/// and operator[] reads or updates an entry already written. Two kinds of
/// user share it: memo tables sized once to a declaration count
/// (constinf), which touch only the pages of declarations a unit uses, and
/// the constraint system's variable, constraint and edge records, which
/// grow by appending.
///
/// The page size is fixed at 2^11 entries. That keeps a small system at a
/// page or two per array, and a page of the constraint system's largest
/// record, a 48-byte Constraint, under glibc's default mmap threshold.
///
//===----------------------------------------------------------------------===//

#ifndef QUALS_SUPPORT_PAGEDARRAY_H
#define QUALS_SUPPORT_PAGEDARRAY_H

#include <cassert>
#include <cstddef>
#include <memory>
#include <vector>

namespace quals {

template <typename T> class PagedArray {
public:
  static constexpr unsigned PageBits = 11;
  static constexpr size_t PageSize = size_t(1) << PageBits;

  PagedArray() = default;
  /// An array of \p Size value-initialized entries; no page is allocated
  /// until an entry is written.
  explicit PagedArray(size_t Size) { resize(Size); }

  size_t size() const { return Size; }
  bool empty() const { return Size == 0; }

  /// Entry \p I, whose page exists: the entry was appended, or written
  /// through slot().
  T &operator[](size_t I) {
    assert(I < Size && Pages[I >> PageBits] && "entry never written");
    return Pages[I >> PageBits][I & (PageSize - 1)];
  }
  const T &operator[](size_t I) const {
    assert(I < Size && Pages[I >> PageBits] && "entry never written");
    return Pages[I >> PageBits][I & (PageSize - 1)];
  }

  /// Entry \p I for writing, allocating its page on first use.
  T &slot(size_t I) {
    assert(I < Size && "index out of range");
    std::unique_ptr<T[]> &Page = Pages[I >> PageBits];
    if (!Page)
      Page = std::make_unique<T[]>(PageSize);
    return Page[I & (PageSize - 1)];
  }

  /// Entry \p I, or a value-initialized T if its page was never written.
  /// Allocates nothing.
  const T &lookup(size_t I) const {
    assert(I < Size && "index out of range");
    const std::unique_ptr<T[]> &Page = Pages[I >> PageBits];
    return Page ? Page[I & (PageSize - 1)] : Empty;
  }

  /// Grows the extent to \p N entries. New entries read as
  /// value-initialized; their pages are allocated when written.
  void resize(size_t N) {
    assert(N >= Size && "a paged array never shrinks");
    Size = N;
    Pages.resize((N + PageSize - 1) >> PageBits);
  }

  /// Appends \p V; returns its index.
  size_t push_back(const T &V) {
    size_t I = Size;
    if ((I & (PageSize - 1)) == 0)
      resize(I + 1);
    else
      ++Size;
    slot(I) = V;
    return I;
  }

  /// Appends \p N copies of \p V; returns the index of the first.
  size_t append(size_t N, const T &V) {
    size_t First = Size;
    resize(Size + N);
    for (size_t I = First; I != Size; ++I)
      slot(I) = V;
    return First;
  }

  /// Pages allocated so far (for tests and memory accounting).
  size_t allocatedPages() const {
    size_t N = 0;
    for (const std::unique_ptr<T[]> &Page : Pages)
      N += Page != nullptr;
    return N;
  }

private:
  std::vector<std::unique_ptr<T[]>> Pages;
  size_t Size = 0;
  T Empty{};
};

} // namespace quals

#endif // QUALS_SUPPORT_PAGEDARRAY_H
