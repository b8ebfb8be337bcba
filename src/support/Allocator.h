//===- support/Allocator.h - Bump-pointer arena allocation -----*- C++ -*-===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bump-pointer arena. AST nodes, type shapes, and constraint objects are
/// allocated here and live for the duration of the owning analysis. The
/// arena never runs destructors: freeing the slabs frees everything, so
/// create() and copyArray() accept only trivially destructible types. A
/// node's child list is an arena array (copyArray), never a container that
/// owns heap memory -- so all of an analysis' node memory is in the slabs,
/// where bytesAllocated() and the arena limit see it.
///
//===----------------------------------------------------------------------===//

#ifndef QUALS_SUPPORT_ALLOCATOR_H
#define QUALS_SUPPORT_ALLOCATOR_H

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace quals {

/// A simple bump-pointer allocator backed by geometrically growing slabs.
class BumpPtrAllocator {
public:
  BumpPtrAllocator() = default;
  BumpPtrAllocator(const BumpPtrAllocator &) = delete;
  BumpPtrAllocator &operator=(const BumpPtrAllocator &) = delete;
  BumpPtrAllocator(BumpPtrAllocator &&) = default;
  BumpPtrAllocator &operator=(BumpPtrAllocator &&) = default;

  /// Allocates \p Size bytes aligned to \p Align. The bump is inline; only
  /// starting a slab is out of line.
  void *allocate(size_t Size, size_t Align) {
    assert(Align != 0 && (Align & (Align - 1)) == 0 &&
           "alignment must be a power of two");
    uintptr_t Aligned =
        (reinterpret_cast<uintptr_t>(Cur) + Align - 1) & ~uintptr_t(Align - 1);
    if (!Cur || Aligned + Size > reinterpret_cast<uintptr_t>(End))
      Aligned = startNewSlab(Size, Align);
    Cur = reinterpret_cast<char *>(Aligned + Size);
    BytesAllocated += Size;
    ThreadBytes += Size;
    return reinterpret_cast<void *>(Aligned);
  }

  /// Allocates and constructs a \p T with constructor args.
  template <typename T, typename... Args> T *create(Args &&...CtorArgs) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena objects are never destroyed (see the file comment)");
    void *Mem = allocate(sizeof(T), alignof(T));
    return new (Mem) T(std::forward<Args>(CtorArgs)...);
  }

  /// Copies \p Count objects of \p T into the arena and returns a pointer
  /// to the copy (null when \p Count is zero).
  template <typename T> T *copyArray(const T *Src, size_t Count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena objects are never destroyed (see the file comment)");
    if (Count == 0)
      return nullptr;
    T *Mem = static_cast<T *>(allocate(sizeof(T) * Count, alignof(T)));
    for (size_t I = 0; I != Count; ++I)
      new (Mem + I) T(Src[I]);
    return Mem;
  }

  /// Total bytes handed out so far (diagnostic/statistics use).
  size_t bytesAllocated() const { return BytesAllocated; }

  /// Slab bytes started by *every* arena in the process since startup.
  /// Counted once per slab, so allocate() touches no shared cache line:
  /// concurrent workers each bump their own arenas. A caller that
  /// allocates nothing starts no slab and leaves this flat.
  static uint64_t totalBytesAllocated() {
    return TotalBytes.load(std::memory_order_relaxed);
  }

  /// Bytes handed out by arenas on the *calling thread* since it started;
  /// the observability layer (support/Metrics.h PhaseScope) snapshots this
  /// at phase boundaries to attribute arena growth to pipeline phases.
  /// Thread-local so concurrent batch workers (support/ThreadPool.h) never
  /// bill their allocations to another worker's open phase -- each
  /// analysis context is confined to one task, so its allocations all land
  /// on the counter of the thread running that task.
  static uint64_t threadBytesAllocated() { return ThreadBytes; }

private:
  static constexpr size_t SlabSize = 64 * 1024;

  static inline std::atomic<uint64_t> TotalBytes{0};
  static inline thread_local uint64_t ThreadBytes = 0;

  std::vector<std::unique_ptr<char[]>> Slabs;
  char *Cur = nullptr;
  char *End = nullptr;
  size_t BytesAllocated = 0;

  /// Starts a slab that fits \p Size bytes at \p Align; returns the
  /// aligned address of those bytes in it.
  uintptr_t startNewSlab(size_t Size, size_t Align);
};

} // namespace quals

#endif // QUALS_SUPPORT_ALLOCATOR_H
