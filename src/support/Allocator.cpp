//===- support/Allocator.cpp - Bump-pointer arena allocation -------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//

#include "support/Allocator.h"

#include <algorithm>

using namespace quals;

uintptr_t BumpPtrAllocator::startNewSlab(size_t Size, size_t Align) {
  size_t SlabBytes = std::max(SlabSize, Size + Align);
  Slabs.push_back(std::make_unique<char[]>(SlabBytes));
  Cur = Slabs.back().get();
  End = Cur + SlabBytes;
  TotalBytes.fetch_add(SlabBytes, std::memory_order_relaxed);
  return (reinterpret_cast<uintptr_t>(Cur) + Align - 1) &
         ~uintptr_t(Align - 1);
}
