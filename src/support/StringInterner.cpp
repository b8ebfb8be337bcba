//===- support/StringInterner.cpp - Unique'd identifier storage ----------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//

#include "support/StringInterner.h"

#include <algorithm>
#include <functional>

using namespace quals;

Symbol StringInterner::internSymbol(std::string_view Str) {
  if (Str.empty())
    return Symbol();
  if (2 * (Count + 1) > Slots.size())
    grow();
  uint64_t H = std::hash<std::string_view>()(Str);
  size_t Mask = Slots.size() - 1;
  for (size_t I = H & Mask;; I = (I + 1) & Mask) {
    Slot &S = Slots[I];
    if (!S.Data) {
      S.Hash = H;
      S.Data = store(Str);
      ++Count;
      return Symbol(S.Data);
    }
    if (S.Hash == H && Symbol(S.Data).str() == Str)
      return Symbol(S.Data);
  }
}

void StringInterner::grow() {
  std::vector<Slot> Old = std::move(Slots);
  Slots.assign(Old.empty() ? 256 : 2 * Old.size(), Slot());
  size_t Mask = Slots.size() - 1;
  for (const Slot &S : Old) {
    if (!S.Data)
      continue;
    size_t I = S.Hash & Mask;
    while (Slots[I].Data)
      I = (I + 1) & Mask;
    Slots[I] = S;
  }
}

const char *StringInterner::store(std::string_view Str) {
  uint32_t Len = static_cast<uint32_t>(Str.size());
  size_t Need = sizeof(Len) + Str.size();
  if (static_cast<size_t>(End - Cur) < Need) {
    size_t Size = std::max<size_t>(Need, 16 * 1024);
    Blocks.push_back(std::make_unique<char[]>(Size));
    Cur = Blocks.back().get();
    End = Cur + Size;
  }
  std::memcpy(Cur, &Len, sizeof(Len));
  std::memcpy(Cur + sizeof(Len), Str.data(), Str.size());
  const char *Data = Cur + sizeof(Len);
  Cur += Need;
  return Data;
}
