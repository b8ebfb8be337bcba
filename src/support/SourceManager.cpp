//===- support/SourceManager.cpp - Buffer & line/column mapping ----------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//

#include "support/SourceManager.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace quals;

SourceManager::SourceManager() = default;

unsigned SourceManager::addBuffer(std::string Filename, std::string Text) {
  Buffer B;
  B.Filename = std::move(Filename);
  B.Text = std::move(Text);
  B.StartOffset = NextOffset;
  B.LineOffsets.push_back(0);
  const char *Begin = B.Text.data(), *End = Begin + B.Text.size();
  for (const char *P = Begin;
       (P = static_cast<const char *>(std::memchr(P, '\n', End - P)));)
    B.LineOffsets.push_back(++P - Begin);
  NextOffset += B.Text.size() + 1; // +1 so even empty buffers are disjoint.
  Buffers.push_back(std::move(B));
  return Buffers.size() - 1;
}

std::string_view SourceManager::getBufferText(unsigned Id) const {
  assert(Id < Buffers.size() && "buffer id out of range");
  return Buffers[Id].Text;
}

std::string_view SourceManager::getBufferName(unsigned Id) const {
  assert(Id < Buffers.size() && "buffer id out of range");
  return Buffers[Id].Filename;
}

SourceLoc SourceManager::getBufferStart(unsigned Id) const {
  assert(Id < Buffers.size() && "buffer id out of range");
  return SourceLoc(Buffers[Id].StartOffset);
}

SourceLoc SourceManager::getLocForOffset(unsigned Id, size_t Off) const {
  assert(Id < Buffers.size() && "buffer id out of range");
  assert(Off <= Buffers[Id].Text.size() && "offset past end of buffer");
  return SourceLoc(Buffers[Id].StartOffset + Off);
}

const SourceManager::Buffer *SourceManager::findBuffer(SourceLoc Loc) const {
  if (!Loc.isValid())
    return nullptr;
  uint32_t Off = Loc.getOffset();
  // Buffers are sorted by StartOffset; find the last buffer starting at or
  // before Off.
  auto It = std::upper_bound(
      Buffers.begin(), Buffers.end(), Off,
      [](uint32_t O, const Buffer &B) { return O < B.StartOffset; });
  if (It == Buffers.begin())
    return nullptr;
  --It;
  if (Off > It->StartOffset + It->Text.size())
    return nullptr;
  return &*It;
}

PresumedLoc SourceManager::getPresumedLoc(SourceLoc Loc) const {
  PresumedLoc P;
  const Buffer *B = findBuffer(Loc);
  if (!B)
    return P;
  uint32_t Local = Loc.getOffset() - B->StartOffset;
  auto It = std::upper_bound(B->LineOffsets.begin(), B->LineOffsets.end(),
                             Local);
  unsigned Line = It - B->LineOffsets.begin(); // 1-based already.
  P.Filename = B->Filename;
  P.Line = Line;
  P.Column = Local - B->LineOffsets[Line - 1] + 1;
  return P;
}

std::string_view SourceManager::getLineText(SourceLoc Loc) const {
  const Buffer *B = findBuffer(Loc);
  if (!B)
    return {};
  uint32_t Local = Loc.getOffset() - B->StartOffset;
  auto It =
      std::upper_bound(B->LineOffsets.begin(), B->LineOffsets.end(), Local);
  unsigned Line = It - B->LineOffsets.begin();
  uint32_t Begin = B->LineOffsets[Line - 1];
  uint32_t End = Line < B->LineOffsets.size() ? B->LineOffsets[Line] - 1
                                              : B->Text.size();
  return std::string_view(B->Text).substr(Begin, End - Begin);
}
