//===- support/SourceManager.h - Buffer & line/column mapping --*- C++ -*-===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Owns source buffers and maps SourceLocs back to (file, line, column).
/// Buffers occupy disjoint offset ranges in a single global offset space so a
/// bare 32-bit SourceLoc identifies both the buffer and the position.
///
//===----------------------------------------------------------------------===//

#ifndef QUALS_SUPPORT_SOURCEMANAGER_H
#define QUALS_SUPPORT_SOURCEMANAGER_H

#include "support/SourceLoc.h"

#include <string>
#include <string_view>
#include <vector>

namespace quals {

/// Human-readable position of a SourceLoc.
struct PresumedLoc {
  std::string_view Filename;
  unsigned Line = 0;   ///< 1-based.
  unsigned Column = 0; ///< 1-based.
  bool isValid() const { return Line != 0; }
};

/// Owns the text of every file handed to the front ends.
class SourceManager {
public:
  SourceManager();

  /// Registers \p Text under \p Filename; returns the buffer id.
  unsigned addBuffer(std::string Filename, std::string Text);

  /// Full text of buffer \p Id.
  std::string_view getBufferText(unsigned Id) const;

  /// Filename of buffer \p Id.
  std::string_view getBufferName(unsigned Id) const;

  /// The location of the first character of buffer \p Id.
  SourceLoc getBufferStart(unsigned Id) const;

  /// The location for offset \p Off within buffer \p Id.
  SourceLoc getLocForOffset(unsigned Id, size_t Off) const;

  /// Maps a location back to (file, line, column); invalid for SourceLoc().
  PresumedLoc getPresumedLoc(SourceLoc Loc) const;

  /// Returns the full line of text containing \p Loc (without newline).
  std::string_view getLineText(SourceLoc Loc) const;

private:
  struct Buffer {
    std::string Filename;
    std::string Text;
    uint32_t StartOffset; ///< Global offset of Text[0].
    std::vector<uint32_t> LineOffsets; ///< Buffer-local offsets of line starts.
  };

  std::vector<Buffer> Buffers;
  uint32_t NextOffset = 1; // 0 is reserved for the invalid location.

  const Buffer *findBuffer(SourceLoc Loc) const;
};

} // namespace quals

#endif // QUALS_SUPPORT_SOURCEMANAGER_H
