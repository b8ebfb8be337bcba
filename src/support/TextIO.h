//===- support/TextIO.h - Formatted appends and whole-file reads -*- C++ -*-===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The string and file helpers the tools and the server share: printf into
/// a buffered output stream, and read a whole file into memory.
///
//===----------------------------------------------------------------------===//

#ifndef QUALS_SUPPORT_TEXTIO_H
#define QUALS_SUPPORT_TEXTIO_H

#include <string>

namespace quals {

/// Appends printf-formatted text to \p Buf.
void appendf(std::string &Buf, const char *Fmt, ...)
    __attribute__((format(printf, 2, 3)));

/// Reads the whole file at \p Path into \p Out. Returns false and sets
/// \p Error on I/O failure.
bool readFileBytes(const std::string &Path, std::string &Out,
                   std::string &Error);

} // namespace quals

#endif // QUALS_SUPPORT_TEXTIO_H
