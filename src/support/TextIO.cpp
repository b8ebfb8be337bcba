//===- support/TextIO.cpp - Formatted appends and whole-file reads -------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//

#include "support/TextIO.h"

#include <cstdarg>
#include <cstdio>

using namespace quals;

void quals::appendf(std::string &Buf, const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list Copy;
  va_copy(Copy, Args);
  int Needed = std::vsnprintf(nullptr, 0, Fmt, Copy);
  va_end(Copy);
  if (Needed > 0) {
    size_t Old = Buf.size();
    Buf.resize(Old + Needed + 1);
    std::vsnprintf(&Buf[Old], Needed + 1, Fmt, Args);
    Buf.resize(Old + Needed); // Drop the NUL vsnprintf wrote.
  }
  va_end(Args);
}

bool quals::readFileBytes(const std::string &Path, std::string &Out,
                          std::string &Error) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    Error = "cannot open '" + Path + "'";
    return false;
  }
  Out.clear();
  char Buf[65536];
  size_t Read;
  while ((Read = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, Read);
  bool Ok = !std::ferror(F);
  std::fclose(F);
  if (!Ok)
    Error = "read error on '" + Path + "'";
  return Ok;
}
