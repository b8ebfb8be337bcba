//===- link/Qsum.cpp - Serialized per-TU constraint summaries --------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//

#include "link/Qsum.h"

#include "support/Hash.h"

#include <atomic>
#include <cstdio>
#include <cstring>

#include <unistd.h>

using namespace quals;
using namespace quals::link;

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

namespace {

void putU8(std::string &Out, uint8_t V) { Out.push_back(char(V)); }

void putU32(std::string &Out, uint32_t V) {
  for (int I = 0; I != 4; ++I)
    Out.push_back(char((V >> (8 * I)) & 0xff));
}

void putU64(std::string &Out, uint64_t V) {
  for (int I = 0; I != 8; ++I)
    Out.push_back(char((V >> (8 * I)) & 0xff));
}

void putOrigin(std::string &Out, const QsumOrigin &O) {
  putU32(Out, O.File);
  putU32(Out, O.Line);
  putU32(Out, O.Col);
  putU32(Out, O.Reason);
}

void putSymbols(std::string &Out, const std::vector<QsumSymbol> &Syms) {
  putU32(Out, static_cast<uint32_t>(Syms.size()));
  for (const QsumSymbol &Sym : Syms) {
    putU32(Out, Sym.Name);
    putU32(Out, Sym.Shape);
    putU32(Out, static_cast<uint32_t>(Sym.Vars.size()));
    for (uint32_t V : Sym.Vars)
      putU32(Out, V);
    putU32(Out, static_cast<uint32_t>(Sym.Pins.size()));
    for (const QsumPin &P : Sym.Pins) {
      putU32(Out, P.Var);
      putU8(Out, P.IsEscape ? 1 : 0);
      putOrigin(Out, P.Origin);
    }
  }
}

} // namespace

std::string link::serializeSummary(const TuSummary &S) {
  std::string Out;
  Out.append(kSummaryMagic, sizeof(kSummaryMagic));
  putU32(Out, kSummaryFormatVersion);
  putU64(Out, S.ConfigHash);
  putU64(Out, S.ContentHash);

  putU32(Out, static_cast<uint32_t>(S.Strings.size()));
  for (const std::string &Str : S.Strings) {
    putU32(Out, static_cast<uint32_t>(Str.size()));
    Out.append(Str);
  }
  putU32(Out, S.SourceName);

  putU32(Out, static_cast<uint32_t>(S.Qualifiers.size()));
  for (const QsumQualifier &Q : S.Qualifiers) {
    putU32(Out, Q.Name);
    putU8(Out, Q.Polarity);
  }

  putU32(Out, S.NumVars);

  putU32(Out, static_cast<uint32_t>(S.Constraints.size()));
  for (const QsumConstraint &C : S.Constraints) {
    putU8(Out, C.LhsIsVar ? 1 : 0);
    putU64(Out, C.Lhs);
    putU8(Out, C.RhsIsVar ? 1 : 0);
    putU64(Out, C.Rhs);
    putU64(Out, C.Mask);
    putOrigin(Out, C.Origin);
  }

  putU32(Out, static_cast<uint32_t>(S.Positions.size()));
  for (const QsumPos &P : S.Positions) {
    putU32(Out, P.FnName);
    putU32(Out, static_cast<uint32_t>(P.ParamIndex));
    putU32(Out, P.Depth);
    putU32(Out, P.Var);
    putU8(Out, P.DeclaredConst ? 1 : 0);
  }

  putSymbols(Out, S.FnExports);
  putSymbols(Out, S.FnImports);
  putSymbols(Out, S.GlobExports);
  putSymbols(Out, S.GlobImports);
  return Out;
}

//===----------------------------------------------------------------------===//
// Deserialization (hardened)
//===----------------------------------------------------------------------===//

namespace {

/// Bounds-checked little-endian cursor. Every read either succeeds or
/// records the first error and makes all further reads fail fast.
class Reader {
public:
  Reader(const uint8_t *Data, size_t Size) : P(Data), N(Size) {}

  bool failed() const { return !Err.empty(); }
  const std::string &error() const { return Err; }
  size_t remaining() const { return N - Off; }

  bool fail(const char *What) {
    if (Err.empty())
      Err = std::string(What) + " at offset " + std::to_string(Off);
    return false;
  }

  bool bytes(void *Out, size_t Size, const char *What) {
    if (failed())
      return false;
    if (Size > remaining())
      return fail(What);
    std::memcpy(Out, P + Off, Size);
    Off += Size;
    return true;
  }

  bool u8(uint8_t &V, const char *What) { return bytes(&V, 1, What); }

  bool u32(uint32_t &V, const char *What) {
    uint8_t B[4];
    if (!bytes(B, 4, What))
      return false;
    V = uint32_t(B[0]) | uint32_t(B[1]) << 8 | uint32_t(B[2]) << 16 |
        uint32_t(B[3]) << 24;
    return true;
  }

  bool u64(uint64_t &V, const char *What) {
    uint8_t B[8];
    if (!bytes(B, 8, What))
      return false;
    V = 0;
    for (int I = 0; I != 8; ++I)
      V |= uint64_t(B[I]) << (8 * I);
    return true;
  }

  /// Reads a count and verifies the remaining input can hold that many
  /// records of at least \p MinRecordBytes each -- hostile counts must not
  /// drive allocations past the input size.
  bool count(uint32_t &V, size_t MinRecordBytes, const char *What) {
    if (!u32(V, What))
      return false;
    if (uint64_t(V) * MinRecordBytes > remaining())
      return fail(What);
    return true;
  }

private:
  const uint8_t *P;
  size_t N;
  size_t Off = 0;
  std::string Err;
};

bool readOrigin(Reader &R, QsumOrigin &O, uint32_t NumStrings) {
  if (!R.u32(O.File, "truncated origin") ||
      !R.u32(O.Line, "truncated origin") ||
      !R.u32(O.Col, "truncated origin") ||
      !R.u32(O.Reason, "truncated origin"))
    return false;
  if (O.File >= NumStrings || O.Reason >= NumStrings)
    return R.fail("origin string index out of range");
  return true;
}

// name(4) + shape(4) + nvars(4) + npins(4)
constexpr size_t kMinSymbolBytes = 16;
// var(4) + escape(1) + origin(16)
constexpr size_t kMinPinBytes = 21;

bool readSymbols(Reader &R, std::vector<QsumSymbol> &Out, uint32_t NumStrings,
                 uint32_t NumVars) {
  uint32_t Count = 0;
  if (!R.count(Count, kMinSymbolBytes, "bad symbol count"))
    return false;
  Out.reserve(Count);
  for (uint32_t I = 0; I != Count; ++I) {
    QsumSymbol Sym;
    if (!R.u32(Sym.Name, "truncated symbol") ||
        !R.u32(Sym.Shape, "truncated symbol"))
      return false;
    if (Sym.Name >= NumStrings || Sym.Shape >= NumStrings)
      return R.fail("symbol string index out of range");
    uint32_t NumSymVars = 0;
    if (!R.count(NumSymVars, 4, "bad symbol variable count"))
      return false;
    Sym.Vars.reserve(NumSymVars);
    for (uint32_t V = 0; V != NumSymVars; ++V) {
      uint32_t Var = 0;
      if (!R.u32(Var, "truncated symbol variables"))
        return false;
      if (Var >= NumVars)
        return R.fail("symbol variable out of range");
      Sym.Vars.push_back(Var);
    }
    uint32_t NumPins = 0;
    if (!R.count(NumPins, kMinPinBytes, "bad pin count"))
      return false;
    Sym.Pins.reserve(NumPins);
    for (uint32_t PI = 0; PI != NumPins; ++PI) {
      QsumPin Pin;
      uint8_t Escape = 0;
      if (!R.u32(Pin.Var, "truncated pin") ||
          !R.u8(Escape, "truncated pin"))
        return false;
      if (Pin.Var >= NumVars)
        return R.fail("pin variable out of range");
      if (Escape > 1)
        return R.fail("bad pin escape flag");
      Pin.IsEscape = Escape != 0;
      if (!readOrigin(R, Pin.Origin, NumStrings))
        return false;
      Sym.Pins.push_back(Pin);
    }
    Out.push_back(std::move(Sym));
  }
  return true;
}

bool readHeaderFields(Reader &R, QsumHeader &Out) {
  char Magic[4];
  if (!R.bytes(Magic, 4, "truncated header"))
    return false;
  if (std::memcmp(Magic, kSummaryMagic, 4) != 0)
    return R.fail("not a qualifier summary (bad magic)");
  if (!R.u32(Out.FormatVersion, "truncated header"))
    return false;
  if (Out.FormatVersion != kSummaryFormatVersion) {
    R.fail("stale summary");
    return false;
  }
  return R.u64(Out.ConfigHash, "truncated header") &&
         R.u64(Out.ContentHash, "truncated header");
}

} // namespace

bool link::readSummaryHeader(const uint8_t *Data, size_t Size, QsumHeader &Out,
                             std::string &Error) {
  Reader R(Data, Size);
  if (!readHeaderFields(R, Out)) {
    Error = R.error();
    if (Out.FormatVersion && Out.FormatVersion != kSummaryFormatVersion)
      Error = "stale summary: format version " +
              std::to_string(Out.FormatVersion) + ", expected " +
              std::to_string(kSummaryFormatVersion);
    return false;
  }
  return true;
}

bool link::deserializeSummary(const uint8_t *Data, size_t Size, TuSummary &Out,
                              std::string &Error) {
  Reader R(Data, Size);
  QsumHeader Header;
  if (!readHeaderFields(R, Header)) {
    Error = R.error();
    if (Header.FormatVersion &&
        Header.FormatVersion != kSummaryFormatVersion)
      Error = "stale summary: format version " +
              std::to_string(Header.FormatVersion) + ", expected " +
              std::to_string(kSummaryFormatVersion);
    return false;
  }
  Out = TuSummary();
  Out.ConfigHash = Header.ConfigHash;
  Out.ContentHash = Header.ContentHash;

  auto failed = [&] {
    Error = R.error();
    return false;
  };

  // String table. Each length is checked against the remaining input, so
  // the table can never hold more bytes than the file.
  uint32_t NumStrings = 0;
  if (!R.count(NumStrings, 4, "bad string count"))
    return failed();
  if (NumStrings == 0)
    return R.fail("empty string table"), failed();
  Out.Strings.reserve(NumStrings);
  for (uint32_t I = 0; I != NumStrings; ++I) {
    uint32_t Len = 0;
    if (!R.u32(Len, "truncated string table"))
      return failed();
    if (Len > R.remaining())
      return R.fail("string length out of range"), failed();
    std::string Str(Len, '\0');
    if (Len && !R.bytes(Str.data(), Len, "truncated string table"))
      return failed();
    Out.Strings.push_back(std::move(Str));
  }
  if (!Out.Strings[0].empty())
    return R.fail("string table slot 0 must be empty"), failed();

  if (!R.u32(Out.SourceName, "truncated source name"))
    return failed();
  if (Out.SourceName >= NumStrings)
    return R.fail("source name index out of range"), failed();

  // Qualifier descriptor. QualifierSet requires <= 64 qualifiers with
  // unique names, so a linker rebuilding the set from this descriptor must
  // never see duplicates.
  uint32_t NumQuals = 0;
  if (!R.count(NumQuals, 5, "bad qualifier count"))
    return failed();
  if (NumQuals == 0 || NumQuals > 64)
    return R.fail("qualifier count out of range"), failed();
  Out.Qualifiers.reserve(NumQuals);
  for (uint32_t I = 0; I != NumQuals; ++I) {
    QsumQualifier Q;
    if (!R.u32(Q.Name, "truncated qualifier") ||
        !R.u8(Q.Polarity, "truncated qualifier"))
      return failed();
    if (Q.Name >= NumStrings)
      return R.fail("qualifier name index out of range"), failed();
    if (Q.Name == 0)
      return R.fail("qualifier name must be non-empty"), failed();
    if (Q.Polarity > 1)
      return R.fail("bad qualifier polarity"), failed();
    for (const QsumQualifier &Prev : Out.Qualifiers)
      if (Prev.Name == Q.Name || Out.Strings[Prev.Name] == Out.Strings[Q.Name])
        return R.fail("duplicate qualifier name"), failed();
    Out.Qualifiers.push_back(Q);
  }
  const uint64_t UsedBits =
      NumQuals == 64 ? ~uint64_t(0) : (uint64_t(1) << NumQuals) - 1;

  if (!R.u32(Out.NumVars, "truncated variable count"))
    return failed();
  // Every variable a well-formed writer emits is referenced by at least one
  // constraint, position, or symbol, each costing >= 4 bytes -- so NumVars
  // beyond the input size marks a hostile header (and would otherwise let a
  // 20-byte file demand a 4-billion-variable system).
  if (Out.NumVars > Size)
    return R.fail("variable count exceeds input size"), failed();

  // lhs(1+8) + rhs(1+8) + mask(8) + origin(16)
  uint32_t NumConstraints = 0;
  if (!R.count(NumConstraints, 42, "bad constraint count"))
    return failed();
  Out.Constraints.reserve(NumConstraints);
  for (uint32_t I = 0; I != NumConstraints; ++I) {
    QsumConstraint C;
    uint8_t LhsIsVar = 0, RhsIsVar = 0;
    if (!R.u8(LhsIsVar, "truncated constraint") ||
        !R.u64(C.Lhs, "truncated constraint") ||
        !R.u8(RhsIsVar, "truncated constraint") ||
        !R.u64(C.Rhs, "truncated constraint") ||
        !R.u64(C.Mask, "truncated constraint"))
      return failed();
    if (LhsIsVar > 1 || RhsIsVar > 1)
      return R.fail("bad constraint operand kind"), failed();
    C.LhsIsVar = LhsIsVar != 0;
    C.RhsIsVar = RhsIsVar != 0;
    if (C.LhsIsVar ? C.Lhs >= Out.NumVars : (C.Lhs & ~UsedBits) != 0)
      return R.fail("bad constraint left operand"), failed();
    if (C.RhsIsVar ? C.Rhs >= Out.NumVars : (C.Rhs & ~UsedBits) != 0)
      return R.fail("bad constraint right operand"), failed();
    if ((C.Mask & ~UsedBits) != 0)
      return R.fail("constraint mask out of range"), failed();
    if (!readOrigin(R, C.Origin, NumStrings))
      return failed();
    Out.Constraints.push_back(C);
  }

  // fn(4) + param(4) + depth(4) + var(4) + declared(1)
  uint32_t NumPositions = 0;
  if (!R.count(NumPositions, 17, "bad position count"))
    return failed();
  Out.Positions.reserve(NumPositions);
  for (uint32_t I = 0; I != NumPositions; ++I) {
    QsumPos P;
    uint32_t Param = 0;
    uint8_t Declared = 0;
    if (!R.u32(P.FnName, "truncated position") ||
        !R.u32(Param, "truncated position") ||
        !R.u32(P.Depth, "truncated position") ||
        !R.u32(P.Var, "truncated position") ||
        !R.u8(Declared, "truncated position"))
      return failed();
    if (P.FnName >= NumStrings)
      return R.fail("position function name out of range"), failed();
    P.ParamIndex = static_cast<int32_t>(Param);
    if (P.ParamIndex < -1)
      return R.fail("bad position parameter index"), failed();
    if (P.Var >= Out.NumVars)
      return R.fail("position variable out of range"), failed();
    if (Declared > 1)
      return R.fail("bad position declared flag"), failed();
    P.DeclaredConst = Declared != 0;
    Out.Positions.push_back(P);
  }

  if (!readSymbols(R, Out.FnExports, NumStrings, Out.NumVars) ||
      !readSymbols(R, Out.FnImports, NumStrings, Out.NumVars) ||
      !readSymbols(R, Out.GlobExports, NumStrings, Out.NumVars) ||
      !readSymbols(R, Out.GlobImports, NumStrings, Out.NumVars))
    return failed();

  if (R.remaining() != 0)
    return R.fail("trailing bytes after summary"), failed();
  return true;
}

//===----------------------------------------------------------------------===//
// Keys and files
//===----------------------------------------------------------------------===//

uint64_t link::summaryCacheKey(uint64_t ContentHash, uint64_t ConfigHash) {
  return hashCombine(ContentHash, ConfigHash);
}

std::string link::summaryFileName(uint64_t Key) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%016llx.qsum",
                static_cast<unsigned long long>(Key));
  return Buf;
}

uint64_t link::summaryConfigHash() {
  // Format version plus every inference option the compile step bakes into
  // a summary's results. `qualcc --emit-summary` runs the paper-default
  // configuration (casts sever, conservative libraries, shared struct
  // fields) in summary mode.
  HashBuilder B;
  B.add(uint64_t(kSummaryFormatVersion));
  B.add(std::string_view("const-summary"));
  B.add(true)  // CastsSeverFlow
      .add(true)  // ConservativeLibraries
      .add(true)  // StructFieldsShared
      .add(true); // SummaryMode (monomorphic boundaries)
  return B.digest();
}

bool link::writeFileAtomic(const std::string &Path, std::string_view Bytes,
                           std::string &Error) {
  // Unique temporary beside the target so the rename stays within one
  // filesystem; concurrent writers of the same key each rename a complete
  // file, so readers never observe a torn summary.
  static std::atomic<unsigned> Counter{0};
  std::string Tmp = Path + ".tmp." + std::to_string(getpid()) + "." +
                    std::to_string(Counter.fetch_add(1, std::memory_order_relaxed));
  std::FILE *F = std::fopen(Tmp.c_str(), "wb");
  if (!F) {
    Error = "cannot create '" + Tmp + "'";
    return false;
  }
  bool Ok = Bytes.empty() ||
            std::fwrite(Bytes.data(), 1, Bytes.size(), F) == Bytes.size();
  Ok = std::fclose(F) == 0 && Ok;
  if (!Ok) {
    Error = "write error on '" + Tmp + "'";
    std::remove(Tmp.c_str());
    return false;
  }
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    Error = "cannot rename '" + Tmp + "' to '" + Path + "'";
    std::remove(Tmp.c_str());
    return false;
  }
  return true;
}
