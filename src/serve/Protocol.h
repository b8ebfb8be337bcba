//===- serve/Protocol.h - qualsd wire protocol ------------------*- C++ -*-===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The qualsd request protocol: newline-delimited JSON on stdio. Each line
/// is one request object; the server answers with one response line per
/// request, in request order (docs/SERVER.md specifies the full protocol).
///
///   {"id":1,"method":"analyze","params":{"path":"foo.c"}}
///   {"id":2,"method":"analyze","params":{"source":"int f();","name":"b.c"}}
///   {"id":3,"method":"analyze-delta","params":{"path":"foo.c"}}
///   {"id":4,"method":"invalidate"}
///   {"id":5,"method":"stats"}
///   {"id":6,"method":"shutdown"}
///
/// analyze-delta is an alias of analyze: the same params, the same cache
/// lookup and cold pipeline, the same response bytes. It keeps its own
/// name so editor clients can send it, and its own latency histogram and
/// `stats` request count (docs/SERVER.md).
///
/// The parser is hand-rolled (no new dependencies) and hardened in the
/// sense of docs/ROBUSTNESS.md: it is fed by the same untrusted peer the
/// front ends are, so every budget is explicit -- input bytes, nesting
/// depth (the recursive-descent parser meters its own recursion, mirroring
/// support/Limits.h MaxRecursionDepth), and per-string size. Malformed or
/// over-budget input yields a byte-offset error message, never a crash;
/// fuzz/fuzz_protocol.cpp and the `fuzz.replay_corpus` ctest enforce that.
///
//===----------------------------------------------------------------------===//

#ifndef QUALS_SERVE_PROTOCOL_H
#define QUALS_SERVE_PROTOCOL_H

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace quals {
namespace serve {

/// Budgets for one protocol parse; all are hard caps with no "unlimited"
/// setting because the peer is always untrusted.
struct ProtocolLimits {
  /// Longest accepted request line (bytes). Inline sources ride inside
  /// requests, so this also bounds analyzable source size.
  size_t MaxRequestBytes = 8u << 20; // 8 MiB
  /// Deepest accepted JSON nesting; the parser recurses once per level.
  unsigned MaxDepth = 64;
  /// Longest accepted single string value (bytes, after unescaping).
  size_t MaxStringBytes = 4u << 20; // 4 MiB
};

/// A parsed JSON value. A small DOM rather than SAX: requests are tiny
/// (budgeted), and a DOM keeps parseRequest() trivially auditable.
class JsonValue {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }

  bool asBool() const { return B; }
  double asNumber() const { return Num; }
  /// The number as an int64 when it is integral and in range; \p Ok tells.
  int64_t asInt64(bool &Ok) const;
  const std::string &asString() const { return Str; }
  const std::vector<JsonValue> &elements() const { return Elems; }
  const std::vector<std::pair<std::string, JsonValue>> &members() const {
    return Members;
  }

  /// Object member lookup (first match); null when absent or not an object.
  const JsonValue *find(std::string_view Key) const;

  // Builder interface for the parser.
  Kind K = Kind::Null;
  bool B = false;
  double Num = 0;
  std::string Str;
  std::vector<JsonValue> Elems;
  std::vector<std::pair<std::string, JsonValue>> Members;
};

/// Parses \p Text as exactly one JSON document (leading/trailing whitespace
/// allowed, anything else after the document is an error). Returns false
/// and sets \p Error ("byte N: message") on malformed or over-budget input.
bool parseJson(std::string_view Text, const ProtocolLimits &Lim,
               JsonValue &Out, std::string &Error);

/// The request methods qualsd understands. AnalyzeDelta is served exactly
/// like Analyze; only its latency histogram and request count differ.
enum class Method {
  Analyze,
  AnalyzeDelta,
  Invalidate,
  Stats,
  Metrics,
  Shutdown
};

/// One parsed request line.
struct Request {
  /// Request id echoed into the response; absent ids echo as null.
  int64_t Id = 0;
  bool HasId = false;

  Method M = Method::Analyze;

  // --- analyze params ---
  /// File to analyze; the server reads (and hashes) its current content.
  std::string Path;
  /// Inline source; mutually exclusive with Path.
  std::string Source;
  bool HasSource = false;
  /// Buffer name for inline source (diagnostics); default "<request>".
  std::string Name = "<request>";
  /// "c" (qualcc pipeline) or "lambda" (qualcheck pipeline).
  std::string Language = "c";
  /// Polymorphic qualifier inference (the paper's default).
  bool Polymorphic = true;
  /// Also print const-annotated prototypes (C pipeline only).
  bool Protos = false;

  // --- invalidate params ---
  /// Drop only entries whose source content hashes to this value
  /// (hex, as reported by analyze responses); empty drops everything.
  std::string ContentHashHex;
};

/// Parses one request line. Returns false and sets \p Error on malformed
/// JSON, an unknown method, or ill-typed params; \p Out.Id/HasId are still
/// filled in when the id was readable, so the error response can echo it.
bool parseRequest(std::string_view Line, const ProtocolLimits &Lim,
                  Request &Out, std::string &Error);

/// Appends \p S to \p Out as a JSON string literal (quotes included),
/// escaping everything the RFC requires. Byte-transparent for UTF-8;
/// analysis output is treated as opaque bytes.
void appendJsonString(std::string &Out, std::string_view S);

} // namespace serve
} // namespace quals

#endif // QUALS_SERVE_PROTOCOL_H
