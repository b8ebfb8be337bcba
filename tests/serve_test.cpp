//===- tests/serve_test.cpp - Analysis server unit tests ------------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
//
// Covers the serving layer bottom-up: support/Hash (stability, the
// never-zero contract), serve/Protocol (the hardened JSON request parser
// and its budgets), serve/ResultCache (LRU byte budget, invalidation,
// concurrent coherence), and serve/Server
// end-to-end over string streams (response ordering at every worker count,
// cold-vs-warm byte identity, error responses, clean shutdown, and
// analyze-delta answering exactly like a fresh server's analyze).
//
//===----------------------------------------------------------------------===//

#include "serve/Pipelines.h"
#include "serve/Protocol.h"
#include "serve/RequestLog.h"
#include "serve/ResultCache.h"
#include "serve/Server.h"
#include "support/Hash.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <unistd.h>

using namespace quals;
using namespace quals::serve;

//===----------------------------------------------------------------------===//
// support/Hash
//===----------------------------------------------------------------------===//

TEST(Hash, DeterministicAndDiffuse) {
  EXPECT_EQ(hashString("int f();"), hashString("int f();"));
  EXPECT_NE(hashString("int f();"), hashString("int g();"));
  EXPECT_NE(hashString("a"), hashString("b"));
  // Size is folded in, so a shared prefix is not a shared hash.
  EXPECT_NE(hashString(""), hashString(std::string_view("\0", 1)));
  EXPECT_NE(hashBytes("xy", 1), hashBytes("xy", 2));
}

TEST(Hash, NeverReturnsZero) {
  EXPECT_NE(hashString(""), 0u);
  EXPECT_NE(hashBytes(nullptr, 0), 0u);
  HashBuilder B;
  EXPECT_NE(B.digest(), 0u);
}

TEST(Hash, CombineIsOrderDependent) {
  uint64_t A = hashString("alpha"), C = hashString("beta");
  EXPECT_NE(hashCombine(A, C), hashCombine(C, A));
  HashBuilder B1, B2;
  B1.add(A).add(C);
  B2.add(C).add(A);
  EXPECT_NE(B1.digest(), B2.digest());
}

TEST(Hash, StreamHasherIsChunkSplitInvariant) {
  // The summary content address (src/link) streams file bytes through
  // StreamHasher in whatever read sizes the OS hands back; every split of
  // the same bytes must produce the digest of the whole.
  const std::string Bytes =
      "QSUM summary bytes \x00\x01\xff with embedded NUL and high bits";
  uint64_t Whole = hashBytes(Bytes.data(), Bytes.size());
  for (size_t Split1 = 0; Split1 <= Bytes.size(); ++Split1) {
    for (size_t Split2 = Split1; Split2 <= Bytes.size(); Split2 += 7) {
      StreamHasher S;
      S.update(Bytes.data(), Split1);
      S.update(Bytes.data() + Split1, Split2 - Split1);
      S.update(Bytes.data() + Split2, Bytes.size() - Split2);
      EXPECT_EQ(S.digest(), Whole)
          << "splits at " << Split1 << ", " << Split2;
      EXPECT_EQ(S.size(), Bytes.size());
    }
  }
  // Including the all-in-one-call and the byte-at-a-time extremes.
  StreamHasher ByteWise;
  for (char C : Bytes)
    ByteWise.update(&C, 1);
  EXPECT_EQ(ByteWise.digest(), Whole);
  // Empty updates are no-ops.
  StreamHasher Empty;
  Empty.update(nullptr, 0);
  EXPECT_EQ(Empty.digest(), hashBytes(nullptr, 0));
  EXPECT_NE(Empty.digest(), 0u);
}

TEST(Hash, StreamHasherDigestDoesNotConsume) {
  StreamHasher S;
  S.update("abc");
  uint64_t D1 = S.digest();
  EXPECT_EQ(S.digest(), D1); // Idempotent.
  S.update("def");
  EXPECT_EQ(S.digest(), hashString("abcdef"));
}

TEST(Hash, HashBuilderChunksAreNotInvariant) {
  // Documented contrast: HashBuilder::addBytes digests per chunk, so chunk
  // boundaries are part of its result -- which is why the content address
  // uses StreamHasher instead.
  HashBuilder OneChunk, TwoChunks;
  OneChunk.addBytes("abcdef", 6);
  TwoChunks.addBytes("abc", 3).addBytes("def", 3);
  EXPECT_NE(OneChunk.digest(), TwoChunks.digest());
}

TEST(Hash, ConfigHashSeparatesEveryField) {
  AnalyzeJob Base;
  Base.Name = "a.c";
  Base.Language = "c";
  uint64_t H0 = configHash(Base);

  AnalyzeJob J = Base;
  J.Name = "b.c"; // Diagnostics embed the name; distinct result bytes.
  EXPECT_NE(configHash(J), H0);
  J = Base;
  J.Language = "lambda";
  EXPECT_NE(configHash(J), H0);
  J = Base;
  J.Polymorphic = false;
  EXPECT_NE(configHash(J), H0);
  J = Base;
  J.Protos = true;
  EXPECT_NE(configHash(J), H0);
  J = Base;
  J.Lim.MaxErrors = 3; // Limits can change diagnostics, so they key too.
  EXPECT_NE(configHash(J), H0);
  // The source bytes are the *other* key half, never part of the config.
  J = Base;
  J.Source = "int x;";
  EXPECT_EQ(configHash(J), H0);
}

//===----------------------------------------------------------------------===//
// serve/Protocol: JSON parsing
//===----------------------------------------------------------------------===//

namespace {

JsonValue parseOk(const std::string &Text) {
  JsonValue V;
  std::string Error;
  EXPECT_TRUE(parseJson(Text, ProtocolLimits(), V, Error)) << Error;
  return V;
}

std::string parseErr(const std::string &Text,
                     ProtocolLimits Lim = ProtocolLimits()) {
  JsonValue V;
  std::string Error;
  EXPECT_FALSE(parseJson(Text, Lim, V, Error)) << "input: " << Text;
  EXPECT_FALSE(Error.empty());
  return Error;
}

} // namespace

TEST(Protocol, ParsesScalarsAndContainers) {
  EXPECT_TRUE(parseOk("null").isNull());
  EXPECT_TRUE(parseOk("true").asBool());
  EXPECT_FALSE(parseOk("false").asBool());
  EXPECT_EQ(parseOk("-42.5").asNumber(), -42.5);
  EXPECT_EQ(parseOk("\"hi\"").asString(), "hi");

  JsonValue V = parseOk(" {\"a\": [1, 2, {\"b\": null}], \"c\": \"d\"} ");
  ASSERT_EQ(V.kind(), JsonValue::Kind::Object);
  const JsonValue *A = V.find("a");
  ASSERT_NE(A, nullptr);
  ASSERT_EQ(A->elements().size(), 3u);
  EXPECT_EQ(A->elements()[1].asNumber(), 2.0);
  EXPECT_EQ(V.find("c")->asString(), "d");
  EXPECT_EQ(V.find("missing"), nullptr);
}

TEST(Protocol, AsInt64RangeChecks) {
  bool Ok = false;
  EXPECT_EQ(parseOk("123").asInt64(Ok), 123);
  EXPECT_TRUE(Ok);
  parseOk("1.5").asInt64(Ok);
  EXPECT_FALSE(Ok);
  parseOk("1e300").asInt64(Ok);
  EXPECT_FALSE(Ok);
}

TEST(Protocol, DecodesEscapesAndSurrogates) {
  EXPECT_EQ(parseOk("\"a\\n\\t\\\\\\\"\\/\"").asString(), "a\n\t\\\"/");
  EXPECT_EQ(parseOk("\"\\u0041\"").asString(), "A");
  EXPECT_EQ(parseOk("\"\\u00e9\"").asString(), "\xc3\xa9");       // é
  EXPECT_EQ(parseOk("\"\\u20ac\"").asString(), "\xe2\x82\xac");   // €
  EXPECT_EQ(parseOk("\"\\ud83d\\ude00\"").asString(),
            "\xf0\x9f\x98\x80"); // 😀 via surrogate pair
  // Lone surrogates become U+FFFD, never ill-formed UTF-8 or a crash.
  EXPECT_EQ(parseOk("\"\\ud83dx\"").asString(), "\xef\xbf\xbdx");
  EXPECT_EQ(parseOk("\"\\ude00\"").asString(), "\xef\xbf\xbd");
}

TEST(Protocol, ReportsByteOffsets) {
  EXPECT_NE(parseErr("{\"a\":}").find("byte 5"), std::string::npos);
  parseErr("");
  parseErr("{");
  parseErr("[1,]");
  parseErr("{\"a\":1,}");
  parseErr("\"unterminated");
  parseErr("\"bad \\q escape\"");
  parseErr("nul");
  parseErr("1 2"); // Trailing garbage after the document.
}

TEST(Protocol, EnforcesBudgets) {
  ProtocolLimits Tight;
  Tight.MaxDepth = 4;
  std::string Deep(10, '[');
  Deep += std::string(10, ']');
  EXPECT_NE(parseErr(Deep, Tight).find("depth"), std::string::npos);
  // Exactly at the budget is fine: the meter counts every parser
  // recursion (the stack is the resource), so the innermost scalar is the
  // fourth level here.
  JsonValue V;
  std::string Error;
  EXPECT_TRUE(parseJson("[[[1]]]", Tight, V, Error)) << Error;
  EXPECT_FALSE(parseJson("[[[[1]]]]", Tight, V, Error));

  Tight.MaxStringBytes = 4;
  EXPECT_NE(parseErr("\"hello world\"", Tight).find("string"),
            std::string::npos);

  Tight.MaxRequestBytes = 8;
  parseErr("{\"aaaa\":true}", Tight);
}

//===----------------------------------------------------------------------===//
// serve/Protocol: request validation
//===----------------------------------------------------------------------===//

namespace {

Request requestOk(const std::string &Line) {
  Request R;
  std::string Error;
  EXPECT_TRUE(parseRequest(Line, ProtocolLimits(), R, Error)) << Error;
  return R;
}

std::string requestErr(const std::string &Line) {
  Request R;
  std::string Error;
  EXPECT_FALSE(parseRequest(Line, ProtocolLimits(), R, Error))
      << "input: " << Line;
  EXPECT_FALSE(Error.empty());
  return Error;
}

} // namespace

TEST(Protocol, ParsesAnalyzeRequests) {
  Request R = requestOk("{\"id\":7,\"method\":\"analyze\",\"params\":"
                        "{\"source\":\"int x;\",\"name\":\"t.c\","
                        "\"mono\":true,\"protos\":true}}");
  EXPECT_TRUE(R.HasId);
  EXPECT_EQ(R.Id, 7);
  EXPECT_EQ(R.M, Method::Analyze);
  EXPECT_TRUE(R.HasSource);
  EXPECT_EQ(R.Source, "int x;");
  EXPECT_EQ(R.Name, "t.c");
  EXPECT_FALSE(R.Polymorphic); // mono:true inverts.
  EXPECT_TRUE(R.Protos);

  R = requestOk("{\"id\":1,\"method\":\"analyze\",\"params\":"
                "{\"path\":\"/tmp/x.q\",\"language\":\"lambda\"}}");
  EXPECT_EQ(R.Path, "/tmp/x.q");
  EXPECT_EQ(R.Name, "/tmp/x.q"); // Path doubles as the buffer name.
  EXPECT_EQ(R.Language, "lambda");
  EXPECT_TRUE(R.Polymorphic);
}

TEST(Protocol, ParsesControlRequests) {
  EXPECT_EQ(requestOk("{\"id\":1,\"method\":\"stats\"}").M, Method::Stats);
  EXPECT_EQ(requestOk("{\"id\":2,\"method\":\"shutdown\"}").M,
            Method::Shutdown);
  Request R = requestOk("{\"id\":3,\"method\":\"invalidate\"}");
  EXPECT_EQ(R.M, Method::Invalidate);
  EXPECT_TRUE(R.ContentHashHex.empty());
  R = requestOk("{\"id\":4,\"method\":\"invalidate\",\"params\":"
                "{\"hash\":\"82d966d0f10b53df\"}}");
  EXPECT_EQ(R.ContentHashHex, "82d966d0f10b53df");
}

TEST(Protocol, RejectsIllFormedRequests) {
  requestErr("[1,2,3]");                               // not an object
  requestErr("{\"id\":1}");                            // no method
  requestErr("{\"id\":1,\"method\":\"frobnicate\"}");  // unknown method
  requestErr("{\"id\":1.5,\"method\":\"stats\"}");     // non-integer id
  requestErr("{\"id\":1,\"method\":\"analyze\"}");     // no params
  requestErr("{\"id\":1,\"method\":\"analyze\",\"params\":{}}");
  requestErr("{\"id\":1,\"method\":\"analyze\",\"params\":"
             "{\"path\":\"a\",\"source\":\"b\"}}");    // both
  requestErr("{\"id\":1,\"method\":\"analyze\",\"params\":"
             "{\"source\":\"x\",\"language\":\"ml\"}}");
  requestErr("{\"id\":1,\"method\":\"analyze\",\"params\":"
             "{\"source\":\"x\",\"mono\":\"yes\"}}");  // ill-typed flag
  requestErr("{\"id\":1,\"method\":\"invalidate\",\"params\":"
             "{\"hash\":\"xyzzy\"}}");                 // non-hex hash
  requestErr("{\"id\":1,\"method\":\"invalidate\",\"params\":"
             "{\"hash\":\"0123456789abcdef0\"}}");     // > 16 digits
  // The id is still recovered for the error response when readable.
  Request R;
  std::string Error;
  EXPECT_FALSE(parseRequest("{\"id\":9,\"method\":\"nope\"}",
                            ProtocolLimits(), R, Error));
  EXPECT_TRUE(R.HasId);
  EXPECT_EQ(R.Id, 9);
}

TEST(Protocol, AppendJsonStringRoundTrips) {
  std::string Payload = "line1\nline\t\"2\"\\ \x01\x1f caf\xc3\xa9";
  std::string Encoded;
  appendJsonString(Encoded, Payload);
  EXPECT_EQ(parseOk(Encoded).asString(), Payload);
}

//===----------------------------------------------------------------------===//
// serve/ResultCache
//===----------------------------------------------------------------------===//

namespace {

CachedResult result(const std::string &Out, int Exit = 0) {
  CachedResult R;
  R.Out = Out;
  R.ExitCode = Exit;
  return R;
}

/// A fresh temp dir removed on scope exit.
class TempDir {
public:
  TempDir() {
    Dir = std::filesystem::temp_directory_path() /
          ("quals_serve_test_" + std::to_string(::getpid()) + "_" +
           std::to_string(Counter++));
    std::filesystem::create_directories(Dir);
  }
  ~TempDir() {
    std::error_code Ec;
    std::filesystem::remove_all(Dir, Ec);
  }
  std::filesystem::path Dir;

private:
  static int Counter;
};

int TempDir::Counter = 0;

} // namespace

TEST(ResultCache, MissInsertHitByteIdentical) {
  ResultCache Cache;
  CacheKey K{hashString("int x;"), 0x1234};
  CachedResult Got;
  EXPECT_FALSE(Cache.lookup(K, Got));
  CachedResult Put = result("declared 1\n", 2);
  Put.Err = "warning: w\n";
  Cache.insert(K, Put);
  ASSERT_TRUE(Cache.lookup(K, Got));
  EXPECT_EQ(Got.Out, Put.Out);
  EXPECT_EQ(Got.Err, Put.Err);
  EXPECT_EQ(Got.ExitCode, 2);
  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Entries, 1u);
}

TEST(ResultCache, KeyHalvesAreIndependent) {
  ResultCache Cache;
  Cache.insert({10, 20}, result("a"));
  CachedResult Got;
  EXPECT_FALSE(Cache.lookup({10, 21}, Got));
  EXPECT_FALSE(Cache.lookup({11, 20}, Got));
  EXPECT_TRUE(Cache.lookup({10, 20}, Got));
}

TEST(ResultCache, EvictsLeastRecentlyUsedByBytes) {
  // Budget fits ~3 entries of 64+36 bytes payload+overhead.
  ResultCache Cache(300);
  Cache.insert({1, 1}, result(std::string(36, 'a')));
  Cache.insert({2, 1}, result(std::string(36, 'b')));
  Cache.insert({3, 1}, result(std::string(36, 'c')));
  CachedResult Got;
  ASSERT_TRUE(Cache.lookup({1, 1}, Got)); // Refresh 1; 2 is now LRU.
  Cache.insert({4, 1}, result(std::string(36, 'd')));
  EXPECT_FALSE(Cache.lookup({2, 1}, Got));
  EXPECT_TRUE(Cache.lookup({1, 1}, Got));
  EXPECT_TRUE(Cache.lookup({3, 1}, Got));
  EXPECT_TRUE(Cache.lookup({4, 1}, Got));
  EXPECT_EQ(Cache.stats().Evictions, 1u);
  EXPECT_LE(Cache.stats().Bytes, 300u);
}

TEST(ResultCache, OversizedEntryIsNeverCached) {
  ResultCache Cache(100);
  Cache.insert({1, 1}, result(std::string(200, 'x')));
  CachedResult Got;
  EXPECT_FALSE(Cache.lookup({1, 1}, Got));
  EXPECT_EQ(Cache.stats().Entries, 0u);
}

TEST(ResultCache, EntryLargerThanAShardSliceIsCached) {
  // Regression: a cache split into 16 shards refused any entry larger than
  // 1/16 of the budget, so e.g. a 160 KB --protos reply under --cache-mb=1
  // always missed. The whole budget now bounds a single entry.
  ResultCache Cache(1 << 20);
  Cache.insert({1, 1}, result(std::string(100 << 10, 'p')));
  CachedResult Got;
  ASSERT_TRUE(Cache.lookup({1, 1}, Got));
  EXPECT_EQ(Got.Out.size(), 100u << 10);
  EXPECT_EQ(Cache.stats().Entries, 1u);
}

TEST(ResultCache, ZeroBudgetDisablesCaching) {
  ResultCache Cache(0);
  Cache.insert({1, 1}, result("x"));
  CachedResult Got;
  EXPECT_FALSE(Cache.lookup({1, 1}, Got));
  EXPECT_EQ(Cache.stats().Entries, 0u);
}

TEST(ResultCache, InvalidateContentDropsEveryConfig) {
  ResultCache Cache;
  Cache.insert({7, 1}, result("a"));
  Cache.insert({7, 2}, result("b")); // Same source, different config.
  Cache.insert({8, 1}, result("c"));
  EXPECT_EQ(Cache.invalidateContent(7), 2u);
  CachedResult Got;
  EXPECT_FALSE(Cache.lookup({7, 1}, Got));
  EXPECT_FALSE(Cache.lookup({7, 2}, Got));
  EXPECT_TRUE(Cache.lookup({8, 1}, Got));
  EXPECT_EQ(Cache.invalidateAll(), 1u);
  EXPECT_EQ(Cache.stats().Entries, 0u);
}

TEST(ResultCache, ManyKeysReachableAndStatsAggregate) {
  // Every key stays reachable, and the counters add up in one stats view.
  ResultCache Cache(1 << 20);
  for (uint64_t I = 1; I <= 64; ++I)
    Cache.insert({I, 1}, result("v" + std::to_string(I)));
  CachedResult Got;
  for (uint64_t I = 1; I <= 64; ++I)
    EXPECT_TRUE(Cache.lookup({I, 1}, Got)) << I;
  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Entries, 64u);
  EXPECT_EQ(S.Inserts, 64u);
  EXPECT_EQ(S.Hits, 64u);
}

TEST(ResultCache, ConcurrentTrafficIsRaceFreeAndCoherent) {
  // Run under TSan in CI: hit/miss/insert/invalidate traffic from many
  // threads must be race-free, and every hit must observe the exact
  // payload inserted for its key.
  ResultCache Cache(1 << 20);
  constexpr int Threads = 4, Rounds = 64;
  constexpr uint64_t Keys = 16;
  std::atomic<uint64_t> BadPayloads{0};
  std::vector<std::thread> Workers;
  for (int Ti = 0; Ti != Threads; ++Ti) {
    Workers.emplace_back([&Cache, &BadPayloads, Ti] {
      for (int R = 0; R != Rounds; ++R) {
        uint64_t K = static_cast<uint64_t>(Ti * 31 + R) % Keys + 1;
        CacheKey Key{K, 1};
        std::string Want = "payload-" + std::to_string(K) + "\n";
        CachedResult Got;
        if (Cache.lookup(Key, Got)) {
          if (Got.Out != Want)
            ++BadPayloads;
        } else {
          Cache.insert(Key, result(Want));
        }
        if (R % 17 == 0)
          Cache.invalidateContent(K);
      }
    });
  }
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(BadPayloads, 0u);
  CacheStats S = Cache.stats();
  // Each round is exactly one lookup; misses insert, nothing else does.
  EXPECT_EQ(S.Hits + S.Misses,
            static_cast<uint64_t>(Threads) * Rounds);
  EXPECT_LE(S.Inserts, S.Misses);
}

//===----------------------------------------------------------------------===//
// serve/Pipelines
//===----------------------------------------------------------------------===//

TEST(Pipelines, RunsAreDeterministic) {
  AnalyzeJob Job;
  Job.Name = "t.c";
  Job.Source = "int deref(int *p) { return *p; }";
  Job.Language = "c";
  CachedResult A, B;
  runAnalysis(Job, A);
  runAnalysis(Job, B);
  EXPECT_EQ(A.Out, B.Out);
  EXPECT_EQ(A.Err, B.Err);
  EXPECT_EQ(A.ExitCode, B.ExitCode);
  EXPECT_EQ(A.ExitCode, 0);
  EXPECT_NE(A.Out.find("possible-const"), std::string::npos);
}

TEST(Pipelines, ReportsFrontEndErrorsAsExitOne) {
  AnalyzeJob Job;
  Job.Name = "bad.c";
  Job.Source = "int f( {";
  CachedResult R;
  runAnalysis(Job, R);
  EXPECT_EQ(R.ExitCode, 1);
  EXPECT_NE(R.Err.find("bad.c"), std::string::npos);
}

TEST(Pipelines, LambdaPipelineMatchesLanguage) {
  AnalyzeJob Job;
  Job.Name = "t.q";
  Job.Source = "let x = ref 1 in !x ni";
  Job.Language = "lambda";
  CachedResult R;
  runAnalysis(Job, R);
  EXPECT_EQ(R.ExitCode, 0) << R.Err;
  EXPECT_NE(R.Out.find("qualified type"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// serve/Server end-to-end
//===----------------------------------------------------------------------===//

namespace {

/// Runs one request stream through a fresh server; returns the response
/// bytes (and asserts the exit code).
std::string serveStream(const std::string &Requests, ServerConfig Config = {},
                  int ExpectExit = 0) {
  Server S(Config);
  std::istringstream In(Requests);
  std::ostringstream Out;
  EXPECT_EQ(S.run(In, Out), ExpectExit);
  return Out.str();
}

} // namespace

TEST(Server, WarmResponseIsByteIdenticalToCold) {
  std::string Req = "{\"id\":1,\"method\":\"analyze\",\"params\":"
                    "{\"source\":\"int f(int *p) { return *p; }\","
                    "\"name\":\"t.c\"}}\n";
  ServerConfig Config;
  Server S(Config);
  std::istringstream In1(Req), In2(Req);
  std::ostringstream Out1, Out2;
  EXPECT_EQ(S.run(In1, Out1), 0);
  EXPECT_EQ(S.run(In2, Out2), 0); // Second stream hits the warm cache.
  EXPECT_EQ(Out1.str(), Out2.str());
  EXPECT_EQ(S.cache().stats().Hits, 1u);
  EXPECT_EQ(S.cache().stats().Misses, 1u);
}

TEST(Server, ResponsesStayInRequestOrderAtEveryWorkerCount) {
  // Distinct sources so nothing is answered from cache; the -j4 stream
  // must still equal the -j1 stream byte for byte.
  std::string Req;
  for (int I = 0; I != 24; ++I)
    Req += "{\"id\":" + std::to_string(I) +
           ",\"method\":\"analyze\",\"params\":{\"source\":"
           "\"int v" + std::to_string(I) + ";\",\"name\":\"t.c\"}}\n";
  ServerConfig C1, C4;
  C1.Jobs = 1;
  C4.Jobs = 4;
  std::string R1 = serveStream(Req, C1), R4 = serveStream(Req, C4);
  EXPECT_EQ(R1, R4);
  // Sanity: ids appear in order in the response stream.
  size_t Pos = 0;
  for (int I = 0; I != 24; ++I) {
    size_t At = R1.find("{\"id\":" + std::to_string(I) + ",", Pos);
    ASSERT_NE(At, std::string::npos) << "id " << I;
    Pos = At;
  }
}

TEST(Server, MalformedLinesGetErrorResponsesAndServiceContinues) {
  std::string Out = serveStream("this is not json\n"
                          "{\"id\":2,\"method\":\"nope\"}\n"
                          "\n" // Blank keep-alive line: no response.
                          "{\"id\":3,\"method\":\"stats\"}\n");
  EXPECT_NE(Out.find("{\"id\":null,\"ok\":false"), std::string::npos);
  EXPECT_NE(Out.find("{\"id\":2,\"ok\":false"), std::string::npos);
  EXPECT_NE(Out.find("{\"id\":3,\"ok\":true"), std::string::npos);
  EXPECT_EQ(std::count(Out.begin(), Out.end(), '\n'), 3);
}

TEST(Server, OverLongLineIsConsumedNotFatal) {
  ServerConfig Config;
  Config.ProtoLim.MaxRequestBytes = 128;
  std::string Long(1024, 'x');
  std::string Out = serveStream(Long + "\n{\"id\":2,\"method\":\"stats\"}\n",
                          Config);
  EXPECT_NE(Out.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(Out.find("{\"id\":2,\"ok\":true"), std::string::npos);
}

TEST(Server, RequestByteLimitJudgedAfterCrStripping) {
  // Regression: the limit used to count a trailing '\r' before stripping
  // it, so a CRLF peer's request of exactly MaxRequestBytes was rejected
  // while the identical LF-framed request passed.
  // The probe is `invalidate`: a `stats` reply embeds live latencies and
  // would differ from call to call.
  ServerConfig Config;
  std::string Req = "{\"id\":1,\"method\":\"invalidate\"}";
  Config.ProtoLim.MaxRequestBytes = Req.size(); // Exactly at the limit.
  std::string Lf = serveStream(Req + "\n", Config);
  std::string CrLf = serveStream(Req + "\r\n", Config);
  EXPECT_NE(Lf.find("{\"id\":1,\"ok\":true"), std::string::npos);
  EXPECT_EQ(Lf, CrLf); // limit and limit+'\r' are both within budget...
  Config.ProtoLim.MaxRequestBytes = Req.size() - 1; // ...limit+1 is not,
  std::string Over = serveStream(Req + "\n", Config);
  EXPECT_NE(Over.find("request exceeds byte limit"), std::string::npos);
  EXPECT_EQ(serveStream(Req + "\r\n", Config), Over); // with either framing.
}

TEST(Server, AnalyzeReadsFilesAndReportsMissingOnes) {
  TempDir T;
  std::string Path = (T.Dir / "prog.c").string();
  {
    std::ofstream F(Path, std::ios::binary);
    F << "int g(int *p) { return *p; }\n";
  }
  std::string Out = serveStream(
      "{\"id\":1,\"method\":\"analyze\",\"params\":{\"path\":\"" + Path +
      "\"}}\n"
      "{\"id\":2,\"method\":\"analyze\",\"params\":{\"path\":\"" + Path +
      ".missing\"}}\n");
  EXPECT_NE(Out.find("{\"id\":1,\"ok\":true,\"exit\":0"),
            std::string::npos);
  EXPECT_NE(Out.find("{\"id\":2,\"ok\":false"), std::string::npos);
  EXPECT_NE(Out.find("cannot read"), std::string::npos);
}

TEST(Server, InvalidateByHashDropsAllConfigsOfThatSource) {
  ServerConfig Config;
  Server S(Config);
  // Analyze the same bytes under two configs, then invalidate by the hash
  // the response reported.
  std::string Src = "int h(int *p) { return *p; }";
  char HashHex[32];
  std::snprintf(HashHex, sizeof(HashHex), "%016llx",
                static_cast<unsigned long long>(hashString(Src)));
  std::istringstream In(
      "{\"id\":1,\"method\":\"analyze\",\"params\":{\"source\":\"" + Src +
      "\",\"name\":\"a.c\"}}\n"
      "{\"id\":2,\"method\":\"analyze\",\"params\":{\"source\":\"" + Src +
      "\",\"name\":\"a.c\",\"mono\":true}}\n"
      "{\"id\":3,\"method\":\"invalidate\",\"params\":{\"hash\":\"" +
      std::string(HashHex) + "\"}}\n");
  std::ostringstream Out;
  EXPECT_EQ(S.run(In, Out), 0);
  EXPECT_NE(Out.str().find("\"hash\":\"" + std::string(HashHex) + "\""),
            std::string::npos);
  EXPECT_NE(Out.str().find("{\"id\":3,\"ok\":true,\"dropped\":2}"),
            std::string::npos);
  EXPECT_EQ(S.cache().stats().Entries, 0u);
}

TEST(Server, ShutdownAnswersThenStops) {
  std::string Out = serveStream("{\"id\":1,\"method\":\"shutdown\"}\n"
                          "{\"id\":2,\"method\":\"stats\"}\n");
  EXPECT_EQ(Out, "{\"id\":1,\"ok\":true}\n"); // Nothing after shutdown.
}

TEST(Server, MakeErrorResponseShapes) {
  EXPECT_EQ(makeErrorResponse(true, 5, "boom"),
            "{\"id\":5,\"ok\":false,\"error\":\"boom\"}\n");
  EXPECT_EQ(makeErrorResponse(false, 0, "x\"y"),
            "{\"id\":null,\"ok\":false,\"error\":\"x\\\"y\"}\n");
}

//===----------------------------------------------------------------------===//
// serve/Server telemetry
//===----------------------------------------------------------------------===//

namespace {

std::vector<std::string> splitLines(const std::string &Text) {
  std::vector<std::string> Lines;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t Nl = Text.find('\n', Pos);
    if (Nl == std::string::npos)
      Nl = Text.size();
    Lines.push_back(Text.substr(Pos, Nl - Pos));
    Pos = Nl + 1;
  }
  return Lines;
}

const std::string kAnalyzeT =
    "{\"id\":1,\"method\":\"analyze\",\"params\":"
    "{\"source\":\"int f(int *p) { return *p; }\",\"name\":\"t.c\"}}\n";

} // namespace

TEST(Server, MetricsRequestReturnsLiveHistograms) {
  // Histograms live in the process-global registry; start from zero so the
  // counts below are exact regardless of what ran before in this binary.
  MetricsRegistry::global().resetValues();
  std::string Req = kAnalyzeT;
  Req += "{\"id\":2,\"method\":\"analyze\",\"params\":"
         "{\"source\":\"int f(int *p) { return *p; }\",\"name\":\"t.c\"}}\n";
  Req += "{\"id\":3,\"method\":\"metrics\"}\n";
  std::vector<std::string> Lines = splitLines(serveStream(Req));
  ASSERT_EQ(Lines.size(), 3u);

  JsonValue V = parseOk(Lines[2]);
  ASSERT_EQ(V.kind(), JsonValue::Kind::Object);
  EXPECT_EQ(V.find("id")->asNumber(), 3.0);
  EXPECT_TRUE(V.find("ok")->asBool());
  const JsonValue *Metrics = V.find("metrics");
  ASSERT_NE(Metrics, nullptr);
  const JsonValue *Hists = Metrics->find("histograms");
  ASSERT_NE(Hists, nullptr);

  const JsonValue *Lat = Hists->find("server.latency.analyze");
  ASSERT_NE(Lat, nullptr);
  EXPECT_EQ(Lat->find("count")->asNumber(), 2.0);
  // The non-empty buckets must account for every recorded sample.
  const JsonValue *Buckets = Lat->find("buckets");
  ASSERT_NE(Buckets, nullptr);
  double BucketTotal = 0;
  for (const JsonValue &B : Buckets->elements()) {
    ASSERT_EQ(B.elements().size(), 3u); // [lo, hi, count]
    BucketTotal += B.elements()[2].asNumber();
  }
  EXPECT_EQ(BucketTotal, 2.0);
  // Both analyzes ran inline (-j1): queue_wait recorded as zero wait.
  const JsonValue *Queue = Hists->find("server.queue_wait");
  ASSERT_NE(Queue, nullptr);
  EXPECT_EQ(Queue->find("count")->asNumber(), 2.0);
  EXPECT_EQ(Queue->find("max")->asNumber(), 0.0);
}

TEST(Server, StatsLatencyBlockGatedOnTelemetry) {
  MetricsRegistry::global().resetValues();
  std::string Req = kAnalyzeT + "{\"id\":2,\"method\":\"stats\"}\n";

  // Telemetry is always on: stats carries the latency block.
  JsonValue On = parseOk(splitLines(serveStream(Req)).at(1));
  const JsonValue *Lat = On.find("latency");
  ASSERT_NE(Lat, nullptr);
  const JsonValue *Analyze = Lat->find("analyze");
  ASSERT_NE(Analyze, nullptr);
  EXPECT_EQ(Analyze->find("count")->asNumber(), 1.0);
  ASSERT_NE(Analyze->find("p50_us"), nullptr);
  ASSERT_NE(Analyze->find("p99_us"), nullptr);
  // The stats histogram is recorded *after* its response is built, so the
  // first stats request reports itself as count 0.
  EXPECT_EQ(Lat->find("stats")->find("count")->asNumber(), 0.0);
  EXPECT_NE(On.find("cache"), nullptr);
}

TEST(Server, TelemetryNeverAltersResponseBytes) {
  // The determinism contract: the request log may not change a single
  // response byte. (stats/metrics responses embed
  // live telemetry by design, so the stream here is the pure-function
  // subset: analyze, invalidate, shutdown.)
  std::string Req = kAnalyzeT;
  Req += "{\"id\":2,\"method\":\"analyze\",\"params\":"
         "{\"source\":\"int g(int *p) { *p = 1; return 0; }\","
         "\"name\":\"u.c\"}}\n";
  Req += kAnalyzeT; // Warm repeat: exercises the cache-hit path too.
  Req += "{\"id\":4,\"method\":\"invalidate\"}\n";
  Req += "{\"id\":5,\"method\":\"shutdown\"}\n";

  std::string Baseline = serveStream(Req);

  std::ostringstream Sink;
  ServerConfig Logged;
  Logged.RequestLogStream = &Sink;
  EXPECT_EQ(serveStream(Req, Logged), Baseline);
  EXPECT_EQ(splitLines(Sink.str()).size(), 5u);
}

TEST(Server, RequestLogEmitsOneEventPerRequestInOrder) {
  std::ostringstream Sink;
  ServerConfig Config;
  Config.RequestLogStream = &Sink;

  std::string Req = kAnalyzeT; // Cold: cache miss, phase breakdown.
  Req += kAnalyzeT;            // Warm: cache hit, no phases.
  Req += "this is not json\n";
  Req += "{\"id\":3,\"method\":\"invalidate\"}\n";
  Req += "{\"id\":4,\"method\":\"stats\"}\n";
  Req += "{\"id\":5,\"method\":\"shutdown\"}\n";
  serveStream(Req, Config);

  std::vector<std::string> Lines = splitLines(Sink.str());
  ASSERT_EQ(Lines.size(), 6u);
  const char *Methods[] = {"analyze",    "analyze", "invalid",
                           "invalidate", "stats",   "shutdown"};
  for (size_t I = 0; I != Lines.size(); ++I) {
    JsonValue Ev = parseOk(Lines[I]);
    ASSERT_EQ(Ev.kind(), JsonValue::Kind::Object) << Lines[I];
    // Inline serving completes in arrival order, so seq is 1..N here.
    EXPECT_EQ(Ev.find("seq")->asNumber(), static_cast<double>(I + 1));
    EXPECT_EQ(Ev.find("method")->asString(), Methods[I]);
    EXPECT_EQ(Ev.find("ok")->asBool(), I != 2);
    ASSERT_NE(Ev.find("bytes_in"), nullptr);
    ASSERT_NE(Ev.find("bytes_out"), nullptr);
    ASSERT_NE(Ev.find("service_us"), nullptr);
    EXPECT_GT(Ev.find("bytes_out")->asNumber(), 0.0);
  }

  JsonValue Miss = parseOk(Lines[0]);
  EXPECT_EQ(Miss.find("cache")->asString(), "miss");
  EXPECT_EQ(Miss.find("exit")->asNumber(), 0.0);
  EXPECT_EQ(Miss.find("hash")->asString().size(), 8u);
  const JsonValue *Phases = Miss.find("phases");
  ASSERT_NE(Phases, nullptr);
  EXPECT_NE(Phases->find("solve"), nullptr);

  JsonValue Hit = parseOk(Lines[1]);
  EXPECT_EQ(Hit.find("cache")->asString(), "hit");
  EXPECT_EQ(Hit.find("hash")->asString(), Miss.find("hash")->asString());
  EXPECT_EQ(Hit.find("phases"), nullptr); // Replays skip the pipeline.

  JsonValue Invalid = parseOk(Lines[2]);
  EXPECT_TRUE(Invalid.find("id")->isNull());
}

TEST(Server, RequestLogRenderHasFixedKeyOrder) {
  RequestLogEvent Ev;
  Ev.Seq = 3;
  Ev.HasId = true;
  Ev.Id = 7;
  Ev.Method = "analyze-delta";
  Ev.Ok = true;
  Ev.HasExit = true;
  Ev.Exit = 1;
  Ev.HashPrefix = "deadbeef";
  Ev.Cache = "miss";
  Ev.BytesIn = 120;
  Ev.BytesOut = 64;
  Ev.QueueUs = 5;
  Ev.ServiceUs = 240;
  Ev.PhasesUs = {{"parse", 57}, {"solve", 3}};
  EXPECT_EQ(RequestLog::render(Ev),
            "{\"seq\":3,\"id\":7,\"method\":\"analyze-delta\",\"ok\":true,"
            "\"exit\":1,\"hash\":\"deadbeef\",\"cache\":\"miss\","
            "\"bytes_in\":120,\"bytes_out\":64,\"queue_us\":5,"
            "\"service_us\":240,"
            "\"phases\":{\"parse\":57,\"solve\":3}}");

  RequestLogEvent Min;
  Min.Seq = 1;
  Min.Method = "invalid";
  EXPECT_EQ(RequestLog::render(Min),
            "{\"seq\":1,\"id\":null,\"method\":\"invalid\",\"ok\":false,"
            "\"bytes_in\":0,\"bytes_out\":0,\"queue_us\":0,\"service_us\":0}");
}

//===----------------------------------------------------------------------===//
// analyze-delta: served like analyze, byte for byte
//===----------------------------------------------------------------------===//

namespace {

/// One step of an editor session on one buffer: a method plus the buffer's
/// full source (empty for `invalidate`).
struct DeltaStep {
  const char *Method;
  std::string Source;
};

/// One row of the edit table: a language and the session's steps.
struct DeltaRow {
  const char *Name;
  const char *Language;
  std::vector<DeltaStep> Steps;
  int LastExit; ///< Expected exit code of the last step.
};

std::string deltaRequest(size_t Id, const DeltaRow &Row,
                         const DeltaStep &Step) {
  std::string R = "{\"id\":" + std::to_string(Id) + ",\"method\":\"" +
                  Step.Method + "\"";
  if (Step.Source.empty())
    return R + "}\n";
  R += ",\"params\":{\"name\":\"edit\",\"language\":\"";
  R += Row.Language;
  R += "\",\"protos\":true,\"source\":";
  appendJsonString(R, Step.Source);
  return R + "}}\n";
}

const char *kBase = "int f(int *p) { return *p; }\n"
                    "int g(int *q) { return f(q); }\n"
                    "int h(int *r) { return *r; }\n";
const char *kBodyEdit = "int f(int *p) { return *p; }\n"
                        "int g(int *q) { return f(q); }\n"
                        "int h(int *r) { *r = 1; return *r; }\n";

const std::vector<DeltaRow> &deltaRows() {
  static const std::vector<DeltaRow> Rows = {
      {"body edit", "c",
       {{"analyze", kBase}, {"analyze-delta", kBodyEdit}}, 0},
      {"caller edit", "c",
       {{"analyze", kBase},
        {"analyze-delta", "int f(int *p) { return *p; }\n"
                          "int g(int *q) { *q = 1; return f(q); }\n"
                          "int h(int *r) { return *r; }\n"}},
       0},
      {"formatting-only edit", "c",
       {{"analyze", kBase},
        {"analyze-delta", "int f(int *p){return *p;}\n"
                          "int g(int *q){return f(q);}\n"
                          "int h(int *r){return *r;}\n"}},
       0},
      {"cycle edit", "c",
       {{"analyze", "int f(int *p);\n"
                    "int g(int *q) { return f(q); }\n"
                    "int f(int *p) { return g(p); }\n"
                    "int lone(int *r) { return *r; }\n"},
        {"analyze-delta", "int f(int *p);\n"
                          "int g(int *q) { *q = 1; return f(q); }\n"
                          "int f(int *p) { return g(p); }\n"
                          "int lone(int *r) { return *r; }\n"}},
       0},
      {"shared-global edit", "c",
       {{"analyze", "int cell;\n"
                    "int *w(void) { cell = 1; return &cell; }\n"
                    "int r(void) { return cell; }\n"
                    "int lone(int *p) { return *p; }\n"},
        {"analyze-delta", "int cell;\n"
                          "int *w(void) { cell = 2; return &cell; }\n"
                          "int r(void) { return cell; }\n"
                          "int lone(int *p) { return *p; }\n"}},
       0},
      {"structural edits", "c",
       {{"analyze", "int f(int *p) { return *p; }\n"},
        {"analyze-delta", "int f(int *p) { return *p; }\n"
                          "int g(int *q) { return *q; }\n"},
        {"analyze-delta", "int f(int *p) { return *p; }\n"
                          "int g(int *q) { return f(q); }\n"},
        {"analyze-delta", "int cell;\n"
                          "int f(int *p) { cell = *p; return *p; }\n"
                          "int g(int *q) { return f(q); }\n"}},
       0},
      {"new callee declaration", "c",
       {{"analyze", "int f(int *p) { return *p; }\n"},
        {"analyze-delta", "int ext(int *);\n"
                          "int f(int *p) { return ext(p); }\n"}},
       0},
      {"const-violation edit", "c",
       {{"analyze", "int f(const int *p) { return *p; }\n"
                    "int g(int *q) { return f(q); }\n"},
        {"analyze-delta", "int f(const int *p) { *p = 1; return *p; }\n"
                          "int g(int *q) { return f(q); }\n"}},
       2},
      {"syntax-error edit", "c",
       {{"analyze", "int f(int *p) { return *p; }\n"},
        {"analyze-delta", "int f(int *p) { return *p;\n"}},
       1},
      {"lambda language", "lambda",
       {{"analyze", "let id = fn x. x in id 1 ni"},
        {"analyze-delta", "let id = fn x. x in id (ref 2) ni"}},
       0},
      {"chained edits", "c",
       {{"analyze", kBase},
        {"analyze-delta", kBodyEdit},
        {"analyze-delta", "int f(int *p) { *p = 9; return *p; }\n"
                          "int g(int *q) { return f(q); }\n"
                          "int h(int *r) { *r = 1; return *r; }\n"}},
       0},
      {"invalidate between edits", "c",
       {{"analyze", kBase},
        {"invalidate", ""},
        {"analyze-delta", kBodyEdit},
        {"invalidate", ""},
        {"analyze-delta", kBase}},
       0},
      {"edit loop", "c",
       {{"analyze", kBase},
        {"analyze-delta", kBodyEdit},
        {"analyze-delta", kBase},
        {"analyze-delta", kBodyEdit}},
       0},
      {"never-seen content", "c",
       {{"analyze-delta", kBase}, {"analyze-delta", kBodyEdit}},
       0},
      {"cache hit", "c",
       {{"analyze", kBase}, {"analyze-delta", kBase}},
       0},
  };
  return Rows;
}

const DeltaRow &deltaRow(const std::string &Name) {
  for (const DeltaRow &Row : deltaRows())
    if (Name == Row.Name)
      return Row;
  ADD_FAILURE() << "no delta row named " << Name;
  return deltaRows().front();
}

/// The response line a fresh server gives a cold `analyze` of \p Step's
/// source under request id \p Id.
std::string coldAnalyzeLine(size_t Id, const DeltaRow &Row,
                            const DeltaStep &Step) {
  std::string Out = serveStream(deltaRequest(Id, Row, {"analyze", Step.Source}) +
                                "{\"id\":0,\"method\":\"shutdown\"}\n");
  return Out.substr(0, Out.find('\n'));
}

/// Runs the session of the row named \p Name at Jobs=1 and Jobs=4 (other
/// settings from \p Base) and checks every analyze-delta line against a
/// fresh server's cold analyze of the same source, the last step's exit
/// code and the stats delta count. Returns the stats lines, Jobs=1 first.
std::vector<std::string> expectDeltaLinesMatchCold(const std::string &Name,
                                                   ServerConfig Base = {}) {
  const DeltaRow &Row = deltaRow(Name);
  std::vector<std::string> Stats;
  for (unsigned Jobs : {1u, 4u}) {
    SCOPED_TRACE(Name + ", Jobs=" + std::to_string(Jobs));
    std::string Requests;
    size_t Deltas = 0;
    for (size_t I = 0; I != Row.Steps.size(); ++I) {
      Requests += deltaRequest(I + 1, Row, Row.Steps[I]);
      Deltas += Row.Steps[I].Method == std::string("analyze-delta");
    }
    size_t StatsId = Row.Steps.size() + 1;
    Requests +=
        "{\"id\":" + std::to_string(StatsId) + ",\"method\":\"stats\"}\n";
    ServerConfig Config = Base;
    Config.Jobs = Jobs;
    std::vector<std::string> Lines = splitLines(serveStream(Requests, Config));
    if (Lines.size() != StatsId) {
      ADD_FAILURE() << "expected " << StatsId << " lines, got "
                    << Lines.size();
      return Stats;
    }

    for (size_t I = 0; I != Row.Steps.size(); ++I) {
      if (Row.Steps[I].Method != std::string("analyze-delta"))
        continue;
      EXPECT_EQ(Lines[I], coldAnalyzeLine(I + 1, Row, Row.Steps[I]))
          << "step " << I + 1;
    }
    EXPECT_NE(Lines[Row.Steps.size() - 1].find(
                  "\"exit\":" + std::to_string(Row.LastExit) + ","),
              std::string::npos);
    EXPECT_NE(Lines.back().find("\"delta\":{\"requests\":" +
                                std::to_string(Deltas) + "}"),
              std::string::npos)
        << Lines.back();
    Stats.push_back(Lines.back());
  }
  return Stats;
}

} // namespace

// The DeltaPipeline and ServerDelta names date from an incremental
// analyze-delta; each test now checks that its edit session is answered
// exactly like cold analyzes.

TEST(DeltaPipeline, SingleFunctionEditIsIncrementalAndIdentical) {
  expectDeltaLinesMatchCold("body edit");
}

TEST(DeltaPipeline, FormattingOnlyEditReusesEverything) {
  expectDeltaLinesMatchCold("formatting-only edit");
}

TEST(DeltaPipeline, CallerEditStaysIdenticalUnrelatedSccReplays) {
  expectDeltaLinesMatchCold("caller edit");
}

TEST(DeltaPipeline, CycleEditIsIncrementalAndIdentical) {
  expectDeltaLinesMatchCold("cycle edit");
}

TEST(DeltaPipeline, SharedGlobalEditIsIdentical) {
  expectDeltaLinesMatchCold("shared-global edit");
}

TEST(DeltaPipeline, StructuralFallbacksStayIdentical) {
  expectDeltaLinesMatchCold("structural edits");
}

TEST(DeltaPipeline, NewCalleeDeclarationFallsBackAndStaysIdentical) {
  expectDeltaLinesMatchCold("new callee declaration");
}

TEST(DeltaPipeline, ConstViolationEditMatchesColdDiagnostics) {
  expectDeltaLinesMatchCold("const-violation edit");
}

TEST(DeltaPipeline, SyntaxErrorEditMatchesColdDiagnostics) {
  expectDeltaLinesMatchCold("syntax-error edit");
}

TEST(DeltaPipeline, LambdaLanguageFallsBack) {
  expectDeltaLinesMatchCold("lambda language");
}

TEST(DeltaPipeline, ChainedEditsKeepSnapshotsUsable) {
  expectDeltaLinesMatchCold("chained edits");
}

TEST(ServerDelta, EditLoopIsIncrementalAndByteIdentical) {
  expectDeltaLinesMatchCold("edit loop");
}

// Cache counts are checked on the Jobs=1 run, where requests are served
// one after another on the reader thread.

TEST(ServerDelta, NeverSeenContentFallsBackToFullThenChains) {
  std::vector<std::string> Stats =
      expectDeltaLinesMatchCold("never-seen content");
  ASSERT_EQ(Stats.size(), 2u);
  EXPECT_NE(Stats[0].find("\"hits\":0,\"misses\":2,"), std::string::npos)
      << Stats[0];
}

TEST(ServerDelta, SnapshotsDisabledStillAnswersIdentically) {
  // With the result cache off every delta line comes from a fresh run.
  ServerConfig NoCache;
  NoCache.CacheMaxBytes = 0;
  std::vector<std::string> Stats =
      expectDeltaLinesMatchCold("edit loop", NoCache);
  ASSERT_EQ(Stats.size(), 2u);
  for (const std::string &Line : Stats)
    EXPECT_NE(Line.find("\"entries\":0,"), std::string::npos) << Line;
}

TEST(ServerDelta, InvalidateClearsSnapshots) {
  std::vector<std::string> Stats =
      expectDeltaLinesMatchCold("invalidate between edits");
  ASSERT_EQ(Stats.size(), 2u);
  EXPECT_NE(Stats[0].find("\"hits\":0,\"misses\":3,"), std::string::npos)
      << Stats[0];
}

TEST(ServerDelta, CacheHitShortCircuitsDelta) {
  // Re-sending analyzed content as analyze-delta answers from the cache.
  std::vector<std::string> Stats = expectDeltaLinesMatchCold("cache hit");
  ASSERT_EQ(Stats.size(), 2u);
  EXPECT_NE(Stats[0].find("\"hits\":1,\"misses\":1,"), std::string::npos)
      << Stats[0];
}

TEST(ServerDelta, ParallelStreamMatchesSerial) {
  // The same mixed analyze / analyze-delta stream answers byte-identically
  // at -j1 and -j4 (the ordered-slot discipline covers analyze-delta).
  const DeltaRow &Row = deltaRow("edit loop");
  std::string Requests;
  for (size_t I = 0; I != Row.Steps.size(); ++I)
    Requests += deltaRequest(I + 1, Row, Row.Steps[I]);
  Requests += deltaRequest(Row.Steps.size() + 1, Row, {"analyze", kBodyEdit});
  Requests += "{\"id\":0,\"method\":\"shutdown\"}\n";

  ServerConfig Serial;
  Serial.Jobs = 1;
  ServerConfig Parallel;
  Parallel.Jobs = 4;
  EXPECT_EQ(serveStream(Requests, Serial), serveStream(Requests, Parallel));
}
