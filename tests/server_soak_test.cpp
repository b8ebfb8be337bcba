//===- tests/server_soak_test.cpp - Server memory-stability soak ----------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
//
// The long-running-daemon property the batch tools never had to hold:
// per-request state (SourceManager, StringInterner, AST arenas, constraint
// systems) must be fully torn down after every request, so a thousand
// requests cost the same residency as ten. Two angles:
//
//   \li The warm path: after the first request fills the cache, repeats
//       are answered without building any analysis context at all --
//       process-wide arena allocation must stay flat.
//   \li The cold path: with caching disabled every request rebuilds the
//       full context; arena allocation grows linearly (each run allocates)
//       but resident memory must not, because every context is freed.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"
#include "support/Allocator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <unistd.h>

using namespace quals;
using namespace quals::serve;

namespace {

/// A thousand analyze requests over the same source (id varies; the cache
/// key does not), ending in a stats request.
std::string makeSoakStream(unsigned Requests) {
  std::string In;
  In.reserve(Requests * 128);
  for (unsigned I = 0; I != Requests; ++I)
    In += "{\"id\":" + std::to_string(I) +
          ",\"method\":\"analyze\",\"params\":{\"source\":"
          "\"int soak(int *p, char *q) { *q = 'x'; return *p; }\","
          "\"name\":\"soak.c\"}}\n";
  return In;
}

/// Current resident set in bytes via /proc/self/statm; 0 when unavailable
/// (non-Linux), letting callers skip the assertion.
size_t residentBytes() {
  std::FILE *F = std::fopen("/proc/self/statm", "r");
  if (!F)
    return 0;
  unsigned long Size = 0, Resident = 0;
  int Got = std::fscanf(F, "%lu %lu", &Size, &Resident);
  std::fclose(F);
  if (Got != 2)
    return 0;
  return static_cast<size_t>(Resident) * static_cast<size_t>(getpagesize());
}

/// True in AddressSanitizer builds, whose quarantine keeps freed blocks
/// resident on purpose, so residency says nothing about leaks there (ASan's
/// own leak checker covers that build instead).
#if defined(__SANITIZE_ADDRESS__)
constexpr bool UnderAsan = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr bool UnderAsan = true;
#else
constexpr bool UnderAsan = false;
#endif
#else
constexpr bool UnderAsan = false;
#endif

} // namespace

TEST(ServerSoak, WarmPathAllocatesNothingPerRequest) {
  ServerConfig Config;
  Server S(Config);
  // Prime the cache with one cold request.
  {
    std::istringstream In(makeSoakStream(1));
    std::ostringstream Out;
    ASSERT_EQ(S.run(In, Out), 0);
  }
  ASSERT_EQ(S.cache().stats().Misses, 1u);

  uint64_t ArenaBefore = BumpPtrAllocator::totalBytesAllocated();
  std::istringstream In(makeSoakStream(1000));
  std::ostringstream Out;
  ASSERT_EQ(S.run(In, Out), 0);
  uint64_t ArenaAfter = BumpPtrAllocator::totalBytesAllocated();

  EXPECT_EQ(S.cache().stats().Hits, 1000u);
  // Cache hits never build an analysis context, so process-wide arena
  // allocation is flat across a thousand requests.
  EXPECT_EQ(ArenaAfter, ArenaBefore);
  // One response line per request, all identical to each other modulo id.
  std::string Responses = Out.str();
  EXPECT_EQ(std::count(Responses.begin(), Responses.end(), '\n'), 1000);
}

TEST(ServerSoak, ColdPathFreesEveryRequestContext) {
  if (UnderAsan)
    GTEST_SKIP() << "RSS bound is meaningless under ASan's quarantine";
  ServerConfig Config;
  Config.CacheMaxBytes = 0; // Force the full pipeline on every request.
  Server S(Config);

  // Warm up allocator slabs, interner tables, stdio buffers.
  {
    std::istringstream In(makeSoakStream(50));
    std::ostringstream Out;
    ASSERT_EQ(S.run(In, Out), 0);
  }
  size_t RssBefore = residentBytes();
  if (RssBefore == 0)
    GTEST_SKIP() << "/proc/self/statm unavailable";

  uint64_t ArenaBefore = BumpPtrAllocator::totalBytesAllocated();
  std::istringstream In(makeSoakStream(1000));
  std::ostringstream Out;
  ASSERT_EQ(S.run(In, Out), 0);
  uint64_t ArenaTurned = BumpPtrAllocator::totalBytesAllocated() -
                         ArenaBefore;
  size_t RssAfter = residentBytes();

  EXPECT_EQ(S.cache().stats().Hits, 0u);
  // The pipeline genuinely ran 1000 times (each run allocates arenas)...
  EXPECT_GT(ArenaTurned, 1000u * 1024u);
  // ...but every context was freed: residency grew by at most a small
  // constant (malloc pooling jitter), not by 1000 contexts. One context
  // costs ~100 KiB of arena, so leaking them all would add ~100 MiB.
  EXPECT_LT(RssAfter, RssBefore + (16u << 20))
      << "RSS grew " << (RssAfter - RssBefore) / 1024 << " KiB over 1000 "
      << "uncached requests -- per-request state is being retained";
}
