//===- serve/ResultCache.cpp - Content-addressed result cache --------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//

#include "serve/ResultCache.h"

#include "support/Metrics.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

using namespace quals;
using namespace quals::serve;

namespace {

/// Spill file layout (fixed-width little-endian-as-memcpy'd header, then
/// the two payloads back to back). Same-machine persistence only, so host
/// byte order is fine; the magic+version check rejects everything else.
struct SpillHeader {
  char Magic[4];        // "QSDC"
  uint32_t Version;     // ResultCache::FormatVersion
  uint64_t ContentHash;
  uint64_t ConfigHash;
  int32_t ExitCode;
  uint32_t Reserved;    // alignment/extension; always 0
  uint64_t OutLen;
  uint64_t ErrLen;
};

constexpr char SpillMagic[4] = {'Q', 'S', 'D', 'C'};

/// Largest spill file the loader will even consider; a corrupt length
/// field must not turn into a giant allocation.
constexpr uint64_t MaxSpillPayload = 1u << 30; // 1 GiB

} // namespace

ResultCache::ResultCache(uint64_t MaxBytes, std::string SpillDir)
    : MaxBytes(MaxBytes), SpillDir(std::move(SpillDir)) {}

void ResultCache::bumpCacheCounter(const char *Name, uint64_t Delta) {
  if (MetricsRegistry::collecting())
    MetricsRegistry::global().counter(Name).add(Delta);
}

bool ResultCache::lookup(const CacheKey &Key, CachedResult &Out) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Map.find(Key);
    if (It != Map.end()) {
      Lru.splice(Lru.begin(), Lru, It->second); // Refresh to recent.
      Out = It->second->second;
      ++Counts.Hits;
      bumpCacheCounter("cache.hits");
      return true;
    }
  }
  // Memory miss: consult the spill layer with no lock held -- disk reads
  // must stall only this request, never the cache's other traffic.
  if (!SpillDir.empty() && spillLoad(Key, Out)) {
    std::lock_guard<std::mutex> Lock(Mutex);
    // Promote the spilled entry back into memory (no re-spill: the file is
    // already on disk; and not an insert: nothing new was computed). A
    // racing lookup may have promoted it already -- insertLocked refreshes
    // in place, and the payload is identical by keying.
    insertLocked(Key, Out, /*CountInsert=*/false);
    ++Counts.Hits;
    ++Counts.SpillLoads;
    bumpCacheCounter("cache.hits");
    bumpCacheCounter("cache.spill_loads");
    return true;
  }
  std::lock_guard<std::mutex> Lock(Mutex);
  ++Counts.Misses;
  bumpCacheCounter("cache.misses");
  return false;
}

void ResultCache::insert(const CacheKey &Key, CachedResult Value) {
  if (MaxBytes == 0)
    return; // Caching disabled.
  // Write-through spill first, outside any lock: create_directories plus a
  // payload write and rename are the slowest thing the cache ever does,
  // and holding the mutex across them would serialize every concurrent
  // cache operation behind this request's disk.
  bool Spilled = false;
  if (!SpillDir.empty())
    Spilled = spillWrite(Key, Value);
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Spilled) {
    ++Counts.SpillWrites;
    bumpCacheCounter("cache.spill_writes");
  }
  insertLocked(Key, std::move(Value), /*CountInsert=*/true);
}

void ResultCache::insertLocked(const CacheKey &Key, CachedResult Value,
                               bool CountInsert) {
  if (entryBytes(Value) > MaxBytes)
    return; // Larger than the whole budget (or caching off): serve only.
  auto It = Map.find(Key);
  if (It != Map.end()) {
    // Refresh: replace payload in place and move to most recent.
    CurBytes -= entryBytes(It->second->second);
    CurBytes += entryBytes(Value);
    It->second->second = std::move(Value);
    Lru.splice(Lru.begin(), Lru, It->second);
  } else {
    CurBytes += entryBytes(Value);
    Lru.emplace_front(Key, std::move(Value));
    Map[Key] = Lru.begin();
  }
  if (CountInsert) {
    ++Counts.Inserts;
  } else {
    ++Counts.Promotions;
    bumpCacheCounter("cache.promotions");
  }
  evictOverBudgetLocked();
}

void ResultCache::evictOverBudgetLocked() {
  while (CurBytes > MaxBytes && !Lru.empty()) {
    auto &Victim = Lru.back();
    CurBytes -= entryBytes(Victim.second);
    Map.erase(Victim.first);
    Lru.pop_back();
    ++Counts.Evictions;
    bumpCacheCounter("cache.evictions");
  }
}

uint64_t ResultCache::invalidateAll() {
  uint64_t Dropped;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Dropped = Map.size();
    Map.clear();
    Lru.clear();
    CurBytes = 0;
  }
  if (!SpillDir.empty())
    spillRemoveAll(0, /*MatchContent=*/false);
  return Dropped;
}

uint64_t ResultCache::invalidateContent(uint64_t ContentHash) {
  uint64_t Dropped = 0;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    for (auto It = Lru.begin(); It != Lru.end();) {
      if (It->first.ContentHash == ContentHash) {
        CurBytes -= entryBytes(It->second);
        Map.erase(It->first);
        It = Lru.erase(It);
        ++Dropped;
      } else {
        ++It;
      }
    }
  }
  if (!SpillDir.empty())
    spillRemoveAll(ContentHash, /*MatchContent=*/true);
  return Dropped;
}

CacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  CacheStats S = Counts;
  S.Entries = Map.size();
  S.Bytes = CurBytes;
  return S;
}

std::string ResultCache::spillPath(const CacheKey &Key) const {
  char Name[64];
  std::snprintf(Name, sizeof(Name), "%016llx-%016llx.qres",
                static_cast<unsigned long long>(Key.ContentHash),
                static_cast<unsigned long long>(Key.ConfigHash));
  return (std::filesystem::path(SpillDir) / Name).string();
}

bool ResultCache::spillWrite(const CacheKey &Key, const CachedResult &Value) {
  std::error_code Ec;
  std::filesystem::create_directories(SpillDir, Ec);
  if (Ec)
    return false; // Spill is best-effort; memory caching still works.
  SpillHeader H;
  std::memcpy(H.Magic, SpillMagic, 4);
  H.Version = FormatVersion;
  H.ContentHash = Key.ContentHash;
  H.ConfigHash = Key.ConfigHash;
  H.ExitCode = Value.ExitCode;
  H.Reserved = 0;
  H.OutLen = Value.Out.size();
  H.ErrLen = Value.Err.size();
  // Write to a temp name then rename, so a crashed/killed server never
  // leaves a half-written entry a future process would have to distrust.
  // Concurrent writers of the same key use distinct temp names; whichever
  // rename lands last wins with an identical payload (keying guarantees
  // it), so the race is benign.
  std::string Final = spillPath(Key);
  std::string Tmp = Final + ".tmp" +
                    std::to_string(reinterpret_cast<uintptr_t>(&Tmp) >> 4);
  {
    std::ofstream OutF(Tmp, std::ios::binary | std::ios::trunc);
    if (!OutF)
      return false;
    OutF.write(reinterpret_cast<const char *>(&H), sizeof(H));
    OutF.write(Value.Out.data(), Value.Out.size());
    OutF.write(Value.Err.data(), Value.Err.size());
    if (!OutF) {
      OutF.close();
      std::filesystem::remove(Tmp, Ec);
      return false;
    }
  }
  std::filesystem::rename(Tmp, Final, Ec);
  if (Ec) {
    std::filesystem::remove(Tmp, Ec);
    return false;
  }
  return true;
}

bool ResultCache::spillLoad(const CacheKey &Key, CachedResult &Out) {
  std::string Path = spillPath(Key);
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  auto Reject = [&] {
    In.close();
    std::error_code Ec;
    std::filesystem::remove(Path, Ec); // Corrupt/stale: never retry it.
    return false;
  };
  SpillHeader H;
  if (!In.read(reinterpret_cast<char *>(&H), sizeof(H)))
    return Reject();
  if (std::memcmp(H.Magic, SpillMagic, 4) || H.Version != FormatVersion ||
      H.ContentHash != Key.ContentHash || H.ConfigHash != Key.ConfigHash ||
      H.Reserved != 0 || H.OutLen > MaxSpillPayload ||
      H.ErrLen > MaxSpillPayload)
    return Reject();
  CachedResult R;
  R.ExitCode = H.ExitCode;
  R.Out.resize(H.OutLen);
  R.Err.resize(H.ErrLen);
  if (H.OutLen && !In.read(R.Out.data(), H.OutLen))
    return Reject();
  if (H.ErrLen && !In.read(R.Err.data(), H.ErrLen))
    return Reject();
  // Exactly at end-of-payload: a longer file is corruption too.
  In.peek();
  if (!In.eof())
    return Reject();
  Out = std::move(R);
  return true;
}

void ResultCache::spillRemoveAll(uint64_t ContentHash, bool MatchContent) {
  std::error_code Ec;
  std::filesystem::directory_iterator It(SpillDir, Ec), End;
  if (Ec)
    return;
  char Prefix[32];
  std::snprintf(Prefix, sizeof(Prefix), "%016llx-",
                static_cast<unsigned long long>(ContentHash));
  for (; It != End; It.increment(Ec)) {
    if (Ec)
      return;
    const std::filesystem::path &P = It->path();
    if (P.extension() != ".qres")
      continue;
    if (MatchContent && P.filename().string().rfind(Prefix, 0) != 0)
      continue;
    std::filesystem::remove(P, Ec);
  }
}
