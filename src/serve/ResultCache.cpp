//===- serve/ResultCache.cpp - Content-addressed result cache --------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//

#include "serve/ResultCache.h"

#include "support/Metrics.h"

using namespace quals;
using namespace quals::serve;

void ResultCache::bumpCacheCounter(const char *Name) {
  if (MetricsRegistry::collecting())
    MetricsRegistry::global().counter(Name).add();
}

bool ResultCache::lookup(const CacheKey &Key, CachedResult &Out) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Map.find(Key);
  if (It == Map.end()) {
    ++Counts.Misses;
    bumpCacheCounter("cache.misses");
    return false;
  }
  Lru.splice(Lru.begin(), Lru, It->second); // Refresh to recent.
  Out = It->second->second;
  ++Counts.Hits;
  bumpCacheCounter("cache.hits");
  return true;
}

void ResultCache::insert(const CacheKey &Key, CachedResult Value) {
  if (entryBytes(Value) > MaxBytes)
    return; // Larger than the whole budget (or caching off): serve only.
  std::lock_guard<std::mutex> Lock(Mutex);
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
  ++Counts.Inserts;
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
  std::lock_guard<std::mutex> Lock(Mutex);
  uint64_t Dropped = Map.size();
  Map.clear();
  Lru.clear();
  CurBytes = 0;
  return Dropped;
}

uint64_t ResultCache::invalidateContent(uint64_t ContentHash) {
  std::lock_guard<std::mutex> Lock(Mutex);
  uint64_t Dropped = 0;
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
  return Dropped;
}

CacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  CacheStats S = Counts;
  S.Entries = Map.size();
  S.Bytes = CurBytes;
  return S;
}
