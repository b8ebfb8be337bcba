//===- serve/ResultCache.h - Content-addressed result cache -----*- C++ -*-===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analysis server's result cache: a byte-budgeted in-memory LRU of
/// serialized analysis outcomes, keyed by content address.
///
/// **Keying.** A CacheKey is (ContentHash, ConfigHash): the 64-bit hash of
/// the exact source bytes (support/Hash.h) and the hash of everything else
/// that can change the output -- language, inference mode, print flags,
/// and every resource limit. Identical source under different configs
/// never collides; a config change (including a --limit-* change, which
/// can alter diagnostics) naturally cold-starts.
///
/// **Values.** The buffered stdout/stderr byte streams plus the exit code
/// of one isolated analysis -- exactly what the per-request context
/// produced, so a cached reply is byte-identical to the fresh run that
/// filled it (tools/smoke_server.sh asserts this end to end).
///
/// **Eviction.** One mutex guards one LRU list and one byte budget.
/// Least-recently-used entries go first, triggered by the byte budget
/// rather than an entry count: corpus files vary by 1000x in output size,
/// so counting entries would make worst-case memory unbounded. An entry
/// larger than the whole budget is served but never cached. See
/// docs/SERVER.md.
///
/// All operations are thread-safe. Hit/miss/eviction counts publish to the
/// metrics registry as cache.* when collection is on, and are always
/// available via stats() for the server's `stats` method.
///
//===----------------------------------------------------------------------===//

#ifndef QUALS_SERVE_RESULTCACHE_H
#define QUALS_SERVE_RESULTCACHE_H

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

namespace quals {
namespace serve {

/// The content address of one analysis result; see the file comment.
struct CacheKey {
  uint64_t ContentHash = 0; ///< Hash of the exact source bytes.
  uint64_t ConfigHash = 0;  ///< Hash of config + limits.

  bool operator==(const CacheKey &O) const {
    return ContentHash == O.ContentHash && ConfigHash == O.ConfigHash;
  }
};

/// One cached analysis outcome: the buffered streams and exit code of a
/// fully isolated run.
struct CachedResult {
  std::string Out;  ///< Buffered stdout bytes.
  std::string Err;  ///< Buffered stderr bytes.
  int ExitCode = 0;
};

/// Point-in-time cache observability, served by qualsd's `stats` method.
struct CacheStats {
  uint64_t Hits = 0;      ///< Lookups answered from memory.
  uint64_t Misses = 0;    ///< Lookups that had to run the pipeline.
  uint64_t Evictions = 0; ///< Entries dropped by the byte budget.
  uint64_t Inserts = 0;   ///< Successful insert() calls.
  uint64_t Entries = 0;   ///< Current entry count.
  uint64_t Bytes = 0;     ///< Current payload bytes.
};

/// A byte-budgeted LRU over CachedResults; see the file comment.
class ResultCache {
public:
  /// \p MaxBytes is the payload budget; 0 disables caching entirely (every
  /// lookup misses, inserts are dropped) -- the knob the soak tests use to
  /// force the cold path.
  explicit ResultCache(uint64_t MaxBytes = 64u << 20) : MaxBytes(MaxBytes) {}

  /// On a hit, fills \p Out, refreshes LRU position, and returns true.
  bool lookup(const CacheKey &Key, CachedResult &Out);

  /// Inserts (or refreshes) \p Key -> \p Value, evicting LRU entries until
  /// the payload budget holds.
  void insert(const CacheKey &Key, CachedResult Value);

  /// Drops every entry. Returns the number of entries dropped.
  uint64_t invalidateAll();

  /// Drops every entry whose ContentHash is \p ContentHash, whatever its
  /// config. Returns the drop count.
  uint64_t invalidateContent(uint64_t ContentHash);

  CacheStats stats() const;

private:
  struct KeyHash {
    size_t operator()(const CacheKey &K) const {
      // Both halves are already avalanched 64-bit digests; XOR-fold keeps
      // the table hash cheap without correlating buckets.
      return static_cast<size_t>(K.ContentHash ^ (K.ConfigHash * 0x9e3779b9));
    }
  };

  using LruList = std::list<std::pair<CacheKey, CachedResult>>;

  uint64_t MaxBytes;
  mutable std::mutex Mutex; ///< Guards everything below.
  LruList Lru;              ///< Front = most recently used.
  std::unordered_map<CacheKey, LruList::iterator, KeyHash> Map;
  uint64_t CurBytes = 0;
  CacheStats Counts; ///< Entries/Bytes are filled in by stats().

  static uint64_t entryBytes(const CachedResult &R) {
    return R.Out.size() + R.Err.size() + 64; // 64 ~= bookkeeping overhead
  }

  void bumpCacheCounter(const char *Name);
};

} // namespace serve
} // namespace quals

#endif // QUALS_SERVE_RESULTCACHE_H
