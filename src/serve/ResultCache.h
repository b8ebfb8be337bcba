//===- serve/ResultCache.h - Content-addressed result cache -----*- C++ -*-===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analysis server's result cache: a byte-budgeted in-memory LRU of
/// serialized analysis outcomes, keyed by content address, with an optional
/// on-disk spill directory so warm state survives restarts.
///
/// **Keying.** A CacheKey is (ContentHash, ConfigHash): the 64-bit hash of
/// the exact source bytes (support/Hash.h) and the hash of everything else
/// that can change the output -- language, inference mode, print flags,
/// every resource limit, and the cache format version. Identical source
/// under different configs never collides; a config change (including a
/// --limit-* change, which can alter diagnostics) naturally cold-starts.
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
/// larger than the whole budget is served but never cached.
///
/// **Spill.** With a spill directory configured, every insert writes a
/// versioned entry file (<contenthash>-<confighash>.qres) and misses fall
/// back to disk before running the pipeline. Spill files carry a magic,
/// the format version, and both key halves; anything truncated, corrupt,
/// or from another version is ignored and deleted. Spill file reads and
/// writes happen *outside* the cache mutex -- a slow disk can delay the
/// request that touched it, never every concurrent cache operation. See
/// docs/SERVER.md.
///
/// All operations are thread-safe. Hit/miss/eviction/spill counts publish
/// to the PR-2 metrics registry as cache.* when collection is on, and are
/// always available via stats() for the server's `stats` method. A spill
/// promotion (disk entry pulled back into memory) counts as a hit plus a
/// promotion -- never as an insert, so Inserts <= Misses holds for the
/// server's miss-then-insert usage even across restart-warm workloads.
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
  uint64_t ConfigHash = 0;  ///< Hash of config + limits + format version.

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
  uint64_t Hits = 0;        ///< Lookups answered from memory or spill.
  uint64_t Misses = 0;      ///< Lookups that had to run the pipeline.
  uint64_t Evictions = 0;   ///< Entries dropped by the byte budget.
  uint64_t Inserts = 0;     ///< Successful insert() calls.
  uint64_t Promotions = 0;  ///< Spill entries promoted back into memory.
  uint64_t SpillLoads = 0;  ///< Hits satisfied from the spill directory.
  uint64_t SpillWrites = 0; ///< Entry files written.
  uint64_t Entries = 0;     ///< Current in-memory entry count.
  uint64_t Bytes = 0;       ///< Current in-memory payload bytes.
};

/// A byte-budgeted LRU over CachedResults; see the file comment.
class ResultCache {
public:
  /// Bumped whenever CachedResult serialization (or anything a key must
  /// capture) changes shape; folded into every ConfigHash and written into
  /// every spill file, so stale state from older builds is never replayed.
  static constexpr uint32_t FormatVersion = 1;

  /// \p MaxBytes is the in-memory payload budget; 0 disables caching
  /// entirely (every lookup misses, inserts are dropped) -- the knob the
  /// soak tests use to force the cold path. \p SpillDir, when non-empty,
  /// enables the disk spill layer (the directory is created on first
  /// write).
  explicit ResultCache(uint64_t MaxBytes = 64u << 20,
                       std::string SpillDir = {});

  /// Looks \p Key up in memory, then in the spill directory. On a hit,
  /// fills \p Out, refreshes LRU position, and returns true.
  bool lookup(const CacheKey &Key, CachedResult &Out);

  /// Inserts (or refreshes) \p Key -> \p Value, evicting LRU entries until
  /// the payload budget holds, and write-through spills when
  /// configured.
  void insert(const CacheKey &Key, CachedResult Value);

  /// Drops every entry (memory and spill). Returns the number of in-memory
  /// entries dropped.
  uint64_t invalidateAll();

  /// Drops every entry (memory and spill) whose ContentHash is \p
  /// ContentHash, whatever its config. Returns the in-memory drop count.
  uint64_t invalidateContent(uint64_t ContentHash);

  CacheStats stats() const;

  uint64_t maxBytes() const { return MaxBytes; }
  const std::string &spillDir() const { return SpillDir; }

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
  std::string SpillDir;
  mutable std::mutex Mutex; ///< Guards everything below.
  LruList Lru;              ///< Front = most recently used.
  std::unordered_map<CacheKey, LruList::iterator, KeyHash> Map;
  uint64_t CurBytes = 0;
  CacheStats Counts; ///< Entries/Bytes are filled in by stats().

  static uint64_t entryBytes(const CachedResult &R) {
    return R.Out.size() + R.Err.size() + 64; // 64 ~= bookkeeping overhead
  }

  /// Inserts with Mutex held. \p CountInsert distinguishes a real insert
  /// from a spill promotion, which bumps Promotions instead.
  void insertLocked(const CacheKey &Key, CachedResult Value,
                    bool CountInsert);
  void evictOverBudgetLocked();

  // Spill-layer helpers; all file I/O, called with Mutex not held.
  std::string spillPath(const CacheKey &Key) const;
  bool spillWrite(const CacheKey &Key, const CachedResult &Value);
  bool spillLoad(const CacheKey &Key, CachedResult &Out);
  void spillRemoveAll(uint64_t ContentHash, bool MatchContent);
  void bumpCacheCounter(const char *Name, uint64_t Delta = 1);
};

} // namespace serve
} // namespace quals

#endif // QUALS_SERVE_RESULTCACHE_H
