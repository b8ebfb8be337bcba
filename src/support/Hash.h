//===- support/Hash.h - Stable 64-bit content hashing ----------*- C++ -*-===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A stable, seedless 64-bit hash for content addressing. The analysis
/// server (src/serve) keys its result cache by (source content hash,
/// analysis config hash) and reports the content hash to clients, and
/// `.qsum` summaries (src/link) carry content hashes on disk; all of them
/// must be identical across processes, runs, and platforms -- which rules
/// out std::hash (unspecified, may be salted).
///
/// The byte hash is FNV-1a with a murmur-style avalanche finalizer: FNV-1a
/// walks the input as a byte stream (endian-independent), and the finalizer
/// fixes FNV's weak high-bit diffusion so truncations of the digest are
/// usable too. This is a content fingerprint, not a cryptographic hash:
/// collisions are astronomically unlikely by accident but constructible on
/// purpose, which is fine for a cache that only ever serves back the
/// requester's own analysis results (docs/SERVER.md discusses the threat
/// model).
///
//===----------------------------------------------------------------------===//

#ifndef QUALS_SUPPORT_HASH_H
#define QUALS_SUPPORT_HASH_H

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace quals {

/// Finalizer from MurmurHash3 (fmix64): full avalanche, so every input bit
/// affects every output bit.
inline uint64_t hashMix(uint64_t H) {
  H ^= H >> 33;
  H *= 0xff51afd7ed558ccdULL;
  H ^= H >> 33;
  H *= 0xc4ceb9fe1a85ec53ULL;
  H ^= H >> 33;
  return H;
}

/// Hashes \p Size bytes starting at \p Data. Stable across runs, processes,
/// and platforms; never returns 0 (0 is a convenient "no hash" sentinel).
inline uint64_t hashBytes(const void *Data, size_t Size) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  uint64_t H = 0xcbf29ce484222325ULL; // FNV offset basis
  for (size_t I = 0; I != Size; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ULL; // FNV prime
  }
  H = hashMix(H ^ Size);
  return H ? H : 1;
}

/// Hashes a string's bytes (not including any terminator).
inline uint64_t hashString(std::string_view S) {
  return hashBytes(S.data(), S.size());
}

/// Order-dependent combination of two digests: combine(a, b) != combine(b, a).
inline uint64_t hashCombine(uint64_t Seed, uint64_t Value) {
  return hashMix(Seed ^ (Value + 0x9e3779b97f4a7c15ULL + (Seed << 6) +
                         (Seed >> 2)));
}

/// Incremental byte hashing with a chunk-split-invariant digest: feeding
/// the same byte sequence through any sequence of update() calls yields the
/// digest hashBytes() would produce over the concatenation. The link
/// layer's summary content addresses are built this way (a .qsum streamed
/// from disk in reads of any size must key identically to one hashed in a
/// single buffer); HashBuilder::addBytes() does NOT have this property --
/// it digests each chunk separately and combines the digests, so the chunk
/// boundaries are part of its result.
class StreamHasher {
public:
  StreamHasher &update(const void *Data, size_t Size) {
    const unsigned char *P = static_cast<const unsigned char *>(Data);
    for (size_t I = 0; I != Size; ++I) {
      H ^= P[I];
      H *= 0x100000001b3ULL; // FNV prime
    }
    Count += Size;
    return *this;
  }
  StreamHasher &update(std::string_view S) {
    return update(S.data(), S.size());
  }

  /// Total bytes fed so far.
  uint64_t size() const { return Count; }

  /// Digest of every byte fed so far: equals hashBytes(concatenation).
  /// Never 0; may be called at any point (it does not consume state).
  uint64_t digest() const {
    uint64_t D = hashMix(H ^ Count);
    return D ? D : 1;
  }

private:
  uint64_t H = 0xcbf29ce484222325ULL; // FNV offset basis
  uint64_t Count = 0;
};

/// Accumulates heterogeneous fields into one digest; the serve layer builds
/// its cache-config hash this way. Field order matters (by design: the hash
/// describes a specific tuple, not a set).
class HashBuilder {
public:
  HashBuilder &add(uint64_t V) {
    H = hashCombine(H, hashMix(V));
    return *this;
  }
  HashBuilder &add(bool V) { return add(static_cast<uint64_t>(V)); }
  HashBuilder &add(std::string_view S) { return add(hashString(S)); }
  HashBuilder &addBytes(const void *Data, size_t Size) {
    return add(hashBytes(Data, Size));
  }

  /// The digest of everything added so far; never 0.
  uint64_t digest() const { return H ? H : 1; }

private:
  uint64_t H = 0x9ae16a3b2f90404fULL;
};

} // namespace quals

#endif // QUALS_SUPPORT_HASH_H
