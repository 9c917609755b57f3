// Process-wide cache of completed signature verifications.
//
// The verification of a (public key, message, signature) triple is a pure
// function: the same inputs always produce the same boolean, for both
// providers. That makes its result safe to share across principals: when
// one node of a consist has verified a triple, CryptoContext::verify on
// the other nodes finds the verdict here instead of paying for another
// provider call.
//
// The cache is HOST-ONLY state: it decides whether the host re-runs the
// provider, never what the simulation observes. Virtual CPU charging is
// decided exclusively by the per-node VerifyMemo in CryptoContext, which
// is maintained in event-loop order — so same-seed runs produce
// byte-identical virtual output whether this cache is empty, warm, or
// disabled.
//
// Keys are a fast 256-bit mixing hash over (provider-name, pubkey, sig,
// message) with per-field length separators: content-addressed, so
// distinct key directories, shards, or scenario instances can never
// alias. The hash is deliberately NOT cryptographic — on the hot path it
// would otherwise cost as much as the verification it memoizes. It only
// has to keep honest traffic collision-free (the key identifies a triple;
// the equality classes that drive charging are the triples themselves),
// and 128+ effective bits leave astronomical margin at simulation
// volumes. Capacity is bounded by direct-mapped replacement per shard;
// an evicted entry just means one redundant provider call.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>

#include "crypto/digest.hpp"
#include "crypto/ed25519.hpp"

namespace zc::crypto {

/// Content-addressed cache key for one verification. `provider_name`
/// namespaces results so a fast-HMAC verdict can never satisfy an
/// Ed25519 lookup (or vice versa) in a process that runs both.
Digest verify_cache_key(const char* provider_name, const PublicKey& pub, BytesView message,
                        const Signature& sig) noexcept;

/// Thread-safe bounded map Digest -> bool, sharded by key prefix; each
/// shard is a fixed direct-mapped slot array (no allocation on the hot
/// path, one probe per operation — this sits on every verification the
/// simulator performs). A colliding key simply replaces the occupant:
/// lossy is fine for a cache, the evictee just pays one provider call.
class VerifyCache {
public:
    static constexpr std::size_t kShards = 16;
    static constexpr std::size_t kSlotsPerShard = 8192;  // power of two; ~4.5 MiB total

    /// Returns true and sets `ok` if the triple's verdict is cached.
    bool lookup(const Digest& key, bool& ok) const noexcept;

    /// Records a verdict (idempotent; capacity evicts oldest-first).
    void insert(const Digest& key, bool ok);

    /// Master switch (tests / A-B measurement). Disabled lookups miss and
    /// disabled inserts are dropped; virtual output is unaffected either
    /// way.
    void set_enabled(bool on) noexcept { enabled_ = on; }
    bool enabled() const noexcept { return enabled_; }

    void clear();

    std::uint64_t hits() const noexcept { return hits_.load(std::memory_order_relaxed); }
    std::uint64_t misses() const noexcept { return misses_.load(std::memory_order_relaxed); }
    std::uint64_t inserts() const noexcept { return inserts_.load(std::memory_order_relaxed); }

private:
    struct Slot {
        Digest key{};
        bool ok = false;
        bool used = false;
    };

    struct Shard {
        mutable std::mutex mu;
        std::array<Slot, kSlotsPerShard> slots{};
    };

    Shard& shard_of(const Digest& key) noexcept { return (*shards_)[key[1] % kShards]; }
    const Shard& shard_of(const Digest& key) const noexcept { return (*shards_)[key[1] % kShards]; }

    /// Slot index draws on different key bytes than the shard selector.
    static std::size_t slot_of(const Digest& key) noexcept {
        std::uint64_t h;
        std::memcpy(&h, key.data() + 8, sizeof h);
        return static_cast<std::size_t>(h) & (kSlotsPerShard - 1);
    }

    // Heap-held: the slot arrays are a few MiB, too big for a stack-
    // constructed instance in tests.
    std::unique_ptr<std::array<Shard, kShards>> shards_ =
        std::make_unique<std::array<Shard, kShards>>();
    bool enabled_ = true;
    mutable std::atomic<std::uint64_t> hits_{0};
    mutable std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> inserts_{0};
};

/// The process-global instance shared by every CryptoContext.
VerifyCache& global_verify_cache() noexcept;

}  // namespace zc::crypto
