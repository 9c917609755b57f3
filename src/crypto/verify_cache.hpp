// Verdict tables of completed signature verifications: the per-principal
// VerifyMemo (virtual state, see CryptoContext) and the process-wide
// host VerifyCache.
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
// volumes.
//
// Both tables are one type, VerdictTable: a fixed direct-mapped slot
// array. Capacity is bounded by replacement; an evicted cache entry just
// means one redundant provider call. The simulator runs on one host
// thread, so neither table locks.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "crypto/digest.hpp"
#include "crypto/ed25519.hpp"

namespace zc::crypto {

/// Content-addressed cache key for one verification. `provider_name`
/// namespaces results so a fast-HMAC verdict can never satisfy an
/// Ed25519 lookup (or vice versa) in a process that runs both.
Digest verify_cache_key(const char* provider_name, const PublicKey& pub, BytesView message,
                        const Signature& sig) noexcept;

/// Bounded map Digest -> bool: `Slots` direct-mapped entries (no
/// allocation after construction, one probe per operation — this sits on
/// every verification the simulator performs). A colliding key replaces
/// the occupant; the slot index is a pure function of the key bytes, so
/// replacement is as deterministic as the inserts themselves.
template <std::size_t Slots>
class VerdictTable {
public:
    static_assert((Slots & (Slots - 1)) == 0, "slot count must be a power of two");
    static constexpr std::size_t kSlots = Slots;

    const bool* find(const Digest& key) const noexcept {
        if (!enabled_) return nullptr;
        const Slot& s = slots_[slot_of(key)];
        if (!s.used || s.key != key) return nullptr;
        return &s.ok;
    }

    /// First write for a key wins (a triple's verdict never changes);
    /// a different key mapping to the same slot replaces the occupant.
    void insert(const Digest& key, bool ok) noexcept {
        if (!enabled_) return;
        Slot& s = slots_[slot_of(key)];
        if (s.used && s.key == key) return;
        if (!s.used) ++size_;
        s.key = key;
        s.ok = ok;
        s.used = true;
    }

    void clear() noexcept {
        for (Slot& s : slots_) s.used = false;
        size_ = 0;
    }

    std::size_t size() const noexcept { return size_; }

    /// A/B switch for the host cache: a disabled table misses every
    /// lookup and drops every insert. Virtual output is unaffected.
    void set_enabled(bool on) noexcept { enabled_ = on; }
    bool enabled() const noexcept { return enabled_; }

private:
    struct Slot {
        Digest key{};
        bool ok = false;
        bool used = false;
    };

    static std::size_t slot_of(const Digest& key) noexcept {
        std::uint64_t h;
        std::memcpy(&h, key.data(), sizeof h);
        return static_cast<std::size_t>(h) & (Slots - 1);
    }

    std::vector<Slot> slots_ = std::vector<Slot>(Slots);  // heap: the cache is ~4.3 MiB
    std::size_t size_ = 0;
    bool enabled_ = true;
};

/// Per-principal VIRTUAL memo (see CryptoContext::verify): the bounded
/// table a real node would keep in RAM, so its contents and evictions
/// decide virtual charging. ~34 KiB.
using VerifyMemo = VerdictTable<1024>;

/// Process-wide HOST-ONLY cache: 131072 entries, ~4.3 MiB.
using VerifyCache = VerdictTable<131072>;

/// The process-global instance shared by every CryptoContext.
VerifyCache& global_verify_cache() noexcept;

}  // namespace zc::crypto
