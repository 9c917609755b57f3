// SHA-256 (FIPS 180-4), implemented from scratch. Validated against the
// standard test vectors in tests/crypto/sha_test.cpp.
//
// The compression function has two implementations: a portable one and,
// on x86 CPUs with the SHA extensions, one built on the SHA-NI
// instructions. The choice is made once per process from CPUID; both
// produce identical digests (tests/crypto/sha_test.cpp runs every vector
// through each).
#pragma once

#include <atomic>
#include <cstdint>

#include "common/bytes.hpp"
#include "crypto/digest.hpp"

namespace zc::crypto {

/// Incremental SHA-256 context. Copyable: a copy taken after absorbing a
/// prefix is a midstate that can be finished with different suffixes.
class Sha256 {
public:
    Sha256() noexcept;

    Sha256& update(BytesView data) noexcept;
    Sha256& update(const void* data, std::size_t len) noexcept;

    /// Finalizes and returns the digest. The context must not be reused
    /// afterwards (construct a fresh one).
    Digest finalize() noexcept;

private:
    std::uint32_t state_[8];
    std::uint64_t total_len_ = 0;
    std::uint8_t buffer_[64];
    std::size_t buffer_len_ = 0;
};

/// One-shot convenience.
Digest sha256(BytesView data) noexcept;

namespace detail {

/// Compresses `nblocks` consecutive 64-byte blocks into `state`.
using Compressor = void (*)(std::uint32_t state[8], const std::uint8_t* data,
                            std::size_t nblocks) noexcept;

/// The portable compressor (always available).
void process_blocks_portable(std::uint32_t state[8], const std::uint8_t* data,
                             std::size_t nblocks) noexcept;

/// The SHA-NI compressor, or null when this build or CPU lacks the SHA
/// extensions. Exposed so tests can check it against the portable one.
Compressor process_blocks_ni_if_supported() noexcept;

/// Backing store of sha256_blocks(). Header-inline so that src/prof can
/// report it without linking zc_crypto.
inline std::atomic<std::uint64_t> g_sha256_blocks{0};

}  // namespace detail

/// Process-wide count of SHA-256 block compressions since start-up: an
/// exact, seed-pure work counter. Relaxed, so it costs one uncontended
/// add per compressor call.
inline std::uint64_t sha256_blocks() noexcept {
    return detail::g_sha256_blocks.load(std::memory_order_relaxed);
}

}  // namespace zc::crypto
