// HMAC-SHA256 (RFC 2104). Used by the FastCrypto simulation provider and
// available for keyed integrity checks.
#pragma once

#include "common/bytes.hpp"
#include "crypto/digest.hpp"
#include "crypto/sha256.hpp"

namespace zc::crypto {

/// An HMAC-SHA256 key with its inner and outer midstates precomputed:
/// the SHA-256 states after absorbing key ^ ipad and key ^ opad. Each
/// mac() resumes copies of them, so a message that fits one block (up
/// to 55 bytes) costs 2 compressions instead of 4.
class HmacKey {
public:
    explicit HmacKey(BytesView key) noexcept;

    /// HMAC-SHA256(key, message).
    Digest mac(BytesView message) const noexcept;

private:
    Sha256 inner_;
    Sha256 outer_;
};

/// Computes HMAC-SHA256(key, message).
Digest hmac_sha256(BytesView key, BytesView message) noexcept;

}  // namespace zc::crypto
