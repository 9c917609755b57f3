#include "crypto/hmac.hpp"

#include <cstring>

namespace zc::crypto {

HmacKey::HmacKey(BytesView key) noexcept {
    constexpr std::size_t kBlock = 64;
    std::uint8_t k[kBlock] = {};
    if (key.size() > kBlock) {
        const Digest kd = sha256(key);
        std::memcpy(k, kd.data(), kd.size());
    } else if (!key.empty()) {
        std::memcpy(k, key.data(), key.size());
    }

    std::uint8_t ipad[kBlock], opad[kBlock];
    for (std::size_t i = 0; i < kBlock; ++i) {
        ipad[i] = static_cast<std::uint8_t>(k[i] ^ 0x36);
        opad[i] = static_cast<std::uint8_t>(k[i] ^ 0x5c);
    }
    inner_.update(ipad, kBlock);
    outer_.update(opad, kBlock);
}

Digest HmacKey::mac(BytesView message) const noexcept {
    const Digest inner_digest = Sha256(inner_).update(message).finalize();
    return Sha256(outer_).update(inner_digest.data(), inner_digest.size()).finalize();
}

Digest hmac_sha256(BytesView key, BytesView message) noexcept { return HmacKey(key).mac(message); }

}  // namespace zc::crypto
