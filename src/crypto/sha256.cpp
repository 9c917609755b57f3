#include "crypto/sha256.hpp"

#include <bit>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define ZC_SHA256_HAVE_NI 1
#endif

namespace zc::crypto {

namespace {

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

std::uint32_t load_be32(const std::uint8_t* p) noexcept {
    return (std::uint32_t(p[0]) << 24) | (std::uint32_t(p[1]) << 16) |
           (std::uint32_t(p[2]) << 8) | std::uint32_t(p[3]);
}

void store_be32(std::uint8_t* p, std::uint32_t v) noexcept {
    p[0] = static_cast<std::uint8_t>(v >> 24);
    p[1] = static_cast<std::uint8_t>(v >> 16);
    p[2] = static_cast<std::uint8_t>(v >> 8);
    p[3] = static_cast<std::uint8_t>(v);
}

#ifdef ZC_SHA256_HAVE_NI
// SHA-NI compression, after Intel's "SHA Extensions" white paper: the
// state lives in two registers as ABEF / CDGH, each sha256rnds2 runs two
// rounds, and sha256msg1/msg2 extend the message schedule four words at
// a time.
__attribute__((target("sha,sse4.1"))) void process_blocks_ni(std::uint32_t state[8],
                                                              const std::uint8_t* data,
                                                              std::size_t nblocks) noexcept {
    const __m128i byteswap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
    const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
    const __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
    const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
    const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
    __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
    __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

    for (; nblocks > 0; --nblocks, data += 64) {
        const __m128i abef_in = abef;
        const __m128i cdgh_in = cdgh;
        __m128i w[4];
        for (int i = 0; i < 4; ++i) {
            w[i] = _mm_shuffle_epi8(
                _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)), byteswap);
        }
#pragma GCC unroll 16
        for (int q = 0; q < 16; ++q) {
            if (q >= 4) {
                // W[4q..4q+3] from the four previous quads (w[q & 3] holds quad q-4).
                const __m128i s = _mm_add_epi32(_mm_sha256msg1_epu32(w[q & 3], w[(q + 1) & 3]),
                                                _mm_alignr_epi8(w[(q + 3) & 3], w[(q + 2) & 3], 4));
                w[q & 3] = _mm_sha256msg2_epu32(s, w[(q + 3) & 3]);
            }
            const __m128i wk = _mm_add_epi32(
                w[q & 3], _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * q])));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
    const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), _mm_blend_epi16(feba, dchg, 0xF0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), _mm_alignr_epi8(dchg, feba, 8));
}
#endif

void compress(std::uint32_t state[8], const std::uint8_t* data, std::size_t nblocks) noexcept {
    // The compressor for this CPU, chosen on first use: a function-local
    // static, so no other static initialiser can observe it unset.
    static const detail::Compressor chosen = [] {
        const detail::Compressor ni = detail::process_blocks_ni_if_supported();
        return ni != nullptr ? ni : &detail::process_blocks_portable;
    }();
    detail::g_sha256_blocks.fetch_add(nblocks, std::memory_order_relaxed);
    chosen(state, data, nblocks);
}

}  // namespace

namespace detail {

void process_blocks_portable(std::uint32_t state[8], const std::uint8_t* data,
                             std::size_t nblocks) noexcept {
    for (; nblocks > 0; --nblocks, data += 64) {
        std::uint32_t w[64];
        for (int i = 0; i < 16; ++i) w[i] = load_be32(data + 4 * i);
        for (int i = 16; i < 64; ++i) {
            const std::uint32_t s0 =
                std::rotr(w[i - 15], 7) ^ std::rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
            const std::uint32_t s1 =
                std::rotr(w[i - 2], 17) ^ std::rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16] + s0 + w[i - 7] + s1;
        }

        std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
        std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

        for (int i = 0; i < 64; ++i) {
            const std::uint32_t s1 = std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25);
            const std::uint32_t ch = (e & f) ^ (~e & g);
            const std::uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
            const std::uint32_t s0 = std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22);
            const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
            const std::uint32_t temp2 = s0 + maj;
            h = g;
            g = f;
            f = e;
            e = d + temp1;
            d = c;
            c = b;
            b = a;
            a = temp1 + temp2;
        }

        state[0] += a;
        state[1] += b;
        state[2] += c;
        state[3] += d;
        state[4] += e;
        state[5] += f;
        state[6] += g;
        state[7] += h;
    }
}

Compressor process_blocks_ni_if_supported() noexcept {
#ifdef ZC_SHA256_HAVE_NI
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1")) {
        return &process_blocks_ni;
    }
#endif
    return nullptr;
}

}  // namespace detail

Sha256::Sha256() noexcept {
    state_[0] = 0x6a09e667;
    state_[1] = 0xbb67ae85;
    state_[2] = 0x3c6ef372;
    state_[3] = 0xa54ff53a;
    state_[4] = 0x510e527f;
    state_[5] = 0x9b05688c;
    state_[6] = 0x1f83d9ab;
    state_[7] = 0x5be0cd19;
}

Sha256& Sha256::update(const void* data, std::size_t len) noexcept {
    if (len == 0) return *this;  // data may be null; memcpy from null is UB
    const auto* p = static_cast<const std::uint8_t*>(data);
    total_len_ += len;
    if (buffer_len_ > 0) {
        const std::size_t take = std::min(len, sizeof(buffer_) - buffer_len_);
        std::memcpy(buffer_ + buffer_len_, p, take);
        buffer_len_ += take;
        p += take;
        len -= take;
        if (buffer_len_ == sizeof(buffer_)) {
            compress(state_, buffer_, 1);
            buffer_len_ = 0;
        }
    }
    if (const std::size_t blocks = len / sizeof(buffer_); blocks > 0) {
        compress(state_, p, blocks);
        p += blocks * sizeof(buffer_);
        len -= blocks * sizeof(buffer_);
    }
    if (len > 0) {
        std::memcpy(buffer_, p, len);
        buffer_len_ = len;
    }
    return *this;
}

Sha256& Sha256::update(BytesView data) noexcept { return update(data.data(), data.size()); }

Digest Sha256::finalize() noexcept {
    // Padding written in place: 0x80, zeroes up to byte 56 of the last
    // block (spilling into a second block when fewer than 9 bytes are
    // free), then the message length in bits, big-endian.
    const std::uint64_t bit_len = total_len_ * 8;
    buffer_[buffer_len_++] = 0x80;
    if (buffer_len_ > 56) {
        std::memset(buffer_ + buffer_len_, 0, sizeof(buffer_) - buffer_len_);
        compress(state_, buffer_, 1);
        buffer_len_ = 0;
    }
    std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
    for (int i = 0; i < 8; ++i) {
        buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
    }
    compress(state_, buffer_, 1);

    Digest out;
    for (int i = 0; i < 8; ++i) store_be32(out.data() + 4 * i, state_[i]);
    return out;
}

Digest sha256(BytesView data) noexcept { return Sha256().update(data).finalize(); }

}  // namespace zc::crypto
