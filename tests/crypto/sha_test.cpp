#include <gtest/gtest.h>

#include "common/hex.hpp"
#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha512.hpp"

namespace zc::crypto {
namespace {

std::string hex256(const Digest& d) { return to_hex(BytesView{d.data(), d.size()}); }
std::string hex512(const Digest512& d) { return to_hex(BytesView{d.data(), d.size()}); }

// FIPS 180-4 / NIST CAVP reference vectors.

TEST(Sha256, EmptyString) {
    EXPECT_EQ(hex256(sha256(to_bytes(""))),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
    EXPECT_EQ(hex256(sha256(to_bytes("abc"))),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
    EXPECT_EQ(hex256(sha256(to_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
    Sha256 h;
    const Bytes chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i) h.update(chunk);
    EXPECT_EQ(hex256(h.finalize()),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
    const Bytes msg = to_bytes("the quick brown fox jumps over the lazy dog, repeatedly");
    for (std::size_t split = 0; split <= msg.size(); ++split) {
        Sha256 h;
        h.update(BytesView{msg.data(), split});
        h.update(BytesView{msg.data() + split, msg.size() - split});
        EXPECT_EQ(h.finalize(), sha256(msg)) << "split at " << split;
    }
}

TEST(Sha256, EmptyNullUpdateAfterPartialBlockIsANoOp) {
    // update(nullptr, 0) with bytes already buffered must not touch the
    // null pointer (memcpy from null is undefined even for zero bytes).
    const Bytes msg = to_bytes("partial block");
    Sha256 h;
    h.update(BytesView{msg});
    h.update(nullptr, 0);
    EXPECT_EQ(h.finalize(), sha256(msg));
}

TEST(Sha256, PaddingBoundaries) {
    // Exercise message lengths around the 55/56/64-byte padding edges.
    for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
        const Bytes msg(len, 0x5a);
        Sha256 split_hash;
        for (std::size_t i = 0; i < len; ++i) split_hash.update(&msg[i], 1);
        EXPECT_EQ(split_hash.finalize(), sha256(msg)) << "len " << len;
    }
}

// Runs one compressor behind a reference FIPS 180-4 padding of the test's
// own, so each compressor meets the vectors whichever one Sha256 uses.
Digest digest_with(detail::Compressor compress, BytesView msg) {
    Bytes padded(msg.begin(), msg.end());
    padded.push_back(0x80);
    while (padded.size() % 64 != 56) padded.push_back(0);
    const std::uint64_t bits = static_cast<std::uint64_t>(msg.size()) * 8;
    for (int i = 7; i >= 0; --i) padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
    std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                              0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
    compress(state, padded.data(), padded.size() / 64);
    Digest out;
    for (int i = 0; i < 32; ++i) {
        out[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
    }
    return out;
}

void expect_fips_vectors(detail::Compressor compress) {
    EXPECT_EQ(hex256(digest_with(compress, to_bytes(""))),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(hex256(digest_with(compress, to_bytes("abc"))),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(hex256(digest_with(
                  compress, to_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
    EXPECT_EQ(hex256(digest_with(compress, Bytes(1000000, 'a'))),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Compressors, PortableMatchesFipsVectors) {
    expect_fips_vectors(&detail::process_blocks_portable);
}

TEST(Sha256Compressors, ShaNiMatchesFipsVectors) {
    const detail::Compressor ni = detail::process_blocks_ni_if_supported();
    if (ni == nullptr) GTEST_SKIP() << "CPU without SHA extensions";
    expect_fips_vectors(ni);
}

TEST(Sha256Compressors, RandomMessagesAgreeAtEverySplit) {
    const detail::Compressor ni = detail::process_blocks_ni_if_supported();
    Rng rng(256);
    for (std::size_t len = 0; len <= 300; ++len) {
        const Bytes msg = rng.bytes(len);
        const Digest want = digest_with(&detail::process_blocks_portable, msg);
        if (ni != nullptr) {
            ASSERT_EQ(digest_with(ni, msg), want) << "len " << len;
        }
        for (std::size_t split = 0; split <= len; ++split) {
            Sha256 h;
            h.update(BytesView{msg.data(), split});
            h.update(BytesView{msg.data() + split, len - split});
            ASSERT_EQ(h.finalize(), want) << "len " << len << " split " << split;
        }
    }
}

TEST(Sha256, BlocksCounterCountsEveryCompression) {
    // Padding takes one block up to 55 bytes of tail and two from 56 on.
    for (const auto& [len, blocks] : {std::pair<std::size_t, std::uint64_t>{0, 1},
                                      {55, 1}, {56, 2}, {64, 2}, {119, 2}, {120, 3}}) {
        const Bytes msg(len, 0x11);
        const std::uint64_t before = sha256_blocks();
        sha256(msg);
        EXPECT_EQ(sha256_blocks() - before, blocks) << "len " << len;
    }
}

TEST(Sha512, EmptyString) {
    EXPECT_EQ(hex512(sha512(to_bytes(""))),
              "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
              "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
}

TEST(Sha512, Abc) {
    EXPECT_EQ(hex512(sha512(to_bytes("abc"))),
              "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
              "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512, TwoBlockMessage) {
    EXPECT_EQ(hex512(sha512(to_bytes(
                  "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
                  "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"))),
              "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
              "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

TEST(Sha512, MillionA) {
    Sha512 h;
    const Bytes chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i) h.update(chunk);
    EXPECT_EQ(hex512(h.finalize()),
              "e718483d0ce769644e2e42c7bc15b4638e1f98b13b2044285632a803afa973eb"
              "de0ff244877ea60a4cb0432ce577c31beb009c5c2c49aa2e4eadb217ad8cc09b");
}

TEST(Sha512, IncrementalMatchesOneShot) {
    const Bytes msg(300, 0xa7);
    for (std::size_t split : {0u, 1u, 111u, 112u, 128u, 299u, 300u}) {
        Sha512 h;
        h.update(BytesView{msg.data(), split});
        h.update(BytesView{msg.data() + split, msg.size() - split});
        EXPECT_EQ(h.finalize(), sha512(msg)) << "split at " << split;
    }
}

TEST(Sha512, EmptyNullUpdateAfterPartialBlockIsANoOp) {
    const Bytes msg = to_bytes("partial block");
    Sha512 h;
    h.update(BytesView{msg});
    h.update(nullptr, 0);
    EXPECT_EQ(h.finalize(), sha512(msg));
}

TEST(Sha512, PaddingBoundaries) {
    for (std::size_t len : {111u, 112u, 113u, 127u, 128u, 129u, 239u, 240u}) {
        const Bytes msg(len, 0x3c);
        Sha512 split_hash;
        for (std::size_t i = 0; i < len; ++i) split_hash.update(&msg[i], 1);
        EXPECT_EQ(split_hash.finalize(), sha512(msg)) << "len " << len;
    }
}

}  // namespace
}  // namespace zc::crypto
