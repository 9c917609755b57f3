#include <gtest/gtest.h>

#include "common/hex.hpp"
#include "crypto/hmac.hpp"

namespace zc::crypto {
namespace {

std::string hex(const Digest& d) { return to_hex(BytesView{d.data(), d.size()}); }

// RFC 4231 test case 1.
TEST(HmacSha256, Rfc4231Case1) {
    const Bytes key(20, 0x0b);
    EXPECT_EQ(hex(hmac_sha256(key, to_bytes("Hi There"))),
              "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 2 ("Jefe").
TEST(HmacSha256, Rfc4231Case2) {
    EXPECT_EQ(hex(hmac_sha256(to_bytes("Jefe"), to_bytes("what do ya want for nothing?"))),
              "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test cases 1-4, 6 and 7 through a reusable HmacKey; 6 and 7
// use a 131-byte key, which is hashed down to 32 bytes first.
TEST(HmacKey, Rfc4231Vectors) {
    Bytes key4;
    for (std::uint8_t b = 1; b <= 25; ++b) key4.push_back(b);
    const Bytes long_key(131, 0xaa);
    const struct {
        Bytes key;
        Bytes msg;
        const char* mac;
    } cases[] = {
        {Bytes(20, 0x0b), to_bytes("Hi There"),
         "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
        {to_bytes("Jefe"), to_bytes("what do ya want for nothing?"),
         "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
        {Bytes(20, 0xaa), Bytes(50, 0xdd),
         "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
        {key4, Bytes(50, 0xcd),
         "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
        {long_key, to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"),
         "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
        {long_key,
         to_bytes("This is a test using a larger than block-size key and a larger than "
                  "block-size data. The key needs to be hashed before being used by the "
                  "HMAC algorithm."),
         "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
    };
    for (const auto& c : cases) {
        const HmacKey key(c.key);
        EXPECT_EQ(hex(key.mac(c.msg)), c.mac);
        EXPECT_EQ(hex(key.mac(c.msg)), c.mac) << "second mac from the same midstates";
        EXPECT_EQ(hex(hmac_sha256(c.key, c.msg)), c.mac);
    }
}

TEST(HmacKey, ShortMacCostsTwoCompressions) {
    // The ipad/opad blocks are absorbed once, in the constructor; a 32-byte
    // message then needs one inner and one outer compression.
    const HmacKey key(to_bytes("seed"));
    const Bytes msg(32, 0x42);
    const std::uint64_t before = sha256_blocks();
    key.mac(msg);
    EXPECT_EQ(sha256_blocks() - before, 2u);
}

TEST(HmacSha256, KeyLongerThanBlockIsHashed) {
    const Bytes long_key(100, 0xaa);
    const Bytes msg = to_bytes("message");
    // Must not crash and must differ from using the raw truncation.
    const Digest full = hmac_sha256(long_key, msg);
    const Digest truncated = hmac_sha256(BytesView{long_key.data(), 64}, msg);
    EXPECT_NE(full, truncated);
}

TEST(HmacSha256, DifferentKeysDiffer) {
    const Bytes msg = to_bytes("payload");
    EXPECT_NE(hmac_sha256(to_bytes("k1"), msg), hmac_sha256(to_bytes("k2"), msg));
}

TEST(HmacSha256, DifferentMessagesDiffer) {
    const Bytes key = to_bytes("key");
    EXPECT_NE(hmac_sha256(key, to_bytes("m1")), hmac_sha256(key, to_bytes("m2")));
}

TEST(HmacSha256, EmptyKeyAndMessageDeterministic) {
    EXPECT_EQ(hmac_sha256({}, {}), hmac_sha256({}, {}));
}

}  // namespace
}  // namespace zc::crypto
