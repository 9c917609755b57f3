#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "crypto/provider.hpp"

namespace zc::crypto {
namespace {

class ProviderTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ProviderTest, SignVerifyRoundTrip) {
    auto provider = make_provider(GetParam());
    Rng rng(1);
    const KeyPair kp = provider->generate(rng);
    const Bytes msg = to_bytes("hello train");
    const Signature sig = provider->sign(kp, msg);
    EXPECT_TRUE(provider->verify(kp.pub, msg, sig));
}

TEST_P(ProviderTest, RejectsTamperedMessage) {
    auto provider = make_provider(GetParam());
    Rng rng(2);
    const KeyPair kp = provider->generate(rng);
    Bytes msg = to_bytes("hello train");
    const Signature sig = provider->sign(kp, msg);
    msg[0] ^= 1;
    EXPECT_FALSE(provider->verify(kp.pub, msg, sig));
}

TEST_P(ProviderTest, RejectsWrongKey) {
    auto provider = make_provider(GetParam());
    Rng rng(3);
    const KeyPair a = provider->generate(rng);
    const KeyPair b = provider->generate(rng);
    const Bytes msg = to_bytes("payload");
    EXPECT_FALSE(provider->verify(b.pub, msg, provider->sign(a, msg)));
}

TEST_P(ProviderTest, RejectsTamperedSignature) {
    auto provider = make_provider(GetParam());
    Rng rng(4);
    const KeyPair kp = provider->generate(rng);
    const Bytes msg = to_bytes("payload");
    Signature sig = provider->sign(kp, msg);
    sig.v[40] ^= 0x10;
    EXPECT_FALSE(provider->verify(kp.pub, msg, sig));
}

TEST_P(ProviderTest, DistinctKeysPerGenerate) {
    auto provider = make_provider(GetParam());
    Rng rng(5);
    EXPECT_NE(provider->generate(rng).pub, provider->generate(rng).pub);
}

INSTANTIATE_TEST_SUITE_P(AllProviders, ProviderTest, ::testing::Values("ed25519", "fast"));

TEST(Provider, UnknownNameThrows) {
    EXPECT_THROW(make_provider("rsa"), std::invalid_argument);
}

TEST(FastProvider, UnknownKeyFailsVerification) {
    FastProvider provider;
    Rng rng(6);
    const KeyPair kp = provider.generate(rng);
    const Bytes msg = to_bytes("m");
    const Signature sig = provider.sign(kp, msg);

    FastProvider other;  // fresh registry: key unknown
    EXPECT_FALSE(other.verify(kp.pub, msg, sig));
}

TEST(FastProvider, RegisteredPublicKeyWithAnotherSeedDoesNotVerify) {
    // The provider caches HMAC midstates per registered public key. A key
    // pair carrying a registered public key but another seed must sign with
    // its own seed, not borrow the registered one's.
    FastProvider provider;
    Rng rng(11);
    const KeyPair honest = provider.generate(rng);
    KeyPair forged = honest;
    forged.seed[0] ^= 0x01;
    const Bytes msg = to_bytes("telegram");

    EXPECT_TRUE(provider.verify(honest.pub, msg, provider.sign(honest, msg)));
    EXPECT_FALSE(provider.verify(honest.pub, msg, provider.sign(forged, msg)));
}

}  // namespace
}  // namespace zc::crypto
