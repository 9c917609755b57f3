// The steps a delivered message takes before its handler runs, as in
// Node::dispatch: decode the envelope and the channel payload, then
// verify the signature through the node's CryptoContext, whose verdict
// lands in the process-global VerifyCache.
#include <gtest/gtest.h>

#include <variant>

#include "crypto/context.hpp"
#include "crypto/provider.hpp"
#include "crypto/verify_cache.hpp"
#include "pbft/messages.hpp"
#include "runtime/wire.hpp"

namespace zc::runtime {
namespace {

class PrologueTest : public ::testing::Test {
protected:
    void SetUp() override { crypto::global_verify_cache().clear(); }
    void TearDown() override { crypto::global_verify_cache().clear(); }

    /// A signed Prepare wrapped in a pbft-channel envelope.
    Bytes make_wire(crypto::FastProvider& provider, crypto::KeyDirectory& directory,
                    bool tamper) {
        Rng rng(99);
        const crypto::KeyPair key = provider.generate(rng);
        directory.register_key(2, key.pub);
        pbft::Prepare p;
        p.view = 1;
        p.seq = 5;
        p.req_digest.fill(0xAB);
        p.replica = 2;
        p.sig = provider.sign(key, BytesView{p.signing_bytes()});
        if (tamper) p.sig.v[0] ^= 0xFF;
        return encode_envelope(Channel::kPbft, pbft::encode_message(pbft::Message{p}));
    }
};

TEST_F(PrologueTest, TamperedSignatureIsCachedAsFalseAndRejected) {
    crypto::FastProvider fast;
    crypto::CountingProvider provider(fast);
    crypto::KeyDirectory directory;
    const Bytes wire = make_wire(fast, directory, /*tamper=*/true);

    // The tampered message still decodes: rejection is the verifier's job.
    const auto envelope = decode_envelope(BytesView{wire.data(), wire.size()});
    ASSERT_TRUE(envelope.has_value());
    ASSERT_EQ(envelope->channel, Channel::kPbft);
    const auto message = pbft::decode_message(envelope->body);
    ASSERT_TRUE(message.has_value());
    const auto* prepare = std::get_if<pbft::Prepare>(&*message);
    ASSERT_NE(prepare, nullptr);
    const Bytes signing = prepare->signing_bytes();

    metrics::CostModel costs;
    Rng rng(1);
    crypto::WorkMeter meter_a;
    crypto::CryptoContext a(provider, directory, fast.generate(rng), costs, meter_a);
    EXPECT_FALSE(a.verify(2, BytesView{signing}, prepare->sig));
    EXPECT_EQ(provider.calls(), 1u);

    // The negative verdict is in the cache under the verifier's key…
    const bool* cached = crypto::global_verify_cache().find(crypto::verify_cache_key(
        provider.name(), directory.key_of(2), BytesView{signing}, prepare->sig));
    ASSERT_NE(cached, nullptr);
    EXPECT_FALSE(*cached);

    // …so another node rejects it too without calling the provider again.
    crypto::WorkMeter meter_b;
    crypto::CryptoContext b(provider, directory, fast.generate(rng), costs, meter_b);
    EXPECT_FALSE(b.verify(2, BytesView{signing}, prepare->sig));
    EXPECT_EQ(provider.calls(), 1u) << "negative verdicts are cached too";
}

TEST_F(PrologueTest, GarbageBytesDecodeToNothing) {
    const Bytes garbage = {0xDE, 0xAD, 0xBE, 0xEF};
    EXPECT_FALSE(decode_envelope(BytesView{garbage.data(), garbage.size()}).has_value());
    EXPECT_FALSE(pbft::decode_message(BytesView{garbage.data(), garbage.size()}).has_value());
}

}  // namespace
}  // namespace zc::runtime
