// Unit tests of the safety auditor against hand-built ground truth:
// forks, broken links, bad origin signatures, lost inputs, and export
// proof-coverage checks.
#include <gtest/gtest.h>

#include "crypto/sha256.hpp"
#include "faults/auditor.hpp"

namespace zc::faults {
namespace {

struct NullTransport final : zugchain::LayerTransport {
    void broadcast(const pbft::Request&) override {}
    void forward(NodeId, const pbft::Request&) override {}
};

struct NullSink final : zugchain::LogSink {
    void log(const pbft::Request&, NodeId, SeqNo) override {}
};

struct AuditorFixture : ::testing::Test {
    AuditorFixture() : sim(3) {
        Rng keyrng(7);
        for (std::uint32_t i = 0; i < 4; ++i) {
            keys.push_back(provider.generate(keyrng));
            directory.register_key(i, keys.back().pub);
        }
        verifier_ctx = std::make_unique<crypto::CryptoContext>(provider, directory, keys[0],
                                                               costs, meter);
        auditor.configure(1, 10, [this](std::uint32_t signer, BytesView msg,
                                        const crypto::Signature& sig) {
            return verifier_ctx->verify(signer, msg, sig);
        });
    }

    /// Appends one block whose single request is validly signed by its
    /// origin (or garbage-signed with valid_sig = false).
    void append_block(chain::BlockStore& store, const std::string& text, NodeId origin,
                      bool valid_sig = true) {
        const Height h = store.head_height() + 1;
        pbft::Request probe;
        probe.payload = to_bytes(text);
        probe.origin = origin;
        probe.origin_seq = h;
        chain::LoggedRequest lr;
        lr.payload = probe.payload;
        lr.origin = origin;
        lr.seq = h * 10;
        lr.origin_seq = h;
        if (valid_sig) {
            crypto::WorkMeter m;
            crypto::CryptoContext ctx(provider, directory, keys[origin], costs, m);
            lr.sig = ctx.sign(probe.signing_bytes());
        }
        std::vector<chain::LoggedRequest> reqs{lr};
        store.append(chain::Block::build(h, store.head_hash(), static_cast<std::int64_t>(h),
                                         std::move(reqs)));
    }

    pbft::CheckpointProof proof_for(const chain::BlockStore& store, Height height,
                                    std::uint32_t distinct_signers = 3) {
        pbft::CheckpointProof p;
        p.seq = height * 10;
        p.state = store.header(height)->hash();
        for (std::uint32_t i = 0; i < 3; ++i) {
            const NodeId signer = i < distinct_signers ? i : 0;
            pbft::Checkpoint c;
            c.seq = p.seq;
            c.state = p.state;
            c.replica = signer;
            crypto::WorkMeter m;
            crypto::CryptoContext ctx(provider, directory, keys[signer], costs, m);
            c.sig = ctx.sign(c.signing_bytes());
            p.messages.push_back(c);
        }
        return p;
    }

    static ReplicaView view_of(NodeId id, const chain::BlockStore& store,
                               const zugchain::CommunicationLayer* layer = nullptr) {
        ReplicaView v;
        v.id = id;
        v.store = &store;
        v.layer = layer;
        return v;
    }

    sim::Simulation sim;
    crypto::FastProvider provider;
    crypto::KeyDirectory directory;
    std::vector<crypto::KeyPair> keys;
    metrics::CostModel costs;
    crypto::WorkMeter meter;
    std::unique_ptr<crypto::CryptoContext> verifier_ctx;
    SafetyAuditor auditor;
};

TEST_F(AuditorFixture, CleanOnAgreeingReplicas) {
    chain::BlockStore a, b;
    for (int i = 0; i < 3; ++i) {
        append_block(a, "blk" + std::to_string(i), 1);
        append_block(b, "blk" + std::to_string(i), 1);
    }
    auditor.audit({view_of(0, a), view_of(1, b)}, {});
    EXPECT_TRUE(auditor.report().clean());
    EXPECT_EQ(auditor.report().audits, 1u);
    EXPECT_GT(auditor.report().checks, 0u);
}

TEST_F(AuditorFixture, ForkDetectedAndDeduplicated) {
    chain::BlockStore a, b;
    append_block(a, "same", 1);
    append_block(b, "same", 1);
    append_block(a, "ours", 1);
    append_block(b, "theirs", 1);
    auditor.audit({view_of(0, a), view_of(1, b)}, {});
    auditor.audit({view_of(0, a), view_of(1, b)}, {});  // re-audit: no duplicate entry
    ASSERT_EQ(auditor.report().violations.size(), 1u);
    EXPECT_EQ(auditor.report().violations[0].kind, ViolationKind::kChainFork);
    EXPECT_EQ(auditor.report().violations[0].height, 2u);
}

TEST_F(AuditorFixture, ForkAboveShorterFirstReplicaDetected) {
    // The first live replica stops at height 1; the other two fork at
    // height 2. Each agrees with the first at height 1, so only comparing
    // against the longest chain sees the fork.
    chain::BlockStore shorter, a, b;
    append_block(shorter, "same", 1);
    append_block(a, "same", 1);
    append_block(b, "same", 1);
    append_block(a, "ours", 1);
    append_block(b, "theirs", 1);
    auditor.audit({view_of(0, shorter), view_of(1, a), view_of(2, b)}, {});
    ASSERT_EQ(auditor.report().violations.size(), 1u);
    EXPECT_EQ(auditor.report().violations[0].kind, ViolationKind::kChainFork);
    EXPECT_EQ(auditor.report().violations[0].height, 2u);
    EXPECT_EQ(auditor.report().violations[0].where, 2u);
}

TEST_F(AuditorFixture, CompromisedReplicaExemptFromChecks) {
    chain::BlockStore a, b;
    append_block(a, "same", 1);
    append_block(b, "different", 1);
    auditor.set_compromised(1);
    EXPECT_TRUE(auditor.is_compromised(1));
    ReplicaView bad = view_of(1, b);
    bad.compromised = true;
    auditor.audit({view_of(0, a), bad}, {});
    EXPECT_TRUE(auditor.report().clean());
}

TEST_F(AuditorFixture, BadOriginSignatureFlagged) {
    chain::BlockStore a;
    append_block(a, "good", 1);
    append_block(a, "bad", 2, /*valid_sig=*/false);
    auditor.audit({view_of(0, a)}, {});
    ASSERT_EQ(auditor.report().violations.size(), 1u);
    EXPECT_EQ(auditor.report().violations[0].kind, ViolationKind::kBadOriginSignature);
    EXPECT_EQ(auditor.report().violations[0].height, 2u);
}

TEST_F(AuditorFixture, LostInputFlaggedAndCrashForgives) {
    zugchain::LayerConfig lcfg;
    NullTransport transport;
    NullSink sink;
    zugchain::CommunicationLayer layer(lcfg, sim, *verifier_ctx, transport, sink);

    chain::BlockStore a;
    append_block(a, "logged-one", 1);
    const Bytes lost = to_bytes("never-logged");
    auditor.note_received(0, crypto::sha256(lost));

    auditor.audit({view_of(0, a, &layer)}, {});
    ASSERT_EQ(auditor.report().violations.size(), 1u);
    EXPECT_EQ(auditor.report().violations[0].kind, ViolationKind::kLostInput);

    // After a crash the volatile inputs are legitimately lost: the same
    // digest must not re-fire on a fresh auditor.
    SafetyAuditor second;
    second.configure(1, 10, [this](std::uint32_t signer, BytesView msg,
                                   const crypto::Signature& sig) {
        return verifier_ctx->verify(signer, msg, sig);
    });
    second.note_received(0, crypto::sha256(lost));
    second.note_crashed(0);
    second.audit({view_of(0, a, &layer)}, {});
    EXPECT_TRUE(second.report().clean());
}

TEST_F(AuditorFixture, LoggedInputIsNotLost) {
    zugchain::LayerConfig lcfg;
    NullTransport transport;
    NullSink sink;
    zugchain::CommunicationLayer layer(lcfg, sim, *verifier_ctx, transport, sink);

    chain::BlockStore a;
    append_block(a, "payload", 1);
    const crypto::Digest d = crypto::sha256(to_bytes("payload"));
    auditor.note_received(0, d);
    auditor.note_logged(0, d);
    auditor.audit({view_of(0, a, &layer)}, {});
    EXPECT_TRUE(auditor.report().clean());
}

TEST_F(AuditorFixture, DcBeyondProofCoverageFlagged) {
    chain::BlockStore replica, dc;
    for (int i = 0; i < 5; ++i) {
        append_block(replica, "blk" + std::to_string(i), 1);
        append_block(dc, "blk" + std::to_string(i), 1);
    }
    const pbft::CheckpointProof proof = proof_for(replica, 3);  // covers height 3 only
    DataCenterView v;
    v.id = 0;
    v.store = &dc;
    v.proof = &proof;
    auditor.audit({view_of(0, replica)}, {v});
    ASSERT_FALSE(auditor.report().clean());
    EXPECT_EQ(auditor.report().violations[0].kind, ViolationKind::kExportedBeyondProof);
    EXPECT_EQ(auditor.report().violations[0].where, 100u);
}

TEST_F(AuditorFixture, DcUnderQuorumProofFlagged) {
    chain::BlockStore replica, dc;
    for (int i = 0; i < 3; ++i) {
        append_block(replica, "blk" + std::to_string(i), 1);
        append_block(dc, "blk" + std::to_string(i), 1);
    }
    // 2f+1 checkpoint copies but a single distinct signer.
    const pbft::CheckpointProof proof = proof_for(replica, 3, /*distinct_signers=*/1);
    DataCenterView v;
    v.id = 0;
    v.store = &dc;
    v.proof = &proof;
    auditor.audit({view_of(0, replica)}, {v});
    ASSERT_FALSE(auditor.report().clean());
    EXPECT_EQ(auditor.report().violations[0].kind, ViolationKind::kExportProofInvalid);
}

TEST_F(AuditorFixture, DcDivergingFromReplicasFlagged) {
    chain::BlockStore replica, dc;
    for (int i = 0; i < 3; ++i) append_block(replica, "blk" + std::to_string(i), 1);
    for (int i = 0; i < 3; ++i) append_block(dc, "forged" + std::to_string(i), 1);
    const pbft::CheckpointProof proof = proof_for(dc, 3);  // proof matches the DC's own chain
    DataCenterView v;
    v.id = 0;
    v.store = &dc;
    v.proof = &proof;
    auditor.audit({view_of(0, replica)}, {v});
    ASSERT_FALSE(auditor.report().clean());
    bool mismatch_found = false;
    for (const Violation& viol : auditor.report().violations) {
        mismatch_found |= viol.kind == ViolationKind::kExportMismatch;
    }
    EXPECT_TRUE(mismatch_found);
}

TEST_F(AuditorFixture, ReportJsonIsDeterministic) {
    chain::BlockStore a, b;
    append_block(a, "x", 1);
    append_block(b, "y", 1);
    auditor.audit({view_of(0, a), view_of(1, b)}, {});
    const std::string j1 = auditor.report().json();
    const std::string j2 = auditor.report().json();
    EXPECT_EQ(j1, j2);
    EXPECT_NE(j1.find("\"violations\":["), std::string::npos);
    EXPECT_NE(j1.find("chain_fork"), std::string::npos);
}

}  // namespace
}  // namespace zc::faults
