// zc_prof: attribution correctness on a fake clock, the disabled-path
// contract, and the report shapes.
#include <gtest/gtest.h>

#include <string>

#include "crypto/sha256.hpp"
#include "prof/prof.hpp"

namespace zc::prof {
namespace {

// Injectable monotonic clock: tests advance it explicitly, so every
// nanosecond of attribution is exact.
std::uint64_t g_fake_now = 0;
std::uint64_t fake_clock() { return g_fake_now; }

class ProfTest : public ::testing::Test {
protected:
    void SetUp() override { g_fake_now = 0; }
    void TearDown() override { Profiler::set_active(nullptr); }
};

TEST_F(ProfTest, SubsystemNamesAreStableAndDistinct) {
    for (unsigned i = 0; i < kSubsystemCount; ++i) {
        const char* name = subsystem_name(static_cast<Subsystem>(i));
        ASSERT_NE(name, nullptr);
        EXPECT_GT(std::string(name).size(), 0u);
        for (unsigned j = 0; j < i; ++j) {
            EXPECT_NE(std::string(name), subsystem_name(static_cast<Subsystem>(j)));
        }
    }
    EXPECT_STREQ(subsystem_name(Subsystem::kSetup), "setup");
    EXPECT_STREQ(subsystem_name(Subsystem::kAudit), "audit");
}

TEST_F(ProfTest, FlatScopeAttributesElapsedTime) {
    Profiler p(&fake_clock);
    g_fake_now = 100;
    p.begin(Subsystem::kCryptoSign);
    g_fake_now = 350;
    p.end();
    EXPECT_EQ(p.self_ns(Subsystem::kCryptoSign), 250u);
    EXPECT_EQ(p.total_ns(Subsystem::kCryptoSign), 250u);
    EXPECT_EQ(p.count(Subsystem::kCryptoSign), 1u);
    EXPECT_EQ(p.depth(), 0u);
}

TEST_F(ProfTest, NestedScopeSelfTimeExcludesChild) {
    Profiler p(&fake_clock);
    g_fake_now = 100;
    p.begin(Subsystem::kDispatch);
    g_fake_now = 150;
    p.begin(Subsystem::kCryptoSign);
    g_fake_now = 350;
    p.end();  // crypto: 200 ns
    g_fake_now = 400;
    p.end();  // dispatch: 300 ns inclusive, 100 ns self

    EXPECT_EQ(p.self_ns(Subsystem::kCryptoSign), 200u);
    EXPECT_EQ(p.total_ns(Subsystem::kDispatch), 300u);
    EXPECT_EQ(p.self_ns(Subsystem::kDispatch), 100u);
    // Self-time sum equals wall elapsed: nothing double-counted.
    EXPECT_EQ(p.self_ns(Subsystem::kDispatch) + p.self_ns(Subsystem::kCryptoSign), 300u);
}

TEST_F(ProfTest, GrandchildTimeChargesOnlyDirectParentChain) {
    Profiler p(&fake_clock);
    g_fake_now = 0;
    p.begin(Subsystem::kDispatch);       // [0, 1000]
    g_fake_now = 100;
    p.begin(Subsystem::kStoreAppend);    // [100, 900]
    g_fake_now = 200;
    p.begin(Subsystem::kCodecEncode);    // [200, 600]
    g_fake_now = 600;
    p.end();
    g_fake_now = 900;
    p.end();
    g_fake_now = 1000;
    p.end();

    EXPECT_EQ(p.self_ns(Subsystem::kCodecEncode), 400u);
    EXPECT_EQ(p.total_ns(Subsystem::kStoreAppend), 800u);
    EXPECT_EQ(p.self_ns(Subsystem::kStoreAppend), 400u);  // 800 - 400 nested
    EXPECT_EQ(p.total_ns(Subsystem::kDispatch), 1000u);
    EXPECT_EQ(p.self_ns(Subsystem::kDispatch), 200u);     // 1000 - 800 nested
    // Invariant: Σ self == outermost inclusive.
    const std::uint64_t self_sum = p.self_ns(Subsystem::kDispatch) +
                                   p.self_ns(Subsystem::kStoreAppend) +
                                   p.self_ns(Subsystem::kCodecEncode);
    EXPECT_EQ(self_sum, p.total_ns(Subsystem::kDispatch));
}

TEST_F(ProfTest, ReenteredSubsystemAccumulatesCounts) {
    Profiler p(&fake_clock);
    for (int i = 0; i < 3; ++i) {
        p.begin(Subsystem::kCodecDecode);
        g_fake_now += 10;
        p.end();
    }
    EXPECT_EQ(p.count(Subsystem::kCodecDecode), 3u);
    EXPECT_EQ(p.self_ns(Subsystem::kCodecDecode), 30u);
}

TEST_F(ProfTest, UnbalancedEndIsIgnored) {
    Profiler p(&fake_clock);
    p.end();  // nothing open — must not underflow or crash
    EXPECT_EQ(p.depth(), 0u);
    p.begin(Subsystem::kAudit);
    g_fake_now += 5;
    p.end();
    p.end();
    EXPECT_EQ(p.count(Subsystem::kAudit), 1u);
}

TEST_F(ProfTest, StackOverflowDegradesGracefully) {
    Profiler p(&fake_clock);
    // Far past the fixed stack: the extra begins are dropped and their
    // ends swallowed, leaving the stack balanced.
    const int deep = 200;
    for (int i = 0; i < deep; ++i) {
        p.begin(Subsystem::kDispatch);
        g_fake_now += 1;
    }
    for (int i = 0; i < deep; ++i) {
        p.end();
        g_fake_now += 1;
    }
    EXPECT_EQ(p.depth(), 0u);
    EXPECT_LE(p.count(Subsystem::kDispatch), 64u);
    // Still usable afterwards.
    p.begin(Subsystem::kAudit);
    g_fake_now += 7;
    p.end();
    EXPECT_EQ(p.count(Subsystem::kAudit), 1u);
    EXPECT_EQ(p.self_ns(Subsystem::kAudit), 7u);
}

TEST_F(ProfTest, SimRateIsVirtualOverWall) {
    Profiler p(&fake_clock);
    EXPECT_DOUBLE_EQ(p.sim_rate(), 0.0);
    p.add_sim_progress(2'000'000'000, 1'000'000'000);
    p.add_sim_progress(2'000'000'000, 1'000'000'000);
    EXPECT_DOUBLE_EQ(p.sim_rate(), 2.0);
    EXPECT_EQ(p.sim_virtual_ns(), 4'000'000'000);
    EXPECT_EQ(p.sim_wall_ns(), 2'000'000'000u);
}

TEST_F(ProfTest, ScopeIsInertWithoutActiveProfiler) {
    ASSERT_EQ(Profiler::active(), nullptr);
    {
        ZC_PROF_SCOPE(kCryptoSign);  // must compile to a no-op path
        ZC_PROF_SCOPE(kCryptoVerify);
    }
    // Nothing to observe — the contract is "no crash, no global access".
    Profiler p(&fake_clock);
    EXPECT_EQ(p.count(Subsystem::kCryptoSign), 0u);
}

TEST_F(ProfTest, ScopeCapturesActiveProfilerAtConstruction) {
    Profiler p(&fake_clock);
    Profiler::set_active(&p);
    {
        ZC_PROF_SCOPE(kAudit);
        g_fake_now += 11;
        // Deactivating mid-scope must not unbalance the stack: the scope
        // captured &p at construction and still closes it.
        Profiler::set_active(nullptr);
    }
    EXPECT_EQ(p.depth(), 0u);
    EXPECT_EQ(p.count(Subsystem::kAudit), 1u);
    EXPECT_EQ(p.self_ns(Subsystem::kAudit), 11u);
}

TEST_F(ProfTest, SnapshotJsonShape) {
    Profiler p(&fake_clock);
    p.begin(Subsystem::kCryptoSign);
    g_fake_now += 2'000'000;  // 2 ms
    p.end();
    p.add_sim_progress(1'000'000'000, 500'000'000);
    g_fake_now += 1'000'000;

    const Profiler::Snapshot snap = p.snapshot();
    EXPECT_DOUBLE_EQ(snap.sim_rate, 2.0);
    EXPECT_GT(snap.wall_s, 0.0);
    EXPECT_NEAR(snap.covered_s, 0.002, 1e-9);

    const std::string json = snap.json();
    EXPECT_EQ(json.rfind("{\"sim_rate\":", 0), 0u) << json;
    EXPECT_NE(json.find("\"subsystems\":{\"setup\":{\"self_s\":"), std::string::npos) << json;
    EXPECT_NE(json.find("\"crypto_sign\":{\"self_s\":0.0020"), std::string::npos) << json;
    EXPECT_NE(json.find("\"peak_rss_bytes\":"), std::string::npos) << json;
    EXPECT_NE(json.find("\"sha256_blocks\":"), std::string::npos) << json;
    EXPECT_EQ(json.back(), '}');
    // All twelve buckets present, in enum order.
    for (unsigned i = 0; i < kSubsystemCount; ++i) {
        EXPECT_NE(json.find("\"" + std::string(subsystem_name(static_cast<Subsystem>(i))) +
                            "\":{"),
                  std::string::npos);
    }
}

TEST_F(ProfTest, SnapshotCountsSha256BlocksSinceConstruction) {
    crypto::sha256(Bytes(100, 0x01));  // before the profiler: not counted
    Profiler p(&fake_clock);
    crypto::sha256(Bytes(100, 0x02));  // 100 B + padding = 2 blocks
    crypto::sha256(Bytes(10, 0x03));   // 1 block
    EXPECT_EQ(p.snapshot().sha256_blocks, 3u);
    EXPECT_NE(p.snapshot().json().find("\"sha256_blocks\":3,"), std::string::npos);
}

TEST_F(ProfTest, PeakRssIsReportedOnLinux) {
#ifdef __linux__
    EXPECT_GT(peak_rss_bytes(), 0u);
#else
    SUCCEED();
#endif
}

}  // namespace
}  // namespace zc::prof
