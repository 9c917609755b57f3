#include <gtest/gtest.h>

#include <tuple>

#include "crypto/context.hpp"
#include "crypto/verify_cache.hpp"
#include "runtime/scenario.hpp"

namespace zc::runtime {
namespace {

/// All live nodes must hold identical chains up to the shortest head —
/// the core safety property of the replicated JRU.
void expect_consistent_chains(Scenario& s) {
    Height min_head = ~0ull;
    for (std::size_t i = 0; i < s.node_count(); ++i) {
        if (!s.node(i).alive()) continue;
        min_head = std::min(min_head, s.node(i).store().head_height());
    }
    ASSERT_NE(min_head, ~0ull);
    Node* reference = nullptr;
    for (std::size_t i = 0; i < s.node_count(); ++i) {
        if (!s.node(i).alive()) continue;
        if (reference == nullptr) {
            reference = &s.node(i);
            continue;
        }
        for (Height h = std::max(s.node(i).store().base_height(),
                                 reference->store().base_height());
             h <= min_head; ++h) {
            const auto* a = reference->store().header(h);
            const auto* b = s.node(i).store().header(h);
            if (a == nullptr || b == nullptr) continue;
            EXPECT_EQ(a->hash(), b->hash()) << "chain divergence at height " << h;
        }
    }
}

ScenarioConfig base_config() {
    ScenarioConfig cfg;
    cfg.warmup = seconds(2);
    cfg.duration = seconds(20);
    cfg.payload_size = 256;
    cfg.default_tap_faults = {};  // clean bus unless a test injects faults
    return cfg;
}

TEST(ScenarioZugChain, NormalOperationLogsAndChains) {
    ScenarioConfig cfg = base_config();
    Scenario s(cfg);
    // Bytes that do not decode as an envelope are dropped by the node:
    // they never reach its replica and logging carries on.
    const Bytes garbage = {0xDE, 0xAD, 0xBE, 0xEF};
    for (int k = 1; k <= 10; ++k) {
        s.sim().schedule(seconds(2 * k), [&s, garbage] { s.network().send(1, 0, garbage); });
    }
    s.run();
    const ScenarioReport r = s.report();
    EXPECT_EQ(s.node(0).replica().stats().invalid_messages, 0u);

    // ~15.6 telegrams/s for 20 s of measurement, one unique record each.
    EXPECT_GT(r.logged_unique, 250u);
    EXPECT_GT(r.blocks, 25u);
    EXPECT_EQ(r.duplicates_decided, 0u);
    EXPECT_EQ(r.suspects, 0u);
    expect_consistent_chains(s);

    // Chain content is valid on every node.
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_TRUE(s.node(i).store().validate(s.node(i).store().base_height(),
                                               s.node(i).store().head_height()));
    }
}

TEST(ScenarioZugChain, LatencyWithinJruBudget) {
    ScenarioConfig cfg = base_config();
    Scenario s(cfg);
    s.run();
    const ScenarioReport r = s.report();
    ASSERT_FALSE(r.latency_ms.empty());
    // Paper: ~14 ms ordering latency, 500 ms JRU budget.
    EXPECT_LT(r.latency_ms.mean(), 50.0);
    EXPECT_LT(r.latency_ms.percentile(0.99), 500.0);
}

TEST(ScenarioZugChain, EachPayloadOrderedOnce) {
    ScenarioConfig cfg = base_config();
    Scenario s(cfg);
    s.run();

    // With a clean bus all nodes read identical data; the layer must
    // order each telegram exactly once (filtering, not n times).
    const auto& stats = s.node(0).layer()->stats();
    EXPECT_EQ(stats.duplicates_decided, 0u);
    const std::uint64_t telegrams = s.node(0).telegrams_seen();
    // logged (whole run) is at most telegrams + warmup margin.
    EXPECT_LE(stats.logged, telegrams);
    EXPECT_GE(stats.logged, telegrams * 9 / 10);
}

TEST(ScenarioBaseline, OrdersEachPayloadFourTimes) {
    ScenarioConfig cfg = base_config();
    cfg.mode = Mode::kBaseline;
    Scenario s(cfg);
    s.run();
    const ScenarioReport r = s.report();

    const std::uint64_t telegrams = s.node(0).telegrams_seen();
    // Every node submits every telegram: ~4x ordering.
    EXPECT_GT(r.logged_unique, telegrams * 3);
    expect_consistent_chains(s);
}

TEST(ScenarioComparison, ZugChainUsesLessNetworkAndCpu) {
    ScenarioConfig cfg = base_config();
    Scenario zc(cfg);
    zc.run();
    const ScenarioReport zr = zc.report();

    cfg.mode = Mode::kBaseline;
    Scenario bl(cfg);
    bl.run();
    const ScenarioReport br = bl.report();

    // Paper: baseline network ~4x, CPU ~3-4x, memory ~1.7x.
    EXPECT_GT(static_cast<double>(br.total_bytes), 2.5 * static_cast<double>(zr.total_bytes));
    EXPECT_GT(br.nodes[0].cpu_cores, 2.0 * zr.nodes[0].cpu_cores);
    EXPECT_GT(br.latency_ms.mean(), zr.latency_ms.mean());
    EXPECT_GT(br.nodes[0].mem_avg_mb, zr.nodes[0].mem_avg_mb);
}

TEST(ScenarioFaults, BackupCrashDoesNotStopLogging) {
    ScenarioConfig cfg = base_config();
    cfg.crash_schedule = {{seconds(5), 3}};
    Scenario s(cfg);
    s.run();
    const ScenarioReport r = s.report();
    EXPECT_GT(r.logged_unique, 250u);
    EXPECT_EQ(r.duplicates_decided, 0u);
    expect_consistent_chains(s);
}

TEST(ScenarioFaults, PrimaryCrashTriggersViewChangeAndRecovers) {
    ScenarioConfig cfg = base_config();
    cfg.duration = seconds(30);
    cfg.crash_schedule = {{seconds(10), 0}};
    Scenario s(cfg);
    s.run();

    // A new primary was installed on the survivors...
    EXPECT_GE(s.node(1).replica().stats().new_views_installed, 1u);
    EXPECT_EQ(s.node(1).replica().primary(), 1u);

    // ...and logging continued afterwards (node 1's chain keeps growing).
    const Height head_1 = s.node(1).store().head_height();
    s.run_for(seconds(5));
    EXPECT_GT(s.node(1).store().head_height(), head_1);
    expect_consistent_chains(s);
}

TEST(ScenarioFaults, DivergentBusReadsAreAllLogged) {
    ScenarioConfig cfg = base_config();
    // Node 2 reads diverging values in ~20% of cycles: those unique
    // payloads must also end up in the (shared) log via soft timeouts.
    bus::TapFaults diverging;
    diverging.diverge = 0.2;
    cfg.tap_faults[2] = diverging;
    Scenario s(cfg);
    s.run();

    const auto& stats2 = s.node(2).layer()->stats();
    EXPECT_GT(stats2.broadcasts, 5u);  // node 2 had to broadcast its unique reads

    // Everything node 2 received was eventually logged: its layer queue
    // drains (allow a handful of in-flight cycles at cut-off).
    EXPECT_LT(s.node(2).layer()->open_requests(), 8u);
    expect_consistent_chains(s);

    // The log on node 0 contains entries whose origin is node 2.
    bool found_origin_2 = false;
    const auto& store = s.node(0).store();
    for (Height h = store.base_height(); h <= store.head_height(); ++h) {
        const chain::Block* b = store.get(h);
        if (b == nullptr) continue;
        for (const auto& req : b->requests) found_origin_2 |= (req.origin == 2);
    }
    EXPECT_TRUE(found_origin_2);
}

TEST(ScenarioFaults, BusDropsRecoveredViaPeers) {
    ScenarioConfig cfg = base_config();
    bus::TapFaults lossy;
    lossy.drop = 0.3;  // node 1 misses 30 % of cycles
    cfg.tap_faults[1] = lossy;
    Scenario s(cfg);
    s.run();
    const ScenarioReport r = s.report();
    // The log is still complete (data received by the other nodes).
    EXPECT_GT(r.logged_unique, 250u);
    expect_consistent_chains(s);
}

TEST(ScenarioByzantine, FabricatorIsRateLimitedButSystemKeepsLogging) {
    ScenarioConfig cfg = base_config();
    ByzantineBehavior byz;
    byz.fabricate_rate = 1.0;  // fabricated request every cycle
    cfg.byzantine[3] = byz;
    Scenario s(cfg);
    s.run();
    const ScenarioReport r = s.report();

    EXPECT_GT(r.logged_unique, 250u);  // real traffic still ordered
    expect_consistent_chains(s);

    // Fabricated data is logged with the faulty node's id (complete log
    // of system behaviour, §III-B) — find origin-3 entries.
    bool found_origin_3 = false;
    const auto& store = s.node(0).store();
    for (Height h = store.base_height(); h <= store.head_height(); ++h) {
        const chain::Block* b = store.get(h);
        if (b == nullptr) continue;
        for (const auto& req : b->requests) found_origin_3 |= (req.origin == 3);
    }
    EXPECT_TRUE(found_origin_3);
}

TEST(ScenarioByzantine, DelayingPrimaryCausesSoftTimeoutsNotViewChange) {
    ScenarioConfig cfg = base_config();
    ByzantineBehavior byz;
    byz.preprepare_delay = milliseconds(250);  // soft fires, hard does not
    cfg.byzantine[0] = byz;
    cfg.duration = seconds(20);
    Scenario s(cfg);
    s.run();
    const ScenarioReport r = s.report();

    EXPECT_GT(s.node(1).layer()->stats().soft_timeouts, 10u);
    EXPECT_EQ(s.node(1).replica().stats().new_views_installed, 0u);
    EXPECT_GT(r.logged_unique, 200u);
    // Latency suffers but the log stays correct.
    EXPECT_GT(r.latency_ms.mean(), 100.0);
    expect_consistent_chains(s);
}

TEST(ScenarioByzantine, CensoringPrimaryIsReplaced) {
    ScenarioConfig cfg = base_config();
    ByzantineBehavior byz;
    byz.drop_preprepares = true;
    cfg.byzantine[0] = byz;
    cfg.duration = seconds(30);
    Scenario s(cfg);
    s.run();

    EXPECT_GE(s.node(1).replica().stats().new_views_installed, 1u);
    EXPECT_GT(s.report().logged_unique, 100u);
    expect_consistent_chains(s);
}

TEST(ScenarioByzantine, DuplicateProposingPrimaryIsSuspected) {
    ScenarioConfig cfg = base_config();
    ByzantineBehavior byz;
    byz.duplicate_rate = 0.5;
    cfg.byzantine[0] = byz;
    cfg.duration = seconds(30);
    Scenario s(cfg);
    s.run();

    // Backups detect the payload duplicates on DECIDE and change views.
    EXPECT_GT(s.node(1).layer()->stats().duplicates_decided, 0u);
    EXPECT_GE(s.node(1).replica().stats().new_views_installed, 1u);
    expect_consistent_chains(s);
}

TEST(ScenarioPartition, IsolatedNodeCatchesUpViaStateTransfer) {
    ScenarioConfig cfg = base_config();
    cfg.duration = seconds(30);
    Scenario s(cfg);

    // Cut node 3 off the consensus network (it still reads the bus).
    for (NodeId i = 0; i < 3; ++i) {
        s.network().set_blocked(i, 3, true);
        s.network().set_blocked(3, i, true);
    }
    s.run_for(seconds(12));
    const Height behind = s.node(3).store().head_height();
    EXPECT_LT(behind + 5, s.node(0).store().head_height());

    // Heal the partition: node 3 must catch up via checkpoint sync.
    for (NodeId i = 0; i < 3; ++i) {
        s.network().set_blocked(i, 3, false);
        s.network().set_blocked(3, i, false);
    }
    s.run();
    EXPECT_GT(s.node(3).store().head_height() + 5, s.node(0).store().head_height());
    expect_consistent_chains(s);
}

TEST(ScenarioDeterminism, SameSeedSameResult) {
    ScenarioConfig cfg = base_config();
    cfg.duration = seconds(10);
    cfg.seed = 1234;
    Scenario a(cfg);
    a.run();
    Scenario b(cfg);
    b.run();
    EXPECT_EQ(a.node(0).store().head_hash(), b.node(0).store().head_hash());
    EXPECT_EQ(a.report().total_bytes, b.report().total_bytes);
}

// The simulator runs every node on one host thread, so the host-side
// settings left to vary are the verify shortcuts: re-running the
// provider on every memo/cache hit, or disabling the process-global
// VerifyCache, must leave a single consist's outputs byte-identical.
TEST(ThreadsDeterminism, SingleConsistIdenticalAcrossThreadCounts) {
    auto run_once = [] {
        ScenarioConfig cfg;
        cfg.warmup = seconds(1);
        cfg.duration = seconds(8);
        cfg.payload_size = 256;
        cfg.seed = 4242;
        cfg.default_tap_faults = {};
        Scenario s(cfg);
        s.run();
        const ScenarioReport r = s.report();
        return std::make_tuple(s.node(0).store().head_hash(), r.total_bytes, r.logged_unique,
                               r.blocks, r.duplicates_decided);
    };
    const auto baseline = run_once();
    EXPECT_GT(std::get<2>(baseline), 0u);
    EXPECT_EQ(run_once(), baseline) << "same seed";

    crypto::CryptoContext::set_host_recheck(true);
    EXPECT_EQ(run_once(), baseline) << "recheck on";
    crypto::CryptoContext::set_host_recheck(false);

    crypto::global_verify_cache().set_enabled(false);
    EXPECT_EQ(run_once(), baseline) << "verify cache off";
    crypto::global_verify_cache().set_enabled(true);
}

TEST(ScenarioDeterminism, SameSeedSameResultWithBatching) {
    ScenarioConfig cfg = base_config();
    cfg.duration = seconds(10);
    cfg.seed = 1234;
    cfg.batch_max_requests = 8;
    cfg.batch_linger = milliseconds(2);
    Scenario a(cfg);
    a.run();
    Scenario b(cfg);
    b.run();
    EXPECT_EQ(a.node(0).store().head_hash(), b.node(0).store().head_hash());
    EXPECT_EQ(a.report().total_bytes, b.report().total_bytes);
    EXPECT_GT(a.report().logged_unique, 0u);
}

TEST(ScenarioDeterminism, DifferentSeedsDifferentTraces) {
    ScenarioConfig cfg = base_config();
    cfg.duration = seconds(10);
    cfg.seed = 1;
    Scenario a(cfg);
    a.run();
    cfg.seed = 2;
    Scenario b(cfg);
    b.run();
    EXPECT_NE(a.node(0).store().head_hash(), b.node(0).store().head_hash());
}

}  // namespace
}  // namespace zc::runtime
