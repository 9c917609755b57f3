// End-to-end adversary scenarios: one compromised node (n=4, f=1) runs
// each named attack profile while the safety auditor checks the paper's
// guarantees on the correct nodes. Also the state-transfer poisoning
// regression (stage-then-adopt) and same-seed determinism under attack.
#include <gtest/gtest.h>

#include "faults/profiles.hpp"
#include "runtime/scenario.hpp"

namespace zc::runtime {
namespace {

ScenarioConfig adversarial_config(faults::SafetyAuditor& auditor) {
    ScenarioConfig cfg;
    cfg.warmup = seconds(2);
    cfg.duration = seconds(18);
    cfg.payload_size = 256;
    cfg.default_tap_faults = {};
    cfg.auditor = &auditor;
    cfg.audit_period = seconds(4);
    return cfg;
}

/// Convergence: every live node's chain agrees with node 1 (always
/// correct in these tests) on their shared prefix.
void expect_converged(Scenario& s) {
    auto& ref = s.node(1).store();
    for (std::size_t i = 0; i < s.node_count(); ++i) {
        if (!s.node(i).alive()) continue;
        auto& store = s.node(i).store();
        const Height hi = std::min(store.head_height(), ref.head_height());
        const Height lo = std::max(store.base_height(), ref.base_height());
        if (hi < lo) continue;
        ASSERT_NE(store.header(hi), nullptr) << "node " << i;
        EXPECT_EQ(store.header(hi)->hash(), ref.header(hi)->hash()) << "node " << i;
    }
}

class ProfileTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ProfileTest, SingleCompromisedNodeCannotViolateSafety) {
    faults::SafetyAuditor auditor;
    ScenarioConfig cfg = adversarial_config(auditor);
    cfg.byzantine[0] = *faults::profile_config(GetParam());
    // The poisoner only attacks serving paths: give it a state-transfer
    // victim (crash + restart) so its attempts register.
    if (GetParam() == "poisoner") {
        cfg.crash_schedule.emplace_back(seconds(8), 2, seconds(5));
    }

    Scenario s(cfg);
    s.run();
    s.run_audit();

    EXPECT_TRUE(auditor.report().clean())
        << GetParam() << ": " << auditor.report().json();
    EXPECT_GE(s.node(0).adversary()->stats().attempts(), 1u)
        << GetParam() << " profile never fired";
    expect_converged(s);

    // Liveness is allowed to degrade under attack (digest tampering by
    // the primary forces repeated view changes) but never to zero: some
    // correct node must still have extended the chain.
    Height best = 0;
    for (std::size_t i = 1; i < s.node_count(); ++i) {
        best = std::max(best, s.node(i).store().head_height());
    }
    EXPECT_GE(best, 1u);
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, ProfileTest,
                         ::testing::ValuesIn(faults::profile_names()),
                         [](const auto& info) {
                             std::string name = info.param;
                             for (char& c : name) {
                                 if (c == '-') c = '_';
                             }
                             return name;
                         });

TEST(AdversaryScenario, EquivocationAcrossViewChangeConverges) {
    faults::SafetyAuditor auditor;
    ScenarioConfig cfg = adversarial_config(auditor);
    cfg.duration = seconds(25);
    cfg.byzantine[0] = *faults::profile_config("equivocator");
    // Force a view change mid-run (the equivocator is the initial
    // primary; its crash moves the cluster to view 1 and back later).
    cfg.crash_schedule.emplace_back(seconds(10), 0, seconds(5));

    Scenario s(cfg);
    s.run();
    s.run_audit();

    EXPECT_TRUE(auditor.report().clean()) << auditor.report().json();
    EXPECT_GE(s.node(0).adversary()->stats().equivocations, 1u);
    EXPECT_GE(s.node(1).replica().stats().new_views_installed, 1u);
    expect_converged(s);
}

TEST(AdversaryScenario, StateTransferPoisoningRejectedAndVictimRejoins) {
    faults::SafetyAuditor auditor;
    ScenarioConfig cfg = adversarial_config(auditor);
    cfg.duration = seconds(25);
    // Node 0 serves forged-but-hash-linked ranges to rejoiners; the
    // fetcher tries peers in ascending id order, so the victim asks the
    // poisoner first.
    cfg.byzantine[0] = *faults::profile_config("poisoner");
    cfg.crash_schedule.emplace_back(seconds(8), 2, seconds(6));

    Scenario s(cfg);
    s.run();
    s.run_audit();

    // The forged range was offered and rejected; the victim then fetched
    // from an honest peer and rejoined with a clean chain.
    EXPECT_GE(s.node(0).adversary()->stats().st_poisonings, 1u);
    EXPECT_GE(s.state_transfer_rejected(), 1u);
    EXPECT_GE(s.state_transfer_fetches(), 1u);
    EXPECT_TRUE(s.node(2).alive());
    EXPECT_TRUE(auditor.report().clean()) << auditor.report().json();
    expect_converged(s);

    // The victim's durable store never absorbed a forged block.
    auto& victim = s.node(2).store();
    EXPECT_TRUE(victim.validate(victim.base_height(), victim.head_height()));
}

TEST(AdversaryScenario, SameSeedSameResultUnderAttack) {
    auto run_once = [](std::uint64_t seed) {
        faults::SafetyAuditor auditor;
        ScenarioConfig cfg;
        cfg.warmup = seconds(2);
        cfg.duration = seconds(12);
        cfg.payload_size = 256;
        cfg.seed = seed;
        cfg.auditor = &auditor;
        cfg.byzantine[0] = *faults::profile_config("tamperer");
        cfg.crash_schedule.emplace_back(seconds(6), 2, seconds(4));
        Scenario s(cfg);
        s.run();
        s.run_audit();
        struct Result {
            Height heads[4];
            std::uint64_t attempts;
            std::uint64_t rejected;
            std::uint64_t invalid;
            std::string audit_json;
        } r;
        for (int i = 0; i < 4; ++i) r.heads[i] = s.node(i).store().head_height();
        r.attempts = s.node(0).adversary()->stats().attempts();
        r.rejected = s.state_transfer_rejected();
        // Messages the correct replicas refused (tampered signatures).
        r.invalid = 0;
        for (int i = 1; i < 4; ++i) r.invalid += s.node(i).replica().stats().invalid_messages;
        r.audit_json = auditor.report().json();
        return std::make_tuple(std::vector<Height>(r.heads, r.heads + 4), r.attempts,
                               r.rejected, r.invalid, r.audit_json);
    };
    const auto first = run_once(42);
    EXPECT_EQ(first, run_once(42));
    EXPECT_NE(std::get<1>(first), 0u);
    EXPECT_NE(std::get<3>(first), 0u) << "tampered signatures must be rejected";
}

}  // namespace
}  // namespace zc::runtime
