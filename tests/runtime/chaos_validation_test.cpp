// Up-front chaos-schedule validation (runtime/validate.hpp): a schedule
// that cannot mean what it says — more than f concurrent crashes,
// flapping a link of a node that is down, overlapping windows of the
// same link, a per-node entry naming a node that does not exist — must
// be rejected with a clear message before the run starts, not die on a
// mid-run assert or be silently ignored.
#include <gtest/gtest.h>

#include "runtime/scenario.hpp"
#include "runtime/validate.hpp"

namespace zc::runtime {
namespace {

using LinkFlap = ScenarioConfig::LinkFlap;

ScenarioConfig base_config() {
    ScenarioConfig cfg;
    cfg.n = 4;
    cfg.f = 1;
    cfg.warmup = seconds(1);
    cfg.duration = seconds(30);
    return cfg;
}

bool mentions(const std::optional<std::string>& err, const char* needle) {
    return err.has_value() && err->find(needle) != std::string::npos;
}

TEST(ChaosValidation, AcceptsBudgetedSchedule) {
    ScenarioConfig cfg = base_config();
    cfg.crash_schedule = {{seconds(5), 1, seconds(3)}};
    ScenarioConfig::LinkFlap flap;
    flap.at = seconds(12);
    flap.duration = seconds(4);
    cfg.link_flaps = {flap};
    cfg.rate_windows = {{seconds(20), seconds(5), 0.5}};
    EXPECT_EQ(validate_scenario_faults(cfg), std::nullopt);
}

TEST(ChaosValidation, RejectsMoreThanFConcurrentCrashes) {
    ScenarioConfig cfg = base_config();
    // Node 1 down [5, 15), node 2 down [8, ...): two down at t=8 > f=1.
    cfg.crash_schedule = {{seconds(5), 1, seconds(10)}, {seconds(8), 2, Duration::zero()}};
    const auto err = validate_scenario_faults(cfg);
    EXPECT_TRUE(mentions(err, "crash schedule")) << err.value_or("(none)");
}

TEST(ChaosValidation, RestartAtCrashInstantStaysInsideBudget) {
    ScenarioConfig cfg = base_config();
    // Node 1's restart coincides with node 2's crash: [5,8) then [8,...).
    cfg.crash_schedule = {{seconds(5), 1, seconds(3)}, {seconds(8), 2, seconds(3)}};
    EXPECT_EQ(validate_scenario_faults(cfg), std::nullopt);
}

TEST(ChaosValidation, RejectsCrashOfUnknownNode) {
    ScenarioConfig cfg = base_config();
    cfg.crash_schedule = {{seconds(5), 9, seconds(3)}};
    const auto err = validate_scenario_faults(cfg);
    EXPECT_TRUE(mentions(err, "n=4")) << err.value_or("(none)");
}

TEST(ChaosValidation, RejectsPerNodeEntriesOfUnknownNode) {
    {
        ScenarioConfig cfg = base_config();
        cfg.byzantine[9].mute = true;
        const auto err = validate_scenario_faults(cfg);
        EXPECT_TRUE(mentions(err, "byzantine entry names node 9 but n=4"))
            << err.value_or("(none)");
    }
    {
        ScenarioConfig cfg = base_config();
        cfg.cpu_profiles[4] = 2.0;  // ids are 0-based: 4 is one past the last node
        const auto err = validate_scenario_faults(cfg);
        EXPECT_TRUE(mentions(err, "cpu_profiles entry names node 4")) << err.value_or("(none)");
    }
    {
        ScenarioConfig cfg = base_config();
        cfg.tap_faults[7] = bus::TapFaults{0.1, 0.0, 0.0, 0.0};
        const auto err = validate_scenario_faults(cfg);
        EXPECT_TRUE(mentions(err, "tap_faults entry names node 7")) << err.value_or("(none)");
    }
    {
        // In range, all three are accepted.
        ScenarioConfig cfg = base_config();
        cfg.byzantine[3].mute = true;
        cfg.cpu_profiles[3] = 2.0;
        cfg.tap_faults[3] = bus::TapFaults{0.1, 0.0, 0.0, 0.0};
        EXPECT_EQ(validate_scenario_faults(cfg), std::nullopt);
    }
}

TEST(ChaosValidation, RejectsCrashWhileAlreadyDown) {
    ScenarioConfig cfg = base_config();
    cfg.crash_schedule = {{seconds(5), 1, seconds(10)}, {seconds(8), 1, seconds(2)}};
    const auto err = validate_scenario_faults(cfg);
    EXPECT_TRUE(mentions(err, "already down")) << err.value_or("(none)");
}

TEST(ChaosValidation, RejectsFlapIsolatingDownNode) {
    ScenarioConfig cfg = base_config();
    cfg.crash_schedule = {{seconds(5), 2, Duration::zero()}};  // fail-stop
    LinkFlap flap;
    flap.at = seconds(10);
    flap.duration = seconds(5);
    flap.link = LinkFlap::Link::kNode;
    flap.node = 2;
    cfg.link_flaps = {flap};
    const auto err = validate_scenario_faults(cfg);
    EXPECT_TRUE(mentions(err, "isolates node 2")) << err.value_or("(none)");
}

TEST(ChaosValidation, RejectsOverlappingFlapsOfSameLink) {
    ScenarioConfig cfg = base_config();
    LinkFlap first;
    first.at = seconds(5);
    first.duration = seconds(10);
    LinkFlap second;
    second.at = seconds(12);  // inside [5, 15)
    second.duration = seconds(4);
    cfg.link_flaps = {first, second};
    const auto err = validate_scenario_faults(cfg);
    EXPECT_TRUE(mentions(err, "overlap")) << err.value_or("(none)");
}

TEST(ChaosValidation, AcceptsBackToBackFlapsOfSameLink) {
    ScenarioConfig cfg = base_config();
    LinkFlap first;
    first.at = seconds(5);
    first.duration = seconds(7);
    LinkFlap second;
    second.at = seconds(12);  // starts exactly as the first closes
    second.duration = seconds(4);
    cfg.link_flaps = {first, second};
    EXPECT_EQ(validate_scenario_faults(cfg), std::nullopt);
}

TEST(ChaosValidation, AcceptsOverlappingFlapsOfDifferentLinks) {
    ScenarioConfig cfg = base_config();
    LinkFlap lte;
    lte.at = seconds(5);
    lte.duration = seconds(10);
    LinkFlap node3;
    node3.at = seconds(8);
    node3.duration = seconds(4);
    node3.link = LinkFlap::Link::kNode;
    node3.node = 3;
    LinkFlap node2;
    node2.at = seconds(14);
    node2.duration = seconds(4);
    node2.link = LinkFlap::Link::kNode;
    node2.node = 2;
    cfg.link_flaps = {lte, node3, node2};
    EXPECT_EQ(validate_scenario_faults(cfg), std::nullopt);
}

TEST(ChaosValidation, RejectsOverlappingRateWindows) {
    ScenarioConfig cfg = base_config();
    cfg.rate_windows = {{seconds(5), seconds(10), 0.5}, {seconds(12), seconds(5), 2.0}};
    const auto err = validate_scenario_faults(cfg);
    EXPECT_TRUE(mentions(err, "rate windows overlap")) << err.value_or("(none)");
}

TEST(ChaosValidation, ScenarioConstructorSurfacesTheError) {
    ScenarioConfig cfg = base_config();
    cfg.crash_schedule = {{seconds(5), 1, seconds(10)}, {seconds(8), 2, Duration::zero()}};
    EXPECT_THROW(Scenario{cfg}, std::invalid_argument);
    cfg.allow_unsafe_chaos = true;  // deliberate-majority harnesses opt out
    EXPECT_NO_THROW(Scenario{cfg});
}

}  // namespace
}  // namespace zc::runtime
