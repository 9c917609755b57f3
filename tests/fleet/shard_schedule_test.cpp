// Per-train schedules and observers, checked at construction: fleet chaos
// is lowered into each train's own fault schedule (validated there), and
// every consist — a Scenario or a fleet train — lowers that schedule into
// its liveness auditor's dark spans the same way.
#include <gtest/gtest.h>

#include "fleet/fleet.hpp"
#include "runtime/scenario.hpp"

namespace zc::fleet {
namespace {

using Window = std::pair<Duration, Duration>;
using LinkFlap = runtime::ScenarioConfig::LinkFlap;

FleetConfig two_trains() {
    FleetConfig cfg;
    cfg.trains = 2;
    cfg.dc_count = 2;
    cfg.warmup = seconds(2);
    cfg.duration = seconds(28);
    return cfg;
}

LinkFlap node_flap(NodeId node, Duration at, Duration duration) {
    LinkFlap flap;
    flap.at = at;
    flap.duration = duration;
    flap.link = LinkFlap::Link::kNode;
    flap.node = node;
    return flap;
}

TEST(FleetChaosValidation, RejectsCrashNamingAnUnknownTrainOrNode) {
    FleetConfig cfg = two_trains();
    cfg.chaos.crashes.push_back({2, 0, seconds(5), seconds(2)});
    EXPECT_THROW(Fleet{cfg}, std::invalid_argument);
    cfg.chaos.crashes = {{1, cfg.train.n, seconds(5), seconds(2)}};
    EXPECT_THROW(Fleet{cfg}, std::invalid_argument);
}

TEST(FleetChaosValidation, RejectsDeadZoneNamingAnUnknownTrain) {
    FleetConfig cfg = two_trains();
    cfg.chaos.dead_zones.push_back({2, seconds(5), seconds(3)});
    EXPECT_THROW(Fleet{cfg}, std::invalid_argument);
}

TEST(FleetChaosValidation, RejectsOutageNamingAnUnknownDataCenter) {
    FleetConfig cfg = two_trains();
    cfg.chaos.dc_outages.push_back({2, seconds(5), seconds(3)});
    EXPECT_THROW(Fleet{cfg}, std::invalid_argument);
}

TEST(FleetChaosValidation, RejectsDeadZoneOverlappingAnOverlayLteFlap) {
    // One uplink, two windows that both want it dark: whichever closes
    // first would reopen it early. The merged per-train schedule is
    // validated like any consist's, so the overlap is an error.
    FleetConfig cfg = two_trains();
    LinkFlap tunnel;
    tunnel.at = seconds(5);
    tunnel.duration = seconds(6);
    tunnel.link = LinkFlap::Link::kLte;
    cfg.overlays[1].link_flaps.push_back(tunnel);
    cfg.chaos.dead_zones.push_back({1, seconds(9), seconds(4)});
    EXPECT_THROW(Fleet{cfg}, std::invalid_argument);

    cfg.chaos.dead_zones = {{0, seconds(9), seconds(4)}};  // another train: fine
    EXPECT_NO_THROW(Fleet{cfg});
}

TEST(LivenessWiring, ScenarioLowersCrashRestartAndLteFlap) {
    faults::LivenessAuditor liveness;
    faults::LivenessConfig preset;
    preset.n = 99;
    preset.f = 7;
    preset.min_window = seconds(5);  // a caller's threshold survives
    liveness.configure(preset);

    runtime::ScenarioConfig cfg;
    cfg.dc_count = 1;
    cfg.duration = seconds(28);
    cfg.liveness = &liveness;
    cfg.crash_schedule.emplace_back(seconds(5), 1);  // fail-stop ...
    cfg.restart_schedule.emplace_back(seconds(9), 1);  // ... restarted at 9 s
    cfg.link_flaps.push_back(node_flap(2, seconds(6), seconds(2)));
    LinkFlap lte;
    lte.at = seconds(12);
    lte.duration = seconds(3);
    cfg.link_flaps.push_back(lte);
    runtime::Scenario scenario(cfg);

    EXPECT_EQ(liveness.config().n, 4u);
    EXPECT_EQ(liveness.config().f, 1u);
    EXPECT_TRUE(liveness.config().check_exports);
    EXPECT_EQ(liveness.config().min_window, seconds(5));
    // Nodes 1 and 2 are both dark in [6 s, 8 s): more than f, no quorum.
    EXPECT_EQ(liveness.good_windows(),
              (std::vector<Window>{{Duration{0}, seconds(6)}, {seconds(8), seconds(30)}}));
    ASSERT_EQ(liveness.uplink_dark().size(), 1u);
    EXPECT_EQ(liveness.uplink_dark()[0].from, seconds(12));
    EXPECT_EQ(liveness.uplink_dark()[0].to, seconds(15));
}

TEST(LivenessWiring, FleetChaosIsDarkOnlyOnItsOwnTrain) {
    FleetConfig cfg = two_trains();
    cfg.audit_liveness = true;
    // The same node flap on both trains; only train 1 also loses a node
    // to a chaos crash while the flap is on, which breaks its quorum.
    for (TrainId t = 0; t < 2; ++t) {
        cfg.overlays[t].link_flaps.push_back(node_flap(2, seconds(6), seconds(2)));
    }
    cfg.chaos.crashes.push_back({1, 1, seconds(5), seconds(4)});
    cfg.chaos.dead_zones.push_back({1, seconds(12), seconds(2)});
    // Every DC down in [17 s, 20 s): dark uplink on every train.
    cfg.chaos.dc_outages.push_back({0, seconds(15), seconds(5)});
    cfg.chaos.dc_outages.push_back({1, seconds(17), seconds(8)});
    Fleet fleet(cfg);

    const faults::LivenessAuditor* t0 = fleet.liveness(0);
    const faults::LivenessAuditor* t1 = fleet.liveness(1);
    ASSERT_NE(t0, nullptr);
    ASSERT_NE(t1, nullptr);
    EXPECT_EQ(t0->good_windows(), (std::vector<Window>{{Duration{0}, seconds(30)}}));
    EXPECT_EQ(t1->good_windows(),
              (std::vector<Window>{{Duration{0}, seconds(6)}, {seconds(8), seconds(30)}}));
    ASSERT_EQ(t0->uplink_dark().size(), 1u);
    EXPECT_EQ(t0->uplink_dark()[0].from, seconds(17));
    EXPECT_EQ(t0->uplink_dark()[0].to, seconds(20));
    ASSERT_EQ(t1->uplink_dark().size(), 2u);
    EXPECT_EQ(t1->uplink_dark()[0].from, seconds(12));
    EXPECT_EQ(t1->uplink_dark()[0].to, seconds(14));
    EXPECT_EQ(t1->uplink_dark()[1].from, seconds(17));
}

}  // namespace
}  // namespace zc::fleet
