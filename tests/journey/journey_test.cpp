// Journey generator + chaos compiler unit tests: determinism, plan
// structure invariants, config validation, and the availability-budget
// guarantee of compiled recipes.
#include <gtest/gtest.h>

#include <algorithm>

#include "journey/compiler.hpp"
#include "journey/journey.hpp"
#include "runtime/validate.hpp"

namespace zc::journey {
namespace {

JourneyConfig small_config() {
    JourneyConfig jc;
    jc.seed = 42;
    jc.trains = 3;
    jc.days = 2;
    jc.nodes = 4;
    // Compressed days keep the unit test fast while exercising every
    // phase: service bursts, tunnels, the depot layover.
    jc.day_length = seconds(3600);
    jc.service_length = seconds(2700);
    return jc;
}

TEST(Journey, SameConfigSamePlan) {
    const JourneyPlan a = generate(small_config());
    const JourneyPlan b = generate(small_config());
    ASSERT_EQ(a.trains.size(), b.trains.size());
    EXPECT_EQ(a.summary(), b.summary());
    for (std::size_t t = 0; t < a.trains.size(); ++t) {
        const TrainPlan& ta = a.trains[t];
        const TrainPlan& tb = b.trains[t];
        ASSERT_EQ(ta.segments.size(), tb.segments.size());
        for (std::size_t i = 0; i < ta.segments.size(); ++i) {
            EXPECT_EQ(ta.segments[i].kind, tb.segments[i].kind);
            EXPECT_EQ(ta.segments[i].at, tb.segments[i].at);
            EXPECT_EQ(ta.segments[i].duration, tb.segments[i].duration);
        }
        EXPECT_EQ(ta.cpu_profiles, tb.cpu_profiles);
    }
}

TEST(Journey, SeedChangesThePlan) {
    JourneyConfig other = small_config();
    other.seed = 43;
    EXPECT_NE(generate(small_config()).summary(), generate(other).summary());
}

TEST(Journey, PlanStructureInvariants) {
    const JourneyConfig jc = small_config();
    const JourneyPlan plan = generate(jc);
    ASSERT_EQ(plan.trains.size(), jc.trains);
    EXPECT_EQ(plan.horizon, jc.day_length * jc.days);

    for (const TrainPlan& tp : plan.trains) {
        ASSERT_FALSE(tp.segments.empty());
        Duration prev_end{0};
        std::uint64_t stations = 0, tunnels = 0, depots = 0;
        for (const Segment& seg : tp.segments) {
            EXPECT_GE(seg.at, prev_end) << "segments overlap";
            EXPECT_GT(seg.duration, Duration::zero());
            EXPECT_LE(seg.at + seg.duration, plan.horizon);
            prev_end = seg.at + seg.duration;
            switch (seg.kind) {
                case SegmentKind::kStation:
                    stations++;
                    EXPECT_GE(seg.duration, jc.dwell_min);
                    EXPECT_LE(seg.duration, jc.dwell_max);
                    break;
                case SegmentKind::kTunnel:
                    tunnels++;
                    EXPECT_GE(seg.duration, jc.tunnel_min);
                    EXPECT_LE(seg.duration, jc.tunnel_max);
                    break;
                case SegmentKind::kDepot: depots++; break;
                case SegmentKind::kCruise: break;
            }
        }
        EXPECT_EQ(stations, tp.stations);
        EXPECT_EQ(tunnels, tp.tunnels);
        EXPECT_EQ(depots, jc.days) << "one depot layover per day";
        EXPECT_GT(stations, 0u);

        for (const auto& [node, factor] : tp.cpu_profiles) {
            EXPECT_LT(node, jc.nodes);
            EXPECT_GE(factor, jc.degraded_min);
            EXPECT_LE(factor, jc.degraded_max);
        }
    }
}

TEST(Journey, RejectsNonsenseConfig) {
    JourneyConfig jc = small_config();
    jc.trains = 0;
    EXPECT_THROW(generate(jc), std::invalid_argument);

    jc = small_config();
    jc.service_length = jc.day_length + seconds(1);
    EXPECT_THROW(generate(jc), std::invalid_argument);

    jc = small_config();
    jc.leg_min = jc.leg_max + seconds(1);
    EXPECT_THROW(generate(jc), std::invalid_argument);

    jc = small_config();
    jc.tunnel_prob = 1.5;
    EXPECT_THROW(generate(jc), std::invalid_argument);
}

TEST(JourneyCompiler, CompileIsDeterministic) {
    const JourneyPlan plan = generate(small_config());
    CompilerOptions opts;
    opts.recipes = 3;
    const CompiledJourney a = compile(plan, opts);
    const CompiledJourney b = compile(plan, opts);
    EXPECT_EQ(a.summary(), b.summary());
    ASSERT_EQ(a.recipes.size(), b.recipes.size());
    for (std::size_t i = 0; i < a.recipes.size(); ++i) {
        EXPECT_EQ(a.recipes[i].describe(), b.recipes[i].describe());
    }
}

TEST(JourneyCompiler, CompiledSingleConsistScheduleValidates) {
    // A single consist is a one-train fleet: its DC-outage recipe is a
    // real data-center outage, not a widened uplink flap.
    JourneyConfig jc = small_config();
    jc.trains = 1;
    const JourneyPlan plan = generate(jc);
    CompilerOptions opts;
    opts.recipes = 3;
    const CompiledJourney compiled = compile(plan, opts);
    ASSERT_EQ(compiled.overlays.size(), 1u);
    ASSERT_EQ(compiled.dc_outages.size(), 1u) << compiled.summary();

    fleet::FleetConfig cfg;
    cfg.trains = 1;
    cfg.train.n = opts.n;
    cfg.train.f = opts.f;
    apply(compiled, cfg);
    ASSERT_EQ(cfg.chaos.dc_outages.size(), 1u);
    EXPECT_LT(cfg.chaos.dc_outages[0].dc, cfg.dc_count);
    const auto& segments = plan.trains[0].segments;
    const auto& outage = cfg.chaos.dc_outages[0];
    EXPECT_TRUE(std::any_of(segments.begin(), segments.end(), [&](const Segment& seg) {
        return seg.kind == SegmentKind::kTunnel && outage.at <= seg.at &&
               seg.at + seg.duration <= outage.at + outage.duration;
    })) << "the outage covers a dead zone";

    EXPECT_FALSE(cfg.overlays.at(0).rate_windows.empty()) << "dwell/depot windows installed";
    EXPECT_FALSE(cfg.overlays.at(0).link_flaps.empty()) << "tunnel dead zones installed";
    // The train's shard validates its overlay against the f budget.
    EXPECT_NO_THROW(fleet::Fleet{cfg});
}

TEST(JourneyCompiler, CompiledFleetSchedulesValidatePerTrain) {
    const JourneyPlan plan = generate(small_config());
    CompilerOptions opts;
    opts.recipes = 6;  // two full cycles across three trains
    const CompiledJourney compiled = compile(plan, opts);
    ASSERT_EQ(compiled.overlays.size(), plan.trains.size());
    for (const auto& outage : compiled.dc_outages) {
        EXPECT_LT(outage.dc, opts.dc_count);
        EXPECT_GT(outage.duration, Duration::zero());
    }
    for (const auto& overlay : compiled.overlays) {
        runtime::ScenarioConfig cfg;
        cfg.n = opts.n;
        cfg.f = opts.f;
        cfg.crash_schedule = overlay.crash_schedule;
        cfg.restart_schedule = overlay.restart_schedule;
        cfg.link_flaps = overlay.link_flaps;
        cfg.rate_windows = overlay.rate_windows;
        EXPECT_EQ(runtime::validate_scenario_faults(cfg), std::nullopt);
    }
}

TEST(JourneyCompiler, ByzantinePopulationConsumesTheCrashBudget) {
    JourneyConfig jc = small_config();
    jc.trains = 1;
    const JourneyPlan plan = generate(jc);
    CompilerOptions opts;
    opts.recipes = 6;
    opts.byzantine[0] = {3};  // one Byzantine node on a 4-node f=1 shard
    const CompiledJourney compiled = compile(plan, opts);

    // With the budget consumed, no crash recipe may be placed: every
    // surviving recipe is the crash-free DC-outage kind, and the overlay
    // carries no crash schedule at all.
    for (const RecipeInstance& r : compiled.recipes) {
        EXPECT_EQ(r.kind, RecipeKind::kDcOutageOverDeadZone) << r.describe();
    }
    ASSERT_EQ(compiled.overlays.size(), 1u);
    EXPECT_TRUE(compiled.overlays[0].crash_schedule.empty());
}

}  // namespace
}  // namespace zc::journey
