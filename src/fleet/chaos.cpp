#include "fleet/chaos.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "common/rng.hpp"
#include "fleet/fleet.hpp"
#include "runtime/validate.hpp"

namespace zc::fleet {

FleetChaos FleetChaos::staggered(std::uint32_t trains, std::uint32_t dc_count, Duration run) {
    FleetChaos chaos;
    const std::int64_t run_ms = std::max<std::int64_t>(run.count() / 1'000'000, 1000);

    // Crash wave: every other train loses one node, spread across the
    // middle 40% of the run so the fleet never has two shards mid-rejoin
    // at exactly the same instant. The victim rotates through the cluster
    // (including the primary) and always restarts, so a healthy run ends
    // with every alarm cleared.
    const std::uint32_t crash_trains = std::max<std::uint32_t>(trains / 2, 1);
    for (std::uint32_t k = 0; k < crash_trains; ++k) {
        TrainCrash c;
        c.train = static_cast<TrainId>(k * 2 % trains);
        c.node = static_cast<NodeId>(k % 4);
        c.at = milliseconds(run_ms / 5 + static_cast<std::int64_t>(k) * (run_ms * 2 / 5) /
                                             crash_trains);
        c.restart_after = milliseconds(std::min<std::int64_t>(run_ms / 6, 8000));
        chaos.crashes.push_back(c);
    }

    // LTE dead zones: every third train goes dark for ~12% of the run,
    // staggered across the first half (tunnels come early on the line).
    for (std::uint32_t t = 0; t < trains; t += 3) {
        DeadZone z;
        z.train = t;
        z.at = milliseconds(run_ms / 10 + static_cast<std::int64_t>(t) * (run_ms * 2 / 5) /
                                              std::max<std::uint32_t>(trains, 1));
        z.duration = milliseconds(run_ms / 8);
        chaos.dead_zones.push_back(z);
    }

    // DC failover: data center 0 drops at 45% of the run and returns at
    // 80%, forcing every shard's exports onto the surviving DCs. Requires
    // a second DC to fail over to.
    if (dc_count > 1) {
        DcOutage o;
        o.dc = 0;
        o.at = milliseconds(run_ms * 45 / 100);
        o.duration = milliseconds(run_ms * 35 / 100);
        chaos.dc_outages.push_back(o);
    }
    return chaos;
}

// -- gray chaos compiler ----------------------------------------------------

namespace {

constexpr const char* kGrayNames[] = {"limping_node", "flapping_asym_link", "slow_creep"};

/// Placement keeps this clear of the window edges so a gray fault never
/// straddles warmup or the report cut.
constexpr Duration kGrayMargin = seconds(2);

bool overlaps_avoid(const std::vector<GrayAvoidSpan>& avoid, TrainId train, NodeId node,
                    Duration from, Duration to) {
    for (const GrayAvoidSpan& a : avoid) {
        if (a.train != train || a.node != node) continue;
        if (a.from < to && from < a.to) return true;
    }
    return false;
}

}  // namespace

const char* gray_name(GrayKind kind) noexcept {
    return kGrayNames[static_cast<unsigned>(kind)];
}

std::string GrayInstance::describe() const {
    char line[160];
    std::snprintf(line, sizeof line,
                  "%s train %u node %u at %.1f s for %.1f s (severity %.2f)",
                  gray_name(kind), train, node, to_seconds(at), to_seconds(duration),
                  severity);
    return line;
}

std::string CompiledGray::summary() const {
    std::size_t flaps = 0, ramps = 0, limps = 0;
    for (const GrayTrainPlan& t : trains) {
        flaps += t.link_flaps.size();
        ramps += t.egress_ramps.size();
        limps += t.cpu_profiles.size();
    }
    char line[160];
    std::snprintf(line, sizeof line,
                  "gray: %zu train(s), %zu limping node(s), %zu asym flap(s), %zu ramp(s)\n",
                  trains.size(), limps, flaps, ramps);
    std::string out = line;
    for (const GrayInstance& g : instances) out += "  " + g.describe() + "\n";
    return out;
}

CompiledGray compile_gray(const GrayChaosOptions& opts) {
    if (opts.n == 0 || opts.trains == 0) {
        throw std::invalid_argument("gray compile: n and trains must be positive");
    }
    CompiledGray out;
    out.trains.resize(opts.trains);

    Rng rng = Rng(opts.seed).fork("gray-chaos");
    const Duration open = opts.warmup + kGrayMargin;
    const Duration close = opts.horizon > kGrayMargin ? opts.horizon - kGrayMargin : open;
    if (close <= open) {
        throw std::invalid_argument("gray compile: horizon leaves no active window");
    }
    const Duration active = close - open;

    for (TrainId t = 0; t < opts.trains; ++t) {
        GrayTrainPlan& plan = out.trains[t];
        const auto byz = opts.byzantine.find(t);
        auto is_byz = [&](NodeId v) {
            return byz != opts.byzantine.end() && byz->second.contains(v);
        };
        // Victim cursor: kinds draw distinct nodes where n allows, and the
        // first limping victim is node 0 — the view-0 primary, the case a
        // fixed view-change timer handles worst.
        NodeId cursor = 0;
        auto next_victim = [&](const std::map<NodeId, double>* taken) {
            for (std::uint32_t probe = 0; probe < opts.n; ++probe) {
                const NodeId v = static_cast<NodeId>((cursor + probe) % opts.n);
                if (is_byz(v)) continue;
                if (taken != nullptr && taken->contains(v)) continue;
                cursor = static_cast<NodeId>((v + 1) % opts.n);
                return v;
            }
            return static_cast<NodeId>(cursor % opts.n);  // all taken: reuse
        };

        for (std::uint32_t i = 0; i < opts.limping; ++i) {
            const NodeId v = next_victim(&plan.cpu_profiles);
            if (plan.cpu_profiles.contains(v)) break;  // n exhausted
            plan.cpu_profiles[v] = opts.limp_factor;
            out.instances.push_back({GrayKind::kLimpingNode, t, v, Duration{0}, opts.horizon,
                                     opts.limp_factor});
        }

        for (std::uint32_t i = 0; i < opts.flapping; ++i) {
            const NodeId v = next_victim(nullptr);
            if (opts.flap_period <= opts.flap_on) break;  // degenerate cadence
            // Jittered phase start inside the first period keeps trains /
            // instances from flapping in lock-step.
            const Duration phase =
                Duration{static_cast<Duration::rep>(rng.next_below(static_cast<std::uint64_t>(
                    std::max<Duration::rep>(opts.flap_period.count() / 2, 1))))};
            std::uint32_t placed = 0;
            const std::uint32_t want =
                opts.flap_cycles > 0
                    ? opts.flap_cycles
                    : static_cast<std::uint32_t>(active.count() / opts.flap_period.count());
            for (std::uint32_t k = 0; placed < want; ++k) {
                const Duration at = open + phase + opts.flap_period * static_cast<int>(k);
                if (at + opts.flap_on > close) break;
                if (overlaps_avoid(opts.avoid, t, v, at, at + opts.flap_on)) continue;
                runtime::ScenarioConfig::LinkFlap flap;
                flap.at = at;
                flap.duration = opts.flap_on;
                flap.link = runtime::ScenarioConfig::LinkFlap::Link::kNode;
                flap.node = v;
                flap.asymmetric = true;
                plan.link_flaps.push_back(flap);
                placed += 1;
            }
            if (placed > 0) {
                const Duration span = plan.link_flaps.back().at + opts.flap_on -
                                      plan.link_flaps.front().at;
                out.instances.push_back(
                    {GrayKind::kFlappingAsymLink, t, v, plan.link_flaps.front().at, span,
                     to_seconds(opts.flap_on) / to_seconds(opts.flap_period)});
            }
        }

        for (std::uint32_t i = 0; i < opts.creeps; ++i) {
            const NodeId v = next_victim(nullptr);
            // Start in the first half of the window so the drift and its
            // held end state both land inside the run.
            const Duration half = active / 2;
            const Duration at =
                open + Duration{static_cast<Duration::rep>(rng.next_below(
                           static_cast<std::uint64_t>(std::max<Duration::rep>(
                               (half - std::min(half, opts.creep_ramp)).count(), 1))))};
            if (overlaps_avoid(opts.avoid, t, v, at, at + opts.creep_ramp)) continue;
            runtime::ScenarioConfig::EgressRamp ramp;
            ramp.at = at;
            ramp.ramp = opts.creep_ramp;
            ramp.node = v;
            ramp.bandwidth_scale_end = opts.creep_bandwidth_scale_end;
            ramp.latency_scale_end = opts.creep_latency_scale_end;
            ramp.loss_end = opts.creep_loss_end;
            ramp.hold = opts.creep_hold;
            plan.egress_ramps.push_back(ramp);
            out.instances.push_back({GrayKind::kSlowCreep, t, v, at, opts.creep_ramp,
                                     opts.creep_bandwidth_scale_end});
        }
    }

    // The budget gate: gray faults never crash anyone, but the emitted
    // flaps and ramps must still survive the runtime validator (overlap
    // rules, sane ramp parameters). Failure here is a compiler bug.
    for (TrainId t = 0; t < opts.trains; ++t) {
        runtime::ScenarioConfig probe;
        probe.n = opts.n;
        const auto byz = opts.byzantine.find(t);
        const std::uint32_t byz_count =
            byz == opts.byzantine.end() ? 0
                                        : static_cast<std::uint32_t>(byz->second.size());
        probe.f = byz_count >= opts.f ? 0 : opts.f - byz_count;
        probe.append(out.trains[t]);
        if (const auto err = runtime::validate_scenario_faults(probe)) {
            throw std::invalid_argument("gray compile: train " + std::to_string(t) + ": " +
                                        *err);
        }
    }
    return out;
}

void apply(const CompiledGray& gray, runtime::ScenarioConfig& cfg) {
    if (!gray.trains.empty()) cfg.append(gray.trains.front());
}

void apply(const CompiledGray& gray, FleetConfig& cfg) {
    for (TrainId t = 0; t < gray.trains.size(); ++t) cfg.overlays[t].append(gray.trains[t]);
}

}  // namespace zc::fleet
