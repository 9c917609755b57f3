#include "journey/compiler.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "common/rng.hpp"
#include "runtime/validate.hpp"

namespace zc::journey {

namespace {

using runtime::ScenarioConfig;

/// Closed-open crash interval on one train, padded so consecutive
/// recipes leave the shard time to rejoin and clear its alarms.
struct DownSpan {
    Duration start{0};
    Duration end{0};
};

constexpr Duration kRecipeMargin = seconds(300);

bool conflicts(const std::vector<DownSpan>& spans, Duration start, Duration end) {
    for (const DownSpan& s : spans) {
        if (start < s.end + kRecipeMargin && s.start < end + kRecipeMargin) return true;
    }
    return false;
}

std::string fmt_s(Duration d) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0fs", to_seconds(d));
    return buf;
}

}  // namespace

const char* recipe_name(RecipeKind kind) noexcept {
    switch (kind) {
        case RecipeKind::kCrashInDeadZone: return "crash-in-dead-zone";
        case RecipeKind::kRestartIntoPrunedChain: return "restart-into-pruned-chain";
        case RecipeKind::kDcOutageOverDeadZone: return "dc-outage-over-dead-zone";
    }
    return "?";
}

std::string RecipeInstance::describe() const {
    char buf[160];
    if (kind == RecipeKind::kDcOutageOverDeadZone) {
        std::snprintf(buf, sizeof(buf), "%s train=%u dc=%u at=%s for=%s", recipe_name(kind),
                      train, dc, fmt_s(at).c_str(), fmt_s(duration).c_str());
    } else {
        std::snprintf(buf, sizeof(buf), "%s train=%u node=%u at=%s for=%s", recipe_name(kind),
                      train, node, fmt_s(at).c_str(), fmt_s(duration).c_str());
    }
    return buf;
}

CompiledJourney compile(const JourneyPlan& plan, const CompilerOptions& opts) {
    if (plan.trains.empty()) throw std::invalid_argument("journey compile: empty plan");
    if (opts.n < 1 || opts.f >= opts.n) {
        throw std::invalid_argument("journey compile: need n >= 1 and f < n");
    }

    CompiledJourney out;
    out.overlays.resize(plan.trains.size());

    // Mechanical lowering of the timetable.
    std::vector<std::vector<const Segment*>> tunnels(plan.trains.size());
    std::vector<std::vector<const Segment*>> stations(plan.trains.size());
    for (std::size_t t = 0; t < plan.trains.size(); ++t) {
        const TrainPlan& tp = plan.trains[t];
        auto& ov = out.overlays[t];
        for (const Segment& seg : tp.segments) {
            switch (seg.kind) {
                case SegmentKind::kStation:
                    ov.rate_windows.emplace_back(seg.at, seg.duration, opts.dwell_cycle_scale);
                    stations[t].push_back(&seg);
                    break;
                case SegmentKind::kDepot:
                    ov.rate_windows.emplace_back(seg.at, seg.duration, opts.depot_cycle_scale);
                    break;
                case SegmentKind::kTunnel: {
                    ScenarioConfig::LinkFlap flap;
                    flap.at = seg.at;
                    flap.duration = seg.duration;
                    flap.link = ScenarioConfig::LinkFlap::Link::kLte;
                    ov.link_flaps.push_back(flap);
                    tunnels[t].push_back(&seg);
                    break;
                }
                case SegmentKind::kCruise:
                    break;
            }
        }
        ov.cpu_profiles = tp.cpu_profiles;
    }

    // Weave in the compounded recipes, cycling kinds across trains. A
    // placement that would overlap another down interval on the same
    // shard (or land on a shard whose Byzantine population already
    // exhausts f) is retried on the next candidate slot and ultimately
    // dropped — the availability budget always wins over chaos volume.
    Rng rng = Rng(plan.seed).fork("journey-recipes");
    std::vector<std::vector<DownSpan>> down(plan.trains.size());
    const auto byz_count = [&](std::size_t t) -> std::uint32_t {
        const auto it = opts.byzantine.find(static_cast<std::uint32_t>(t));
        return it == opts.byzantine.end() ? 0u
                                          : static_cast<std::uint32_t>(it->second.size());
    };
    const auto crash_budget = [&](std::size_t t) {
        return byz_count(t) < opts.f;  // room for one concurrent crash
    };

    const RecipeKind cycle[] = {RecipeKind::kCrashInDeadZone,
                                RecipeKind::kRestartIntoPrunedChain,
                                RecipeKind::kDcOutageOverDeadZone};
    for (std::uint32_t i = 0; i < opts.recipes; ++i) {
        RecipeKind kind = cycle[i % 3];
        const std::size_t t = i % plan.trains.size();
        auto& ov = out.overlays[t];

        if (kind == RecipeKind::kCrashInDeadZone && tunnels[t].empty()) {
            kind = RecipeKind::kRestartIntoPrunedChain;  // tunnel-free line
        }

        switch (kind) {
            case RecipeKind::kCrashInDeadZone: {
                if (!crash_budget(t)) break;
                const auto& cand = tunnels[t];
                const std::size_t start = rng.next_below(cand.size());
                for (std::size_t k = 0; k < cand.size(); ++k) {
                    const Segment* tun = cand[(start + k) % cand.size()];
                    if (tun->duration < seconds(90)) continue;
                    const Duration at = tun->at + seconds(5);
                    const Duration restart_after = tun->duration;
                    if (conflicts(down[t], at, at + restart_after)) continue;
                    ov.crash_schedule.emplace_back(at, NodeId{0}, restart_after);
                    down[t].push_back({at, at + restart_after});
                    out.recipes.push_back({kind, static_cast<std::uint32_t>(t), 0, 0, at,
                                           restart_after});
                    break;
                }
                break;
            }
            case RecipeKind::kRestartIntoPrunedChain: {
                if (!crash_budget(t)) break;
                const NodeId node =
                    opts.n > 1 ? static_cast<NodeId>(1 + rng.next_below(opts.n - 1)) : 0;
                const Duration hold = opts.export_period * 3 + seconds(45);
                const auto& cand = stations[t];
                if (cand.empty()) break;
                const std::size_t start = rng.next_below(cand.size());
                for (std::size_t k = 0; k < cand.size(); ++k) {
                    const Segment* st = cand[(start + k) % cand.size()];
                    const Duration at = st->at;
                    if (at + hold + kRecipeMargin >= plan.horizon) continue;
                    if (conflicts(down[t], at, at + hold)) continue;
                    ov.crash_schedule.emplace_back(at, node, hold);
                    down[t].push_back({at, at + hold});
                    out.recipes.push_back(
                        {kind, static_cast<std::uint32_t>(t), node, 0, at, hold});
                    break;
                }
                break;
            }
            case RecipeKind::kDcOutageOverDeadZone: {
                if (opts.dc_count == 0 || tunnels[t].empty()) break;
                const DataCenterId dc =
                    static_cast<DataCenterId>(rng.next_below(opts.dc_count));
                const std::size_t start = rng.next_below(tunnels[t].size());
                for (std::size_t k = 0; k < tunnels[t].size(); ++k) {
                    const Segment* tun = tunnels[t][(start + k) % tunnels[t].size()];
                    if (tun->duration < seconds(60)) continue;
                    const Duration at =
                        tun->at > seconds(10) ? tun->at - seconds(10) : Duration::zero();
                    const Duration dur = tun->at - at + tun->duration + seconds(40);
                    out.dc_outages.push_back({dc, at, dur});
                    out.recipes.push_back(
                        {kind, static_cast<std::uint32_t>(t), kNoNode, dc, at, dur});
                    break;
                }
                break;
            }
        }
    }

    // The budget gate: every shard's emitted schedule must survive the
    // runtime validator with f reduced by its Byzantine population, so a
    // crashed node can never meet a Byzantine one past f. Failure here is
    // a compiler bug, not tolerable chaos.
    for (std::size_t t = 0; t < out.overlays.size(); ++t) {
        const auto& ov = out.overlays[t];
        ScenarioConfig probe;
        probe.n = opts.n;
        const std::uint32_t byz = byz_count(t);
        probe.f = byz >= opts.f ? 0 : opts.f - byz;
        probe.append(ov);
        if (const auto err = runtime::validate_scenario_faults(probe)) {
            throw std::invalid_argument("journey compile: train " + std::to_string(t) + ": " +
                                        *err);
        }
    }
    return out;
}

std::string CompiledJourney::summary() const {
    std::string out;
    char line[192];
    std::size_t windows = 0, flaps = 0, crashes = 0;
    for (const auto& ov : overlays) {
        windows += ov.rate_windows.size();
        flaps += ov.link_flaps.size();
        crashes += ov.crash_schedule.size();
    }
    std::snprintf(line, sizeof(line),
                  "compiled: %zu train(s), %zu rate windows, %zu uplink flaps, %zu crashes, "
                  "%zu dc outages, %zu recipe(s)\n",
                  overlays.size(), windows, flaps, crashes, dc_outages.size(), recipes.size());
    out += line;
    for (const RecipeInstance& r : recipes) {
        out += "  " + r.describe() + "\n";
    }
    return out;
}

void apply(const CompiledJourney& compiled, fleet::FleetConfig& cfg) {
    for (std::size_t t = 0; t < compiled.overlays.size(); ++t) {
        cfg.overlays[static_cast<fleet::TrainId>(t)] = compiled.overlays[t];
    }
    cfg.chaos.dc_outages.insert(cfg.chaos.dc_outages.end(), compiled.dc_outages.begin(),
                                compiled.dc_outages.end());
}

}  // namespace zc::journey
