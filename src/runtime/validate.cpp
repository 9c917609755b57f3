#include "runtime/validate.hpp"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "runtime/scenario.hpp"

namespace zc::runtime {

namespace {

std::string fmt_s(Duration d) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f s", to_seconds(d));
    return buf;
}

/// One contiguous down interval of a node: [start, end), end empty for a
/// fail-stop crash that is never restarted.
struct DownInterval {
    NodeId node = 0;
    Duration start{0};
    std::optional<Duration> end;

    bool covers(Duration t) const {
        return t >= start && (!end.has_value() || t < *end);
    }
    bool overlaps(Duration a, Duration b) const {  // [a, b)
        return start < b && (!end.has_value() || a < *end);
    }
};

}  // namespace

std::vector<std::optional<Duration>> crash_restart_times(const ScenarioConfig& cfg) {
    std::vector<std::pair<Duration, NodeId>> restarts = cfg.restart_schedule;
    std::sort(restarts.begin(), restarts.end());
    std::vector<bool> restart_used(restarts.size(), false);
    std::vector<std::optional<Duration>> ends;
    ends.reserve(cfg.crash_schedule.size());
    for (const auto& c : cfg.crash_schedule) {
        std::optional<Duration> end;
        if (c.restart_after > Duration::zero()) {
            end = c.at + c.restart_after;
        } else {
            for (std::size_t r = 0; r < restarts.size(); ++r) {
                if (!restart_used[r] && restarts[r].second == c.node &&
                    restarts[r].first > c.at) {
                    restart_used[r] = true;
                    end = restarts[r].first;
                    break;
                }
            }
        }
        ends.push_back(end);
    }
    return ends;
}

std::optional<std::string> validate_scenario_faults(const ScenarioConfig& cfg) {
    // Per-node maps keyed by an id >= n would be silently ignored.
    const auto check_ids = [&cfg](const char* what,
                                  const auto& per_node) -> std::optional<std::string> {
        for (const auto& entry : per_node) {
            if (entry.first >= cfg.n) {
                return std::string(what) + " entry names node " + std::to_string(entry.first) +
                       " but n=" + std::to_string(cfg.n);
            }
        }
        return std::nullopt;
    };
    if (auto err = check_ids("byzantine", cfg.byzantine)) return err;
    if (auto err = check_ids("cpu_profiles", cfg.cpu_profiles)) return err;
    if (auto err = check_ids("tap_faults", cfg.tap_faults)) return err;

    const std::vector<std::optional<Duration>> ends = crash_restart_times(cfg);
    std::vector<DownInterval> down;
    for (std::size_t i = 0; i < cfg.crash_schedule.size(); ++i) {
        const auto& c = cfg.crash_schedule[i];
        if (c.node >= cfg.n) {
            return "crash at " + fmt_s(c.at) + " names node " + std::to_string(c.node) +
                   " but n=" + std::to_string(cfg.n);
        }
        down.push_back({c.node, c.at, ends[i]});
    }

    // A node crashed while already down: the second power-loss is a no-op
    // in the simulator, so the schedule does not mean what it says.
    std::sort(down.begin(), down.end(), [](const DownInterval& a, const DownInterval& b) {
        return a.start != b.start ? a.start < b.start : a.node < b.node;
    });
    for (std::size_t i = 0; i < down.size(); ++i) {
        for (std::size_t j = i + 1; j < down.size(); ++j) {
            if (down[i].node == down[j].node && down[i].covers(down[j].start)) {
                return "node " + std::to_string(down[i].node) + " crashed at " +
                       fmt_s(down[j].start) + " while already down since " +
                       fmt_s(down[i].start);
            }
        }
    }

    // Concurrency sweep: at no instant may more than f nodes be down.
    // Interval ends sort before starts at equal time ([start, end)): a
    // restart scheduled at the same instant as another node's crash keeps
    // the schedule inside the budget.
    struct Event {
        Duration at;
        int delta;  // -1 = restart, +1 = crash
    };
    std::vector<Event> events;
    for (const DownInterval& iv : down) {
        events.push_back({iv.start, +1});
        if (iv.end.has_value()) events.push_back({*iv.end, -1});
    }
    std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
        return a.at != b.at ? a.at < b.at : a.delta < b.delta;
    });
    int concurrent = 0;
    for (const Event& e : events) {
        concurrent += e.delta;
        if (concurrent > static_cast<int>(cfg.f)) {
            return "crash schedule takes " + std::to_string(concurrent) +
                   " nodes down concurrently at " + fmt_s(e.at) + " but f=" +
                   std::to_string(cfg.f) +
                   " (a 2f+1 quorum needs all but f replicas; stagger the crashes or "
                   "set allow_unsafe_chaos)";
        }
    }

    // Link flaps: partitioning a node that is down for the whole window
    // is a no-op masquerading as a fault — reject it like FleetChaos's
    // staggered plan avoids it by construction.
    for (const auto& flap : cfg.link_flaps) {
        if (flap.duration <= Duration::zero()) {
            return "link flap at " + fmt_s(flap.at) + " has non-positive duration";
        }
        if (flap.link != ScenarioConfig::LinkFlap::Link::kNode) continue;
        if (flap.node >= cfg.n) {
            return "link flap at " + fmt_s(flap.at) + " names node " +
                   std::to_string(flap.node) + " but n=" + std::to_string(cfg.n);
        }
        for (const DownInterval& iv : down) {
            if (iv.node == flap.node && iv.overlaps(flap.at, flap.at + flap.duration)) {
                return "link flap at " + fmt_s(flap.at) + " isolates node " +
                       std::to_string(flap.node) + " which is already crashed (down since " +
                       fmt_s(iv.start) + ")";
            }
        }
    }

    // Overlapping flaps of the same link: the runtime tracks a link as a
    // blocked/unblocked bool, so the first window's close would reopen a
    // link the second window still wants dark.
    std::vector<ScenarioConfig::LinkFlap> flaps = cfg.link_flaps;
    std::sort(flaps.begin(), flaps.end(),
              [](const ScenarioConfig::LinkFlap& a, const ScenarioConfig::LinkFlap& b) {
                  return a.at < b.at;
              });
    for (std::size_t i = 0; i < flaps.size(); ++i) {
        for (std::size_t j = i + 1; j < flaps.size(); ++j) {
            if (flaps[i].link != flaps[j].link) continue;
            if (flaps[i].link == ScenarioConfig::LinkFlap::Link::kNode &&
                flaps[i].node != flaps[j].node) {
                continue;
            }
            if (flaps[j].at < flaps[i].at + flaps[i].duration) {
                return "link flaps of the same link overlap: [" + fmt_s(flaps[i].at) + ", " +
                       fmt_s(flaps[i].at + flaps[i].duration) + ") and one starting at " +
                       fmt_s(flaps[j].at) + " (merge them into one window)";
            }
        }
    }

    // Gray egress ramps: sane targets and drift parameters. Ramps do not
    // count against the f-budget — a limping node is still correct — but
    // a nonsensical ramp (negative scales, loss outside [0,1]) silently
    // clamps in the network layer and would not mean what it says.
    for (const auto& r : cfg.egress_ramps) {
        if (r.node >= cfg.n) {
            return "egress ramp at " + fmt_s(r.at) + " names node " + std::to_string(r.node) +
                   " but n=" + std::to_string(cfg.n);
        }
        if (r.ramp <= Duration::zero()) {
            return "egress ramp at " + fmt_s(r.at) + " has non-positive ramp duration";
        }
        if (r.bandwidth_scale_end <= 0.0 || r.latency_scale_end <= 0.0) {
            return "egress ramp at " + fmt_s(r.at) + " has non-positive end scale";
        }
        if (r.loss_end < 0.0 || r.loss_end > 1.0) {
            return "egress ramp at " + fmt_s(r.at) + " has loss_end outside [0, 1]";
        }
    }

    // Telegram-rate windows: positive scale, positive duration, no
    // overlap (each close restores the base cycle, so nesting would
    // cancel the outer window early).
    std::vector<ScenarioConfig::RateWindow> windows = cfg.rate_windows;
    std::sort(windows.begin(), windows.end(),
              [](const ScenarioConfig::RateWindow& a, const ScenarioConfig::RateWindow& b) {
                  return a.at < b.at;
              });
    for (std::size_t i = 0; i < windows.size(); ++i) {
        if (windows[i].cycle_scale <= 0.0) {
            return "rate window at " + fmt_s(windows[i].at) + " has non-positive cycle_scale";
        }
        if (windows[i].duration <= Duration::zero()) {
            return "rate window at " + fmt_s(windows[i].at) + " has non-positive duration";
        }
        if (i + 1 < windows.size() &&
            windows[i].at + windows[i].duration > windows[i + 1].at) {
            return "rate windows overlap: [" + fmt_s(windows[i].at) + ", " +
                   fmt_s(windows[i].at + windows[i].duration) + ") and one starting at " +
                   fmt_s(windows[i + 1].at);
        }
    }

    return std::nullopt;
}

}  // namespace zc::runtime
