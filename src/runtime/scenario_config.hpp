// One consist's configuration: the workload, protocol timers, devices,
// links, data centers and fault schedules that runtime::TrainShard builds
// and schedules, plus the measurement and audit taps runtime::Scenario
// drives. fleet::Fleet uses it as the per-train template.
#pragma once

#include <filesystem>
#include <map>
#include <optional>

#include "faults/liveness.hpp"
#include "health/monitor.hpp"
#include "health/timeseries.hpp"
#include "runtime/node.hpp"

namespace zc::runtime {

struct ScenarioConfig {
    Mode mode = Mode::kZugChain;
    std::uint32_t n = 4;
    std::uint32_t f = 1;
    std::uint64_t seed = 1;

    // Workload (paper defaults: 64 ms cycle, block size 10).
    Duration bus_cycle{milliseconds(64)};
    std::size_t payload_size = 1024;
    SeqNo block_size = 10;

    /// Additional input sources beyond the MVB (paper SIII-C "Multiple
    /// Input Sources"), e.g. a ProfiNet segment: each entry creates
    /// another bus with its own signal generator feeding all nodes.
    struct ExtraBus {
        Duration cycle{milliseconds(128)};
        std::size_t payload_size = 256;
    };
    std::vector<ExtraBus> extra_buses;

    // Timers (paper Fig. 8).
    Duration soft_timeout{milliseconds(250)};
    Duration hard_timeout{milliseconds(250)};
    Duration client_timeout{milliseconds(500)};
    Duration request_timeout{milliseconds(500)};
    Duration view_change_timeout{milliseconds(2000)};
    std::size_t max_open_per_origin = 32;

    /// Adaptive timeouts (pbft/adaptive.hpp): the replica's view-change
    /// timer and the layer's soft/hard suspicion timers track observed
    /// round trips instead of the fixed constants above. Off by default
    /// here (library users opt in); zugchain_sim enables it unless
    /// --fixed-timeouts is given.
    pbft::AdaptiveTimeoutConfig adaptive_timeouts;

    // PBFT batch ordering (1 = classic request-per-instance pipeline).
    std::uint32_t batch_max_requests = 1;
    std::size_t batch_max_bytes = 128 * 1024;
    Duration batch_linger{0};

    /// "fast" (HMAC simulation signatures) or "ed25519" (real crypto);
    /// virtual CPU costs are identical either way.
    std::string crypto_provider = "fast";

    int device_cores = 4;
    int protocol_cores = 1;
    std::size_t rx_queue_limit = 2048;

    /// Mild bus unreliability by default (drops/reorders per [9]); clear
    /// for noise-free microbenchmarks.
    bus::TapFaults default_tap_faults{0.002, 0.001, 0.0005, 0.0005};
    std::map<NodeId, bus::TapFaults> tap_faults;

    std::map<NodeId, ByzantineBehavior> byzantine;

    /// Crash (power loss) schedule. `restart_after > 0` reboots the node
    /// that long after the crash; 0 leaves it down (fail-stop).
    struct CrashEntry {
        Duration at{0};
        NodeId node = 0;
        Duration restart_after{0};

        CrashEntry() = default;
        CrashEntry(Duration at, NodeId node, Duration restart_after = Duration{0})
            : at(at), node(node), restart_after(restart_after) {}
    };
    std::vector<CrashEntry> crash_schedule;

    /// Explicit restarts (for nodes crashed without `restart_after`).
    std::vector<std::pair<Duration, NodeId>> restart_schedule;

    /// Timed link outages: an LTE uplink dropping for minutes during an
    /// export, or one node transiently partitioned from its peers.
    struct LinkFlap {
        enum class Link { kLte, kNode };
        Duration at{0};
        Duration duration{seconds(30)};
        Link link = Link::kLte;
        NodeId node = 0;  ///< isolated node (Link::kNode only)

        /// Asymmetric (gray) partition: only the node's *outbound* links
        /// are cut — it keeps hearing the cluster but nobody hears it
        /// (a dead TX amplifier). kNode only; kLte flaps ignore it.
        bool asymmetric = false;
    };
    std::vector<LinkFlap> link_flaps;

    /// Gray degradation ramps: from `at`, the node's egress drifts
    /// linearly over `ramp` toward the scaled end state (bandwidth and
    /// latency multipliers, added loss), then holds or recovers — a
    /// corroding connector or congested cell, not a clean outage.
    struct EgressRamp {
        Duration at{0};
        Duration ramp{seconds(60)};
        NodeId node = 0;
        double bandwidth_scale_end = 1.0;
        double latency_scale_end = 1.0;
        double loss_end = 0.0;
        bool hold = true;
    };
    std::vector<EgressRamp> egress_ramps;

    /// Timetable-driven telegram-rate windows: between `at` and
    /// `at + duration` the bus master polls at `cycle_scale` x the base
    /// cycle (clamped to the MVB minimum period). `< 1` models a station
    /// dwell (denser consolidation bursts while doors cycle and the ATP
    /// chatters), `> 1` a depot layover trickle. Windows must not
    /// overlap; the base cycle is restored when a window closes.
    struct RateWindow {
        Duration at{0};
        Duration duration{seconds(60)};
        double cycle_scale = 1.0;

        RateWindow() = default;
        RateWindow(Duration at, Duration duration, double cycle_scale)
            : at(at), duration(duration), cycle_scale(cycle_scale) {}
    };
    std::vector<RateWindow> rate_windows;

    /// Per-node virtual-CPU degradation: cost-model multiplier applied to
    /// every sign/verify/codec/store charge of that node (> 1 = slower
    /// device — a throttled or constrained replica, per the
    /// PBFT-for-IoT measurements). Absent nodes run the nominal table.
    std::map<NodeId, double> cpu_profiles;

    /// Skips the up-front fault-schedule validation (see
    /// runtime/validate.hpp) for harnesses that deliberately exceed the
    /// f-crash availability budget, e.g. the crash-investigation example
    /// that kills a majority on purpose.
    bool allow_unsafe_chaos = false;

    // Data centers (0 = no export infrastructure).
    std::uint32_t dc_count = 0;
    std::size_t delete_quorum = 2;
    Duration export_timeout{seconds(60)};

    // Export retry policy (see DcConfig): bounded rounds with exponential
    // backoff so an export straddling a link outage completes afterwards.
    std::uint32_t export_max_retries = 8;
    Duration export_retry_backoff{seconds(2)};
    Duration export_retry_backoff_max{seconds(30)};

    // Links.
    net::LinkProfile train_link = net::LinkProfile::train_ethernet();
    net::LinkProfile lte_link = net::LinkProfile::lte();
    net::LinkProfile dc_link{milliseconds(8), milliseconds(2), 1e9, 0.0};

    Duration warmup{seconds(2)};
    Duration duration{seconds(30)};
    Duration mem_sample_period{milliseconds(100)};

    /// If set, each node persists its chain under store_root/node-<id>
    /// (inspectable offline with tools/zc_inspect).
    std::optional<std::filesystem::path> store_root;

    /// Request-lifecycle trace sink attached to every node and data
    /// center (null = tracing off). DC events record under trace pid
    /// 100 + dc id, matching the network endpoint numbering.
    trace::TraceSink* trace_sink = nullptr;

    /// Health taps (null = off; zero scheduling cost then). Every
    /// `sample_every_cycles` bus cycles (from the monitor's config, or
    /// the time-series default below when only that is attached) the
    /// scenario snapshots all nodes on the virtual clock and feeds the
    /// watchdog monitor and/or the time-series sink.
    health::HealthMonitor* health_monitor = nullptr;
    health::TimeSeries* health_timeseries = nullptr;
    std::uint32_t timeseries_sample_cycles = 16;  ///< used without a monitor

    /// Safety auditor (null = off). The scenario wires node taps, marks
    /// nodes with Byzantine knobs as compromised, runs a periodic audit
    /// pass every `audit_period`, and `run_audit()` does the final one.
    faults::SafetyAuditor* auditor = nullptr;
    Duration audit_period{seconds(5)};

    /// Liveness auditor (null = off). The scenario lowers its own fault
    /// schedule into dark spans, samples cluster progress every
    /// `liveness_period`, and the harness calls the auditor's finish()
    /// after the run; zugchain_sim --audit-liveness maps a dirty report
    /// to exit code 6.
    faults::LivenessAuditor* liveness = nullptr;
    Duration liveness_period{seconds(2)};
};

}  // namespace zc::runtime
