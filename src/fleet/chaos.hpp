// Fleet-level chaos schedules: deterministic, declarative fault plans
// applied across many train shards at once — staggered node crashes,
// per-train LTE dead zones (a consist passing through a tunnel loses its
// uplink while its on-train cluster keeps recording), and data-center
// outages that force the remaining shards' exports to fail over to the
// surviving DC.
//
// Everything is plain data resolved against the virtual clock; the same
// schedule on the same seed replays identically, so chaos runs stay
// byte-for-byte reproducible.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "runtime/scenario.hpp"

namespace zc::fleet {

struct FleetConfig;  // fleet.hpp (which includes this header)

/// Index of a train (shard) within the fleet, 0..trains-1.
using TrainId = std::uint32_t;

struct FleetChaos {
    /// Power-loss of one node on one train. `restart_after > 0` reboots
    /// it that long after the crash; 0 leaves it down (fail-stop).
    struct TrainCrash {
        TrainId train = 0;
        NodeId node = 0;
        Duration at{0};
        Duration restart_after{0};
    };

    /// LTE dead zone: one train's uplink to every data center drops for
    /// `duration` (tunnel / rural gap). Consensus and recording continue;
    /// exports straddling the window retry and complete afterwards.
    struct DeadZone {
        TrainId train = 0;
        Duration at{0};
        Duration duration{seconds(10)};
    };

    /// Data-center outage. `duration == 0` keeps the DC down for the rest
    /// of the run (fail-over target for the surviving DCs).
    struct DcOutage {
        DataCenterId dc = 0;
        Duration at{0};
        Duration duration{0};
    };

    std::vector<TrainCrash> crashes;
    std::vector<DeadZone> dead_zones;
    std::vector<DcOutage> dc_outages;

    bool empty() const noexcept {
        return crashes.empty() && dead_zones.empty() && dc_outages.empty();
    }

    /// The standard fleet drill used by `zugchain_sim --fleet-chaos` and
    /// the CI smoke job: a rolling wave of single-node crashes (each
    /// restarting, staggered so no two overlap within a shard), LTE dead
    /// zones sweeping every third train, and — when the fleet has more
    /// than one data center — DC 0 failing mid-run and recovering at 80%
    /// of the horizon. All offsets scale with `run` (warmup + duration).
    static FleetChaos staggered(std::uint32_t trains, std::uint32_t dc_count, Duration run);
};

// ---------------------------------------------------------------------------
// Gray chaos: faults that degrade without failing cleanly. Unlike the
// crash/outage schedules above, nothing here ever takes a node *down* —
// a limping node still answers (slowly), a flapping asymmetric link
// still receives (but nobody hears the node), a creeping egress ramp
// corrodes bandwidth over minutes. These are the failures a fixed
// view-change timeout handles worst, so they are the test bed for the
// adaptive timers (pbft/adaptive.hpp) and the LivenessAuditor.
// ---------------------------------------------------------------------------

enum class GrayKind : std::uint8_t {
    /// Virtual-CPU throttle: every sign/verify/codec/store charge of the
    /// victim scaled by `limp_factor` (degraded-device cost profile). The
    /// node stays correct — just slow enough to strain fixed timers.
    kLimpingNode,
    /// Repeated short asymmetric partitions: the victim's *outbound*
    /// links go dark for `flap_on` every `flap_period` (a dead TX
    /// amplifier); it keeps hearing the cluster throughout.
    kFlappingAsymLink,
    /// Slow-creep egress ramp: bandwidth/latency/loss drift linearly to
    /// the configured end state over `creep_ramp` and hold (a corroding
    /// connector, not an outage).
    kSlowCreep,
};

const char* gray_name(GrayKind kind) noexcept;

/// One placed gray fault (for reports; the schedules carry the effects).
struct GrayInstance {
    GrayKind kind = GrayKind::kLimpingNode;
    TrainId train = 0;
    NodeId node = 0;
    Duration at{0};
    Duration duration{0};
    double severity = 0.0;  ///< limp factor / flap duty cycle / bw scale

    std::string describe() const;
};

/// A span during which `node` of `train` is expected to be down (e.g. a
/// journey-compiled crash): gray placement keeps clear of it so a flap
/// never isolates a node that is already crashed.
struct GrayAvoidSpan {
    TrainId train = 0;
    NodeId node = 0;
    Duration from{0};
    Duration to{0};
};

struct GrayChaosOptions {
    std::uint32_t n = 4;
    std::uint32_t f = 1;
    std::uint32_t trains = 1;  ///< 1 = single consist (plan index 0)
    std::uint64_t seed = 1;

    /// Active window the faults are placed into: [warmup + margin,
    /// horizon - margin]. `horizon` is typically warmup + duration.
    Duration horizon{seconds(60)};
    Duration warmup{seconds(2)};

    /// Instance counts per train (0 disables that kind).
    std::uint32_t limping = 1;
    std::uint32_t flapping = 1;
    std::uint32_t creeps = 1;

    /// Limping-node severity: cost-model multiplier (> 1 = slower).
    double limp_factor = 6.0;

    /// Flapping-asymmetric-link cadence. `flap_cycles == 0` fills the
    /// active window at `flap_period`.
    Duration flap_on{seconds(3)};
    Duration flap_period{seconds(15)};
    std::uint32_t flap_cycles = 0;

    /// Slow-creep end state (reached after `creep_ramp`, then held).
    Duration creep_ramp{seconds(30)};
    double creep_bandwidth_scale_end = 0.2;
    double creep_latency_scale_end = 5.0;
    double creep_loss_end = 0.02;
    bool creep_hold = true;

    /// Byzantine population per train: a gray victim is never also a
    /// Byzantine node (grayness must be distinguishable from malice).
    std::map<TrainId, std::set<NodeId>> byzantine;

    /// Known down spans from a composed journey/chaos plan (see
    /// GrayAvoidSpan). Lets `compile_gray` stay composable with the
    /// journey compiler under the same f-budget validation.
    std::vector<GrayAvoidSpan> avoid;
};

/// Per-train gray schedule (asymmetric link flaps, egress ramps, cpu
/// profiles), ready to append to a ScenarioConfig or a train overlay.
/// Gray faults never count against the crash budget (the victims stay
/// correct), but the emitted flaps/ramps are still probed through
/// validate_scenario_faults.
using GrayTrainPlan = runtime::TrainSchedules;

struct CompiledGray {
    std::vector<GrayTrainPlan> trains;  ///< index = train id
    std::vector<GrayInstance> instances;

    std::string summary() const;
};

/// Lowers the options onto per-train gray schedules. Deterministic in
/// `seed`. Throws std::invalid_argument if an emitted schedule fails the
/// fault validator (a compiler bug — placement is conservative).
CompiledGray compile_gray(const GrayChaosOptions& opts);

/// Merges plan 0 into a single-consist scenario config (appends).
void apply(const CompiledGray& gray, runtime::ScenarioConfig& cfg);

/// Merges every train's plan into the fleet config's overlays (appends,
/// so a journey overlay already present keeps its schedules).
void apply(const CompiledGray& gray, FleetConfig& cfg);

}  // namespace zc::fleet
