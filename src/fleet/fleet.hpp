// Fleet orchestrator: N independent train shards on one virtual clock,
// exporting into shared data centers.
//
// Each shard is a complete consist (runtime::TrainShard: 4-node PBFT
// cluster, MVB bus, ATP generator, durable chains) with its *own*
// net::Network — trains never talk to each other, so the per-shard
// endpoint plan (replicas 0..n-1, DCs at 100+d) needs no renumbering.
// All networks run on the single shared sim::Simulation: one event queue,
// one seed, one deterministic interleaving of the whole timetable.
//
// Shared infrastructure crossing shard boundaries:
//   * FleetDataCenter (one per company): a port on every shard network, a
//     per-train export core, one bounded ingest executor all trains
//     contend for, and fleet-shared DC keys registered in every shard's
//     key directory.
//   * FleetIndex: the cross-fleet archive index (dedup by block hash,
//     keyed by train id; cross-shard collisions pinned to zero).
//   * Per-train HealthMonitors + a FleetRollup time series; per-train
//     SafetyAuditors and LivenessAuditors when those audits are on. Each
//     shard runs its own checks (runtime::TrainShard::audit,
//     check_health, observe_liveness); the fleet owns the observers and
//     ticks every shard on one fleet-wide cadence per check.
//
// Determinism strategy: construction order is fixed (DC keys, then shards
// in train order, then DCs in id order adding shards in train order);
// every named rng fork is prefixed "train-<t>-"; fork() itself advances
// the parent stream, so equal labels across shards still yield
// decorrelated streams. Same seed -> byte-identical reports, rollups and
// stores.
#pragma once

#include <memory>
#include <optional>

#include "faults/auditor.hpp"
#include "fleet/fleet_dc.hpp"
#include "fleet/rollup.hpp"
#include "health/monitor.hpp"
#include "runtime/scenario.hpp"
#include "trace/trace.hpp"

namespace zc::fleet {

struct FleetConfig {
    std::uint32_t trains = 8;
    std::uint64_t seed = 1;

    /// Per-shard template. Fleet overrides, per shard: store_root
    /// (store_root/train-<t>), the auditor, liveness and health pointers
    /// (the fleet's own per-train observers), byzantine wiring,
    /// delete_quorum (clamped to dc_count), dc_count (from the fleet), the
    /// LTE link (its per-cell bandwidth share) and the fault schedules
    /// (the train's overlay plus its fleet chaos). `audit_period` and
    /// `liveness_period` set the fleet-wide audit cadences.
    runtime::ScenarioConfig train;

    std::uint32_t dc_count = 2;
    int dc_ingest_cores = 8;
    std::size_t dc_ingest_queue = 4096;

    /// LTE cell sharing: this many trains share one cell, so each shard's
    /// uplink gets bandwidth / min(trains_per_cell, trains) (static
    /// division — the deterministic stand-in for dynamic cell contention;
    /// a cell is shared only by trains that exist).
    std::uint32_t trains_per_cell = 8;

    /// Periodic exports: every train starts a round every export_period,
    /// staggered by export_period / trains so the DC frontend sees a
    /// steady arrival process, preferring DC (train % dc_count) and
    /// failing over to the next DC that is up.
    Duration export_period{seconds(10)};

    Duration warmup{seconds(2)};
    Duration duration{seconds(30)};

    /// Nodes persist chains under store_root/train-<t>/node-<i>
    /// (inspectable with zc_inspect --store-dir store_root).
    std::optional<std::filesystem::path> store_root;

    /// Fleet health sampling cadence (per-train monitors + rollup rows).
    /// The monitors watch exports with the backlog threshold scaled to
    /// `export_period` (see MonitorConfig::watching_exports).
    Duration sample_period{milliseconds(256)};
    health::MonitorConfig monitor;

    /// Per-train safety auditors + a final audit pass in run().
    bool audit = false;

    /// Per-train liveness auditors, observed every
    /// `train.liveness_period` and finished in run().
    bool audit_liveness = false;

    /// Per-train Byzantine knobs (train -> node -> behaviour). A train
    /// >= trains or a node >= n is rejected at construction.
    std::map<TrainId, std::map<NodeId, runtime::ByzantineBehavior>> byzantine;

    /// Fleet-level chaos. Crashes and dead zones (LTE flaps) go into their
    /// train's schedules ahead of its overlay; DC outages stay here, and
    /// all-DCs-down spans reach every shard's liveness auditor as
    /// uplink-dark. Entries naming an unknown train, node or DC throw.
    FleetChaos chaos;

    /// Per-train journey overlay: shard-local fault and timetable
    /// schedules, typically compiled from a journey plan (src/journey).
    /// Unlike the template's schedules (which the fleet ignores), an
    /// overlay is appended to exactly its train's config, and that
    /// train's TrainShard validates it against the f budget
    /// (validate_scenario_faults, unless the template sets
    /// allow_unsafe_chaos) and schedules it like any consist's. An LTE
    /// flap is the train's dead zone.
    using TrainOverlay = runtime::TrainSchedules;
    std::map<TrainId, TrainOverlay> overlays;

    trace::TraceSink* trace_sink = nullptr;
};

/// Merged-trace pid plan: every train shard gets a disjoint 1000-wide pid
/// band (train t, node i -> 1000*(t+1)+i) while the shared data centers
/// keep the single-consist convention (DC d -> 100+d). The band's last
/// slot is the train's own row: its LTE dead zones and its safety and
/// liveness findings. Process labels and tests use these helpers so the
/// mapping has exactly one definition.
inline constexpr NodeId trace_pid(TrainId train, NodeId node) noexcept {
    return 1000u * (train + 1u) + node;
}
inline constexpr NodeId train_trace_pid(TrainId train) noexcept { return trace_pid(train, 999u); }
inline constexpr NodeId dc_trace_pid(DataCenterId dc) noexcept { return 100u + dc; }

struct TrainReport {
    TrainId train = 0;
    std::uint32_t nodes_alive = 0;
    Height head = 0;                ///< best chain head among live nodes
    std::uint64_t logged = 0;       ///< unique requests on the chain
    Height exported_head = 0;       ///< fleet-index archived head
    std::uint64_t exports_completed = 0;
    std::uint64_t exports_failed = 0;
    std::uint64_t active_alarms = 0;
    std::uint64_t audit_violations = 0;
    std::uint64_t liveness_violations = 0;
};

struct FleetReport {
    std::uint32_t trains = 0;
    std::uint32_t dc_count = 0;
    double elapsed_s = 0.0;
    std::uint64_t logged_sum = 0;     ///< fleet-wide unique logged requests
    std::uint64_t head_sum = 0;
    std::uint64_t exported_unique = 0;
    std::uint64_t exported_duplicates = 0;
    std::uint64_t cross_shard_collisions = 0;
    std::uint64_t exports_completed = 0;
    std::uint64_t exports_failed = 0;
    std::uint64_t ingest_dropped = 0;
    std::uint64_t audit_violations = 0;
    std::uint64_t liveness_violations = 0;
    FleetAlarmSummary alarms;
    std::vector<TrainReport> per_train;

    /// Deterministic single-line JSON (CI cmp's it across same-seed runs).
    std::string json() const;
};

class Fleet {
public:
    explicit Fleet(FleetConfig config);
    ~Fleet();

    Fleet(const Fleet&) = delete;
    Fleet& operator=(const Fleet&) = delete;

    /// Runs warmup + duration, then a final index sweep and (if enabled)
    /// a final audit pass and liveness finish on every shard.
    void run();

    /// Continues the simulation for ad-hoc experiment logic.
    void run_for(Duration d);

    FleetReport report();

    /// One audit pass over every shard (no-op unless auditing is on).
    void run_audit();

    runtime::TrainShard& shard(TrainId t) { return *shards_.at(t); }
    std::uint32_t train_count() const noexcept { return config_.trains; }
    FleetDataCenter& data_center(DataCenterId d) { return *dcs_.at(d); }
    std::uint32_t dc_count() const noexcept { return config_.dc_count; }
    const FleetIndex& index() const noexcept { return index_; }
    const FleetRollup& rollup() const noexcept { return rollup_; }
    const health::HealthMonitor* monitor(TrainId t) const;
    /// Null when safety auditing is off (mutable: the soak runner compacts
    /// tap state between segments).
    faults::SafetyAuditor* auditor(TrainId t);
    /// Null when liveness auditing is off.
    const faults::LivenessAuditor* liveness(TrainId t) const;
    sim::Simulation& sim() noexcept { return sim_; }
    const FleetConfig& config() const noexcept { return config_; }

private:
    void build();
    void sample_tick();

    FleetConfig config_;
    sim::Simulation sim_;
    std::unique_ptr<crypto::CryptoProvider> provider_;
    std::vector<crypto::KeyPair> dc_keys_;
    std::vector<std::unique_ptr<net::Network>> networks_;
    std::vector<std::unique_ptr<trace::OffsetSink>> shard_sinks_;
    std::vector<std::unique_ptr<faults::SafetyAuditor>> auditors_;
    std::vector<std::unique_ptr<faults::LivenessAuditor>> liveness_;
    std::vector<std::unique_ptr<health::HealthMonitor>> monitors_;
    std::vector<std::unique_ptr<runtime::TrainShard>> shards_;
    FleetIndex index_;
    std::vector<std::unique_ptr<FleetDataCenter>> dcs_;
    FleetRollup rollup_;
    bool stop_sampling_ = false;
};

}  // namespace zc::fleet
