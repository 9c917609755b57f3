// One consist's complete on-train rig, reusable across harnesses: the
// link profiles of its network (train Ethernet, LTE uplink, DC
// interconnect), the permissioned key membership, ATP signal generator,
// MVB-like bus (plus optional extra input buses), the n ZugChain nodes
// with their protocol stacks, validated state-transfer wiring between
// them, and its whole fault schedule: validation at construction, then
// crashes, restarts, link flaps, egress ramps and telegram-rate windows.
//
// runtime::Scenario composes exactly one TrainShard with data centers and
// measurement (the paper's single-consist testbed); fleet::Fleet composes
// many of them on one shared virtual clock — each shard gets its own
// net::Network (trains do not talk to each other) while all shards share
// the simulation, so a 100-train timetable is still one deterministic
// event sequence. Data centers reach a shard through runtime::DcPort.
#pragma once

#include <memory>
#include <vector>

#include "crypto/context.hpp"
#include "health/monitor.hpp"
#include "runtime/node.hpp"
#include "runtime/scenario_config.hpp"
#include "train/generator.hpp"

namespace zc::runtime {

/// Data center `dc`'s endpoint on every consist network (replicas are
/// 0..n-1). Trace events of that DC record under the same pid.
constexpr net::EndpointId dc_endpoint(DataCenterId dc) noexcept { return 100 + dc; }

/// The substrate one shard plugs into. In a fleet every shard shares the
/// simulation (one virtual clock) but owns its network; the harness picks
/// distinct rng labels per shard so fault/jitter streams decorrelate.
struct ShardEnv {
    sim::Simulation* sim = nullptr;
    net::Network* net = nullptr;
    crypto::CryptoProvider* provider = nullptr;

    /// Prefix for named rng forks ("" reproduces the classic single-consist
    /// stream labels, keeping Scenario runs on their historical seeds).
    std::string rng_label;

    /// Fleet-shared data-center keys: when set, the shard registers these
    /// public keys instead of generating its own DC keys, so one DC
    /// keypair verifies against every shard's directory. Null = the shard
    /// generates `config.dc_count` keys itself (single-consist mode).
    const std::vector<crypto::KeyPair>* dc_keys = nullptr;
};

class TrainShard {
public:
    /// Validates the config's fault schedules (unless allow_unsafe_chaos;
    /// throws std::invalid_argument naming the first violation), installs
    /// the link profiles and builds the consist.
    TrainShard(const ScenarioConfig& config, ShardEnv env);
    ~TrainShard();

    TrainShard(const TrainShard&) = delete;
    TrainShard& operator=(const TrainShard&) = delete;

    /// Starts the main bus master (extra buses start at construction, as
    /// the classic build order did). Call after fault schedules are wired.
    void start();

    /// Schedules the config's crashes, restarts and link flaps and
    /// installs its egress ramps. Harnesses call it where the event order
    /// puts fault events (rate windows are scheduled at construction).
    void schedule_faults();

    /// Blocks (or reopens) every node <-> data-center link, untraced: the
    /// train in a radio dead zone.
    void set_uplink_blocked(bool blocked);

    Node& node(std::size_t i) { return *nodes_.at(i); }
    const Node& node(std::size_t i) const { return *nodes_.at(i); }
    std::size_t node_count() const noexcept { return nodes_.size(); }

    /// Crash / restart (same path the harness schedules use). Restart
    /// rejoins in the highest view among surviving replicas and re-wires
    /// validated state transfer.
    void crash_node(NodeId id);
    void restart_node(NodeId id);

    std::uint64_t state_transfer_fetches() const noexcept { return state_transfer_fetches_; }
    std::uint64_t state_transfer_blocks() const noexcept { return state_transfer_blocks_; }
    std::uint64_t state_transfer_rejected() const noexcept { return state_transfer_rejected_; }

    /// Cumulative health counters of one node, for watchdog/time-series
    /// sampling on the harness's cadence.
    health::NodeSample snapshot_node(std::size_t i) const;

    /// Ground-truth views for a SafetyAuditor audit pass.
    std::vector<faults::ReplicaView> replica_views();

    crypto::KeyDirectory& directory() noexcept { return directory_; }
    const ScenarioConfig& config() const noexcept { return *config_; }
    const ShardEnv& env() const noexcept { return env_; }

    /// The nominal device cost table. Nodes named in
    /// `ScenarioConfig::cpu_profiles` charge a scaled copy instead (a
    /// degraded / constrained device); see node_cost_model().
    const metrics::CostModel& node_costs() const noexcept { return node_costs_; }

    /// The cost table node `i` actually charges (nominal or degraded).
    const metrics::CostModel& node_cost_model(std::size_t i) const {
        return *node_cost_tables_.at(i);
    }
    bus::Bus& train_bus() noexcept { return *bus_; }
    net::Network& network() noexcept { return *env_.net; }

    /// DC keys this shard generated (single-consist mode only; empty when
    /// the env supplied fleet-shared keys).
    const std::vector<crypto::KeyPair>& generated_dc_keys() const noexcept { return dc_keys_; }

private:
    struct SourceTap;
    struct ExtraBusRig {
        std::unique_ptr<train::SignalGenerator> generator;
        std::unique_ptr<bus::Bus> bus;
        std::vector<std::unique_ptr<SourceTap>> taps;
    };

    void build();
    void install_state_fetcher(Node& node);

    /// Blocks (or reopens) a link flap's links and traces link_down /
    /// link_up: the whole LTE uplink, or one node cut off from its peers
    /// and the DCs (only its outbound direction if asymmetric).
    void apply_flap(const ScenarioConfig::LinkFlap& flap, bool blocked);

    // State-transfer bookkeeping shared by every adoption path.
    void mark_logged(Node& node, const chain::Block& block);
    bool note_fetched(const Node& node, SeqNo seq, std::uint64_t blocks);
    void reject_range(const Node& node, const Node& peer, const char* kind, Height from,
                      Height to, SeqNo seq);

    std::unique_ptr<ScenarioConfig> config_;  ///< shard-local copy
    ShardEnv env_;
    crypto::KeyDirectory directory_;
    metrics::CostModel node_costs_;
    /// Per-node cost tables: points at node_costs_ for nominal nodes, at
    /// an owned scaled copy for degraded ones (stable addresses — Node
    /// holds a reference for its lifetime).
    std::vector<std::unique_ptr<metrics::CostModel>> degraded_costs_;
    std::vector<const metrics::CostModel*> node_cost_tables_;
    std::vector<crypto::KeyPair> dc_keys_;
    std::unique_ptr<train::SignalGenerator> generator_;
    std::unique_ptr<bus::Bus> bus_;
    std::vector<ExtraBusRig> extra_buses_;
    std::vector<std::unique_ptr<Node>> nodes_;

    std::uint64_t state_transfer_fetches_ = 0;
    std::uint64_t state_transfer_blocks_ = 0;
    std::uint64_t state_transfer_rejected_ = 0;

    /// The auditor verifies signatures with its own metered context (an
    /// observer outside the deployment; its CPU is not a node's CPU).
    crypto::WorkMeter audit_meter_;
    std::unique_ptr<crypto::CryptoContext> audit_crypto_;
};

}  // namespace zc::runtime
