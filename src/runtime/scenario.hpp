// Experiment harness: builds a complete testbed — n ZugChain nodes on a
// shared bus and consensus Ethernet, optional data centers behind an LTE
// uplink, fault schedules — runs it on virtual time and collects the
// metrics the paper reports (latency, network utilization, CPU, memory,
// export timings).
//
// Mirrors the paper's testbed (§V-A): four M-COM-class devices, an
// MVB-like bus fed by an ATP signal generator, 100 Mbit/s consensus
// Ethernet, and an ~8.5 Mbit/s LTE link to cloud data centers.
#pragma once

#include <deque>
#include <memory>

#include "runtime/dc_port.hpp"
#include "runtime/scenario_config.hpp"
#include "runtime/train_shard.hpp"

namespace zc::runtime {

struct NodeReport {
    double cpu_cores = 0.0;           ///< protocol CPU in cores (1.0 = one core busy)
    double cpu_pct_of_device = 0.0;   ///< % of the device's total CPU (4 cores = 100 %)
    double mem_avg_mb = 0.0;
    double mem_peak_mb = 0.0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
    double egress_utilization = 0.0;  ///< of the 100 Mbit/s link, in [0,1]
    std::uint64_t rx_dropped = 0;
    std::uint64_t view_changes = 0;
    std::uint64_t decided = 0;
    // Per-cause network drop accounting (gray failures). The aggregate
    // `net_dropped` equals the sum of the four causes.
    std::uint64_t net_dropped = 0;
    std::uint64_t net_dropped_loss = 0;
    std::uint64_t net_dropped_partition = 0;
    std::uint64_t net_dropped_overflow = 0;
    std::uint64_t net_dropped_corrupt = 0;
    std::uint64_t net_duplicated = 0;
    std::uint64_t net_reordered = 0;
    std::uint64_t timeout_thrash = 0;  ///< view changes despite recent progress
};

struct ScenarioReport {
    metrics::Summary latency_ms;  ///< request reception -> logged, on node 0
    std::vector<NodeReport> nodes;
    double mean_egress_utilization = 0.0;
    std::uint64_t total_bytes = 0;
    std::uint64_t blocks = 0;            ///< chain height on node 0
    std::uint64_t logged_unique = 0;     ///< requests written to the chain (node 0)
    std::uint64_t duplicates_decided = 0;
    std::uint64_t rate_limited = 0;
    std::uint64_t suspects = 0;
    double elapsed_s = 0.0;
};

class Scenario {
public:
    explicit Scenario(ScenarioConfig config);
    ~Scenario();

    Scenario(const Scenario&) = delete;
    Scenario& operator=(const Scenario&) = delete;

    /// Runs warmup + measurement duration.
    void run();

    /// Continues the simulation (after run()) for ad-hoc experiment logic.
    void run_for(Duration d);

    ScenarioReport report();

    Node& node(std::size_t i) { return shard_->node(i); }
    std::size_t node_count() const noexcept { return shard_->node_count(); }

    /// Crashes / restarts a node immediately (same path the schedules
    /// use). Restart picks the highest view among the surviving replicas
    /// as the rejoin view hint and re-wires state transfer.
    void crash_node(NodeId id);
    void restart_node(NodeId id);

    /// Successful state-transfer fetches (and blocks copied) so far.
    std::uint64_t state_transfer_fetches() const noexcept {
        return shard_->state_transfer_fetches();
    }
    std::uint64_t state_transfer_blocks() const noexcept {
        return shard_->state_transfer_blocks();
    }

    /// Peer block ranges rejected by staged state-transfer validation
    /// (hash-link or checkpoint-digest mismatch — a poisoning attempt).
    std::uint64_t state_transfer_rejected() const noexcept {
        return shard_->state_transfer_rejected();
    }

    /// One audit pass over all replicas and data centers, feeding the
    /// auditor's report (no-op without a configured auditor).
    void run_audit();

    exporter::DataCenter& data_center(std::size_t i);
    sim::Simulation& sim() noexcept { return sim_; }
    net::Network& network() noexcept { return net_; }
    bus::Bus& train_bus() noexcept { return shard_->train_bus(); }
    TrainShard& shard() noexcept { return *shard_; }
    const ScenarioConfig& config() const noexcept { return config_; }

private:
    void build();
    void start_measuring();
    void sample_memory();
    void sample_health();
    void audit_tick();
    void liveness_tick();

    ScenarioConfig config_;
    sim::Simulation sim_;
    net::Network net_;
    std::unique_ptr<crypto::CryptoProvider> provider_;
    std::unique_ptr<TrainShard> shard_;
    std::deque<sim::MeteredExecutor> dc_executors_;  ///< one 4-core executor per DC
    std::vector<std::unique_ptr<DcPort>> dcs_;

    Duration health_period_{0};

    // measurement window bookkeeping
    bool measuring_ = false;
    TimePoint measure_start_{0};
    std::vector<Duration> busy_at_start_;
    std::vector<std::uint64_t> bytes_at_start_;
    std::vector<std::uint64_t> bytes_rx_at_start_;
    bool stop_sampling_ = false;
};

}  // namespace zc::runtime
