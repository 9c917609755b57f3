#include "runtime/scenario.hpp"

#include "prof/prof.hpp"

namespace zc::runtime {

Scenario::Scenario(ScenarioConfig config)
    : config_(std::move(config)), sim_(config_.seed), net_(sim_),
      provider_(crypto::make_provider(config_.crypto_provider)) {
    build();
}

Scenario::~Scenario() = default;

void Scenario::build() {
    // Host-cost accounting: the process-wide profiler (if any) drives the
    // dispatch/event-loop attribution for this scenario's simulation.
    ZC_PROF_SCOPE(kSetup);
    sim_.set_profiler(prof::Profiler::active());

    // The consist itself: fault-schedule validation, links, keys, auditor
    // and liveness wiring, generator, buses, nodes, state transfer. The
    // empty rng label keeps the classic fork stream.
    ShardEnv env;
    env.sim = &sim_;
    env.net = &net_;
    env.provider = provider_.get();
    shard_ = std::make_unique<TrainShard>(config_, std::move(env));

    if (config_.auditor != nullptr && config_.audit_period > Duration::zero()) {
        sim_.every(config_.audit_period, [this] { shard_->audit(); });
    }

    // Liveness: the shard lowered the fault schedule into the auditor's
    // dark spans; the scenario samples cluster progress on a fixed cadence.
    if (config_.liveness != nullptr && config_.liveness_period > Duration::zero()) {
        sim_.every(config_.liveness_period, [this] { shard_->observe_liveness(); });
    }

    // Data centers (keys drawn by the shard, single-consist mode), each
    // ingesting on its own 4-core executor.
    for (std::uint32_t d = 0; d < config_.dc_count; ++d) {
        dc_executors_.emplace_back(sim_, 4);
        dcs_.push_back(std::make_unique<DcPort>(*shard_, d, shard_->generated_dc_keys()[d],
                                                dc_executors_.back(), config_.trace_sink, 0));
    }

    shard_->schedule_faults();
    shard_->start();
    sim_.schedule(config_.mem_sample_period, [this] { sample_memory(); });
    sim_.schedule(config_.warmup, [this] { start_measuring(); });

    // Health taps: one scheduled snapshot every N bus cycles; with no
    // monitor or time-series sink attached this costs nothing at all.
    if (config_.health_monitor != nullptr || config_.health_timeseries != nullptr) {
        const std::uint32_t cycles =
            config_.health_monitor != nullptr
                ? config_.health_monitor->config().sample_every_cycles
                : config_.timeseries_sample_cycles;
        sim_.every(config_.bus_cycle * std::max<std::uint32_t>(1, cycles),
                   [this] { shard_->check_health(); });
    }
}

void Scenario::start_measuring() {
    measuring_ = true;
    measure_start_ = sim_.now();
    busy_at_start_.clear();
    bytes_at_start_.clear();
    bytes_rx_at_start_.clear();
    for (std::uint32_t i = 0; i < config_.n; ++i) {
        Node& node = shard_->node(i);
        node.set_measuring(true);
        busy_at_start_.push_back(node.executor().busy_time());
        bytes_at_start_.push_back(net_.stats(i).bytes_sent);
        bytes_rx_at_start_.push_back(net_.stats(i).bytes_received);
    }
}

void Scenario::sample_memory() {
    if (stop_sampling_) return;
    if (measuring_) {
        for (std::size_t i = 0; i < shard_->node_count(); ++i) {
            shard_->node(i).memory().sample();
        }
    }
    sim_.schedule(config_.mem_sample_period, [this] { sample_memory(); });
}

void Scenario::run() {
    sim_.run_until(config_.warmup + config_.duration);
    stop_sampling_ = true;
}

void Scenario::run_for(Duration d) { sim_.run_until(sim_.now() + d); }

exporter::DataCenter& Scenario::data_center(std::size_t i) { return dcs_.at(i)->dc(); }

ScenarioReport Scenario::report() {
    ScenarioReport out;
    const Duration elapsed = sim_.now() - measure_start_;
    out.elapsed_s = to_seconds(elapsed);

    double util_sum = 0.0;
    for (std::uint32_t i = 0; i < config_.n; ++i) {
        Node& node = shard_->node(i);
        NodeReport nr;
        nr.cpu_cores = node.executor().utilization_since(measure_start_, busy_at_start_[i]);
        nr.cpu_pct_of_device = nr.cpu_cores / config_.device_cores * 100.0;
        if (!node.memory().samples_mb().empty()) {
            nr.mem_avg_mb = node.memory().samples_mb().mean();
            nr.mem_peak_mb = node.memory().samples_mb().max();
        }
        nr.bytes_sent = net_.stats(i).bytes_sent - bytes_at_start_[i];
        nr.bytes_received = net_.stats(i).bytes_received - bytes_rx_at_start_[i];
        nr.egress_utilization = net_.egress_utilization(i, measure_start_, bytes_at_start_[i],
                                                        config_.train_link.bandwidth_bps);
        nr.rx_dropped = node.rx_dropped();
        nr.view_changes = node.replica().stats().new_views_installed;
        nr.decided = node.replica().stats().decided;
        const net::TrafficStats& ns = net_.stats(i);
        nr.net_dropped = ns.messages_dropped;
        nr.net_dropped_loss = ns.dropped_loss;
        nr.net_dropped_partition = ns.dropped_partition;
        nr.net_dropped_overflow = ns.dropped_nic_overflow;
        nr.net_dropped_corrupt = ns.dropped_corrupt;
        nr.net_duplicated = ns.messages_duplicated;
        nr.net_reordered = ns.messages_reordered;
        nr.timeout_thrash = node.replica().stats().timeout_thrash;
        out.total_bytes += nr.bytes_sent;
        util_sum += nr.egress_utilization;
        out.nodes.push_back(nr);
    }
    out.mean_egress_utilization = util_sum / config_.n;

    Node& n0 = shard_->node(0);
    out.latency_ms = n0.latency().millis();
    out.blocks = n0.store().head_height();
    if (config_.mode == Mode::kZugChain) {
        const auto& stats = n0.layer()->stats();
        out.logged_unique = stats.logged;
        out.duplicates_decided = stats.duplicates_decided;
        out.rate_limited = stats.rate_limited;
        out.suspects = stats.suspects;
    } else {
        out.logged_unique = n0.replica().stats().decided;
    }
    return out;
}

}  // namespace zc::runtime
