#include "runtime/scenario.hpp"

#include "prof/prof.hpp"
#include "runtime/validate.hpp"

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
    // wiring, generator, buses, nodes, state transfer. The empty rng label
    // keeps the classic fork stream.
    ShardEnv env;
    env.sim = &sim_;
    env.net = &net_;
    env.provider = provider_.get();
    shard_ = std::make_unique<TrainShard>(config_, std::move(env));

    if (config_.auditor != nullptr && config_.audit_period > Duration::zero()) {
        sim_.schedule(config_.audit_period, [this] { audit_tick(); });
    }

    // Liveness auditor: lower the fault schedule into dark spans (the
    // windows where the model itself excuses a stall) and sample cluster
    // progress on a fixed cadence. The caller configures n/f/thresholds
    // before construction; finish() is the harness's job after the run.
    if (config_.liveness != nullptr && config_.liveness_period > Duration::zero()) {
        config_.liveness->set_trace({config_.trace_sink, kNoNode, sim_.now_handle()});
        const Duration horizon = config_.warmup + config_.duration;

        std::vector<faults::NodeDarkSpan> dark;
        const std::vector<std::optional<Duration>> ends = crash_restart_times(config_);
        for (std::size_t i = 0; i < config_.crash_schedule.size(); ++i) {
            const auto& c = config_.crash_schedule[i];
            dark.push_back({c.node, c.at, ends[i].value_or(horizon)});
        }
        std::vector<faults::UplinkDarkSpan> uplink;
        for (const auto& flap : config_.link_flaps) {
            if (flap.link == ScenarioConfig::LinkFlap::Link::kNode) {
                // An asymmetric flap silences the node's votes just as
                // thoroughly as a full partition: still a dark span.
                dark.push_back({flap.node, flap.at, flap.at + flap.duration});
            } else {
                uplink.push_back({flap.at, flap.at + flap.duration});
            }
        }
        config_.liveness->set_schedule(std::move(dark), std::move(uplink), horizon);
        sim_.schedule(config_.liveness_period, [this] { liveness_tick(); });
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
        health_period_ = config_.bus_cycle * std::max<std::uint32_t>(1, cycles);
        sim_.schedule(health_period_, [this] { sample_health(); });
    }
}

void Scenario::crash_node(NodeId id) { shard_->crash_node(id); }

void Scenario::restart_node(NodeId id) { shard_->restart_node(id); }

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

void Scenario::sample_health() {
    std::vector<health::NodeSample> samples;
    samples.reserve(shard_->node_count());
    for (std::size_t i = 0; i < shard_->node_count(); ++i) {
        samples.push_back(shard_->snapshot_node(i));
    }
    if (config_.health_monitor != nullptr) config_.health_monitor->sample(sim_.now(), samples);
    if (config_.health_timeseries != nullptr) {
        config_.health_timeseries->sample(sim_.now(), samples);
    }
    sim_.schedule(health_period_, [this] { sample_health(); });
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

void Scenario::run_audit() {
    if (config_.auditor == nullptr) return;
    ZC_PROF_SCOPE(kAudit);
    std::vector<faults::ReplicaView> replicas = shard_->replica_views();
    std::vector<faults::DataCenterView> dcs;
    dcs.reserve(dcs_.size());
    for (std::size_t d = 0; d < dcs_.size(); ++d) {
        faults::DataCenterView view;
        view.id = static_cast<DataCenterId>(d);
        view.store = &dcs_[d]->dc().store();
        view.proof = dcs_[d]->dc().last_proof();
        dcs.push_back(view);
    }
    config_.auditor->audit(replicas, dcs);
}

void Scenario::audit_tick() {
    run_audit();
    sim_.schedule(config_.audit_period, [this] { audit_tick(); });
}

void Scenario::liveness_tick() {
    faults::LivenessObs obs;
    std::vector<faults::LivenessNodeObs> nodes;
    nodes.reserve(shard_->node_count());
    for (std::size_t i = 0; i < shard_->node_count(); ++i) {
        const health::NodeSample s = shard_->snapshot_node(i);
        obs.decided = std::max(obs.decided, s.decided);
        const std::uint64_t backlog = s.head_height - std::min(s.head_height, s.base_height);
        obs.backlog_blocks = std::max(obs.backlog_blocks, backlog);
        nodes.push_back({s.node, s.alive, s.head_height});
    }
    for (const auto& dc : dcs_) obs.exports_completed += dc->dc().stats().exports_completed;
    config_.liveness->observe(sim_.now(), obs, nodes);
    sim_.schedule(config_.liveness_period, [this] { liveness_tick(); });
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
