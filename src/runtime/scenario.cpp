#include "runtime/scenario.hpp"

#include <stdexcept>

#include "common/log.hpp"
#include "prof/prof.hpp"
#include "runtime/validate.hpp"

namespace zc::runtime {

namespace {
constexpr net::EndpointId kDcBase = 100;
}

/// A data center plus its local executor/crypto, attached to the network.
class Scenario::DataCenterHost final : public net::Endpoint {
public:
    DataCenterHost(DataCenterId id, Scenario& scenario, crypto::KeyPair key)
        : id_(id), scenario_(scenario),
          crypto_(*scenario.provider_, scenario.shard_->directory(), std::move(key),
                  scenario.dc_costs_, meter_),
          executor_(scenario.sim_, 4), transport_(*this) {
        exporter::DcConfig cfg;
        cfg.id = id;
        cfg.n = scenario.config_.n;
        cfg.f = scenario.config_.f;
        cfg.checkpoint_interval = scenario.config_.block_size;
        cfg.reply_timeout = scenario.config_.export_timeout;
        cfg.max_retries = scenario.config_.export_max_retries;
        cfg.retry_backoff = scenario.config_.export_retry_backoff;
        cfg.retry_backoff_max = scenario.config_.export_retry_backoff_max;
        for (DataCenterId other = 0; other < scenario.config_.dc_count; ++other) {
            if (other != id) cfg.peers.push_back(other);
        }
        dc_ = std::make_unique<exporter::DataCenter>(cfg, scenario.sim_, crypto_, transport_);
    }

    void deliver(net::EndpointId from, Bytes message) override {
        (void)from;
        executor_.submit([this, msg = std::move(message)] {
            ZC_PROF_SCOPE(kDcIngest);
            crypto_.charge(scenario_.dc_costs_.handle(msg.size()));
            const auto envelope = decode_envelope(msg);
            if (envelope && envelope->channel == Channel::kExport) {
                const auto m = exporter::decode_export_message(envelope->body);
                if (m) dc_->on_message(*m);
            }
            return meter_.take();
        });
    }

    exporter::DataCenter& dc() noexcept { return *dc_; }

private:
    struct Transport final : exporter::DcTransport {
        explicit Transport(DataCenterHost& host) : host(host) {}
        void to_replica(NodeId replica, const exporter::ExportMessage& m) override {
            host.scenario_.net_.send(kDcBase + host.id_, replica,
                                     encode_envelope(Channel::kExport,
                                                     exporter::encode_export_message(m)));
        }
        void to_data_center(DataCenterId dc, const exporter::ExportMessage& m) override {
            host.scenario_.net_.send(kDcBase + host.id_, kDcBase + dc,
                                     encode_envelope(Channel::kExport,
                                                     exporter::encode_export_message(m)));
        }
        DataCenterHost& host;
    };

    DataCenterId id_;
    Scenario& scenario_;
    crypto::WorkMeter meter_;
    crypto::CryptoContext crypto_;
    sim::MeteredExecutor executor_;
    Transport transport_;
    std::unique_ptr<exporter::DataCenter> dc_;
};

Scenario::Scenario(ScenarioConfig config)
    : config_(std::move(config)), sim_(config_.seed), net_(sim_),
      provider_(crypto::make_provider(config_.crypto_provider)),
      dc_costs_(metrics::CostModel::cloud()) {
    if (!config_.allow_unsafe_chaos) {
        if (const auto err = validate_scenario_faults(config_)) {
            throw std::invalid_argument("scenario fault schedule: " + *err);
        }
    }
    build();
}

Scenario::~Scenario() = default;

void Scenario::build() {
    // Host-cost accounting: the process-wide profiler (if any) drives the
    // dispatch/event-loop attribution for this scenario's simulation.
    ZC_PROF_SCOPE(kSetup);
    sim_.set_profiler(prof::Profiler::active());

    // Network topology: full mesh of train Ethernet between nodes; LTE
    // between train and data centers; fast interconnect between DCs.
    // (Profile setup consumes no randomness, so it can precede the shard.)
    net_.set_default_profile(config_.train_link);
    for (std::uint32_t i = 0; i < config_.n; ++i) {
        for (std::uint32_t d = 0; d < config_.dc_count; ++d) {
            net_.set_profile(i, kDcBase + d, config_.lte_link);
            net_.set_profile(kDcBase + d, i, config_.lte_link);
        }
    }
    for (std::uint32_t a = 0; a < config_.dc_count; ++a) {
        for (std::uint32_t b = 0; b < config_.dc_count; ++b) {
            if (a != b) net_.set_profile(kDcBase + a, kDcBase + b, config_.dc_link);
        }
    }

    // The consist itself: keys, auditor wiring, generator, buses, nodes,
    // state transfer. The empty rng label keeps the classic fork stream.
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
        std::vector<std::pair<Duration, NodeId>> restarts = config_.restart_schedule;
        std::sort(restarts.begin(), restarts.end());
        std::vector<bool> restart_used(restarts.size(), false);
        for (const auto& c : config_.crash_schedule) {
            Duration to = horizon;
            if (c.restart_after > Duration::zero()) {
                to = c.at + c.restart_after;
            } else {
                for (std::size_t r = 0; r < restarts.size(); ++r) {
                    if (!restart_used[r] && restarts[r].second == c.node &&
                        restarts[r].first > c.at) {
                        restart_used[r] = true;
                        to = restarts[r].first;
                        break;
                    }
                }
            }
            dark.push_back({c.node, c.at, to});
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

    // Data centers (keys drawn by the shard, single-consist mode).
    for (std::uint32_t d = 0; d < config_.dc_count; ++d) {
        dcs_.push_back(
            std::make_unique<DataCenterHost>(d, *this, shard_->generated_dc_keys()[d]));
        net_.attach(kDcBase + d, dcs_.back().get());
        dcs_.back()->dc().set_trace(config_.trace_sink, kDcBase + d);
    }

    // Fault schedules: crashes (optionally auto-restarting), explicit
    // restarts, and link flaps.
    for (const auto& c : config_.crash_schedule) {
        const NodeId id = c.node;
        sim_.schedule(c.at, [this, id] { crash_node(id); });
        if (c.restart_after > Duration::zero()) {
            sim_.schedule(c.at + c.restart_after, [this, id] { restart_node(id); });
        }
    }
    for (const auto& [when, id] : config_.restart_schedule) {
        const NodeId node = id;
        sim_.schedule(when, [this, node] { restart_node(node); });
    }
    for (const auto& flap : config_.link_flaps) {
        sim_.schedule(flap.at, [this, flap] { apply_flap(flap, true); });
        sim_.schedule(flap.at + flap.duration, [this, flap] { apply_flap(flap, false); });
    }

    // Gray degradation ramps install up front: the LinkRamp start time is
    // absolute, so the network computes the drift lazily per send.
    for (const auto& r : config_.egress_ramps) {
        net::LinkRamp ramp;
        ramp.start = TimePoint{r.at.count()};
        ramp.duration = r.ramp;
        ramp.bandwidth_scale_end = r.bandwidth_scale_end;
        ramp.latency_scale_end = r.latency_scale_end;
        ramp.loss_end = r.loss_end;
        ramp.hold = r.hold;
        net_.set_egress_ramp(r.node, ramp);
    }

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

void Scenario::apply_flap(const ScenarioConfig::LinkFlap& flap, bool blocked) {
    if (flap.link == ScenarioConfig::LinkFlap::Link::kLte) {
        // The whole LTE uplink: every node <-> data-center pair.
        for (std::uint32_t i = 0; i < config_.n; ++i) {
            for (std::uint32_t d = 0; d < config_.dc_count; ++d) {
                net_.set_blocked(i, kDcBase + d, blocked);
                net_.set_blocked(kDcBase + d, i, blocked);
            }
        }
    } else {
        // Transient partition: one node cut off from peers and DCs. An
        // asymmetric flap cuts only the node's outbound direction (dead
        // TX): it keeps hearing the cluster but nobody hears it.
        for (std::uint32_t i = 0; i < config_.n; ++i) {
            if (i == flap.node) continue;
            net_.set_blocked(flap.node, i, blocked);
            if (!flap.asymmetric) net_.set_blocked(i, flap.node, blocked);
        }
        for (std::uint32_t d = 0; d < config_.dc_count; ++d) {
            net_.set_blocked(flap.node, kDcBase + d, blocked);
            if (!flap.asymmetric) net_.set_blocked(kDcBase + d, flap.node, blocked);
        }
    }
    if (config_.trace_sink != nullptr) {
        const NodeId who =
            flap.link == ScenarioConfig::LinkFlap::Link::kLte ? kNoNode : flap.node;
        config_.trace_sink->event(who, sim_.now(),
                                  blocked ? trace::Phase::kLinkDown : trace::Phase::kLinkUp,
                                  static_cast<std::uint64_t>(who),
                                  static_cast<std::uint64_t>(flap.duration.count()));
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
