#include "fleet/fleet.hpp"

#include <algorithm>
#include <stdexcept>

#include "prof/prof.hpp"

namespace zc::fleet {

Fleet::Fleet(FleetConfig config)
    : config_(std::move(config)), sim_(config_.seed),
      provider_(crypto::make_provider(config_.train.crypto_provider)) {
    if (config_.trains == 0) throw std::invalid_argument("fleet needs at least one train");
    for (const auto& [t, nodes] : config_.byzantine) {
        if (t >= config_.trains) {
            throw std::invalid_argument("byzantine entry names train " + std::to_string(t) +
                                        " but trains=" + std::to_string(config_.trains));
        }
    }
    build();
}

Fleet::~Fleet() = default;

void Fleet::build() {
    ZC_PROF_SCOPE(kSetup);
    sim_.set_profiler(prof::Profiler::active());

    // Fleet-shared data-center keys, drawn before any shard so the key
    // stream is independent of the fleet size.
    Rng dcrng = sim_.rng().fork("fleet-dc-keys");
    for (std::uint32_t d = 0; d < config_.dc_count; ++d) {
        dc_keys_.push_back(provider_->generate(dcrng));
    }

    // Shards, in train order (construction order is part of the replay).
    for (TrainId t = 0; t < config_.trains; ++t) {
        networks_.push_back(std::make_unique<net::Network>(sim_));

        if (config_.audit) auditors_.push_back(std::make_unique<faults::SafetyAuditor>());

        runtime::ScenarioConfig cfg = config_.train;
        cfg.seed = config_.seed;
        cfg.dc_count = config_.dc_count;
        if (config_.dc_count > 0) {
            cfg.delete_quorum = std::max<std::size_t>(
                1, std::min<std::size_t>(cfg.delete_quorum, config_.dc_count));
        }
        cfg.warmup = config_.warmup;
        cfg.duration = config_.duration;
        cfg.store_root.reset();
        if (config_.store_root) {
            cfg.store_root = *config_.store_root / ("train-" + std::to_string(t));
        }
        cfg.auditor = config_.audit ? auditors_.back().get() : nullptr;
        cfg.health_monitor = nullptr;       // the fleet drives sampling itself
        cfg.health_timeseries = nullptr;
        // Shard trace events are remapped into the train's pid band so a
        // single Tracer yields one merged fleet trace (see trace_pid()).
        if (config_.trace_sink != nullptr) {
            shard_sinks_.push_back(
                std::make_unique<trace::OffsetSink>(*config_.trace_sink, trace_pid(t, 0)));
            cfg.trace_sink = shard_sinks_.back().get();
        } else {
            cfg.trace_sink = nullptr;
        }
        // Contended LTE: trains_per_cell shards share one cell, so each
        // shard's uplink is provisioned with its static share of the cell.
        cfg.lte_link.bandwidth_bps /= std::max<std::uint32_t>(config_.trains_per_cell, 1);
        cfg.byzantine.clear();
        const auto byz = config_.byzantine.find(t);
        if (byz != config_.byzantine.end()) cfg.byzantine = byz->second;
        // Shard-local fault and timetable schedules come from the train's
        // overlay (none without one), never from the per-train template.
        // The shard validates and schedules them like any consist's.
        static const FleetConfig::TrainOverlay kNoOverlay;
        const auto found = config_.overlays.find(t);
        const FleetConfig::TrainOverlay& overlay =
            found != config_.overlays.end() ? found->second : kNoOverlay;
        cfg.crash_schedule = overlay.crash_schedule;
        cfg.restart_schedule = overlay.restart_schedule;
        cfg.link_flaps = overlay.link_flaps;
        cfg.rate_windows = overlay.rate_windows;
        cfg.cpu_profiles = overlay.cpu_profiles;
        cfg.egress_ramps = overlay.egress_ramps;

        runtime::ShardEnv env;
        env.sim = &sim_;
        env.net = networks_.back().get();
        env.provider = provider_.get();
        env.rng_label = "train-" + std::to_string(t) + "-";
        env.dc_keys = &dc_keys_;
        shards_.push_back(std::make_unique<runtime::TrainShard>(cfg, std::move(env)));
    }

    // Shared data centers: each attaches one port per shard network and
    // one export core per train.
    for (std::uint32_t d = 0; d < config_.dc_count; ++d) {
        const FleetDcConfig dcfg{d, config_.dc_ingest_cores, config_.dc_ingest_queue};
        dcs_.push_back(std::make_unique<FleetDataCenter>(dcfg, sim_, dc_keys_[d], index_,
                                                         config_.trace_sink));
        for (TrainId t = 0; t < config_.trains; ++t) dcs_.back()->add_shard(t, *shards_[t]);
    }

    // Fleet chaos plan.
    for (const auto& c : config_.chaos.crashes) {
        if (c.train >= config_.trains || c.node >= config_.train.n) continue;
        sim_.schedule(c.at, [this, c] { shards_[c.train]->crash_node(c.node); });
        if (c.restart_after > Duration::zero()) {
            sim_.schedule(c.at + c.restart_after,
                          [this, c] { shards_[c.train]->restart_node(c.node); });
        }
    }
    for (const auto& z : config_.chaos.dead_zones) {
        if (z.train >= config_.trains) continue;
        runtime::TrainShard* shard = shards_[z.train].get();
        sim_.schedule(z.at, [shard] { shard->set_uplink_blocked(true); });
        sim_.schedule(z.at + z.duration, [shard] { shard->set_uplink_blocked(false); });
    }
    for (const auto& o : config_.chaos.dc_outages) {
        if (o.dc >= config_.dc_count) continue;
        sim_.schedule(o.at, [this, o] { dcs_[o.dc]->set_down(true); });
        if (o.duration > Duration::zero()) {
            sim_.schedule(o.at + o.duration, [this, o] { dcs_[o.dc]->set_down(false); });
        }
    }

    // Per-train fault schedules (journey overlays), in train order.
    for (auto& shard : shards_) shard->schedule_faults();

    // Staggered periodic exports.
    if (config_.dc_count > 0 && config_.export_period > Duration::zero()) {
        const Duration stagger =
            config_.export_period / static_cast<std::int64_t>(config_.trains);
        for (TrainId t = 0; t < config_.trains; ++t) {
            sim_.schedule(config_.warmup + stagger * static_cast<std::int64_t>(t),
                          [this, t] { export_tick(t); });
        }
    }

    for (TrainId t = 0; t < config_.trains; ++t) shards_[t]->start();

    // Health: per-shard watchdogs on one lock-step cadence + the rollup.
    if (config_.monitors) {
        health::MonitorConfig mc = config_.monitor;
        mc.watch_export = config_.dc_count > 0;
        if (config_.auto_export_thresholds && config_.dc_count > 0) {
            // A fleet legitimately backs up one export period of blocks
            // between rounds; alarm only when several periods pile up.
            const std::int64_t blocks_per_period =
                config_.export_period.count() /
                std::max<std::int64_t>(
                    config_.train.bus_cycle.count() *
                        static_cast<std::int64_t>(config_.train.block_size),
                    1);
            mc.export_backlog_min_blocks =
                std::max<std::uint64_t>(mc.export_backlog_min_blocks,
                                        static_cast<std::uint64_t>(4 * blocks_per_period));
        }
        for (TrainId t = 0; t < config_.trains; ++t) {
            monitors_.push_back(std::make_unique<health::HealthMonitor>(mc));
        }
    }
    if (config_.sample_period > Duration::zero()) {
        sim_.schedule(config_.sample_period, [this] { sample_tick(); });
    }

    if (config_.audit && config_.audit_period > Duration::zero()) {
        sim_.schedule(config_.audit_period, [this] { audit_tick(); });
    }
}

void Fleet::export_tick(TrainId train) {
    // Prefer "our" company's DC, fail over to the next one that is up.
    for (std::uint32_t k = 0; k < config_.dc_count; ++k) {
        const DataCenterId d = (train + k) % config_.dc_count;
        if (dcs_[d]->down()) continue;
        if (!dcs_[d]->exporting(train)) dcs_[d]->start_export(train);
        break;
    }
    sim_.schedule(config_.export_period, [this, train] { export_tick(train); });
}

void Fleet::sample_tick() {
    if (stop_sampling_) return;
    for (auto& dc : dcs_) dc->observe_all();

    FleetSample row;
    row.at = sim_.now();
    row.trains = config_.trains;
    std::vector<health::NodeSample> samples;
    for (TrainId t = 0; t < config_.trains; ++t) {
        samples.clear();
        Height head = 0;
        Height base = 0;
        std::uint64_t logged = 0;
        for (std::size_t i = 0; i < shards_[t]->node_count(); ++i) {
            samples.push_back(shards_[t]->snapshot_node(i));
            const health::NodeSample& s = samples.back();
            if (s.alive) row.nodes_alive += 1;
            if (s.head_height >= head) {
                head = s.head_height;
                base = std::max<Height>(base, s.base_height);
            }
            logged = std::max(logged, s.logged);
        }
        if (!monitors_.empty()) monitors_[t]->sample(sim_.now(), samples);
        row.head_sum += head;
        row.logged_sum += logged;
        row.backlog_sum += head - std::min(base, head);
    }
    row.exported_sum = index_.unique_blocks();
    for (const auto& monitor : monitors_) {
        for (const health::Alarm& a : monitor->alarms()) {
            if (!a.cleared) row.active_alarms += 1;
        }
    }
    for (const auto& dc : dcs_) {
        row.ingest_depth += dc->ingest_queue_depth();
        row.ingest_dropped += dc->ingest_dropped();
    }
    rollup_.add(row);
    sim_.schedule(config_.sample_period, [this] { sample_tick(); });
}

void Fleet::audit_shard(TrainId train) {
    ZC_PROF_SCOPE(kAudit);
    std::vector<faults::ReplicaView> replicas = shards_[train]->replica_views();
    std::vector<faults::DataCenterView> dcs;
    dcs.reserve(dcs_.size());
    for (std::uint32_t d = 0; d < config_.dc_count; ++d) {
        faults::DataCenterView view;
        view.id = d;
        view.store = &dcs_[d]->core(train).store();
        view.proof = dcs_[d]->core(train).last_proof();
        dcs.push_back(view);
    }
    auditors_[train]->audit(replicas, dcs);
}

std::uint64_t Fleet::run_audit() {
    if (!config_.audit) return 0;
    std::uint64_t violations = 0;
    for (TrainId t = 0; t < config_.trains; ++t) {
        audit_shard(t);
        violations += auditors_[t]->report().violations.size();
    }
    return violations;
}

void Fleet::audit_tick() {
    for (TrainId t = 0; t < config_.trains; ++t) audit_shard(t);
    sim_.schedule(config_.audit_period, [this] { audit_tick(); });
}

void Fleet::run() {
    sim_.run_until(config_.warmup + config_.duration);
    stop_sampling_ = true;
    for (auto& dc : dcs_) dc->observe_all();
    run_audit();
}

void Fleet::run_for(Duration d) { sim_.run_until(sim_.now() + d); }

const health::HealthMonitor* Fleet::monitor(TrainId t) const {
    return monitors_.empty() ? nullptr : monitors_.at(t).get();
}

const faults::SafetyAuditor* Fleet::auditor(TrainId t) const {
    return auditors_.empty() ? nullptr : auditors_.at(t).get();
}

FleetReport Fleet::report() {
    FleetReport out;
    out.trains = config_.trains;
    out.dc_count = config_.dc_count;
    out.elapsed_s = to_seconds(sim_.now());
    out.exported_unique = index_.unique_blocks();
    out.exported_duplicates = index_.duplicate_blocks();
    out.cross_shard_collisions = index_.cross_shard_collisions();
    for (const auto& dc : dcs_) {
        const FleetDataCenter::Totals t = dc->totals();
        out.exports_completed += t.exports_completed;
        out.exports_failed += t.exports_failed;
        out.ingest_dropped += dc->ingest_dropped();
    }

    std::vector<const health::HealthMonitor*> monitor_views;
    for (const auto& m : monitors_) monitor_views.push_back(m.get());
    out.alarms = FleetRollup::summarize(monitor_views);

    for (TrainId t = 0; t < config_.trains; ++t) {
        TrainReport tr;
        tr.train = t;
        for (std::size_t i = 0; i < shards_[t]->node_count(); ++i) {
            const health::NodeSample s = shards_[t]->snapshot_node(i);
            if (s.alive) tr.nodes_alive += 1;
            tr.head = std::max<Height>(tr.head, s.head_height);
            tr.logged = std::max(tr.logged, s.logged);
        }
        const auto entry = index_.trains().find(t);
        if (entry != index_.trains().end()) tr.exported_head = entry->second.head;
        for (const auto& dc : dcs_) {
            const exporter::DcStats& s = dc->core(t).stats();
            tr.exports_completed += s.exports_completed;
            tr.exports_failed += s.exports_failed;
        }
        if (!monitors_.empty()) {
            for (const health::Alarm& a : monitors_[t]->alarms()) {
                if (!a.cleared) tr.active_alarms += 1;
            }
        }
        if (config_.audit) {
            tr.audit_violations = auditors_[t]->report().violations.size();
        }
        out.audit_violations += tr.audit_violations;
        out.head_sum += tr.head;
        out.logged_sum += tr.logged;
        out.per_train.push_back(tr);
    }
    return out;
}

std::string FleetReport::json() const {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"trains\":%u,\"dc_count\":%u,\"elapsed_s\":%.3f", trains, dc_count,
                  elapsed_s);
    std::string out = buf;
    out += ",\"logged_sum\":" + std::to_string(logged_sum);
    out += ",\"head_sum\":" + std::to_string(head_sum);
    out += ",\"exported_unique\":" + std::to_string(exported_unique);
    out += ",\"exported_duplicates\":" + std::to_string(exported_duplicates);
    out += ",\"cross_shard_collisions\":" + std::to_string(cross_shard_collisions);
    out += ",\"exports_completed\":" + std::to_string(exports_completed);
    out += ",\"exports_failed\":" + std::to_string(exports_failed);
    out += ",\"ingest_dropped\":" + std::to_string(ingest_dropped);
    out += ",\"audit_violations\":" + std::to_string(audit_violations);
    out += ",\"alarms\":" + alarms.json();
    out += ",\"per_train\":[";
    bool first = true;
    for (const TrainReport& t : per_train) {
        if (!first) out += ",";
        first = false;
        out += "{\"train\":" + std::to_string(t.train);
        out += ",\"nodes_alive\":" + std::to_string(t.nodes_alive);
        out += ",\"head\":" + std::to_string(t.head);
        out += ",\"logged\":" + std::to_string(t.logged);
        out += ",\"exported_head\":" + std::to_string(t.exported_head);
        out += ",\"exports_completed\":" + std::to_string(t.exports_completed);
        out += ",\"exports_failed\":" + std::to_string(t.exports_failed);
        out += ",\"active_alarms\":" + std::to_string(t.active_alarms);
        out += ",\"audit_violations\":" + std::to_string(t.audit_violations);
        out += "}";
    }
    out += "]}";
    return out;
}

}  // namespace zc::fleet
