#include "fleet/fleet.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "prof/prof.hpp"

namespace zc::fleet {

namespace {

/// Rejects a config entry naming `value` when it must stay below `limit`.
void require_below(std::uint32_t value, std::uint32_t limit, const std::string& what,
                   const char* bound) {
    if (value >= limit) {
        throw std::invalid_argument(what + " " + std::to_string(value) + " but " + bound + "=" +
                                    std::to_string(limit));
    }
}

/// Spans in which every data center is down under the chaos plan (an
/// outage with duration 0 lasts to the horizon): no shard reaches an
/// archive, so the liveness auditors excuse stalled exports there.
std::vector<faults::UplinkDarkSpan> all_dcs_down(const FleetConfig& cfg) {
    const auto end_of = [&cfg](const FleetChaos::DcOutage& o) {
        return o.duration > Duration::zero() ? o.at + o.duration : cfg.warmup + cfg.duration;
    };
    std::vector<Duration> cuts;
    for (const auto& o : cfg.chaos.dc_outages) {
        cuts.push_back(o.at);
        cuts.push_back(end_of(o));
    }
    std::sort(cuts.begin(), cuts.end());
    std::vector<faults::UplinkDarkSpan> out;
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
        std::set<DataCenterId> down;
        for (const auto& o : cfg.chaos.dc_outages) {
            if (o.at <= cuts[i] && cuts[i] < end_of(o)) down.insert(o.dc);
        }
        if (down.size() < cfg.dc_count || cuts[i] == cuts[i + 1]) continue;
        if (!out.empty() && out.back().to == cuts[i]) {
            out.back().to = cuts[i + 1];
        } else {
            out.push_back({cuts[i], cuts[i + 1]});
        }
    }
    return out;
}

}  // namespace

Fleet::Fleet(FleetConfig config)
    : config_(std::move(config)), sim_(config_.seed),
      provider_(crypto::make_provider(config_.train.crypto_provider)) {
    if (config_.trains == 0) throw std::invalid_argument("fleet needs at least one train");
    const std::uint32_t trains = config_.trains;
    for (const auto& [t, nodes] : config_.byzantine) {
        require_below(t, trains, "byzantine entry names train", "trains");
    }
    for (const auto& c : config_.chaos.crashes) {
        require_below(c.train, trains, "chaos crash names train", "trains");
        require_below(c.node, config_.train.n, "chaos crash names node", "n");
    }
    for (const auto& z : config_.chaos.dead_zones) {
        require_below(z.train, trains, "dead zone names train", "trains");
    }
    for (const auto& o : config_.chaos.dc_outages) {
        require_below(o.dc, config_.dc_count, "dc outage names dc", "dc_count");
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

    // Per-train watchdogs: exports are watched, with the backlog threshold
    // scaled to the export cadence.
    const health::MonitorConfig monitor_cfg = config_.monitor.watching_exports(
        config_.dc_count, config_.export_period,
        config_.train.bus_cycle * static_cast<std::int64_t>(config_.train.block_size));
    const std::vector<faults::UplinkDarkSpan> dcs_dark = all_dcs_down(config_);

    // Shards, in train order (construction order is part of the replay).
    constexpr auto kLte = runtime::ScenarioConfig::LinkFlap::Link::kLte;
    for (TrainId t = 0; t < config_.trains; ++t) {
        networks_.push_back(std::make_unique<net::Network>(sim_));

        if (config_.audit) auditors_.push_back(std::make_unique<faults::SafetyAuditor>());
        if (config_.audit_liveness) {
            liveness_.push_back(std::make_unique<faults::LivenessAuditor>());
        }
        monitors_.push_back(std::make_unique<health::HealthMonitor>(monitor_cfg));

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
        cfg.liveness = config_.audit_liveness ? liveness_.back().get() : nullptr;
        cfg.health_monitor = monitors_.back().get();
        cfg.health_timeseries = nullptr;
        // Shard trace events are remapped into the train's pid band so a
        // single Tracer yields one merged fleet trace (see trace_pid() and
        // train_trace_pid()).
        if (config_.trace_sink != nullptr) {
            shard_sinks_.push_back(
                std::make_unique<trace::OffsetSink>(*config_.trace_sink, trace_pid(t, 0),
                                                    train_trace_pid(t)));
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
        // fleet chaos and its overlay (none without either), never from
        // the per-train template. The shard validates and schedules them
        // like any consist's; a dead zone is an LTE flap.
        runtime::TrainSchedules& schedules = cfg;
        schedules = {};
        for (const auto& c : config_.chaos.crashes) {
            if (c.train == t) schedules.crash_schedule.emplace_back(c.at, c.node, c.restart_after);
        }
        for (const auto& z : config_.chaos.dead_zones) {
            if (z.train == t) schedules.link_flaps.push_back({z.at, z.duration, kLte, 0, false});
        }
        const auto overlay = config_.overlays.find(t);
        if (overlay != config_.overlays.end()) schedules.append(overlay->second);

        runtime::ShardEnv env;
        env.sim = &sim_;
        env.net = networks_.back().get();
        env.provider = provider_.get();
        env.rng_label = "train-" + std::to_string(t) + "-";
        env.dc_keys = &dc_keys_;
        env.uplink_dark = dcs_dark;
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

    // Data-center outages (train-level chaos is in the shards' schedules).
    for (const auto& o : config_.chaos.dc_outages) {
        sim_.schedule(o.at, [this, o] { dcs_[o.dc]->set_down(true); });
        if (o.duration > Duration::zero()) {
            sim_.schedule(o.at + o.duration, [this, o] { dcs_[o.dc]->set_down(false); });
        }
    }

    // Per-train fault schedules (fleet chaos + overlays), in train order.
    for (auto& shard : shards_) shard->schedule_faults();

    // Staggered periodic exports: prefer "our" company's DC, fail over to
    // the next one that is up.
    if (config_.dc_count > 0 && config_.export_period > Duration::zero()) {
        const Duration stagger =
            config_.export_period / static_cast<std::int64_t>(config_.trains);
        for (TrainId t = 0; t < config_.trains; ++t) {
            sim_.every(config_.warmup + stagger * static_cast<std::int64_t>(t),
                       config_.export_period, [this, t] {
                           for (std::uint32_t k = 0; k < config_.dc_count; ++k) {
                               FleetDataCenter& dc = *dcs_[(t + k) % config_.dc_count];
                               if (dc.down()) continue;
                               if (!dc.exporting(t)) dc.start_export(t);
                               break;
                           }
                       });
        }
    }

    for (TrainId t = 0; t < config_.trains; ++t) shards_[t]->start();

    // One fleet-wide event per cadence ticks every shard: health samples
    // feed the watchdogs and the rollup, then the audits.
    if (config_.sample_period > Duration::zero()) {
        sim_.schedule(config_.sample_period, [this] { sample_tick(); });
    }
    if (config_.audit && config_.train.audit_period > Duration::zero()) {
        sim_.every(config_.train.audit_period, [this] { run_audit(); });
    }
    if (config_.audit_liveness && config_.train.liveness_period > Duration::zero()) {
        sim_.every(config_.train.liveness_period, [this] {
            for (auto& shard : shards_) shard->observe_liveness();
        });
    }
}

void Fleet::sample_tick() {
    if (stop_sampling_) return;
    for (auto& dc : dcs_) dc->observe_all();

    FleetSample row;
    row.at = sim_.now();
    row.trains = config_.trains;
    for (const auto& shard : shards_) {
        const runtime::TrainSample s = shard->check_health();
        row.nodes_alive += s.alive;
        row.head_sum += s.head;
        row.logged_sum += s.logged;
        row.backlog_sum += s.backlog;
    }
    row.exported_sum = index_.unique_blocks();
    for (const auto& monitor : monitors_) row.active_alarms += monitor->active_alarms();
    for (const auto& dc : dcs_) {
        row.ingest_depth += dc->ingest_queue_depth();
        row.ingest_dropped += dc->ingest_dropped();
    }
    rollup_.add(row);
    sim_.schedule(config_.sample_period, [this] { sample_tick(); });
}

void Fleet::run_audit() {
    for (auto& shard : shards_) shard->audit();
}

void Fleet::run() {
    sim_.run_until(config_.warmup + config_.duration);
    stop_sampling_ = true;
    for (auto& dc : dcs_) dc->observe_all();
    run_audit();
    for (auto& live : liveness_) live->finish(sim_.now());
}

void Fleet::run_for(Duration d) { sim_.run_until(sim_.now() + d); }

const health::HealthMonitor* Fleet::monitor(TrainId t) const { return monitors_.at(t).get(); }

faults::SafetyAuditor* Fleet::auditor(TrainId t) {
    return auditors_.empty() ? nullptr : auditors_.at(t).get();
}

const faults::LivenessAuditor* Fleet::liveness(TrainId t) const {
    return liveness_.empty() ? nullptr : liveness_.at(t).get();
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
        const runtime::TrainSample s = shards_[t]->sample();
        tr.nodes_alive = s.alive;
        tr.head = s.head;
        tr.logged = s.logged;
        const auto entry = index_.trains().find(t);
        if (entry != index_.trains().end()) tr.exported_head = entry->second.head;
        for (const auto& dc : dcs_) {
            const exporter::DcStats& s = dc->core(t).stats();
            tr.exports_completed += s.exports_completed;
            tr.exports_failed += s.exports_failed;
        }
        tr.active_alarms = monitors_[t]->active_alarms();
        if (config_.audit) {
            tr.audit_violations = auditors_[t]->report().violations.size();
        }
        if (config_.audit_liveness) {
            tr.liveness_violations = liveness_[t]->report().violations.size();
        }
        out.audit_violations += tr.audit_violations;
        out.liveness_violations += tr.liveness_violations;
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
    out += ",\"liveness_violations\":" + std::to_string(liveness_violations);
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
        out += ",\"liveness_violations\":" + std::to_string(t.liveness_violations);
        out += "}";
    }
    out += "]}";
    return out;
}

}  // namespace zc::fleet
