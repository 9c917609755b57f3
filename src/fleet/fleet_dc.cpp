#include "fleet/fleet_dc.hpp"

#include <stdexcept>

namespace zc::fleet {

void FleetIndex::observe(TrainId train, DataCenterId dc, const chain::BlockStore& store) {
    Height& cursor = cursors_[{dc, train}];
    const Height head = store.head_height();
    for (Height h = cursor + 1; h <= head; ++h) {
        const chain::BlockHeader* header = store.header(h);
        if (header == nullptr) continue;
        const crypto::Digest hash = header->hash();
        const auto [it, inserted] = by_hash_.try_emplace(hash, train, h);
        if (inserted) {
            TrainEntry& entry = trains_[train];
            entry.blocks += 1;
            if (h >= entry.head) {
                entry.head = h;
                entry.head_hash = hash;
            }
            unique_blocks_ += 1;
        } else if (it->second.first == train) {
            duplicate_blocks_ += 1;  // replicated via DC-to-DC sync
        } else {
            cross_shard_collisions_ += 1;  // a sibling shard's block — never expected
        }
    }
    if (head > cursor) cursor = head;
}

std::string FleetIndex::json() const {
    std::string out = "{\"unique_blocks\":" + std::to_string(unique_blocks_) +
                      ",\"duplicate_blocks\":" + std::to_string(duplicate_blocks_) +
                      ",\"cross_shard_collisions\":" + std::to_string(cross_shard_collisions_) +
                      ",\"trains\":[";
    bool first = true;
    for (const auto& [train, entry] : trains_) {
        if (!first) out += ",";
        first = false;
        out += "{\"train\":" + std::to_string(train) +
               ",\"head\":" + std::to_string(entry.head) +
               ",\"blocks\":" + std::to_string(entry.blocks) + "}";
    }
    out += "]}";
    return out;
}

FleetDataCenter::FleetDataCenter(FleetDcConfig config, sim::Simulation& sim, crypto::KeyPair key,
                                 FleetIndex& index, trace::TraceSink* trace)
    : config_(config), key_(std::move(key)), index_(index), trace_(trace),
      executor_(sim, config.ingest_cores, config.ingest_queue) {}

FleetDataCenter::~FleetDataCenter() = default;

void FleetDataCenter::add_shard(TrainId train, runtime::TrainShard& shard) {
    if (ports_.size() != train) {
        throw std::invalid_argument("fleet dc shards must be added in train order");
    }
    ports_.push_back(
        std::make_unique<runtime::DcPort>(shard, config_.id, key_, executor_, trace_, train));
    // Archive growth is indexed as exports complete (plus the periodic
    // observe_all sweep for sync-adopted blocks).
    exporter::DataCenter* core = &ports_.back()->dc();
    core->set_completion_hook([this, train, core](const exporter::ExportRecord& record) {
        if (record.success) index_.observe(train, config_.id, core->store());
    });
}

void FleetDataCenter::start_export(TrainId train) {
    if (down_) return;
    ports_.at(train)->dc().start_export();
}

bool FleetDataCenter::exporting(TrainId train) const {
    return ports_.at(train)->dc().exporting();
}

void FleetDataCenter::set_down(bool down) {
    down_ = down;
    for (const auto& port : ports_) port->set_down(down);
    if (down) executor_.clear_queue();  // the frontend loses its backlog too
}

void FleetDataCenter::observe_all() {
    for (TrainId t = 0; t < ports_.size(); ++t) index_.observe(t, config_.id, core(t).store());
}

exporter::DataCenter& FleetDataCenter::core(TrainId train) { return ports_.at(train)->dc(); }

const exporter::DataCenter& FleetDataCenter::core(TrainId train) const {
    return ports_.at(train)->dc();
}

FleetDataCenter::Totals FleetDataCenter::totals() const {
    Totals t;
    for (const auto& port : ports_) {
        const exporter::DcStats& s = port->dc().stats();
        t.exports_completed += s.exports_completed;
        t.exports_failed += s.exports_failed;
        t.retries += s.retries;
        t.blocks_rejected += s.blocks_rejected;
        t.syncs_received += s.syncs_received;
    }
    return t;
}

}  // namespace zc::fleet
