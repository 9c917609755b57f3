#include "runtime/dc_port.hpp"

#include <variant>

#include "prof/prof.hpp"
#include "runtime/train_shard.hpp"
#include "runtime/wire.hpp"

namespace zc::runtime {

namespace {

exporter::DcConfig dc_config(const ScenarioConfig& train, DataCenterId id) {
    exporter::DcConfig cfg;
    cfg.id = id;
    cfg.n = train.n;
    cfg.f = train.f;
    cfg.checkpoint_interval = train.block_size;
    cfg.reply_timeout = train.export_timeout;
    cfg.max_retries = train.export_max_retries;
    cfg.retry_backoff = train.export_retry_backoff;
    cfg.retry_backoff_max = train.export_retry_backoff_max;
    for (DataCenterId other = 0; other < train.dc_count; ++other) {
        if (other != id) cfg.peers.push_back(other);
    }
    return cfg;
}

}  // namespace

DcPort::DcPort(TrainShard& shard, DataCenterId id, crypto::KeyPair key,
               sim::MeteredExecutor& ingest, trace::TraceSink* trace, std::uint32_t train)
    : id_(id), train_(train), sim_(*shard.env().sim), net_(shard.network()), ingest_(ingest),
      trace_(trace), costs_(metrics::CostModel::cloud()),
      crypto_(*shard.env().provider, shard.directory(), std::move(key), costs_, meter_),
      dc_(dc_config(shard.config(), id), sim_, crypto_, *this) {
    dc_.set_trace(trace, dc_endpoint(id));
    net_.attach(dc_endpoint(id), this);
    shard.add_port(*this);
}

void DcPort::deliver(net::EndpointId /*from*/, Bytes message) {
    // Enqueue time feeds the ingest-queue span: how long this message
    // waited for an executor core (arg = wire bytes, trace = train).
    const TimePoint enqueued = sim_.now();
    ingest_.submit([this, enqueued, msg = std::move(message)] {
        ZC_PROF_SCOPE(kDcIngest);
        if (trace_ != nullptr) {
            trace_->span(dc_endpoint(id_), enqueued, sim_.now() - enqueued,
                         trace::Phase::kDcIngestQueue, train_, msg.size());
        }
        crypto_.charge(costs_.handle(msg.size()));
        const auto envelope = decode_envelope(msg);
        if (!envelope || envelope->channel != Channel::kExport) return meter_.take();
        const auto m = exporter::decode_export_message(envelope->body);
        if (m && std::holds_alternative<exporter::DcSync>(*m)) {
            ZC_PROF_SCOPE(kDcSync);
            if (trace_ != nullptr) {
                trace_->event(dc_endpoint(id_), sim_.now(), trace::Phase::kDcSync, train_,
                              envelope->body.size());
            }
            dc_.on_message(*m);
        } else if (m) {
            dc_.on_message(*m);
        }
        return meter_.take();
    });
}

void DcPort::to_replica(NodeId replica, const exporter::ExportMessage& m) { send(replica, m); }

// Peer DCs are reachable through their port on this same consist network,
// so sync traffic stays within the consist's addressing plan.
void DcPort::to_data_center(DataCenterId dc, const exporter::ExportMessage& m) {
    send(dc_endpoint(dc), m);
}

void DcPort::send(net::EndpointId to, const exporter::ExportMessage& m) {
    net_.send(dc_endpoint(id_), to,
              encode_envelope(Channel::kExport, exporter::encode_export_message(m)));
}

void DcPort::set_down(bool down) { net_.set_endpoint_down(dc_endpoint(id_), down); }

}  // namespace zc::runtime
