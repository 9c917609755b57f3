// One data center's port on one consist network: the network endpoint at
// dc_endpoint(id), the DcTransport that answers over the same network, a
// crypto context bound to the consist's key directory, and the export
// protocol core (exporter::DataCenter) configured from the consist's
// config.
//
// Inbound messages are submitted into an ingest executor the harness
// hands in: runtime::Scenario gives each of its data centers a private
// 4-core executor, fleet::FleetDataCenter gives all of its ports (one per
// train) its one bounded ingest frontend, so every train contends for the
// same admission capacity.
#pragma once

#include "export/data_center.hpp"
#include "net/network.hpp"
#include "sim/executor.hpp"

namespace zc::runtime {

class TrainShard;

class DcPort final : public net::Endpoint, public exporter::DcTransport {
public:
    /// Attaches data center `id` to `shard`'s network and registers with
    /// the shard (its audits and liveness observations read this port's
    /// archive). Construct a shard's ports in DC id order. Export spans,
    /// ingest-queue spans and DC-sync events record into `trace` under
    /// pid dc_endpoint(id); the latter two carry `train` as trace id.
    DcPort(TrainShard& shard, DataCenterId id, crypto::KeyPair key, sim::MeteredExecutor& ingest,
           trace::TraceSink* trace, std::uint32_t train);

    DcPort(const DcPort&) = delete;
    DcPort& operator=(const DcPort&) = delete;

    void deliver(net::EndpointId from, Bytes message) override;
    void to_replica(NodeId replica, const exporter::ExportMessage& m) override;
    void to_data_center(DataCenterId dc, const exporter::ExportMessage& m) override;

    /// Outage: inbound messages drop at the endpoint while down.
    void set_down(bool down);

    DataCenterId id() const noexcept { return id_; }
    exporter::DataCenter& dc() noexcept { return dc_; }
    const exporter::DataCenter& dc() const noexcept { return dc_; }

private:
    void send(net::EndpointId to, const exporter::ExportMessage& m);

    DataCenterId id_;
    std::uint32_t train_;
    sim::Simulation& sim_;
    net::Network& net_;
    sim::MeteredExecutor& ingest_;
    trace::TraceSink* trace_;
    metrics::CostModel costs_;
    crypto::WorkMeter meter_;
    crypto::CryptoContext crypto_;
    exporter::DataCenter dc_;
};

}  // namespace zc::runtime
