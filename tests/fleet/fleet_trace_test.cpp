// Fleet-unified trace plane: every shard and every data center lands in
// ONE Chrome trace with disjoint pid ranges, and the virtual-time content
// is a pure function of the seed.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "fleet/fleet.hpp"
#include "trace/trace.hpp"

namespace zc::fleet {
namespace {

FleetConfig traced_config(trace::TraceSink* sink) {
    FleetConfig cfg;
    cfg.trains = 3;
    cfg.seed = 11;
    cfg.dc_count = 2;
    cfg.warmup = seconds(1);
    cfg.duration = seconds(10);
    cfg.export_period = seconds(4);
    cfg.train.payload_size = 256;
    cfg.trace_sink = sink;
    return cfg;
}

std::string run_traced() {
    trace::Tracer tracer(/*capture_events=*/true);
    Fleet fleet(traced_config(&tracer));
    fleet.run();
    return tracer.chrome_json();
}

/// Every `"pid":N` occurring in the serialized trace.
std::set<unsigned> pids_in(const std::string& json) {
    std::set<unsigned> pids;
    const std::string needle = "\"pid\":";
    for (std::size_t at = json.find(needle); at != std::string::npos;
         at = json.find(needle, at + 1)) {
        pids.insert(static_cast<unsigned>(std::stoul(json.substr(at + needle.size()))));
    }
    return pids;
}

TEST(FleetTrace, PidPlanSeparatesTrainsAndDataCenters) {
    const std::string json = run_traced();
    const std::set<unsigned> pids = pids_in(json);
    ASSERT_FALSE(pids.empty());

    // Each train's 4 nodes occupy 1000*(t+1)..+3; DCs sit at 100+d. No
    // event may fall outside the plan (that would mean an unmapped sink).
    for (const unsigned pid : pids) {
        const bool is_dc = pid == dc_trace_pid(0) || pid == dc_trace_pid(1);
        const bool is_train = (pid >= trace_pid(0, 0) && pid <= trace_pid(0, 3)) ||
                              (pid >= trace_pid(1, 0) && pid <= trace_pid(1, 3)) ||
                              (pid >= trace_pid(2, 0) && pid <= trace_pid(2, 3));
        EXPECT_TRUE(is_dc || is_train) << "unplanned pid " << pid;
    }
    // All three trains and both DCs actually emitted.
    for (TrainId t = 0; t < 3; ++t) {
        EXPECT_TRUE(pids.count(trace_pid(t, 0))) << "train " << t << " missing";
    }
    EXPECT_TRUE(pids.count(dc_trace_pid(0)));
    EXPECT_TRUE(pids.count(dc_trace_pid(1)));
}

TEST(FleetTrace, DataCenterPhasesAreInTheMergedTrace) {
    const std::string json = run_traced();
    // Ingest-queue spans (enqueue -> decode) and DC-to-DC sync events ride
    // the same trace as the consensus phases.
    EXPECT_NE(json.find("\"dc_ingest_queue\""), std::string::npos);
    EXPECT_NE(json.find("\"dc_sync\""), std::string::npos);
    EXPECT_NE(json.find("\"preprepare\""), std::string::npos);
}

TEST(FleetTrace, SameSeedSerializesByteIdentically) {
    EXPECT_EQ(run_traced(), run_traced());
}

/// Instant events named `name` recorded under `pid`.
std::size_t count_events(const std::string& json, const std::string& name, unsigned pid) {
    std::size_t n = 0;
    const std::string needle = "{\"name\":\"" + name + "\"";
    const std::string want = "\"pid\":" + std::to_string(pid) + ",";
    for (std::size_t at = json.find(needle); at != std::string::npos;
         at = json.find(needle, at + 1)) {
        const std::size_t end = json.find('}', at);
        if (json.substr(at, end - at).find(want) != std::string::npos) n += 1;
    }
    return n;
}

TEST(FleetTrace, OverlayNodeFlapTracesLinkDownAndUpOnTheTrainsPid) {
    // A journey overlay's node flap goes through the same shard flap path
    // as a single-consist flap, so it is traced under the train's pid.
    trace::Tracer tracer(/*capture_events=*/true);
    FleetConfig cfg = traced_config(&tracer);
    cfg.trains = 2;
    runtime::ScenarioConfig::LinkFlap flap;
    flap.at = seconds(3);
    flap.duration = seconds(2);
    flap.link = runtime::ScenarioConfig::LinkFlap::Link::kNode;
    flap.node = 2;
    cfg.overlays[1].link_flaps.push_back(flap);
    Fleet fleet(cfg);
    fleet.run();
    const std::string json = tracer.chrome_json();
    EXPECT_EQ(count_events(json, "link_down", trace_pid(1, 2)), 1u);
    EXPECT_EQ(count_events(json, "link_up", trace_pid(1, 2)), 1u);
    EXPECT_EQ(count_events(json, "link_down", trace_pid(0, 2)), 0u) << "train 0 never flapped";
}

TEST(FleetTrace, DeadZonesAndLivenessFindingsLandOnTheirTrainsRow) {
    // Events of a consist as a whole are traced without a node; in a fleet
    // they must still say which train they belong to.
    trace::Tracer tracer(/*capture_events=*/true);
    FleetConfig cfg = traced_config(&tracer);
    cfg.trains = 2;
    cfg.duration = seconds(16);
    cfg.audit_liveness = true;
    cfg.chaos.dead_zones.push_back({0, seconds(4), seconds(3)});
    cfg.chaos.dead_zones.push_back({1, seconds(6), seconds(3)});
    for (NodeId i = 0; i < cfg.train.n; ++i) cfg.overlays[1].cpu_profiles[i] = 20.0;
    Fleet fleet(cfg);
    fleet.run();
    const std::string json = tracer.chrome_json();
    for (TrainId t = 0; t < 2; ++t) {
        EXPECT_EQ(count_events(json, "link_down", train_trace_pid(t)), 1u) << "train " << t;
        EXPECT_EQ(count_events(json, "link_up", train_trace_pid(t)), 1u) << "train " << t;
        // Each train's row carries exactly its own auditor's findings.
        EXPECT_EQ(count_events(json, "liveness_violation", train_trace_pid(t)),
                  fleet.liveness(t)->report().violations.size())
            << "train " << t;
    }
    EXPECT_FALSE(fleet.liveness(1)->report().clean()) << "train 1 limps into a stall";
    EXPECT_EQ(json.find("\"pid\":" + std::to_string(kNoNode)), std::string::npos);
}

TEST(FleetTrace, OffsetSinkRemapsAllButNoNode) {
    trace::Tracer tracer(true);
    trace::OffsetSink offset(tracer, 2000);
    offset.event(3, millis_f(1.0), trace::Phase::kDecide, 7, 0);
    offset.event(kNoNode, millis_f(2.0), trace::Phase::kDecide, 8, 0);
    const std::string json = tracer.chrome_json();
    EXPECT_NE(json.find("\"pid\":2003"), std::string::npos);
    // The "no node" sentinel stays global instead of landing at 2000+...
    EXPECT_EQ(json.find("\"pid\":2000"), std::string::npos);
}

}  // namespace
}  // namespace zc::fleet
