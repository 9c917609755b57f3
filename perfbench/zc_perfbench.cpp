// zc_perfbench: one run of one benchmark workload.
//
// Builds the workload through the public fleet::Fleet / runtime::Scenario
// APIs, drives the virtual clock itself with sim::Simulation::step(),
// checks the run (safety audit, chain agreement, cross-shard collisions,
// stuck alarms, lost telegrams) and prints ONE JSON line with the
// end-to-end metrics, the exact per-layer counts, a fingerprint over every
// virtual value, and — with --traced — the host cost per layer.
// perfbench/run.py turns these lines into the benchmark's result.
//
//   zc_perfbench --workload fleet_steady|consist_ed25519|fleet_chaos
//                --seed N --virtual-s S [--setups K] [--traced]
//
// --setups K times K batches of constructions before anything else, after
// three runs of a reference workload that gauge the host's speed.
// Untraced simulations attach no trace sink, activate no profiler and start
// no host pool. Traced simulations activate prof::Profiler, attach a trace
// sink (a metrics-only trace::Tracer plus the labelling sink below) and
// time every step() from here; --traced runs untraced and traced
// simulations alternately, twice each, and reports the last traced one.
// Everything observed from outside the program is read through public
// accessors, so both kinds simulate the same events; the fingerprint
// proves it.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "common/hex.hpp"
#include "crypto/sha256.hpp"
#include "fleet/chaos.hpp"
#include "fleet/fleet.hpp"
#include "metrics/stats.hpp"
#include "prof/prof.hpp"
#include "runtime/scenario.hpp"
#include "trace/registry.hpp"
#include "trace/trace.hpp"

namespace {

using namespace zc;

/// a / b, or 0 when there is nothing to divide by.
double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

std::uint64_t wall_ns() {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          std::chrono::steady_clock::now().time_since_epoch())
                                          .count());
}

// ---------------------------------------------------------------------------
// Workloads. All three run n = 4, f = 1 on the library's link profiles:
// train Ethernet 100 Mbit/s (100 us + up to 50 us jitter) and LTE
// 8.5 Mbit/s (35 ms + up to 15 ms jitter), divided among the trains of a
// cell. The bus is time-triggered: one telegram per cycle per train,
// whatever the system does (open loop).

enum class Kind { kFleetSteady, kConsistEd25519, kFleetChaos };

constexpr Duration kExportPeriod = seconds(5);
/// Virtual time after the bus stops in which in-flight telegrams are
/// logged and the last blocks exported: three export periods, or a whole
/// minute under faults, where an export backs off for up to 30 s.
constexpr Duration kDrain = seconds(15);
constexpr Duration kFaultDrain = seconds(60);
/// Cost-model multiplier of the limping nodes. At 4x the nominal device
/// cost a limping node logs every telegram about 34 ms after reception
/// while its protocol core stays below saturation, which the compiler's
/// default of 6 reaches under the paper load.
constexpr double kLimpFactor = 4.0;
/// Gray-fault placement is part of the workload, not of the seed: the seed
/// varies the inputs and the random streams, the fault plan stays put.
constexpr std::uint64_t kGrayPlanSeed = 1;

/// The paper's §V-A testbed (the values of bench::paper_config()): 64 ms
/// MVB cycle, 1 KiB telegrams, 10 requests per block, noise-free taps.
runtime::ScenarioConfig paper_testbed() {
    runtime::ScenarioConfig c;
    c.n = 4;
    c.f = 1;
    c.bus_cycle = milliseconds(64);
    c.payload_size = 1024;
    c.block_size = 10;
    c.default_tap_faults = {};
    return c;
}

/// 8 trains at the scale_fleet operating point.
fleet::FleetConfig fleet_steady(std::uint64_t seed, Duration duration) {
    fleet::FleetConfig c;
    c.trains = 8;
    c.seed = seed;
    c.train = paper_testbed();
    c.train.bus_cycle = milliseconds(16);
    c.train.payload_size = 256;
    c.train.batch_max_requests = 10;
    c.train.batch_linger = microseconds(2000);
    c.dc_count = 2;
    c.trains_per_cell = 2;
    c.export_period = kExportPeriod;
    c.warmup = seconds(2);
    c.duration = duration;
    c.audit = true;
    return c;
}

/// 4 trains at the paper config under the fleet drill of `zugchain_sim
/// --fleet 4 --fleet-chaos --gray limping`: rolling crash+restart, LTE dead
/// zones, DC 0 outage, limping nodes and adaptive timeouts. The fault
/// offsets scale with the run length. Limping nodes go only to the trains
/// the crash wave spares, one degraded node per consist; the bus taps stay
/// noise-free as in the paper config. Compounding either (a limping node
/// in a crashing consist, or the library's default tap faults) wedges a
/// consist on some seeds; see perfbench/README.md.
fleet::FleetConfig fleet_chaos(std::uint64_t seed, Duration duration) {
    fleet::FleetConfig c;
    c.trains = 4;
    c.seed = seed;
    c.train = paper_testbed();
    c.train.adaptive_timeouts.enabled = true;
    c.dc_count = 2;
    c.trains_per_cell = 2;
    c.export_period = kExportPeriod;
    c.warmup = seconds(2);
    c.duration = duration;
    c.audit = true;
    c.chaos = fleet::FleetChaos::staggered(c.trains, c.dc_count, c.warmup + c.duration);

    fleet::GrayChaosOptions go;
    go.n = c.train.n;
    go.f = c.train.f;
    go.trains = c.trains;
    go.seed = kGrayPlanSeed;
    go.warmup = c.warmup;
    go.horizon = c.warmup + c.duration;
    go.limping = 1;
    go.limp_factor = kLimpFactor;
    go.flapping = 0;
    go.creeps = 0;
    fleet::CompiledGray gray = fleet::compile_gray(go);
    for (const auto& crash : c.chaos.crashes) gray.trains.at(crash.train).cpu_profiles.clear();
    fleet::apply(gray, c);
    return c;
}

/// One consist at the paper config signing with real Ed25519, exporting
/// to two data centers every 5 s.
runtime::ScenarioConfig consist_ed25519(std::uint64_t seed, Duration duration) {
    runtime::ScenarioConfig c = paper_testbed();
    c.seed = seed;
    c.crypto_provider = "ed25519";
    c.dc_count = 2;
    c.warmup = seconds(3);
    c.duration = duration;
    return c;
}

/// The constructed system under test, whichever harness built it.
struct Rig {
    // Consist-only observers; declared before the scenario so they outlive it.
    std::unique_ptr<faults::SafetyAuditor> auditor;
    std::unique_ptr<health::HealthMonitor> monitor;
    std::unique_ptr<runtime::Scenario> scenario;
    std::unique_ptr<fleet::Fleet> fleet;
    Duration warmup{0};
    Duration duration{0};

    Rig(Kind kind, std::uint64_t seed, Duration dur, trace::TraceSink* sink) {
        if (kind == Kind::kConsistEd25519) {
            runtime::ScenarioConfig c = consist_ed25519(seed, dur);
            auditor = std::make_unique<faults::SafetyAuditor>();
            health::MonitorConfig mc;
            mc.watch_export = true;
            monitor = std::make_unique<health::HealthMonitor>(mc);
            c.auditor = auditor.get();
            c.health_monitor = monitor.get();
            c.trace_sink = sink;
            warmup = c.warmup;
            duration = c.duration;
            scenario = std::make_unique<runtime::Scenario>(std::move(c));
            schedule_consist_export(warmup);
        } else {
            fleet::FleetConfig c =
                kind == Kind::kFleetSteady ? fleet_steady(seed, dur) : fleet_chaos(seed, dur);
            c.trace_sink = sink;
            warmup = c.warmup;
            duration = c.duration;
            fleet = std::make_unique<fleet::Fleet>(std::move(c));
        }
    }

    /// The consist's export schedule, mirroring fleet::Fleet's: a round
    /// every export period from the end of warmup, skipped while one runs.
    void schedule_consist_export(Duration delay) {
        sim().schedule(delay, [this] {
            exporter::DataCenter& dc = scenario->data_center(0);
            if (!dc.exporting()) dc.start_export();
            schedule_consist_export(kExportPeriod);
        });
    }

    sim::Simulation& sim() { return fleet ? fleet->sim() : scenario->sim(); }
    std::uint32_t trains() const { return fleet ? fleet->train_count() : 1; }
    runtime::TrainShard& shard(std::uint32_t t) {
        return fleet ? fleet->shard(t) : scenario->shard();
    }
    const runtime::ScenarioConfig& train_config() const {
        return fleet ? fleet->config().train : scenario->config();
    }
    std::uint32_t dc_count() const {
        return fleet ? fleet->dc_count() : scenario->config().dc_count;
    }
    const exporter::DataCenter& dc(std::uint32_t t, std::uint32_t d) {
        return fleet ? fleet->data_center(d).core(t) : scenario->data_center(d);
    }
    const faults::SafetyAuditor* auditor_of(std::uint32_t t) const {
        return fleet ? fleet->auditor(t) : auditor.get();
    }
    const health::HealthMonitor* monitor_of(std::uint32_t t) const {
        return fleet ? fleet->monitor(t) : monitor.get();
    }
    /// Whether node `i` of train `t` runs a gray-fault limping cost profile.
    bool limping(std::uint32_t t, std::size_t i) const {
        const auto id = static_cast<NodeId>(i);
        if (!fleet) return scenario->config().cpu_profiles.contains(id);
        const auto it = fleet->config().overlays.find(t);
        return it != fleet->config().overlays.end() && it->second.cpu_profiles.contains(id);
    }
    /// Final audit pass over every train (and its data-center archives).
    void run_audit() {
        if (fleet) {
            for (std::uint32_t d = 0; d < fleet->dc_count(); ++d) {
                fleet->data_center(d).observe_all();
            }
            fleet->run_audit();
        } else {
            scenario->run_audit();
        }
    }
};

// ---------------------------------------------------------------------------
// Per-node counters that survive a crash/restart. A restart rebuilds the
// node's protocol stack, zeroing its replica and layer stats; the old stack
// stays readable (and frozen) from the crash until then, so a snapshot of a
// dead node carries its pre-crash totals across the rebuild.

void add(zugchain::LayerStats& a, const zugchain::LayerStats& b) {
    a.received += b.received;
    a.filtered_in_log += b.filtered_in_log;
    a.proposed += b.proposed;
    a.broadcasts += b.broadcasts;
    a.forwards += b.forwards;
    a.logged += b.logged;
    a.duplicates_decided += b.duplicates_decided;
    a.suspects += b.suspects;
    a.rate_limited += b.rate_limited;
    a.soft_timeouts += b.soft_timeouts;
    a.hard_timeouts += b.hard_timeouts;
}

void add(pbft::ReplicaStats& a, const pbft::ReplicaStats& b) {
    a.proposals += b.proposals;
    a.preprepares_sent += b.preprepares_sent;
    a.prepares_sent += b.prepares_sent;
    a.commits_sent += b.commits_sent;
    a.decided += b.decided;
    a.checkpoints_stable += b.checkpoints_stable;
    a.view_changes_started += b.view_changes_started;
    a.new_views_installed += b.new_views_installed;
    a.invalid_messages += b.invalid_messages;
    a.duplicate_proposals_blocked += b.duplicate_proposals_blocked;
    a.batches_proposed += b.batches_proposed;
    a.batched_requests += b.batched_requests;
    a.pending_dropped += b.pending_dropped;
    a.pending_rerouted += b.pending_rerouted;
    a.rtt_samples += b.rtt_samples;
    a.timeout_escalations += b.timeout_escalations;
    a.timeout_thrash += b.timeout_thrash;
}

struct NodeCarry {
    std::uint64_t restarts = 0;
    zugchain::LayerStats layer_base, layer_dead;
    pbft::ReplicaStats replica_base, replica_dead;
};

struct TrainTrack {
    Height head = 0;                     ///< highest height any live node holds
    std::vector<TimePoint> persisted;    ///< [h-1] = first seen on any live node
    Height archived_head = 0;            ///< highest height any DC holds
    std::vector<TimePoint> archived;     ///< [h-1] = first seen at any DC
};

/// Benchmark-side observation of the running system. Reads public accessors
/// on a virtual-time grid; never schedules or mutates anything.
struct Probe {
    static constexpr Duration kTick = milliseconds(1);
    static constexpr Duration kSlowTick = milliseconds(10);

    std::vector<TrainTrack> trains;
    std::vector<std::vector<NodeCarry>> carry;  ///< [train][node]
    TimePoint next_tick{0};
    TimePoint next_slow{0};
    std::uint64_t pending_peak = 0;
    std::uint64_t retained_peak = 0;
    std::int64_t mem_peak_bytes = 0;

    explicit Probe(Rig& rig) {
        trains.resize(rig.trains());
        carry.resize(rig.trains());
        for (std::uint32_t t = 0; t < rig.trains(); ++t) {
            carry[t].resize(rig.shard(t).node_count());
        }
    }

    void tick(Rig& rig) {
        const TimePoint now = rig.sim().now();
        next_tick = (now / kTick + 1) * kTick;
        const bool slow = now >= next_slow;
        if (slow) {
            next_slow = (now / kSlowTick + 1) * kSlowTick;
            pending_peak = std::max<std::uint64_t>(pending_peak, rig.sim().pending_events());
        }
        for (std::uint32_t t = 0; t < rig.trains(); ++t) {
            runtime::TrainShard& shard = rig.shard(t);
            TrainTrack& track = trains[t];
            Height head = track.head;
            for (std::size_t i = 0; i < shard.node_count(); ++i) {
                runtime::Node& node = shard.node(i);
                NodeCarry& c = carry[t][i];
                if (node.restarts() != c.restarts) {
                    add(c.layer_base, c.layer_dead);
                    add(c.replica_base, c.replica_dead);
                    c.layer_dead = {};
                    c.replica_dead = {};
                    c.restarts = node.restarts();
                }
                if (!node.alive()) {
                    c.layer_dead = node.layer()->stats();
                    c.replica_dead = node.replica().stats();
                    continue;
                }
                head = std::max(head, node.store().head_height());
                if (slow) {
                    retained_peak = std::max<std::uint64_t>(retained_peak, node.store().size());
                    mem_peak_bytes = std::max(mem_peak_bytes, node.memory().total_bytes());
                }
            }
            for (; track.head < head; ++track.head) track.persisted.push_back(now);
            Height dc_head = track.archived_head;
            for (std::uint32_t d = 0; d < rig.dc_count(); ++d) {
                dc_head = std::max(dc_head, rig.dc(t, d).store().head_height());
            }
            for (; track.archived_head < dc_head; ++track.archived_head) {
                track.archived.push_back(now);
            }
        }
    }

    zugchain::LayerStats layer(Rig& rig, std::uint32_t t, std::size_t i) const {
        zugchain::LayerStats s = carry[t][i].layer_base;
        add(s, rig.shard(t).node(i).layer()->stats());
        return s;
    }
    pbft::ReplicaStats replica(Rig& rig, std::uint32_t t, std::size_t i) const {
        pbft::ReplicaStats s = carry[t][i].replica_base;
        add(s, rig.shard(t).node(i).replica().stats());
        return s;
    }

    /// Unique logged telegrams so far, summed over trains (LOG upcalls on
    /// the furthest node of each train).
    std::uint64_t logged(Rig& rig) const {
        std::uint64_t sum = 0;
        for (std::uint32_t t = 0; t < rig.trains(); ++t) {
            std::uint64_t best = 0;
            for (std::size_t i = 0; i < rig.shard(t).node_count(); ++i) {
                best = std::max(best, layer(rig, t, i).logged);
            }
            sum += best;
        }
        return sum;
    }
};

/// Adds, for every telegram `node` logged while measuring, the time from
/// the bus poll that produced it to its LOG at the node, in ms.
///
/// Node::latency_series() holds each LOG instant with the latency since
/// the node took the telegram up. The bus polls every `cycle` from t = 0
/// and its taps deliver at once, so the poll is the last cycle boundary at
/// or before take-up, unless the telegram waited out a whole cycle in the
/// node's queue. The queue is FIFO, so that shows as two take-ups in one
/// cycle; walking back from the latest, each telegram's cycle is moved
/// before its successor's.
void add_poll_latencies(runtime::Node& node, Duration cycle, metrics::Summary& out) {
    struct Sample {
        double taken_s;
        double logged_s;
    };
    std::vector<Sample> samples;
    for (const metrics::SeriesPoint& p : node.latency_series().points()) {
        samples.push_back({p.t_seconds - p.value / 1e3, p.t_seconds});
    }
    std::sort(samples.begin(), samples.end(),
              [](const Sample& a, const Sample& b) { return a.taken_s < b.taken_s; });
    const double cycle_s = to_seconds(cycle);
    std::int64_t next_slot = std::numeric_limits<std::int64_t>::max();
    std::vector<double> latencies(samples.size());
    for (std::size_t k = samples.size(); k-- > 0;) {
        // The epsilon keeps a take-up exactly on a boundary in its own cycle.
        const auto slot = std::min(
            static_cast<std::int64_t>(std::floor(samples[k].taken_s / cycle_s + 1e-9)),
            next_slot - 1);
        latencies[k] = (samples[k].logged_s - static_cast<double>(slot) * cycle_s) * 1e3;
        next_slot = slot;
    }
    for (const double l : latencies) out.add(l);
}

// ---------------------------------------------------------------------------
// Traced runs: the benchmark's own sink labels each step() by the first
// trace phase emitted during it.

enum Bucket : unsigned { kKernel, kLayer, kPbft, kChain, kExport, kFleetDc, kAudit, kUnlabelled,
                         kBucketCount };
constexpr const char* kBucketNames[kBucketCount] = {"kernel", "layer",    "pbft",  "chain",
                                                    "export", "fleet_dc", "audit", "unlabelled"};

Bucket bucket_of(trace::Phase p) {
    using trace::Phase;
    switch (p) {
        case Phase::kDcIngestQueue:
        case Phase::kDcSync:
            return kFleetDc;
        case Phase::kStateTransfer:
        case Phase::kStateTransferRejected:
            return kChain;
        case Phase::kAuditViolation:
            return kAudit;
        default:
            break;
    }
    switch (trace::phase_category_index(p)) {
        case 0:  // bus
        case 1:
            return kLayer;
        case 2:
            return kPbft;
        case 3:
            return kChain;
        case 4:
            return kExport;
        default:
            return kUnlabelled;
    }
}

class LabelSink final : public trace::TraceSink {
public:
    void reset() noexcept { first_ = kBucketCount; }
    Bucket first() const noexcept { return first_ == kBucketCount ? kUnlabelled : first_; }

    void event(NodeId, TimePoint, trace::Phase phase, trace::TraceId, std::uint64_t) override {
        if (first_ == kBucketCount) first_ = bucket_of(phase);
    }
    void span(NodeId, TimePoint, Duration, trace::Phase phase, trace::TraceId,
              std::uint64_t) override {
        if (first_ == kBucketCount) first_ = bucket_of(phase);
    }

private:
    Bucket first_ = kBucketCount;
};

// ---------------------------------------------------------------------------
// Output.

/// Percentile with its sample count. A percentile needs at least 10
/// samples beyond it; otherwise it is reported missing.
struct Pct {
    double value = 0.0;
    std::size_t n = 0;
    bool ok = false;
};

Pct percentile(const metrics::Summary& s, double q) {
    Pct p;
    p.n = s.count();
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(p.n)));
    p.ok = p.n > 0 && p.n - std::min(rank, p.n) >= 10;
    if (p.ok) p.value = s.percentile(q);
    return p;
}

Pct percentile(const trace::Histogram& h, double q) {
    Pct p;
    p.n = h.count();
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(p.n)));
    p.ok = p.n > 0 && p.n - std::min(rank, p.n) >= 10;
    if (p.ok) p.value = h.percentile(q);
    return p;
}

class JsonObject {
public:
    void num(const std::string& key, double v) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        raw(key, buf);
    }
    void count(const std::string& key, std::uint64_t v) { raw(key, std::to_string(v)); }
    void str(const std::string& key, const std::string& v) { raw(key, "\"" + v + "\""); }
    void boolean(const std::string& key, bool v) { raw(key, v ? "true" : "false"); }
    void raw(const std::string& key, const std::string& json) {
        body_ += body_.empty() ? "" : ",";
        body_ += "\"" + key + "\":" + json;
    }
    void append(const JsonObject& other) {
        if (other.body_.empty()) return;
        body_ += body_.empty() ? "" : ",";
        body_ += other.body_;
    }
    std::string str() const { return "{" + body_ + "}"; }

private:
    std::string body_;
};

std::string json_array(const std::vector<double>& v, const char* format = "%.17g") {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        char buf[64];
        if (i > 0) out += ",";
        std::snprintf(buf, sizeof buf, format, v[i]);
        out += buf;
    }
    return out + "]";
}

/// Accumulates every seed-determined value of a run, both for the JSON
/// sections and for the fingerprint that proves two runs simulated the
/// same thing.
class VirtualValues {
public:
    void num(JsonObject& obj, const std::string& key, double v) {
        obj.num(key, v);
        char buf[96];
        std::snprintf(buf, sizeof buf, "%s=%.17g;", key.c_str(), v);
        canon_ += buf;
    }
    void count(JsonObject& obj, const std::string& key, std::uint64_t v) {
        obj.count(key, v);
        canon_ += key + "=" + std::to_string(v) + ";";
    }
    void pct(JsonObject& obj, const std::string& key, const Pct& p) {
        count(obj, key + ".n", p.n);
        if (p.ok) num(obj, key, p.value);
    }
    std::string fingerprint() const {
        const std::string& s = canon_;
        const crypto::Digest d = crypto::sha256(
            BytesView(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
        return to_hex(BytesView(d.data(), 16));
    }

private:
    std::string canon_;
};

struct Options {
    std::string workload;
    Kind kind = Kind::kFleetSteady;
    std::uint64_t seed = 1;
    double virtual_s = 60.0;
    int setups = 0;
    bool traced = false;
};

[[noreturn]] void usage(const char* argv0, const char* why) {
    std::fprintf(stderr,
                 "%s: %s\nusage: %s --workload fleet_steady|consist_ed25519|fleet_chaos "
                 "--seed N --virtual-s S [--setups K] [--traced]\n",
                 argv0, why, argv0);
    std::exit(2);
}

Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto value = [&]() -> const char* {
            if (i + 1 >= argc) usage(argv[0], ("missing value for " + flag).c_str());
            return argv[++i];
        };
        if (flag == "--workload") {
            o.workload = value();
        } else if (flag == "--seed") {
            o.seed = std::strtoull(value(), nullptr, 10);
        } else if (flag == "--virtual-s") {
            o.virtual_s = std::atof(value());
        } else if (flag == "--setups") {
            o.setups = std::atoi(value());
        } else if (flag == "--traced") {
            o.traced = true;
        } else {
            usage(argv[0], ("unknown flag " + flag).c_str());
        }
    }
    if (o.workload == "fleet_steady") {
        o.kind = Kind::kFleetSteady;
    } else if (o.workload == "consist_ed25519") {
        o.kind = Kind::kConsistEd25519;
    } else if (o.workload == "fleet_chaos") {
        o.kind = Kind::kFleetChaos;
    } else {
        usage(argv[0], "unknown workload");
    }
    if (o.virtual_s < 1.0 || o.setups < 0) usage(argv[0], "bad --virtual-s or --setups");
    return o;
}

/// Keeps the reference workload's result alive.
volatile std::uint64_t g_reference_hash = 0;

/// Wall seconds of a fixed reference workload that runs none of the code
/// under test: a binary-heap event queue and a serial hash over byte
/// buffers picked at random from 2 MiB -- the kinds of host work the
/// simulator does. Its time follows the host's speed, which on a shared VM
/// drifts by tens of percent within minutes. It allocates its memory once,
/// so that it leaves the heap as it found it.
double reference_s() {
    constexpr std::size_t kSlots = 4096;
    constexpr std::size_t kSlotBytes = 512;
    using Event = std::pair<std::uint64_t, std::uint32_t>;
    std::vector<std::uint8_t> slots(kSlots * kSlotBytes);
    std::vector<Event> storage;
    storage.reserve(1024);
    std::priority_queue<Event, std::vector<Event>, std::greater<>> queue(std::greater<>{},
                                                                         std::move(storage));
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    const std::uint64_t t0 = wall_ns();
    for (std::uint32_t i = 0; i < 512; ++i) queue.push({i, i});
    for (int step = 0; step < 80'000; ++step) {
        const Event e = queue.top();
        queue.pop();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::uint8_t* buf = &slots[(e.second % kSlots) * kSlotBytes];
        const std::size_t len = 64 + x % (kSlotBytes - 64);
        for (std::size_t i = 0; i < len; ++i) {
            hash = (hash ^ buf[i]) * 0x100000001b3ULL;
            buf[i] = static_cast<std::uint8_t>(hash >> 32);
        }
        queue.push({e.first + 1 + x % 1024, static_cast<std::uint32_t>(x >> 16)});
    }
    const std::uint64_t t1 = wall_ns();
    g_reference_hash = hash;
    return static_cast<double>(t1 - t0) / 1e9;
}

/// SHA-256 throughput, timed here, on the workload's payload size.
double sha256_mib_per_s(std::size_t payload, std::uint64_t seed) {
    Bytes buf(payload);
    for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<std::uint8_t>(seed + i * 131);
    std::uint64_t bytes = 0;
    const std::uint64_t t0 = wall_ns();
    std::uint64_t t1 = t0;
    while (t1 - t0 < 50'000'000) {
        for (int k = 0; k < 64; ++k) {
            const crypto::Digest d = crypto::sha256(buf);
            buf[0] ^= d[0];
            bytes += buf.size();
        }
        t1 = wall_ns();
    }
    return static_cast<double>(bytes) / (1024.0 * 1024.0) / (static_cast<double>(t1 - t0) / 1e9);
}

/// Set-up, many times, before the run: construction is deterministic, so
/// repeated builds measure the same work and differ only by host noise.
/// One sample is the mean construction time over a batch of back-to-back
/// constructions lasting at least 10 ms, which keeps timer resolution and
/// one-off stalls out of it. (Timed while a run is live, a construction is
/// 2-5x slower: it competes with the run's working set.)
std::vector<double> time_setups(const Options& opt) {
    constexpr std::uint64_t kSetupBatchNs = 10'000'000;
    const Duration dur = millis_f(opt.virtual_s * 1000.0);
    std::vector<double> setup_s;
    for (int k = 0; k < opt.setups; ++k) {
        const std::uint64_t batch0 = wall_ns();
        std::uint64_t built = 0;
        std::uint64_t build_ns = 0;
        while (built == 0 || wall_ns() - batch0 < kSetupBatchNs) {
            const std::uint64_t t0 = wall_ns();
            Rig scratch(opt.kind, opt.seed, dur, nullptr);
            build_ns += wall_ns() - t0;
            built += 1;
        }
        setup_s.push_back(static_cast<double>(build_ns) / 1e9 / static_cast<double>(built));
    }
    return setup_s;
}

/// One simulation of the workload, and everything measured about it.
struct Outcome {
    std::vector<std::string> failures;
    std::string fingerprint;
    double run_wall_s = 0.0;
    double reference_s = 0.0;  ///< fastest reference run around the run phase
    JsonObject body;  ///< counts, metrics, samples and host measurements
};

Outcome simulate(const Options& opt, bool traced) {
    const Duration dur = millis_f(opt.virtual_s * 1000.0);
    std::vector<std::string> failures;

    std::optional<prof::Profiler> profiler;
    trace::MetricsRegistry registry;
    trace::Tracer tracer(/*capture_events=*/false, &registry);
    LabelSink labels;
    trace::FanOutSink fan;
    if (traced) {
        profiler.emplace();
        prof::Profiler::set_active(&*profiler);
        fan.add(&tracer);
        fan.add(&labels);
    }

    Rig rig(opt.kind, opt.seed, dur, traced ? &fan : nullptr);

    sim::Simulation& sim = rig.sim();
    Probe probe(rig);
    const TimePoint t_warm = rig.warmup;
    const TimePoint t_stop = rig.warmup + rig.duration;
    const TimePoint t_end = t_stop + (opt.kind == Kind::kFleetChaos ? kFaultDrain : kDrain);

    // Measurement markers on the virtual clock.
    std::vector<std::vector<Duration>> busy_warm(rig.trains()), busy_stop(rig.trains());
    std::uint64_t bytes_warm = 0, bytes_stop = 0;    ///< sent by the nodes
    std::uint64_t logged_warm = 0, logged_stop = 0;  ///< Probe::logged()
    const auto node_bytes_sent = [&] {
        std::uint64_t sum = 0;
        for (std::uint32_t t = 0; t < rig.trains(); ++t) {
            runtime::TrainShard& shard = rig.shard(t);
            for (std::size_t i = 0; i < shard.node_count(); ++i) {
                sum += shard.network().stats(shard.node(i).id()).bytes_sent;
            }
        }
        return sum;
    };
    bool done = false;
    sim.schedule_at(t_warm, [&] {
        for (std::uint32_t t = 0; t < rig.trains(); ++t) {
            for (std::size_t i = 0; i < rig.shard(t).node_count(); ++i) {
                rig.shard(t).node(i).set_measuring(true);
                busy_warm[t].push_back(rig.shard(t).node(i).executor().busy_time());
            }
        }
        bytes_warm = node_bytes_sent();
        logged_warm = probe.logged(rig);
    });
    sim.schedule_at(t_stop, [&] {
        for (std::uint32_t t = 0; t < rig.trains(); ++t) {
            rig.shard(t).train_bus().stop();
            for (std::size_t i = 0; i < rig.shard(t).node_count(); ++i) {
                busy_stop[t].push_back(rig.shard(t).node(i).executor().busy_time());
            }
        }
        bytes_stop = node_bytes_sent();
        logged_stop = probe.logged(rig);
    });
    sim.schedule_at(t_end, [&] { done = true; });

    // The host's speed around the run phase, three reference runs on each
    // side of it.
    std::vector<double> reference;
    const auto time_reference = [&] {
        for (int k = 0; k < 3; ++k) reference.push_back(reference_s());
    };
    time_reference();

    // -- the run phase: every event is one step() from here.
    std::uint64_t events = 0;
    std::uint64_t step_ns = 0;
    std::uint64_t bucket_ns[kBucketCount] = {};
    const std::uint64_t run0 = wall_ns();
    if (!traced) {
        while (!done && sim.step()) {
            ++events;
            if (sim.now() >= probe.next_tick) probe.tick(rig);
        }
    } else {
        prof::Profiler& p = *profiler;
        while (!done) {
            labels.reset();
            const std::uint64_t disp0 = p.total_ns(prof::Subsystem::kDispatch);
            const std::uint64_t audit0 = p.total_ns(prof::Subsystem::kAudit);
            const std::uint64_t t0 = wall_ns();
            const bool stepped = sim.step();
            const std::uint64_t t1 = wall_ns();
            if (!stepped) break;
            ++events;
            step_ns += t1 - t0;
            const std::uint64_t disp = p.total_ns(prof::Subsystem::kDispatch) - disp0;
            const Bucket label =
                p.total_ns(prof::Subsystem::kAudit) != audit0 ? kAudit : labels.first();
            bucket_ns[kKernel] += (t1 - t0) - std::min(disp, t1 - t0);
            bucket_ns[label] += std::min(disp, t1 - t0);
            if (sim.now() >= probe.next_tick) probe.tick(rig);
        }
    }
    probe.tick(rig);
    const std::uint64_t audit0 = wall_ns();
    rig.run_audit();
    const std::uint64_t run1 = wall_ns();
    const double final_audit_s = static_cast<double>(run1 - audit0) / 1e9;
    const double run_wall_s = static_cast<double>(run1 - run0) / 1e9;
    bucket_ns[kAudit] += run1 - audit0;
    time_reference();
    if (!done) failures.push_back("simulation ran out of events before the end of the drain");

    // -- the chains: every polled cycle must be in a block or in the open
    //    block that the next block boundary will seal (the in-flight tail).
    std::uint64_t polled_sum = 0;
    std::uint64_t telegrams = 0;  ///< requests on the chains
    std::uint64_t unlogged = 0;
    std::uint64_t blocks = 0;
    for (std::uint32_t t = 0; t < rig.trains(); ++t) {
        runtime::TrainShard& shard = rig.shard(t);
        const std::uint64_t polled = shard.train_bus().cycles_completed();
        polled_sum += polled;

        // Live nodes hold prefixes of one chain: a slow node may trail, but
        // wherever the furthest node still retains its head block, the two
        // agree on it.
        runtime::Node* front = nullptr;
        for (std::size_t i = 0; i < shard.node_count(); ++i) {
            runtime::Node& node = shard.node(i);
            if (!node.alive()) continue;
            if (front == nullptr || node.store().head_height() > front->store().head_height()) {
                front = &node;
            }
        }
        if (front == nullptr) {
            failures.push_back("train " + std::to_string(t) + ": no live node");
            continue;
        }
        for (std::size_t i = 0; i < shard.node_count(); ++i) {
            runtime::Node& node = shard.node(i);
            if (!node.alive()) continue;
            const Height h = node.store().head_height();
            const chain::BlockHeader* theirs = front->store().header(h);
            if (h > 0 && theirs != nullptr && theirs->hash() != node.store().head_hash()) {
                failures.push_back("train " + std::to_string(t) + ": node " +
                                   std::to_string(node.id()) + " forks at height " +
                                   std::to_string(h));
            }
        }
        const Height head = front->store().head_height();
        const std::uint64_t open_block = front->chain_app().pending_requests();
        std::vector<bool> covered(polled, false);
        std::uint64_t covered_n = 0;
        for (Height h = 1; h <= head; ++h) {
            const chain::Block* block = nullptr;
            for (std::size_t i = 0; i < shard.node_count() && block == nullptr; ++i) {
                if (shard.node(i).alive()) block = shard.node(i).store().get(h);
            }
            for (std::uint32_t d = 0; d < rig.dc_count() && block == nullptr; ++d) {
                block = rig.dc(t, d).store().get(h);
            }
            if (block == nullptr) {
                failures.push_back("train " + std::to_string(t) + ": block " + std::to_string(h) +
                                   " is in no store");
                break;
            }
            blocks += 1;
            for (const chain::LoggedRequest& r : block->requests) {
                telegrams += 1;
                if (r.origin_seq < polled && !covered[r.origin_seq]) {
                    covered[r.origin_seq] = true;
                    covered_n += 1;
                }
            }
        }
        const std::uint64_t missing = polled - covered_n;
        unlogged += missing - std::min(missing, open_block);
        telegrams += open_block;
    }

    // -- correctness gate.
    std::uint64_t violations = 0;
    std::uint64_t audit_passes = 0;
    std::uint64_t alarms_fired = 0;
    std::uint64_t alarms_stuck = 0;
    for (std::uint32_t t = 0; t < rig.trains(); ++t) {
        if (const faults::SafetyAuditor* a = rig.auditor_of(t)) {
            violations += a->report().violations.size();
            audit_passes += a->report().audits;
        }
        if (const health::HealthMonitor* m = rig.monitor_of(t)) {
            for (const health::Alarm& alarm : m->alarms()) {
                alarms_fired += 1;
                if (alarm.cleared) continue;
                alarms_stuck += 1;
                failures.push_back("train " + std::to_string(t) + ": alarm " +
                                   health::alarm_kind_name(alarm.kind) + " never cleared: " +
                                   alarm.detail);
            }
        }
    }
    const std::uint64_t collisions = rig.fleet ? rig.fleet->index().cross_shard_collisions() : 0;
    const bool has_faults = opt.kind == Kind::kFleetChaos;
    if (audit_passes == 0) failures.push_back("the safety audit never ran");
    if (violations != 0) {
        failures.push_back(std::to_string(violations) + " safety-audit violations");
    }
    if (collisions != 0) failures.push_back(std::to_string(collisions) + " cross-shard collisions");
    if (!has_faults && unlogged != 0) {
        failures.push_back(std::to_string(unlogged) + " polled telegrams never logged");
    }

    // -- end-to-end virtual metrics. Latency is taken over every node, the
    //    limping ones too (gray victims stay correct). It is also taken
    //    over the nodes at nominal speed alone: on fleet_chaos the limping
    //    nodes' steady ~34 ms fills the top 1 % of all samples, and the
    //    stall tail that view changes and timeouts shape shows only there.
    metrics::Summary latency, nominal_latency;
    double cpu_pct_max = 0.0;
    for (std::uint32_t t = 0; t < rig.trains(); ++t) {
        runtime::TrainShard& shard = rig.shard(t);
        for (std::size_t i = 0; i < shard.node_count(); ++i) {
            runtime::Node& node = shard.node(i);
            add_poll_latencies(node, rig.train_config().bus_cycle, latency);
            if (!rig.limping(t, i)) {
                add_poll_latencies(node, rig.train_config().bus_cycle, nominal_latency);
            }
            // Modelled CPU busy over the measured window, as a share of the
            // whole device (paper Fig. 7: 4 cores = 100 %).
            const double busy = to_seconds(busy_stop[t][i] - busy_warm[t][i]);
            cpu_pct_max = std::max(cpu_pct_max, 100.0 * busy / to_seconds(rig.duration) /
                                                    rig.train_config().device_cores);
        }
    }
    metrics::Summary archive_lag;
    double gap_max = 0.0;
    std::uint64_t unarchived = 0;
    for (const TrainTrack& track : probe.trains) {
        TimePoint last = t_warm;
        for (std::size_t k = 0; k < track.persisted.size(); ++k) {
            const TimePoint at = track.persisted[k];
            if (at < t_warm || at > t_stop) continue;
            gap_max = std::max(gap_max, to_seconds(at - last));
            last = at;
            if (k < track.archived.size()) {
                archive_lag.add(to_seconds(track.archived[k] - at));
            } else {
                unarchived += 1;
                archive_lag.add(to_seconds(t_end - at));  // censored at the end of the run
            }
        }
        gap_max = std::max(gap_max, to_seconds(t_stop - last));
    }

    VirtualValues v;
    JsonObject e2e;
    const Pct lat50 = percentile(latency, 0.50);
    const Pct lat99 = percentile(latency, 0.99);
    v.num(e2e, "bus_to_logged_mean_ms", latency.empty() ? 0.0 : latency.mean());
    const Pct arch50 = percentile(archive_lag, 0.50);
    const Pct arch95 = percentile(archive_lag, 0.95);
    for (const auto& [name, p] : {std::pair{"bus_to_logged_p50_ms", lat50},
                                  std::pair{"bus_to_logged_p99_ms", lat99},
                                  std::pair{"archive_lag_p50_s", arch50},
                                  std::pair{"archive_lag_p95_s", arch95}}) {
        v.pct(e2e, name, p);
    }
    v.num(e2e, "unlogged_share", ratio(unlogged, polled_sum));
    v.num(e2e, "logged_share", 1.0 - ratio(unlogged, polled_sum));
    v.num(e2e, "service_gap_max_s", gap_max);
    v.num(e2e, "node_cpu_pct_max", cpu_pct_max);
    v.num(e2e, "node_mem_peak_mb", static_cast<double>(probe.mem_peak_bytes) / (1024.0 * 1024.0));
    v.num(e2e, "net_bytes_per_telegram",
          ratio(bytes_stop - bytes_warm, logged_stop - logged_warm));

    // -- exact per-layer counts (identical in traced and untraced runs).
    JsonObject layer;
    v.count(layer, "sim.events", events);
    v.num(layer, "sim.events_per_telegram", ratio(events, telegrams));
    v.count(layer, "sim.pending_peak", probe.pending_peak);

    zugchain::LayerStats ls;
    pbft::ReplicaStats rs;
    bus::TapStats taps;
    std::uint64_t st_blocks = 0, st_rejected = 0;
    net::TrafficStats net_sum;
    std::uint64_t dc_rx_bytes = 0;
    for (std::uint32_t t = 0; t < rig.trains(); ++t) {
        runtime::TrainShard& shard = rig.shard(t);
        for (std::size_t i = 0; i < shard.node_count(); ++i) {
            add(ls, probe.layer(rig, t, i));
            add(rs, probe.replica(rig, t, i));
            const bus::TapStats& tap = shard.train_bus().tap_stats(i);
            taps.dropped += tap.dropped;
            taps.diverged += tap.diverged;
            const net::TrafficStats& ns = shard.network().stats(shard.node(i).id());
            net_sum.messages_sent += ns.messages_sent;
            net_sum.dropped_partition += ns.dropped_partition;
            net_sum.dropped_nic_overflow += ns.dropped_nic_overflow;
        }
        for (std::uint32_t d = 0; d < rig.dc_count(); ++d) {
            dc_rx_bytes += shard.network().stats(100 + d).bytes_received;
        }
        st_blocks += shard.state_transfer_blocks();
        st_rejected += shard.state_transfer_rejected();
    }
    v.count(layer, "bus.polled", polled_sum);
    v.count(layer, "bus.tap_dropped", taps.dropped);
    v.count(layer, "bus.tap_diverged", taps.diverged);
    v.count(layer, "layer.received", ls.received);
    v.num(layer, "layer.filtered_share", ratio(ls.filtered_in_log, ls.received));
    v.count(layer, "layer.broadcasts", ls.broadcasts);
    v.count(layer, "layer.forwards", ls.forwards);
    v.count(layer, "layer.soft_timeouts", ls.soft_timeouts);
    v.count(layer, "layer.rate_limited", ls.rate_limited);
    v.num(layer, "pbft.requests_per_batch", ratio(rs.batched_requests, rs.batches_proposed));
    v.count(layer, "pbft.view_changes", rs.view_changes_started);
    v.count(layer, "pbft.timeout_thrash", rs.timeout_thrash);
    v.count(layer, "pbft.invalid_messages", rs.invalid_messages);
    v.count(layer, "pbft.pending_dropped", rs.pending_dropped);
    v.count(layer, "chain.blocks", blocks);
    v.count(layer, "chain.retained_blocks_peak", probe.retained_peak);
    v.count(layer, "chain.state_transfer_blocks", st_blocks);
    v.count(layer, "chain.state_transfer_rejected", st_rejected);

    exporter::DcStats dcs;
    metrics::Summary read_s, verify_s, delete_s, round_blocks;
    for (std::uint32_t t = 0; t < rig.trains(); ++t) {
        for (std::uint32_t d = 0; d < rig.dc_count(); ++d) {
            const exporter::DataCenter& dc = rig.dc(t, d);
            dcs.exports_started += dc.stats().exports_started;
            dcs.exports_failed += dc.stats().exports_failed;
            dcs.retries += dc.stats().retries;
            dcs.syncs_received += dc.stats().syncs_received;
            for (const exporter::ExportRecord& r : dc.history()) {
                if (!r.success) continue;
                read_s.add(to_seconds(r.read_time));
                verify_s.add(to_seconds(r.verify_cost));
                delete_s.add(to_seconds(r.delete_time));
                round_blocks.add(static_cast<double>(r.blocks));
            }
        }
    }
    std::uint64_t ingest_dropped = 0;
    if (rig.fleet) {
        for (std::uint32_t d = 0; d < rig.dc_count(); ++d) {
            ingest_dropped += rig.fleet->data_center(d).ingest_dropped();
        }
    }
    v.count(layer, "export.rounds", dcs.exports_started);
    v.count(layer, "export.rounds_failed", dcs.exports_failed);
    v.count(layer, "export.retries", dcs.retries);
    v.pct(layer, "export.read_p50_s", percentile(read_s, 0.5));
    v.pct(layer, "export.verify_cost_p50_s", percentile(verify_s, 0.5));
    v.pct(layer, "export.delete_p50_s", percentile(delete_s, 0.5));
    v.num(layer, "export.blocks_per_round", round_blocks.empty() ? 0.0 : round_blocks.mean());
    v.count(layer, "fleet.ingest_dropped", ingest_dropped);
    v.count(layer, "fleet.dc_syncs", dcs.syncs_received);
    v.num(layer, "net.messages_per_telegram", ratio(net_sum.messages_sent, telegrams));
    v.count(layer, "net.dropped_partition", net_sum.dropped_partition);
    v.count(layer, "net.dropped_overflow", net_sum.dropped_nic_overflow);
    v.num(layer, "net.lte_bytes_per_block", ratio(dc_rx_bytes, blocks));
    v.count(layer, "audit.passes", audit_passes);
    v.count(layer, "audit.violations", violations);
    v.count(layer, "health.alarms_fired", alarms_fired);
    v.count(layer, "health.alarms_stuck", alarms_stuck);
    v.count(layer, "run.unarchived_blocks", unarchived);
    v.pct(layer, "faults.nominal_p99_ms", percentile(nominal_latency, 0.99));

    // -- host measurements (never part of the fingerprint).
    const std::uint64_t peak_rss = prof::peak_rss_bytes();
    JsonObject host;
    host.num("run_wall_s", run_wall_s);
    host.raw("reference_s", json_array(reference));
    host.count("logged", probe.logged(rig));
    host.num("peak_rss_mb", static_cast<double>(peak_rss) / (1024.0 * 1024.0));
    host.num("audit.final_pass_host_s", final_audit_s);
    if (traced) {
        const prof::Profiler& p = *profiler;
        using prof::Subsystem;
        const auto self_s = [&](Subsystem s) { return static_cast<double>(p.self_ns(s)) / 1e9; };
        host.num("sim.host_ns_per_event", ratio(step_ns, events));
        host.num("crypto.sign_host_s", self_s(Subsystem::kCryptoSign));
        host.num("crypto.verify_host_s", self_s(Subsystem::kCryptoVerify));
        host.num("crypto.sha256_mib_per_s",
                 sha256_mib_per_s(rig.train_config().payload_size, opt.seed));
        host.num("codec.host_s", self_s(Subsystem::kCodecEncode) + self_s(Subsystem::kCodecDecode));
        host.num("chain.append_host_s", self_s(Subsystem::kStoreAppend));
        host.num("fleet.dc_ingest_host_s", self_s(Subsystem::kDcIngest));
        host.num("fleet.dc_sync_host_s", self_s(Subsystem::kDcSync));
        const std::uint64_t audit_scopes = p.count(Subsystem::kAudit);
        host.num("audit.host_ms_per_pass",
                 ratio(p.total_ns(Subsystem::kAudit) / 1e6, audit_scopes));
        std::uint64_t covered = 0;
        for (std::uint64_t ns : bucket_ns) covered += ns;
        for (unsigned b = 0; b < kBucketCount; ++b) {
            host.num(std::string("host_share.") + kBucketNames[b], ratio(bucket_ns[b], covered));
        }
        // Seed-determined counts seen only by the profiler and the trace sink.
        JsonObject counts;
        counts.num("crypto.signs_per_telegram",
                   ratio(p.count(Subsystem::kCryptoSign), telegrams));
        counts.num("crypto.verifies_per_telegram",
                   ratio(p.count(Subsystem::kCryptoVerify), telegrams));
        counts.num("codec.encodes_per_telegram",
                   ratio(p.count(Subsystem::kCodecEncode), telegrams));
        counts.num("codec.decodes_per_telegram",
                   ratio(p.count(Subsystem::kCodecDecode), telegrams));
        counts.count("chain.appends", p.count(Subsystem::kStoreAppend));
        const auto pct_ms = [&](const char* key, const char* hist, double q) {
            const Pct pc = percentile(registry.merged_histogram(hist), q);
            counts.count(std::string(key) + ".n", pc.n);
            if (pc.ok) counts.num(key, pc.value / 1e6);
        };
        pct_ms("layer.wait_p99_ms", "layer_wait_ns", 0.99);
        pct_ms("pbft.ordering_p99_ms", "ordering_ns", 0.99);
        pct_ms("chain.persist_p99_ms", "persist_ns", 0.99);
        pct_ms("fleet.ingest_wait_p99_ms", "dc_ingest_queue_ns", 0.99);
        host.raw("traced_counts", counts.str());
        prof::Profiler::set_active(nullptr);
    }

    Outcome o;
    o.failures = std::move(failures);
    o.fingerprint = v.fingerprint();
    o.run_wall_s = run_wall_s;
    o.reference_s = *std::min_element(reference.begin(), reference.end());
    o.body.count("polled", polled_sum);
    o.body.count("unlogged", unlogged);
    o.body.count("telegrams", telegrams);
    o.body.count("window_logged", logged_stop - logged_warm);
    o.body.str("fingerprint", o.fingerprint);
    o.body.raw("e2e", e2e.str());
    // Raw samples, so runs of several seeds can pool their percentiles.
    JsonObject samples;
    samples.raw("bus_to_logged_ms", json_array(latency.samples(), "%.9g"));
    samples.raw("archive_lag_s", json_array(archive_lag.samples(), "%.9g"));
    o.body.raw("samples", samples.str());
    o.body.raw("layer", layer.str());
    o.body.raw("host", host.str());
    return o;
}

int run(const Options& opt) {
    JsonObject out;
    out.str("workload", opt.workload);
    out.count("seed", opt.seed);
    out.str("mode", opt.traced ? "traced" : "plain");
    // The host's speed just before the set-up batches.
    out.raw("setup_reference_s", json_array({reference_s(), reference_s(), reference_s()}));
    out.raw("setup_s", json_array(time_setups(opt)));

    Outcome result;
    if (!opt.traced) {
        result = simulate(opt, false);
    } else {
        // Untraced and traced simulations alternate, twice each, in this one
        // process: the host sets the speed of a whole process, so only runs
        // that share one can show the cost of tracing. The overhead compares
        // the faster run of each mode, each run phase in units of the
        // reference workload's time around it; all four must simulate the
        // same thing.
        double plain_cost = std::numeric_limits<double>::infinity();
        double traced_cost = plain_cost;
        std::vector<std::string> fingerprints;
        for (int k = 0; k < 2; ++k) {
            for (const bool traced : {false, true}) {
                result = simulate(opt, traced);
                double& fastest = traced ? traced_cost : plain_cost;
                fastest = std::min(fastest, result.run_wall_s / result.reference_s);
                fingerprints.push_back(result.fingerprint);
            }
        }
        if (std::count(fingerprints.begin(), fingerprints.end(), fingerprints[0]) != 4) {
            result.failures.push_back("traced and untraced runs simulated different things");
        }
        out.num("trace_overhead_pct", 100.0 * (traced_cost - plain_cost) / plain_cost);
    }

    std::string fails = "[";
    for (std::size_t i = 0; i < result.failures.size(); ++i) {
        fails += (i == 0 ? "\"" : ",\"") + result.failures[i] + "\"";
    }
    fails += "]";
    out.boolean("correct", result.failures.empty());
    out.raw("failures", fails);
    out.append(result.body);
    std::printf("%s\n", out.str().c_str());
    std::fflush(stdout);
    return 0;
}

}  // namespace

int main(int argc, char** argv) { return run(parse(argc, argv)); }
