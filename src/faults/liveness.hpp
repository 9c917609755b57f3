// End-of-run liveness auditor: the complement of the SafetyAuditor.
//
// Safety says nothing wrong was recorded; liveness says recording
// actually *happened* whenever the fault model allowed it. Given the
// in-model fault schedule (crashes, restarts, partitions, uplink dead
// zones — lowered by runtime::TrainShard into per-node "dark" spans), the
// auditor computes the quorum-capable windows: maximal spans where at
// most f nodes were down or disconnected, i.e. where a 2f+1 quorum of
// correct-and-connected replicas existed and PBFT promises progress.
// Inside every such window (after a settle grace for view changes to
// converge) it asserts bounded progress from periodic observations:
//
//   * the ordered height advances (the cluster decided new requests),
//   * the export backlog drains while the uplink and a DC are reachable,
//   * a restarted node catches up to the cluster head within a bound.
//
// Gray faults (limping CPUs, creeping egress, asymmetric outbound-only
// flaps) deliberately do NOT open a dark span for CPU degradation: a
// limping node is correct-and-connected, so stalling on it is a
// liveness violation — exactly the regime where fixed view-change
// timeouts thrash and adaptive ones (pbft/adaptive.hpp) keep going.
//
// Violations are deduplicated, logged via ZC_ERROR (so the flight
// recorder captures them), emitted as kLivenessViolation trace events
// and summarized in a typed report that `zugchain_sim --audit-liveness`
// turns into exit code 6.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "trace/trace.hpp"

namespace zc::faults {

enum class LivenessViolationKind : std::uint8_t {
    kNoOrderingProgress,  ///< a quorum-capable window ordered nothing new
    kExportStuck,         ///< uplink + DC reachable, backlog never drained
    kRejoinIncomplete,    ///< a restarted node never caught up in time
};

const char* liveness_violation_name(LivenessViolationKind kind) noexcept;

struct LivenessViolation {
    LivenessViolationKind kind;
    Duration from{0};  ///< offending window, relative to t = 0
    Duration to{0};
    NodeId node = kNoNode;  ///< rejoin victim (window checks: kNoNode)
    std::string detail;
};

struct LivenessReport {
    std::uint64_t windows = 0;          ///< quorum-capable windows found
    std::uint64_t windows_checked = 0;  ///< long enough + sampled
    std::uint64_t checks = 0;           ///< individual assertions evaluated
    std::vector<LivenessViolation> violations;

    bool clean() const noexcept { return violations.empty(); }
    /// Deterministic single-line JSON (CI compares it across runs).
    std::string json() const;
};

/// One span during which `node` cannot contribute to a quorum: crashed,
/// fully partitioned, or outbound-cut (an asymmetric flap silences its
/// votes just as thoroughly).
struct NodeDarkSpan {
    NodeId node = 0;
    Duration from{0};
    Duration to{0};
};

/// One span during which the train's uplink (or every data center) is
/// dark: exports legitimately stall.
struct UplinkDarkSpan {
    Duration from{0};
    Duration to{0};
};

struct LivenessConfig {
    std::uint32_t n = 4;
    std::uint32_t f = 1;

    /// Quorum-capable windows shorter than settle + min_window are not
    /// judged (a view change is allowed to eat the whole span).
    Duration min_window{seconds(8)};
    /// Grace at each window start for timers and view changes to settle.
    Duration settle{seconds(3)};

    /// Minimum ordered-request advance a checked window must show.
    std::uint64_t min_decided_per_window = 1;

    /// A restarted node must be back within `rejoin_lag_blocks` of the
    /// cluster head after `rejoin_bound` of quorum-capable time.
    Duration rejoin_bound{seconds(45)};
    std::uint64_t rejoin_lag_blocks = 2;

    /// Export-drain assertions (off without data centers).
    bool check_exports = false;
};

/// One periodic cluster observation (harness cadence, virtual clock).
struct LivenessObs {
    std::uint64_t decided = 0;           ///< cluster commit frontier (max)
    std::uint64_t exports_completed = 0; ///< sum over data centers
    std::uint64_t backlog_blocks = 0;    ///< max over nodes: head - prune base
};

struct LivenessNodeObs {
    NodeId node = 0;
    bool alive = true;
    std::uint64_t head = 0;  ///< chain head height
};

class LivenessAuditor {
public:
    void configure(LivenessConfig cfg);
    const LivenessConfig& config() const noexcept { return config_; }
    void set_trace(trace::TraceContext ctx) noexcept { trace_ = ctx; }

    /// Feeds the in-model fault schedule and computes the quorum-capable
    /// windows over [0, horizon). Call once before the run.
    void set_schedule(std::vector<NodeDarkSpan> node_dark,
                      std::vector<UplinkDarkSpan> uplink_dark, Duration horizon);

    /// One observation on the harness's sampling cadence.
    void observe(TimePoint now, const LivenessObs& obs,
                 const std::vector<LivenessNodeObs>& nodes);

    /// Closes the run and judges every window. Idempotent.
    void finish(TimePoint end);

    const LivenessReport& report() const noexcept { return report_; }

    /// The computed quorum-capable windows (tests inspect placement).
    const std::vector<std::pair<Duration, Duration>>& good_windows() const noexcept {
        return good_windows_;
    }
    /// The uplink-dark spans export checks excuse, sorted by start.
    const std::vector<UplinkDarkSpan>& uplink_dark() const noexcept { return uplink_dark_; }

private:
    struct Sample {
        Duration at{0};
        LivenessObs obs;
    };
    struct Rejoin {
        NodeId node = 0;
        Duration restarted_at{0};
        bool caught_up = false;
    };

    void violate(LivenessViolationKind kind, Duration from, Duration to, NodeId node,
                 std::string detail);
    /// Quorum-capable time accumulated in [from, to].
    Duration good_time_between(Duration from, Duration to) const;
    const Sample* first_sample_at_or_after(Duration t) const;
    const Sample* last_sample_at_or_before(Duration t) const;
    void check_window(Duration from, Duration to);
    void check_exports_in(Duration from, Duration to);

    LivenessConfig config_;
    trace::TraceContext trace_;
    Duration horizon_{0};
    std::vector<std::pair<Duration, Duration>> good_windows_;
    std::vector<UplinkDarkSpan> uplink_dark_;
    std::vector<Sample> samples_;
    std::map<NodeId, bool> last_alive_;
    std::map<NodeId, std::uint64_t> last_head_;
    std::vector<Rejoin> rejoins_;
    LivenessReport report_;
    std::set<std::tuple<int, std::int64_t, NodeId>> seen_;  ///< violation dedup
    bool finished_ = false;
};

}  // namespace zc::faults
