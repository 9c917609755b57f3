// Up-front chaos-schedule validation for one consist's fault schedules.
//
// A ScenarioConfig carries declarative fault schedules (crashes, explicit
// restarts, link flaps, telegram-rate windows). A schedule that takes
// more than f nodes down at once, or flaps a node that is already
// crashed, does not test fault tolerance — it tests an availability
// budget the protocol never promised, and historically failed mid-run
// with an opaque liveness stall instead of an error. FleetChaos's
// staggered() plan already guarantees "never more than f per shard" for
// fleets; this gives hand-rolled single-consist schedules the same
// guarantee, at construction time, with a message naming the offending
// entries.
//
// Byzantine nodes are deliberately NOT counted against the crash budget
// here: a compromised-but-live node keeps voting, and crash-during-attack
// scenarios (e.g. the CI poisoner drill) are legitimate. The journey
// compiler (src/journey) enforces the stricter combined
// crashed+Byzantine <= f invariant for generated plans.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/time.hpp"

namespace zc::runtime {

struct ScenarioConfig;

/// When each `crash_schedule` entry's node comes back, in schedule
/// order: `at + restart_after` for an auto-restarting crash, otherwise
/// the earliest later explicit restart of the same node not already
/// claimed by an earlier entry, or nullopt for a fail-stop crash that is
/// never restarted. Validation and the liveness auditor's dark spans
/// both read crash intervals through this one pairing.
std::vector<std::optional<Duration>> crash_restart_times(const ScenarioConfig& config);

/// Returns std::nullopt when the schedules are safe, otherwise a
/// human-readable description of the first violation found:
///   * a crash, flap, byzantine, cpu_profiles or tap_faults entry naming
///     a node id >= n,
///   * a node crashed while already down (overlapping crash intervals),
///   * more than f nodes down concurrently (fail-stop crashes count as
///     down until an explicit restart, or forever),
///   * a node link-flap overlapping the node's down interval,
///   * rate windows that overlap, nest, or scale by a non-positive
///     factor.
/// TrainShard's constructor (so every Scenario and every fleet train)
/// throws std::invalid_argument with this message unless
/// `allow_unsafe_chaos` is set.
std::optional<std::string> validate_scenario_faults(const ScenarioConfig& config);

}  // namespace zc::runtime
