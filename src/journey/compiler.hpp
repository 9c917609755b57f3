// Chaos compiler: lowers a journey plan (plus compounded fault recipes)
// onto the fault schedules the runtime and fleet already execute.
//
// Plain segments lower mechanically:
//   station dwell -> ScenarioConfig::RateWindow with cycle_scale < 1
//   depot layover -> RateWindow with cycle_scale > 1
//   tunnel        -> LinkFlap{kLte} (in a fleet, the train's dead zone)
//   degraded node -> ScenarioConfig::cpu_profiles entry
//
// On top of that the compiler weaves in *compounded* recipes — fault
// combinations that only bite when they overlap:
//   * a crash of the view-0 primary lineage in the middle of a tunnel
//     (view change while every export retry is dark),
//   * a data-center outage covering a train's dead zone (both ends of the
//     juridical pipeline gone at once),
//   * a node held down across several export rounds, so the surviving
//     quorum prunes past its head and the restart must rebase onto the
//     exported anchor instead of replaying from genesis.
//
// Every emitted schedule is validated against the availability budget:
// no recipe may ever put more than f nodes of one shard concurrently
// into the crashed-or-Byzantine set (validate_scenario_faults with
// f reduced by the shard's Byzantine population). A recipe that cannot
// be placed without breaking the budget is dropped, never bent.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "journey/journey.hpp"

namespace zc::journey {

enum class RecipeKind : std::uint8_t {
    /// Crash the view-0 primary lineage mid-tunnel; it reboots as the
    /// dead zone clears, forcing rejoin while export retries drain.
    kCrashInDeadZone,
    /// Hold a replica down for >= 3 export rounds so the quorum prunes
    /// past its head; restart lands on the anchor-rebase path.
    kRestartIntoPrunedChain,
    /// Take a shared data center down across a train's dead zone.
    kDcOutageOverDeadZone,
};

const char* recipe_name(RecipeKind kind) noexcept;

/// One placed recipe (for reports; the schedules carry the effects).
struct RecipeInstance {
    RecipeKind kind = RecipeKind::kCrashInDeadZone;
    std::uint32_t train = 0;
    NodeId node = kNoNode;   ///< crash victim (dead-zone-outage: unused)
    DataCenterId dc = 0;     ///< kDcOutageOverDeadZone only
    Duration at{0};
    Duration duration{0};

    std::string describe() const;
};

struct CompilerOptions {
    std::uint32_t n = 4;
    std::uint32_t f = 1;
    std::uint32_t dc_count = 2;

    /// Compounded recipes to weave in, cycled across the kinds and the
    /// fleet's trains. 0 = plain journey (rate windows + tunnels only).
    std::uint32_t recipes = 3;

    /// Export cadence of the harness; sizes the pruned-chain downtime
    /// (the victim stays down for three rounds plus margin).
    Duration export_period{seconds(120)};

    double dwell_cycle_scale = 0.5;
    double depot_cycle_scale = 8.0;

    /// Byzantine population per train; counted against f when placing
    /// crash recipes (a crashed node plus a Byzantine node on a 4-node
    /// f=1 shard would exceed the budget).
    std::map<std::uint32_t, std::set<NodeId>> byzantine;
};

struct CompiledJourney {
    /// Index = train.
    std::vector<fleet::FleetConfig::TrainOverlay> overlays;

    /// Shared data-center outages from dead-zone recipes.
    std::vector<fleet::FleetChaos::DcOutage> dc_outages;

    /// Recipes actually placed (budget-violating ones are dropped).
    std::vector<RecipeInstance> recipes;

    std::string summary() const;
};

/// Lowers `plan` under `opts`. Throws std::invalid_argument if the
/// emitted schedules fail the availability-budget validation (which
/// would indicate a compiler bug, not a caller error — placement is
/// conservative by construction).
CompiledJourney compile(const JourneyPlan& plan, const CompilerOptions& opts);

/// Installs every overlay plus the DC outages onto a fleet config.
void apply(const CompiledJourney& compiled, fleet::FleetConfig& cfg);

}  // namespace zc::journey
