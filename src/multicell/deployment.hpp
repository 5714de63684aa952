// The campaign engine: shards one firmware campaign's fleet across N
// independent cells and fans the per-cell plan+campaign event loops over
// the sweep worker pool.  A single-cell scenario is a 1-cell deployment;
// scenario::run_scenario runs every spec through here.
//
// Per run, the fleet population is generated once (stream("population",
// run) from the base seed, see core::generate_comparison_populations),
// assigned to cells by a deterministic policy, and every cell plans
// (DR-SC/DA-SC/DR-SI over its own camped devices) and executes its campaign
// as an independent event loop.  Per-cell results are merged in (run, cell)
// order into fleet-wide and per-cell aggregates, so every number is
// bit-identical for any --threads.
//
// Single-cell contract: with one cell the RNG root is the base seed itself
// and the whole fleet camps on cell 0 under every policy, so a 1-cell
// deployment is the paper's one-eNB experiment.  Its aggregates are pinned
// bit for bit by tests/scenario/scenario_golden_test.cpp.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/experiment.hpp"
#include "faults/spec.hpp"
#include "multicell/assignment.hpp"
#include "multicell/topology.hpp"
#include "stats/histogram.hpp"

namespace nbmg::telemetry {
class Collector;
}  // namespace nbmg::telemetry

namespace nbmg::snapshot {
class CheckpointContext;
}  // namespace nbmg::snapshot

namespace nbmg::multicell {

/// Engine-level setup of a deployment.  Callers should describe the
/// workload declaratively with scenario::ScenarioSpec and call
/// scenario::run_scenario, which converts through
/// scenario::to_deployment_setup (the only adapter) and reaches
/// run_deployment with bit-identical aggregates.
struct DeploymentSetup {
    traffic::PopulationProfile profile;
    /// Fleet-wide device count, before sharding.
    std::size_t device_count = 500;
    std::int64_t payload_bytes = 100 * 1024;
    core::CampaignConfig config{};
    std::size_t runs = 20;
    std::uint64_t base_seed = 42;
    /// Worker threads for the runs x cells fan-out — or, when that grid is
    /// a single task (runs * cells == 1), for the task's paging-frame
    /// strata; 0 = one per hardware thread.  Results do not depend on this
    /// value.
    std::size_t threads = 0;
    std::vector<core::MechanismKind> mechanisms{
        core::MechanismKind::dr_sc, core::MechanismKind::da_sc,
        core::MechanismKind::dr_si};
    CellTopology topology = CellTopology::uniform(1);
    AssignmentPolicy assignment = AssignmentPolicy::uniform_hash;
    /// Failure injection: this cell goes dark at the given simulated time
    /// in every run.  Its campaigns stop cold at that instant; devices
    /// still incomplete are stranded and — when surviving cells exist —
    /// deterministically re-assigned to them through the assignment
    /// machinery, each receiving an analytic serialized unicast
    /// re-delivery (counted in redelivery_bytes and the completion tail).
    std::optional<faults::OutageSpec> cell_down;
    /// Optional precomputed fleet populations (see
    /// generate_comparison_populations); reused across every cell and — by
    /// sharing the handle — across cell-count sweep points.  Must match
    /// (profile, device_count, base_seed) and cover `runs`; class_affinity
    /// additionally needs its class_indices.
    core::SharedPopulations populations;
    /// Optional telemetry collector (telemetry/collector.hpp); not owned,
    /// null = telemetry disabled.  Must be sized for at least `runs` runs,
    /// topology.cell_count() cells and mechanisms.size() + 1 campaigns
    /// (slot 0 = unicast).  Every (run, cell, campaign) writes its own
    /// pre-allocated sink, so attaching a collector changes no aggregate
    /// and no RNG draw.
    telemetry::Collector* telemetry = nullptr;
    /// Optional checkpoint context (snapshot/checkpoint.hpp); not owned,
    /// null = checkpointing disabled.  Grid slots (run * cells + cell)
    /// listed as completed in the context restore from their snapshot
    /// blobs — including the telemetry sinks they filled — instead of
    /// re-executing; fresh slots are recorded back.  Attaching a context
    /// changes no aggregate and no RNG draw.
    snapshot::CheckpointContext* checkpoint = nullptr;
};

/// Fleet- or cell-level aggregates of one mechanism, plus deployment-only
/// extensions the single-cell MechanismStats does not track.
struct DeploymentMechanismStats {
    /// Per-run samples, ratios against the same-scope unicast reference.
    core::MechanismStats stats;
    /// Absolute bytes on the air interface per run (fleet/cell total).
    stats::Summary bytes_on_air;
    /// RACH collision fraction samples, one per (run, cell) with attempts.
    stats::Summary rach_collision_rate;
};

/// Per-cell aggregates across runs.
struct CellAggregates {
    std::uint32_t cell = 0;
    /// Devices camped on this cell, one sample per run.
    stats::Summary devices;
    DeploymentMechanismStats unicast;
    std::vector<DeploymentMechanismStats> mechanisms;  // setup.mechanisms order
};

/// Timing footprint of one (run, cell) campaign on the city wall-clock:
/// how many devices camped there and how long the cell's event loop spans
/// in simulated time.  The multicell coordinator (multicell/coordinator.hpp)
/// schedules these spans onto a shared clock; run_deployment itself never
/// reads them back, so recording them cannot perturb the aggregates.
struct CellRunSpan {
    std::size_t devices = 0;
    /// Observation horizon of this cell's campaign in simulated ms (shared
    /// by every mechanism of the run, see recommended_horizon); 0 for an
    /// empty cell, which executes nothing.
    std::int64_t horizon_ms = 0;
};

struct DeploymentResult {
    /// Fleet-wide aggregates: per run, cell totals are summed in cell order
    /// before the ratios against the fleet's unicast reference are formed.
    DeploymentMechanismStats unicast;
    std::vector<DeploymentMechanismStats> mechanisms;  // setup.mechanisms order
    std::vector<CellAggregates> cells;                 // topology order
    /// Devices per (run, cell): the realized load distribution.
    stats::Summary cell_load;
    /// RACH collision fraction across every (run, cell, campaign) with
    /// attempts — quantile() gives the contention percentiles across cells.
    stats::Histogram rach_collision_across_cells{0.0, 1.0, 64};
    /// (run, cell) pairs that received no devices (skipped, no campaign).
    std::size_t empty_cell_runs = 0;
    /// Per-(run, cell) campaign spans, indexed run * cell_count + cell —
    /// the raw material of cross-cell wall-clock coordination.
    std::vector<CellRunSpan> spans;

    [[nodiscard]] std::size_t cell_count() const noexcept { return cells.size(); }
    [[nodiscard]] const CellRunSpan& span(std::size_t run, std::size_t cell) const {
        return spans.at(run * cells.size() + cell);
    }
};

/// Runs the deployment: `runs` campaigns of the full fleet, each sharded
/// over `setup.topology` by `setup.assignment`, all (run, cell) event loops
/// fanned across the worker pool.  Throws std::invalid_argument on an
/// empty/invalid setup or mismatched shared populations.
[[nodiscard]] DeploymentResult run_deployment(const DeploymentSetup& setup);

/// The RNG root of one cell: the base seed itself for a 1-cell deployment
/// (the single-cell contract above), an independent derived root per cell
/// otherwise.
[[nodiscard]] std::uint64_t cell_seed_root(std::uint64_t base_seed,
                                           std::size_t cell_count,
                                           std::uint32_t cell) noexcept;

}  // namespace nbmg::multicell
