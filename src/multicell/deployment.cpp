#include "multicell/deployment.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/planners.hpp"
#include "core/report.hpp"
#include "core/sweep.hpp"
#include "snapshot/checkpoint.hpp"
#include "snapshot/codec.hpp"
#include "telemetry/collector.hpp"

namespace nbmg::multicell {
namespace {

/// Raw totals of one executed campaign on one cell in one run.  Cell
/// totals are summed (in cell order) into fleet totals before any ratio is
/// formed, so fleet aggregates are genuine fleet-level numbers rather than
/// means of per-cell ratios — and with one cell they are exactly that
/// cell's campaign totals.
struct CellRunTotals {
    std::size_t devices = 0;
    std::size_t transmissions = 0;
    std::size_t recovery_transmissions = 0;
    std::size_t unreceived = 0;
    double light_sleep_ms = 0.0;
    double connected_ms = 0.0;
    std::int64_t bytes_on_air = 0;
    std::uint64_t rach_attempts = 0;
    std::uint64_t rach_collisions = 0;
    std::size_t stranded = 0;
    std::int64_t redelivery_bytes = 0;
    double completion_p99_ms = 0.0;

    void accumulate(const CellRunTotals& other) noexcept {
        devices += other.devices;
        transmissions += other.transmissions;
        recovery_transmissions += other.recovery_transmissions;
        unreceived += other.unreceived;
        light_sleep_ms += other.light_sleep_ms;
        connected_ms += other.connected_ms;
        bytes_on_air += other.bytes_on_air;
        rach_attempts += other.rach_attempts;
        rach_collisions += other.rach_collisions;
        stranded += other.stranded;
        redelivery_bytes += other.redelivery_bytes;
        // Cells run independent campaigns on a shared wall clock, so the
        // fleet's completion tail is bounded by the slowest cell's tail —
        // a max, not a sum.
        completion_p99_ms = std::max(completion_p99_ms, other.completion_p99_ms);
    }
};

CellRunTotals totals_from(const core::CampaignResult& result) {
    CellRunTotals t;
    t.devices = result.devices.size();
    t.transmissions = result.total_transmissions();
    t.recovery_transmissions = result.recovery_transmissions;
    t.unreceived = result.devices.size() - result.received_count();
    t.light_sleep_ms = core::total_light_sleep_ms(result);
    t.connected_ms = core::total_connected_ms(result);
    t.bytes_on_air = result.bytes_on_air;
    t.rach_attempts = result.rach_attempts;
    t.rach_collisions = result.rach_collisions;
    t.stranded = result.stranded;
    t.redelivery_bytes = result.redelivery_bytes;
    t.completion_p99_ms = core::completion_p99_ms(result);
    return t;
}

/// Nearest-rank p99 over completion instants (the same rank rule as
/// core::completion_p99_ms, reused on the recovery-adjusted list).
double p99_of(std::vector<std::int64_t>& completion) {
    if (completion.empty()) return 0.0;
    const std::size_t rank = (completion.size() * 99 + 99) / 100;
    const std::size_t index = std::min(rank, completion.size()) - 1;
    std::nth_element(completion.begin(),
                     completion.begin() + static_cast<std::ptrdiff_t>(index),
                     completion.end());
    return static_cast<double>(completion[index]);
}

/// Self-healing pass of the down cell: every device its stopped campaign
/// left without the payload is deterministically re-assigned to a
/// surviving cell (the existing assignment machinery over the reduced
/// topology; class_affinity re-hashes uniformly because the fleet's class
/// indices do not survive the shard) and served by an analytic serialized
/// unicast re-delivery there — one re-attach exchange plus the payload
/// airtime per adopted device, queued per neighbor from the outage
/// instant.  Adjusts the totals in place: re-delivered devices stop
/// counting as unreceived, their bytes and completion instants join the
/// tallies, and `stranded` keeps the outage's raw hit count.
void apply_outage_recovery(CellRunTotals& t, const DeploymentSetup& setup,
                           const core::CampaignConfig& config,
                           const core::CampaignResult& result,
                           telemetry::CampaignSink* sink) {
    std::vector<nbiot::UeSpec> stranded_specs;
    for (const core::DeviceOutcome& d : result.devices) {
        if (!d.received) stranded_specs.push_back(d.spec);
    }
    if (stranded_specs.empty()) return;

    CellTopology survivors;
    for (const CellSite& site : setup.topology.cells) {
        if (site.id == setup.cell_down->cell) continue;
        CellSite s = site;
        s.id = static_cast<std::uint32_t>(survivors.cells.size());
        survivors.cells.push_back(s);
    }
    if (survivors.cells.empty()) return;  // nobody left to heal into

    const AssignmentPolicy policy =
        setup.assignment == AssignmentPolicy::class_affinity
            ? AssignmentPolicy::uniform_hash
            : setup.assignment;
    const DeviceAssignment assignment =
        assign_devices(survivors, stranded_specs, {}, policy, setup.base_seed);

    std::vector<std::int64_t> completion;
    completion.reserve(result.devices.size());
    for (const core::DeviceOutcome& d : result.devices) {
        if (d.received && d.released_at) completion.push_back(d.released_at->count());
    }

    const nbiot::RadioModel radio(config.radio);
    const std::int64_t reattach_ms = config.rach.attempt_active_time().count() +
                                     config.timing.rrc_setup.count() +
                                     config.timing.rrc_release.count();
    const std::int64_t reattach_bytes = config.sizes.rach_exchange +
                                        config.sizes.rrc_setup_exchange +
                                        config.sizes.rrc_release;
    std::vector<std::int64_t> feed_clock(survivors.cells.size(),
                                         setup.cell_down->at_ms);
    for (std::size_t i = 0; i < stranded_specs.size(); ++i) {
        const std::uint32_t target = assignment.cell_of_device[i];
        feed_clock[target] +=
            reattach_ms +
            radio.downlink_airtime(result.payload_bytes, stranded_specs[i].ce_level)
                .count();
        completion.push_back(feed_clock[target]);
        t.redelivery_bytes += result.payload_bytes;
        t.bytes_on_air += result.payload_bytes + reattach_bytes;
        NBMG_TELEMETRY_EMIT(sink, telemetry::EventKind::redelivery,
                            feed_clock[target], stranded_specs[i].device.value,
                            result.payload_bytes, 1);
    }
    t.unreceived -= stranded_specs.size();
    t.completion_p99_ms = p99_of(completion);
}

/// One (run, cell) contribution: the unicast reference plus every
/// requested mechanism, executed on this cell's camped devices only.
struct CellRunOutcome {
    std::size_t devices = 0;  // 0 = empty cell, nothing executed
    std::int64_t horizon_ms = 0;
    CellRunTotals unicast;
    std::vector<CellRunTotals> mechanisms;
};

CellRunOutcome run_cell(const DeploymentSetup& setup,
                        std::span<const nbiot::UeSpec> specs,
                        const core::CampaignConfig& config,
                        std::uint64_t cell_root, std::size_t strata_threads,
                        std::size_t run, std::size_t cell) {
    CellRunOutcome out;
    out.devices = specs.size();
    out.mechanisms.resize(setup.mechanisms.size());
    if (specs.empty()) return out;

    // Telemetry: each (run, cell, campaign) writes its own pre-allocated
    // collector slot; the pointer is the only config field that differs.
    const auto campaign_config = [&](std::size_t campaign_slot) {
        core::CampaignConfig cfg = config;
        if (setup.telemetry != nullptr) {
            cfg.telemetry = setup.telemetry->sink(run, cell, campaign_slot);
        }
        return cfg;
    };

    // One horizon and one execution seed shared by every mechanism of this
    // cell's run.
    const sim::RngFactory rng_factory(cell_root);
    const core::UnicastBaseline unicast;
    const nbiot::SimTime horizon =
        core::recommended_horizon(specs, config, setup.payload_bytes);
    out.horizon_ms = horizon.count();
    const std::uint64_t run_seed = sim::derive_seed(cell_root, "run", run);

    // The down cell's campaigns stop at the outage and hand their
    // incomplete devices to the surviving cells.
    const bool outage_here =
        setup.cell_down && config.outage_at_ms >= 1 &&
        setup.cell_down->cell == cell && setup.cell_down->at_ms < out.horizon_ms;

    sim::RandomStream unicast_rng = rng_factory.stream("plan-unicast", run);
    const core::CampaignConfig unicast_config = campaign_config(0);
    const core::MulticastPlan unicast_plan =
        unicast.plan(specs, unicast_config, unicast_rng);
    {
        const core::CampaignResult result =
            core::CampaignRunner(unicast_config, strata_threads)
                .run(unicast_plan, specs, setup.payload_bytes, horizon, run_seed);
        out.unicast = totals_from(result);
        if (outage_here) {
            apply_outage_recovery(out.unicast, setup, unicast_config, result,
                                  unicast_config.telemetry);
        }
    }

    for (std::size_t m = 0; m < setup.mechanisms.size(); ++m) {
        const auto mechanism = core::make_mechanism(setup.mechanisms[m]);
        sim::RandomStream plan_rng = rng_factory.stream(mechanism->name(), run);
        const core::CampaignConfig mech_config = campaign_config(m + 1);
        const core::MulticastPlan plan = mechanism->plan(specs, mech_config, plan_rng);
        const core::CampaignResult result =
            core::CampaignRunner(mech_config, strata_threads)
                .run(plan, specs, setup.payload_bytes, horizon, run_seed);
        out.mechanisms[m] = totals_from(result);
        if (outage_here) {
            apply_outage_recovery(out.mechanisms[m], setup, mech_config, result,
                                  mech_config.telemetry);
        }
    }
    return out;
}

void put_totals(snapshot::Writer& w, const CellRunTotals& t) {
    w.put_u64(t.devices);
    w.put_u64(t.transmissions);
    w.put_u64(t.recovery_transmissions);
    w.put_u64(t.unreceived);
    w.put_f64(t.light_sleep_ms);
    w.put_f64(t.connected_ms);
    w.put_i64(t.bytes_on_air);
    w.put_u64(t.rach_attempts);
    w.put_u64(t.rach_collisions);
    w.put_u64(t.stranded);
    w.put_i64(t.redelivery_bytes);
    w.put_f64(t.completion_p99_ms);
}

CellRunTotals take_totals(snapshot::Reader& r) {
    CellRunTotals t;
    t.devices = r.take_u64();
    t.transmissions = r.take_u64();
    t.recovery_transmissions = r.take_u64();
    t.unreceived = r.take_u64();
    t.light_sleep_ms = r.take_f64();
    t.connected_ms = r.take_f64();
    t.bytes_on_air = r.take_i64();
    t.rach_attempts = r.take_u64();
    t.rach_collisions = r.take_u64();
    t.stranded = r.take_u64();
    t.redelivery_bytes = r.take_i64();
    t.completion_p99_ms = r.take_f64();
    return t;
}

/// Checkpoint slot blob of one (run, cell) task: the raw campaign totals
/// plus — when a collector is attached — the sinks this task filled.
std::vector<std::uint8_t> encode_cell_outcome(const DeploymentSetup& setup,
                                              std::size_t run, std::size_t cell,
                                              const CellRunOutcome& out) {
    snapshot::Writer w;
    w.put_u64(out.devices);
    w.put_i64(out.horizon_ms);
    put_totals(w, out.unicast);
    w.put_u64(out.mechanisms.size());
    for (const CellRunTotals& m : out.mechanisms) put_totals(w, m);
    w.put_u8(setup.telemetry != nullptr ? 1 : 0);
    if (setup.telemetry != nullptr) {
        for (std::size_t c = 0; c < setup.mechanisms.size() + 1; ++c) {
            snapshot::put_sink(w, *setup.telemetry->sink(run, cell, c));
        }
    }
    return w.take();
}

/// Inverse of encode_cell_outcome; also restores the task's collector
/// sinks.  Runs inside the sweep worker that owns this grid slot, so the
/// sink writes stay single-writer.
CellRunOutcome decode_cell_outcome(const DeploymentSetup& setup, std::size_t run,
                                   std::size_t cell,
                                   const std::vector<std::uint8_t>& blob) {
    const std::string label = "checkpoint slot (run " + std::to_string(run) +
                              ", cell " + std::to_string(cell) + ")";
    snapshot::Reader r(blob, label);
    CellRunOutcome out;
    out.devices = r.take_u64();
    out.horizon_ms = r.take_i64();
    out.unicast = take_totals(r);
    const std::uint64_t mechanism_count = r.take_u64();
    if (mechanism_count != setup.mechanisms.size()) {
        throw snapshot::SnapshotError(
            label + ": " + std::to_string(mechanism_count) +
            " mechanisms in snapshot, setup has " +
            std::to_string(setup.mechanisms.size()));
    }
    out.mechanisms.reserve(setup.mechanisms.size());
    for (std::size_t m = 0; m < setup.mechanisms.size(); ++m) {
        out.mechanisms.push_back(take_totals(r));
    }
    const bool had_telemetry = r.take_u8() != 0;
    if (had_telemetry != (setup.telemetry != nullptr)) {
        throw snapshot::SnapshotError(
            label + ": telemetry attachment differs from the checkpointed run");
    }
    if (setup.telemetry != nullptr) {
        for (std::size_t c = 0; c < setup.mechanisms.size() + 1; ++c) {
            snapshot::restore_sink(r, *setup.telemetry->sink(run, cell, c));
        }
    }
    r.expect_end();
    return out;
}

/// The unicast reference's per-run samples (no relative-increase samples
/// for the reference itself).
void add_unicast_samples(DeploymentMechanismStats& out, const CellRunTotals& u) {
    const double n = static_cast<double>(u.devices);
    core::MechanismStats& s = out.stats;
    s.transmissions.add(static_cast<double>(u.transmissions));
    s.transmissions_per_device.add(static_cast<double>(u.transmissions) / n);
    s.bytes_ratio.add(1.0);
    s.recovery_transmissions.add(static_cast<double>(u.recovery_transmissions));
    s.unreceived_devices.add(static_cast<double>(u.unreceived));
    s.mean_connected_seconds.add(u.connected_ms / n / 1000.0);
    s.mean_light_sleep_seconds.add(u.light_sleep_ms / n / 1000.0);
    s.completion_p99_ms.add(u.completion_p99_ms);
    s.redelivery_bytes.add(static_cast<double>(u.redelivery_bytes));
    s.stranded_devices.add(static_cast<double>(u.stranded));
    out.bytes_on_air.add(static_cast<double>(u.bytes_on_air));
}

/// A mechanism's per-run samples against the same-scope unicast reference:
/// the relative_uptime / bandwidth_comparison formulas applied to the summed
/// totals, including their zero-baseline guards.
void add_mechanism_samples(DeploymentMechanismStats& out, const CellRunTotals& m,
                           const CellRunTotals& u) {
    const double n = static_cast<double>(m.devices);
    core::MechanismStats& s = out.stats;
    s.light_sleep_increase.add(
        u.light_sleep_ms > 0.0 ? m.light_sleep_ms / u.light_sleep_ms - 1.0 : 0.0);
    s.connected_increase.add(
        u.connected_ms > 0.0 ? m.connected_ms / u.connected_ms - 1.0 : 0.0);
    s.transmissions.add(static_cast<double>(m.transmissions));
    s.transmissions_per_device.add(static_cast<double>(m.transmissions) / n);
    s.bytes_ratio.add(u.bytes_on_air > 0
                          ? static_cast<double>(m.bytes_on_air) /
                                static_cast<double>(u.bytes_on_air)
                          : 0.0);
    s.recovery_transmissions.add(static_cast<double>(m.recovery_transmissions));
    s.unreceived_devices.add(static_cast<double>(m.unreceived));
    s.mean_connected_seconds.add(m.connected_ms / n / 1000.0);
    s.mean_light_sleep_seconds.add(m.light_sleep_ms / n / 1000.0);
    s.completion_p99_ms.add(m.completion_p99_ms);
    s.redelivery_bytes.add(static_cast<double>(m.redelivery_bytes));
    s.stranded_devices.add(static_cast<double>(m.stranded));
    out.bytes_on_air.add(static_cast<double>(m.bytes_on_air));
}

void add_rach_sample(DeploymentMechanismStats& fleet, DeploymentMechanismStats& cell,
                     stats::Histogram& across_cells, const CellRunTotals& t) {
    if (t.rach_attempts == 0) return;
    const double rate = static_cast<double>(t.rach_collisions) /
                        static_cast<double>(t.rach_attempts);
    fleet.rach_collision_rate.add(rate);
    cell.rach_collision_rate.add(rate);
    across_cells.add(rate);
}

/// Merges a per-run contribution field-wise.  Each run's samples go into a
/// fresh summary that is then merged, rather than added to the aggregate
/// directly: the two paths round differently, and the pinned goldens
/// (tests/scenario/scenario_golden_test.cpp) were recorded on the merge
/// path.
void merge_contribution(DeploymentMechanismStats& into,
                        const DeploymentMechanismStats& contrib) {
    into.stats.merge(contrib.stats);
    into.bytes_on_air.merge(contrib.bytes_on_air);
    into.rach_collision_rate.merge(contrib.rach_collision_rate);
}

}  // namespace

std::uint64_t cell_seed_root(std::uint64_t base_seed, std::size_t cell_count,
                             std::uint32_t cell) noexcept {
    return cell_count == 1 ? base_seed : sim::derive_seed(base_seed, "cell", cell);
}

DeploymentResult run_deployment(const DeploymentSetup& setup) {
    if (setup.runs == 0 || setup.device_count == 0) {
        throw std::invalid_argument("run_deployment: empty setup");
    }
    if (!setup.topology.valid()) {
        throw std::invalid_argument("run_deployment: invalid topology");
    }

    core::SharedPopulations populations = setup.populations;
    if (populations) {
        if (populations->base_seed != setup.base_seed ||
            populations->device_count != setup.device_count ||
            populations->profile_name != setup.profile.name) {
            throw std::invalid_argument(
                "run_deployment: shared populations were generated for a "
                "different (profile, device_count, base_seed)");
        }
        if (populations->runs.size() < setup.runs) {
            throw std::invalid_argument(
                "run_deployment: shared populations cover fewer runs than "
                "setup.runs");
        }
        if (setup.assignment == AssignmentPolicy::class_affinity &&
            populations->class_indices.size() < setup.runs) {
            throw std::invalid_argument(
                "run_deployment: class_affinity needs shared populations with "
                "class indices");
        }
    } else {
        populations = core::generate_comparison_populations(
            setup.profile, setup.device_count, setup.runs, setup.base_seed);
    }

    const std::size_t cells = setup.topology.cell_count();

    // Per-cell campaign configs (paging-capacity overrides).
    std::vector<core::CampaignConfig> cell_configs(cells, setup.config);
    for (std::size_t c = 0; c < cells; ++c) {
        const int override_records = setup.topology.cells[c].max_page_records_override;
        if (override_records > 0) {
            cell_configs[c].paging.max_page_records = override_records;
        }
    }
    if (setup.cell_down) {
        if (!setup.cell_down->valid() || setup.cell_down->cell >= cells) {
            throw std::invalid_argument(
                "run_deployment: faults.cell_down names cell " +
                std::to_string(setup.cell_down->cell) + " of " +
                std::to_string(cells) + " (or a non-positive outage time)");
        }
        cell_configs[setup.cell_down->cell].outage_at_ms = setup.cell_down->at_ms;
    }

    // Phase 1 — shard every run's fleet into per-cell spec slices (local
    // dense device ids, fleet order preserved within a cell).  Assignment
    // hashes IMSIs against the base seed, so the map is independent of the
    // thread count.
    struct RunShards {
        std::vector<std::vector<nbiot::UeSpec>> cell_specs;
    };
    const std::vector<RunShards> shards = core::sweep_indexed(
        setup.runs, setup.threads, [&](std::size_t run) {
            RunShards out;
            out.cell_specs.resize(cells);
            const std::vector<nbiot::UeSpec>& fleet = populations->runs[run];
            std::span<const std::uint32_t> classes;
            if (setup.assignment == AssignmentPolicy::class_affinity) {
                classes = populations->class_indices[run];
            }
            const DeviceAssignment assignment = assign_devices(
                setup.topology, fleet, classes, setup.assignment, setup.base_seed);
            for (std::size_t c = 0; c < cells; ++c) {
                out.cell_specs[c].reserve(assignment.cell_sizes[c]);
            }
            for (std::size_t d = 0; d < fleet.size(); ++d) {
                std::vector<nbiot::UeSpec>& bucket =
                    out.cell_specs[assignment.cell_of_device[d]];
                nbiot::UeSpec spec = fleet[d];
                spec.device =
                    nbiot::DeviceId{static_cast<std::uint32_t>(bucket.size())};
                bucket.push_back(spec);
            }
            return out;
        });

    // Phase 2 — every (run, cell) campaign is an independent event loop;
    // fan the whole grid across the pool.  The pool either fans grid tasks
    // or, when the grid is a single task, that task's strata — never both,
    // so the thread budget is not oversubscribed.
    const std::size_t strata_threads =
        setup.runs * cells == 1 ? setup.threads : 1;
    const std::vector<CellRunOutcome> outcomes = core::sweep_indexed(
        setup.runs * cells, setup.threads, [&](std::size_t slot) {
            const std::size_t run = slot / cells;
            const std::size_t cell = slot % cells;
            snapshot::CheckpointContext* const checkpoint = setup.checkpoint;
            if (checkpoint != nullptr) {
                if (const std::vector<std::uint8_t>* blob =
                        checkpoint->restored(slot)) {
                    return decode_cell_outcome(setup, run, cell, *blob);
                }
                // Once the stop budget fired, remaining slots return a
                // dummy: the pending CheckpointStop unwinds the sweep
                // before any outcome is reduced.
                if (checkpoint->stopping()) return CellRunOutcome{};
            }
            CellRunOutcome out = run_cell(
                setup, shards[run].cell_specs[cell], cell_configs[cell],
                cell_seed_root(setup.base_seed, cells,
                               static_cast<std::uint32_t>(cell)),
                strata_threads, run, cell);
            if (checkpoint != nullptr) {
                checkpoint->complete_slot(
                    slot, encode_cell_outcome(setup, run, cell, out),
                    out.horizon_ms);
            }
            return out;
        });

    // Phase 3 — reduce in (run, cell) order on this thread.
    DeploymentResult result;
    result.unicast.stats.kind = core::MechanismKind::unicast;
    result.mechanisms.resize(setup.mechanisms.size());
    result.cells.resize(cells);
    for (std::size_t m = 0; m < setup.mechanisms.size(); ++m) {
        result.mechanisms[m].stats.kind = setup.mechanisms[m];
    }
    for (std::size_t c = 0; c < cells; ++c) {
        CellAggregates& agg = result.cells[c];
        agg.cell = static_cast<std::uint32_t>(c);
        agg.unicast.stats.kind = core::MechanismKind::unicast;
        agg.mechanisms.resize(setup.mechanisms.size());
        for (std::size_t m = 0; m < setup.mechanisms.size(); ++m) {
            agg.mechanisms[m].stats.kind = setup.mechanisms[m];
        }
    }

    result.spans.reserve(outcomes.size());
    for (const CellRunOutcome& outcome : outcomes) {
        result.spans.push_back(CellRunSpan{outcome.devices, outcome.horizon_ms});
    }

    std::vector<CellRunTotals> fleet_mechanisms(setup.mechanisms.size());
    for (std::size_t run = 0; run < setup.runs; ++run) {
        CellRunTotals fleet_unicast{};
        fleet_mechanisms.assign(setup.mechanisms.size(), CellRunTotals{});

        for (std::size_t c = 0; c < cells; ++c) {
            const CellRunOutcome& outcome = outcomes[run * cells + c];
            CellAggregates& agg = result.cells[c];
            result.cell_load.add(static_cast<double>(outcome.devices));
            agg.devices.add(static_cast<double>(outcome.devices));
            if (outcome.devices == 0) {
                ++result.empty_cell_runs;
                continue;
            }

            fleet_unicast.accumulate(outcome.unicast);
            DeploymentMechanismStats cell_contrib;
            add_unicast_samples(cell_contrib, outcome.unicast);
            merge_contribution(agg.unicast, cell_contrib);
            add_rach_sample(result.unicast, agg.unicast,
                            result.rach_collision_across_cells, outcome.unicast);
            for (std::size_t m = 0; m < setup.mechanisms.size(); ++m) {
                fleet_mechanisms[m].accumulate(outcome.mechanisms[m]);
                DeploymentMechanismStats mech_contrib;
                add_mechanism_samples(mech_contrib, outcome.mechanisms[m],
                                      outcome.unicast);
                merge_contribution(agg.mechanisms[m], mech_contrib);
                add_rach_sample(result.mechanisms[m], agg.mechanisms[m],
                                result.rach_collision_across_cells,
                                outcome.mechanisms[m]);
            }
        }

        DeploymentMechanismStats unicast_contrib;
        add_unicast_samples(unicast_contrib, fleet_unicast);
        merge_contribution(result.unicast, unicast_contrib);
        for (std::size_t m = 0; m < setup.mechanisms.size(); ++m) {
            DeploymentMechanismStats mech_contrib;
            add_mechanism_samples(mech_contrib, fleet_mechanisms[m], fleet_unicast);
            merge_contribution(result.mechanisms[m], mech_contrib);
        }
    }
    return result;
}

}  // namespace nbmg::multicell
