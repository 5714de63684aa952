#include "scenario/spec.hpp"

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "scenario/registry.hpp"

namespace nbmg::scenario {

multicell::CellTopology TopologySpec::realize() const {
    switch (kind) {
        case Kind::uniform: return multicell::CellTopology::uniform(cells);
        case Kind::hotspot:
            return multicell::CellTopology::hotspot(cells, hotspot_exponent);
    }
    return multicell::CellTopology::uniform(cells);
}

ScenarioSpec::ScenarioSpec() : profile(traffic::massive_iot_city()) {}

ScenarioSpec& ScenarioSpec::with_name(std::string value) {
    name = std::move(value);
    return *this;
}
ScenarioSpec& ScenarioSpec::with_description(std::string value) {
    description = std::move(value);
    return *this;
}
ScenarioSpec& ScenarioSpec::with_profile(traffic::PopulationProfile value) {
    profile = std::move(value);
    return *this;
}
ScenarioSpec& ScenarioSpec::with_devices(std::size_t value) {
    device_count = value;
    return *this;
}
ScenarioSpec& ScenarioSpec::with_payload_bytes(std::int64_t value) {
    payload_bytes = value;
    return *this;
}
ScenarioSpec& ScenarioSpec::with_runs(std::size_t value) {
    runs = value;
    return *this;
}
ScenarioSpec& ScenarioSpec::with_seed(std::uint64_t value) {
    base_seed = value;
    return *this;
}
ScenarioSpec& ScenarioSpec::with_threads(std::size_t value) {
    threads = value;
    return *this;
}
ScenarioSpec& ScenarioSpec::with_mechanisms(std::vector<core::MechanismKind> value) {
    mechanisms = std::move(value);
    return *this;
}
ScenarioSpec& ScenarioSpec::with_config(core::CampaignConfig value) {
    config = value;
    return *this;
}
ScenarioSpec& ScenarioSpec::with_inactivity_timer_ms(std::int64_t value) {
    config.inactivity_timer = nbiot::SimTime{value};
    return *this;
}
ScenarioSpec& ScenarioSpec::with_strata(std::size_t value) {
    config.strata = value;
    return *this;
}
ScenarioSpec& ScenarioSpec::with_cells(std::size_t cells) {
    TopologySpec topo;  // fresh uniform grid, as documented
    topo.cells = cells;
    topology = topo;
    return *this;
}
ScenarioSpec& ScenarioSpec::with_cell_count(std::size_t cells) {
    TopologySpec topo = topology.value_or(TopologySpec{});
    topo.cells = cells;
    topology = topo;
    return *this;
}
ScenarioSpec& ScenarioSpec::with_topology(TopologySpec value) {
    topology = std::move(value);
    return *this;
}
ScenarioSpec& ScenarioSpec::with_hotspot(std::size_t cells, double exponent) {
    TopologySpec topo;
    topo.cells = cells;
    topo.kind = TopologySpec::Kind::hotspot;
    topo.hotspot_exponent = exponent;
    topology = topo;
    return *this;
}
ScenarioSpec& ScenarioSpec::with_assignment(multicell::AssignmentPolicy value) {
    assignment = value;
    return *this;
}
ScenarioSpec& ScenarioSpec::with_populations(core::SharedPopulations value) {
    populations = std::move(value);
    return *this;
}
ScenarioSpec& ScenarioSpec::with_coordinator(multicell::CoordinatorSpec value) {
    coordinator = value;
    return *this;
}
ScenarioSpec& ScenarioSpec::with_stagger_ms(std::int64_t value) {
    multicell::CoordinatorSpec spec;
    spec.policy = multicell::StartPolicy::fixed_stagger;
    spec.stagger_ms = value;
    coordinator = spec;
    return *this;
}
ScenarioSpec& ScenarioSpec::with_backhaul_kbps(double value) {
    multicell::CoordinatorSpec spec;
    spec.policy = multicell::StartPolicy::backhaul_budgeted;
    spec.backhaul_kbps = value;
    coordinator = spec;
    return *this;
}
ScenarioSpec& ScenarioSpec::with_backhaul_loss(double value) {
    if (!coordinator ||
        coordinator->policy != multicell::StartPolicy::backhaul_budgeted) {
        throw std::invalid_argument(
            "scenario '" + name +
            "': backhaul loss needs a backhaul coordinator (call "
            "with_backhaul_kbps first)");
    }
    coordinator->loss_prob = value;
    return *this;
}
ScenarioSpec& ScenarioSpec::without_coordinator() {
    coordinator.reset();
    return *this;
}
ScenarioSpec& ScenarioSpec::with_churn(double leave_rate, std::int64_t rejoin_ms) {
    config.churn.leave_rate = leave_rate;
    config.churn.rejoin_ms = rejoin_ms;
    return *this;
}
ScenarioSpec& ScenarioSpec::with_cell_down(faults::OutageSpec value) {
    cell_down = value;
    return *this;
}
ScenarioSpec& ScenarioSpec::with_telemetry(TelemetrySpec value) {
    telemetry = std::move(value);
    return *this;
}
ScenarioSpec& ScenarioSpec::with_telemetry_modes(bool trace, bool metrics) {
    telemetry.trace = trace;
    telemetry.metrics = metrics;
    return *this;
}
ScenarioSpec& ScenarioSpec::with_trace_out(std::string path) {
    telemetry.trace = true;
    telemetry.trace_out = std::move(path);
    return *this;
}
ScenarioSpec& ScenarioSpec::with_metrics_out(std::string path) {
    telemetry.metrics = true;
    telemetry.metrics_out = std::move(path);
    return *this;
}
ScenarioSpec& ScenarioSpec::with_timeline_out(std::string path) {
    telemetry.trace = true;
    telemetry.timeline_out = std::move(path);
    return *this;
}
ScenarioSpec& ScenarioSpec::with_telemetry_bucket_ms(std::int64_t value) {
    telemetry.bucket_ms = value;
    return *this;
}
ScenarioSpec& ScenarioSpec::with_checkpoint_out(std::string path) {
    checkpoint.out = std::move(path);
    return *this;
}
ScenarioSpec& ScenarioSpec::with_checkpoint_every_ms(std::int64_t value) {
    checkpoint.every_ms = value;
    return *this;
}
ScenarioSpec& ScenarioSpec::with_checkpoint_stop_after(std::uint64_t value) {
    checkpoint.stop_after = value;
    return *this;
}
ScenarioSpec& ScenarioSpec::with_resume(std::string path) {
    checkpoint.resume = std::move(path);
    return *this;
}
ScenarioSpec& ScenarioSpec::single_cell() {
    topology.reset();
    coordinator.reset();
    return *this;
}

void ScenarioSpec::validate() const {
    if (device_count == 0) {
        throw std::invalid_argument("scenario '" + name + "': devices must be >= 1");
    }
    if (runs == 0) {
        throw std::invalid_argument("scenario '" + name + "': runs must be >= 1");
    }
    if (payload_bytes <= 0) {
        throw std::invalid_argument("scenario '" + name +
                                    "': payload must be >= 1 byte");
    }
    if (!profile.valid()) {
        throw std::invalid_argument("scenario '" + name +
                                    "': invalid population profile '" +
                                    profile.name + "'");
    }
    if (!std::isfinite(profile.batch_mean) || profile.batch_mean < 1.0) {
        throw std::invalid_argument("scenario '" + name +
                                    "': batch_mean must be finite and >= 1");
    }
    if (!std::isfinite(config.page_miss_prob) ||
        !std::isfinite(config.background_ra_per_second)) {
        throw std::invalid_argument(
            "scenario '" + name +
            "': campaign config rates must be finite");
    }
    if (config.strata < 1 || config.strata > core::kMaxStrata) {
        throw std::invalid_argument("scenario '" + name + "': strata must be in [1, " +
                                    std::to_string(core::kMaxStrata) + "]");
    }
    if (!config.churn.valid()) {
        throw std::invalid_argument(
            "scenario '" + name +
            "': invalid churn (leave_rate must be finite and >= 0; enabled "
            "churn needs rejoin_ms >= 1)");
    }
    if (!config.valid()) {
        throw std::invalid_argument("scenario '" + name +
                                    "': invalid campaign config");
    }
    if (mechanisms.empty()) {
        throw std::invalid_argument("scenario '" + name +
                                    "': mechanism list must not be empty");
    }
    if (topology) {
        if (topology->cells == 0) {
            throw std::invalid_argument("scenario '" + name +
                                        "': cells must be >= 1");
        }
        if (!(topology->hotspot_exponent >= 0.0) ||
            !std::isfinite(topology->hotspot_exponent)) {
            throw std::invalid_argument(
                "scenario '" + name +
                "': hotspot_exponent must be finite and >= 0");
        }
        if (!topology->realize().valid()) {
            throw std::invalid_argument("scenario '" + name +
                                        "': invalid cell topology");
        }
    }
    if (coordinator) {
        if (!topology) {
            throw std::invalid_argument(
                "scenario '" + name +
                "': coordinator requires a multicell topology (cells)");
        }
        if (!coordinator->valid()) {
            throw std::invalid_argument(
                "scenario '" + name +
                "': invalid coordinator (policy-scoped knobs: stagger_ms >= 0 "
                "needs fixed-stagger, finite backhaul_kbps > 0 and loss_prob "
                "in [0, 1) need backhaul)");
        }
    }
    if (cell_down) {
        if (!topology) {
            throw std::invalid_argument(
                "scenario '" + name +
                "': faults.cell_down requires a multicell topology (cells)");
        }
        if (!cell_down->valid()) {
            throw std::invalid_argument(
                "scenario '" + name + "': faults.cell_down time must be >= 1 ms");
        }
        if (cell_down->cell >= topology->cells) {
            throw std::invalid_argument(
                "scenario '" + name +
                "': faults.cell_down names cell " +
                std::to_string(cell_down->cell) + " but the topology has " +
                std::to_string(topology->cells) + " cells");
        }
    }
    if (telemetry.bucket_ms < 1) {
        throw std::invalid_argument("scenario '" + name +
                                    "': telemetry.bucket_ms must be >= 1");
    }
    if ((!telemetry.trace_out.empty() || !telemetry.timeline_out.empty()) &&
        !telemetry.trace) {
        throw std::invalid_argument(
            "scenario '" + name +
            "': trace_out/timeline_out need trace collection enabled "
            "(telemetry = trace or full)");
    }
    if (!telemetry.metrics_out.empty() && !telemetry.metrics) {
        throw std::invalid_argument(
            "scenario '" + name +
            "': metrics_out needs metrics collection enabled "
            "(telemetry = metrics or full)");
    }
    if (checkpoint.every_ms < 0) {
        throw std::invalid_argument("scenario '" + name +
                                    "': checkpoint.every_ms must be >= 0");
    }
    if ((checkpoint.every_ms != 0 || checkpoint.stop_after != 0) &&
        checkpoint.out.empty()) {
        throw std::invalid_argument(
            "scenario '" + name +
            "': checkpoint.every_ms/checkpoint.stop_after need a snapshot "
            "path (checkpoint.out)");
    }
    if (populations) {
        if (populations->profile_name != profile.name ||
            populations->device_count != device_count ||
            populations->base_seed != base_seed) {
            throw std::invalid_argument(
                "scenario '" + name +
                "': shared populations were generated for a different "
                "(profile, device_count, base_seed)");
        }
        if (populations->runs.size() < runs) {
            throw std::invalid_argument(
                "scenario '" + name +
                "': shared populations cover fewer runs than the scenario");
        }
    }
}

std::string ScenarioSpec::to_file_text() const {
    if (!Registry::instance().has_profile(profile.name)) {
        throw std::invalid_argument(
            "scenario '" + name + "': profile '" + profile.name +
            "' is not a registered builtin; the scenario-file format stores "
            "profiles by name");
    }
    // Profiles travel by name (+ batch_mean): any deeper edit under a
    // registered name would silently reload as the builtin.
    traffic::PopulationProfile builtin = Registry::instance().profile(profile.name);
    builtin.batch_mean = profile.batch_mean;
    if (!(profile == builtin)) {
        throw std::invalid_argument(
            "scenario '" + name + "': profile '" + profile.name +
            "' was modified beyond batch_mean; the scenario-file format "
            "cannot express per-class edits");
    }
    if (config.outage_at_ms != -1) {
        // The per-campaign outage instant is engine plumbing run_deployment
        // derives from cell_down; refusing keeps the serializer from
        // silently dropping a programmatic override.
        throw std::invalid_argument(
            "scenario '" + name +
            "': config.outage_at_ms is engine plumbing; describe outages with "
            "cell_down (faults.cell_down) instead");
    }
    if (coordinator && !topology) {
        // Invalid anyway (validate rejects it); refusing here keeps the
        // serializer from silently dropping the coordinator keys.
        throw std::invalid_argument(
            "scenario '" + name +
            "': coordinator requires a multicell topology (cells)");
    }
    // Deep config (timing/RACH/radio/signaling models, the paging geometry
    // beyond max_page_records) has no file keys; refuse to serialize specs
    // that changed it rather than silently reloading defaults.
    const core::CampaignConfig defaults{};
    const bool deep_config_default =
        config.timing == defaults.timing && config.rach == defaults.rach &&
        config.radio == defaults.radio && config.sizes == defaults.sizes &&
        config.paging.nb_num == defaults.paging.nb_num &&
        config.paging.nb_den == defaults.paging.nb_den &&
        config.paging.ue_id_modulus == defaults.paging.ue_id_modulus;
    if (!deep_config_default) {
        throw std::invalid_argument(
            "scenario '" + name +
            "': deep campaign config (timing/rach/radio/signaling/paging "
            "geometry) differs from the defaults and has no scenario-file "
            "keys; keep such specs programmatic");
    }

    std::ostringstream out;
    // Full round-trip precision: a saved-and-reloaded spec must run the
    // same experiment, so doubles may not lose digits on the way out.
    out.precision(std::numeric_limits<double>::max_digits10);
    out << "# nbmg scenario file (key = value; '#' starts a comment)\n";
    out << "name = " << name << "\n";
    if (!description.empty()) out << "description = " << description << "\n";
    out << "profile = " << profile.name << "\n";
    const double builtin_batch_mean =
        Registry::instance().profile(profile.name).batch_mean;
    if (profile.batch_mean != builtin_batch_mean) {
        out << "batch_mean = " << profile.batch_mean << "\n";
    }
    out << "devices = " << device_count << "\n";
    out << "payload_bytes = " << payload_bytes << "\n";
    out << "runs = " << runs << "\n";
    out << "seed = " << base_seed << "\n";
    if (threads != 0) out << "threads = " << threads << "\n";
    out << "mechanisms = ";
    for (std::size_t m = 0; m < mechanisms.size(); ++m) {
        if (m != 0) out << ",";
        out << Registry::instance().mechanism_name(mechanisms[m]);
    }
    out << "\n";
    out << "ti_ms = " << config.inactivity_timer.count() << "\n";
    out << "ra_guard_ms = " << config.ra_guard.count() << "\n";
    out << "include_inactivity_tail = "
        << (config.include_inactivity_tail ? "true" : "false") << "\n";
    out << "page_miss_prob = " << config.page_miss_prob << "\n";
    out << "max_page_attempts = " << config.max_page_attempts << "\n";
    out << "background_ra_per_second = " << config.background_ra_per_second << "\n";
    out << "max_page_records = " << config.paging.max_page_records << "\n";
    out << "sc_ptm_mcch_period_ms = " << config.sc_ptm_mcch_period.count() << "\n";
    if (config.strata != 1) out << "strata = " << config.strata << "\n";
    if (config.churn.enabled()) {
        out << "churn.leave_rate = " << config.churn.leave_rate << "\n";
        out << "churn.rejoin_ms = " << config.churn.rejoin_ms << "\n";
    }
    if (telemetry.enabled()) {
        out << "telemetry = "
            << (telemetry.trace && telemetry.metrics
                    ? "full"
                    : (telemetry.trace ? "trace" : "metrics"))
            << "\n";
        if (telemetry.bucket_ms != TelemetrySpec{}.bucket_ms) {
            out << "telemetry.bucket_ms = " << telemetry.bucket_ms << "\n";
        }
        if (!telemetry.trace_out.empty()) {
            out << "trace_out = " << telemetry.trace_out << "\n";
        }
        if (!telemetry.metrics_out.empty()) {
            out << "metrics_out = " << telemetry.metrics_out << "\n";
        }
        if (!telemetry.timeline_out.empty()) {
            out << "timeline_out = " << telemetry.timeline_out << "\n";
        }
    }
    if (checkpoint.enabled()) {
        if (!checkpoint.out.empty()) {
            out << "checkpoint.out = " << checkpoint.out << "\n";
        }
        if (checkpoint.every_ms != 0) {
            out << "checkpoint.every_ms = " << checkpoint.every_ms << "\n";
        }
        if (checkpoint.stop_after != 0) {
            out << "checkpoint.stop_after = " << checkpoint.stop_after << "\n";
        }
        if (!checkpoint.resume.empty()) {
            out << "checkpoint.resume = " << checkpoint.resume << "\n";
        }
    }
    if (topology) {
        out << "cells = " << topology->cells << "\n";
        out << "topology = " << to_string(topology->kind) << "\n";
        if (topology->kind == TopologySpec::Kind::hotspot) {
            out << "hotspot_exponent = " << topology->hotspot_exponent << "\n";
        }
        out << "assignment = " << multicell::to_string(assignment) << "\n";
        if (coordinator) {
            out << "coordinator = " << multicell::to_string(coordinator->policy)
                << "\n";
            if (coordinator->policy == multicell::StartPolicy::fixed_stagger) {
                out << "coordinator.stagger_ms = " << coordinator->stagger_ms
                    << "\n";
            }
            if (coordinator->policy == multicell::StartPolicy::backhaul_budgeted) {
                out << "coordinator.backhaul_kbps = " << coordinator->backhaul_kbps
                    << "\n";
                if (coordinator->loss_prob != 0.0) {
                    out << "faults.backhaul_loss = " << coordinator->loss_prob
                        << "\n";
                }
            }
        }
        if (cell_down) {
            out << "faults.cell_down = " << faults::format_cell_down(*cell_down)
                << "\n";
        }
    }
    return out.str();
}

multicell::DeploymentSetup to_deployment_setup(const ScenarioSpec& spec) {
    multicell::DeploymentSetup setup;
    setup.profile = spec.profile;
    setup.device_count = spec.device_count;
    setup.payload_bytes = spec.payload_bytes;
    setup.config = spec.config;
    setup.runs = spec.runs;
    setup.base_seed = spec.base_seed;
    setup.threads = spec.threads;
    setup.mechanisms = spec.mechanisms;
    setup.populations = spec.populations;
    setup.assignment = spec.assignment;
    setup.topology = spec.topology ? spec.topology->realize()
                                   : multicell::CellTopology::uniform(1);
    setup.cell_down = spec.cell_down;
    return setup;
}

}  // namespace nbmg::scenario
