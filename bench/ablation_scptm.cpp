// Ablation A5: why the on-demand scheme of [3] exists at all.  SC-PTM-style
// delivery needs a single transmission and no connections, but every device
// pays a standing SC-MCCH monitoring cost forever — on-demand paging pays
// only when there is data.
//
// Scenario shell: the `ablation-scptm` preset (or --scenario/--preset)
// carries the four-mechanism list (DR-SC, DA-SC, DR-SI, SC-PTM); run it
// through the unified entry point.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "scenario/run.hpp"

int main(int argc, char** argv) {
    using namespace nbmg;

    const scenario::ScenarioSpec spec = bench::require_single_cell(
        bench::spec_from_args(argc, argv, "ablation-scptm"), "ablation_scptm");

    bench::print_header("Ablation A5", "SC-PTM baseline vs on-demand mechanisms");
    bench::print_scenario_line(spec);
    std::printf("(uptime per device over one campaign horizon)\n");

    const scenario::ScenarioResult result = scenario::run_scenario(spec);
    const core::MechanismStats& unicast = result.unicast_stats();

    stats::Table table({"mechanism", "light-sleep (s/device)", "connected (s/device)",
                        "vs unicast light-sleep", "transmissions"});
    table.add_row({"Unicast",
                   stats::Table::cell(unicast.mean_light_sleep_seconds.mean(), 2),
                   stats::Table::cell(unicast.mean_connected_seconds.mean(), 2),
                   "-", stats::Table::cell(unicast.transmissions.mean(), 0)});
    for (std::size_t m = 0; m < result.mechanism_count(); ++m) {
        const core::MechanismStats& s = result.mechanism_stats(m);
        table.add_row({std::string{core::to_string(s.kind)},
                       stats::Table::cell(s.mean_light_sleep_seconds.mean(), 2),
                       stats::Table::cell(s.mean_connected_seconds.mean(), 2),
                       stats::Table::cell_percent(s.light_sleep_increase.mean(), 1),
                       stats::Table::cell(s.transmissions.mean(), 0)});
    }
    bench::print_table(table);
    std::printf(
        "SC-PTM receives in idle mode (low connected time, single transmission)\n"
        "but its SC-MCCH monitoring dominates light-sleep uptime — and unlike\n"
        "the on-demand mechanisms it keeps paying between campaigns.\n");
    return 0;
}
