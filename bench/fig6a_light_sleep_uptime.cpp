// Reproduces Fig. 6(a): relative uptime increase in light-sleep mode
// (paging-occasion monitoring + paging reception) versus the unicast
// reference, for DR-SC, DA-SC and DR-SI.
//
// Scenario shell: the workload comes from the `fig6a` preset, a
// `--scenario FILE`, or `--preset NAME`; the classic flags (--runs,
// --devices, --seed, --threads, ...) override on top.
//
// Paper's reported shape: DR-SC identical to unicast (exactly 0), DR-SI a
// negligible increase (only a longer paging message), DA-SC a visible
// increase (extra POs on the shortened cycle).  Because the baseline
// light-sleep uptime of very sleepy eDRX devices is tiny, the relative
// number for DA-SC is large; the paper's own conclusion frames it against
// the total uptime, which the last column reports (see EXPERIMENTS.md,
// note R1).
#include <cstdio>

#include "bench/bench_util.hpp"
#include "scenario/run.hpp"

int main(int argc, char** argv) {
    using namespace nbmg;

    const scenario::ScenarioSpec spec = bench::require_single_cell(
        bench::spec_from_args(argc, argv, "fig6a"), "fig6a_light_sleep_uptime");

    bench::print_header("Fig. 6(a)", "relative light-sleep uptime increase vs unicast");
    bench::print_scenario_line(spec);

    const scenario::ScenarioResult result = scenario::run_scenario(spec);
    const core::MechanismStats& unicast = result.unicast_stats();
    const double base_light = unicast.mean_light_sleep_seconds.mean();
    const double base_total = base_light + unicast.mean_connected_seconds.mean();

    stats::Table table({"mechanism", "light-sleep uptime (s/device)",
                        "increase vs unicast", "ci95",
                        "as % of total unicast uptime", "paper shape"});
    table.add_row({"Unicast", stats::Table::cell(base_light, 2), "-", "-", "-",
                   "reference"});
    for (std::size_t m = 0; m < result.mechanism_count(); ++m) {
        const core::MechanismStats& s = result.mechanism_stats(m);
        // Light-sleep delta expressed against the unicast *total* uptime
        // (light sleep + connected), the conclusions' framing.
        const double light_vs_total =
            (s.mean_light_sleep_seconds.mean() - base_light) / base_total;
        const char* expected = s.kind == core::MechanismKind::dr_sc ? "exactly 0"
                               : s.kind == core::MechanismKind::da_sc
                                   ? "minor increase"
                                   : "negligible increase";
        table.add_row(
            {std::string{core::to_string(s.kind)},
             stats::Table::cell(s.mean_light_sleep_seconds.mean(), 2),
             stats::Table::cell_percent(s.light_sleep_increase.mean(), 2),
             stats::Table::cell_percent(s.light_sleep_increase.ci95_half_width(), 2),
             stats::Table::cell_percent(light_vs_total, 3), expected});
    }
    bench::print_table(table);
    return 0;
}
