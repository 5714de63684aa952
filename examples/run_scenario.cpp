// The canonical thin shell over the unified scenario API: resolve a spec
// (--preset NAME / --scenario FILE / flag overrides), run it through
// run_scenario — single-cell or multicell, decided by the spec — and print
// the common report surface every scenario shares, as a markdown table or
// as CSV.  Everything the figure shells do beyond this is presentation.
//
//   $ ./run_scenario --preset fig6a --runs 5
//   $ ./run_scenario --scenario examples/scenarios/citywide_16cells.scenario
//   $ ./run_scenario --preset citywide --csv > citywide.csv
//   $ ./run_scenario --list            # registered presets, one per line
#include <cstdio>
#include <cstring>

#include "bench/bench_util.hpp"
#include "scenario/registry.hpp"
#include "scenario/run.hpp"

int main(int argc, char** argv) {
    using namespace nbmg;

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--list") == 0) {
            for (const scenario::Registry::PresetEntry& entry :
                 scenario::Registry::instance().presets()) {
                std::printf("%-20s %s\n", entry.name.c_str(),
                            entry.description.c_str());
            }
            return 0;
        }
    }
    bool csv = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--csv") == 0) csv = true;
    }

    scenario::ShellFlags shell;
    shell.bare_flags = {"--csv", "--list"};
    const scenario::ScenarioSpec spec =
        bench::spec_from_args(argc, argv, "quickstart", shell);
    // run_scenario_or_exit: an unwritable --trace-out/--metrics-out/
    // --timeline-out exits 2 with a diagnostic, like every other usage error.
    const scenario::ScenarioResult result = scenario::run_scenario_or_exit(spec);

    if (csv) {
        std::fputs(result.summary_csv().c_str(), stdout);
        // Coordinated scenarios append the time-axis table as a second CSV
        // block (own header) after a blank line.
        if (result.is_coordinated()) {
            std::fputs("\n", stdout);
            std::fputs(result.coordination_csv().c_str(), stdout);
        }
        // Metrics-collecting scenarios append the telemetry counters as a
        // further CSV block.
        if (result.telemetry && result.telemetry->metrics) {
            std::fputs("\n", stdout);
            std::fputs(result.telemetry->metrics->to_csv().c_str(), stdout);
        }
        return 0;
    }

    bench::print_header("run_scenario", spec.description.empty()
                                            ? spec.name.c_str()
                                            : spec.description.c_str());
    bench::print_scenario_line(spec);
    bench::print_table(result.summary_table());
    if (result.is_multicell()) {
        const multicell::DeploymentResult& deployment = result.deployment();
        std::printf(
            "cells=%zu  max cell load=%.0f  empty cell-runs=%zu  "
            "RACH collision p50=%.4f p95=%.4f (across cells)\n",
            deployment.cell_count(), deployment.cell_load.max(),
            deployment.empty_cell_runs,
            deployment.rach_collision_across_cells.quantile(0.5),
            deployment.rach_collision_across_cells.quantile(0.95));
    }
    if (result.is_coordinated()) {
        std::printf("\ncity wall-clock (%s policy):\n",
                    multicell::to_string(result.coordination->coordinator.policy));
        bench::print_table(result.coordination_table());
    }
    if (result.telemetry) {
        const scenario::TelemetryReport& report = *result.telemetry;
        std::size_t trace_lines = 0;
        for (const char c : report.trace_jsonl) {
            if (c == '\n') ++trace_lines;
        }
        std::printf("\ntelemetry: trace=%s metrics=%s",
                    report.config.trace ? "on" : "off",
                    report.config.metrics ? "on" : "off");
        if (report.config.trace) std::printf("  trace records=%zu", trace_lines);
        std::printf("\n");
        if (!report.config.trace_out.empty()) {
            std::printf("  wrote trace    -> %s\n", report.config.trace_out.c_str());
        }
        if (!report.config.metrics_out.empty()) {
            std::printf("  wrote metrics  -> %s\n", report.config.metrics_out.c_str());
        }
        if (!report.config.timeline_out.empty()) {
            std::printf("  wrote timeline -> %s (chrome://tracing)\n",
                        report.config.timeline_out.c_str());
        }
    }
    return 0;
}
