// Scenario-file parser: the `key = value` format ScenarioSpec serializes
// to.  Parsing is strict — an unknown key, a duplicate key, or a value of
// the wrong type all throw a ScenarioError naming the offending
// source:line, so a typo in a checked-in scenario file fails loudly
// instead of silently running a different experiment.
//
// Grammar, one statement per line:
//   key = value        # trailing comments are not supported; a '#' in
//   # full-line comment  column one (after whitespace) skips the line
// Keys: name, description, profile, batch_mean, devices, payload_bytes,
// payload_kb, runs, seed, threads, mechanisms (comma list of registry
// spellings), ti_ms, ra_guard_ms, include_inactivity_tail, page_miss_prob,
// max_page_attempts, background_ra_per_second, max_page_records,
// sc_ptm_mcch_period_ms, cells, topology (uniform | hotspot),
// hotspot_exponent, assignment (uniform | hotspot | class-affinity),
// telemetry (off | trace | metrics | full), telemetry.bucket_ms,
// trace_out, metrics_out, timeline_out, checkpoint.out,
// checkpoint.every_ms, checkpoint.stop_after, checkpoint.resume.
// The multicell keys (topology, hotspot_exponent, assignment) require
// `cells`; `cells` alone engages a uniform multicell grid.
// The telemetry output keys require the matching collection mode:
// trace_out/timeline_out need telemetry = trace or full, metrics_out
// needs telemetry = metrics or full, telemetry.bucket_ms needs any
// enabled mode.  The checkpoint sub-keys checkpoint.every_ms and
// checkpoint.stop_after require a snapshot path (checkpoint.out).
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

#include "scenario/spec.hpp"

namespace nbmg::scenario {

/// Parse/IO failure; what() carries "source:line: reason".
class ScenarioError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Parses scenario-file text.  `source_name` labels error messages (use the
/// file path).  Throws ScenarioError on malformed input and validates the
/// resulting spec.
[[nodiscard]] ScenarioSpec parse_scenario_text(std::string_view text,
                                               std::string_view source_name =
                                                   "<scenario>");

/// Reads and parses `path`.  Throws ScenarioError when the file cannot be
/// read or does not parse.
[[nodiscard]] ScenarioSpec load_scenario_file(const std::string& path);

}  // namespace nbmg::scenario
