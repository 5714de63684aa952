// Property battery for checkpoint/resume: over seeded random scenario
// specs — single-cell and multicell, strata 1 and 8 — a run stopped
// mid-flight (checkpoint.stop_after) and resumed at a different
// --threads produces aggregates bit-identical to the uninterrupted run
// and byte-identical telemetry artifacts.  Also pins resume-from-final
// (every task restored, none recomputed), that a checkpointed run is
// bit-identical to a checkpoint-off run, and that a snapshot written by the
// retired single-cell engine is refused rather than mis-decoded.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "scenario/run.hpp"
#include "sim/random.hpp"
#include "snapshot/checkpoint.hpp"
#include "snapshot/format.hpp"
#include "tests/support/campaign_equal.hpp"
#include "tests/support/deployment_equal.hpp"

namespace nbmg::scenario {
namespace {

struct Shape {
    std::size_t strata;
    std::size_t stop_threads;    // threads of the interrupted run
    std::size_t resume_threads;  // threads of the resumed run
};

/// A small random workload: population and grid scale drawn from `rng`,
/// trace+metrics telemetry on (in-memory artifacts compared byte for
/// byte), strata from the shape under test.
ScenarioSpec random_spec(sim::RandomStream& rng, bool multicell,
                         const Shape& shape) {
    ScenarioSpec spec;
    spec.name = "checkpoint-property";
    spec.device_count = static_cast<std::size_t>(rng.uniform_int(30, 80));
    spec.runs = static_cast<std::size_t>(rng.uniform_int(4, 8));
    spec.payload_bytes = rng.uniform_int(20, 120) * 1024;
    spec.base_seed = rng.next_u64();
    spec.with_strata(shape.strata);
    if (multicell) {
        spec.with_cells(static_cast<std::size_t>(rng.uniform_int(2, 4)));
    }
    spec.with_telemetry_modes(true, true);
    return spec;
}

std::uint64_t total_tasks(const ScenarioSpec& spec) {
    return static_cast<std::uint64_t>(spec.runs) * spec.cell_count();
}

void expect_results_equal(const ScenarioResult& a, const ScenarioResult& b) {
    ASSERT_EQ(a.is_multicell(), b.is_multicell());
    test_support::expect_deployment_results_equal(a.deployment(), b.deployment());
    ASSERT_TRUE(a.telemetry.has_value());
    ASSERT_TRUE(b.telemetry.has_value());
    EXPECT_EQ(a.telemetry->trace_jsonl, b.telemetry->trace_jsonl);
    EXPECT_EQ(a.telemetry->timeline_json, b.telemetry->timeline_json);
    ASSERT_TRUE(a.telemetry->metrics.has_value());
    ASSERT_TRUE(b.telemetry->metrics.has_value());
    EXPECT_EQ(a.telemetry->metrics->to_csv(), b.telemetry->metrics->to_csv());
}

class CheckpointResumeProperty : public ::testing::TestWithParam<Shape> {};

TEST_P(CheckpointResumeProperty, InterruptedResumeMatchesUninterrupted) {
    const Shape shape = GetParam();
    sim::RandomStream rng{sim::derive_seed(20260808, "checkpoint-property",
                                           shape.strata * 100 +
                                               shape.stop_threads * 10 +
                                               shape.resume_threads)};
    for (const bool multicell : {false, true}) {
        const ScenarioSpec base = random_spec(rng, multicell, shape);
        const std::string snap = testing::TempDir() + "checkpoint_property_" +
                                 std::to_string(shape.strata) + "_" +
                                 std::to_string(shape.stop_threads) + "_" +
                                 std::to_string(shape.resume_threads) + "_" +
                                 (multicell ? "mc" : "sc") + ".bin";
        std::remove(snap.c_str());

        // Reference: the uninterrupted, checkpoint-off run.
        ScenarioSpec full = base;
        full.with_threads(shape.stop_threads);
        const ScenarioResult expected = run_scenario(full);

        // Interrupted: stop after roughly half the grid.
        const std::uint64_t budget = std::max<std::uint64_t>(
            1, total_tasks(base) / 2);
        ScenarioSpec interrupted = base;
        interrupted.with_threads(shape.stop_threads)
            .with_checkpoint_out(snap)
            .with_checkpoint_stop_after(budget);
        bool stopped = false;
        try {
            (void)run_scenario(interrupted);
        } catch (const snapshot::CheckpointStop& stop) {
            stopped = true;
            EXPECT_GE(stop.completed(), budget);
        }
        ASSERT_TRUE(stopped) << "stop budget " << budget << " never fired";

        // Resumed at a different thread count: bit-identical to the
        // uninterrupted run.
        ScenarioSpec resumed = base;
        resumed.with_threads(shape.resume_threads).with_resume(snap);
        const ScenarioResult actual = run_scenario(resumed);
        expect_results_equal(actual, expected);

        // The resumed run left a complete snapshot behind (save_final on
        // its default checkpoint.out = "" writes nothing; re-point it).
        ScenarioSpec refreshed = base;
        refreshed.with_threads(shape.resume_threads)
            .with_checkpoint_out(snap)
            .with_resume(snap);
        const ScenarioResult again = run_scenario(refreshed);
        expect_results_equal(again, expected);

        // Resume-from-final: every slot restores, nothing recomputes, and
        // the aggregates still match bit for bit.
        ScenarioSpec from_final = base;
        from_final.with_threads(1).with_resume(snap);
        expect_results_equal(run_scenario(from_final), expected);

        std::remove(snap.c_str());
    }
}

TEST(CheckpointCompatibilityTest, RetiredSingleCellEngineSnapshotRefused) {
    // Before single-cell scenarios ran as 1-cell deployments, their
    // snapshots said engine = 0 and carried per-run slot blobs in another
    // layout.  Forge one from a genuine snapshot of the same scenario (so
    // the fingerprint matches) and check the resume is refused up front,
    // before any slot is decoded.
    ScenarioSpec spec;
    spec.name = "checkpoint-compat";
    spec.device_count = 30;
    spec.runs = 2;
    spec.payload_bytes = 20 * 1024;
    spec.with_threads(1);
    ASSERT_FALSE(spec.is_multicell());
    const std::string snap = testing::TempDir() + "checkpoint_compat.bin";
    std::remove(snap.c_str());

    ScenarioSpec writer = spec;
    (void)run_scenario(writer.with_checkpoint_out(snap));

    std::vector<snapshot::Section> sections = snapshot::read_snapshot_file(snap);
    bool forged = false;
    for (snapshot::Section& section : sections) {
        if (section.id != 1) continue;  // the header section
        ASSERT_GT(section.payload.size(), 8u);
        EXPECT_EQ(section.payload[8], 1u) << "run_scenario writes engine = 1";
        section.payload[8] = 0;  // u64 fingerprint, then the engine byte
        forged = true;
    }
    ASSERT_TRUE(forged);
    snapshot::write_snapshot_file(snap, sections);

    ScenarioSpec resumed = spec;
    resumed.with_resume(snap);
    try {
        (void)run_scenario(resumed);
        FAIL() << "expected SnapshotError";
    } catch (const snapshot::SnapshotError& error) {
        EXPECT_NE(std::string(error.what()).find("engine shape mismatch"),
                  std::string::npos)
            << error.what();
    }
    std::remove(snap.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndStrata, CheckpointResumeProperty,
    ::testing::Values(Shape{1, 1, 8}, Shape{1, 8, 1}, Shape{8, 1, 8},
                      Shape{8, 8, 8}),
    [](const ::testing::TestParamInfo<Shape>& info) {
        return "strata" + std::to_string(info.param.strata) + "_stop" +
               std::to_string(info.param.stop_threads) + "_resume" +
               std::to_string(info.param.resume_threads);
    });

}  // namespace
}  // namespace nbmg::scenario
