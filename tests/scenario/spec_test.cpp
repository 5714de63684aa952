// ScenarioSpec: builder semantics, validation, scenario-file serialization
// round trips, and the to_deployment_setup adapter — nothing may be lost on
// the way to the engine.
#include "scenario/spec.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "scenario/parser.hpp"
#include "scenario/registry.hpp"
#include "traffic/firmware.hpp"

namespace nbmg::scenario {
namespace {

ScenarioSpec small_spec() {
    return ScenarioSpec{}
        .with_name("unit")
        .with_devices(40)
        .with_runs(3)
        .with_seed(7)
        .with_threads(2)
        .with_payload_bytes(20 * 1024);
}

TEST(ScenarioSpecTest, BuilderChainsAndDefaults) {
    const ScenarioSpec spec = small_spec();
    EXPECT_EQ(spec.name, "unit");
    EXPECT_EQ(spec.device_count, 40u);
    EXPECT_EQ(spec.runs, 3u);
    EXPECT_EQ(spec.base_seed, 7u);
    EXPECT_EQ(spec.threads, 2u);
    EXPECT_EQ(spec.payload_bytes, 20 * 1024);
    EXPECT_EQ(spec.profile.name, "massive_iot_city");
    EXPECT_FALSE(spec.is_multicell());
    EXPECT_EQ(spec.cell_count(), 1u);
    const std::vector<core::MechanismKind> expected{core::MechanismKind::dr_sc,
                                                    core::MechanismKind::da_sc,
                                                    core::MechanismKind::dr_si};
    EXPECT_EQ(spec.mechanisms, expected);
    EXPECT_NO_THROW(spec.validate());
}

TEST(ScenarioSpecTest, WithCellsEngagesMulticellAndSingleCellClearsIt) {
    ScenarioSpec spec = small_spec().with_cells(16);
    EXPECT_TRUE(spec.is_multicell());
    EXPECT_EQ(spec.cell_count(), 16u);
    EXPECT_EQ(spec.topology->kind, TopologySpec::Kind::uniform);
    spec.single_cell();
    EXPECT_FALSE(spec.is_multicell());
}

TEST(ScenarioSpecTest, WithCellsResetsToUniformButCellCountPreservesKind) {
    // with_cells is documented as a fresh uniform grid...
    ScenarioSpec spec = small_spec().with_hotspot(8, 1.5).with_cells(4);
    EXPECT_EQ(spec.topology->kind, TopologySpec::Kind::uniform);
    EXPECT_EQ(spec.cell_count(), 4u);
    // ...while with_cell_count (the --cells override) keeps the shape.
    spec = small_spec().with_hotspot(8, 1.5).with_cell_count(32);
    EXPECT_EQ(spec.topology->kind, TopologySpec::Kind::hotspot);
    EXPECT_EQ(spec.topology->hotspot_exponent, 1.5);
    EXPECT_EQ(spec.cell_count(), 32u);
}

TEST(ScenarioSpecTest, FileTextKeepsFullDoublePrecision) {
    ScenarioSpec spec = small_spec();
    spec.config.page_miss_prob = 0.0123456789;
    spec.config.background_ra_per_second = 1.0 / 3.0;
    spec.with_hotspot(4, 0.1234567890123);
    const ScenarioSpec parsed =
        parse_scenario_text(spec.to_file_text(), "precision");
    EXPECT_EQ(parsed.config.page_miss_prob, spec.config.page_miss_prob);
    EXPECT_EQ(parsed.config.background_ra_per_second,
              spec.config.background_ra_per_second);
    EXPECT_EQ(parsed.topology->hotspot_exponent,
              spec.topology->hotspot_exponent);
}

TEST(ScenarioSpecTest, WithHotspotRealizesZipfTopology) {
    const ScenarioSpec spec = small_spec().with_hotspot(8, 1.0);
    ASSERT_TRUE(spec.is_multicell());
    const multicell::CellTopology topology = spec.topology->realize();
    ASSERT_EQ(topology.cell_count(), 8u);
    EXPECT_GT(topology.cells.front().weight, topology.cells.back().weight);
}

TEST(ScenarioSpecTest, ValidationNamesTheOffendingField) {
    EXPECT_THROW(
        {
            try {
                ScenarioSpec{}.with_devices(0).validate();
            } catch (const std::invalid_argument& error) {
                EXPECT_NE(std::string(error.what()).find("devices"),
                          std::string::npos);
                throw;
            }
        },
        std::invalid_argument);
    EXPECT_THROW(ScenarioSpec{}.with_runs(0).validate(), std::invalid_argument);
    EXPECT_THROW(ScenarioSpec{}.with_payload_bytes(0).validate(),
                 std::invalid_argument);
    EXPECT_THROW(ScenarioSpec{}.with_mechanisms({}).validate(),
                 std::invalid_argument);
    EXPECT_THROW(ScenarioSpec{}.with_hotspot(4, -1.0).validate(),
                 std::invalid_argument);
}

TEST(ScenarioSpecTest, CoordinatorBuildersAndValidation) {
    // The convenience builders imply their policy.
    ScenarioSpec staggered = small_spec().with_cells(4).with_stagger_ms(20'000);
    ASSERT_TRUE(staggered.is_coordinated());
    EXPECT_EQ(staggered.coordinator->policy,
              multicell::StartPolicy::fixed_stagger);
    EXPECT_NO_THROW(staggered.validate());

    ScenarioSpec budgeted = small_spec().with_cells(4).with_backhaul_kbps(64.0);
    EXPECT_EQ(budgeted.coordinator->policy,
              multicell::StartPolicy::backhaul_budgeted);
    EXPECT_NO_THROW(budgeted.validate());

    // A coordinator needs a grid to schedule.
    EXPECT_THROW(small_spec().with_stagger_ms(1'000).validate(),
                 std::invalid_argument);
    // Policy-scoped knobs must be consistent.
    ScenarioSpec inconsistent = small_spec().with_cells(4);
    multicell::CoordinatorSpec mixed;
    mixed.policy = multicell::StartPolicy::backhaul_budgeted;
    mixed.stagger_ms = 5'000;
    mixed.backhaul_kbps = 64.0;
    inconsistent.with_coordinator(mixed);
    EXPECT_THROW(inconsistent.validate(), std::invalid_argument);

    // single_cell drops the coordinator along with the grid; the spec
    // stays valid instead of stranding a coordinator without cells.
    ScenarioSpec cleared = small_spec().with_cells(4).with_stagger_ms(1'000);
    cleared.single_cell();
    EXPECT_FALSE(cleared.is_coordinated());
    EXPECT_NO_THROW(cleared.validate());
    EXPECT_FALSE(small_spec().with_cells(4).with_stagger_ms(1'000)
                     .without_coordinator()
                     .is_coordinated());
}

TEST(ScenarioSpecTest, CoordinatorKeysSerializeAndReparse) {
    ScenarioSpec spec = small_spec().with_hotspot(6, 0.5).with_stagger_ms(45'000);
    ScenarioSpec parsed = parse_scenario_text(spec.to_file_text(), "staggered");
    ASSERT_TRUE(parsed.is_coordinated());
    EXPECT_EQ(parsed.coordinator->policy, multicell::StartPolicy::fixed_stagger);
    EXPECT_EQ(parsed.coordinator->stagger_ms, 45'000);

    spec = small_spec().with_cells(3).with_backhaul_kbps(0.125);
    parsed = parse_scenario_text(spec.to_file_text(), "backhaul");
    ASSERT_TRUE(parsed.is_coordinated());
    EXPECT_EQ(parsed.coordinator->policy,
              multicell::StartPolicy::backhaul_budgeted);
    EXPECT_EQ(parsed.coordinator->backhaul_kbps, 0.125);
}

TEST(ScenarioSpecTest, TelemetryBuildersImplyTheirModes) {
    ScenarioSpec spec = small_spec().with_trace_out("t.jsonl");
    EXPECT_TRUE(spec.telemetry.trace);
    EXPECT_FALSE(spec.telemetry.metrics);
    EXPECT_NO_THROW(spec.validate());
    spec.with_metrics_out("m.csv").with_timeline_out("tl.json");
    EXPECT_TRUE(spec.telemetry.metrics);
    EXPECT_TRUE(spec.telemetry.enabled());
    EXPECT_NO_THROW(spec.validate());

    // Paths hand-assembled without the matching mode are rejected.
    ScenarioSpec orphan = small_spec();
    orphan.telemetry.trace_out = "t.jsonl";
    EXPECT_THROW(orphan.validate(), std::invalid_argument);
    ScenarioSpec orphan_metrics = small_spec().with_telemetry_modes(true, false);
    orphan_metrics.telemetry.metrics_out = "m.csv";
    EXPECT_THROW(orphan_metrics.validate(), std::invalid_argument);

    ScenarioSpec bad_bucket = small_spec().with_telemetry_bucket_ms(0);
    EXPECT_THROW(bad_bucket.validate(), std::invalid_argument);
}

TEST(ScenarioSpecTest, TelemetryKeysSerializeAndReparse) {
    const ScenarioSpec spec = small_spec()
                                  .with_trace_out("out/t.jsonl")
                                  .with_metrics_out("out/m.csv")
                                  .with_timeline_out("out/tl.json")
                                  .with_telemetry_bucket_ms(250);
    const ScenarioSpec parsed =
        parse_scenario_text(spec.to_file_text(), "telemetry");
    EXPECT_EQ(parsed.telemetry, spec.telemetry);

    // A disabled telemetry block serializes to nothing.
    const std::string text = small_spec().to_file_text();
    EXPECT_EQ(text.find("telemetry"), std::string::npos) << text;
}

TEST(ScenarioSpecTest, MismatchedSharedPopulationsRejected) {
    ScenarioSpec spec = small_spec();
    spec.with_populations(core::generate_comparison_populations(
        spec.profile, spec.device_count, spec.runs, spec.base_seed + 1));
    EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(ScenarioSpecTest, FileTextRoundTripsDeclarativeSpecs) {
    ScenarioSpec spec = small_spec();
    spec.with_inactivity_timer_ms(20'000);
    spec.config.page_miss_prob = 0.25;
    spec.config.paging.max_page_records = 4;
    spec.with_hotspot(12, 0.8).with_assignment(
        multicell::AssignmentPolicy::class_affinity);

    const ScenarioSpec parsed =
        parse_scenario_text(spec.to_file_text(), "round-trip");
    EXPECT_EQ(parsed.name, spec.name);
    EXPECT_EQ(parsed.profile.name, spec.profile.name);
    EXPECT_EQ(parsed.device_count, spec.device_count);
    EXPECT_EQ(parsed.payload_bytes, spec.payload_bytes);
    EXPECT_EQ(parsed.runs, spec.runs);
    EXPECT_EQ(parsed.base_seed, spec.base_seed);
    EXPECT_EQ(parsed.threads, spec.threads);
    EXPECT_EQ(parsed.mechanisms, spec.mechanisms);
    EXPECT_EQ(parsed.config.inactivity_timer, spec.config.inactivity_timer);
    EXPECT_EQ(parsed.config.page_miss_prob, spec.config.page_miss_prob);
    EXPECT_EQ(parsed.config.paging.max_page_records,
              spec.config.paging.max_page_records);
    ASSERT_TRUE(parsed.is_multicell());
    EXPECT_EQ(parsed.topology->cells, 12u);
    EXPECT_EQ(parsed.topology->kind, TopologySpec::Kind::hotspot);
    EXPECT_EQ(parsed.topology->hotspot_exponent, 0.8);
    EXPECT_EQ(parsed.assignment, multicell::AssignmentPolicy::class_affinity);
}

TEST(ScenarioSpecTest, FileTextRejectsSilentlyDroppableState) {
    // Deep config structs have no file keys; serializing a spec that
    // changed them would reload a different experiment.
    ScenarioSpec deep_config = small_spec();
    deep_config.config.rach.num_preambles = 12;
    EXPECT_THROW((void)deep_config.to_file_text(), std::invalid_argument);

    // Same for per-class profile edits hiding under a builtin name.
    ScenarioSpec edited_profile = small_spec();
    edited_profile.profile.classes.front().share *= 2.0;
    EXPECT_THROW((void)edited_profile.to_file_text(), std::invalid_argument);

    // batch_mean alone is expressible and must stay serializable.
    ScenarioSpec batched = small_spec();
    batched.profile.batch_mean = 3.5;
    const ScenarioSpec parsed =
        parse_scenario_text(batched.to_file_text(), "batch");
    EXPECT_EQ(parsed.profile.batch_mean, 3.5);
}

TEST(ScenarioSpecTest, ValidationRejectsNonFiniteKnobs) {
    const double nan = std::nan("");
    ScenarioSpec spec = small_spec();
    spec.profile.batch_mean = nan;
    EXPECT_THROW(spec.validate(), std::invalid_argument);
    spec = small_spec();
    spec.config.background_ra_per_second =
        std::numeric_limits<double>::infinity();
    EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(ScenarioSpecTest, FileTextRejectsUnregisteredProfileAndStrandedCoordinator) {
    ScenarioSpec custom_profile = small_spec();
    custom_profile.profile.name = "bespoke";
    EXPECT_THROW((void)custom_profile.to_file_text(), std::invalid_argument);

    // A coordinator stranded without a grid must not silently vanish on
    // the way to a file.
    ScenarioSpec stranded = small_spec().with_stagger_ms(1'000);
    EXPECT_THROW((void)stranded.to_file_text(), std::invalid_argument);
}

TEST(ScenarioSpecTest, EveryShippedPresetSerializesAndReparses) {
    for (const std::string& name : Registry::instance().preset_names()) {
        const ScenarioSpec preset = Registry::instance().preset(name);
        const ScenarioSpec parsed =
            parse_scenario_text(preset.to_file_text(), name);
        EXPECT_EQ(parsed.device_count, preset.device_count) << name;
        EXPECT_EQ(parsed.runs, preset.runs) << name;
        EXPECT_EQ(parsed.mechanisms, preset.mechanisms) << name;
        EXPECT_EQ(parsed.is_multicell(), preset.is_multicell()) << name;
    }
}

TEST(ScenarioAdapterTest, ComparisonSetupRoundTrips) {
    // A single-cell comparison setup survives the trip through a scenario
    // file and the to_deployment_setup adapter field by field.
    ScenarioSpec spec = small_spec();
    spec.profile = traffic::meter_heavy();
    spec.with_devices(123)
        .with_payload_bytes(traffic::firmware_1mb().bytes)
        .with_runs(9)
        .with_seed(17)
        .with_threads(3)
        .with_mechanisms({core::MechanismKind::dr_si, core::MechanismKind::sc_ptm})
        .with_inactivity_timer_ms(25'000);

    const ScenarioSpec parsed = parse_scenario_text(spec.to_file_text(), "unit");
    EXPECT_FALSE(parsed.is_multicell());
    const multicell::DeploymentSetup back = to_deployment_setup(parsed);
    EXPECT_EQ(back.profile.name, spec.profile.name);
    EXPECT_EQ(back.device_count, spec.device_count);
    EXPECT_EQ(back.payload_bytes, spec.payload_bytes);
    EXPECT_EQ(back.runs, spec.runs);
    EXPECT_EQ(back.base_seed, spec.base_seed);
    EXPECT_EQ(back.threads, spec.threads);
    EXPECT_EQ(back.mechanisms, spec.mechanisms);
    EXPECT_EQ(back.config.inactivity_timer, spec.config.inactivity_timer);

    // Shared populations are not file-borne; the adapter passes them through.
    spec.with_populations(core::generate_comparison_populations(
        spec.profile, spec.device_count, spec.runs, spec.base_seed));
    EXPECT_EQ(to_deployment_setup(spec).populations.get(), spec.populations.get());
}

TEST(ScenarioAdapterTest, SingleCellSpecMapsToOneCellDeployment) {
    const multicell::DeploymentSetup setup = to_deployment_setup(small_spec());
    EXPECT_EQ(setup.topology.cell_count(), 1u);
}

}  // namespace
}  // namespace nbmg::scenario
