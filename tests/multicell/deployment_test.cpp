// Determinism contracts of the multicell deployment layer:
//  - a 1-cell deployment's fleet-wide and per-cell views coincide,
//  - results are invariant under the worker-thread count,
//  - shared populations are validated and bit-identical to regeneration.
#include "multicell/deployment.hpp"

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "traffic/population.hpp"

namespace nbmg::multicell {
namespace {

DeploymentSetup small_setup() {
    DeploymentSetup setup;
    setup.profile = traffic::massive_iot_city();
    setup.device_count = 60;
    setup.payload_bytes = 20 * 1024;
    setup.runs = 3;
    setup.base_seed = 42;
    setup.threads = 1;
    return setup;
}

void expect_summaries_equal(const stats::Summary& a, const stats::Summary& b,
                            const char* what) {
    EXPECT_EQ(a.count(), b.count()) << what;
    EXPECT_DOUBLE_EQ(a.mean(), b.mean()) << what;
    EXPECT_DOUBLE_EQ(a.min(), b.min()) << what;
    EXPECT_DOUBLE_EQ(a.max(), b.max()) << what;
    EXPECT_DOUBLE_EQ(a.variance(), b.variance()) << what;
}

void expect_stats_equal(const core::MechanismStats& a, const core::MechanismStats& b) {
    EXPECT_EQ(a.kind, b.kind);
    expect_summaries_equal(a.light_sleep_increase, b.light_sleep_increase,
                           "light_sleep_increase");
    expect_summaries_equal(a.connected_increase, b.connected_increase,
                           "connected_increase");
    expect_summaries_equal(a.transmissions, b.transmissions, "transmissions");
    expect_summaries_equal(a.transmissions_per_device, b.transmissions_per_device,
                           "transmissions_per_device");
    expect_summaries_equal(a.bytes_ratio, b.bytes_ratio, "bytes_ratio");
    expect_summaries_equal(a.recovery_transmissions, b.recovery_transmissions,
                           "recovery_transmissions");
    expect_summaries_equal(a.unreceived_devices, b.unreceived_devices,
                           "unreceived_devices");
    expect_summaries_equal(a.mean_connected_seconds, b.mean_connected_seconds,
                           "mean_connected_seconds");
    expect_summaries_equal(a.mean_light_sleep_seconds, b.mean_light_sleep_seconds,
                           "mean_light_sleep_seconds");
}

TEST(DeploymentTest, OneCellFleetAndCellViewsCoincide) {
    // A 1-cell deployment is the single-cell experiment: the whole fleet
    // camps on cell 0 every run, and the fleet-wide and per-cell views are
    // the same numbers.  (Its aggregates themselves are pinned bit for bit
    // by tests/scenario/scenario_golden_test.cpp.)
    const DeploymentSetup setup = small_setup();
    const DeploymentResult actual = run_deployment(setup);

    ASSERT_EQ(actual.cell_count(), 1u);
    expect_stats_equal(actual.cells[0].unicast.stats, actual.unicast.stats);
    ASSERT_EQ(actual.mechanisms.size(), setup.mechanisms.size());
    ASSERT_EQ(actual.cells[0].mechanisms.size(), setup.mechanisms.size());
    for (std::size_t m = 0; m < setup.mechanisms.size(); ++m) {
        EXPECT_EQ(actual.mechanisms[m].stats.kind, setup.mechanisms[m]);
        expect_stats_equal(actual.cells[0].mechanisms[m].stats,
                           actual.mechanisms[m].stats);
    }
    EXPECT_EQ(actual.unicast.stats.transmissions.count(), setup.runs);
    EXPECT_EQ(actual.empty_cell_runs, 0u);
    EXPECT_DOUBLE_EQ(actual.cell_load.mean(),
                     static_cast<double>(setup.device_count));
}

TEST(DeploymentTest, CellSeedRootDegeneratesToBaseSeed) {
    EXPECT_EQ(cell_seed_root(42, 1, 0), 42u);
    EXPECT_NE(cell_seed_root(42, 2, 0), 42u);
    EXPECT_NE(cell_seed_root(42, 2, 0), cell_seed_root(42, 2, 1));
}

TEST(DeploymentTest, ThreadCountInvarianceAtFourCells) {
    DeploymentSetup setup = small_setup();
    setup.device_count = 120;
    setup.topology = CellTopology::uniform(4);
    setup.assignment = AssignmentPolicy::uniform_hash;

    setup.threads = 1;
    const DeploymentResult serial = run_deployment(setup);
    setup.threads = 4;
    const DeploymentResult threaded = run_deployment(setup);

    expect_stats_equal(serial.unicast.stats, threaded.unicast.stats);
    ASSERT_EQ(serial.mechanisms.size(), threaded.mechanisms.size());
    for (std::size_t m = 0; m < serial.mechanisms.size(); ++m) {
        expect_stats_equal(serial.mechanisms[m].stats, threaded.mechanisms[m].stats);
        expect_summaries_equal(serial.mechanisms[m].bytes_on_air,
                               threaded.mechanisms[m].bytes_on_air, "bytes_on_air");
        expect_summaries_equal(serial.mechanisms[m].rach_collision_rate,
                               threaded.mechanisms[m].rach_collision_rate,
                               "rach_collision_rate");
    }
    ASSERT_EQ(serial.cell_count(), threaded.cell_count());
    for (std::size_t c = 0; c < serial.cell_count(); ++c) {
        expect_summaries_equal(serial.cells[c].devices, threaded.cells[c].devices,
                               "cell devices");
        expect_stats_equal(serial.cells[c].unicast.stats,
                           threaded.cells[c].unicast.stats);
        for (std::size_t m = 0; m < serial.mechanisms.size(); ++m) {
            expect_stats_equal(serial.cells[c].mechanisms[m].stats,
                               threaded.cells[c].mechanisms[m].stats);
        }
    }
    expect_summaries_equal(serial.cell_load, threaded.cell_load, "cell_load");
    EXPECT_EQ(serial.empty_cell_runs, threaded.empty_cell_runs);
}

TEST(DeploymentTest, SharedPopulationsBitIdenticalToRegeneration) {
    DeploymentSetup setup = small_setup();
    setup.topology = CellTopology::uniform(3);
    const DeploymentResult fresh = run_deployment(setup);

    setup.populations = core::generate_comparison_populations(
        setup.profile, setup.device_count, setup.runs, setup.base_seed);
    const DeploymentResult cached = run_deployment(setup);

    expect_stats_equal(fresh.unicast.stats, cached.unicast.stats);
    for (std::size_t m = 0; m < fresh.mechanisms.size(); ++m) {
        expect_stats_equal(fresh.mechanisms[m].stats, cached.mechanisms[m].stats);
    }
}

TEST(DeploymentTest, CellLoadAccountsEveryDevice) {
    DeploymentSetup setup = small_setup();
    setup.device_count = 90;
    setup.topology = CellTopology::hotspot(5, 1.0);
    setup.assignment = AssignmentPolicy::hotspot;
    const DeploymentResult result = run_deployment(setup);
    // cell_load has one sample per (run, cell); the per-run samples sum to
    // the fleet size, so the overall mean is fleet / cells.
    EXPECT_EQ(result.cell_load.count(),
              static_cast<std::uint64_t>(setup.runs * 5));
    EXPECT_DOUBLE_EQ(result.cell_load.mean() * 5.0,
                     static_cast<double>(setup.device_count));
}

TEST(DeploymentTest, ManyCellsFewDevicesSkipsEmptyCells) {
    DeploymentSetup setup = small_setup();
    setup.device_count = 8;
    setup.runs = 2;
    setup.topology = CellTopology::uniform(32);
    const DeploymentResult result = run_deployment(setup);
    EXPECT_GT(result.empty_cell_runs, 0u);
    // Fleet-wide samples still exist for every run.
    EXPECT_EQ(result.unicast.stats.transmissions.count(),
              static_cast<std::uint64_t>(setup.runs));
}

TEST(DeploymentTest, PagingCapacityOverrideApplies) {
    DeploymentSetup setup = small_setup();
    setup.device_count = 150;
    setup.runs = 2;
    setup.topology = CellTopology::uniform(2);
    // Choke cell 1's paging channel: page records per PO drops to 1, so the
    // same camped population needs more paging messages there.
    setup.topology.cells[1].max_page_records_override = 1;
    const DeploymentResult choked = run_deployment(setup);

    DeploymentSetup plain = setup;
    plain.topology.cells[1].max_page_records_override = 0;
    const DeploymentResult baseline = run_deployment(plain);

    // The choked cell's aggregates must differ from the unconstrained run —
    // DA-SC is the sensitive mechanism (its DRX-reconfiguration pages slip
    // when occasions fill up); cell 0 is untouched.
    expect_stats_equal(choked.cells[0].unicast.stats,
                       baseline.cells[0].unicast.stats);
    expect_stats_equal(choked.cells[0].mechanisms[1].stats,
                       baseline.cells[0].mechanisms[1].stats);
    EXPECT_NE(choked.cells[1].mechanisms[1].stats.mean_connected_seconds.mean(),
              baseline.cells[1].mechanisms[1].stats.mean_connected_seconds.mean());
}

TEST(DeploymentTest, InvalidSetupsThrow) {
    DeploymentSetup setup = small_setup();
    setup.runs = 0;
    EXPECT_THROW((void)run_deployment(setup), std::invalid_argument);

    setup = small_setup();
    setup.device_count = 0;
    EXPECT_THROW((void)run_deployment(setup), std::invalid_argument);

    setup = small_setup();
    setup.topology.cells.clear();
    EXPECT_THROW((void)run_deployment(setup), std::invalid_argument);

    // Shared populations with the wrong provenance.
    setup = small_setup();
    setup.populations = core::generate_comparison_populations(
        setup.profile, setup.device_count, setup.runs, setup.base_seed + 1);
    EXPECT_THROW((void)run_deployment(setup), std::invalid_argument);

    setup = small_setup();
    setup.populations = core::generate_comparison_populations(
        setup.profile, setup.device_count, setup.runs - 1, setup.base_seed);
    EXPECT_THROW((void)run_deployment(setup), std::invalid_argument);

    // class_affinity requires class indices alongside the shared specs.
    setup = small_setup();
    setup.assignment = AssignmentPolicy::class_affinity;
    auto stripped = std::make_shared<core::ComparisonPopulations>(
        *core::generate_comparison_populations(setup.profile, setup.device_count,
                                               setup.runs, setup.base_seed));
    stripped->class_indices.clear();
    setup.populations = stripped;
    EXPECT_THROW((void)run_deployment(setup), std::invalid_argument);
}

}  // namespace
}  // namespace nbmg::multicell
