// The sweep engine's contract: every index runs exactly once, exceptions
// surface on the caller, and — the property the experiment layer builds
// on — aggregates are bit-identical for any thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "multicell/deployment.hpp"
#include "traffic/firmware.hpp"
#include "traffic/population.hpp"

namespace nbmg::core {
namespace {

TEST(ResolveThreadsTest, ZeroMeansHardwareAndNeverZero) {
    EXPECT_GE(resolve_threads(0), 1u);
    EXPECT_EQ(resolve_threads(1), 1u);
    EXPECT_EQ(resolve_threads(8), 8u);
}

TEST(WorkerPoolTest, RunsEveryIndexExactlyOnce) {
    for (const std::size_t threads : {1u, 2u, 8u}) {
        const WorkerPool pool(threads);
        constexpr std::size_t kCount = 137;
        std::vector<std::atomic<int>> hits(kCount);
        pool.run(kCount, [&](std::size_t i) { hits[i].fetch_add(1); });
        for (std::size_t i = 0; i < kCount; ++i) {
            EXPECT_EQ(hits[i].load(), 1) << "index " << i;
        }
    }
}

TEST(WorkerPoolTest, ZeroTasksIsANoOp) {
    const WorkerPool pool(4);
    bool called = false;
    pool.run(0, [&](std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(WorkerPoolTest, PropagatesTaskExceptions) {
    for (const std::size_t threads : {1u, 4u}) {
        const WorkerPool pool(threads);
        EXPECT_THROW(pool.run(16,
                              [](std::size_t i) {
                                  if (i == 7) throw std::runtime_error("boom");
                              }),
                     std::runtime_error);
    }
}

TEST(SweepIndexedTest, ResultsArriveInIndexOrder) {
    const std::vector<std::size_t> out =
        sweep_indexed(64, 8, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 64u);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(SweepPointsTest, ReduceSeesRunsOfOnePointInRunOrder) {
    static constexpr std::size_t kPoints = 5;
    static constexpr std::size_t kRuns = 7;
    const auto cell = [](std::size_t point, std::size_t run) {
        return point * 100 + run;
    };
    const auto points = sweep_points(
        kPoints, kRuns, 8, cell,
        [](std::size_t point, std::span<const std::size_t> runs) {
            EXPECT_EQ(runs.size(), kRuns);
            for (std::size_t r = 0; r < runs.size(); ++r) {
                EXPECT_EQ(runs[r], point * 100 + r);
            }
            return std::accumulate(runs.begin(), runs.end(), std::size_t{0});
        });
    ASSERT_EQ(points.size(), kPoints);
    for (std::size_t p = 0; p < kPoints; ++p) {
        EXPECT_EQ(points[p], p * 100 * kRuns + kRuns * (kRuns - 1) / 2);
    }
}

void expect_identical(const stats::Summary& a, const stats::Summary& b) {
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(a.mean(), b.mean());
    EXPECT_EQ(a.variance(), b.variance());
    EXPECT_EQ(a.min(), b.min());
    EXPECT_EQ(a.max(), b.max());
}

void expect_identical(const MechanismStats& a, const MechanismStats& b) {
    EXPECT_EQ(a.kind, b.kind);
    expect_identical(a.light_sleep_increase, b.light_sleep_increase);
    expect_identical(a.connected_increase, b.connected_increase);
    expect_identical(a.transmissions, b.transmissions);
    expect_identical(a.transmissions_per_device, b.transmissions_per_device);
    expect_identical(a.bytes_ratio, b.bytes_ratio);
    expect_identical(a.recovery_transmissions, b.recovery_transmissions);
    expect_identical(a.unreceived_devices, b.unreceived_devices);
    expect_identical(a.mean_connected_seconds, b.mean_connected_seconds);
    expect_identical(a.mean_light_sleep_seconds, b.mean_light_sleep_seconds);
}

TEST(SweepDeterminismTest, RunComparisonIsBitIdenticalAcrossThreadCounts) {
    // The single-cell comparison: a 1-cell deployment.
    multicell::DeploymentSetup setup;
    setup.profile = traffic::massive_iot_city();
    setup.device_count = 40;
    setup.payload_bytes = traffic::firmware_100kb().bytes;
    setup.runs = 4;
    setup.base_seed = 99;

    setup.threads = 1;
    const multicell::DeploymentResult serial = multicell::run_deployment(setup);
    for (const std::size_t threads : {2u, 8u}) {
        setup.threads = threads;
        const multicell::DeploymentResult parallel = multicell::run_deployment(setup);
        ASSERT_EQ(parallel.mechanisms.size(), serial.mechanisms.size());
        expect_identical(parallel.unicast.stats, serial.unicast.stats);
        for (std::size_t m = 0; m < serial.mechanisms.size(); ++m) {
            expect_identical(parallel.mechanisms[m].stats, serial.mechanisms[m].stats);
        }
    }
}

TEST(SweepDeterminismTest, TransmissionSweepIsBitIdenticalAcrossThreadCounts) {
    const CampaignConfig config;
    const std::vector<std::size_t> counts = {50, 80};
    const auto serial = drsc_transmission_sweep(traffic::massive_iot_city(), counts,
                                                config, 3, 42, 1);
    for (const std::size_t threads : {2u, 8u}) {
        const auto parallel = drsc_transmission_sweep(traffic::massive_iot_city(),
                                                      counts, config, 3, 42, threads);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t p = 0; p < serial.size(); ++p) {
            EXPECT_EQ(parallel[p].device_count, serial[p].device_count);
            expect_identical(parallel[p].transmissions, serial[p].transmissions);
            expect_identical(parallel[p].transmissions_per_device,
                             serial[p].transmissions_per_device);
        }
    }
}

TEST(SweepDeterminismTest, PointSweepMatchesPointByPointCalls) {
    const CampaignConfig config;
    const std::vector<std::size_t> counts = {50, 80};
    const auto swept = drsc_transmission_sweep(traffic::massive_iot_city(), counts,
                                               config, 3, 42, 8);
    for (std::size_t p = 0; p < counts.size(); ++p) {
        const auto point = drsc_transmission_point(traffic::massive_iot_city(),
                                                   counts[p], config, 3, 42, 1);
        expect_identical(swept[p].transmissions, point.transmissions);
        expect_identical(swept[p].transmissions_per_device,
                         point.transmissions_per_device);
    }
}

TEST(SweepErrorTest, EmptySetupsThrow) {
    const CampaignConfig config;
    const std::vector<std::size_t> none;
    EXPECT_THROW((void)drsc_transmission_sweep(traffic::massive_iot_city(), none,
                                               config, 3, 42),
                 std::invalid_argument);
    const std::vector<std::size_t> counts = {50};
    EXPECT_THROW((void)drsc_transmission_sweep(traffic::massive_iot_city(), counts,
                                               config, 0, 42),
                 std::invalid_argument);
}

}  // namespace
}  // namespace nbmg::core
