// Regression pins for the experiment layer: the single-cell comparison (a
// 1-cell run_deployment) and the DR-SC transmission sweep must reproduce
// the seed implementation's aggregates to the last bit.  The golden values
// below were recorded from the pre-optimization seed kernels; any drift
// means a hot-path rewrite changed observable behaviour.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "multicell/deployment.hpp"
#include "traffic/population.hpp"

namespace nbmg::core {
namespace {

using multicell::DeploymentResult;
using multicell::DeploymentSetup;
using multicell::run_deployment;

DeploymentSetup golden_setup() {
    DeploymentSetup setup;
    setup.profile = traffic::massive_iot_city();
    setup.device_count = 40;
    setup.payload_bytes = 20 * 1024;
    setup.runs = 3;
    setup.base_seed = 42;
    setup.threads = 1;
    return setup;
}

TEST(ExperimentRegressionTest, ComparisonMatchesPinnedGolden) {
    const DeploymentResult outcome = run_deployment(golden_setup());

    EXPECT_DOUBLE_EQ(outcome.unicast.stats.transmissions.mean(), 40.0);
    EXPECT_DOUBLE_EQ(outcome.unicast.stats.mean_connected_seconds.mean(),
                     6.9429999999999996);
    EXPECT_DOUBLE_EQ(outcome.unicast.stats.mean_light_sleep_seconds.mean(),
                     7.2290000000000001);

    ASSERT_EQ(outcome.mechanisms.size(), 3u);
    const MechanismStats& dr_sc = outcome.mechanisms[0].stats;
    EXPECT_EQ(dr_sc.kind, MechanismKind::dr_sc);
    EXPECT_DOUBLE_EQ(dr_sc.light_sleep_increase.mean(), 0.0);
    EXPECT_DOUBLE_EQ(dr_sc.connected_increase.mean(), 0.57560372557491968);
    EXPECT_DOUBLE_EQ(dr_sc.transmissions.mean(), 20.666666666666668);
    EXPECT_DOUBLE_EQ(dr_sc.bytes_ratio.mean(), 0.52180354267310791);
    EXPECT_DOUBLE_EQ(dr_sc.recovery_transmissions.mean(), 0.0);
    EXPECT_DOUBLE_EQ(dr_sc.unreceived_devices.mean(), 0.0);

    const MechanismStats& da_sc = outcome.mechanisms[1].stats;
    EXPECT_EQ(da_sc.kind, MechanismKind::da_sc);
    EXPECT_DOUBLE_EQ(da_sc.light_sleep_increase.mean(), 1.8914472369133142);
    EXPECT_DOUBLE_EQ(da_sc.connected_increase.mean(), 1.1269095971962166);
    EXPECT_DOUBLE_EQ(da_sc.transmissions.mean(), 1.0);
    EXPECT_DOUBLE_EQ(da_sc.bytes_ratio.mean(), 0.040175523349436387);

    const MechanismStats& dr_si = outcome.mechanisms[2].stats;
    EXPECT_EQ(dr_si.kind, MechanismKind::dr_si);
    EXPECT_DOUBLE_EQ(dr_si.light_sleep_increase.mean(), 0.0064479289371293103);
    EXPECT_DOUBLE_EQ(dr_si.connected_increase.mean(), 0.99505497143405841);
    EXPECT_DOUBLE_EQ(dr_si.transmissions.mean(), 1.0);
    EXPECT_DOUBLE_EQ(dr_si.bytes_ratio.mean(), 0.035542673107890499);
}

TEST(ExperimentRegressionTest, SharedPopulationsAreBitIdentical) {
    const DeploymentResult fresh = run_deployment(golden_setup());

    DeploymentSetup shared = golden_setup();
    shared.populations = generate_comparison_populations(
        shared.profile, shared.device_count, shared.runs, shared.base_seed);
    const DeploymentResult cached = run_deployment(shared);

    EXPECT_DOUBLE_EQ(cached.unicast.stats.transmissions.mean(),
                     fresh.unicast.stats.transmissions.mean());
    EXPECT_DOUBLE_EQ(cached.unicast.stats.mean_connected_seconds.mean(),
                     fresh.unicast.stats.mean_connected_seconds.mean());
    ASSERT_EQ(cached.mechanisms.size(), fresh.mechanisms.size());
    for (std::size_t m = 0; m < fresh.mechanisms.size(); ++m) {
        const MechanismStats& c = cached.mechanisms[m].stats;
        const MechanismStats& f = fresh.mechanisms[m].stats;
        EXPECT_DOUBLE_EQ(c.light_sleep_increase.mean(), f.light_sleep_increase.mean());
        EXPECT_DOUBLE_EQ(c.connected_increase.mean(), f.connected_increase.mean());
        EXPECT_DOUBLE_EQ(c.transmissions.mean(), f.transmissions.mean());
        EXPECT_DOUBLE_EQ(c.bytes_ratio.mean(), f.bytes_ratio.mean());
    }
}

TEST(ExperimentRegressionTest, SharedPopulationsValidated) {
    DeploymentSetup setup = golden_setup();
    // Too few runs.
    setup.populations = generate_comparison_populations(
        setup.profile, setup.device_count, setup.runs - 1, setup.base_seed);
    EXPECT_THROW((void)run_deployment(setup), std::invalid_argument);

    // Wrong device count.
    setup.populations = generate_comparison_populations(
        setup.profile, setup.device_count + 1, setup.runs, setup.base_seed);
    EXPECT_THROW((void)run_deployment(setup), std::invalid_argument);

    // Wrong seed: sizes all match, provenance must still be rejected.
    setup.populations = generate_comparison_populations(
        setup.profile, setup.device_count, setup.runs, setup.base_seed + 1);
    EXPECT_THROW((void)run_deployment(setup), std::invalid_argument);

    // Wrong profile.
    traffic::PopulationProfile other = setup.profile;
    other.name = "other-profile";
    setup.populations = generate_comparison_populations(
        other, setup.device_count, setup.runs, setup.base_seed);
    EXPECT_THROW((void)run_deployment(setup), std::invalid_argument);
}

TEST(ExperimentRegressionTest, DrscTransmissionPointMatchesPinnedGolden) {
    const CampaignConfig config;
    const TransmissionSweepPoint point = drsc_transmission_point(
        traffic::massive_iot_city(), 120, config, 4, 42, 1);
    EXPECT_DOUBLE_EQ(point.transmissions.mean(), 65.75);
    EXPECT_DOUBLE_EQ(point.transmissions_per_device.mean(), 0.54791666666666672);
}

}  // namespace
}  // namespace nbmg::core
