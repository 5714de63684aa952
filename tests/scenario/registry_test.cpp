// Registry contract: built-ins are present, duplicate registration throws,
// unknown lookups list the available names, and every shipped preset runs
// a 10-device smoke through run_scenario under CTest.
#include "scenario/registry.hpp"

#include <gtest/gtest.h>

#include <string>

#include "scenario/run.hpp"

namespace nbmg::scenario {
namespace {

TEST(RegistryTest, BuiltinMechanismsResolve) {
    Registry& registry = Registry::instance();
    EXPECT_EQ(registry.mechanism("dr-sc"), core::MechanismKind::dr_sc);
    EXPECT_EQ(registry.mechanism("da-sc"), core::MechanismKind::da_sc);
    EXPECT_EQ(registry.mechanism("dr-si"), core::MechanismKind::dr_si);
    EXPECT_EQ(registry.mechanism("unicast"), core::MechanismKind::unicast);
    EXPECT_EQ(registry.mechanism("sc-ptm"), core::MechanismKind::sc_ptm);
    EXPECT_EQ(registry.mechanism_name(core::MechanismKind::dr_sc), "dr-sc");
    EXPECT_FALSE(registry.find_mechanism("DR-SC").has_value());  // exact spelling
}

TEST(RegistryTest, BuiltinProfilesAndPresetsPresent) {
    Registry& registry = Registry::instance();
    EXPECT_TRUE(registry.has_profile("massive_iot_city"));
    EXPECT_TRUE(registry.has_profile("meter_heavy"));
    for (const char* name :
         {"fig6a", "fig6b", "fig7", "ablation-setcover", "ablation-ti",
          "ablation-drx-mix", "ablation-contention", "ablation-scptm",
          "ablation-battery", "quickstart", "firmware-campaign",
          "mechanism-tradeoffs", "citywide", "multicell-scaling"}) {
        EXPECT_TRUE(registry.has_preset(name)) << name;
        EXPECT_NO_THROW(registry.preset(name).validate()) << name;
    }
    // The presets named in the acceptance criteria keep their shapes.
    EXPECT_FALSE(registry.preset("fig6a").is_multicell());
    EXPECT_EQ(registry.preset("citywide").cell_count(), 16u);
}

TEST(RegistryTest, DuplicateRegistrationThrows) {
    Registry& registry = Registry::instance();
    EXPECT_THROW(registry.register_mechanism(
                     {"dr-sc", core::MechanismKind::dr_sc, "dup"}),
                 std::invalid_argument);
    EXPECT_THROW(registry.register_profile(traffic::massive_iot_city()),
                 std::invalid_argument);
    EXPECT_THROW(
        registry.register_preset("fig6a", "dup", ScenarioSpec{}),
        std::invalid_argument);
}

TEST(RegistryTest, UnknownLookupsListAvailableNames) {
    Registry& registry = Registry::instance();
    try {
        (void)registry.preset("figure-8");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("unknown preset 'figure-8'"), std::string::npos)
            << what;
        EXPECT_NE(what.find("fig6a"), std::string::npos) << what;
        EXPECT_NE(what.find("citywide"), std::string::npos) << what;
    }
    try {
        (void)registry.mechanism("carrier-pigeon");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& error) {
        EXPECT_NE(std::string(error.what()).find("dr-sc"), std::string::npos);
    }
}

TEST(RegistryTest, NewRegistrationsResolve) {
    Registry& registry = Registry::instance();
    const std::string name = "registry-test-preset";
    if (!registry.has_preset(name)) {
        registry.register_preset(name, "scratch",
                                 ScenarioSpec{}.with_name(name).with_devices(5));
    }
    EXPECT_EQ(registry.preset(name).device_count, 5u);
}

TEST(RegistrySmokeTest, EveryShippedPresetRunsATenDeviceSmoke) {
    for (const Registry::PresetEntry& entry : Registry::instance().presets()) {
        if (entry.name == "registry-test-preset") continue;  // scratch entry
        ScenarioSpec spec = entry.spec;
        spec.with_devices(10).with_runs(1).with_threads(1);
        SCOPED_TRACE(entry.name);
        const ScenarioResult result = run_scenario(spec);
        EXPECT_EQ(result.is_multicell(), spec.is_multicell());
        EXPECT_EQ(result.mechanism_count(), spec.mechanisms.size());
        // Delivery is mandatory: stress shows up as recovery transmissions,
        // never as lost devices.  Fault-injection presets are the exception
        // by design — a device that churns away inside its final paging
        // window has no in-horizon page left, and an outage strands devices
        // until the self-healing pass re-delivers (which zeroes unreceived
        // but stretches the completion tail).
        const bool faulted =
            spec.config.churn.enabled() || spec.cell_down.has_value();
        for (std::size_t m = 0; m < result.mechanism_count(); ++m) {
            if (!faulted) {
                EXPECT_EQ(result.mechanism_stats(m).unreceived_devices.mean(),
                          0.0);
            }
            EXPECT_GE(result.mechanism_stats(m).completion_p99_ms.mean(), 0.0);
        }
        EXPECT_GT(result.unicast_stats().transmissions.mean(), 0.0);
        // The common report surface renders for single-cell and multicell
        // presets alike.
        const stats::Table table = result.summary_table();
        EXPECT_EQ(table.rows(), spec.mechanisms.size() + 1);
        EXPECT_FALSE(result.summary_csv().empty());
    }
}

}  // namespace
}  // namespace nbmg::scenario
