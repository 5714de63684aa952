// Derived metrics: the paper's relative-uptime comparison (mechanism vs
// unicast reference) and aggregate accessors used by benches and tests —
// plus the shared report surface the scenario layer renders every
// scenario's aggregates through.
#pragma once

#include <span>

#include "core/campaign.hpp"
#include "stats/table.hpp"

namespace nbmg::core {

struct MechanismStats;  // core/experiment.hpp

/// Sum of per-device light-sleep uptime (ms).
[[nodiscard]] double total_light_sleep_ms(const CampaignResult& result) noexcept;

/// Sum of per-device connected uptime (ms).
[[nodiscard]] double total_connected_ms(const CampaignResult& result) noexcept;

/// Mean per-device uptime (ms).
[[nodiscard]] double mean_light_sleep_ms(const CampaignResult& result) noexcept;
[[nodiscard]] double mean_connected_ms(const CampaignResult& result) noexcept;

/// Fleet completion tail: the 99th-percentile device completion time
/// (nearest-rank over the population).  A device's completion is its
/// release instant after receiving the payload; a device the campaign
/// never served (stranded, off-air, unreached) counts at the observation
/// horizon, so faults push the tail instead of silently dropping out of
/// it.  Returns 0 for an empty population.
[[nodiscard]] double completion_p99_ms(const CampaignResult& result);

/// The paper's headline metric (Fig. 6): relative uptime increase of a
/// mechanism over the unicast reference, computed on the same population,
/// seed, and observation horizon.
struct RelativeUptime {
    /// Aggregate ratios: sum(mechanism)/sum(unicast) - 1.
    double light_sleep_increase = 0.0;
    double connected_increase = 0.0;
    /// Mean over devices of per-device ratios (devices with a non-zero
    /// baseline), exposing fairness across classes.
    double per_device_light_sleep_increase = 0.0;
    double per_device_connected_increase = 0.0;
};

[[nodiscard]] RelativeUptime relative_uptime(const CampaignResult& mechanism,
                                             const CampaignResult& unicast_reference);

/// Bandwidth proxy comparison (Fig. 7 and Sec. IV-B text): transmissions
/// relative to per-device unicast delivery.
struct BandwidthComparison {
    std::size_t transmissions = 0;
    double transmissions_per_device = 0.0;
    /// 1 - transmissions/devices: the "more bandwidth efficient than
    /// unicast" number from the paper's text.
    double savings_vs_unicast = 0.0;
    double bytes_on_air_ratio = 0.0;  // vs unicast bytes
};

[[nodiscard]] BandwidthComparison bandwidth_comparison(
    const CampaignResult& mechanism, const CampaignResult& unicast_reference);

/// The common report surface of scenario::ScenarioResult: one row per
/// mechanism (unicast reference first) with the paper's headline aggregates.
/// Both engines feed it — the single-cell outcome directly, the deployment
/// result through its embedded per-mechanism MechanismStats — so any
/// scenario renders to the same table/CSV shape regardless of engine; the
/// generic shell (examples/run_scenario.cpp, incl. --csv) prints it, while
/// the figure shells keep their figure-specific columns.  `mechanisms` is
/// a span of pointers because callers hold the stats inside
/// engine-specific wrappers.
[[nodiscard]] stats::Table mechanism_summary_table(
    const MechanismStats& unicast,
    std::span<const MechanismStats* const> mechanisms);

}  // namespace nbmg::core
