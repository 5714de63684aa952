// Golden pins of the scenario API.
//
// Single-cell scenarios run as 1-cell deployments.  Their aggregates are
// pinned as raw Summary::state() bit patterns (count, mean, m2, min, max of
// every MechanismStats field, unicast first, then spec.mechanisms order),
// recorded from the retired single-cell engine before it was deleted, at
// --threads 1 and --threads 8.  The telemetry artifacts of the `smoke`
// preset are pinned as FNV-1a digests recorded the same way.  Any drift in
// RNG stream derivation, reduction order or sample formulas fails loudly.
//
// Multicell scenarios are pinned against multicell::run_deployment called
// directly on the setups the pre-redesign binaries hand-assembled.
//
// The runtime pins use scaled-down runs/devices; full-scale equivalence is
// pinned structurally by FullScaleSetupsMatchFieldForField, which asserts
// the adapter output equals the old binaries' setups field for field.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "multicell/deployment.hpp"
#include "scenario/registry.hpp"
#include "scenario/run.hpp"
#include "tests/support/deployment_equal.hpp"
#include "traffic/firmware.hpp"

namespace nbmg::scenario {
namespace {

using test_support::expect_deployment_results_equal;

/// Summary::state() of one field, doubles as IEEE-754 bit patterns.
struct StateBits {
    std::uint64_t count;
    std::uint64_t mean;
    std::uint64_t m2;
    std::uint64_t min;
    std::uint64_t max;
};

constexpr std::size_t kFieldCount = 12;
/// The twelve MechanismStats summaries of one campaign, declaration order.
using CampaignBits = std::array<StateBits, kFieldCount>;

struct Field {
    stats::Summary core::MechanismStats::*member;
    const char* name;
};
constexpr std::array<Field, kFieldCount> kFields = {{
    {&core::MechanismStats::light_sleep_increase, "light_sleep_increase"},
    {&core::MechanismStats::connected_increase, "connected_increase"},
    {&core::MechanismStats::transmissions, "transmissions"},
    {&core::MechanismStats::transmissions_per_device, "transmissions_per_device"},
    {&core::MechanismStats::bytes_ratio, "bytes_ratio"},
    {&core::MechanismStats::recovery_transmissions, "recovery_transmissions"},
    {&core::MechanismStats::unreceived_devices, "unreceived_devices"},
    {&core::MechanismStats::mean_connected_seconds, "mean_connected_seconds"},
    {&core::MechanismStats::mean_light_sleep_seconds, "mean_light_sleep_seconds"},
    {&core::MechanismStats::completion_p99_ms, "completion_p99_ms"},
    {&core::MechanismStats::redelivery_bytes, "redelivery_bytes"},
    {&core::MechanismStats::stranded_devices, "stranded_devices"},
}};

void expect_campaign_bits(const core::MechanismStats& stats,
                          const CampaignBits& golden, const std::string& label) {
    for (std::size_t f = 0; f < kFieldCount; ++f) {
        const stats::Summary::State state = (stats.*kFields[f].member).state();
        const StateBits& want = golden[f];
        const std::string where = label + " " + kFields[f].name;
        EXPECT_EQ(state.count, want.count) << where;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(state.mean), want.mean) << where;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(state.m2), want.m2) << where;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(state.min), want.min) << where;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(state.max), want.max) << where;
    }
}

/// Runs `spec` at --threads 1 and 8 and checks both against `golden`
/// (golden[0] = unicast, golden[m + 1] = spec.mechanisms[m]).
template <typename MakeSpec>
void expect_golden(MakeSpec make_spec, const std::vector<CampaignBits>& golden) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        const ScenarioSpec spec = make_spec().with_threads(threads);
        const ScenarioResult result = run_scenario(spec);
        const std::string at = spec.name + " threads=" + std::to_string(threads);
        ASSERT_FALSE(result.is_multicell()) << at;
        ASSERT_EQ(result.mechanism_count() + 1, golden.size()) << at;
        expect_campaign_bits(result.unicast_stats(), golden[0], at + " unicast");
        for (std::size_t m = 0; m < result.mechanism_count(); ++m) {
            EXPECT_EQ(result.mechanism_stats(m).kind, spec.mechanisms[m]) << at;
            expect_campaign_bits(result.mechanism_stats(m), golden[m + 1],
                                 at + " mechanism " + std::to_string(m));
        }
    }
}

// clang-format off
const std::vector<CampaignBits> kFig6aGolden = {
    {{
        {0, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
        {0, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
        {4, 0x404e000000000000, 0x0000000000000000, 0x404e000000000000, 0x404e000000000000},
        {4, 0x3ff0000000000000, 0x0000000000000000, 0x3ff0000000000000, 0x3ff0000000000000},
        {4, 0x3ff0000000000000, 0x0000000000000000, 0x3ff0000000000000, 0x3ff0000000000000},
        {4, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
        {4, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
        {4, 0x40407c94008bcf64, 0x3ef58ca59a161a10, 0x40407c49ba5e353f, 0x40407cde46b9698a},
        {4, 0x40120d916872b021, 0x4041ae5da9c99286, 0x3feb9fbe76c8b439, 0x402139ba5e353f7d},
        {4, 0x4163778860000000, 0x42632fbc64fffffd, 0x4162215860000000, 0x4164041460000000},
        {4, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
        {4, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
    }},
    {{
        {4, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
        {4, 0x3fbad30bc0079ad4, 0x3f5e01718c4996d6, 0x3fb54f455915c880, 0x3fc18ab1219b82a8},
        {4, 0x4040600000000000, 0x404e600000000000, 0x403d000000000000, 0x4043000000000000},
        {4, 0x3fe1777777777778, 0x3f9147ae147ae148, 0x3fdeeeeeeeeeeeef, 0x3fe4444444444444},
        {4, 0x3fe17f715f82ef74, 0x3f9134bbab366a9b, 0x3fdf0114bd208373, 0x3fe44ab4c73d15df},
        {4, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
        {4, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
        {4, 0x404236d3e654ec7a, 0x40000818bb75d8c1, 0x4041db9698a4eea9, 0x4042bf513cc1e099},
        {4, 0x40120d916872b021, 0x4041ae5da9c99286, 0x3feb9fbe76c8b439, 0x402139ba5e353f7d},
        {4, 0x41736a6bf8000000, 0x42769f0af23daffa, 0x41729e5e50000000, 0x4174029630000000},
        {4, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
        {4, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
    }},
    {{
        {4, 0x3ff78057513894fa, 0x400b0e909dac7e2f, 0x3fe143399ed69e78, 0x4005ca9226cc9299},
        {4, 0x3fcd8516297fc836, 0x3f1fbb17e8703210, 0x3fcc78619db86618, 0x3fce6ddd127f35c0},
        {4, 0x3ff0000000000000, 0x0000000000000000, 0x3ff0000000000000, 0x3ff0000000000000},
        {4, 0x3f91111111111111, 0x0000000000000000, 0x3f91111111111111, 0x3f91111111111111},
        {4, 0x3f943a4b1e062f74, 0x3e349151ee4be292, 0x3f942ad6b07dd202, 0x3f9441d448daa930},
        {4, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
        {4, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
        {4, 0x404449f212d77318, 0x3fc12770eb88dd80, 0x404426faf2c19ab1, 0x404468492e8ed059},
        {4, 0x4021314d242e6bdd, 0x404e019b22c1fba3, 0x4009b7a32846ff51, 0x402c3aec33e1f672},
        {4, 0x4174087910000000, 0x0000000000000000, 0x4174087910000000, 0x4174087910000000},
        {4, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
        {4, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
    }},
    {{
        {4, 0x3f6c827378d40880, 0x3f0620d1d6432f95, 0x3f4ae2c2b804b800, 0x3f8258c73e9b8080},
        {4, 0x3fca21263a785576, 0x3f35ef7fa6992747, 0x3fc827b10d350de0, 0x3fcb2d670d94c7b8},
        {4, 0x3ff0000000000000, 0x0000000000000000, 0x3ff0000000000000, 0x3ff0000000000000},
        {4, 0x3f91111111111111, 0x0000000000000000, 0x3f91111111111111, 0x3f91111111111111},
        {4, 0x3f93435090f538f5, 0x3d9f8df7fc7078f6, 0x3f9342b7fa0b77a5, 0x3f934391f634d4f3},
        {4, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
        {4, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
        {4, 0x4043da27983c131d, 0x3fd797e2989f56bc, 0x404398b439581062, 0x4043fd0e56041893},
        {4, 0x4012154839e3dfc8, 0x4041adba868fd660, 0x3febdf187080e331, 0x40213d589c31b2b9},
        {4, 0x4174087190000000, 0x0000000000000000, 0x4174087190000000, 0x4174087190000000},
        {4, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
        {4, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
    }},
};

const std::vector<CampaignBits> kFig6bGolden = {
    {{
        {0, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
        {0, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
        {3, 0x4049000000000000, 0x0000000000000000, 0x4049000000000000, 0x4049000000000000},
        {3, 0x3ff0000000000000, 0x0000000000000000, 0x3ff0000000000000, 0x3ff0000000000000},
        {3, 0x3ff0000000000000, 0x0000000000000000, 0x3ff0000000000000, 0x3ff0000000000000},
        {3, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
        {3, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
        {3, 0x4074d896c993eb93, 0x3ef4affb234735f5, 0x4074d88f5c28f5c3, 0x4074d8a5a469d734},
        {3, 0x401796872b020c4a, 0x4049214ba976b163, 0x3fd7e90ff9724746, 0x40245119ce075f70},
        {3, 0x4162e71835555555, 0x4270ace464aaaaaa, 0x416191a2e0000000, 0x41646f8ae0000000},
        {3, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
        {3, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
    }},
    {{
        {3, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
        {3, 0x3f86e45d87c06100, 0x3ef8d37357687535, 0x3f7e98872eec0c00, 0x3f8d37fbb0d97600},
        {3, 0x403b555555555555, 0x40512aaaaaaaaaab, 0x4037000000000000, 0x4041000000000000},
        {3, 0x3fe17e4b17e4b17f, 0x3f9c2038cc40fd6e, 0x3fdd70a3d70a3d71, 0x3fe5c28f5c28f5c3},
        {3, 0x3fe17f1284a61193, 0x3f9c1d3394733a26, 0x3fdd727ef0b8cf83, 0x3fe5c31c21662a86},
        {3, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
        {3, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
        {3, 0x4075143d7e9efabb, 0x4005296e434e460c, 0x4075006c226809d5, 0x407524c8de2ac322},
        {3, 0x401796872b020c4a, 0x4049214ba976b163, 0x3fd7e90ff9724746, 0x40245119ce075f70},
        {3, 0x417381147aaaaaab, 0x426e2b0efb695555, 0x4172e7bf90000000, 0x417440e510000000},
        {3, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
        {3, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
    }},
    {{
        {3, 0x4007926321d648e8, 0x40421ecfacde68da, 0x3fdce1bd9689fcd0, 0x401f724ba619375e},
        {3, 0x3f97a39a130477d5, 0x3e9249f35f673b88, 0x3f9767509f7613c0, 0x3f981338268a0480},
        {3, 0x3ff0000000000000, 0x0000000000000000, 0x3ff0000000000000, 0x3ff0000000000000},
        {3, 0x3f947ae147ae147b, 0x0000000000000000, 0x3f947ae147ae147b, 0x3f947ae147ae147b},
        {3, 0x3f94ca05fd37e3b0, 0x3dd4fae0fc849f09, 0x3f94c8394929c2a6, 0x3f94cb5cf50984d2},
        {3, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
        {3, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
        {3, 0x407553c8c9320d99, 0x3f9e525c8b749dc7, 0x407552870110a138, 0x40755606e19b90ea},
        {3, 0x402378c384071989, 0x4052c12ff99f0485, 0x400a7c504816f006, 0x402f03afb7e90ffa},
        {3, 0x417451da50000000, 0x0000000000000000, 0x417451da50000000, 0x417451da50000000},
        {3, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
        {3, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
    }},
    {{
        {3, 0x3f7fa5ac754a46aa, 0x3f326b9129846699, 0x3f46b57e894d5800, 0x3f95ed5ca47436c0},
        {3, 0x3f951bef6559a86b, 0x3e7482f0c15fed4a, 0x3f94f6d349728e00, 0x3f955665cc5a3f40},
        {3, 0x3ff0000000000000, 0x0000000000000000, 0x3ff0000000000000, 0x3ff0000000000000},
        {3, 0x3f947ae147ae147b, 0x0000000000000000, 0x3f947ae147ae147b, 0x3f947ae147ae147b},
        {3, 0x3f94b1b714d7db6f, 0x3d3e92154a6f5ff2, 0x3f94b1a604b1686e, 0x3f94b1c4bb5d043c},
        {3, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
        {3, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
        {3, 0x4075469976a5c061, 0x3f80d548aaa2117c, 0x407545d07c84b5dd, 0x407547c28f5c28f6},
        {3, 0x40179e4878ce0062, 0x404920251b829f05, 0x3fd86c226809d496, 0x402454b48d3ae686},
        {3, 0x417451d2d0000000, 0x0000000000000000, 0x417451d2d0000000, 0x417451d2d0000000},
        {3, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
        {3, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
    }},
};

const std::vector<CampaignBits> kFig7Golden = {
    {{
        {0, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
        {0, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
        {3, 0x4054000000000000, 0x0000000000000000, 0x4054000000000000, 0x4054000000000000},
        {3, 0x3ff0000000000000, 0x0000000000000000, 0x3ff0000000000000, 0x3ff0000000000000},
        {3, 0x3ff0000000000000, 0x0000000000000000, 0x3ff0000000000000, 0x3ff0000000000000},
        {3, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
        {3, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
        {3, 0x40407c94008bcf65, 0x3ee0297c3390b8af, 0x40407c49ba5e353f, 0x40407cb923a29c78},
        {3, 0x400f54395810624e, 0x40307d94fcc5b8dc, 0x3fea2353f7ced917, 0x4019f1ba5e353f7d},
        {3, 0x4163ea8f0aaaaaab, 0x41d8762caaaaaaab, 0x4163dcc860000000, 0x4163f8c060000000},
        {3, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
        {3, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
    }},
    {{
        {3, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
        {3, 0x3fbcecea8dcd6755, 0x3f4c08e571467786, 0x3fb78cf3430089f0, 0x3fc11173db945408},
        {3, 0x4046800000000000, 0x4040000000000000, 0x4044800000000000, 0x4048800000000000},
        {3, 0x3fe2000000000000, 0x3f747ae147ae1485, 0x3fe0666666666666, 0x3fe399999999999a},
        {3, 0x3fe207aef95d3fe9, 0x3f74646ca4fe1f79, 0x3fe06ef62bce4e88, 0x3fe3a067c6ec314b},
        {3, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
        {3, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
        {3, 0x40425976eba81291, 0x3fedeed00e2e2471, 0x40420087fcb923a3, 0x4042af89374bc6a8},
        {3, 0x400f54395810624e, 0x40307d94fcc5b8dc, 0x3fea2353f7ced917, 0x4019f1ba5e353f7d},
        {3, 0x4173aa1d70000000, 0x42611f8f736d0000, 0x4173113790000000, 0x4173f783d0000000},
        {3, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
        {3, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
    }},
};

const std::vector<CampaignBits> kChurnGolden = {
    {{
        {0, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
        {0, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
        {3, 0x4054000000000000, 0x0000000000000000, 0x4054000000000000, 0x4054000000000000},
        {3, 0x3ff0000000000000, 0x0000000000000000, 0x3ff0000000000000, 0x3ff0000000000000},
        {3, 0x3ff0000000000000, 0x0000000000000000, 0x3ff0000000000000, 0x3ff0000000000000},
        {3, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
        {3, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
        {3, 0x4042f0816f0068dc, 0x3fa9b73911c477ef, 0x4042d91b71758e22, 0x4042fd1eb851eb85},
        {3, 0x400d88b439581062, 0x402d73aefa615a8d, 0x3fe883126e978d50, 0x401880b439581062},
        {3, 0x4171b47830000000, 0x42a2224ad6500000, 0x416f5f4460000000, 0x4173edf630000000},
        {3, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
        {3, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
    }},
    {{
        {3, 0x3fa56ce81321adab, 0x3ec3bfd02194e2b2, 0x3fa4cbde38e4be80, 0x3fa5d93b7cfdfea0},
        {3, 0x4061d7c31703d19e, 0x406487070b18ddb1, 0x4060f5ccb248b2ee, 0x40631eb866a0ba22},
        {3, 0x4047d55555555555, 0x404a555555555555, 0x4045000000000000, 0x404a000000000000},
        {3, 0x3fe3111111111112, 0x3f80da740da740e0, 0x3fe0cccccccccccd, 0x3fe4cccccccccccd},
        {3, 0x3fe33533edcf0a89, 0x3f802d20f693dfef, 0x3fe0fb73024dca48, 0x3fe4e4f08f77899d},
        {3, 0x4005555555555555, 0x4012aaaaaaaaaaab, 0x3ff0000000000000, 0x4010000000000000},
        {3, 0x3ff0000000000000, 0x4000000000000000, 0x0000000000000000, 0x4000000000000000},
        {3, 0x40b54525a66f235d, 0x410e51c5ab0977e1, 0x40b444db6e2eb1c5, 0x40b6d7042a9930be},
        {3, 0x400ec189374bc6a8, 0x402fe34b9f127f60, 0x3fe98ed916872b02, 0x40197f7ced916873},
        {3, 0x4173bc897aaaaaab, 0x42657f39d2305555, 0x4173113790000000, 0x4174123270000000},
        {3, 0x4110aaaaaaaaaaab, 0x4226c95555555555, 0x40f9000000000000, 0x4119000000000000},
        {3, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
    }},
    {{
        {3, 0x3fc0b950966661a8, 0x3f52d54823ef769d, 0x3fbb497cbd2dae30, 0x3fc3c7da91b679a8},
        {3, 0x40759f515679f953, 0x4084f411fb4dc55f, 0x40746a40a34eeca8, 0x4076b0f28fe0bbcb},
        {3, 0x4002aaaaaaaaaaab, 0x4025555555555555, 0x3ff0000000000000, 0x4014000000000000},
        {3, 0x3f9dddddddddddde, 0x3f5b4e81b4e81b4f, 0x3f8999999999999a, 0x3fb0000000000000},
        {3, 0x3fa44c8cdf16d655, 0x3f5bdc702438e475, 0x3f9709c79abf6366, 0x3fb2c4bee3d3566f},
        {3, 0x3ff5555555555556, 0x4025555555555555, 0x0000000000000000, 0x4010000000000000},
        {3, 0x4028000000000000, 0x402c000000000000, 0x4022000000000000, 0x402c000000000000},
        {3, 0x40c9aa6f2ed4b80c, 0x4129ddb8fa1ff9ca, 0x40c84b25703afb7f, 0x40cacdd0c28f5c29},
        {3, 0x40108676c8b43958, 0x4031e91112556d19, 0x3fec4ccccccccccd, 0x401b1d4fdf3b645a},
        {3, 0x4174123270000000, 0x0000000000000000, 0x4174123270000000, 0x4174123270000000},
        {3, 0x4100aaaaaaaaaaaa, 0x423a0aaaaaaaaaab, 0x0000000000000000, 0x4119000000000000},
        {3, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
    }},
    {{
        {3, 0x3fb2e98c1f056545, 0x3f513be8caf989ee, 0x3fad78e34e81a2a0, 0x3fb9a004471e5880},
        {3, 0x4077be3464f870a2, 0x405209a25eed9bc3, 0x40774faee82a8daa, 0x4077fe11bef5e553},
        {3, 0x3ff0000000000000, 0x0000000000000000, 0x3ff0000000000000, 0x3ff0000000000000},
        {3, 0x3f8999999999999a, 0x0000000000000000, 0x3f8999999999999a, 0x3f8999999999999a},
        {3, 0x3f962e74c4fe6374, 0x3ea871c41788249f, 0x3f95bc70aca41e27, 0x3f96e314f0c9eb0d},
        {3, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
        {3, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
        {3, 0x40cc2da4e3bcd35b, 0x40f3e504aed7e097, 0x40cbbabe1b089a02, 0x40cc77f486594af5},
        {3, 0x400f6474538ef34d, 0x40304c0352eb5f5f, 0x3feaf7318fc50481, 0x4019e9c779a6b50b},
        {3, 0x4174087190000000, 0x0000000000000000, 0x4174087190000000, 0x4174087190000000},
        {3, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
        {3, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
    }},
};
// clang-format on

TEST(ScenarioGoldenTest, Fig6aStateBitsMatchPinnedGolden) {
    expect_golden(
        [] {
            return Registry::instance().preset("fig6a").with_devices(60).with_runs(4);
        },
        kFig6aGolden);
}

TEST(ScenarioGoldenTest, Fig6bPayloadPointWithSharedPopulationsMatchesPinnedGolden) {
    // The fig6b shell shares populations across the payload sweep; pin the
    // 1 MB point on a shared handle.
    expect_golden(
        [] {
            ScenarioSpec spec = Registry::instance().preset("fig6b");
            spec.with_devices(50).with_runs(3);
            spec.with_populations(core::generate_comparison_populations(
                spec.profile, spec.device_count, spec.runs, spec.base_seed));
            spec.with_payload_bytes(traffic::firmware_1mb().bytes);
            return spec;
        },
        kFig6bGolden);
}

TEST(ScenarioGoldenTest, Fig7DrScStateBitsMatchPinnedGolden) {
    expect_golden(
        [] {
            return Registry::instance().preset("fig7").with_devices(80).with_runs(3);
        },
        kFig7Golden);
}

TEST(ScenarioGoldenTest, ChurnStateBitsMatchPinnedGolden) {
    expect_golden(
        [] {
            return Registry::instance().preset("churn").with_devices(80).with_runs(3);
        },
        kChurnGolden);
}

std::uint64_t fnv1a(const std::string& text) {
    std::uint64_t hash = 14695981039346656037ULL;
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ULL;
    }
    return hash;
}

TEST(ScenarioGoldenTest, SmokeTelemetryArtifactsMatchPinnedDigests) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        ScenarioSpec spec = Registry::instance().preset("smoke");
        spec.with_threads(threads).with_telemetry_modes(true, true);
        const ScenarioResult result = run_scenario(spec);
        ASSERT_TRUE(result.telemetry.has_value());
        ASSERT_TRUE(result.telemetry->metrics.has_value());
        EXPECT_EQ(result.telemetry->trace_jsonl.size(), 254528u) << threads;
        EXPECT_EQ(fnv1a(result.telemetry->trace_jsonl), 0xf58bb3e9aeede309ULL) << threads;
        EXPECT_EQ(fnv1a(result.telemetry->metrics->to_csv()), 0x7fd41f3dce7d773fULL) << threads;
        EXPECT_EQ(fnv1a(result.telemetry->timeline_json), 0xddb6758baf677f2aULL) << threads;
    }
}

/// The pre-coordinator 16-cell citywide deployment, hand-assembled as the
/// PR 3 binary did — the golden reference for the coordinator-absent AND
/// coordinator=simultaneous scenarios.
multicell::DeploymentSetup legacy_citywide_setup(std::size_t threads) {
    multicell::DeploymentSetup legacy;
    legacy.profile = traffic::massive_iot_city();
    legacy.device_count = 400;
    legacy.payload_bytes = traffic::firmware_100kb().bytes;
    legacy.runs = 2;
    legacy.base_seed = 42;
    legacy.threads = threads;
    legacy.topology = multicell::CellTopology::uniform(16);
    return legacy;
}

TEST(ScenarioGoldenTest, Citywide16CellsBitIdenticalToRunDeployment) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        ScenarioSpec spec = Registry::instance().preset("citywide");
        spec.with_devices(400).with_runs(2).with_threads(threads);
        ASSERT_EQ(spec.cell_count(), 16u);

        const multicell::DeploymentResult expected =
            multicell::run_deployment(legacy_citywide_setup(threads));
        const ScenarioResult result = run_scenario(spec);
        ASSERT_TRUE(result.is_multicell());
        EXPECT_FALSE(result.is_coordinated());
        expect_deployment_results_equal(result.deployment(), expected);
    }
}

TEST(ScenarioGoldenTest, CoordinatorSimultaneousBitIdenticalToRunDeployment) {
    // Acceptance pin: a coordinator=simultaneous scenario reproduces the
    // pre-coordinator run_deployment aggregates bit for bit at threads 1
    // and 8 — the coordinator adds the time axis without perturbing a
    // single campaign number.
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        ScenarioSpec spec = Registry::instance().preset("citywide");
        spec.with_devices(400).with_runs(2).with_threads(threads);
        spec.with_coordinator(multicell::CoordinatorSpec{});

        const multicell::DeploymentResult expected =
            multicell::run_deployment(legacy_citywide_setup(threads));
        const ScenarioResult result = run_scenario(spec);
        ASSERT_TRUE(result.is_multicell());
        ASSERT_TRUE(result.is_coordinated());
        expect_deployment_results_equal(result.deployment(), expected);

        // The simultaneous time axis: no stagger, no feed, everything
        // concurrent from t = 0.
        EXPECT_EQ(result.coordination->completion_ms.count(), 2u);
        EXPECT_DOUBLE_EQ(result.coordination->start_spread_ms.max(), 0.0);
        EXPECT_DOUBLE_EQ(result.coordination->backhaul_busy_ms.max(), 0.0);
        EXPECT_GT(result.coordination->peak_concurrent_cells.min(), 0.0);
    }
}

TEST(ScenarioGoldenTest, StaggeredAndBackhaulKeepCampaignAggregatesGolden) {
    // The stronger form of the same pin: even the non-trivial policies may
    // only add time-axis data on top of the golden campaign aggregates.
    const multicell::DeploymentResult expected =
        multicell::run_deployment(legacy_citywide_setup(1));
    for (const char* preset : {"citywide-staggered", "citywide-backhaul"}) {
        ScenarioSpec spec = Registry::instance().preset(preset);
        spec.with_devices(400).with_runs(2).with_threads(1);
        spec.with_payload_bytes(traffic::firmware_100kb().bytes);

        const ScenarioResult result = run_scenario(spec);
        ASSERT_TRUE(result.is_coordinated()) << preset;
        expect_deployment_results_equal(result.deployment(), expected);
    }
}

TEST(ScenarioGoldenTest, FullScaleSetupsMatchFieldForField) {
    // Full-scale equivalence without the full-scale runtime: the adapter
    // output of each acceptance-criteria preset equals the pre-redesign
    // binary's hand-built setup field for field, so the runtime identity
    // proven above at small scale carries over unchanged.
    {
        const multicell::DeploymentSetup actual =
            to_deployment_setup(Registry::instance().preset("fig6a"));
        // As bench/fig6a_* hand-assembled it, on one cell.
        EXPECT_EQ(actual.profile.name, traffic::massive_iot_city().name);
        EXPECT_EQ(actual.device_count, 300u);
        EXPECT_EQ(actual.payload_bytes, traffic::firmware_100kb().bytes);
        EXPECT_EQ(actual.runs, 50u);
        EXPECT_EQ(actual.base_seed, 42u);
        const std::vector<core::MechanismKind> paper{core::MechanismKind::dr_sc,
                                                     core::MechanismKind::da_sc,
                                                     core::MechanismKind::dr_si};
        EXPECT_EQ(actual.mechanisms, paper);
        EXPECT_EQ(actual.config.inactivity_timer,
                  core::CampaignConfig{}.inactivity_timer);
        EXPECT_EQ(actual.topology.cell_count(), 1u);
    }
    {
        const multicell::DeploymentSetup actual =
            to_deployment_setup(Registry::instance().preset("fig7"));
        EXPECT_EQ(actual.runs, 100u);
        EXPECT_EQ(actual.base_seed, 42u);
        const std::vector<core::MechanismKind> drsc{core::MechanismKind::dr_sc};
        EXPECT_EQ(actual.mechanisms, drsc);
        EXPECT_EQ(actual.profile.name, "massive_iot_city");
        EXPECT_EQ(actual.topology.cell_count(), 1u);
    }
    {
        const multicell::DeploymentSetup actual =
            to_deployment_setup(Registry::instance().preset("citywide"));
        EXPECT_EQ(actual.device_count, 6'000u);
        EXPECT_EQ(actual.runs, 2u);
        EXPECT_EQ(actual.base_seed, 42u);
        EXPECT_EQ(actual.topology.cell_count(), 16u);
        EXPECT_EQ(actual.assignment, multicell::AssignmentPolicy::uniform_hash);
    }
}

}  // namespace
}  // namespace nbmg::scenario
