// Campaign benchmark binary.
//
// Runs one workload of the campaign benchmark as a closed loop with one
// client: set-up (parse, validate, population generation) is timed on its
// own, one warm-up execution is discarded and becomes the output
// reference, then scenario::run_scenario executions follow one after
// another for the requested number of seconds.  Every execution's outputs
// are checked.  With --trace 1 one more execution is replayed layer by layer
// through the modules' public functions, with a span around every call;
// the spans stay in memory and are written at the end.
//
// Prints one JSON document on stdout; perfbench/run.py turns it into the
// benchmark's metrics.
//
//   campaign_bench --workload rach_storm --seed 1 --seconds 10 --trace 0
//                    --work .bench_build/work
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/campaign.hpp"
#include "core/experiment.hpp"
#include "multicell/assignment.hpp"
#include "multicell/coordinator.hpp"
#include "multicell/deployment.hpp"
#include "nbiot/frames.hpp"
#include "nbiot/paging.hpp"
#include "scenario/parser.hpp"
#include "scenario/registry.hpp"
#include "scenario/run.hpp"
#include "setcover/window_cover.hpp"
#include "snapshot/checkpoint.hpp"
#include "telemetry/collector.hpp"
#include "telemetry/export.hpp"

namespace {

using namespace nbmg;
using Clock = std::chrono::steady_clock;

// Set-up is timed again between executions, taking about this share of the
// timed loop, so its median spans the whole run rather than the moment the
// run started; at least kMinSetups of them.
constexpr double kSetupShare = 0.05;
constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kMaxSetups = 2000;
constexpr std::size_t kMinExecutions = 3;
constexpr std::size_t kMaxThreads = 4;

// --- workloads -------------------------------------------------------------

struct Workload {
    const char* name;
    /// Scenario keys besides name, seed, threads and artifact paths.
    std::string body;
    /// Fans (run, cell) tasks over min(nproc, kMaxThreads) workers instead of 1.
    bool fan_out;
    /// Writes all telemetry artifacts and a checkpoint after every task,
    /// then resumes from the final snapshot within the same execution.
    bool observed;
};

constexpr const char* kCityShape =
    "profile = massive_iot_city\n"
    "payload_kb = 1024\n"
    "mechanisms = dr-sc,da-sc,dr-si\n"
    "cells = 16\n"
    "topology = hotspot\n"
    "assignment = hotspot\n"
    "coordinator = backhaul\n"
    "coordinator.backhaul_kbps = 512\n"
    "faults.backhaul_loss = 0.05\n"
    "churn.leave_rate = 2\n"
    "churn.rejoin_ms = 120000\n";

/// Why each workload exists is recorded in BENCHMARK.json.  The sizes keep
/// one execution between 0.5 and 4 s, so a run collects ten or more samples.
const std::vector<Workload>& workloads() {
    static const std::vector<Workload> table = {
        {"rach_storm",
         "profile = massive_iot_city\n"
         "devices = 6000\n"
         "payload_kb = 100\n"
         "runs = 1\n"
         "mechanisms = da-sc,dr-si\n"
         "strata = 1\n",
         false, false},
        {"drsc_plan",
         "profile = massive_iot_city\n"
         "devices = 100000\n"
         "payload_kb = 100\n"
         "runs = 1\n"
         "mechanisms = dr-sc\n",
         false, false},
        {"observed_rollout",
         std::string(kCityShape) + "devices = 3000\nruns = 2\ntelemetry = full\n", true,
         true},
    };
    return table;
}

// --- measurement helpers -----------------------------------------------------

double seconds_between(Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double>(to - from).count();
}

double process_cpu_s() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

long peak_rss_kb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
}

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;

std::uint64_t fnv1a(std::string_view text, std::uint64_t hash = kFnvOffset) {
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ULL;
    }
    return hash;
}

std::string hex(std::uint64_t value) {
    char buffer[17];
    std::snprintf(buffer, sizeof buffer, "%016llx",
                  static_cast<unsigned long long>(value));
    return buffer;
}

std::string read_file(const std::filesystem::path& path) {
    std::ifstream file(path, std::ios::binary);
    if (!file) throw std::runtime_error("cannot read " + path.string());
    return {std::istreambuf_iterator<char>(file), std::istreambuf_iterator<char>()};
}

// --- JSON output -------------------------------------------------------------

std::string json_string(std::string_view text) {
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buffer[8];
            std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
            out += buffer;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string json_number(double value) {
    if (!std::isfinite(value)) return "null";
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

std::string json_numbers(const std::vector<double>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i != 0) out += ",";
        out += json_number(values[i]);
    }
    return out + "]";
}

// --- spans -------------------------------------------------------------------

struct Span {
    std::string name;
    int parent = -1;
    int exec = 0;
    double start = 0.0;
    double end = 0.0;
    std::vector<std::pair<std::string, double>> counts;
};

/// Span recorder for the traced run.  Spans nest by scope on the one
/// benchmark thread; each root execution gets its own id.
class Tracer {
public:
    class Scope {
    public:
        Scope(Tracer& tracer, std::string name) : tracer_(tracer) {
            index_ = tracer_.spans_.size();
            Span span;
            span.name = std::move(name);
            span.parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
            span.exec = tracer_.exec_;
            span.start = tracer_.now();
            tracer_.spans_.push_back(std::move(span));
            tracer_.open_.push_back(static_cast<int>(index_));
        }
        ~Scope() {
            tracer_.spans_[index_].end = tracer_.now();
            tracer_.open_.pop_back();
        }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

        void count(std::string key, double value) {
            tracer_.spans_[index_].counts.emplace_back(std::move(key), value);
        }

    private:
        Tracer& tracer_;
        std::size_t index_ = 0;
    };

    /// Starts a new root execution; later spans carry its id.
    void next_exec() { ++exec_; }

    [[nodiscard]] std::string to_json() const {
        std::string out = "[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& span = spans_[i];
            if (i != 0) out += ",\n";
            out += "{\"id\":" + std::to_string(i) + ",\"name\":" + json_string(span.name) +
                   ",\"parent\":" + std::to_string(span.parent) +
                   ",\"exec\":" + std::to_string(span.exec) +
                   ",\"start\":" + json_number(span.start) +
                   ",\"end\":" + json_number(span.end) + ",\"counts\":{";
            for (std::size_t c = 0; c < span.counts.size(); ++c) {
                if (c != 0) out += ",";
                out += json_string(span.counts[c].first) + ":" +
                       json_number(span.counts[c].second);
            }
            out += "}}";
        }
        return out + "]";
    }

private:
    [[nodiscard]] double now() const { return seconds_between(origin_, Clock::now()); }

    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> open_;
    int exec_ = 0;
};

// --- the workload in one process ---------------------------------------------

struct Context {
    const Workload* workload = nullptr;
    std::string text;
    scenario::ScenarioSpec spec;         // populations attached
    scenario::ScenarioSpec resume_spec;  // observed workloads only
    std::filesystem::path work;
};

std::string scenario_text(const Workload& workload, std::uint64_t seed,
                          std::size_t threads, const std::filesystem::path& work) {
    std::string text = std::string("name = ") + workload.name + "\n" + workload.body;
    text += "seed = " + std::to_string(seed) + "\n";
    text += "threads = " + std::to_string(threads) + "\n";
    if (workload.observed) {
        text += "trace_out = " + (work / "fresh.trace.jsonl").string() + "\n";
        text += "metrics_out = " + (work / "fresh.metrics.csv").string() + "\n";
        text += "timeline_out = " + (work / "fresh.timeline.json").string() + "\n";
        text += "checkpoint.out = " + (work / "fresh.snapshot").string() + "\n";
    }
    return text;
}

/// Set-up as a user pays it: parse, validate, generate every run's
/// population once and attach it.
scenario::ScenarioSpec set_up(const std::string& text, Tracer* tracer) {
    std::optional<Tracer::Scope> scope;
    if (tracer != nullptr) scope.emplace(*tracer, "scenario.parse");
    scenario::ScenarioSpec spec = scenario::parse_scenario_text(text, "perfbench");
    scope.reset();
    if (tracer != nullptr) scope.emplace(*tracer, "scenario.validate");
    spec.validate();
    scope.reset();
    if (tracer != nullptr) scope.emplace(*tracer, "traffic.population");
    spec.with_populations(core::generate_comparison_populations(
        spec.profile, spec.device_count, spec.runs, spec.base_seed));
    if (scope) scope->count("devices", static_cast<double>(spec.device_count * spec.runs));
    return spec;
}

std::vector<scenario::ScenarioResult> execute(const Context& ctx) {
    std::vector<scenario::ScenarioResult> results;
    results.push_back(scenario::run_scenario(ctx.spec));
    if (ctx.workload->observed) results.push_back(scenario::run_scenario(ctx.resume_spec));
    return results;
}

/// Every output a result carries, concatenated in a fixed order.
std::string report_text(const scenario::ScenarioResult& result) {
    std::string text = result.summary_csv();
    if (result.is_coordinated()) text += "\n" + result.coordination_csv();
    if (result.telemetry) {
        if (result.telemetry->metrics) text += "\n" + result.telemetry->metrics->to_csv();
        text += "\n" + result.telemetry->trace_jsonl;
        text += "\n" + result.telemetry->timeline_json;
    }
    return text;
}

/// Per-campaign totals over all runs (slot 0 = unicast, then spec order).
struct CampaignTotals {
    std::int64_t transmissions = 0;
    std::int64_t recovery = 0;
    std::int64_t unreceived = 0;
    std::int64_t received = 0;
};

std::vector<CampaignTotals> engine_totals(const scenario::ScenarioResult& result) {
    std::vector<CampaignTotals> totals;
    for (std::size_t c = 0; c <= result.mechanism_count(); ++c) {
        const core::MechanismStats& stats =
            c == 0 ? result.unicast_stats() : result.mechanism_stats(c - 1);
        CampaignTotals t;
        t.transmissions = std::llround(stats.transmissions.sum());
        t.recovery = std::llround(stats.recovery_transmissions.sum());
        t.unreceived = std::llround(stats.unreceived_devices.sum());
        totals.push_back(t);
    }
    return totals;
}

std::vector<core::MechanismKind> campaign_kinds(const scenario::ScenarioSpec& spec) {
    std::vector<core::MechanismKind> kinds;
    kinds.reserve(spec.mechanisms.size() + 1);
    kinds.push_back(core::MechanismKind::unicast);
    for (const core::MechanismKind kind : spec.mechanisms) kinds.push_back(kind);
    return kinds;
}

std::string campaign_name(core::MechanismKind kind) {
    return scenario::Registry::instance().mechanism_name(kind);
}

/// Checks one execution's outputs; returns the failures (empty = correct)
/// and sets `digest` to the hash of everything it produced.
std::vector<std::string> check_execution(const Context& ctx,
                                         const std::vector<scenario::ScenarioResult>& results,
                                         std::uint64_t& digest) {
    std::vector<std::string> failures;
    const scenario::ScenarioResult& fresh = results.front();
    const std::string text = report_text(fresh);
    digest = fnv1a(text);

    const scenario::ScenarioSpec& spec = ctx.spec;
    if (fresh.mechanism_count() != spec.mechanisms.size()) {
        failures.push_back("result has the wrong number of mechanisms");
        return failures;
    }
    const auto devices = static_cast<std::int64_t>(spec.device_count * spec.runs);
    const std::vector<CampaignTotals> totals = engine_totals(fresh);
    const std::vector<core::MechanismKind> kinds = campaign_kinds(spec);
    for (std::size_t c = 0; c < totals.size(); ++c) {
        if (totals[c].unreceived < 0 || totals[c].unreceived > devices ||
            totals[c].recovery > totals[c].transmissions) {
            failures.push_back(campaign_name(kinds[c]) +
                               ": unreceived or recovery count out of range");
        }
    }
    if (fresh.is_multicell()) {
        const multicell::DeploymentResult& deployment = fresh.deployment();
        for (std::size_t run = 0; run < spec.runs; ++run) {
            std::size_t assigned = 0;
            for (std::size_t cell = 0; cell < deployment.cell_count(); ++cell) {
                assigned += deployment.span(run, cell).devices;
            }
            if (assigned != spec.device_count) {
                failures.push_back("run " + std::to_string(run) +
                                   ": cells hold a different number of devices than the fleet");
            }
        }
    }
    if (ctx.workload->observed) {
        const scenario::ScenarioResult& resumed = results.at(1);
        if (report_text(resumed) != text) {
            failures.push_back("resumed run differs from the fresh run");
        }
        for (const scenario::ScenarioResult* result : {&fresh, &resumed}) {
            const scenario::TelemetryReport& report = result->telemetry.value();
            const std::pair<std::string, std::string> artifacts[] = {
                {report.config.trace_out, report.trace_jsonl},
                {report.config.metrics_out, report.metrics.value().to_csv()},
                {report.config.timeline_out, report.timeline_json},
            };
            for (const auto& [path, contents] : artifacts) {
                if (read_file(path) != contents) {
                    failures.push_back(path + " differs from the in-memory artifact");
                }
            }
        }
    }
    return failures;
}

// --- traced replay -------------------------------------------------------------

/// Plans and runs every campaign of one (run, cell) task exactly as the
/// engines do, with a span around each planner and CampaignRunner call.
void replay_task(Tracer& tracer, const scenario::ScenarioSpec& spec,
                 std::span<const nbiot::UeSpec> specs, const core::CampaignConfig& config,
                 std::uint64_t seed_root, std::size_t run, std::size_t strata_threads,
                 std::vector<CampaignTotals>& totals) {
    const sim::RngFactory rng_factory(seed_root);
    const nbiot::SimTime horizon =
        core::recommended_horizon(specs, config, spec.payload_bytes);
    const std::uint64_t run_seed = sim::derive_seed(seed_root, "run", run);
    const std::vector<core::MechanismKind> kinds = campaign_kinds(spec);
    for (std::size_t c = 0; c < kinds.size(); ++c) {
        const auto mechanism = core::make_mechanism(kinds[c]);
        sim::RandomStream rng = rng_factory.stream(
            kinds[c] == core::MechanismKind::unicast ? "plan-unicast" : mechanism->name(),
            run);
        const std::string name = campaign_name(kinds[c]);
        core::MulticastPlan plan;
        {
            Tracer::Scope scope(tracer, "core.plan." + name);
            plan = mechanism->plan(specs, config, rng);
            scope.count("transmissions", static_cast<double>(plan.transmissions.size()));
            scope.count("paging_entries", static_cast<double>(plan.paging_entries));
        }
        Tracer::Scope scope(tracer, "core.campaign." + name);
        const core::CampaignResult result =
            core::CampaignRunner(config, strata_threads)
                .run(plan, specs, spec.payload_bytes, horizon, run_seed);
        const std::size_t received = result.received_count();
        const auto recovered = std::count_if(
            result.devices.begin(), result.devices.end(),
            [](const core::DeviceOutcome& device) { return device.recovered; });
        scope.count("devices", static_cast<double>(result.devices.size()));
        scope.count("recovered_devices", static_cast<double>(recovered));
        scope.count("rach_attempts", static_cast<double>(result.rach_attempts));
        scope.count("rach_collisions", static_cast<double>(result.rach_collisions));
        scope.count("rach_failures", static_cast<double>(result.rach_failures));
        scope.count("paging_messages", static_cast<double>(result.paging_messages));
        scope.count("transmissions", static_cast<double>(result.total_transmissions()));
        scope.count("recovery_transmissions",
                    static_cast<double>(result.recovery_transmissions));
        scope.count("bytes_on_air", static_cast<double>(result.bytes_on_air));
        scope.count("churn_leaves", static_cast<double>(result.churn_leaves));
        scope.count("redelivery_bytes", static_cast<double>(result.redelivery_bytes));
        totals[c].transmissions += static_cast<std::int64_t>(result.total_transmissions());
        totals[c].recovery += static_cast<std::int64_t>(result.recovery_transmissions);
        totals[c].received += static_cast<std::int64_t>(received);
        totals[c].unreceived += static_cast<std::int64_t>(result.devices.size() - received);
    }
}

/// DR-SC's planning input replayed through the set-cover layer: every PO of
/// every device over the planner's horizon (two maximum DRX cycles), then
/// the greedy window cover with the planner's own random stream.
void replay_setcover(Tracer& tracer, const core::CampaignConfig& config,
                     std::span<const nbiot::UeSpec> specs, std::uint64_t seed_root,
                     std::size_t run, std::vector<std::string>& failures) {
    if (specs.empty()) return;
    const nbiot::PagingSchedule paging(config.paging);
    const nbiot::SimTime horizon = nbiot::align_up_to_frame(
        nbiot::SimTime{2 * core::population_max_cycle(specs).period_ms()});
    std::vector<setcover::PoEvent> events;
    {
        Tracer::Scope scope(tracer, "setcover.enumerate");
        for (const nbiot::UeSpec& dev : specs) {
            for (const nbiot::SimTime po :
                 paging.pos_in_range(nbiot::SimTime{0}, horizon, dev.imsi, dev.cycle)) {
                events.push_back(setcover::PoEvent{po, dev.device.value});
            }
        }
        scope.count("po_events", static_cast<double>(events.size()));
    }
    sim::RandomStream rng = sim::RngFactory(seed_root).stream("DR-SC", run);
    setcover::WindowCoverResult cover;
    {
        Tracer::Scope scope(tracer, "setcover.window_cover");
        cover = setcover::greedy_window_cover(std::move(events), config.inactivity_timer,
                                              static_cast<std::uint32_t>(specs.size()),
                                              rng);
        scope.count("windows", static_cast<double>(cover.windows.size()));
    }
    std::size_t covered = 0;
    for (const setcover::CoverWindow& window : cover.windows) covered += window.devices.size();
    if (covered != specs.size() || !cover.uncoverable.empty()) {
        failures.push_back("set-cover replay does not cover every device exactly once");
    }
}

bool runs_dr_sc(const scenario::ScenarioSpec& spec) {
    return std::find(spec.mechanisms.begin(), spec.mechanisms.end(),
                     core::MechanismKind::dr_sc) != spec.mechanisms.end();
}

void compare_totals(const std::vector<CampaignTotals>& replayed,
                    const std::vector<CampaignTotals>& engine,
                    const scenario::ScenarioSpec& spec, std::vector<std::string>& failures) {
    const std::vector<core::MechanismKind> kinds = campaign_kinds(spec);
    const auto devices = static_cast<std::int64_t>(spec.device_count * spec.runs);
    for (std::size_t c = 0; c < kinds.size(); ++c) {
        const std::string name = campaign_name(kinds[c]);
        if (replayed[c].transmissions != engine[c].transmissions ||
            replayed[c].recovery != engine[c].recovery ||
            replayed[c].unreceived != engine[c].unreceived) {
            failures.push_back(name + ": traced replay counts differ from the untraced run");
        }
        if (replayed[c].received + engine[c].unreceived != devices) {
            failures.push_back(name + ": received + unreceived != devices");
        }
    }
}

/// Single-cell execution replayed as run_comparison performs it.
void traced_single_cell(Tracer& tracer, const Context& ctx,
                        const std::vector<CampaignTotals>& engine,
                        std::vector<std::string>& failures) {
    const scenario::ScenarioSpec& spec = ctx.spec;
    const std::size_t strata_threads = spec.runs == 1 ? spec.threads : 1;
    std::vector<CampaignTotals> totals(spec.mechanisms.size() + 1);
    {
        tracer.next_exec();
        Tracer::Scope exec(tracer, "bench.exec");
        const double cpu_start = process_cpu_s();
        for (std::size_t run = 0; run < spec.runs; ++run) {
            replay_task(tracer, spec, spec.populations->runs[run], spec.config,
                        spec.base_seed, run, strata_threads, totals);
        }
        exec.count("cpu_s", process_cpu_s() - cpu_start);
        exec.count("threads", static_cast<double>(std::max<std::size_t>(spec.threads, 1)));
    }
    compare_totals(totals, engine, spec, failures);
    if (runs_dr_sc(spec)) {
        tracer.next_exec();
        Tracer::Scope root(tracer, "bench.replay.setcover");
        for (std::size_t run = 0; run < spec.runs; ++run) {
            replay_setcover(tracer, spec.config, spec.populations->runs[run], spec.base_seed,
                            run, failures);
        }
    }
}

/// The collector run_scenario attaches for `spec`'s telemetry request.
telemetry::Collector make_collector(const scenario::ScenarioSpec& spec) {
    telemetry::TelemetryConfig config;
    config.trace = spec.telemetry.trace;
    config.metrics = spec.telemetry.metrics;
    config.bucket_ms = spec.telemetry.bucket_ms;
    std::vector<std::string> labels;
    for (const core::MechanismKind kind : campaign_kinds(spec)) {
        labels.push_back(campaign_name(kind));
    }
    return telemetry::Collector(config, spec.runs, spec.cell_count(), std::move(labels));
}

/// run_deployment under a span that also records the process CPU time used.
multicell::DeploymentResult traced_run_deployment(Tracer& tracer, std::string name,
                                                  const multicell::DeploymentSetup& setup) {
    Tracer::Scope scope(tracer, std::move(name));
    const double cpu_start = process_cpu_s();
    multicell::DeploymentResult result = multicell::run_deployment(setup);
    scope.count("cpu_s", process_cpu_s() - cpu_start);
    scope.count("threads", static_cast<double>(setup.threads));
    return result;
}

void write_artifact(const std::string& path, const std::string& text) {
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file.write(text.data(), static_cast<std::streamsize>(text.size()));
    if (!file.flush()) throw std::runtime_error("cannot write " + path);
}

/// run_scenario for a multicell spec, one public call at a time: the
/// deployment, the coordinator, the final snapshot and the telemetry
/// exports.  `suffix` tells the resumed half's spans apart.
scenario::ScenarioResult traced_deployment(Tracer& tracer, const scenario::ScenarioSpec& spec,
                                           const std::string& suffix) {
    multicell::DeploymentSetup setup = scenario::to_deployment_setup(spec);
    std::optional<telemetry::Collector> collector;
    if (spec.telemetry.enabled()) {
        collector.emplace(make_collector(spec));
        setup.telemetry = &*collector;
    }
    std::optional<snapshot::CheckpointContext> checkpoint;
    if (spec.checkpoint.enabled()) {
        // Any fingerprint works as long as the fresh and resumed halves agree.
        snapshot::CheckpointHeader header;
        header.fingerprint = fnv1a(std::to_string(spec.base_seed) + spec.name);
        header.engine = 1;
        header.runs = spec.runs;
        header.cells = spec.cell_count();
        header.campaigns = spec.mechanisms.size() + 1;
        checkpoint.emplace(header, spec.checkpoint.out, spec.checkpoint.every_ms,
                           spec.checkpoint.stop_after);
        if (!spec.checkpoint.resume.empty()) {
            Tracer::Scope scope(tracer, "snapshot.load" + suffix);
            checkpoint->load(spec.checkpoint.resume);
        }
        setup.checkpoint = &*checkpoint;
    }

    scenario::ScenarioResult result;
    result.spec = spec;
    result.outcome = traced_run_deployment(tracer, "multicell.deployment" + suffix, setup);
    {
        Tracer::Scope scope(tracer, "multicell.coordinate" + suffix);
        result.coordination = multicell::coordinate_deployment(
            result.deployment(), spec.coordinator.value(), spec.payload_bytes,
            setup.telemetry, spec.base_seed);
        double redelivered = 0.0;
        for (const multicell::RunTimeline& timeline : result.coordination->timelines) {
            redelivered += static_cast<double>(timeline.redelivered_bytes);
        }
        scope.count("redelivered_bytes", redelivered);
    }
    if (checkpoint) {
        Tracer::Scope scope(tracer, "snapshot.save_final" + suffix);
        checkpoint->save_final();
        if (!spec.checkpoint.out.empty()) {
            scope.count("bytes",
                        static_cast<double>(std::filesystem::file_size(spec.checkpoint.out)));
        }
    }
    if (collector) {
        scenario::TelemetryReport report;
        report.config = spec.telemetry;
        {
            Tracer::Scope scope(tracer, "telemetry.trace_export" + suffix);
            report.trace_jsonl = telemetry::trace_jsonl(*collector);
            std::size_t records = 0;
            for (std::size_t run = 0; run < collector->runs(); ++run) {
                records += collector->city_slot(run).records().size();
                for (std::size_t cell = 0; cell < collector->cells(); ++cell) {
                    for (std::size_t c = 0; c < collector->campaigns(); ++c) {
                        records += collector->slot(run, cell, c).records().size();
                    }
                }
            }
            scope.count("records", static_cast<double>(records));
            scope.count("bytes", static_cast<double>(report.trace_jsonl.size()));
        }
        {
            Tracer::Scope scope(tracer, "telemetry.timeline_export" + suffix);
            report.timeline_json = telemetry::timeline_json(*collector, &*result.coordination);
        }
        std::string metrics_csv;
        {
            Tracer::Scope scope(tracer, "telemetry.metrics_export" + suffix);
            report.metrics = telemetry::metrics_table(*collector);
            metrics_csv = report.metrics->to_csv();
        }
        {
            Tracer::Scope scope(tracer, "telemetry.write" + suffix);
            write_artifact(spec.telemetry.trace_out, report.trace_jsonl);
            write_artifact(spec.telemetry.metrics_out, metrics_csv);
            write_artifact(spec.telemetry.timeline_out, report.timeline_json);
        }
        result.telemetry = std::move(report);
    }
    return result;
}

/// Multicell execution replayed through the deployment's public calls, then
/// every (run, cell) task serially on the devices assign_devices gives it.
void traced_multicell(Tracer& tracer, const Context& ctx, std::uint64_t reference,
                      const std::vector<CampaignTotals>& engine,
                      std::vector<std::string>& failures) {
    const scenario::ScenarioSpec& spec = ctx.spec;
    std::vector<scenario::ScenarioResult> results;
    {
        tracer.next_exec();
        Tracer::Scope exec(tracer, "bench.exec");
        results.push_back(traced_deployment(tracer, spec, ""));
        if (ctx.workload->observed) {
            Tracer::Scope scope(tracer, "snapshot.resume");
            results.push_back(traced_deployment(tracer, ctx.resume_spec, ".resumed"));
        }
    }
    for (const scenario::ScenarioResult& result : results) {
        if (fnv1a(report_text(result)) != reference) {
            failures.push_back("traced execution differs from the untraced run");
        }
    }

    const multicell::DeploymentSetup setup = scenario::to_deployment_setup(spec);
    const std::size_t cells = setup.topology.cell_count();
    std::vector<std::vector<std::vector<nbiot::UeSpec>>> shards(spec.runs);
    std::vector<CampaignTotals> totals(spec.mechanisms.size() + 1);
    {
        tracer.next_exec();
        Tracer::Scope root(tracer, "bench.replay.cells");
        for (std::size_t run = 0; run < spec.runs; ++run) {
            const std::vector<nbiot::UeSpec>& fleet = spec.populations->runs[run];
            std::span<const std::uint32_t> classes;
            if (setup.assignment == multicell::AssignmentPolicy::class_affinity) {
                classes = spec.populations->class_indices[run];
            }
            shards[run].resize(cells);
            {
                Tracer::Scope scope(tracer, "multicell.assign");
                const multicell::DeviceAssignment assignment = multicell::assign_devices(
                    setup.topology, fleet, classes, setup.assignment, setup.base_seed);
                for (std::size_t d = 0; d < fleet.size(); ++d) {
                    std::vector<nbiot::UeSpec>& bucket =
                        shards[run][assignment.cell_of_device[d]];
                    nbiot::UeSpec device = fleet[d];
                    device.device = nbiot::DeviceId{static_cast<std::uint32_t>(bucket.size())};
                    bucket.push_back(device);
                }
                scope.count("devices", static_cast<double>(fleet.size()));
            }
            std::size_t assigned = 0;
            for (std::size_t cell = 0; cell < cells; ++cell) {
                const std::vector<nbiot::UeSpec>& devices = shards[run][cell];
                assigned += devices.size();
                Tracer::Scope scope(tracer, "multicell.cell_task");
                scope.count("devices", static_cast<double>(devices.size()));
                if (devices.empty()) continue;
                core::CampaignConfig config = setup.config;
                const int records = setup.topology.cells[cell].max_page_records_override;
                if (records > 0) config.paging.max_page_records = records;
                replay_task(tracer, spec, devices, config,
                            multicell::cell_seed_root(setup.base_seed, cells,
                                                      static_cast<std::uint32_t>(cell)),
                            run, 1, totals);
            }
            if (assigned != fleet.size()) {
                failures.push_back("assign_devices lost or duplicated devices");
            }
        }
    }
    compare_totals(totals, engine, spec, failures);

    if (runs_dr_sc(spec)) {
        tracer.next_exec();
        Tracer::Scope root(tracer, "bench.replay.setcover");
        for (std::size_t run = 0; run < spec.runs; ++run) {
            for (std::size_t cell = 0; cell < cells; ++cell) {
                replay_setcover(tracer, setup.config, shards[run][cell],
                                multicell::cell_seed_root(setup.base_seed, cells,
                                                          static_cast<std::uint32_t>(cell)),
                                run, failures);
            }
        }
    }

    if (ctx.workload->observed) {
        // Baselines for the telemetry and checkpoint overheads: the same
        // deployment with nothing attached, then with the collector only.
        scenario::ScenarioSpec bare = spec;
        bare.checkpoint = scenario::CheckpointSpec{};
        bare.telemetry = scenario::TelemetrySpec{};
        multicell::DeploymentSetup plain = scenario::to_deployment_setup(bare);
        tracer.next_exec();
        (void)traced_run_deployment(tracer, "multicell.deployment.plain", plain);
        telemetry::Collector collector = make_collector(spec);
        plain.telemetry = &collector;
        tracer.next_exec();
        (void)traced_run_deployment(tracer, "multicell.deployment.collector", plain);
    }
}

// --- command line --------------------------------------------------------------

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::filesystem::path work;
};

[[noreturn]] void usage(const std::string& message) {
    std::fprintf(stderr,
                 "campaign_bench: %s\nusage: campaign_bench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --work DIR\n",
                 message.c_str());
    std::exit(2);
}

Args parse_args(int argc, char** argv) {
    Args args;
    bool have[5] = {};
    for (int i = 1; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage("missing value for " + flag);
        const std::string value = argv[i + 1];
        std::size_t used = 0;
        try {
            if (flag == "--workload") {
                args.workload = value;
                have[0] = true;
            } else if (flag == "--seed") {
                if (value.empty() || value[0] == '-') usage("bad --seed " + value);
                args.seed = std::stoull(value, &used);
                have[1] = used == value.size();
            } else if (flag == "--seconds") {
                args.seconds = std::stod(value, &used);
                have[2] = used == value.size() && args.seconds > 0.0 && args.seconds <= 600.0;
            } else if (flag == "--trace") {
                if (value != "0" && value != "1") usage("bad --trace " + value);
                args.trace = value == "1";
                have[3] = true;
            } else if (flag == "--work") {
                args.work = value;
                have[4] = !value.empty();
            } else {
                usage("unknown flag " + flag);
            }
        } catch (const std::logic_error&) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    for (const bool present : have) {
        if (!present) usage("every flag is required, with a valid value");
    }
    return args;
}

}  // namespace

int main(int argc, char** argv) {
    const Args args = parse_args(argc, argv);
    const Workload* workload = nullptr;
    for (const Workload& candidate : workloads()) {
        if (args.workload == candidate.name) workload = &candidate;
    }
    if (workload == nullptr) usage("unknown workload " + args.workload);

    const std::size_t threads =
        workload->fan_out
            ? std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, kMaxThreads)
            : 1;
    std::filesystem::create_directories(args.work);

    Context ctx;
    ctx.workload = workload;
    ctx.work = args.work;
    ctx.text = scenario_text(*workload, args.seed, threads, args.work);

    std::vector<double> setup_s;
    double setup_total = 0.0;
    // The spec a timed set-up returns is released after its clock stops.
    const auto timed_set_up = [&] {
        const Clock::time_point start = Clock::now();
        scenario::ScenarioSpec spec = set_up(ctx.text, nullptr);
        setup_s.push_back(seconds_between(start, Clock::now()));
        setup_total += setup_s.back();
        return spec;
    };
    ctx.spec = timed_set_up();
    if (workload->observed) {
        ctx.resume_spec = ctx.spec;
        ctx.resume_spec.checkpoint = scenario::CheckpointSpec{};
        ctx.resume_spec.checkpoint.resume = ctx.spec.checkpoint.out;
        ctx.resume_spec.telemetry.trace_out = (ctx.work / "resume.trace.jsonl").string();
        ctx.resume_spec.telemetry.metrics_out = (ctx.work / "resume.metrics.csv").string();
        ctx.resume_spec.telemetry.timeline_out = (ctx.work / "resume.timeline.json").string();
    }

    // The warm-up execution is discarded from the timings; its outputs are
    // the reference every later execution must reproduce byte for byte.
    std::vector<std::string> failures;
    std::uint64_t reference = 0;
    std::vector<CampaignTotals> engine;
    double warmup_s = 0.0;
    try {
        const Clock::time_point start = Clock::now();
        const std::vector<scenario::ScenarioResult> results = execute(ctx);
        warmup_s = seconds_between(start, Clock::now());
        for (const std::string& failure : check_execution(ctx, results, reference)) {
            failures.push_back("warm-up: " + failure);
        }
        engine = engine_totals(results.front());
    } catch (const std::exception& error) {
        failures.push_back(std::string("warm-up: ") + error.what());
    }
    const bool warmup_ok = failures.empty();

    std::vector<double> wall_s;
    std::vector<double> cpu_s;
    std::size_t failed = 0;
    const Clock::time_point loop_start = Clock::now();
    while (warmup_ok && (wall_s.size() < kMinExecutions ||
                                seconds_between(loop_start, Clock::now()) < args.seconds)) {
        std::uint64_t digest = 0;
        std::vector<std::string> problems;
        const double cpu_start = process_cpu_s();
        const Clock::time_point start = Clock::now();
        try {
            const std::vector<scenario::ScenarioResult> results = execute(ctx);
            wall_s.push_back(seconds_between(start, Clock::now()));
            cpu_s.push_back(process_cpu_s() - cpu_start);
            problems = check_execution(ctx, results, digest);
            if (digest != reference) problems.push_back("outputs differ from the warm-up");
        } catch (const std::exception& error) {
            wall_s.push_back(seconds_between(start, Clock::now()));
            cpu_s.push_back(process_cpu_s() - cpu_start);
            problems.push_back(error.what());
        }
        if (!problems.empty()) {
            ++failed;
            failures.push_back("execution " + std::to_string(wall_s.size()) + ": " +
                               problems.front());
        }
        while (setup_s.size() < kMaxSetups &&
               setup_total < kSetupShare * seconds_between(loop_start, Clock::now())) {
            (void)timed_set_up();
        }
    }
    while (setup_s.size() < kMinSetups) (void)timed_set_up();
    const long rss_kb = peak_rss_kb();

    Tracer tracer;
    std::size_t traced_attempts = 0;
    std::size_t traced_failed = 0;
    if (args.trace && warmup_ok) {
        ++traced_attempts;
        std::vector<std::string> problems;
        try {
            (void)set_up(ctx.text, &tracer);
            if (ctx.spec.is_multicell()) {
                traced_multicell(tracer, ctx, reference, engine, problems);
            } else {
                traced_single_cell(tracer, ctx, engine, problems);
            }
        } catch (const std::exception& error) {
            problems.push_back(error.what());
        }
        if (!problems.empty()) {
            ++traced_failed;
            for (const std::string& problem : problems) failures.push_back("traced: " + problem);
        }
    }
    std::error_code ignored;
    std::filesystem::remove_all(args.work, ignored);

    std::string out = "{";
    out += "\"workload\":" + json_string(workload->name);
    out += ",\"seed\":" + std::to_string(args.seed);
    out += ",\"devices\":" + std::to_string(ctx.spec.device_count);
    out += ",\"runs\":" + std::to_string(ctx.spec.runs);
    out += ",\"campaigns\":" + std::to_string(ctx.spec.mechanisms.size() + 1);
    out += ",\"threads\":" + std::to_string(threads);
    out += ",\"setup_s\":" + json_numbers(setup_s);
    out += ",\"warmup_s\":" + json_number(warmup_s);
    out += ",\"wall_s\":" + json_numbers(wall_s);
    out += ",\"cpu_s\":" + json_numbers(cpu_s);
    out += ",\"attempted\":" + std::to_string(wall_s.size() + 1 + traced_attempts);
    out += ",\"failed\":" +
           std::to_string(failed + traced_failed + (warmup_ok ? 0 : 1));
    out += ",\"peak_rss_kb\":" + std::to_string(rss_kb);
    out += ",\"digest\":" + json_string(hex(reference));
    out += ",\"failures\":[";
    for (std::size_t i = 0; i < failures.size(); ++i) {
        if (i != 0) out += ",";
        out += json_string(failures[i]);
    }
    out += "]";
    if (args.trace) out += ",\"spans\":" + tracer.to_json();
    out += "}\n";
    std::fputs(out.c_str(), stdout);
    return 0;
}
