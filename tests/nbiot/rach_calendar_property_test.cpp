// Trace identity of the NPRACH window calendar.
//
// RachChannel appends a collided entrant straight into the window it will
// contend in and orders each window by enrollment key; the model it
// replaced made every retry a queue event that appended itself when it
// fired.  The old model is kept here as ReferenceRachChannel, and seeded
// scripted histories drive both through the same call sequence:
// requests at exact window instants, from inside completion callbacks
// with earliest == now, and from outside the event loop between
// run_until() calls; 1-4 preambles and backoff_max 0/1/960 with active
// times that let retries land on the resolving instant itself (late
// retries); background load; unrelated events at window instants.  The
// callback order and outcomes, the firing order of the unrelated events,
// the totals and the channel's RNG position must all be identical.
//
// A second case pins the event count of one seeded RACH storm: events
// no longer scale with retries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "nbiot/rach.hpp"
#include "sim/simulation.hpp"

namespace nbmg::nbiot {
namespace {

/// The per-retry-event channel the calendar replaced, as it was, except
/// that a completion callback is moved out of its procedure before it
/// runs (a callback that requests again may reallocate the procedure
/// list under itself).
class ReferenceRachChannel {
public:
    using Callback = RachChannel::Callback;

    ReferenceRachChannel(sim::Simulation& simulation, RachConfig config,
                         sim::RandomStream rng)
        : sim_(&simulation), config_(config), rng_(std::move(rng)) {}

    void request(SimTime earliest, Callback done) {
        procedures_.push_back(Procedure{std::move(done), 0, SimTime{0}, false});
        enroll(earliest, procedures_.size() - 1);
    }

    void inject_background_load(double arrivals_per_second, SimTime until) {
        if (arrivals_per_second <= 0.0) return;
        const double mean_gap_ms = 1000.0 / arrivals_per_second;
        SimTime t = sim_->now();
        while (true) {
            t += SimTime{static_cast<std::int64_t>(rng_.exponential(mean_gap_ms)) + 1};
            if (t >= until) break;
            procedures_.push_back(Procedure{[](const RachOutcome&) {}, 0, SimTime{0}, true});
            enroll(t, procedures_.size() - 1);
        }
    }

    [[nodiscard]] std::uint64_t total_attempts() const noexcept { return total_attempts_; }
    [[nodiscard]] std::uint64_t total_collisions() const noexcept { return total_collisions_; }
    [[nodiscard]] std::uint64_t total_failures() const noexcept { return total_failures_; }
    [[nodiscard]] const sim::RandomStream& rng() const noexcept { return rng_; }

private:
    struct Procedure {
        Callback done;
        int attempts = 0;
        SimTime active_time{0};
        bool background = false;
    };

    [[nodiscard]] SimTime next_window_at_or_after(SimTime t) const noexcept {
        const std::int64_t period = config_.window_period.count();
        const std::int64_t tm = std::max<std::int64_t>(t.count(), 0);
        const std::int64_t k = (tm + period - 1) / period;
        return SimTime{k * period};
    }

    void enroll(SimTime earliest, std::size_t proc_index) {
        const SimTime window = next_window_at_or_after(std::max(earliest, sim_->now()));
        window_entrants_[window].push_back(proc_index);
        if (!window_scheduled_[window]) {
            window_scheduled_[window] = true;
            sim_->queue().schedule_at(window, [this, window] { resolve_window(window); });
        }
    }

    void finish(std::size_t index, const RachOutcome& outcome) {
        if (procedures_[index].background) return;
        Callback done = std::move(procedures_[index].done);
        done(outcome);
    }

    void resolve_window(SimTime window_start) {
        auto it = window_entrants_.find(window_start);
        if (it == window_entrants_.end()) return;
        std::vector<std::size_t> entrants = std::move(it->second);
        window_entrants_.erase(it);
        window_scheduled_.erase(window_start);

        std::vector<int> preamble_count(static_cast<std::size_t>(config_.num_preambles), 0);
        std::vector<int> choice(entrants.size());
        for (std::size_t i = 0; i < entrants.size(); ++i) {
            choice[i] = static_cast<int>(rng_.uniform_int(0, config_.num_preambles - 1));
            ++preamble_count[static_cast<std::size_t>(choice[i])];
        }

        const SimTime resolution = window_start + config_.attempt_active_time();
        sim::EventQueue::Batch retries;
        for (std::size_t i = 0; i < entrants.size(); ++i) {
            Procedure& proc = procedures_[entrants[i]];
            ++proc.attempts;
            ++total_attempts_;
            proc.active_time += config_.attempt_active_time();
            if (preamble_count[static_cast<std::size_t>(choice[i])] == 1) {
                finish(entrants[i],
                       RachOutcome{true, resolution, proc.attempts, proc.active_time});
                continue;
            }
            ++total_collisions_;
            if (proc.attempts >= config_.max_attempts) {
                ++total_failures_;
                finish(entrants[i],
                       RachOutcome{false, resolution, proc.attempts, proc.active_time});
                continue;
            }
            const SimTime backoff{rng_.uniform_int(0, config_.backoff_max.count())};
            const std::size_t index = entrants[i];
            retries.add(resolution + backoff,
                        [this, index] { enroll(sim_->now(), index); });
        }
        if (!retries.empty()) sim_->queue().schedule_batch(std::move(retries));
    }

    sim::Simulation* sim_;
    RachConfig config_;
    sim::RandomStream rng_;
    std::vector<Procedure> procedures_;
    std::map<SimTime, std::vector<std::size_t>> window_entrants_;
    std::map<SimTime, bool> window_scheduled_;
    std::uint64_t total_attempts_ = 0;
    std::uint64_t total_collisions_ = 0;
    std::uint64_t total_failures_ = 0;
};

/// One observable step of a scripted history: a completion callback
/// (kind 0) or an unrelated event firing (kind 1).
struct Record {
    int kind = 0;
    int label = 0;
    std::int64_t at = 0;
    bool success = false;
    std::int64_t completed_at = 0;
    int attempts = 0;
    std::int64_t active_time = 0;

    friend bool operator==(const Record&, const Record&) = default;
};

struct Trace {
    std::vector<Record> records;
    std::uint64_t attempts = 0;
    std::uint64_t collisions = 0;
    std::uint64_t failures = 0;
    std::string rng_state;
    std::int64_t end_time = 0;

    friend bool operator==(const Trace&, const Trace&) = default;
};

/// Channel shape drawn from the script seed: few preambles, backoff
/// bounds that force same-millisecond ties, short periods and active
/// times (0 included) that put retries on window instants.
RachConfig draw_config(sim::RandomStream& rng) {
    RachConfig config;
    config.num_preambles = static_cast<int>(rng.uniform_int(1, 4));
    static constexpr std::int64_t kBackoff[] = {0, 1, 960};
    config.backoff_max = SimTime{kBackoff[rng.uniform_int(0, 2)]};
    static constexpr std::int64_t kPeriod[] = {1, 4, 16, 160};
    config.window_period = SimTime{kPeriod[rng.uniform_int(0, 3)]};
    config.max_attempts = static_cast<int>(rng.uniform_int(1, 10));
    switch (rng.uniform_int(0, 2)) {
        case 0:  // every retry lands on its own resolving instant or later
            config.preamble_duration = config.rar_delay = config.msg3_delay =
                config.msg4_delay = SimTime{0};
            break;
        case 1:
            config.preamble_duration = SimTime{1};
            config.rar_delay = SimTime{2};
            config.msg3_delay = config.msg4_delay = SimTime{0};
            break;
        default:
            break;  // the defaults: 136 ms per attempt
    }
    return config;
}

template <typename Channel>
Trace run_script(std::uint64_t seed) {
    sim::RandomStream setup{seed};
    const RachConfig config = draw_config(setup);
    const std::int64_t period = config.window_period.count();
    sim::Simulation sim{seed};
    Channel rach(sim, config, sim.stream("rach"));
    // Decisions inside callbacks draw from `script` in firing order, so
    // identical traces also mean identical decision sequences.
    sim::RandomStream script{seed * 7919 + 1};
    Trace trace;
    int next_label = 0;

    const auto window_instant = [&](std::int64_t max_windows) {
        return SimTime{period * script.uniform_int(0, max_windows)};
    };
    // A window instant a few windows after now.  Scheduled mid-run, such
    // events take seqs that interleave with the windows' resolve events,
    // so any drift in when a resolve is scheduled changes the trace.
    const auto upcoming_window = [&] {
        return SimTime{(sim.now().count() / period + script.uniform_int(1, 6)) * period};
    };
    std::function<void(SimTime)> unrelated;
    std::function<void(SimTime, int)> issue = [&](SimTime earliest, int depth) {
        const int label = next_label++;
        rach.request(earliest, [&, label, depth](const RachOutcome& o) {
            trace.records.push_back(Record{0, label, sim.now().count(), o.success,
                                           o.completed_at.count(), o.attempts,
                                           o.active_time.count()});
            if (depth >= 3) return;
            // Re-request at once (earliest == now): enrolls into the
            // window being resolved if now is a window instant.
            if (script.bernoulli(0.35)) issue(sim.now(), depth + 1);
            if (script.bernoulli(0.2)) unrelated(upcoming_window());
        });
    };
    unrelated = [&](SimTime at) {
        const int label = next_label++;
        sim.queue().schedule_at(at, [&, label] {
            trace.records.push_back(Record{1, label, sim.now().count()});
            switch (script.uniform_int(0, 7)) {
                case 0:
                    issue(sim.now(), 0);
                    break;
                case 1:
                    issue(sim.now() + window_instant(3), 0);
                    break;
                case 2:
                    unrelated(sim.now() + SimTime{script.uniform_int(0, 2)});
                    break;
                case 3:
                    if (sim.now().count() % period == 0) {
                        unrelated(sim.now());  // another event at this window instant
                    }
                    break;
                case 4:
                    unrelated(upcoming_window());
                    break;
                case 5: {
                    // A burst from one event: entrants with equal keys,
                    // which must keep their call order.
                    const auto burst = script.uniform_int(2, 24);
                    for (std::int64_t i = 0; i < burst; ++i) issue(sim.now(), 2);
                    break;
                }
                default:
                    break;
            }
        });
    };

    const auto requests = setup.uniform_int(1, 40);
    for (std::int64_t i = 0; i < requests; ++i) {
        issue(setup.bernoulli(0.5) ? window_instant(6) : SimTime{setup.uniform_int(0, 200)},
              0);
    }
    const auto events = setup.uniform_int(0, 30);
    for (std::int64_t i = 0; i < events; ++i) {
        unrelated(setup.bernoulli(0.7) ? window_instant(40)
                                       : SimTime{setup.uniform_int(0, 4000)});
    }
    if (setup.bernoulli(0.3)) {
        rach.inject_background_load(static_cast<double>(setup.uniform_int(5, 200)),
                                    SimTime{setup.uniform_int(500, 5000)});
    }
    // Requests from outside the event loop between partial runs.
    SimTime until{0};
    const auto pauses = setup.uniform_int(0, 4);
    for (std::int64_t p = 0; p < pauses; ++p) {
        until += SimTime{setup.bernoulli(0.5) ? period * setup.uniform_int(1, 30)
                                              : setup.uniform_int(1, 3000)};
        sim.queue().run_until(until);
        const auto more = setup.uniform_int(0, 8);
        for (std::int64_t i = 0; i < more; ++i) {
            issue(setup.bernoulli(0.5) ? sim.now() : sim.now() + window_instant(4), 0);
        }
    }
    sim.queue().run_all();

    trace.attempts = rach.total_attempts();
    trace.collisions = rach.total_collisions();
    trace.failures = rach.total_failures();
    trace.rng_state = rach.rng().save_state();
    trace.end_time = sim.now().count();
    return trace;
}

TEST(RachCalendarProperty, TraceIdenticalToPerRetryEventReference) {
    std::uint64_t retries_seen = 0;
    for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
        const Trace reference = run_script<ReferenceRachChannel>(seed);
        const Trace calendar = run_script<RachChannel>(seed);
        ASSERT_EQ(calendar.records, reference.records) << "seed=" << seed;
        ASSERT_EQ(calendar, reference) << "seed=" << seed;
        retries_seen += reference.collisions - reference.failures;
    }
    // The battery must actually exercise retries, not only first attempts.
    EXPECT_GT(retries_seen, 20'000u) << retries_seen;
}

/// 2,000 requesters paged at once onto 4 preambles: a storm in which
/// nearly every attempt collides.
template <typename Channel>
std::pair<std::uint64_t, std::uint64_t> storm_events_and_attempts() {
    sim::Simulation sim{2024};
    RachConfig config;
    config.num_preambles = 4;
    Channel rach(sim, config, sim.stream("rach"));
    for (int i = 0; i < 2000; ++i) rach.request(SimTime{0}, [](const RachOutcome&) {});
    sim.queue().run_all();
    return {sim.queue().executed(), rach.total_attempts()};
}

TEST(RachCalendarWorkCount, StormEventsDoNotScaleWithRetries) {
    const auto [reference_events, reference_attempts] =
        storm_events_and_attempts<ReferenceRachChannel>();
    const auto [events, attempts] = storm_events_and_attempts<RachChannel>();
    // Every requester exhausts its 10 attempts: 18,000 retries.
    EXPECT_EQ(attempts, reference_attempts);
    EXPECT_EQ(attempts, 20'000u);
    // Per-retry events: one per retry plus one resolve per window.  The
    // calendar: one resolve per window plus at most one opener each.
    EXPECT_EQ(reference_events, 18'056u);
    EXPECT_EQ(events, 111u);
}

}  // namespace
}  // namespace nbmg::nbiot
