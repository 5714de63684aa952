// Slotted NPRACH contention model.
//
// Random access opportunities repeat every `window_period` (NPRACH
// periodicity).  Each requester picks one of `num_preambles` subcarriers
// uniformly at random; a preamble chosen by exactly one requester succeeds,
// otherwise everyone on that preamble collides, backs off uniformly in
// [0, backoff_max] and retries.  Collision is detected only after the full
// msg1-msg4 exchange (contention resolution), which is what costs energy.
//
// The model is deliberately at the abstraction level the paper uses: it
// produces per-device RA latency and active (powered-up) time, including
// the effect of many devices doing RA inside the same TI window.
//
// Retries cost no events.  The channel keeps a calendar of NPRACH windows
// (a map from window start to the window's entrants; background load
// enrolls arbitrarily far ahead); a collided entrant is appended straight
// into the window it will contend in, so each window costs one resolve
// event however many retries it holds.  Results are bit for bit those of
// a model where each retry is its own queue event that enrolls when it
// fires (tests/nbiot/rach_calendar_property_test.cpp keeps that model as
// its reference), by three rules:
//  - keys: every entrant carries the (time, seq) of the moment it enrolled
//    in the event queue's firing order.  A request() takes the executing
//    event's key (EventQueue::current_seq()); a retry "fires" at
//    resolution + backoff under a seq reserved at resolve time
//    (EventQueue::reserve_seqs), numbered as one schedule_batch of retry
//    events would be.  A window resolves its entrants in key order, the
//    order such events would have enrolled them in, so the preamble and
//    backoff RNG draws follow;
//  - openers: a window's resolve event is scheduled when its first entrant
//    enrolls, which fixes the resolve's own seq.  A real request schedules
//    it directly.  For a retry, an opener event sits at the earliest
//    retry's key under that retry's reserved seq
//    (EventQueue::schedule_reserved) and schedules the resolve when it
//    fires; it moves to an earlier retry when one arrives and is cancelled
//    when a real request comes first;
//  - late retries: a retry keyed at the window instant but after the
//    resolve event enrolls after the resolve ran.  It stays in the window,
//    behind a fresh opener, for another resolve at the same instant.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "nbiot/types.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "sim/small_function.hpp"

namespace nbmg::nbiot {

struct RachConfig {
    SimTime window_period{160};    // NPRACH periodicity
    int num_preambles = 48;        // NPRACH subcarriers usable for contention
    int max_attempts = 10;         // preambleTransMax
    SimTime backoff_max{960};      // uniform backoff upper bound after collision
    SimTime preamble_duration{6};  // NPRACH format 1, ~5.6 ms
    SimTime rar_delay{40};         // RAR window
    SimTime msg3_delay{40};        // RRC request transmission + processing
    SimTime msg4_delay{50};        // contention resolution

    /// Active air-interface time of one full attempt (success or collision).
    [[nodiscard]] SimTime attempt_active_time() const noexcept {
        return preamble_duration + rar_delay + msg3_delay + msg4_delay;
    }

    /// A negative backoff bound or timing field would draw from an empty
    /// range or schedule retries before the collision that caused them.
    [[nodiscard]] bool valid() const noexcept {
        return window_period.count() > 0 && num_preambles > 0 && max_attempts > 0 &&
               backoff_max.count() >= 0 && preamble_duration.count() >= 0 &&
               rar_delay.count() >= 0 && msg3_delay.count() >= 0 &&
               msg4_delay.count() >= 0;
    }

    friend bool operator==(const RachConfig&, const RachConfig&) = default;
};

struct RachOutcome {
    bool success = false;
    SimTime completed_at{0};  // time of contention resolution (or final failure)
    int attempts = 0;
    SimTime active_time{0};  // total powered-up time across attempts
};

/// Shared random-access channel of the cell.
class RachChannel {
public:
    // Small-buffer callable: the UE's completion closure (a `this` plus a
    // nested continuation) stays inline, so a RA request never allocates.
    using Callback = sim::SmallFunction<void(const RachOutcome&), 48>;

    RachChannel(sim::Simulation& simulation, RachConfig config, sim::RandomStream rng);

    /// Starts a random-access procedure no earlier than `earliest`.
    /// `done` fires exactly once, at msg4 time on success or after the
    /// final failed attempt.
    void request(SimTime earliest, Callback done);

    /// Adds background RA load: `arrivals_per_second` Poisson arrivals until
    /// `until`.  Background attempts occupy preambles but report to no one.
    void inject_background_load(double arrivals_per_second, SimTime until);

    /// Diagnostics.
    [[nodiscard]] std::uint64_t total_attempts() const noexcept { return total_attempts_; }
    [[nodiscard]] std::uint64_t total_collisions() const noexcept { return total_collisions_; }
    [[nodiscard]] std::uint64_t total_failures() const noexcept { return total_failures_; }

    /// The channel's random stream (its position tells how many draws the
    /// channel has made).
    [[nodiscard]] const sim::RandomStream& rng() const noexcept { return rng_; }

    [[nodiscard]] const RachConfig& config() const noexcept { return config_; }

private:
    struct Procedure {
        Callback done;
        int attempts = 0;
        SimTime active_time{0};
        bool background = false;
    };

    /// One enrollment into a window, keyed by the (time, seq) of the
    /// moment it enrolled.  Equal keys (several requests from one event)
    /// keep their enrollment order.
    struct Entrant {
        std::int64_t at_ms = 0;
        std::uint64_t seq = 0;
        std::size_t proc = 0;
    };

    /// What the window has pending in the event queue.
    enum class Pending : std::uint8_t { none, opener, resolve };

    struct Window {
        std::vector<Entrant> entrants;   // enrollment order
        Pending pending = Pending::none;
        sim::EventId event;              // the pending opener or resolve
        Entrant opener;                  // key of the pending opener
    };

    /// First window start at or after `t`.
    [[nodiscard]] SimTime next_window_at_or_after(SimTime t) const noexcept;

    /// The calendar window starting at `start`, created if absent.
    Window& window_at(SimTime start);
    /// Drops the window starting at `start` once it holds nothing.
    void release_if_idle(SimTime start, const Window& window);

    void enroll(SimTime earliest, std::size_t proc_index);
    void enroll_retry(SimTime at, std::uint64_t seq, std::size_t proc_index);
    void schedule_resolve(Window& window, SimTime start);
    void schedule_opener(Window& window, SimTime start, const Entrant& key);
    void resolve_window(SimTime window_start);

    sim::Simulation* sim_;  // not owned
    RachConfig config_;
    sim::RandomStream rng_;
    std::vector<Procedure> procedures_;
    // Calendar: live windows by start time (ms).  Map nodes are stable,
    // so a Window& survives enrollments into other windows.
    std::map<std::int64_t, Window> windows_;
    // resolve_window scratch, reused across windows.
    std::vector<Entrant> resolving_;
    std::vector<Entrant> retries_;
    std::uint64_t total_attempts_ = 0;
    std::uint64_t total_collisions_ = 0;
    std::uint64_t total_failures_ = 0;
};

}  // namespace nbmg::nbiot
