#include "nbiot/rach.hpp"

#include <algorithm>
#include <stdexcept>

#include "telemetry/sink.hpp"

namespace nbmg::nbiot {
namespace {

template <typename Entrant>
bool key_before(const Entrant& a, const Entrant& b) noexcept {
    return a.at_ms != b.at_ms ? a.at_ms < b.at_ms : a.seq < b.seq;
}

/// Stable sort of `entrants` by (at_ms, seq), skipped when already in order.
template <typename Entrant>
void sort_by_key(std::vector<Entrant>& entrants) {
    const auto by_key = [](const Entrant& a, const Entrant& b) { return key_before(a, b); };
    if (!std::is_sorted(entrants.begin(), entrants.end(), by_key)) {
        std::stable_sort(entrants.begin(), entrants.end(), by_key);
    }
}

}  // namespace

RachChannel::RachChannel(sim::Simulation& simulation, RachConfig config,
                         sim::RandomStream rng)
    : sim_(&simulation), config_(config), rng_(std::move(rng)) {
    if (!config_.valid()) throw std::invalid_argument("RachChannel: invalid config");
}

SimTime RachChannel::next_window_at_or_after(SimTime t) const noexcept {
    const std::int64_t period = config_.window_period.count();
    const std::int64_t tm = std::max<std::int64_t>(t.count(), 0);
    const std::int64_t k = (tm + period - 1) / period;
    return SimTime{k * period};
}

void RachChannel::request(SimTime earliest, Callback done) {
    if (!done) throw std::invalid_argument("RachChannel::request: empty callback");
    procedures_.push_back(Procedure{std::move(done), 0, SimTime{0}, false});
    enroll(earliest, procedures_.size() - 1);
}

void RachChannel::inject_background_load(double arrivals_per_second, SimTime until) {
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

RachChannel::Window& RachChannel::window_at(SimTime start) {
    return windows_[start.count()];
}

void RachChannel::release_if_idle(SimTime start, const Window& window) {
    if (window.entrants.empty() && window.pending == Pending::none) {
        windows_.erase(start.count());
    }
}

void RachChannel::enroll(SimTime earliest, std::size_t proc_index) {
    const sim::EventQueue& queue = sim_->queue();
    const SimTime start = next_window_at_or_after(std::max(earliest, queue.now()));
    Window& window = window_at(start);
    window.entrants.push_back(Entrant{queue.now().count(), queue.current_seq(), proc_index});
    // A pending opener sits at a later key than this request, so the
    // request is the window's first enrollment and schedules the resolve.
    if (window.pending != Pending::resolve) schedule_resolve(window, start);
}

void RachChannel::enroll_retry(SimTime at, std::uint64_t seq, std::size_t proc_index) {
    const SimTime start = next_window_at_or_after(at);
    Window& window = window_at(start);
    const Entrant entrant{at.count(), seq, proc_index};
    window.entrants.push_back(entrant);
    // A scheduled resolve takes this retry (or, if it is late, leaves it
    // for the next one); otherwise the earliest retry opens the window.
    if (window.pending == Pending::resolve) return;
    if (window.pending == Pending::opener && !key_before(entrant, window.opener)) return;
    schedule_opener(window, start, entrant);
}

void RachChannel::schedule_resolve(Window& window, SimTime start) {
    sim::EventQueue& queue = sim_->queue();
    if (window.pending == Pending::opener) queue.cancel(window.event);
    window.event = queue.schedule_at(start, [this, start] { resolve_window(start); });
    window.pending = Pending::resolve;
}

void RachChannel::schedule_opener(Window& window, SimTime start, const Entrant& key) {
    sim::EventQueue& queue = sim_->queue();
    if (window.pending == Pending::opener) queue.cancel(window.event);
    // Fires where the earliest retry's own event would have, and schedules
    // the resolve exactly as that retry's enrollment did.
    window.event = queue.schedule_reserved(SimTime{key.at_ms}, key.seq, [this, start] {
        Window& opened = window_at(start);
        opened.pending = Pending::none;
        schedule_resolve(opened, start);
    });
    window.pending = Pending::opener;
    window.opener = key;
}

void RachChannel::resolve_window(SimTime window_start) {
    sim::EventQueue& queue = sim_->queue();
    {
        // Entrants keyed at this instant but after this event are late
        // retries: they would have enrolled after it, so they stay for a
        // fresh resolve at the same instant.
        Window& window = window_at(window_start);
        window.pending = Pending::none;
        const std::uint64_t resolve_seq = queue.current_seq();
        resolving_.swap(window.entrants);
        window.entrants.clear();
        std::size_t taken = 0;
        for (const Entrant& e : resolving_) {
            if (e.at_ms == window_start.count() && e.seq > resolve_seq) {
                window.entrants.push_back(e);
            } else {
                resolving_[taken++] = e;
            }
        }
        resolving_.resize(taken);
        if (!window.entrants.empty()) {
            const auto first_late = std::min_element(
                window.entrants.begin(), window.entrants.end(),
                [](const Entrant& a, const Entrant& b) { return a.seq < b.seq; });
            schedule_opener(window, window_start, *first_late);
        }
        release_if_idle(window_start, window);
    }
    if (resolving_.empty()) return;
    // Key order is the order the entrants enrolled in.
    sort_by_key(resolving_);

    // Draw preambles and find collisions.  The preamble space is dense
    // ([0, num_preambles), 48 by default), so the histogram is a plain
    // indexed vector — no hashed container anywhere near an RNG draw.
    std::vector<int> preamble_count(static_cast<std::size_t>(config_.num_preambles), 0);
    std::vector<int> choice(resolving_.size());
    for (std::size_t i = 0; i < resolving_.size(); ++i) {
        choice[i] = static_cast<int>(rng_.uniform_int(0, config_.num_preambles - 1));
        ++preamble_count[static_cast<std::size_t>(choice[i])];
    }

    const SimTime resolution = window_start + config_.attempt_active_time();
    telemetry::CampaignSink* const sink = sim_->telemetry();
    const auto window_ms = window_start.count();
    const auto entrant_count = static_cast<std::int64_t>(resolving_.size());
    // Completion callbacks may request again, growing procedures_, so the
    // callback is moved out before it runs and no Procedure& outlives it.
    const auto finish = [this](std::size_t index, const RachOutcome& outcome) {
        Procedure& proc = procedures_[index];
        if (proc.background) return;
        Callback done = std::move(proc.done);
        done(outcome);
    };
    retries_.clear();
    for (std::size_t i = 0; i < resolving_.size(); ++i) {
        const std::size_t index = resolving_[i].proc;
        Procedure& proc = procedures_[index];
        ++proc.attempts;
        ++total_attempts_;
        proc.active_time += config_.attempt_active_time();
        NBMG_TELEMETRY_EMIT(sink, telemetry::EventKind::rach_attempt, window_ms,
                            telemetry::kNoDevice, choice[i], entrant_count);

        if (preamble_count[static_cast<std::size_t>(choice[i])] == 1) {
            finish(index, RachOutcome{true, resolution, proc.attempts, proc.active_time});
            continue;
        }

        ++total_collisions_;
        NBMG_TELEMETRY_EMIT(sink, telemetry::EventKind::rach_collision, window_ms,
                            telemetry::kNoDevice, choice[i],
                            preamble_count[static_cast<std::size_t>(choice[i])]);
        if (proc.attempts >= config_.max_attempts) {
            ++total_failures_;
            NBMG_TELEMETRY_EMIT(sink, telemetry::EventKind::rach_failure, window_ms,
                                telemetry::kNoDevice, proc.attempts, entrant_count);
            finish(index, RachOutcome{false, resolution, proc.attempts, proc.active_time});
            continue;
        }
        const SimTime backoff{rng_.uniform_int(0, config_.backoff_max.count())};
        // seq holds the collision order until the block is numbered.
        retries_.push_back(Entrant{(resolution + backoff).count(), retries_.size(), index});
    }
    if (retries_.empty()) return;
    // Number the retries as one schedule_batch of their events would
    // have: time order, collision order within a millisecond.
    sort_by_key(retries_);
    const std::uint64_t first = queue.reserve_seqs(retries_.size());
    for (std::size_t i = 0; i < retries_.size(); ++i) {
        enroll_retry(SimTime{retries_[i].at_ms}, first + i, retries_[i].proc);
    }
}

}  // namespace nbmg::nbiot
