// Deterministic discrete-event queue for the NB-IoT cell simulator.
//
// Events scheduled for the same instant run in insertion order (FIFO
// tie-breaking), which makes every simulation bit-reproducible for a given
// seed.  Events are cancellable in O(1): handlers live in a slab of reusable
// slots addressed by {index, generation}, and a cancelled slot is simply
// freed (its heap entry is skipped lazily when popped, recognized by a
// stale sequence number).
//
// Handlers are stored with small-buffer optimization: callables up to
// InlineHandler::kInlineCapacity bytes (every lambda the simulator
// schedules) live inline in the slot; larger ones fall back to one heap
// allocation.  The ordering heap itself holds only 24-byte {time, seq,
// slot} entries, so sift operations never touch handler storage.
//
// Large pre-known schedules (a campaign's plan events, a stratum's
// wakeups) can be inserted as one sorted block via Batch/schedule_batch:
// the block becomes a "run lane" consumed front-to-back and merged with
// the heap on the same (time, seq) total order, so firing order is
// exactly what the equivalent sequence of schedule_at calls would
// produce — at one stable sort per block instead of N heap sifts.
//
// Reserved sequence numbers let a client keep *virtual* events — work it
// tracks itself instead of as queue events (the NPRACH channel's
// collision retries, nbiot/rach.hpp) — on the queue's total order:
// reserve_seqs(n) takes n seqs exactly as n schedule_at calls made now
// would, and schedule_reserved() later materializes one of them as a real
// event at its reserved place in the (time, seq) order (the channel's
// window "opener").  Each reserved seq backs at most one scheduled event,
// so the stale-entry check (slot seq == entry seq) stays sound.
// current_seq() tells a client where in that order it is executing.
#pragma once

#include <cassert>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/small_function.hpp"

namespace nbmg::sim {

/// Simulated time.  One subframe of the NB-IoT air interface is 1 ms, so
/// millisecond resolution captures everything the model needs.
using SimTime = std::chrono::milliseconds;

/// Identifies a scheduled event so it can be cancelled before it fires.
/// `index` addresses a slab slot; `generation` distinguishes successive
/// occupants of the same slot, so a stale id can never cancel a newer
/// event that happens to reuse its storage.
struct EventId {
    std::uint32_t index = 0;
    std::uint32_t generation = 0;

    friend bool operator==(EventId, EventId) = default;
};

/// Type-erased `void()` callable with inline storage for small targets.
/// Move-only; empty by default.  Targets larger than kInlineCapacity (or
/// over-aligned, or with a throwing move) are stored through one heap
/// allocation instead.
using InlineHandler = SmallFunction<void(), 48>;

/// Priority queue of timed events with a simulated clock.
///
/// Invariants:
///  - `now()` never decreases;
///  - events never fire earlier than their scheduled time;
///  - equal-time events fire in the order they were scheduled.
class EventQueue {
public:
    using Handler = InlineHandler;

    EventQueue() = default;
    explicit EventQueue(SimTime start) : now_(start) {}

    EventQueue(const EventQueue&) = delete;
    EventQueue& operator=(const EventQueue&) = delete;

    /// Current simulated time.
    [[nodiscard]] SimTime now() const noexcept { return now_; }

    /// Schedules `handler` to run at absolute time `at`.  Scheduling in the
    /// past (before `now()`) is a programming error.
    EventId schedule_at(SimTime at, Handler handler);

    /// Schedules `handler` to run `delay` after the current time.
    EventId schedule_after(SimTime delay, Handler handler);

    /// Order-preserving builder for schedule_batch(): accumulate timed
    /// handlers, then insert them all as one pre-sorted block.
    class Batch {
    public:
        /// Appends a handler to fire at absolute time `at` (validated
        /// against now() when the batch is scheduled, not here).
        void add(SimTime at, Handler handler);
        void reserve(std::size_t n) { items_.reserve(n); }
        [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
        [[nodiscard]] bool empty() const noexcept { return items_.empty(); }

    private:
        friend class EventQueue;
        struct Item {
            SimTime at;
            Handler handler;
        };
        std::vector<Item> items_;
    };

    /// Schedules every item of `batch` as one sorted run lane: one stable
    /// sort over the block plus O(1) per event at pop time, instead of N
    /// heap sifts.  Firing order is exactly what the equivalent sequence
    /// of schedule_at calls (in add order) would produce — lanes and the
    /// heap merge on the same (time, seq) total order, and sequence
    /// numbers are assigned so equal-time batch events keep their add
    /// order.  Any item before now() is a programming error.  Consumes
    /// the batch; returns the number of events scheduled.
    std::size_t schedule_batch(Batch&& batch);

    /// Takes `n` sequence numbers exactly as `n` events scheduled now
    /// would, without scheduling anything; returns the first of the block
    /// [first, first + n).  A caller that keeps virtual events gives each
    /// one of these seqs, so it ties against real events at equal times
    /// exactly as the events themselves would have.
    std::uint64_t reserve_seqs(std::size_t n) noexcept {
        const std::uint64_t first = next_seq_;
        next_seq_ += n;
        return first;
    }

    /// Schedules `handler` at `at` under `seq`, a number previously taken
    /// by reserve_seqs(): it fires where an event scheduled at the moment
    /// of reservation would have.  The caller backs each reserved seq with
    /// at most one event (cancelled events included).  A time before
    /// now() or a seq never handed out is a programming error.
    EventId schedule_reserved(SimTime at, std::uint64_t seq, Handler handler);

    /// Sequence number of the event executing now.  Between events it is
    /// the seq of the last event run, except after run_until(): that has
    /// run every event up to its bound, so it reports the highest seq
    /// handed out so far.  0 before anything ran.  Together with now() it
    /// places a caller in the (time, seq) firing order: everything at an
    /// earlier time, or at now() with a seq up to this one, has fired.
    [[nodiscard]] std::uint64_t current_seq() const noexcept { return current_seq_; }

    /// Cancels a pending event in O(1).  Returns false if the event already
    /// fired, was already cancelled, or never existed.
    bool cancel(EventId id);

    /// Runs the earliest pending event.  Returns false when the queue is
    /// empty (time does not advance in that case).
    bool step();

    /// Runs every event scheduled strictly before or at `until`, then
    /// advances the clock to `until`.  Returns the number of events run.
    std::size_t run_until(SimTime until);

    /// Runs events until the queue drains or `max_events` have run.
    /// Returns the number of events run.
    std::size_t run_all(std::size_t max_events = kDefaultEventBudget);

    /// One live pending event as reported by pending_events().
    struct PendingEvent {
        EventId id;
        SimTime at{0};
        std::uint64_t seq = 0;  // global scheduling order (FIFO tie-break)

        friend bool operator==(const PendingEvent&, const PendingEvent&) = default;
    };

    /// Snapshot of every live (non-cancelled) event in deterministic slab
    /// order: ascending slot index, each live slot exactly once.  The order
    /// depends only on the scheduling history, never on heap shape or lane
    /// compaction, so two queues built by the same call sequence report
    /// identical snapshots.  O(pending log pending) — introspection and
    /// serialization only, not for the hot loop.
    [[nodiscard]] std::vector<PendingEvent> pending_events() const;

    /// Number of pending (non-cancelled) events.
    [[nodiscard]] std::size_t pending() const noexcept { return pending_; }

    [[nodiscard]] bool empty() const noexcept { return pending_ == 0; }

    /// Total events executed since construction (diagnostics).
    [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

    /// Default safety budget for run_all(); generous enough for every
    /// experiment in this repository, small enough to catch runaway loops.
    static constexpr std::size_t kDefaultEventBudget = 500'000'000;

private:
    /// One slab cell.  `seq == 0` marks the slot free; a live slot keeps
    /// the globally unique sequence number of its occupant, which the heap
    /// entry must match to be considered live.
    struct Slot {
        Handler handler;
        std::uint64_t seq = 0;
        std::uint32_t generation = 0;
    };
    /// Heap entries carry no handler: 24 bytes, moved freely during sifts.
    struct HeapEntry {
        SimTime at;
        std::uint64_t seq = 0;  // FIFO tie-break + staleness check
        std::uint32_t slot = 0;
    };

    /// 4-ary min-heap on (at, seq).  The comparator is a total order (seq
    /// is unique), so the pop sequence is independent of heap shape or
    /// arity — switching from the binary std::priority_queue changes only
    /// the constant factor (half the levels, cache-friendlier sifts), not
    /// the order in which events fire.
    class EventHeap {
    public:
        [[nodiscard]] bool empty() const noexcept { return v_.empty(); }
        [[nodiscard]] const HeapEntry& top() const noexcept { return v_.front(); }
        /// Raw entry storage (heap order, may contain stale entries) for
        /// pending_events()'s slab-order walk.
        [[nodiscard]] const std::vector<HeapEntry>& entries() const noexcept {
            return v_;
        }
        void push(const HeapEntry& e);
        void pop();

    private:
        static constexpr std::size_t kArity = 4;
        static bool before(const HeapEntry& a, const HeapEntry& b) noexcept {
            if (a.at != b.at) return a.at < b.at;
            return a.seq < b.seq;
        }

        std::vector<HeapEntry> v_;
    };

    /// One schedule_batch block: entries sorted by (at, seq), consumed
    /// front-to-back through `cursor`; exhausted lanes are dropped by
    /// find_best().
    struct Run {
        std::vector<HeapEntry> entries;
        std::size_t cursor = 0;
    };

    // Source tags for find_best().
    static constexpr int kSourceNone = -2;
    static constexpr int kSourceHeap = -1;

    [[nodiscard]] std::uint32_t acquire_slot();
    /// Fills a fresh slot for `handler` under `seq` and pushes its heap
    /// entry at `at`.
    EventId place(SimTime at, std::uint64_t seq, Handler handler);
    void release_slot(std::uint32_t index) noexcept;

    // Pops entries whose slot was cancelled/reused off the top; returns
    // false when drained.
    bool skip_stale();

    /// Skips stale entries on the heap and every run lane, compacts away
    /// exhausted lanes, and returns where the globally earliest live
    /// event sits: kSourceHeap, a lane index, or kSourceNone when
    /// drained.
    int find_best();

    EventHeap heap_;
    std::vector<Run> runs_;
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> free_slots_;
    SimTime now_{0};
    std::uint64_t next_seq_ = 1;
    std::uint64_t current_seq_ = 0;
    std::uint64_t executed_ = 0;
    std::size_t pending_ = 0;
};

}  // namespace nbmg::sim
