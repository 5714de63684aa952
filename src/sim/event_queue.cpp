#include "sim/event_queue.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace nbmg::sim {

void EventQueue::EventHeap::push(const HeapEntry& e) {
    // Hole insertion: move ancestors down into the hole and place the new
    // entry once, instead of swapping at every level.
    std::size_t i = v_.size();
    v_.push_back(e);
    while (i > 0) {
        const std::size_t parent = (i - 1) / kArity;
        if (!before(e, v_[parent])) break;
        v_[i] = v_[parent];
        i = parent;
    }
    v_[i] = e;
}

void EventQueue::EventHeap::pop() {
    const HeapEntry last = v_.back();
    v_.pop_back();
    if (v_.empty()) return;
    // Sift the former last element down from the root.
    std::size_t i = 0;
    const std::size_t n = v_.size();
    for (;;) {
        const std::size_t first_child = i * kArity + 1;
        if (first_child >= n) break;
        std::size_t best = first_child;
        const std::size_t end = std::min(first_child + kArity, n);
        for (std::size_t c = first_child + 1; c < end; ++c) {
            if (before(v_[c], v_[best])) best = c;
        }
        if (!before(v_[best], last)) break;
        v_[i] = v_[best];
        i = best;
    }
    v_[i] = last;
}

std::uint32_t EventQueue::acquire_slot() {
    if (!free_slots_.empty()) {
        const std::uint32_t index = free_slots_.back();
        free_slots_.pop_back();
        return index;
    }
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t index) noexcept {
    Slot& slot = slots_[index];
    slot.handler.reset();
    slot.seq = 0;
    free_slots_.push_back(index);
    --pending_;
}

EventId EventQueue::schedule_at(SimTime at, Handler handler) {
    if (at < now_) {
        throw std::logic_error("EventQueue::schedule_at: time in the past");
    }
    if (!handler) {
        throw std::invalid_argument("EventQueue::schedule_at: empty handler");
    }
    return place(at, next_seq_++, std::move(handler));
}

EventId EventQueue::schedule_reserved(SimTime at, std::uint64_t seq, Handler handler) {
    if (at < now_) {
        throw std::logic_error("EventQueue::schedule_reserved: time in the past");
    }
    if (seq == 0 || seq >= next_seq_) {
        throw std::logic_error("EventQueue::schedule_reserved: seq was never reserved");
    }
    if (!handler) {
        throw std::invalid_argument("EventQueue::schedule_reserved: empty handler");
    }
    return place(at, seq, std::move(handler));
}

EventId EventQueue::place(SimTime at, std::uint64_t seq, Handler handler) {
    const std::uint32_t index = acquire_slot();
    Slot& slot = slots_[index];
    slot.handler = std::move(handler);
    slot.seq = seq;
    ++slot.generation;  // live ids always have generation >= 1
    ++pending_;
    heap_.push(HeapEntry{at, seq, index});
    return EventId{index, slot.generation};
}

EventId EventQueue::schedule_after(SimTime delay, Handler handler) {
    if (delay < SimTime{0}) {
        throw std::logic_error("EventQueue::schedule_after: negative delay");
    }
    return schedule_at(now_ + delay, std::move(handler));
}

void EventQueue::Batch::add(SimTime at, Handler handler) {
    if (!handler) {
        throw std::invalid_argument("EventQueue::Batch::add: empty handler");
    }
    items_.push_back(Item{at, std::move(handler)});
}

std::size_t EventQueue::schedule_batch(Batch&& batch) {
    std::vector<Batch::Item>& items = batch.items_;
    if (items.empty()) return 0;
    for (const Batch::Item& item : items) {
        if (item.at < now_) {
            throw std::logic_error("EventQueue::schedule_batch: time in the past");
        }
    }
    // Stable sort keeps add order inside equal-time groups; assigning
    // sequence numbers along the sorted order then makes seq ascend with
    // add order within each group — the exact tie-break schedule_at would
    // have produced.
    std::vector<std::uint32_t> order(items.size());
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [&items](std::uint32_t a, std::uint32_t b) {
                         return items[a].at < items[b].at;
                     });
    Run run;
    run.entries.reserve(items.size());
    for (const std::uint32_t i : order) {
        const std::uint64_t seq = next_seq_++;
        const std::uint32_t index = acquire_slot();
        Slot& slot = slots_[index];
        slot.handler = std::move(items[i].handler);
        slot.seq = seq;
        ++slot.generation;
        ++pending_;
        run.entries.push_back(HeapEntry{items[i].at, seq, index});
    }
    const std::size_t scheduled = run.entries.size();
    runs_.push_back(std::move(run));
    items.clear();
    return scheduled;
}

bool EventQueue::cancel(EventId id) {
    // Ids of events that already fired point at a freed (seq == 0) or
    // reused (generation bumped) slot, so a stale cancel is a no-op.
    if (id.index >= slots_.size()) return false;
    Slot& slot = slots_[id.index];
    if (slot.seq == 0 || slot.generation != id.generation) return false;
    release_slot(id.index);  // the heap entry goes stale and is skipped later
    return true;
}

bool EventQueue::skip_stale() {
    while (!heap_.empty()) {
        const HeapEntry& top = heap_.top();
        if (slots_[top.slot].seq == top.seq) return true;
        heap_.pop();
    }
    return false;
}

int EventQueue::find_best() {
    const HeapEntry* best = nullptr;
    int src = kSourceNone;
    if (skip_stale()) {
        best = &heap_.top();
        src = kSourceHeap;
    }
    std::size_t kept = 0;
    for (std::size_t r = 0; r < runs_.size(); ++r) {
        Run& run = runs_[r];
        while (run.cursor < run.entries.size()) {
            const HeapEntry& head = run.entries[run.cursor];
            if (slots_[head.slot].seq == head.seq) break;
            ++run.cursor;  // cancelled or reused: skip lazily, like the heap
        }
        if (run.cursor == run.entries.size()) continue;  // exhausted: drop
        const HeapEntry& head = run.entries[run.cursor];
        if (best == nullptr || head.at < best->at ||
            (head.at == best->at && head.seq < best->seq)) {
            best = &head;
            src = static_cast<int>(kept);
        }
        // Compaction moves the Run object, not its entries buffer, so
        // `best` stays valid.
        if (kept != r) runs_[kept] = std::move(runs_[r]);
        ++kept;
    }
    runs_.resize(kept);
    return src;
}

std::vector<EventQueue::PendingEvent> EventQueue::pending_events() const {
    std::vector<PendingEvent> live;
    live.reserve(pending_);
    // Each live slot has exactly one matching entry across the heap and the
    // run lanes (sequence numbers are globally unique and never reused), so
    // collecting seq-matching entries visits every pending event once.
    const auto collect = [&](const HeapEntry& e) {
        const Slot& slot = slots_[e.slot];
        if (slot.seq != e.seq) return;  // cancelled or reused: stale entry
        live.push_back(PendingEvent{EventId{e.slot, slot.generation}, e.at, e.seq});
    };
    for (const HeapEntry& e : heap_.entries()) collect(e);
    for (const Run& run : runs_) {
        for (std::size_t i = run.cursor; i < run.entries.size(); ++i) {
            collect(run.entries[i]);
        }
    }
    std::sort(live.begin(), live.end(),
              [](const PendingEvent& a, const PendingEvent& b) {
                  return a.id.index < b.id.index;
              });
    assert(live.size() == pending_);
    return live;
}

bool EventQueue::step() {
    const int src = find_best();
    if (src == kSourceNone) return false;
    HeapEntry top;
    if (src == kSourceHeap) {
        top = heap_.top();
        heap_.pop();
    } else {
        Run& run = runs_[static_cast<std::size_t>(src)];
        top = run.entries[run.cursor++];
    }
    // Move the handler out before running it: the handler may schedule new
    // events, which can reuse this slot or grow the slab.
    Handler handler = std::move(slots_[top.slot].handler);
    release_slot(top.slot);
    now_ = top.at;
    current_seq_ = top.seq;
    ++executed_;
    handler();
    return true;
}

std::size_t EventQueue::run_until(SimTime until) {
    std::size_t n = 0;
    for (;;) {
        const int src = find_best();
        if (src == kSourceNone) break;
        const HeapEntry& head =
            src == kSourceHeap
                ? heap_.top()
                : runs_[static_cast<std::size_t>(src)]
                      .entries[runs_[static_cast<std::size_t>(src)].cursor];
        if (head.at > until) break;
        step();
        ++n;
    }
    if (now_ <= until) {
        now_ = until;
        current_seq_ = next_seq_ - 1;  // everything up to `until` has run
    }
    return n;
}

std::size_t EventQueue::run_all(std::size_t max_events) {
    std::size_t n = 0;
    while (n < max_events && step()) ++n;
    return n;
}

}  // namespace nbmg::sim
