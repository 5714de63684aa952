#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/random.hpp"

namespace nbmg::sim {
namespace {

using std::chrono::milliseconds;

TEST(EventQueueTest, StartsAtTimeZeroAndEmpty) {
    EventQueue q;
    EXPECT_EQ(q.now(), SimTime{0});
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueueTest, CustomStartTime) {
    EventQueue q{SimTime{5000}};
    EXPECT_EQ(q.now(), SimTime{5000});
}

TEST(EventQueueTest, RunsEventAtScheduledTime) {
    EventQueue q;
    SimTime fired{-1};
    q.schedule_at(SimTime{42}, [&] { fired = q.now(); });
    EXPECT_TRUE(q.step());
    EXPECT_EQ(fired, SimTime{42});
    EXPECT_EQ(q.now(), SimTime{42});
}

TEST(EventQueueTest, ScheduleAfterUsesCurrentTime) {
    EventQueue q;
    q.schedule_at(SimTime{10}, [&] {
        q.schedule_after(SimTime{5}, [] {});
    });
    q.step();
    EXPECT_EQ(q.pending(), 1u);
    q.step();
    EXPECT_EQ(q.now(), SimTime{15});
}

TEST(EventQueueTest, EventsRunInTimeOrder) {
    EventQueue q;
    std::vector<int> order;
    q.schedule_at(SimTime{30}, [&] { order.push_back(3); });
    q.schedule_at(SimTime{10}, [&] { order.push_back(1); });
    q.schedule_at(SimTime{20}, [&] { order.push_back(2); });
    q.run_all();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EqualTimeEventsRunFifo) {
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i) {
        q.schedule_at(SimTime{100}, [&order, i] { order.push_back(i); });
    }
    q.run_all();
    ASSERT_EQ(order.size(), 16u);
    for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueueTest, HandlerMayScheduleMoreEvents) {
    EventQueue q;
    int count = 0;
    std::function<void()> chain = [&] {
        if (++count < 5) q.schedule_after(SimTime{1}, chain);
    };
    q.schedule_at(SimTime{0}, chain);
    q.run_all();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(q.now(), SimTime{4});
}

TEST(EventQueueTest, SchedulingInThePastThrows) {
    EventQueue q;
    q.schedule_at(SimTime{10}, [] {});
    q.step();
    EXPECT_THROW(q.schedule_at(SimTime{5}, [] {}), std::logic_error);
}

TEST(EventQueueTest, NegativeDelayThrows) {
    EventQueue q;
    EXPECT_THROW(q.schedule_after(SimTime{-1}, [] {}), std::logic_error);
}

TEST(EventQueueTest, EmptyHandlerThrows) {
    EventQueue q;
    EXPECT_THROW(q.schedule_at(SimTime{1}, EventQueue::Handler{}),
                 std::invalid_argument);
}

TEST(EventQueueTest, CancelPreventsExecution) {
    EventQueue q;
    bool ran = false;
    const EventId id = q.schedule_at(SimTime{10}, [&] { ran = true; });
    EXPECT_TRUE(q.cancel(id));
    q.run_all();
    EXPECT_FALSE(ran);
}

TEST(EventQueueTest, CancelTwiceReturnsFalse) {
    EventQueue q;
    const EventId id = q.schedule_at(SimTime{10}, [] {});
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueueTest, CancelAfterExecutionReturnsFalse) {
    EventQueue q;
    const EventId id = q.schedule_at(SimTime{10}, [] {});
    q.step();
    EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueueTest, CancelUnknownIdReturnsFalse) {
    EventQueue q;
    EXPECT_FALSE(q.cancel(EventId{9999}));
    EXPECT_FALSE(q.cancel(EventId{0}));
}

TEST(EventQueueTest, CancelledEventsDoNotAdvanceClock) {
    EventQueue q;
    const EventId id = q.schedule_at(SimTime{10}, [] {});
    q.schedule_at(SimTime{20}, [] {});
    q.cancel(id);
    q.step();
    EXPECT_EQ(q.now(), SimTime{20});
}

TEST(EventQueueTest, PendingCountTracksScheduleAndCancel) {
    EventQueue q;
    const EventId a = q.schedule_at(SimTime{1}, [] {});
    q.schedule_at(SimTime{2}, [] {});
    EXPECT_EQ(q.pending(), 2u);
    q.cancel(a);
    EXPECT_EQ(q.pending(), 1u);
    q.step();
    EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueueTest, RunUntilRunsInclusiveBoundary) {
    EventQueue q;
    int ran = 0;
    q.schedule_at(SimTime{10}, [&] { ++ran; });
    q.schedule_at(SimTime{20}, [&] { ++ran; });
    q.schedule_at(SimTime{21}, [&] { ++ran; });
    EXPECT_EQ(q.run_until(SimTime{20}), 2u);
    EXPECT_EQ(ran, 2);
    EXPECT_EQ(q.now(), SimTime{20});
}

TEST(EventQueueTest, RunUntilAdvancesClockWithoutEvents) {
    EventQueue q;
    EXPECT_EQ(q.run_until(SimTime{500}), 0u);
    EXPECT_EQ(q.now(), SimTime{500});
}

TEST(EventQueueTest, RunAllRespectsBudget) {
    EventQueue q;
    std::function<void()> forever = [&] { q.schedule_after(SimTime{1}, forever); };
    q.schedule_at(SimTime{0}, forever);
    EXPECT_EQ(q.run_all(100), 100u);
    EXPECT_FALSE(q.empty());
}

TEST(EventQueueTest, StepOnEmptyQueueReturnsFalse) {
    EventQueue q;
    EXPECT_FALSE(q.step());
    EXPECT_EQ(q.now(), SimTime{0});
}

TEST(EventQueueTest, ExecutedCounterCounts) {
    EventQueue q;
    for (int i = 0; i < 7; ++i) q.schedule_at(SimTime{i}, [] {});
    q.run_all();
    EXPECT_EQ(q.executed(), 7u);
}

TEST(EventQueueTest, PendingEventsListsLiveEventsInSlabOrder) {
    EventQueue q;
    const EventId a = q.schedule_at(SimTime{30}, [] {});
    const EventId b = q.schedule_at(SimTime{10}, [] {});
    const EventId c = q.schedule_at(SimTime{20}, [] {});
    const auto pending = q.pending_events();
    ASSERT_EQ(pending.size(), 3u);
    // Slab order (ascending slot index) == scheduling order here, NOT time
    // order: introspection must not depend on heap internals.
    EXPECT_EQ(pending[0].id, a);
    EXPECT_EQ(pending[0].at, SimTime{30});
    EXPECT_EQ(pending[1].id, b);
    EXPECT_EQ(pending[1].at, SimTime{10});
    EXPECT_EQ(pending[2].id, c);
    EXPECT_LT(pending[0].id.index, pending[1].id.index);
    EXPECT_LT(pending[1].id.index, pending[2].id.index);
}

TEST(EventQueueTest, PendingEventsSkipsCancelledAndExecuted) {
    EventQueue q;
    const EventId a = q.schedule_at(SimTime{10}, [] {});
    const EventId b = q.schedule_at(SimTime{20}, [] {});
    q.schedule_at(SimTime{30}, [] {});
    q.cancel(b);
    q.step();  // executes a
    const auto pending = q.pending_events();
    ASSERT_EQ(pending.size(), 1u);
    EXPECT_EQ(pending[0].at, SimTime{30});
    EXPECT_NE(pending[0].id, a);
    EXPECT_NE(pending[0].id, b);
    EXPECT_EQ(pending.size(), q.pending());
}

TEST(EventQueueTest, PendingEventsCoversBatchLanes) {
    EventQueue q;
    q.schedule_at(SimTime{5}, [] {});
    EventQueue::Batch batch;
    batch.add(SimTime{15}, [] {});
    batch.add(SimTime{25}, [] {});
    q.schedule_batch(std::move(batch));
    q.step();  // drain the heap-side event; lane events stay pending
    const auto pending = q.pending_events();
    ASSERT_EQ(pending.size(), 2u);
    EXPECT_EQ(pending[0].at, SimTime{15});
    EXPECT_EQ(pending[1].at, SimTime{25});
    EXPECT_LT(pending[0].id.index, pending[1].id.index);
}

TEST(EventQueueTest, PendingEventsTraceIdenticalForIdenticalHistories) {
    // Two queues driven by the same scripted scheduling history expose
    // identical pending-event sequences at every observation point —
    // the introspection order is a pure function of the history.
    auto observe = [](std::uint64_t seed) {
        EventQueue q;
        RandomStream rng{seed};
        std::vector<EventId> ids;
        std::vector<std::vector<EventQueue::PendingEvent>> observations;
        for (int round = 0; round < 20; ++round) {
            for (int i = 0; i < 10; ++i) {
                ids.push_back(
                    q.schedule_at(SimTime{q.now().count() +
                                          rng.uniform_int(0, 50)},
                                  [] {}));
            }
            if (!ids.empty() && rng.bernoulli(0.5)) {
                const auto pick = static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(ids.size()) - 1));
                (void)q.cancel(ids[pick]);
            }
            (void)q.run_until(q.now() + SimTime{rng.uniform_int(0, 25)});
            observations.push_back(q.pending_events());
        }
        return observations;
    };
    for (const std::uint64_t seed : {11u, 222u, 3333u}) {
        EXPECT_EQ(observe(seed), observe(seed)) << "seed=" << seed;
    }
}

TEST(EventQueueTest, ManyEventsStressOrdering) {
    EventQueue q;
    SimTime last{-1};
    bool monotone = true;
    for (int i = 0; i < 5000; ++i) {
        // Deterministic pseudo-scatter.
        const auto t = SimTime{(i * 7919) % 1000};
        q.schedule_at(t, [&, t] {
            if (q.now() < last) monotone = false;
            last = q.now();
        });
    }
    q.run_all();
    EXPECT_TRUE(monotone);
    EXPECT_EQ(q.executed(), 5000u);
}

TEST(EventQueueTest, CancelDuringHandlerOfSameTime) {
    EventQueue q;
    bool second_ran = false;
    EventId second{};
    q.schedule_at(SimTime{10}, [&] { q.cancel(second); });
    second = q.schedule_at(SimTime{10}, [&] { second_ran = true; });
    q.run_all();
    EXPECT_FALSE(second_ran);
}

TEST(EventQueueTest, StaleIdCannotCancelSlotReuser) {
    EventQueue q;
    const EventId a = q.schedule_at(SimTime{10}, [] {});
    ASSERT_TRUE(q.cancel(a));
    // The freed slot is reused by the next event; the stale id must not
    // reach the new occupant.
    bool b_ran = false;
    const EventId b = q.schedule_at(SimTime{20}, [&] { b_ran = true; });
    EXPECT_EQ(b.index, a.index);  // slab reuses LIFO
    EXPECT_NE(b.generation, a.generation);
    EXPECT_FALSE(q.cancel(a));
    q.run_all();
    EXPECT_TRUE(b_ran);
}

TEST(EventQueueTest, OversizedHandlerFallsBackToHeap) {
    EventQueue q;
    std::array<char, 4 * InlineHandler::kInlineCapacity> big{};
    big[0] = 1;
    big[big.size() - 1] = 2;
    int sum = 0;
    q.schedule_at(SimTime{5}, [big, &sum] { sum = big[0] + big[big.size() - 1]; });
    q.run_all();
    EXPECT_EQ(sum, 3);
}

TEST(EventQueueTest, InlineHandlerMoveTransfersTarget) {
    int calls = 0;
    InlineHandler a = [&calls] { ++calls; };
    InlineHandler b = std::move(a);
    EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
    ASSERT_TRUE(static_cast<bool>(b));
    b();
    EXPECT_EQ(calls, 1);
}

TEST(EventQueueBatchTest, EmptyBatchSchedulesNothing) {
    EventQueue q;
    EXPECT_EQ(q.schedule_batch(EventQueue::Batch{}), 0u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueBatchTest, BatchEventsRunInTimeThenAddOrder) {
    EventQueue q;
    std::vector<int> order;
    EventQueue::Batch batch;
    batch.add(SimTime{30}, [&] { order.push_back(3); });
    batch.add(SimTime{10}, [&] { order.push_back(1); });
    batch.add(SimTime{10}, [&] { order.push_back(2); });  // FIFO tie w/ above
    batch.add(SimTime{40}, [&] { order.push_back(4); });
    EXPECT_EQ(q.schedule_batch(std::move(batch)), 4u);
    EXPECT_EQ(q.pending(), 4u);
    q.run_all();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueueBatchTest, BatchAndHeapMergeOnSeqAtEqualTimes) {
    // schedule_at before the batch fires first at an equal instant;
    // schedule_at after the batch fires last — exactly as if the batch
    // items had been schedule_at calls in add order.
    EventQueue q;
    std::vector<int> order;
    q.schedule_at(SimTime{10}, [&] { order.push_back(0); });
    EventQueue::Batch batch;
    batch.add(SimTime{10}, [&] { order.push_back(1); });
    batch.add(SimTime{10}, [&] { order.push_back(2); });
    q.schedule_batch(std::move(batch));
    q.schedule_at(SimTime{10}, [&] { order.push_back(3); });
    q.run_all();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueueBatchTest, MultipleBatchLanesMerge) {
    EventQueue q;
    std::vector<int> order;
    EventQueue::Batch a;
    a.add(SimTime{5}, [&] { order.push_back(5); });
    a.add(SimTime{20}, [&] { order.push_back(20); });
    EventQueue::Batch b;
    b.add(SimTime{10}, [&] { order.push_back(10); });
    b.add(SimTime{15}, [&] { order.push_back(15); });
    q.schedule_batch(std::move(a));
    q.schedule_batch(std::move(b));
    q.run_all();
    EXPECT_EQ(order, (std::vector<int>{5, 10, 15, 20}));
}

TEST(EventQueueBatchTest, BatchHandlerMayScheduleMoreEvents) {
    EventQueue q;
    int count = 0;
    EventQueue::Batch batch;
    batch.add(SimTime{10}, [&] {
        q.schedule_after(SimTime{1}, [&] { ++count; });
    });
    q.schedule_batch(std::move(batch));
    q.run_all();
    EXPECT_EQ(count, 1);
    EXPECT_EQ(q.now(), SimTime{11});
}

TEST(EventQueueBatchTest, RunUntilHonoursLaneHeads) {
    EventQueue q;
    int ran = 0;
    EventQueue::Batch batch;
    batch.add(SimTime{10}, [&] { ++ran; });
    batch.add(SimTime{20}, [&] { ++ran; });
    batch.add(SimTime{21}, [&] { ++ran; });
    q.schedule_batch(std::move(batch));
    EXPECT_EQ(q.run_until(SimTime{20}), 2u);
    EXPECT_EQ(ran, 2);
    EXPECT_EQ(q.now(), SimTime{20});
    EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueueBatchTest, PastTimeInBatchThrows) {
    EventQueue q;
    q.schedule_at(SimTime{10}, [] {});
    q.step();
    EventQueue::Batch batch;
    batch.add(SimTime{5}, [] {});
    EXPECT_THROW(q.schedule_batch(std::move(batch)), std::logic_error);
}

TEST(EventQueueBatchTest, EmptyHandlerInBatchThrows) {
    EventQueue::Batch batch;
    EXPECT_THROW(batch.add(SimTime{1}, EventQueue::Handler{}),
                 std::invalid_argument);
}

TEST(EventQueueBatchTest, CancelBatchEventBeforeLaneReached) {
    // Cancelling a lane event after schedule_batch must be an O(1) slab
    // release: the lane entry goes stale and is skipped at its cursor.
    EventQueue q;
    std::vector<int> order;
    q.schedule_at(SimTime{5}, [&] { order.push_back(5); });
    EventQueue::Batch batch;
    batch.add(SimTime{10}, [&] { order.push_back(10); });
    batch.add(SimTime{20}, [&] { order.push_back(20); });
    batch.add(SimTime{30}, [&] { order.push_back(30); });
    q.schedule_batch(std::move(batch));
    // schedule_batch returns no ids; recover them via introspection (slab
    // order == lane sorted order here: the heap event took slot 0).
    const auto pending = q.pending_events();
    ASSERT_EQ(pending.size(), 4u);
    ASSERT_EQ(pending[2].at, SimTime{20});
    EXPECT_TRUE(q.cancel(pending[2].id));
    EXPECT_FALSE(q.cancel(pending[2].id));  // second cancel is a no-op
    EXPECT_EQ(q.pending(), 3u);
    q.run_all();
    EXPECT_EQ(order, (std::vector<int>{5, 10, 30}));
}

TEST(EventQueueBatchTest, CancelledBatchSlotReuseKeepsIdsFresh) {
    // A cancelled lane event frees its slot; the next insert (heap path)
    // reuses it with a bumped generation.  The stale lane id must not
    // cancel the new occupant, and the lane's stale entry must not
    // resurrect when the slot is live again with a different seq.
    EventQueue q;
    EventQueue::Batch batch;
    bool lane_ran = false;
    batch.add(SimTime{10}, [&] { lane_ran = true; });
    q.schedule_batch(std::move(batch));
    const auto before = q.pending_events();
    ASSERT_EQ(before.size(), 1u);
    const EventId lane_id = before[0].id;
    ASSERT_TRUE(q.cancel(lane_id));

    bool reuser_ran = false;
    const EventId reuser = q.schedule_at(SimTime{10}, [&] { reuser_ran = true; });
    EXPECT_EQ(reuser.index, lane_id.index);  // slab reuses LIFO
    EXPECT_NE(reuser.generation, lane_id.generation);
    EXPECT_FALSE(q.cancel(lane_id));  // stale id cannot reach the reuser
    q.run_all();
    EXPECT_FALSE(lane_ran);
    EXPECT_TRUE(reuser_ran);
}

TEST(EventQueueBatchTest, BatchSlotReusedByLaterBatchStaysDistinct) {
    // Slot reuse across two batch lanes: the first lane's stale entry and
    // the second lane's live entry share a slot index but not a seq, so
    // pending_events lists exactly the live one and cancellation by the
    // fresh id works.
    EventQueue q;
    EventQueue::Batch first;
    first.add(SimTime{10}, [] {});
    q.schedule_batch(std::move(first));
    const auto first_pending = q.pending_events();
    ASSERT_EQ(first_pending.size(), 1u);
    ASSERT_TRUE(q.cancel(first_pending[0].id));

    EventQueue::Batch second;
    bool second_ran = false;
    second.add(SimTime{20}, [&] { second_ran = true; });
    q.schedule_batch(std::move(second));
    const auto second_pending = q.pending_events();
    ASSERT_EQ(second_pending.size(), 1u);
    EXPECT_EQ(second_pending[0].id.index, first_pending[0].id.index);
    EXPECT_NE(second_pending[0].id.generation, first_pending[0].id.generation);
    EXPECT_EQ(second_pending[0].at, SimTime{20});
    q.run_all();
    EXPECT_TRUE(second_ran);
    EXPECT_FALSE(q.cancel(second_pending[0].id));  // already fired
}

TEST(EventQueueBatchTest, PendingEventsPinnedAfterMixedCancels) {
    // Slab-order introspection after cancels on both paths: heap events in
    // slots {0,1}, lane events in slots {2,3,4}, then cancel one of each.
    EventQueue q;
    const EventId h0 = q.schedule_at(SimTime{50}, [] {});
    const EventId h1 = q.schedule_at(SimTime{40}, [] {});
    EventQueue::Batch batch;
    batch.add(SimTime{35}, [] {});
    batch.add(SimTime{15}, [] {});
    batch.add(SimTime{25}, [] {});
    q.schedule_batch(std::move(batch));
    auto pending = q.pending_events();
    ASSERT_EQ(pending.size(), 5u);
    // Lane slots are acquired in sorted-time order: 15, 25, 35.
    EXPECT_EQ(pending[2].at, SimTime{15});
    EXPECT_EQ(pending[3].at, SimTime{25});
    EXPECT_EQ(pending[4].at, SimTime{35});
    ASSERT_TRUE(q.cancel(h0));
    ASSERT_TRUE(q.cancel(pending[3].id));  // the 25 ms lane event
    pending = q.pending_events();
    ASSERT_EQ(pending.size(), 3u);
    EXPECT_EQ(pending[0].id, h1);
    EXPECT_EQ(pending[0].at, SimTime{40});
    EXPECT_EQ(pending[1].at, SimTime{15});
    EXPECT_EQ(pending[2].at, SimTime{35});
    EXPECT_LT(pending[0].id.index, pending[1].id.index);
    EXPECT_LT(pending[1].id.index, pending[2].id.index);
    EXPECT_EQ(pending.size(), q.pending());
}

TEST(EventQueueBatchTest, CancelHeavyBatchTraceIdenticalToScheduleAtLoop) {
    // Property: batch insertion + random cancellation of BOTH lane and
    // heap events is trace-identical to the equivalent schedule_at-only
    // history (the existing trace test above never cancels lane events).
    for (const std::uint64_t seed : {13u, 404u, 31337u}) {
        auto trace = [&](bool batched) {
            EventQueue q;
            RandomStream rng{seed};
            std::vector<std::pair<int, std::int64_t>> out;
            std::vector<EventId> ids;
            for (int round = 0; round < 8; ++round) {
                for (int i = 0; i < 20; ++i) {  // heap-side contemporaries
                    const int label = round * 1000 + i;
                    ids.push_back(q.schedule_at(
                        q.now() + SimTime{rng.uniform_int(0, 60)},
                        [&out, &q, label] {
                            out.emplace_back(label, q.now().count());
                        }));
                }
                std::vector<std::pair<SimTime, int>> items;
                for (int i = 0; i < 40; ++i) {
                    items.emplace_back(q.now() + SimTime{rng.uniform_int(0, 60)},
                                       round * 1000 + 100 + i);
                }
                // Both branches register the new ids in sorted-time order
                // (stable on add order) — the order schedule_batch assigns
                // seqs along — so ids[pick] names the same logical event.
                std::stable_sort(items.begin(), items.end(),
                                 [](const auto& a, const auto& b) {
                                     return a.first < b.first;
                                 });
                if (batched) {
                    EventQueue::Batch batch;
                    for (const auto& [at, label] : items) {
                        batch.add(at, [&out, &q, label = label] {
                            out.emplace_back(label, q.now().count());
                        });
                    }
                    q.schedule_batch(std::move(batch));
                    // Recover the lane ids: seqs are globally monotonic, so
                    // the just-scheduled events hold the largest seqs among
                    // everything pending.  Ascending seq == sorted-time
                    // (add) order.
                    auto pending = q.pending_events();
                    std::sort(pending.begin(), pending.end(),
                              [](const auto& a, const auto& b) {
                                  return a.seq < b.seq;
                              });
                    EXPECT_GE(pending.size(), items.size());
                    for (std::size_t i = pending.size() - items.size();
                         i < pending.size(); ++i) {
                        ids.push_back(pending[i].id);
                    }
                } else {
                    for (const auto& [at, label] : items) {
                        ids.push_back(q.schedule_at(at, [&out, &q,
                                                         label = label] {
                            out.emplace_back(label, q.now().count());
                        }));
                    }
                }
                for (int i = 0; i < 15; ++i) {  // cancel across both paths
                    const auto pick = static_cast<std::size_t>(rng.uniform_int(
                        0, static_cast<std::int64_t>(ids.size()) - 1));
                    (void)q.cancel(ids[pick]);
                }
                (void)q.run_until(q.now() + SimTime{rng.uniform_int(10, 40)});
            }
            q.run_all();
            return out;
        };
        EXPECT_EQ(trace(true), trace(false)) << "seed=" << seed;
    }
}

TEST(EventQueueBatchTest, BatchFiringOrderIdenticalToScheduleAtLoop) {
    // Property: for scattered pseudo-random times (with plenty of ties),
    // inserting via one batch is trace-identical to the equivalent
    // schedule_at loop, including interleaved heap-side events.
    for (const std::uint64_t seed : {7u, 99u, 12345u}) {
        auto trace = [&](bool batched) {
            EventQueue q;
            RandomStream rng{seed};
            std::vector<std::pair<int, std::int64_t>> out;
            std::vector<std::pair<SimTime, int>> items;
            for (int i = 0; i < 400; ++i) {
                items.emplace_back(SimTime{rng.uniform_int(0, 60)}, i);
            }
            for (int i = 0; i < 50; ++i) {  // heap-side contemporaries
                q.schedule_at(SimTime{rng.uniform_int(0, 60)}, [&out, &q, i] {
                    out.emplace_back(10'000 + i, q.now().count());
                });
            }
            if (batched) {
                EventQueue::Batch batch;
                for (const auto& [at, label] : items) {
                    batch.add(at, [&out, &q, label = label] {
                        out.emplace_back(label, q.now().count());
                    });
                }
                q.schedule_batch(std::move(batch));
            } else {
                for (const auto& [at, label] : items) {
                    q.schedule_at(at, [&out, &q, label = label] {
                        out.emplace_back(label, q.now().count());
                    });
                }
            }
            q.run_all();
            return out;
        };
        EXPECT_EQ(trace(true), trace(false)) << "seed=" << seed;
    }
}

// ------------------------------------------------------ reserved seqs ----

TEST(EventQueueReservedTest, ReservedSeqsTieBreakFifoAgainstOrdinaryEvents) {
    EventQueue q;
    std::vector<char> order;
    q.schedule_at(SimTime{10}, [&] { order.push_back('a'); });   // seq 1
    const std::uint64_t first = q.reserve_seqs(2);                // seqs 2, 3
    EXPECT_EQ(first, 2u);
    q.schedule_at(SimTime{10}, [&] { order.push_back('d'); });   // seq 4
    // Materialized out of order, the reserved events still fire where
    // events scheduled at the moment of reservation would have.
    q.schedule_reserved(SimTime{10}, first + 1, [&] { order.push_back('c'); });
    q.schedule_reserved(SimTime{10}, first, [&] { order.push_back('b'); });
    q.schedule_at(SimTime{9}, [&] { order.push_back('0'); });    // seq 5, earlier time
    q.run_all();
    EXPECT_EQ(order, (std::vector<char>{'0', 'a', 'b', 'c', 'd'}));
    EXPECT_EQ(q.reserve_seqs(0), 6u);  // an empty block takes nothing
    EXPECT_EQ(q.reserve_seqs(1), 6u);
}

TEST(EventQueueReservedTest, ReservedBlockMatchesScheduleAtNumbering) {
    // The same history with the middle events scheduled directly and with
    // their seqs reserved first: identical pending snapshots (seq and time).
    const auto snapshot = [](bool reserved) {
        EventQueue q;
        q.schedule_at(SimTime{5}, [] {});
        if (reserved) {
            const std::uint64_t first = q.reserve_seqs(3);
            q.schedule_at(SimTime{5}, [] {});
            for (std::uint64_t i = 0; i < 3; ++i) {
                q.schedule_reserved(SimTime{7}, first + i, [] {});
            }
        } else {
            for (int i = 0; i < 3; ++i) q.schedule_at(SimTime{7}, [] {});
            q.schedule_at(SimTime{5}, [] {});
        }
        std::vector<std::pair<std::int64_t, std::uint64_t>> keys;
        for (const auto& e : q.pending_events()) keys.emplace_back(e.at.count(), e.seq);
        std::sort(keys.begin(), keys.end());
        return keys;
    };
    EXPECT_EQ(snapshot(true), snapshot(false));
}

TEST(EventQueueReservedTest, CancelReservedEvent) {
    EventQueue q;
    const std::uint64_t seq = q.reserve_seqs(1);
    bool ran = false;
    const EventId id = q.schedule_reserved(SimTime{20}, seq, [&] { ran = true; });
    EXPECT_EQ(q.pending(), 1u);
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));
    EXPECT_EQ(q.pending(), 0u);
    q.run_all();
    EXPECT_FALSE(ran);
    EXPECT_EQ(q.executed(), 0u);
}

TEST(EventQueueReservedTest, StaleEntryNeverAliasesSlotReuser) {
    EventQueue q;
    // A cancelled reserved event leaves a stale heap entry {20, s, slot};
    // the slot's next occupant has another seq and must fire only at its
    // own time, once.
    const std::uint64_t reserved = q.reserve_seqs(1);
    const EventId a = q.schedule_reserved(SimTime{20}, reserved, [] { FAIL(); });
    ASSERT_TRUE(q.cancel(a));
    std::vector<std::int64_t> fired;
    const EventId b = q.schedule_at(SimTime{30}, [&] { fired.push_back(q.now().count()); });
    EXPECT_EQ(b.index, a.index);
    // And the other way round: a reserved event (seq below the stale
    // entry's) reusing the slot of a cancelled ordinary event.
    const std::uint64_t early = q.reserve_seqs(1);
    const EventId c = q.schedule_at(SimTime{10}, [] { FAIL(); });
    ASSERT_TRUE(q.cancel(c));
    const EventId d = q.schedule_reserved(SimTime{40}, early,
                                          [&] { fired.push_back(q.now().count()); });
    EXPECT_EQ(d.index, c.index);
    EXPECT_FALSE(q.cancel(a));
    EXPECT_FALSE(q.cancel(c));
    q.run_all();
    EXPECT_EQ(fired, (std::vector<std::int64_t>{30, 40}));
    EXPECT_EQ(q.executed(), 2u);
}

TEST(EventQueueReservedTest, ScheduleReservedRejectsPastTimesAndUnreservedSeqs) {
    EventQueue q;
    const std::uint64_t seq = q.reserve_seqs(1);
    q.schedule_at(SimTime{10}, [] {});
    q.step();
    EXPECT_THROW(q.schedule_reserved(SimTime{5}, seq, [] {}), std::logic_error);
    EXPECT_THROW(q.schedule_reserved(SimTime{10}, 0, [] {}), std::logic_error);
    EXPECT_THROW(q.schedule_reserved(SimTime{10}, seq + 5, [] {}), std::logic_error);
    EXPECT_THROW(q.schedule_reserved(SimTime{10}, seq, EventQueue::Handler{}),
                 std::invalid_argument);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueReservedTest, CurrentSeqPlacesCallerInFiringOrder) {
    EventQueue q;
    EXPECT_EQ(q.current_seq(), 0u);
    std::vector<std::uint64_t> seen;
    q.schedule_at(SimTime{10}, [&] { seen.push_back(q.current_seq()); });  // seq 1
    const std::uint64_t reserved = q.reserve_seqs(1);                       // seq 2
    q.schedule_at(SimTime{10}, [&] { seen.push_back(q.current_seq()); });  // seq 3
    q.schedule_reserved(SimTime{10}, reserved, [&] { seen.push_back(q.current_seq()); });
    q.schedule_at(SimTime{50}, [] {});                                      // seq 4
    ASSERT_TRUE(q.step());
    EXPECT_EQ(q.current_seq(), 1u);  // between events: the last one run
    q.run_until(SimTime{20});
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2, 3}));
    // run_until ran everything through its bound: every seq handed out.
    EXPECT_EQ(q.current_seq(), 4u);
    EXPECT_EQ(q.now(), SimTime{20});
}

/// The seed implementation, kept verbatim as the ordering reference: a
/// binary std::priority_queue of {time, seq, std::function} entries with
/// an unordered_set cancellation path.  The slab queue must reproduce its
/// pop order bit for bit.
class ReferenceEventQueue {
public:
    using Handler = std::function<void()>;

    [[nodiscard]] SimTime now() const noexcept { return now_; }

    std::uint64_t schedule_at(SimTime at, Handler handler) {
        const std::uint64_t seq = next_seq_++;
        heap_.push(Entry{at, seq, std::move(handler)});
        pending_ids_.insert(seq);
        return seq;
    }

    std::uint64_t schedule_after(SimTime delay, Handler handler) {
        return schedule_at(now_ + delay, std::move(handler));
    }

    bool cancel(std::uint64_t id) { return pending_ids_.erase(id) > 0; }

    bool step() {
        while (!heap_.empty() && !pending_ids_.contains(heap_.top().seq)) {
            heap_.pop();
        }
        if (heap_.empty()) return false;
        Entry top = heap_.top();
        heap_.pop();
        pending_ids_.erase(top.seq);
        now_ = top.at;
        top.handler();
        return true;
    }

    void run_all() {
        while (step()) {
        }
    }

private:
    struct Entry {
        SimTime at;
        std::uint64_t seq;
        Handler handler;
    };
    struct Later {
        bool operator()(const Entry& a, const Entry& b) const noexcept {
            if (a.at != b.at) return a.at > b.at;
            return a.seq > b.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
    std::unordered_set<std::uint64_t> pending_ids_;
    SimTime now_{0};
    std::uint64_t next_seq_ = 1;
};

/// Runs the same RNG-scripted workload — scattered schedules, random
/// cancellations, handlers that schedule children and cancel peers — on
/// any queue type and records the (label, fire-time) trace.  Identical
/// traces imply identical execution order AND identical RNG consumption
/// (handler decisions draw from the shared stream in fire order).
template <typename Queue>
std::vector<std::pair<int, std::int64_t>> scripted_trace(std::uint64_t seed) {
    Queue q;
    RandomStream rng{seed};
    std::vector<std::pair<int, std::int64_t>> trace;
    using Id = decltype(q.schedule_at(SimTime{0}, [] {}));
    std::vector<Id> ids;
    int next_label = 0;

    std::function<void(int)> fire = [&](int label) {
        trace.emplace_back(label, q.now().count());
        const std::int64_t action = rng.uniform_int(0, 9);
        if (action < 3) {
            const int child = next_label++;
            ids.push_back(q.schedule_after(SimTime{rng.uniform_int(0, 40)},
                                           [&fire, child] { fire(child); }));
        } else if (action < 5 && !ids.empty()) {
            const auto pick = static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1));
            (void)q.cancel(ids[pick]);
        }
    };

    for (int i = 0; i < 300; ++i) {
        const int label = next_label++;
        // Coarse times force plenty of equal-time FIFO ties.
        ids.push_back(q.schedule_at(SimTime{rng.uniform_int(0, 80)},
                                    [&fire, label] { fire(label); }));
    }
    for (int i = 0; i < 120; ++i) {
        const auto pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1));
        (void)q.cancel(ids[pick]);
    }
    q.run_all();
    return trace;
}

class SlabQueueTraceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SlabQueueTraceTest, PopOrderMatchesReferenceImplementation) {
    const auto reference = scripted_trace<ReferenceEventQueue>(GetParam());
    const auto slab = scripted_trace<EventQueue>(GetParam());
    ASSERT_FALSE(reference.empty());
    EXPECT_EQ(slab, reference);
}

INSTANTIATE_TEST_SUITE_P(RandomScripts, SlabQueueTraceTest,
                         ::testing::Values(1u, 2u, 3u, 17u, 42u, 1234u, 99991u));

}  // namespace
}  // namespace nbmg::sim
