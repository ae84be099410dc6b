// Slab allocator unit tests (run under ASan in CI — the slab pool must be
// clean under it) plus the envelope-scrubbing regression: a recycled
// envelope must be indistinguishable from a fresh-from-slab one. Historical
// bug: EventPool::free left send_ts / cv / payload_size / rng_before behind,
// so a recycled envelope could leak one event's causality into an unrelated
// reuse (a stale cv corrupts lazy-cancellation re-evaluation; a stale anti
// victim pointer would aim a later token at an unrelated envelope).

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "des/event.hpp"

namespace hp::des {
namespace {

// Every engine-visible field in its fresh-from-slab state. Keep in sync with
// EventPool::free — that is the point of this helper.
void expect_fresh(const Event& ev, const char* what) {
  EXPECT_EQ(ev.key, EventKey{}) << what;
  EXPECT_EQ(ev.uid, 0u) << what;
  EXPECT_EQ(ev.victim, nullptr) << what;
  EXPECT_EQ(ev.rng_before, 0u) << what;
  EXPECT_EQ(ev.send_ts, 0.0) << what;
  EXPECT_EQ(ev.kp, 0u) << what;
  EXPECT_EQ(ev.status, EventStatus::Free) << what;
  EXPECT_FALSE(ev.is_anti) << what;
  EXPECT_EQ(ev.payload_size, 0u) << what;
  EXPECT_EQ(ev.cv, 0u) << what;
  EXPECT_EQ(ev.cascade, 0u) << what;
  EXPECT_EQ(ev.send_wall_ns, 0u) << what;
  EXPECT_TRUE(ev.children.empty()) << what;
  EXPECT_EQ(ev.cold_block, nullptr) << what;
}

// Dirty every field free() is responsible for clearing.
void dirty(Event* ev) {
  ev->key = EventKey{123.0, 456, 7, 8, 9};
  ev->uid = 0xDEADBEEF;
  ev->victim = ev;
  ev->rng_before = 77;
  ev->send_ts = 99.5;
  ev->kp = 3;
  ev->status = EventStatus::Processed;
  ev->is_anti = true;
  ev->payload_size = 16;
  ev->cv = 5;
  ev->cascade = 2;
  ev->send_wall_ns = 123456789;
  std::memset(ev->payload, 0x5C, kMaxPayload);
  ev->children.push_back(ChildRef{EventKey{1.0, 2, 3, 4, 5}, 6, 7, ev});
  ev->cold().stale_children.push_back(ChildRef{EventKey{}, 1, 2, ev});
}

// Cancellation by direct envelope pointer (ChildRef::ev, Event::victim)
// took the place of two dead fields instead of growing the envelope, which
// the sequential kernel shares and pays for in cache footprint. Bounds are
// the LP64 GCC/libstdc++ layout.
TEST(EventLayout, CancellationPointersDoNotGrowTheEnvelope) {
  EXPECT_LE(sizeof(ChildRef), 56u);
  EXPECT_LE(sizeof(Event), 472u);
}

TEST(EventPoolSlab, FirstAllocationCommitsOneSlab) {
  EventPool pool;
  EXPECT_EQ(pool.slabs_allocated(), 0u);
  EXPECT_EQ(pool.pool_bytes(), 0u);
  EXPECT_EQ(pool.capacity(), 0u);
  Event* ev = pool.allocate();
  ASSERT_NE(ev, nullptr);
  EXPECT_EQ(pool.slabs_allocated(), 1u);
  EXPECT_EQ(pool.capacity(), kSlabEnvelopes);
  EXPECT_EQ(pool.pool_bytes(), kSlabEnvelopes * sizeof(Event));
  EXPECT_EQ(pool.free_count(), kSlabEnvelopes - 1);
  EXPECT_EQ(pool.live(), 1);
  EXPECT_EQ(pool.peak_live(), 1);
  pool.free(ev);
}

TEST(EventPoolSlab, GrowsSlabAtATimeAndHandsOutDistinctEnvelopes) {
  EventPool pool;
  std::vector<Event*> held;
  std::set<Event*> distinct;
  held.reserve(kSlabEnvelopes + 1);
  for (std::size_t i = 0; i < kSlabEnvelopes; ++i) {
    held.push_back(pool.allocate());
    distinct.insert(held.back());
  }
  EXPECT_EQ(pool.slabs_allocated(), 1u);
  EXPECT_EQ(pool.free_count(), 0u);
  // The (slab+1)-th outstanding envelope commits the second slab.
  held.push_back(pool.allocate());
  distinct.insert(held.back());
  EXPECT_EQ(pool.slabs_allocated(), 2u);
  EXPECT_EQ(pool.capacity(), 2 * kSlabEnvelopes);
  EXPECT_EQ(pool.pool_bytes(), 2 * kSlabEnvelopes * sizeof(Event));
  EXPECT_EQ(distinct.size(), held.size()) << "allocator handed out a twin";
  EXPECT_EQ(pool.live(), static_cast<std::int64_t>(held.size()));
  EXPECT_EQ(pool.peak_live(), static_cast<std::int64_t>(held.size()));
  for (Event* ev : held) pool.free(ev);
  EXPECT_EQ(pool.live(), 0);
  EXPECT_EQ(pool.free_count(), 2 * kSlabEnvelopes);
  // Capacity is a high-water mark: freeing never returns slabs.
  EXPECT_EQ(pool.slabs_allocated(), 2u);
}

TEST(EventPoolSlab, RecycledEnvelopeIsIndistinguishableFromFresh) {
  EventPool pool;
  Event* fresh = pool.allocate();
  expect_fresh(*fresh, "fresh-from-slab envelope");
  dirty(fresh);
  pool.free(fresh);
  Event* recycled = pool.allocate();
  ASSERT_EQ(recycled, fresh) << "LIFO free list must hand the twin back";
  expect_fresh(*recycled, "recycled envelope");
#ifndef NDEBUG
  // Debug builds poison the payload on free (and on slab creation), so a
  // read-before-write of a recycled payload surfaces as 0xA5 garbage rather
  // than the previous event's bytes.
  for (std::size_t i = 0; i < kMaxPayload; ++i) {
    ASSERT_EQ(static_cast<unsigned char>(recycled->payload[i]), 0xA5u)
        << "payload byte " << i << " not poisoned";
  }
#endif
  pool.free(recycled);
}

TEST(EventPoolSlab, CrossPoolFreeMovesLiveCount) {
  // A PE frees remote envelopes into its own pool: sender's live stays up,
  // receiver's goes negative; the sum is the true outstanding count.
  EventPool sender, receiver;
  Event* ev = sender.allocate();
  EXPECT_EQ(sender.live(), 1);
  receiver.free(ev);
  EXPECT_EQ(sender.live(), 1);
  EXPECT_EQ(receiver.live(), -1);
  EXPECT_EQ(sender.live() + receiver.live(), 0);
  // The envelope now belongs to the receiver's free list and is recycled
  // from there.
  EXPECT_EQ(receiver.allocate(), ev);
  receiver.free(ev);
}

TEST(EventPoolSlab, PeakLiveTracksAllocationsOnly) {
  EventPool pool;
  std::vector<Event*> held;
  for (int i = 0; i < 100; ++i) held.push_back(pool.allocate());
  EXPECT_EQ(pool.peak_live(), 100);
  for (Event* ev : held) pool.free(ev);
  held.clear();
  EXPECT_EQ(pool.live(), 0);
  EXPECT_EQ(pool.peak_live(), 100) << "peak is a high-water mark";
  for (int i = 0; i < 50; ++i) held.push_back(pool.allocate());
  EXPECT_EQ(pool.peak_live(), 100) << "peak only moves on a new high";
  for (Event* ev : held) pool.free(ev);
}

TEST(EventPoolSlab, ChurnReusesStorageWithoutGrowth) {
  EventPool pool;
  for (int round = 0; round < 1000; ++round) {
    Event* a = pool.allocate();
    Event* b = pool.allocate();
    dirty(a);
    pool.free(a);
    pool.free(b);
  }
  EXPECT_EQ(pool.slabs_allocated(), 1u)
      << "steady-state churn must not grow the pool";
  EXPECT_EQ(pool.live(), 0);
  EXPECT_EQ(pool.free_count(), kSlabEnvelopes);
}

TEST(EventPoolSlab, ColdBlockIsLazyAndFreedOnRecycle) {
  EventPool pool;
  Event* ev = pool.allocate();
  EXPECT_EQ(ev->cold_block, nullptr) << "cold state must be lazy";
  EXPECT_FALSE(ev->has_stale_children());
  ev->cold().stale_children.push_back(ChildRef{EventKey{}, 1, 2, ev});
  EXPECT_TRUE(ev->has_stale_children());
  ASSERT_NE(ev->cold_block, nullptr);
  EXPECT_EQ(&ev->cold(), ev->cold_block.get())
      << "cold() must reuse the existing block";
  pool.free(ev);
  Event* again = pool.allocate();
  ASSERT_EQ(again, ev);
  EXPECT_EQ(again->cold_block, nullptr) << "free must drop the cold block";
  pool.free(again);
}

}  // namespace
}  // namespace hp::des
