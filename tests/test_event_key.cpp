#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "des/event.hpp"
#include "des/time.hpp"

namespace hp::des {
namespace {

TEST(EventKey, OrdersByTimestampFirst) {
  const EventKey a{1.0, 99, 9, 9, 9};
  const EventKey b{2.0, 0, 0, 0, 0};
  EXPECT_LT(a, b);
  EXPECT_GT(b, a);
  EXPECT_LE(a, b);
  EXPECT_GE(b, a);
}

TEST(EventKey, TiebreakChainIsDeterministic) {
  const EventKey a{1.0, 5, 0, 1, 0};
  const EventKey b{1.0, 6, 0, 1, 0};
  EXPECT_TRUE(a < b || b < a);
  EXPECT_FALSE(a < a);
  EXPECT_EQ(a, a);
}

TEST(EventKey, TotalOrderIsStrictWeak) {
  std::vector<EventKey> keys = {
      {1.0, 2, 3, 4, 5}, {1.0, 2, 3, 4, 4}, {1.0, 2, 3, 3, 5},
      {1.0, 2, 2, 4, 5}, {1.0, 1, 3, 4, 5}, {0.5, 9, 9, 9, 9},
      {2.0, 0, 0, 0, 0},
  };
  std::sort(keys.begin(), keys.end());
  for (std::size_t i = 1; i < keys.size(); ++i) {
    EXPECT_LT(keys[i - 1], keys[i]);
  }
  // Sorting is order-independent (total order).
  auto keys2 = keys;
  std::reverse(keys2.begin(), keys2.end());
  std::sort(keys2.begin(), keys2.end());
  EXPECT_EQ(keys, keys2);
}

TEST(EventKey, MinKeySortsFirst) {
  const EventKey real{0.0, 0, 0, 0, 0};
  EXPECT_LT(kMinKey, real);
}

TEST(EventKey, HashDistinguishesComponents) {
  const EventKeyHash h;
  const EventKey base{1.0, 2, 3, 4, 5};
  EventKey other = base;
  other.send_index = 6;
  EXPECT_NE(h(base), h(other));
  other = base;
  other.ts = 1.5;
  EXPECT_NE(h(base), h(other));
  other = base;
  other.tie = 7;
  EXPECT_NE(h(base), h(other));
  EXPECT_EQ(h(base), h(base));
}

TEST(Event, PayloadRoundTrip) {
  struct Msg {
    int a;
    double b;
  };
  Event ev;
  ev.msg<Msg>() = Msg{7, 3.5};
  EXPECT_EQ(ev.msg<Msg>().a, 7);
  EXPECT_DOUBLE_EQ(ev.msg<Msg>().b, 3.5);
}

TEST(EventPool, RecyclesEnvelopes) {
  EventPool pool;
  Event* a = pool.allocate();
  a->children.push_back(ChildRef{EventKey{}, 0, 0, nullptr});
  // Storage is slab-granular: the first allocation commits a whole slab.
  EXPECT_EQ(pool.slabs_allocated(), 1u);
  EXPECT_EQ(pool.allocated(), kSlabEnvelopes);
  EXPECT_EQ(pool.pool_bytes(), kSlabEnvelopes * sizeof(Event));
  EXPECT_EQ(pool.free_count(), kSlabEnvelopes - 1);
  EXPECT_EQ(pool.live(), 1);
  pool.free(a);
  EXPECT_EQ(pool.free_count(), kSlabEnvelopes);
  EXPECT_EQ(pool.live(), 0);
  Event* b = pool.allocate();
  EXPECT_EQ(b, a) << "the free list is LIFO: the freed envelope comes back";
  EXPECT_TRUE(b->children.empty()) << "free must clear the child list";
  EXPECT_EQ(b->status, EventStatus::Free);
  Event* c = pool.allocate();
  EXPECT_NE(c, b);
  // Both fit in the first slab; no new storage.
  EXPECT_EQ(pool.slabs_allocated(), 1u);
  EXPECT_EQ(pool.allocated(), kSlabEnvelopes);
  pool.free(b);
  pool.free(c);
}

}  // namespace
}  // namespace hp::des
