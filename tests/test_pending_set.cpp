// Conformance suite for the pending-event set, LadderQueue.
//
// Every kernel owns a LadderQueue directly, and committed results depend on
// its contract: pops come in full EventKey order, duplicate keys are all
// retrievable (any relative order), erase removes exactly the given
// envelope, and a long randomized insert/pop/erase interleaving matches a
// std::multiset oracle step by step.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "des/ladder_queue.hpp"
#include "util/rng.hpp"

namespace hp::des {
namespace {

EventKey key_of(double ts, std::uint64_t tie, std::uint32_t dst = 0) {
  return EventKey{ts, tie, 0, dst, 0};
}

// The suite once ran every case against several pending-set backends; the
// ladder queue is the one that remains. The fixture name, the `AllKinds`
// prefix, the `ladder` suffix and the parameter's value 2 are kept only so
// each case keeps the test id its history is recorded under.
enum class Backend : std::uint8_t { Ladder = 2 };

class PendingSetKinds : public ::testing::TestWithParam<Backend> {};

TEST_P(PendingSetKinds, EmptyBehaviour) {
  LadderQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.peek_min(), nullptr);
  EXPECT_EQ(q.pop_min(), nullptr);
}

TEST_P(PendingSetKinds, PopsInKeyOrder) {
  std::vector<std::unique_ptr<Event>> events;
  events.reserve(1000);
  for (int i = 0; i < 1000; ++i) {
    events.push_back(std::make_unique<Event>());
    events.back()->key =
        key_of(((i * 389) % 1000) * 0.25, static_cast<std::uint64_t>(i));
  }
  LadderQueue q;
  for (auto& ev : events) q.insert(ev.get());
  EXPECT_EQ(q.size(), 1000u);
  EventKey last = kMinKey;
  for (int i = 0; i < 1000; ++i) {
    Event* ev = q.pop_min();
    ASSERT_NE(ev, nullptr);
    EXPECT_TRUE(last < ev->key || last == ev->key)
        << "out-of-order pop at index " << i;
    last = ev->key;
  }
  EXPECT_TRUE(q.empty());
}

TEST_P(PendingSetKinds, InterleavedInsertPopStaysSorted) {
  // Inserts below the current minimum while draining — the pattern rollback
  // re-insertion produces, and the hard case for bucket/rung structures.
  std::vector<std::unique_ptr<Event>> events;
  LadderQueue q;
  util::ReversibleRng rng(99);
  EventKey last = kMinKey;
  double floor_ts = 0.0;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 10; ++i) {
      events.push_back(std::make_unique<Event>());
      events.back()->key =
          key_of(floor_ts + static_cast<double>(rng.integer(0, 50)),
                 rng.integer(0, 1000));
      // Keys may be below the last popped key only if >= the floor we track;
      // generate at/above the previous pop to keep the order contract valid.
      if (events.back()->key < last) events.back()->key = last;
      q.insert(events.back().get());
    }
    for (int i = 0; i < 7; ++i) {
      Event* ev = q.pop_min();
      ASSERT_NE(ev, nullptr);
      ASSERT_TRUE(last < ev->key || last == ev->key);
      last = ev->key;
      floor_ts = ev->key.ts;
    }
  }
  while (Event* ev = q.pop_min()) {
    ASSERT_TRUE(last < ev->key || last == ev->key);
    last = ev->key;
  }
}

TEST_P(PendingSetKinds, DuplicateKeysAllRetrievable) {
  Event a, b, c, d;
  a.key = key_of(5.0, 7);
  b.key = key_of(5.0, 7);
  c.key = key_of(5.0, 7);
  d.key = key_of(1.0, 1);
  LadderQueue q;
  q.insert(&a);
  q.insert(&b);
  q.insert(&c);
  q.insert(&d);
  EXPECT_EQ(q.pop_min(), &d);
  std::set<Event*> twins;
  twins.insert(q.pop_min());
  twins.insert(q.pop_min());
  twins.insert(q.pop_min());
  EXPECT_EQ(twins, (std::set<Event*>{&a, &b, &c}));
  EXPECT_TRUE(q.empty());
}

TEST_P(PendingSetKinds, EraseExactPointerAmongTwins) {
  Event a, b, c;
  a.key = key_of(5.0, 7);
  b.key = key_of(5.0, 7);
  c.key = key_of(9.0, 1);
  LadderQueue q;
  q.insert(&a);
  q.insert(&b);
  q.insert(&c);
  EXPECT_TRUE(q.erase(&b));
  EXPECT_FALSE(q.erase(&b)) << "double erase must fail";
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop_min(), &a);
  EXPECT_EQ(q.pop_min(), &c);
}

TEST_P(PendingSetKinds, EraseMissingKeyReturnsFalse) {
  Event a, ghost;
  a.key = key_of(5.0, 7);
  ghost.key = key_of(6.0, 8);
  LadderQueue q;
  q.insert(&a);
  EXPECT_FALSE(q.erase(&ghost));
  EXPECT_EQ(q.size(), 1u);
}

// The anti-message pattern under pressure: many envelopes sharing a handful
// of full keys, erased by exact pointer while pops are in flight. A backend
// that resolves erase by key alone (instead of pointer identity) loses the
// wrong twin here and the later pops surface it.
TEST_P(PendingSetKinds, DuplicateKeyEraseUnderPressure) {
  constexpr int kTwinsPerKey = 16;
  constexpr int kKeys = 8;
  std::vector<std::unique_ptr<Event>> events;
  LadderQueue q;
  for (int k = 0; k < kKeys; ++k) {
    for (int t = 0; t < kTwinsPerKey; ++t) {
      events.push_back(std::make_unique<Event>());
      events.back()->key = key_of(static_cast<double>(k), 7);
      q.insert(events.back().get());
    }
  }
  // Erase every odd twin of every key, in a scattered order.
  util::ReversibleRng rng(7);
  std::vector<Event*> victims;
  for (std::size_t i = 1; i < events.size(); i += 2)
    victims.push_back(events[i].get());
  for (std::size_t i = victims.size(); i > 1; --i) {
    const auto j = rng.integer(0, i - 1);
    std::swap(victims[i - 1], victims[j]);
  }
  for (Event* v : victims) ASSERT_TRUE(q.erase(v));
  for (Event* v : victims) ASSERT_FALSE(q.erase(v));
  EXPECT_EQ(q.size(), events.size() / 2);
  // The survivors (even twins) pop in key order, each exactly once.
  std::set<Event*> popped;
  EventKey last = kMinKey;
  while (Event* ev = q.pop_min()) {
    EXPECT_TRUE(last < ev->key || last == ev->key);
    last = ev->key;
    EXPECT_TRUE(popped.insert(ev).second) << "envelope popped twice";
  }
  for (std::size_t i = 0; i < events.size(); i += 2) {
    EXPECT_TRUE(popped.count(events[i].get()))
        << "surviving twin " << i << " lost";
  }
  EXPECT_EQ(popped.size(), events.size() / 2);
}

TEST_P(PendingSetKinds, ClearResets) {
  std::vector<std::unique_ptr<Event>> events;
  for (int i = 0; i < 200; ++i) {
    events.push_back(std::make_unique<Event>());
    events.back()->key = key_of(i, static_cast<std::uint64_t>(i));
  }
  LadderQueue q;
  for (auto& ev : events) q.insert(ev.get());
  q.clear();
  EXPECT_TRUE(q.empty());
  q.insert(events[3].get());
  EXPECT_EQ(q.pop_min(), events[3].get());
}

// Randomized differential test against std::multiset as the oracle.
TEST_P(PendingSetKinds, MatchesMultisetOracle) {
  struct KeyLess {
    bool operator()(const Event* a, const Event* b) const {
      return a->key < b->key;
    }
  };
  util::ReversibleRng rng(33);
  std::vector<std::unique_ptr<Event>> storage;
  LadderQueue q;
  std::multiset<Event*, KeyLess> oracle;
  std::vector<Event*> live;

  for (int op = 0; op < 20000; ++op) {
    const auto action = rng.integer(0, 9);
    if (action <= 4 || live.empty()) {  // insert (biased)
      // Coarse timestamps force frequent duplicate keys.
      const double ts = static_cast<double>(rng.integer(0, 40));
      const std::uint64_t tie = rng.integer(0, 6);
      storage.push_back(std::make_unique<Event>());
      storage.back()->key = key_of(ts, tie);
      Event* ev = storage.back().get();
      q.insert(ev);
      oracle.insert(ev);
      live.push_back(ev);
    } else if (action <= 7) {  // pop_min
      Event* got = q.pop_min();
      ASSERT_FALSE(oracle.empty());
      ASSERT_NE(got, nullptr);
      // Any event with the minimal key is acceptable.
      EXPECT_EQ(got->key, (*oracle.begin())->key);
      auto [lo, hi] = oracle.equal_range(got);
      bool found = false;
      for (auto it = lo; it != hi; ++it) {
        if (*it == got) {
          oracle.erase(it);
          found = true;
          break;
        }
      }
      ASSERT_TRUE(found);
      live.erase(std::find(live.begin(), live.end(), got));
    } else {  // erase random live event
      const auto idx = rng.integer(0, live.size() - 1);
      Event* victim = live[idx];
      ASSERT_TRUE(q.erase(victim));
      auto [lo, hi] = oracle.equal_range(victim);
      for (auto it = lo; it != hi; ++it) {
        if (*it == victim) {
          oracle.erase(it);
          break;
        }
      }
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    ASSERT_EQ(q.size(), oracle.size());
    ASSERT_EQ(q.empty(), oracle.empty());
    if (!oracle.empty()) {
      ASSERT_EQ(q.peek_min()->key, (*oracle.begin())->key);
    }
  }
  // Drain and verify full ordering.
  while (!oracle.empty()) {
    Event* got = q.pop_min();
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->key, (*oracle.begin())->key);
    auto [lo, hi] = oracle.equal_range(got);
    for (auto it = lo; it != hi; ++it) {
      if (*it == got) {
        oracle.erase(it);
        break;
      }
    }
  }
  EXPECT_TRUE(q.empty());
}

// Wide timestamp spread (forces rung spawns from Top and rung cascades) and
// then a narrow burst (forces the degenerate all-one-bucket paths).
TEST_P(PendingSetKinds, SurvivesSkewedTimestampDistributions) {
  util::ReversibleRng rng(5);
  std::vector<std::unique_ptr<Event>> storage;
  LadderQueue q;
  for (int i = 0; i < 4000; ++i) {
    storage.push_back(std::make_unique<Event>());
    const double ts = (i % 3 == 0)
                          ? rng.uniform() * 1e6     // wide
                          : 500.0 + rng.uniform();  // narrow cluster
    storage.back()->key = key_of(ts, rng.integer(0, 3));
    q.insert(storage.back().get());
  }
  // Identical-timestamp flood (zero span).
  for (int i = 0; i < 512; ++i) {
    storage.push_back(std::make_unique<Event>());
    storage.back()->key = key_of(777.0, 9);
    q.insert(storage.back().get());
  }
  EventKey last = kMinKey;
  std::size_t popped = 0;
  while (Event* ev = q.pop_min()) {
    ASSERT_TRUE(last < ev->key || last == ev->key);
    last = ev->key;
    ++popped;
  }
  EXPECT_EQ(popped, storage.size());
}

// Regression for the long-run Time Warp "cancellation race"
// (pe.pending.erase victim-missing asserts at --pes=4 --n=32 --steps=4000).
// Root cause: the ladder queue's fixed 1e-12 minimum rung width is below the
// double ULP at engine-scale timestamps (~7.3e-12 at ts ~3.3e4), so a deep
// rung cascade over an ULP-spaced cluster subdivides past the representable
// resolution; accumulated fl(start + width*cur) rounding then exceeded the
// +2-bucket coverage slack and the filing clamp pushed events behind the
// consumed frontier — silently leaked or popped out of key order.
//
// This drives the exact failing geometry deterministically: a 2000-event
// spread that makes rung 0 ~1.4e-8 wide, a 550-event cluster within a few
// ULPs that cascades to the minimum width, then a sweep drain inserting
// ULP-offset events and erasing near the frontier at every stage of rung
// consumption, differentially checked against a multiset oracle. On the
// unfixed ladder this trips an ULP-level pop inversion (got ts one ULP above
// want) or a leaked erase within a few hundred operations.
TEST_P(PendingSetKinds, UlpClusterCascadeMatchesOracle) {
  struct KeyLess {
    bool operator()(const Event* a, const Event* b) const {
      return a->key < b->key;
    }
  };
  for (const double base : {32772.09, 32833.46, 17000.0}) {
    std::mt19937 rng(1);
    std::vector<std::unique_ptr<Event>> storage;
    LadderQueue q;
    std::multiset<Event*, KeyLess> oracle;
    const double ulp = std::nextafter(base, 1e308) - base;
    std::uint64_t tie = 0;
    const auto mk = [&](double ts) {
      storage.push_back(std::make_unique<Event>());
      Event* ev = storage.back().get();
      ev->key = key_of(ts, ++tie);
      q.insert(ev);
      oracle.insert(ev);
    };
    const auto pop_check = [&]() {
      Event* got = q.pop_min();
      ASSERT_FALSE(oracle.empty());
      ASSERT_NE(got, nullptr) << "pop_min lost an event (leak)";
      ASSERT_EQ(got->key.ts, (*oracle.begin())->key.ts)
          << "pop order diverged from oracle at base " << base;
      auto [lo, hi] = oracle.equal_range(got);
      const auto it = std::find(lo, hi, got);
      ASSERT_NE(it, hi);
      oracle.erase(it);
    };
    const double span = 3.6e-4;
    for (int i = 0; i < 2000; ++i) {
      mk(base + span * static_cast<double>(rng() % 100000) / 100000.0);
    }
    const double tc = base + span * 0.11;
    for (int i = 0; i < 400; ++i) mk(tc);
    for (int i = 0; i < 150; ++i) {
      mk(tc + static_cast<double>(static_cast<int>(rng() % 13) - 6) * ulp);
    }
    // Drain up to the cluster edge — drives the rung cascade.
    while (!oracle.empty() && (*oracle.begin())->key.ts < tc - 8.0 * ulp) {
      ASSERT_NO_FATAL_FAILURE(pop_check());
    }
    // Sweep drain: ULP-offset inserts and near-frontier erases at every
    // stage of rung consumption — the rollback/annihilation pattern.
    int budget = 2500, k = 0, er = 0;
    while (!oracle.empty()) {
      ASSERT_NO_FATAL_FAILURE(pop_check());
      if (budget > 0 && !oracle.empty()) {
        const double front = (*oracle.begin())->key.ts;
        mk(front + static_cast<double>(k % 13) * ulp);
        ++k;
        --budget;
        if (++er % 5 == 0) {
          auto it = oracle.begin();
          std::advance(it, static_cast<long>(
                               rng() % std::min<std::size_t>(oracle.size(),
                                                             24)));
          Event* victim = *it;
          ASSERT_TRUE(q.erase(victim))
              << "pending event vanished before erase (leak) at ts "
              << victim->key.ts;
          oracle.erase(it);
        }
      }
      ASSERT_EQ(q.size(), oracle.size());
    }
    EXPECT_EQ(q.pop_min(), nullptr);
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, PendingSetKinds,
                         ::testing::Values(Backend::Ladder),
                         [](const auto&) { return std::string("ladder"); });

}  // namespace
}  // namespace hp::des
