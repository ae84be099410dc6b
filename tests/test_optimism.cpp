// OptimismController, driven directly on one thread: the flow-state
// watermarks and hysteresis, interval pacing and its clamp, the idle
// backoff, and the horizon the kernel's next_event compares against.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "des/optimism.hpp"

namespace hp::des {
namespace {

using Flow = OptimismController::FlowState;
using Transition = OptimismController::Transition;

// Drive `n` processed events, then a commit point that committed `committed`
// of them at `gvt`.
void run_round(OptimismController& c, std::uint32_t n,
               std::uint64_t committed, Time gvt) {
  for (std::uint32_t i = 0; i < n; ++i) c.processed();
  c.commit(gvt, committed);
}

TEST(OptimismController, FlowStateMachineHasHysteresis) {
  // budget 1000: soft 500, exit 375, hard 1000 - clamp(250, 4, 4096) = 750.
  OptimismController c(4096, kTimeInf, 1000);
  ASSERT_EQ(c.flow(), Flow::Open);
  EXPECT_EQ(c.flow_check(499), Transition::None);
  EXPECT_EQ(c.flow(), Flow::Open);

  // Open -> Throttled at the soft mark.
  EXPECT_EQ(c.flow_check(500), Transition::Throttle);
  EXPECT_EQ(c.flow(), Flow::Throttled);
  EXPECT_EQ(c.flow_check(749), Transition::None);

  // Throttled -> Blocked at the hard mark; stays Blocked at or above it.
  EXPECT_EQ(c.flow_check(750), Transition::Block);
  EXPECT_EQ(c.flow(), Flow::Blocked);
  EXPECT_EQ(c.flow_check(900), Transition::None);

  // Blocked -> Throttled just below the hard mark.
  EXPECT_EQ(c.flow_check(749), Transition::Unblock);
  EXPECT_EQ(c.flow(), Flow::Throttled);

  // Below soft is not enough to re-open: the exit is at 3/4 soft.
  EXPECT_EQ(c.flow_check(400), Transition::None);
  EXPECT_EQ(c.flow(), Flow::Throttled);
  EXPECT_EQ(c.flow_check(375), Transition::None);
  EXPECT_EQ(c.flow_check(374), Transition::Reopen);
  EXPECT_EQ(c.flow(), Flow::Open);
}

TEST(OptimismController, NoBudgetNeverLeavesOpen) {
  OptimismController c(4096, kTimeInf, 0);
  EXPECT_EQ(c.flow_check(std::int64_t{1} << 40), Transition::None);
  EXPECT_EQ(c.flow(), Flow::Open);
}

TEST(OptimismController, IntervalHalvesAndDoublesWithinItsClamp) {
  OptimismController c(1024, kTimeInf, 0);
  ASSERT_EQ(c.interval(), 1024u);

  // Yield 0 < 0.25: halve each round down to the floor of 32.
  std::uint32_t expect = 1024;
  for (int i = 0; i < 10; ++i) {
    run_round(c, 100, 0, 1.0 + i);
    expect = std::max(32u, expect / 2);
    EXPECT_EQ(c.interval(), expect);
  }
  EXPECT_EQ(c.interval(), 32u);

  // Mid-range yield leaves it alone.
  run_round(c, 100, 50, 20.0);
  EXPECT_EQ(c.interval(), 32u);

  // Yield 1 > 0.9: double back up to the ceiling and no further. A yield
  // above 1 (older work finally committing) counts as 1.
  for (int i = 0; i < 10; ++i) run_round(c, 10, 40, 30.0 + i);
  EXPECT_EQ(c.interval(), 1024u);

  // A round with no processed events carries no signal.
  c.commit(50.0, 0);
  EXPECT_EQ(c.interval(), 1024u);
}

TEST(OptimismController, SmallCeilingIsItsOwnFloor) {
  OptimismController c(8, kTimeInf, 0);
  EXPECT_EQ(c.interval(), 8u);
  run_round(c, 8, 0, 1.0);
  EXPECT_EQ(c.interval(), 8u) << "floor is min(32, ceiling)";
}

TEST(OptimismController, ProgressTriggerFiresAtTheInterval) {
  OptimismController c(64, kTimeInf, 0);
  for (int i = 0; i < 63; ++i) EXPECT_FALSE(c.processed());
  EXPECT_TRUE(c.processed());
  EXPECT_EQ(c.processed_since_commit(), 64u);
  c.commit(1.0, 64);
  EXPECT_EQ(c.processed_since_commit(), 0u);
}

TEST(OptimismController, IdleBackoffDoublesToItsCapAndResets) {
  OptimismController c(4096, kTimeInf, 0);
  std::uint32_t bound = 64;
  ASSERT_EQ(c.idle_backoff(), bound);
  while (bound < 8192) {
    for (std::uint32_t i = 1; i < bound; ++i) ASSERT_FALSE(c.idle_spin());
    ASSERT_TRUE(c.idle_spin());
    bound *= 2;
    EXPECT_EQ(c.idle_backoff(), bound);
  }
  for (std::uint32_t i = 1; i < 8192; ++i) ASSERT_FALSE(c.idle_spin());
  EXPECT_TRUE(c.idle_spin());
  EXPECT_EQ(c.idle_backoff(), 8192u);

  // A processed event resets the bound and the spin count.
  for (int i = 0; i < 10; ++i) c.idle_spin();
  c.processed();
  EXPECT_EQ(c.idle_backoff(), 64u);
  for (int i = 1; i < 64; ++i) ASSERT_FALSE(c.idle_spin());
  EXPECT_TRUE(c.idle_spin());
}

TEST(OptimismController, HorizonIsInfiniteWhenOpenWithoutAWindow) {
  OptimismController c(4096, kTimeInf, 0);
  EXPECT_EQ(c.horizon(), kTimeInf);
  run_round(c, 10, 10, 5.0);
  EXPECT_EQ(c.horizon(), kTimeInf);
  EXPECT_TRUE(c.admits(1e300));
}

TEST(OptimismController, HorizonIsGvtPlusTheUserWindowWhenOpen) {
  OptimismController c(4096, 30.0, 0);
  EXPECT_EQ(c.horizon(), 30.0);
  c.commit(12.0, 0);
  EXPECT_EQ(c.horizon(), 42.0);
  EXPECT_TRUE(c.admits(42.0));
  EXPECT_FALSE(c.admits(42.5));
}

TEST(OptimismController, HorizonIsGvtWhenBlocked) {
  OptimismController c(4096, kTimeInf, 1000);
  c.commit(7.5, 0);
  c.flow_check(500);
  c.flow_check(750);
  ASSERT_EQ(c.flow(), Flow::Blocked);
  EXPECT_EQ(c.horizon(), 7.5);
  EXPECT_TRUE(c.admits(7.5));
  EXPECT_FALSE(c.admits(7.5000001));
  // A commit point while Blocked moves the horizon to the new GVT.
  c.commit(9.0, 0);
  EXPECT_EQ(c.horizon(), 9.0);
}

TEST(OptimismController, ThrottledWindowIsScaledGvtAdvanceUnderTheCeiling) {
  OptimismController c(4096, 30.0, 1000);
  // GVT advances 2.0 per round on mid-range yield: EMA 2.0, scale 1.
  run_round(c, 100, 50, 2.0);
  run_round(c, 100, 50, 4.0);
  c.flow_check(500);
  ASSERT_EQ(c.flow(), Flow::Throttled);
  EXPECT_DOUBLE_EQ(c.horizon(), 4.0 + 2.0);

  // Wasted rounds halve the scale (floor 0.25) along with the interval.
  run_round(c, 100, 0, 6.0);
  EXPECT_DOUBLE_EQ(c.horizon(), 6.0 + 0.5 * 2.0);
  run_round(c, 100, 0, 8.0);
  run_round(c, 100, 0, 10.0);
  EXPECT_DOUBLE_EQ(c.horizon(), 10.0 + 0.25 * 2.0);

  // Clean rounds double it back, but never past the user's window.
  for (int i = 0; i < 10; ++i) run_round(c, 100, 100, 12.0 + 2.0 * i);
  EXPECT_DOUBLE_EQ(c.horizon(), 30.0 + 8.0 * 2.0);
  OptimismController tight(4096, 5.0, 1000);
  for (int i = 0; i < 10; ++i) run_round(tight, 100, 100, 2.0 * (i + 1));
  tight.flow_check(500);
  EXPECT_DOUBLE_EQ(tight.horizon(), 20.0 + 5.0);
}

}  // namespace
}  // namespace hp::des
