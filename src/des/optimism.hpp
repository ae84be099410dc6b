#pragma once

// Per-PE optimism controller for the Time Warp kernel (DESIGN.md
// "Optimism control"). It owns GVT pacing (the effective progress interval
// in [min(32, ceiling), ceiling] and the idle backoff), the pool-budget
// Open/Throttled/Blocked state, and the horizon = GVT + window that
// next_event compares against. One signal steers it: the per-PE commit
// yield of each GVT round; one rule: halve the interval and the throttle
// scale below kShrinkYield, double both above kGrowYield. The kernel calls
// it per iteration (flow_check, idle_spin), per processed event
// (processed) and per commit point (commit); the horizon moves only at a
// commit point or a flow transition. Thread-free: each PE owns one. Every
// decision only delays execution, so committed results are bit-identical.

#include <algorithm>
#include <cstdint>
#include <limits>

#include "des/time.hpp"

namespace hp::des {

class OptimismController {
 public:
  enum class FlowState : std::uint8_t { Open, Throttled, Blocked };
  // What a flow_check changed, for the caller's counters and trace spans.
  enum class Transition : std::uint8_t {
    None, Throttle, Block, Unblock, Reopen
  };

  static constexpr std::uint32_t kMinInterval = 32;
  static constexpr std::uint32_t kIdleBackoffInit = 64;
  static constexpr std::uint32_t kIdleBackoffMax = 8192;
  static constexpr double kShrinkYield = 0.25;
  static constexpr double kGrowYield = 0.9;
  // Throttled window: scale * EMA(per-round GVT advance), under the ceiling.
  static constexpr double kScaleMin = 0.25;
  static constexpr double kScaleMax = 8.0;
  static constexpr double kEmaAlpha = 0.25;

  OptimismController() = default;

  // From EngineConfig: gvt_interval_events, optimism_window (the ceiling
  // of every window) and pool_budget_envelopes (0 = no flow control).
  // soft = budget/2 throttles; hard = budget minus a reserve blocks (the
  // reserve absorbs what a blocked PE cannot refuse: anti bursts, children
  // of at-GVT events); a throttled PE re-opens below 3/4 soft.
  OptimismController(std::uint32_t interval_ceiling, Time window,
                     std::uint64_t budget)
      : ceiling_(std::max(1u, interval_ceiling)),
        floor_(std::min(kMinInterval, ceiling_)),
        interval_(ceiling_),
        window_cap_(window) {
    if (budget > 0) {
      const auto b = static_cast<std::int64_t>(budget);
      soft_ = std::max<std::int64_t>(1, b / 2);
      soft_exit_ = (soft_ * 3) / 4;
      const std::int64_t reserve = std::clamp<std::int64_t>(b / 4, 4, 4096);
      hard_ = std::max(soft_ + 1, b - reserve);
    }
    set_horizon();
  }

  // Per iteration, on this PE's live envelopes. Two compares while Open
  // below the soft mark (always, with no budget).
  Transition flow_check(std::int64_t live) noexcept {
    using T = Transition;
    switch (flow_) {
      case FlowState::Open:
        if (live < soft_) return T::None;
        return enter(FlowState::Throttled, T::Throttle);
      case FlowState::Throttled:
        if (live >= hard_) return enter(FlowState::Blocked, T::Block);
        return live < soft_exit_ ? enter(FlowState::Open, T::Reopen) : T::None;
      case FlowState::Blocked:
        return live < hard_ ? enter(FlowState::Throttled, T::Unblock) : T::None;
    }
    return T::None;
  }

  // Per idle iteration: true when a GVT round is due. The bound doubles per
  // fruitless request (no barrier storms) and resets on a processed event.
  bool idle_spin() noexcept {
    if (++idle_iters_ < idle_backoff_) return false;
    idle_iters_ = 0;
    idle_backoff_ = std::min(idle_backoff_ * 2, kIdleBackoffMax);
    return true;
  }

  // Per processed event: true when the progress trigger is due.
  bool processed() noexcept {
    idle_iters_ = 0;
    idle_backoff_ = kIdleBackoffInit;
    return ++processed_ >= interval_;
  }

  // Per commit point, with the new GVT and the events this PE committed at
  // it. A yield above 1 (older work finally committing) counts as 1.
  void commit(Time gvt, std::uint64_t committed) noexcept {
    if (processed_ > 0) {
      const double yield =
          std::min(1.0, static_cast<double>(committed) /
                            static_cast<double>(processed_));
      if (yield < kShrinkYield) {
        interval_ = std::max(floor_, interval_ / 2);
        scale_ = std::max(kScaleMin, scale_ * 0.5);
      } else if (yield > kGrowYield) {
        interval_ = interval_ > ceiling_ / 2 ? ceiling_ : interval_ * 2;
        scale_ = std::min(kScaleMax, scale_ * 2.0);
      }
    }
    if (gvt < kTimeInf) {
      const double delta = std::max(0.0, gvt - gvt_);
      ema_ = ema_ == 0.0 ? delta : (1.0 - kEmaAlpha) * ema_ + kEmaAlpha * delta;
    }
    gvt_ = gvt;
    processed_ = 0;
    idle_iters_ = 0;
    set_horizon();
  }

  bool admits(Time ts) const noexcept { return ts <= horizon_; }

  Time horizon() const noexcept { return horizon_; }
  FlowState flow() const noexcept { return flow_; }
  std::uint32_t interval() const noexcept { return interval_; }
  std::uint32_t idle_backoff() const noexcept { return idle_backoff_; }
  std::uint64_t processed_since_commit() const noexcept { return processed_; }
  // Live envelopes at which the PE blocks (unreachable without a budget).
  std::int64_t hard_mark() const noexcept { return hard_; }

 private:
  static constexpr std::int64_t kNoMark =
      std::numeric_limits<std::int64_t>::max();

  Transition enter(FlowState s, Transition t) noexcept {
    flow_ = s;
    set_horizon();
    return t;
  }

  void set_horizon() noexcept {
    Time window = window_cap_;
    if (flow_ == FlowState::Blocked) {
      window = 0.0;  // the PE owning the global minimum can still run it
    } else if (flow_ == FlowState::Throttled) {
      window = std::min(window, scale_ * ema_);
    }
    horizon_ = gvt_ + window;
  }

  std::uint32_t ceiling_ = 1;
  std::uint32_t floor_ = 1;
  std::uint32_t interval_ = 1;
  std::uint32_t idle_backoff_ = kIdleBackoffInit;
  std::uint32_t idle_iters_ = 0;
  std::uint64_t processed_ = 0;

  // The marks stay unreachable without a budget.
  FlowState flow_ = FlowState::Open;
  std::int64_t soft_ = kNoMark;
  std::int64_t soft_exit_ = kNoMark;
  std::int64_t hard_ = kNoMark;

  Time window_cap_ = kTimeInf;
  double scale_ = 1.0;
  double ema_ = 0.0;  // EMA of per-round GVT advance
  Time gvt_ = 0.0;
  Time horizon_ = kTimeInf;
};

}  // namespace hp::des
