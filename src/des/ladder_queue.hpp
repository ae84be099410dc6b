#pragma once

// Ladder queue pending-event set (Tang, Goh & Thng, "Ladder queue: An O(1)
// priority queue structure for large-scale discrete event simulation",
// TOMACS 2005) — the pending set all three kernels own directly
// (EXPERIMENTS.md records the measurements that make it the only one).
// tests/test_pending_set.cpp holds it to a std::multiset oracle.
//
// Contract the engines rely on: pops come in full EventKey order, duplicate
// keys may pop in any relative order, and erase removes exactly the given
// envelope (not merely one with an equal key).
//
// Three tiers:
//   * Top    — an unsorted overflow list for far-future events (everything
//              beyond the timestamp horizon of the structure built so far);
//   * Rungs  — a stack of bucket arrays, each finer than the one above it.
//              A rung partitions a timestamp interval into equal-width
//              buckets; draining meets an oversized bucket by spawning a
//              finer rung that subdivides just that bucket;
//   * Bottom — the current earliest bucket, sorted (descending here, so
//              pop_min is a pop_back), which serves peek/pop directly.
//
// Insertions ride the same thresholds downward: a new event lands in Top if
// it is beyond the horizon, in the first rung whose unconsumed range covers
// its timestamp, or in Bottom (sorted insert) when it precedes every rung —
// the straggler/rollback-reinsertion case Time Warp produces.
//
// erase(ev) — anti-message annihilation of a pending positive — resolves the
// bucket the insert walk would choose today (moves only ever relocate events
// into tiers that walk reaches first) and falls back to an exhaustive sweep
// for the not-found answer, which only ghosts and float-boundary edge cases
// reach.
//
// Duplicate full keys are permitted; among equal keys any pop order is
// allowed.
//
// Rung geometry is ULP-aware: a rung's bucket width never drops below a few
// ULPs of its own start timestamp (min_width_at). An absolute floor is not
// enough — at ts ~3e4 the double ULP is ~3.6e-12, so a fixed 1e-12 floor
// let stacked rungs subdivide below the representable resolution, where the
// accumulated rounding of fl(start + width*cur) across parent rungs exceeds
// the +2-bucket coverage slack. Events then landed beyond a rung's nominal
// range and the filing clamp pushed them behind the consumed frontier:
// silently leaked when the rung was discarded, or popped out of key order —
// the root cause of the long-run Time Warp "cancellation race"
// (pe.pending.erase victim-missing asserts). Two hard invariants back the
// width rule up: filing into an exhausted rung reopens its last bucket
// instead of landing behind the frontier, and a rung is never discarded
// while it still holds events.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "des/event.hpp"
#include "util/macros.hpp"

namespace hp::des {

class LadderQueue {
 public:
  LadderQueue() = default;
  LadderQueue(const LadderQueue&) = delete;
  LadderQueue& operator=(const LadderQueue&) = delete;

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  void insert(Event* ev) {
    ++size_;
    const Time ts = ev->key.ts;
    // Strictly greater: the horizon timestamp itself descends the ladder.
    // An event at exactly top_start_ may share its timestamp with events
    // already staged in rungs/Bottom, and parking it in the unsorted Top
    // would let a larger tie-break pop before it.
    if (ts > top_start_) {
      if (top_.empty()) {
        top_min_ = top_max_ = ts;
      } else {
        top_min_ = std::min(top_min_, ts);
        top_max_ = std::max(top_max_, ts);
      }
      top_.push_back(ev);
      return;
    }
    for (Rung& r : rungs_) {
      std::size_t b = r.target(ts);
      if (b == Rung::kPastCoverage) {
        // ts is beyond the nominal range of a fully consumed rung (float
        // slop only — min_width_at makes this unreachable in practice). The
        // event is >= everything this rung ever held and < every unconsumed
        // event in coarser rungs, so reopening the last bucket is its only
        // order-correct home; filing behind the frontier would strand it.
        r.cur = r.buckets.size() - 1;
        b = r.cur;
      }
      if (b != Rung::kBeforeFrontier) {
        r.buckets[b].push_back(ev);
        ++r.count;
        return;
      }
    }
    // Precedes every rung's unconsumed range: the straggler path. Bottom is
    // kept sorted descending so the min stays at the back.
    const auto it = std::lower_bound(bottom_.begin(), bottom_.end(), ev,
                                     KeyGreater{});
    bottom_.insert(it, ev);
  }

  Event* peek_min() {
    ensure_bottom();
    return bottom_.empty() ? nullptr : bottom_.back();
  }

  Event* pop_min() {
    ensure_bottom();
    if (bottom_.empty()) return nullptr;
    Event* ev = bottom_.back();
    bottom_.pop_back();
    --size_;
    return ev;
  }

  // Remove a specific pending envelope. Returns false if absent.
  bool erase(Event* ev) {
    const Time ts = ev->key.ts;
    if (ts > top_start_) {  // mirrors the insert walk
      if (erase_from(top_, ev)) {
        --size_;
        return true;
      }
    } else {
      for (Rung& r : rungs_) {
        std::size_t bi = r.target(ts);
        if (bi == Rung::kPastCoverage) bi = r.buckets.size() - 1;
        if (bi != Rung::kBeforeFrontier) {
          if (erase_from(r.buckets[bi], ev)) {
            --r.count;
            --size_;
            return true;
          }
          break;
        }
      }
      const auto [lo, hi] = std::equal_range(bottom_.begin(), bottom_.end(),
                                             ev, KeyGreater{});
      for (auto it = lo; it != hi; ++it) {
        if (*it == ev) {
          bottom_.erase(it);
          --size_;
          return true;
        }
      }
    }
    // Slow exhaustive sweep: reached by ghost erases (absent events, answer
    // false) and rare boundary roundings where the targeted bucket guess
    // missed. Never on the annihilation fast path.
    for (Rung& r : rungs_) {
      for (std::vector<Event*>& b : r.buckets) {
        if (erase_from(b, ev)) {
          --r.count;
          --size_;
          return true;
        }
      }
    }
    if (erase_from(top_, ev)) {
      --size_;
      return true;
    }
    for (auto it = bottom_.begin(); it != bottom_.end(); ++it) {
      if (*it == ev) {
        bottom_.erase(it);
        --size_;
        return true;
      }
    }
    return false;
  }

  void clear() noexcept {
    top_.clear();
    rungs_.clear();
    bottom_.clear();
    size_ = 0;
    top_start_ = -std::numeric_limits<double>::infinity();
    top_min_ = top_max_ = 0.0;
  }

 private:
  // A bucket larger than this spawns a finer rung instead of sorting into
  // Bottom; each child rung subdivides one parent bucket into kChildBuckets.
  static constexpr std::size_t kSpawnThreshold = 48;
  static constexpr std::size_t kChildBuckets = 32;
  static constexpr std::size_t kMaxRungs = 8;
  static constexpr double kMinWidth = 1e-12;
  // Bucket boundaries are fl(start + width*k); each stacked rung adds up to
  // half an ULP of rounding to its start, so kMaxRungs levels can drift the
  // finest geometry by ~4 ULPs. Keeping every width at >= 8 ULPs of its own
  // start makes the +2-bucket coverage slack (2 widths) dominate that drift,
  // so the filing walk can never land beyond a rung's range or behind its
  // frontier. kMinWidth remains the absolute floor near t = 0.
  static double min_width_at(double t) noexcept {
    const double mag = std::abs(t);
    const double ulp =
        std::nextafter(mag, std::numeric_limits<double>::infinity()) - mag;
    return std::max(kMinWidth, 8.0 * ulp);
  }

  struct KeyGreater {
    bool operator()(const Event* a, const Event* b) const noexcept {
      return b->key < a->key;
    }
  };

  struct Rung {
    static constexpr std::size_t kBeforeFrontier =
        static_cast<std::size_t>(-1);
    static constexpr std::size_t kPastCoverage = static_cast<std::size_t>(-2);

    double start = 0.0;  // timestamp of bucket 0's left edge
    double width = 1.0;
    std::size_t cur = 0;  // first unconsumed bucket
    std::size_t count = 0;
    std::vector<std::vector<Event*>> buckets;

    double cur_start() const noexcept {
      return start + width * static_cast<double>(cur);
    }
    // Bucket the filing walk (insert/erase) targets for ts, or
    // kBeforeFrontier when ts precedes the unconsumed range. This must use
    // the exact same float computation as idx() below: deciding the boundary
    // with `ts >= start + width*cur` instead can disagree with the
    // division's rounding when ts falls exactly on a bucket edge, filing
    // part of an equal-timestamp cohort into this rung after the rest was
    // already subdivided or drained below it — those tiers pop first, so a
    // smaller tie-break would surface after a larger one and break the
    // full-EventKey pop order the engines rely on.
    std::size_t target(Time ts) const noexcept {
      const double d = (ts - start) / width;
      if (d < static_cast<double>(cur)) return kBeforeFrontier;
      const std::size_t b =
          std::min(static_cast<std::size_t>(d), buckets.size() - 1);
      // Clamping below the frontier (only possible when the rung is fully
      // consumed and ts overshoots its range) must not file the event into
      // consumed territory — the caller reopens the last bucket instead.
      if (b < cur) return kPastCoverage;
      return b;
    }
    std::size_t idx(Time ts) const noexcept {
      const double d = (ts - start) / width;
      std::size_t i = d <= 0.0 ? 0 : static_cast<std::size_t>(d);
      return std::min(i, buckets.size() - 1);
    }
    void put(Event* ev, Time ts) {
      buckets[idx(ts)].push_back(ev);
      ++count;
    }
  };

  static bool erase_from(std::vector<Event*>& v, Event* ev) noexcept {
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (v[i] == ev) {
        v[i] = v.back();
        v.pop_back();
        return true;
      }
    }
    return false;
  }

  // Refill Bottom from the finest rung (spawning finer rungs off oversized
  // buckets along the way), or from Top when the ladder is exhausted.
  void ensure_bottom() {
    while (bottom_.empty()) {
      if (rungs_.empty()) {
        if (top_.empty()) return;
        spawn_from_top();
        continue;
      }
      Rung& r = rungs_.back();
      while (r.cur < r.buckets.size() && r.buckets[r.cur].empty()) ++r.cur;
      if (r.cur >= r.buckets.size() || r.count == 0) {
        HP_ASSERT(r.count == 0,
                  "ladder rung discarded with %zu events stranded "
                  "(cur=%zu nb=%zu start=%.17g width=%.3g)",
                  r.count, r.cur, r.buckets.size(), r.start, r.width);
        rungs_.pop_back();
        continue;
      }
      std::vector<Event*>& b = r.buckets[r.cur];
      const double min_w = min_width_at(r.cur_start());
      if (b.size() > kSpawnThreshold && r.width > 2.0 * min_w &&
          rungs_.size() < kMaxRungs) {
        Rung child;
        child.start = r.cur_start();
        child.width = std::max(r.width / static_cast<double>(kChildBuckets),
                               min_w);
        const std::size_t nb = std::min<std::size_t>(
            kChildBuckets + 1,
            static_cast<std::size_t>(r.width / child.width) + 2);
        child.buckets.assign(nb, {});
        for (Event* ev : b) child.put(ev, ev->key.ts);
        r.count -= b.size();
        b.clear();
        ++r.cur;
        rungs_.push_back(std::move(child));  // invalidates r; loop re-derives
        continue;
      }
      r.count -= b.size();
      bottom_ = std::move(b);
      b.clear();
      ++r.cur;
      std::sort(bottom_.begin(), bottom_.end(), KeyGreater{});
    }
  }

  void spawn_from_top() {
    if (top_max_ <= top_min_) {
      // Degenerate span (all equal timestamps): nothing to subdivide — sort
      // straight into Bottom.
      bottom_ = std::move(top_);
      top_.clear();
      top_start_ = top_max_;
      std::sort(bottom_.begin(), bottom_.end(), KeyGreater{});
      return;
    }
    Rung r;
    r.start = top_min_;
    r.width = std::max((top_max_ - top_min_) /
                           static_cast<double>(std::max<std::size_t>(
                               top_.size(), 1)),
                       min_width_at(top_max_));
    const std::size_t nb = std::min<std::size_t>(
        top_.size() + 2,
        static_cast<std::size_t>((top_max_ - top_min_) / r.width) + 2);
    r.buckets.assign(std::max<std::size_t>(nb, 1), {});
    for (Event* ev : top_) r.put(ev, ev->key.ts);
    top_.clear();
    // New arrivals at or beyond the old maximum go back to Top; everything
    // below it now has a rung home.
    top_start_ = top_max_;
    rungs_.push_back(std::move(r));
  }

  std::vector<Event*> top_;
  double top_start_ = -std::numeric_limits<double>::infinity();
  double top_min_ = 0.0;
  double top_max_ = 0.0;
  std::vector<Rung> rungs_;  // coarse -> fine; back() is the active rung
  std::vector<Event*> bottom_;  // sorted descending; back() is the min
  std::size_t size_ = 0;
};

}  // namespace hp::des
