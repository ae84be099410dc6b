#pragma once

// Kernel observability: the unified metrics vocabulary shared by all three
// DES kernels (DESIGN.md "Observability layer").
//
//   * Phase      — where a PE's wall time goes (the report's Figs. 5-8 are
//                  all questions about this breakdown).
//   * Counter    — every event-level statistic the kernels report, as a
//                  named id with a declared reduction (sum or max), so the
//                  per-PE -> aggregate fold is one table-driven loop instead
//                  of a hand-written summing loop per engine.
//   * PeMetrics  — one PE's counters + per-phase nanoseconds.
//   * GvtRoundSample / GvtSeriesRing — the bounded per-GVT-round time
//                  series (GVT value, commit yield, inbox depth, envelope
//                  pool size).
//   * MetricsReport — the structured result every kernel returns: reduced
//                  totals, per-PE breakdown, GVT series, wall time; knows
//                  how to dump itself as JSON.
//
// Everything here is passive bookkeeping: metrics never influence event
// order, so committed results are bit-identical with observability on, off,
// or partially enabled.

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/forensics.hpp"
#include "obs/latency.hpp"

namespace hp::util {
class JsonWriter;
}

namespace hp::obs {

// ---------------------------------------------------------------------------
// Phase taxonomy

enum class Phase : std::uint8_t {
  Forward,     // model forward handlers + event scheduling
  Rollback,    // undoing events, cancelling/annihilating children
  GvtBarrier,  // GVT round barriers + minima exchange
  Fossil,      // committing + reclaiming the stable prefix
  InboxDrain,  // popping the MPSC inbox, delivering remote events
  Idle,        // no executable work (window closed / starved / spinning)
  Throttled,   // optimism flow control capping this PE (soft/hard watermark)
  Checkpoint,  // checkpoint fence rollback, quiescence and serialization
  GvtEpoch,    // never charged (always 0); perfbench/run.py reads its key
  kCount
};
inline constexpr std::size_t kNumPhases = static_cast<std::size_t>(Phase::kCount);

constexpr const char* phase_name(Phase p) noexcept {
  switch (p) {
    case Phase::Forward: return "forward";
    case Phase::Rollback: return "rollback";
    case Phase::GvtBarrier: return "gvt_barrier";
    case Phase::Fossil: return "fossil";
    case Phase::InboxDrain: return "inbox_drain";
    case Phase::Idle: return "idle";
    case Phase::Throttled: return "throttled";
    case Phase::Checkpoint: return "checkpoint";
    case Phase::GvtEpoch: return "gvt_epoch";
    case Phase::kCount: break;
  }
  // Unreachable for valid enumerators; a new phase without a case above is a
  // compile error in the constant-evaluated coverage test (tests/test_obs).
  __builtin_unreachable();
}

// ---------------------------------------------------------------------------
// Named counters

enum class Counter : std::uint8_t {
  Processed,           // forward executions incl. re-execution
  Committed,           // events that survived to commit
  RolledBack,          // events undone
  PrimaryRollbacks,    // rollback episodes caused by a straggler positive
  SecondaryRollbacks,  // episodes induced by an anti-message / cancellation
  PrimaryRollbackEvents,    // events undone across primary episodes
  SecondaryRollbackEvents,  // events undone across secondary episodes
  MaxRollbackDepth,    // deepest single episode, events undone (max-reduced)
  MaxCascadeDepth,     // longest cascade chain observed (max-reduced)
  AntiMessages,        // remote cancellations sent
  LazyReused,          // children reused by lazy cancellation
  PoolEnvelopes,       // event envelope storage capacity (high-water mark)
  PoolLiveEnvelopes,   // outstanding envelopes at end of run (true pressure)
  PoolPeakLive,        // peak outstanding envelopes on one PE (max-reduced)
  PoolSlabs,           // slabs backing the envelope pool (kSlabEnvelopes each)
  PoolBytes,           // bytes of slab storage owned by the envelope pool
  InboxBatches,        // chain pushes into peer inboxes
  InboxBatchedItems,   // envelopes across those batches
  MaxInboxBatch,       // largest single batch (reduced by max)
  GvtProgressTriggers, // GVT requests: interval reached
  GvtIdleTriggers,     // GVT requests: idle backoff
  GvtPoolTriggers,     // GVT requests: hard pool watermark forced a round
  IdleSpins,           // loop iterations with no work
  ThrottleEntries,     // optimism flow control: Open -> Throttled transitions
  ThrottleExits,       // optimism flow control: Throttled -> Open transitions
  HardBlocks,          // optimism flow control: hard watermark blocks
  ChaosDelayedEvents,  // fault injection: envelopes held back k GVT rounds
  ChaosStragglers,     // fault injection: synthetic stragglers near the horizon
  ChaosReorderedEvents,// fault injection: envelopes delivered out of order
  ChaosDupAntis,       // fault injection: duplicated anti-message deliveries
  ChaosStaleAntis,     // antis that found no positive (chaos runs only)
  ChaosStallRounds,    // fault injection: GVT rounds spent stalled
  TelemetryDropped,    // latency samples dropped on telemetry-ring overflow
  Checkpoints,         // checkpoint images written (PE 0 / sequential only)
  kCount
};
inline constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(Counter::kCount);

enum class Reduce : std::uint8_t { Sum, Max };

struct CounterDef {
  const char* name;
  Reduce reduce;
};

inline constexpr std::array<CounterDef, kNumCounters> kCounterDefs{{
    {"processed_events", Reduce::Sum},
    {"committed_events", Reduce::Sum},
    {"rolled_back_events", Reduce::Sum},
    {"primary_rollbacks", Reduce::Sum},
    {"secondary_rollbacks", Reduce::Sum},
    {"primary_rollback_events", Reduce::Sum},
    {"secondary_rollback_events", Reduce::Sum},
    {"max_rollback_depth", Reduce::Max},
    {"max_cascade_depth", Reduce::Max},
    {"anti_messages", Reduce::Sum},
    {"lazy_reused", Reduce::Sum},
    {"pool_envelopes", Reduce::Sum},
    {"pool_live_envelopes", Reduce::Sum},
    {"pool_peak_live_envelopes", Reduce::Max},
    {"pool_slabs", Reduce::Sum},
    {"pool_bytes", Reduce::Sum},
    {"inbox_batches", Reduce::Sum},
    {"inbox_batched_items", Reduce::Sum},
    {"max_inbox_batch", Reduce::Max},
    {"gvt_progress_triggers", Reduce::Sum},
    {"gvt_idle_triggers", Reduce::Sum},
    {"gvt_pool_triggers", Reduce::Sum},
    {"idle_spins", Reduce::Sum},
    {"throttle_entries", Reduce::Sum},
    {"throttle_exits", Reduce::Sum},
    {"hard_blocks", Reduce::Sum},
    {"chaos_delayed_events", Reduce::Sum},
    {"chaos_stragglers", Reduce::Sum},
    {"chaos_reordered_events", Reduce::Sum},
    {"chaos_dup_antis", Reduce::Sum},
    {"chaos_stale_antis", Reduce::Sum},
    {"chaos_stall_rounds", Reduce::Sum},
    {"telemetry_dropped", Reduce::Sum},
    {"checkpoints_written", Reduce::Sum},
}};

constexpr const char* counter_name(Counter c) noexcept {
  return kCounterDefs[static_cast<std::size_t>(c)].name;
}

// ---------------------------------------------------------------------------
// Per-PE metrics

struct PeMetrics {
  std::array<std::uint64_t, kNumCounters> counters{};
  std::array<std::uint64_t, kNumPhases> phase_ns{};

  std::uint64_t& at(Counter c) noexcept {
    return counters[static_cast<std::size_t>(c)];
  }
  std::uint64_t at(Counter c) const noexcept {
    return counters[static_cast<std::size_t>(c)];
  }
  std::uint64_t& ns(Phase p) noexcept {
    return phase_ns[static_cast<std::size_t>(p)];
  }
  std::uint64_t ns(Phase p) const noexcept {
    return phase_ns[static_cast<std::size_t>(p)];
  }
  std::uint64_t total_phase_ns() const noexcept {
    std::uint64_t t = 0;
    for (const std::uint64_t v : phase_ns) t += v;
    return t;
  }

  // Named read accessors (the historical PeRunStats field vocabulary).
  std::uint64_t processed_events() const noexcept { return at(Counter::Processed); }
  std::uint64_t committed_events() const noexcept { return at(Counter::Committed); }
  std::uint64_t rolled_back_events() const noexcept { return at(Counter::RolledBack); }
  std::uint64_t primary_rollbacks() const noexcept { return at(Counter::PrimaryRollbacks); }
  std::uint64_t secondary_rollbacks() const noexcept { return at(Counter::SecondaryRollbacks); }
  std::uint64_t primary_rollback_events() const noexcept { return at(Counter::PrimaryRollbackEvents); }
  std::uint64_t secondary_rollback_events() const noexcept { return at(Counter::SecondaryRollbackEvents); }
  std::uint64_t max_rollback_depth() const noexcept { return at(Counter::MaxRollbackDepth); }
  std::uint64_t max_cascade_depth() const noexcept { return at(Counter::MaxCascadeDepth); }
  std::uint64_t anti_messages() const noexcept { return at(Counter::AntiMessages); }
  std::uint64_t lazy_reused() const noexcept { return at(Counter::LazyReused); }
  std::uint64_t pool_envelopes() const noexcept { return at(Counter::PoolEnvelopes); }
  std::uint64_t pool_live_envelopes() const noexcept { return at(Counter::PoolLiveEnvelopes); }
  std::uint64_t pool_peak_live() const noexcept { return at(Counter::PoolPeakLive); }
  std::uint64_t pool_slabs() const noexcept { return at(Counter::PoolSlabs); }
  std::uint64_t pool_bytes() const noexcept { return at(Counter::PoolBytes); }
  std::uint64_t inbox_batches() const noexcept { return at(Counter::InboxBatches); }
  std::uint64_t inbox_batched_items() const noexcept { return at(Counter::InboxBatchedItems); }
  std::uint64_t max_inbox_batch() const noexcept { return at(Counter::MaxInboxBatch); }
  std::uint64_t gvt_progress_triggers() const noexcept { return at(Counter::GvtProgressTriggers); }
  std::uint64_t gvt_idle_triggers() const noexcept { return at(Counter::GvtIdleTriggers); }
  std::uint64_t gvt_pool_triggers() const noexcept { return at(Counter::GvtPoolTriggers); }
  std::uint64_t idle_spins() const noexcept { return at(Counter::IdleSpins); }
  std::uint64_t throttle_entries() const noexcept { return at(Counter::ThrottleEntries); }
  std::uint64_t throttle_exits() const noexcept { return at(Counter::ThrottleExits); }
  std::uint64_t hard_blocks() const noexcept { return at(Counter::HardBlocks); }
  std::uint64_t telemetry_dropped() const noexcept { return at(Counter::TelemetryDropped); }
  std::uint64_t checkpoints_written() const noexcept { return at(Counter::Checkpoints); }

  bool operator==(const PeMetrics&) const = default;
};

// The single per-PE -> aggregate reduction: table-driven over kCounterDefs
// (sum or max per counter), phase times summed.
PeMetrics reduce(const std::vector<PeMetrics>& per_pe);

// ---------------------------------------------------------------------------
// GVT-round time series

struct GvtRoundSample {
  std::uint64_t round = 0;          // 0-based GVT round index
  std::uint64_t t_ns = 0;           // wall time of the round, ns since run start
  double gvt = 0.0;                 // the global minimum this round agreed on
  std::uint64_t processed = 0;      // forward executions since the last round
  std::uint64_t committed = 0;      // events fossil-committed this round
  std::uint64_t inbox_depth = 0;    // envelopes seen in inboxes at barrier B
  std::uint64_t pool_envelopes = 0; // envelope storage capacity so far
  std::uint64_t pool_live = 0;      // outstanding envelopes at this round
  std::uint64_t pool_bytes = 0;     // slab bytes owned by the pool(s)

  // Fraction of the round's optimism that survived; can exceed 1 when older
  // optimistic work finally commits.
  double commit_yield() const noexcept {
    return processed > 0
               ? static_cast<double>(committed) / static_cast<double>(processed)
               : 1.0;
  }
  bool operator==(const GvtRoundSample&) const = default;
};

// Bounded ring of the most recent GVT rounds. capacity == 0 disables
// retention (pushes only count).
class GvtSeriesRing {
 public:
  GvtSeriesRing() = default;
  explicit GvtSeriesRing(std::uint32_t capacity) { reset(capacity); }

  void reset(std::uint32_t capacity) {
    cap_ = capacity;
    buf_.clear();
    buf_.reserve(std::min<std::uint32_t>(capacity, 1024));
    pushed_ = 0;
  }

  void push(const GvtRoundSample& s) {
    if (cap_ > 0) {
      if (buf_.size() < cap_) {
        buf_.push_back(s);
      } else {
        buf_[static_cast<std::size_t>(pushed_ % cap_)] = s;
      }
    }
    ++pushed_;
  }

  std::uint64_t total_pushed() const noexcept { return pushed_; }
  std::uint32_t capacity() const noexcept { return cap_; }
  std::size_t size() const noexcept { return buf_.size(); }

  // Oldest-first copy of the retained window.
  std::vector<GvtRoundSample> snapshot() const {
    std::vector<GvtRoundSample> out;
    out.reserve(buf_.size());
    if (cap_ == 0 || buf_.empty()) return out;
    const std::size_t start =
        buf_.size() < cap_ ? 0 : static_cast<std::size_t>(pushed_ % cap_);
    for (std::size_t i = 0; i < buf_.size(); ++i) {
      out.push_back(buf_[(start + i) % buf_.size()]);
    }
    return out;
  }

 private:
  std::uint32_t cap_ = 0;
  std::uint64_t pushed_ = 0;
  std::vector<GvtRoundSample> buf_;
};

// ---------------------------------------------------------------------------
// Observability configuration (embedded in des::EngineConfig)

struct ObsConfig {
  // Per-phase wall-time accounting. Clock reads happen only on phase
  // *transitions* (a batch of forward executions is one transition pair),
  // so the steady-state overhead is a compare+branch per scheduler action.
  bool phase_timers = true;
  // GVT rounds retained in the per-run time series ring; 0 disables.
  std::uint32_t gvt_series_capacity = 4096;
  // Chrome/Perfetto trace.json export of per-PE phase spans. Off by
  // default; when off the only cost is one predictable branch per phase
  // transition.
  bool trace = false;
  std::string trace_path = "trace.json";
  // Span budget per PE; beyond it spans are dropped (and counted) so a long
  // run cannot exhaust memory. Rollback-forensics flow events share the same
  // per-PE budget.
  std::uint32_t max_trace_spans_per_pe = 1u << 20;
  // Rollback forensics (Time Warp only): per-KP victim/offender heatmaps,
  // the cascade-length histogram, and — when tracing too — trace.json flow
  // events linking an offending send to the rollback it caused. The scalar
  // attribution counters (primary/secondary episodes and events, max
  // depth/cascade) are plain arithmetic and stay on regardless; this flag
  // gates the heatmap vectors and the send timestamping, so fully off costs
  // zero clock reads. Pure bookkeeping either way — committed results are
  // bit-identical at any setting.
  bool forensics = true;
  // Live run monitor (Time Warp only; the other kernels accept and ignore
  // it): one JSON-lines record to `monitor_path` (empty = stderr) every
  // `monitor_interval` GVT rounds. See obs/monitor.hpp.
  bool monitor = false;
  std::uint32_t monitor_interval = 1;
  std::string monitor_path;
  // Latency telemetry (all kernels): wall-clock event-lifecycle latencies
  // recorded into per-PE lock-free SPSC rings, drained by a background
  // collector thread into HDR histograms (obs/telemetry.hpp). Off by
  // default — fully off costs zero clock reads on the hot path. On, the
  // recorded wall-clock values feed histograms only, never event order, so
  // committed results stay bit-identical (the determinism_check contract).
  bool telemetry = false;
  // Samples per PE ring, rounded up to a power of two. On overflow the hot
  // path drops the sample and bumps Counter::TelemetryDropped instead of
  // blocking on the collector.
  std::uint32_t telemetry_ring_capacity = 1u << 15;
  // Live Prometheus-text exposition: "<port>" serves HTTP on
  // 127.0.0.1:<port>, "unix:<path>" on a unix socket; empty = no listener.
  // Setting it implies telemetry.
  std::string metrics_endpoint;
  // Periodic Prometheus-text dump (atomic rewrite every metrics_flush_ms)
  // for socket-less CI, plus a final dump at end of run. Implies telemetry.
  std::string metrics_out;
  std::uint32_t metrics_flush_ms = 500;

  // The effective gate the kernels check: the exposition flags switch
  // telemetry on even when the bool was left false.
  bool telemetry_enabled() const noexcept {
    return telemetry || !metrics_endpoint.empty() || !metrics_out.empty();
  }
};

// ---------------------------------------------------------------------------
// The structured run report

struct MetricsReport {
  PeMetrics total;                    // reduce(per_pe), or direct (sequential)
  std::vector<PeMetrics> per_pe;      // empty for the sequential kernel
  std::vector<GvtRoundSample> gvt_series;  // oldest-first retained window
  std::uint64_t gvt_rounds = 0;       // total rounds (>= gvt_series.size())
  std::uint64_t trace_spans = 0;      // spans written to trace.json (0 = off)
  std::uint64_t trace_spans_dropped = 0;
  std::uint64_t trace_flows = 0;      // rollback flow events written
  std::uint64_t monitor_lines = 0;    // JSON-lines records emitted (0 = off)
  double wall_seconds = 0.0;
  double final_gvt = 0.0;
  // Merged rollback-forensics heatmaps (empty unless the Time Warp kernel
  // ran with ObsConfig::forensics on).
  RollbackForensics forensics;
  // Latency telemetry: aggregate HDR histograms per lifecycle metric,
  // folded from the per-PE histograms in ascending-PE order. `telemetry`
  // is true iff the run collected them (gates the JSON latency block).
  bool telemetry = false;
  std::array<LatencyHistogram, kNumLatencyMetrics> latency{};
  const LatencyHistogram& latency_hist(LatencyMetric m) const noexcept {
    return latency[static_cast<std::size_t>(m)];
  }

  // Recompute totals from the per-PE breakdown (no-op when per_pe is empty,
  // i.e. the kernel filled `total` directly).
  void finalize() {
    if (!per_pe.empty()) total = reduce(per_pe);
  }

  // Full structured dump: counters, per-phase seconds (totals and per PE),
  // and the GVT-round series.
  void write_json(util::JsonWriter& w) const;
};

}  // namespace hp::obs
