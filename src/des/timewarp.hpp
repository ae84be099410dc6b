#pragma once

// Optimistic (Time Warp) kernel with reverse computation — the ROSS
// equivalent this reproduction builds (DESIGN.md "Engine design notes").
//
// Threading model: one PE per std::jthread over shared memory. Each PE owns
//   * a pending event set ordered by the deterministic EventKey,
//   * the processed-event deques of its KPs (rollback granularity),
//   * a lock-free MPSC inbox (util::MpscQueue) other PEs push positive
//     events / anti tokens to — both travel as Event envelopes, antis with
//     is_anti set, so one FIFO channel preserves positive-before-anti order,
//   * per-destination outbound batches: remote sends and cancellations are
//     staged on a local chain and published with a single push_chain per
//     destination (a KP rollback emits one linked batch per peer instead of
//     N contended pushes), flushed at the top of every scheduler iteration
//     so nothing staged ever survives into a GVT round,
//   * an event pool.
// LP states and RNG streams are globally indexed but only ever touched by
// the owning PE during the run.
//
// Cancellation needs no lookup structure: a parent's ChildRef holds its
// child's envelope pointer, and an anti token carries that pointer to the
// child's owner (see ChildRef in des/event.hpp for why it cannot dangle).
// Only the owning PE dereferences it, after FIFO delivery, and checks the
// envelope's uid and status before acting.
//
// Rollback is KP-granular: a straggler or anti-message whose key precedes
// the KP's last processed key pops events in reverse order, cancelling their
// children (same-PE synchronously, remote via anti tokens) and invoking the
// model's reverse handler (or restoring snapshots in the state-saving
// ablation mode).
//
// GVT is barrier-synchronized: a request flag gathers all PEs at barrier A
// (after which nobody sends; outbound batches are flushed before arriving,
// so every in-flight envelope is fully linked in some inbox), each publishes
// min(pending, inbox) and meets barrier B, after which everybody knows the
// global minimum, fossil-collects its own KPs and resumes. Termination when
// GVT exceeds the end time.
//
// Optimism is limited by one per-PE controller (des/optimism.hpp): it floats
// the effective GVT interval below gvt_interval_events on the round's commit
// yield, backs off idle GVT requests exponentially, runs the pool-budget
// Open/Throttled/Blocked state and keeps the horizon (GVT + window) that
// next_event compares against.

#include <atomic>
#include <barrier>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "des/engine.hpp"
#include "des/event.hpp"
#include "des/ladder_queue.hpp"
#include "des/model.hpp"
#include "des/optimism.hpp"
#include "net/mapping.hpp"
#include "obs/forensics.hpp"
#include "obs/monitor.hpp"
#include "obs/probe.hpp"
#include "util/mpsc_queue.hpp"
#include "util/rng.hpp"

namespace hp::obs {
class TelemetryHub;
}

namespace hp::des {

class TwEngineInitCtx;

class TimeWarpEngine final : public Engine {
  friend class TwEngineInitCtx;
 public:
  TimeWarpEngine(Model& model, EngineConfig cfg);
  ~TimeWarpEngine() override;

  TimeWarpEngine(const TimeWarpEngine&) = delete;
  TimeWarpEngine& operator=(const TimeWarpEngine&) = delete;

  RunStats run() override;

  LpState& state(std::uint32_t lp) noexcept override { return *states_[lp]; }
  const LpState& state(std::uint32_t lp) const noexcept override {
    return *states_[lp];
  }
  std::uint32_t num_lps() const noexcept override { return cfg_.num_lps; }

 private:
  struct KpData {
    std::deque<Event*> processed;  // committed-prefix popped at fossil time
  };

  // Locally staged chain of envelopes bound for one destination PE,
  // published with a single MpscQueue::push_chain.
  struct OutBatch {
    Event* head = nullptr;
    Event* tail = nullptr;
    std::uint32_t count = 0;
  };

  struct alignas(64) PeData {
    std::uint32_t id = 0;
    std::vector<std::uint32_t> kps;
    LadderQueue pending;
    util::MpscQueue<Event> inbox;
    EventPool pool;
    std::uint64_t uid_counter = 0;

    // Outbound staging, indexed by destination PE; out_dirty lists the
    // destinations with a non-empty batch. Invariant: both are empty
    // whenever the PE is at the top of its scheduler loop past the flush
    // (in particular on every gvt_round entry).
    std::vector<OutBatch> out;
    std::vector<std::uint32_t> out_dirty;

    // GVT pacing, pool-budget flow state and the execution horizon.
    OptimismController opt;
    std::uint64_t committed_at_last_gvt = 0;

    // Observability: named counters + per-phase wall time (the scheduler
    // loop talks to `probe`, which charges `metrics` and records spans into
    // `trace` when tracing is on), plus this PE's share of the GVT-round
    // time series. Local round counter doubles as the ring's round index —
    // rounds are barrier-global, so every PE counts them identically.
    obs::PeMetrics metrics;
    obs::PhaseProbe probe;
    obs::TraceBuffer trace;
    obs::GvtSeriesRing series;
    std::uint64_t local_rounds = 0;
    std::uint64_t throttle_begin_ns = 0;  // open Throttled span (tracing only)

    // Rollback forensics: the per-KP heatmaps this PE accumulates, the
    // cascade context (chain length of the rollback episode currently
    // executing; 0 = ambient, so episodes it induces are depth ctx + 1),
    // and a counter minting unique flow-event ids.
    obs::RollbackForensics forensics;
    std::uint32_t cascade_ctx = 0;
    std::uint64_t flow_counter = 0;

    // Deterministic fault injection (active only when cfg.fault.any()).
    // chaos_rng drives drain-shaped decisions (reorder/batch-split);
    // per-envelope decisions hash the plan seed with the envelope uid so an
    // envelope's fate is independent of when it happens to be drained.
    // chaos_held parks delayed envelopes until a GVT round releases them;
    // held envelopes still feed the GVT minimum so nothing commits past
    // them. chaos_run is the reorder scratch buffer.
    util::ReversibleRng chaos_rng{1};
    struct HeldEnvelope {
      Event* ev;
      std::uint64_t release_round;  // pe.local_rounds value that frees it
    };
    std::vector<HeldEnvelope> chaos_held;
    std::vector<Event*> chaos_run;
  };

  // One cache line per PE of per-round state, written between GVT barriers A
  // and B and read after barrier B — by PE 0 for the monitor heartbeat and
  // gauges, and by every PE for the checkpoint trigger. The reads race with
  // nothing: a writer only touches its slice after the *next* barrier A,
  // which cannot complete until every reader has finished the current round
  // and arrived at it.
  struct alignas(64) MonitorSlice {
    std::uint64_t processed = 0;    // cumulative forward executions
    std::uint64_t rolled_back = 0;  // cumulative events undone
    std::uint64_t committed = 0;    // cumulative commits as of the last round
    std::uint64_t inbox_depth = 0;  // envelopes seen at this round's barrier
    bool has_top = false;
    std::uint32_t top_kp = 0;
    std::uint64_t top_kp_events = 0;
    // Optimism flow control: this PE's live-envelope count and throttle
    // state when the slice was published, plus its slab-storage footprint
    // for the heartbeat's pool_bytes aggregate.
    std::uint64_t pool_live = 0;
    std::uint64_t pool_bytes = 0;
    bool throttled = false;
    bool blocked = false;
  };

  class TwCtx;

  void run_pe(PeData& pe);
  void drain_inbox(PeData& pe);
  // Fault-injected drain: applies the FaultPlan's delay / straggler /
  // reorder / batch-split / dup-anti schedule while preserving every
  // ordering the annihilation protocol needs (see des/fault.hpp).
  void drain_inbox_chaos(PeData& pe);
  // Anti delivery tolerant of chaos-held positives: annihilates in place, in
  // the holdback buffer, or counts a stale drop (dup-anti duplicates).
  void chaos_deliver_anti(PeData& pe, Event* anti);
  // Kill a positive parked in the local holdback buffer before it was ever
  // delivered; returns false when `victim` is not held here.
  bool chaos_kill_held(PeData& pe, Event* victim);
  // Deliver the reorder scratch buffer (possibly reversed) and clear it.
  void chaos_flush_run(PeData& pe);
  // Release held envelopes whose round has come (and all of them when the
  // run is over and `all` is set — those are freed, not delivered).
  void chaos_release(PeData& pe, bool all);
  // Checkpoint quiesce only: force-deliver every held envelope regardless of
  // its release round. The fence must serialize in-flight work, so freeing
  // (what chaos_release(all=true) does) would be wrong here.
  void chaos_deliver_all_held(PeData& pe);
  bool stall_active(const PeData& pe) const noexcept;
  // Per-envelope fault decision: hash of (plan seed, uid) against `prob`,
  // so an envelope's fate does not depend on drain timing.
  bool chaos_hit(double prob, std::uint64_t uid) const noexcept;
  void deliver(PeData& pe, Event* ev);
  // Stage an envelope for a remote PE (positives and anti tokens alike);
  // flush_outboxes publishes every staged chain, one push per destination.
  void stage_remote(PeData& pe, std::uint32_t dst_pe, Event* ev);
  void flush_outboxes(PeData& pe);
  // `dst_pe` is the victim's owner, looked up in lp_pe_ by the caller.
  void send_anti(PeData& pe, const ChildRef& c, std::uint32_t dst_pe);
  // Kill the delivered positive `ev` named by a remote anti token (`uid` is
  // the token's copy, checked against the envelope). `offender_kp`/
  // `offender_pe` attribute any rollback the annihilation induces (the
  // canceller's KP); `send_wall_ns` is the anti's send stamp (0 when stamps
  // are off).
  void annihilate(PeData& pe, Event* ev, std::uint64_t uid,
                  std::uint32_t offender_kp, std::uint32_t offender_pe,
                  std::uint64_t send_wall_ns);
  void rollback(PeData& pe, std::uint32_t kp, const EventKey& key,
                const obs::RollbackCause& cause);
  void cancel_children(PeData& pe, Event* ev);
  void cancel_stale(PeData& pe, Event* ev);
  // Shared cancellation core for a dying parent's child list: remote
  // children get anti tokens immediately, local victims are collected and
  // applied as ONE batched rollback per distinct KP (to the earliest victim
  // key) instead of one re-traversal per child — the cascade hot path the
  // PR-3 forensics flagged. `offender_kp` attributes any induced rollback.
  void cancel_refs(PeData& pe, const ChildRef* refs, std::size_t n,
                   std::uint32_t offender_kp);
  void undo_event(PeData& pe, Event* ev);
  void process_one(PeData& pe, Event* ev);
  // GVT round. Returns true when the run is complete (GVT beyond end time).
  bool gvt_round(PeData& pe);
  // The commit point, reached by every PE from gvt_round after barrier B
  // with the round's GVT. Runs fossil collection, the progress beacon, the
  // chaos stall counter, the checkpoint round, the GvtRoundSample push,
  // PE 0's monitor record and gauges, and last the optimism controller's
  // commit step (interval, window, horizon).
  void commit_point(PeData& pe, Time gvt, std::uint64_t inbox_depth);
  // Engine-global side effects of a new GVT (round count, shared GVT,
  // watchdog heart), taken by PE 0 once per round.
  void publish_gvt(PeData& pe, Time gvt);
  // Minimum timestamp over the pending set and the chaos holdback.
  Time held_min(PeData& pe);
  // Fill this PE's MonitorSlice (between barriers A and B of a round).
  void publish_slice(PeData& pe, std::uint64_t inbox_depth);
  // Checkpoint at the GVT fence, entered from commit_point by every PE in the
  // same round (the trigger reads only replicated slice data): roll every
  // owned KP back to {gvt,0,0,0,0}, quiesce the traffic the sweep put in
  // flight (drain, flush and vote between barriers until a full pass moves
  // nothing on any PE; quiesce_again_ is the vote flag), drain pending into
  // the per-PE stage, PE 0 serializes while the others park at a barrier,
  // then everybody reinserts and resumes.
  void checkpoint_round(PeData& pe, Time gvt);
  // PE 0 only, from commit_point: aggregate the monitor slices and emit one
  // JSON-lines heartbeat record.
  void emit_monitor_record(std::uint64_t round_idx, Time gvt);
  void fossil_collect(PeData& pe, Time gvt);
  Event* next_event(PeData& pe);
  void seed_initial_events();
  // Per-iteration flow check: steps the controller on the PE's live
  // envelopes and takes the side effects of a transition (counters, beacon
  // phase, throttle trace span, the forced GVT round of a hard block).
  void update_flow_control(PeData& pe);
  void close_throttle_span(PeData& pe);

  Model& model_;
  EngineConfig cfg_;
  std::unique_ptr<net::Mapping> owned_mapping_;
  const net::Mapping* mapping_ = nullptr;

  std::vector<std::unique_ptr<LpState>> states_;
  std::vector<util::ReversibleRng> rngs_;
  // LP -> PE routing, filled once from the mapping at construction and
  // immutable afterwards: remote sends, anti messages and the cancellation
  // local/remote branch all read it.
  std::vector<std::uint32_t> lp_pe_;
  std::vector<std::uint32_t> lp_kp_;

  std::vector<KpData> kps_;
  std::vector<std::unique_ptr<PeData>> pes_;
  std::vector<std::unique_ptr<TwCtx>> fwd_ctx_;
  std::vector<std::unique_ptr<TwCtx>> rev_ctx_;

  std::barrier<> bar_a_;
  std::barrier<> bar_b_;
  std::atomic<bool> gvt_request_{false};
  std::vector<Time> local_min_;  // indexed by PE, padded writes are fine here
  std::atomic<std::uint64_t> gvt_rounds_{0};
  std::atomic<Time> shared_gvt_{0.0};
  std::atomic<bool> quiesce_again_{false};  // checkpoint quiesce vote flag
  std::uint64_t epoch_ns_ = 0;  // run-start timestamp for series/trace

  // Stamp remote sends with wall time for trace flow events (only when
  // tracing AND forensics are both on; otherwise zero clock reads).
  bool trace_stamps_ = false;
  bool tracing_ = false;

  // Latency telemetry (ObsConfig::telemetry): off => zero clock reads on the
  // scheduler hot path; on => per-PE lock-free rings feed the hub's
  // histograms and the exposition endpoint. Stamps never influence event
  // order, so committed state stays bit-identical either way.
  bool telemetry_ = false;
  std::unique_ptr<obs::TelemetryHub> hub_;

  // Fault injection (cfg.fault.any()); one predictable branch when false.
  bool chaos_ = false;
  // Round slices are live when the monitor, telemetry gauges or
  // checkpointing needs them.
  bool slices_on_ = false;

  // Checkpointing (cfg.checkpoint.enabled()). ck_next_ is the committed-count
  // threshold for the next image: written only by PE 0 between the barriers
  // of a checkpoint round and read by every PE at the trigger check, which
  // the same barriers order after the write. ck_stage_ is indexed by PE and
  // touched only by its owner — except during PE 0's serialize, which runs
  // with every other PE parked.
  bool ck_on_ = false;
  std::uint64_t ck_base_committed_ = 0;  // image baseline when restoring
  std::uint64_t ck_next_ = ~0ull;
  std::vector<std::vector<Event*>> ck_stage_;

  // Stall watchdog / fail-fast diagnostics (see des/watchdog.hpp). Beacons
  // are relaxed atomics each PE updates about itself once per GVT round.
  WatchdogHeart wd_heart_;
  std::unique_ptr<PeBeacon[]> wd_beacons_;

  // Live monitor (null unless ObsConfig::monitor). Slices are per-PE; the
  // mon_last_* bookkeeping is touched only by PE 0.
  std::unique_ptr<obs::MonitorWriter> monitor_;
  std::vector<MonitorSlice> mon_slices_;
  std::uint64_t mon_last_processed_ = 0;
  std::uint64_t mon_last_rolled_back_ = 0;
  std::uint64_t mon_last_ns_ = 0;
  std::uint32_t mon_rounds_since_emit_ = 0;
};

}  // namespace hp::des
