#include "des/timewarp.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <thread>
#include <utility>

#include "obs/telemetry.hpp"
#include "util/failure.hpp"
#include "util/hash.hpp"

namespace hp::des {

namespace {
// Fault injection: reorder scratch flushes at this many buffered positives.
constexpr std::size_t kChaosReorderWindow = 8;

// Pointer-form cancellation checks (ChildRef::ev, Event::victim). A
// reference is live while its envelope still carries the referenced uid and
// has not gone back to a free list; it is delivered when the envelope also
// sits in its owner's pending set or processed deque.
bool live_ref(const Event* ev, std::uint64_t uid) {
  return ev != nullptr && ev->uid == uid && ev->status != EventStatus::Free;
}
bool delivered_ref(const Event* ev, std::uint64_t uid) {
  return live_ref(ev, uid) && ev->status != EventStatus::InFlight;
}

}

using obs::Counter;
using obs::Phase;

// Per-PE send context. A PE owns two instances: one for forward execution
// and one for reverse handlers during rollback, because a rollback can fire
// in the middle of a forward handler's send() (local straggler delivery to a
// KP that ran ahead) and must not clobber the forward context.
class TimeWarpEngine::TwCtx final : public Context {
 public:
  TwCtx(TimeWarpEngine& e, PeData& pe) : e_(e), pe_(pe) {}

  void begin_forward(Event* ev) {
    cur_ = ev;
    rng_ = &e_.rngs_[ev->key.dst_lp];
    send_seq_ = 0;
    reversing_ = false;
    ev->cv = 0;
  }

  void begin_reverse(Event* ev) {
    cur_ = ev;
    rng_ = &e_.rngs_[ev->key.dst_lp];
    send_seq_ = 0;
    reversing_ = true;
  }

 protected:
  Event* prepare_send_(std::uint32_t dst_lp, Time ts) override {
    HP_ASSERT(dst_lp < e_.cfg_.num_lps,
              "PE %u KP %u LP %u t=%.6f: send to out-of-range LP %u at ts=%.6f",
              pe_.id, cur_->kp, cur_->key.dst_lp, cur_->key.ts, dst_lp, ts);
    Event* ev = pe_.pool.allocate();
    ev->key = EventKey{ts, util::hash_combine(cur_->key.tie, send_seq_),
                       cur_->key.dst_lp, dst_lp, send_seq_};
    ev->uid = (static_cast<std::uint64_t>(pe_.id + 1) << 40) | ++pe_.uid_counter;
    ++send_seq_;
    ev->send_ts = cur_->key.ts;
    ev->kp = e_.lp_kp_[dst_lp];
    ev->status = EventStatus::InFlight;
    ev->cv = 0;
    if (HP_UNLIKELY(e_.telemetry_)) ev->create_wall_ns = obs::monotonic_ns();
    return ev;
  }

  // Word-wise content hash; only needed by lazy cancellation's exact-match
  // reuse, so aggressive mode never pays for it.
  static std::uint64_t payload_hash(const Event& ev) {
    std::uint64_t h = util::splitmix64(ev.payload_size);
    std::uint16_t i = 0;
    for (; i + 8 <= ev.payload_size; i += 8) {
      std::uint64_t w;
      std::memcpy(&w, ev.payload + i, 8);
      h = util::hash_combine(h, w);
    }
    if (i < ev.payload_size) {
      std::uint64_t w = 0;
      std::memcpy(&w, ev.payload + i,
                  static_cast<std::size_t>(ev.payload_size - i));
      h = util::hash_combine(h, w);
    }
    return h;
  }

  void commit_send_(Event* ev) override {
    const bool lazy =
        e_.cfg_.cancellation == EngineConfig::Cancellation::Lazy;
    const std::uint64_t ph = lazy ? payload_hash(*ev) : 0;
    if (lazy && cur_->has_stale_children()) {
      // Lazy cancellation: a bit-identical child from the rolled-back
      // execution is still alive — adopt it instead of resending.
      auto& stale = cur_->cold_block->stale_children;
      for (std::size_t i = 0; i < stale.size(); ++i) {
        if (stale[i].key == ev->key && stale[i].payload_hash == ph) {
          cur_->children.push_back(stale[i]);
          stale.erase(stale.begin() + static_cast<std::ptrdiff_t>(i));
          pe_.pool.free(ev);  // the fresh envelope was never published
          ++pe_.metrics.at(Counter::LazyReused);
          return;
        }
      }
    }
    cur_->children.push_back(ChildRef{ev->key, ev->uid, ph, ev});
    const std::uint32_t dst_pe = e_.lp_pe_[ev->key.dst_lp];
    if (dst_pe == pe_.id) {
      // Local delivery may roll back a sibling KP that ran ahead; see the
      // header notes. Never touches the currently executing KP because the
      // child's key exceeds the current event's key.
      e_.deliver(pe_, ev);
    } else {
      e_.stage_remote(pe_, dst_pe, ev);
    }
  }

 private:
  TimeWarpEngine& e_;
  PeData& pe_;
};

// Init context: single-threaded, pre-run; delivers root events straight to
// the owning PE.
class TwEngineInitCtx final : public InitContext {
 public:
  TwEngineInitCtx(TimeWarpEngine& e, std::uint64_t seed) : e_(e), seed_(seed) {}

  void begin_lp(std::uint32_t lp) {
    lp_ = lp;
    rng_ = &e_.rngs_[lp];
    idx_ = 0;
  }

 protected:
  Event* prepare_schedule_(std::uint32_t dst_lp, Time ts) override;
  void commit_schedule_(Event* ev) override;

 private:
  TimeWarpEngine& e_;
  std::uint64_t seed_;
  std::uint32_t idx_ = 0;
  std::uint64_t init_uid_ = 0;
};

TimeWarpEngine::TimeWarpEngine(Model& model, EngineConfig cfg)
    : model_(model),
      cfg_(cfg),
      bar_a_(static_cast<std::ptrdiff_t>(cfg.num_pes)),
      bar_b_(static_cast<std::ptrdiff_t>(cfg.num_pes)) {
  HP_ASSERT(cfg_.num_lps > 0, "num_lps must be positive");
  HP_ASSERT(cfg_.num_pes >= 1, "need at least one PE");
  if (cfg_.num_kps == 0) cfg_.num_kps = cfg_.num_pes;  // auto: one KP per PE
  HP_ASSERT(cfg_.num_kps >= cfg_.num_pes, "need at least one KP per PE");

  if (cfg_.mapping != nullptr) {
    mapping_ = cfg_.mapping;
    HP_ASSERT(mapping_->num_lps() == cfg_.num_lps &&
                  mapping_->num_kps() == cfg_.num_kps &&
                  mapping_->num_pes() == cfg_.num_pes,
              "mapping shape disagrees with engine config");
  } else {
    owned_mapping_ = std::make_unique<net::LinearMapping>(
        cfg_.num_lps, cfg_.num_kps, cfg_.num_pes);
    mapping_ = owned_mapping_.get();
  }

  kps_.resize(cfg_.num_kps);
  pes_.reserve(cfg_.num_pes);
  for (std::uint32_t pe = 0; pe < cfg_.num_pes; ++pe) {
    pes_.push_back(std::make_unique<PeData>());
    pes_.back()->id = pe;
    pes_.back()->out.resize(cfg_.num_pes);
    pes_.back()->opt =
        OptimismController(cfg_.gvt_interval_events, cfg_.optimism_window,
                           cfg_.pool_budget_envelopes);
  }
  std::vector<std::uint32_t> kp_pe(cfg_.num_kps);
  for (std::uint32_t kp = 0; kp < cfg_.num_kps; ++kp) {
    kp_pe[kp] = mapping_->pe_of_kp(kp);
    HP_ASSERT(kp_pe[kp] < cfg_.num_pes, "mapping returned PE out of range");
    pes_[kp_pe[kp]]->kps.push_back(kp);
  }

  states_.reserve(cfg_.num_lps);
  rngs_.reserve(cfg_.num_lps);
  lp_kp_.resize(cfg_.num_lps);
  lp_pe_.resize(cfg_.num_lps);
  for (std::uint32_t lp = 0; lp < cfg_.num_lps; ++lp) {
    states_.push_back(model_.make_state(lp));
    rngs_.emplace_back(util::hash_combine(cfg_.seed, lp));
    lp_kp_[lp] = mapping_->kp_of(lp);
    HP_ASSERT(lp_kp_[lp] < cfg_.num_kps, "mapping returned KP out of range");
    lp_pe_[lp] = kp_pe[lp_kp_[lp]];
  }

  for (std::uint32_t pe = 0; pe < cfg_.num_pes; ++pe) {
    fwd_ctx_.push_back(std::make_unique<TwCtx>(*this, *pes_[pe]));
    rev_ctx_.push_back(std::make_unique<TwCtx>(*this, *pes_[pe]));
  }
  local_min_.resize(cfg_.num_pes, kTimeInf);
}

TimeWarpEngine::~TimeWarpEngine() = default;

Event* TwEngineInitCtx::prepare_schedule_(std::uint32_t dst_lp, Time ts) {
  HP_ASSERT(dst_lp < e_.cfg_.num_lps, "schedule to out-of-range LP %u", dst_lp);
  // Root events are allocated from the destination PE's pool: pre-run is
  // single-threaded, so this is safe and keeps pool ownership tidy.
  TimeWarpEngine::PeData& pe = *e_.pes_[e_.lp_pe_[dst_lp]];
  Event* ev = pe.pool.allocate();
  const std::uint64_t root = util::hash_combine(seed_, lp_);
  ev->key = EventKey{ts, util::hash_combine(root, idx_), lp_, dst_lp, idx_};
  ev->uid = ++init_uid_;  // init space: high bits zero, disjoint from PE uids
  ++idx_;
  ev->send_ts = 0.0;
  ev->kp = e_.lp_kp_[dst_lp];
  ev->status = EventStatus::InFlight;
  ev->cv = 0;
  if (HP_UNLIKELY(e_.telemetry_)) ev->create_wall_ns = obs::monotonic_ns();
  return ev;
}

void TwEngineInitCtx::commit_schedule_(Event* ev) {
  e_.deliver(*e_.pes_[e_.lp_pe_[ev->key.dst_lp]], ev);
}

void TimeWarpEngine::seed_initial_events() {
  TwEngineInitCtx ictx(*this, cfg_.seed);
  for (std::uint32_t lp = 0; lp < cfg_.num_lps; ++lp) {
    ictx.begin_lp(lp);
    model_.init_lp(lp, ictx);
  }
}

void TimeWarpEngine::deliver(PeData& pe, Event* ev) {
  // Every envelope is delivered exactly once, so anything but InFlight here
  // is an envelope already sitting in a pending set or processed deque.
  HP_ASSERT(ev->status == EventStatus::InFlight,
            "PE %u KP %u LP %u t=%.6f: duplicate event uid %llu delivered",
            pe.id, ev->kp, ev->key.dst_lp, ev->key.ts,
            static_cast<unsigned long long>(ev->uid));
  // Inbox dwell: stage_remote stamped send_wall_ns, so a non-zero stamp
  // means the envelope crossed PEs (local sends deliver directly with 0).
  if (HP_UNLIKELY(telemetry_) && ev->send_wall_ns != 0) {
    const std::uint64_t now = obs::monotonic_ns();
    if (now > ev->send_wall_ns) {
      hub_->ring(pe.id).try_push(obs::LatencyMetric::InboxDwell,
                                 now - ev->send_wall_ns);
    }
  }
  KpData& kp = kps_[ev->kp];
  if (!kp.processed.empty() && ev->key < kp.processed.back()->key) {
    // Primary rollback: a straggler positive behind the KP's frontier. The
    // offender is the sending LP's KP/PE; cascade_ctx is always 0 here
    // (reverse handlers cannot send, so deliver never runs mid-rollback),
    // making this the head of a fresh cascade chain.
    const std::uint32_t src = ev->key.src_lp;
    rollback(pe, ev->kp, ev->key,
             obs::RollbackCause{obs::RollbackKind::Primary, lp_kp_[src],
                                lp_pe_[src], pe.cascade_ctx + 1,
                                ev->send_wall_ns});
  }
  ev->status = EventStatus::Pending;
  pe.pending.insert(ev);
}

void TimeWarpEngine::stage_remote(PeData& pe, std::uint32_t dst_pe,
                                  Event* ev) {
  if (trace_stamps_ || HP_UNLIKELY(telemetry_)) {
    ev->send_wall_ns = obs::monotonic_ns();
  }
  OutBatch& b = pe.out[dst_pe];
  ev->mpsc_next.store(nullptr, std::memory_order_relaxed);
  if (b.head == nullptr) {
    b.head = b.tail = ev;
    pe.out_dirty.push_back(dst_pe);
  } else {
    // Interior chain link; published by flush_outboxes' release push.
    b.tail->mpsc_next.store(ev, std::memory_order_relaxed);
    b.tail = ev;
  }
  ++b.count;
}

void TimeWarpEngine::flush_outboxes(PeData& pe) {
  if (pe.out_dirty.empty()) return;
  for (std::uint32_t dst : pe.out_dirty) {
    OutBatch& b = pe.out[dst];
    pes_[dst]->inbox.push_chain(b.head, b.tail);
    ++pe.metrics.at(Counter::InboxBatches);
    pe.metrics.at(Counter::InboxBatchedItems) += b.count;
    pe.metrics.at(Counter::MaxInboxBatch) =
        std::max<std::uint64_t>(pe.metrics.at(Counter::MaxInboxBatch), b.count);
    b = OutBatch{};
  }
  pe.out_dirty.clear();
}

// Remote cancellation: an anti token is an envelope with is_anti set that
// carries the victim's envelope pointer and (uid, key). It rides the same
// per-destination chain as positives, so per-producer FIFO keeps every
// positive ahead of its anti; the sender never dereferences the victim.
void TimeWarpEngine::send_anti(PeData& pe, const ChildRef& c,
                               std::uint32_t dst_pe) {
  Event* anti = pe.pool.allocate();
  anti->is_anti = true;
  anti->uid = c.uid;
  anti->victim = c.ev;
  anti->key = c.key;
  // Carry the sending episode's cascade chain length so the induced rollback
  // (if any) extends the chain; 0 outside a rollback (lazy stale
  // cancellation from forward execution restarts the chain).
  anti->cascade = pe.cascade_ctx;
  stage_remote(pe, dst_pe, anti);
  ++pe.metrics.at(Counter::AntiMessages);
}

void TimeWarpEngine::annihilate(PeData& pe, Event* ev, std::uint64_t uid,
                                std::uint32_t offender_kp,
                                std::uint32_t offender_pe,
                                std::uint64_t send_wall_ns) {
  // FIFO inboxes guarantee a positive is delivered before its anti; see
  // header. (Chaos runs route through chaos_deliver_anti, which resolves
  // held positives and stale duplicates first, so this stays a hard
  // invariant even then.)
  HP_ASSERT(delivered_ref(ev, uid),
            "PE %u: anti-message uid %llu (offender KP %u PE %u) found no "
            "matching positive",
            pe.id, static_cast<unsigned long long>(uid), offender_kp,
            offender_pe);
  if (ev->status == EventStatus::Processed) {
    // Secondary rollback: induced by a cancellation, one chain link deeper
    // than the episode that sent it (cascade_ctx holds the inducing depth —
    // set from the anti token for remote cancellations, live for local ones).
    rollback(pe, ev->kp, ev->key,
             obs::RollbackCause{obs::RollbackKind::Secondary, offender_kp,
                                offender_pe, pe.cascade_ctx + 1,
                                send_wall_ns});
    HP_ASSERT(ev->status == EventStatus::Pending,
              "PE %u KP %u LP %u t=%.6f: rollback left event uid %llu "
              "processed",
              pe.id, ev->kp, ev->key.dst_lp, ev->key.ts,
              static_cast<unsigned long long>(ev->uid));
  }
  // A pending event killed before re-execution drags its lazily-kept
  // children down with it.
  if (ev->has_stale_children()) cancel_stale(pe, ev);
  HP_ASSERT(pe.pending.erase(ev),
            "PE %u KP %u LP %u t=%.6f: event uid %llu missing from pending "
            "set",
            pe.id, ev->kp, ev->key.dst_lp, ev->key.ts,
            static_cast<unsigned long long>(ev->uid));
  pe.pool.free(ev);
}

void TimeWarpEngine::cancel_stale(PeData& pe, Event* ev) {
  if (!ev->has_stale_children()) return;
  auto& stale = ev->cold_block->stale_children;
  cancel_refs(pe, stale.data(), stale.size(), ev->kp);
  stale.clear();
}

void TimeWarpEngine::cancel_children(PeData& pe, Event* ev) {
  cancel_refs(pe, ev->children.begin(), ev->children.size(), ev->kp);
  ev->children.clear();
}

// Batched cancellation of one dying parent's child list. Remote children get
// anti tokens (the per-destination outbox already batches those); local
// victims are collected first and any induced secondary rollbacks are
// applied as ONE processed-list run per distinct KP, to the earliest victim
// key, instead of one full re-traversal per victim — the repeated-re-roll
// pattern the PR-3 cascade forensics flagged.
//
// Safe to batch because every event has exactly one parent, so only this
// call can annihilate these victims (a nested cascade fired by the batched
// rollback cancels *other* parents' children), and per-LP state is disjoint
// across KPs, so the order of the per-KP runs is unobservable. Episode
// *counts* change (one secondary episode per KP rather than per victim);
// the total of undone events and all committed results do not.
void TimeWarpEngine::cancel_refs(PeData& pe, const ChildRef* refs,
                                 std::size_t n, std::uint32_t offender_kp) {
  util::SmallVec<Event*, 8> victims;
  for (std::size_t i = 0; i < n; ++i) {
    const ChildRef& c = refs[i];
    const std::uint32_t dst = lp_pe_[c.key.dst_lp];
    if (dst != pe.id) {
      send_anti(pe, c, dst);
      continue;
    }
    Event* v = c.ev;
    // Local sends deliver synchronously, so the parent's send happened (and
    // was delivered) before this cancellation.
    HP_ASSERT(delivered_ref(v, c.uid),
              "PE %u: local cancellation uid %llu found no positive", pe.id,
              static_cast<unsigned long long>(c.uid));
    victims.push_back(v);
  }
  if (victims.empty()) return;

  // One rollback per distinct victim KP, to the earliest processed victim.
  struct KpRun {
    std::uint32_t kp;
    EventKey key;
  };
  util::SmallVec<KpRun, 8> runs;
  for (Event* v : victims) {
    if (v->status != EventStatus::Processed) continue;
    bool merged = false;
    for (auto& r : runs) {
      if (r.kp == v->kp) {
        if (v->key < r.key) r.key = v->key;
        merged = true;
        break;
      }
    }
    if (!merged) runs.push_back(KpRun{v->kp, v->key});
  }
  for (const KpRun& r : runs) {
    rollback(pe, r.kp, r.key,
             obs::RollbackCause{obs::RollbackKind::Secondary, offender_kp,
                                pe.id, pe.cascade_ctx + 1, 0});
  }

  // Settle: every victim is pending now; a victim killed before
  // re-execution drags its lazily-kept children down with it.
  for (Event* v : victims) {
    HP_ASSERT(v->status == EventStatus::Pending,
              "PE %u KP %u LP %u t=%.6f: batched rollback left victim uid "
              "%llu processed",
              pe.id, v->kp, v->key.dst_lp, v->key.ts,
              static_cast<unsigned long long>(v->uid));
    if (v->has_stale_children()) cancel_stale(pe, v);
    HP_ASSERT(pe.pending.erase(v),
              "PE %u KP %u LP %u t=%.6f: victim uid %llu missing from "
              "pending set",
              pe.id, v->kp, v->key.dst_lp, v->key.ts,
              static_cast<unsigned long long>(v->uid));
    pe.pool.free(v);
  }
}

void TimeWarpEngine::undo_event(PeData& pe, Event* ev) {
  const std::uint32_t lp = ev->key.dst_lp;
  if (cfg_.state_saving) {
    HP_ASSERT(ev->cold_block != nullptr && ev->cold_block->snapshot != nullptr,
              "missing snapshot in state-saving mode");
    EventCold& cold = *ev->cold_block;
    states_[lp] = std::move(cold.snapshot);
    std::memcpy(ev->payload, cold.payload_snapshot.get(), kMaxPayload);
    rngs_[lp].restore(cold.saved_rng_state, cold.saved_rng_draws);
  } else {
    TwCtx& ctx = *rev_ctx_[pe.id];
    ctx.begin_reverse(ev);
    model_.reverse(*states_[lp], *ev, ctx);
    HP_ASSERT(rngs_[lp].draw_count() == ev->rng_before,
              "reverse handler rewound %llu draws short/extra at lp %u "
              "(before=%llu now=%llu)",
              static_cast<unsigned long long>(
                  rngs_[lp].draw_count() > ev->rng_before
                      ? rngs_[lp].draw_count() - ev->rng_before
                      : ev->rng_before - rngs_[lp].draw_count()),
              lp, static_cast<unsigned long long>(ev->rng_before),
              static_cast<unsigned long long>(rngs_[lp].draw_count()));
#ifdef HP_TW_PARANOID
    HP_ASSERT(ev->cold_block != nullptr && ev->cold_block->snapshot &&
                  states_[lp]->equals(*ev->cold_block->snapshot),
              "reverse handler did not restore lp %u state exactly", lp);
    ev->cold_block->snapshot.reset();
#endif
  }
}

void TimeWarpEngine::rollback(PeData& pe, std::uint32_t kp_id,
                              const EventKey& key,
                              const obs::RollbackCause& cause) {
  // A rollback can fire from inside any phase (forward send, inbox drain);
  // charge its time to Rollback and restore the interrupted phase after.
  obs::PhaseScope phase(pe.probe, Phase::Rollback);
  KpData& kp = kps_[kp_id];
  // Episodes nest (cancel_children -> annihilate -> rollback): while this
  // episode undoes events, antis it sends — and local rollbacks it triggers —
  // are chain links of *this* cascade. Save/restore the ambient context.
  const std::uint32_t prev_ctx = pe.cascade_ctx;
  pe.cascade_ctx = cause.cascade;
  std::uint64_t undone = 0;
  std::uint64_t repair_t0 = 0;
  if (HP_UNLIKELY(telemetry_)) repair_t0 = obs::monotonic_ns();
  while (!kp.processed.empty() && kp.processed.back()->key >= key) {
    Event* ev = kp.processed.back();
    kp.processed.pop_back();
    if (cfg_.cancellation == EngineConfig::Cancellation::Lazy) {
      // Keep the children alive; re-execution may reuse them verbatim.
      // Earlier stale leftovers (possible when the event was rolled back,
      // partially re-executed via reuse, and is rolled back again) are
      // already in stale_children; append the current generation.
      auto& stale = ev->cold().stale_children;
      for (const ChildRef& c : ev->children) stale.push_back(c);
      ev->children.clear();
    } else {
      cancel_children(pe, ev);
    }
    undo_event(pe, ev);
    ev->status = EventStatus::Pending;
    pe.pending.insert(ev);
    ++undone;
  }
  pe.cascade_ctx = prev_ctx;
  if (HP_UNLIKELY(telemetry_) && undone > 0) {
    // Per-episode repair cost: undo loop plus the cancellations it fired
    // (nested episodes double-count their share by design — the histogram
    // answers "how long does a rollback I land in take", not CPU totals).
    hub_->ring(pe.id).try_push(obs::LatencyMetric::RollbackCost,
                               obs::monotonic_ns() - repair_t0);
  }

  // Causality attribution: scalar counters are plain arithmetic and always
  // on; the per-KP heatmaps/cascade histogram are gated inside `forensics`;
  // the flow event fires only when the offending send was stamped (tracing +
  // forensics), so attribution fully off never reads the clock here.
  pe.metrics.at(Counter::RolledBack) += undone;
  const bool primary = cause.kind == obs::RollbackKind::Primary;
  ++pe.metrics.at(primary ? Counter::PrimaryRollbacks
                          : Counter::SecondaryRollbacks);
  pe.metrics.at(primary ? Counter::PrimaryRollbackEvents
                        : Counter::SecondaryRollbackEvents) += undone;
  std::uint64_t& depth = pe.metrics.at(Counter::MaxRollbackDepth);
  depth = std::max(depth, undone);
  std::uint64_t& chain = pe.metrics.at(Counter::MaxCascadeDepth);
  chain = std::max<std::uint64_t>(chain, cause.cascade);
  pe.forensics.record(cause, kp_id, undone);
  if (cause.send_wall_ns != 0) {
    const std::uint64_t flow_id =
        (static_cast<std::uint64_t>(pe.id + 1) << 40) | ++pe.flow_counter;
    pe.trace.add_flow(obs::TraceFlow{primary, flow_id, cause.offender_pe,
                                     cause.send_wall_ns, pe.id,
                                     obs::monotonic_ns()});
  }
}

void TimeWarpEngine::drain_inbox(PeData& pe) {
  if (pe.inbox.empty_hint()) return;
  if (HP_UNLIKELY(chaos_)) {
    drain_inbox_chaos(pe);
    return;
  }
  while (Event* ev = pe.inbox.pop()) {
    if (ev->is_anti) {
      Event* victim = ev->victim;
      const std::uint64_t uid = ev->uid;
      // The anti's key is the victim child's key, so key.src_lp is the LP of
      // the parent whose rollback sent the cancellation — the offender.
      const std::uint32_t src = ev->key.src_lp;
      const std::uint32_t inducing_cascade = ev->cascade;
      const std::uint64_t send_wall_ns = ev->send_wall_ns;
      pe.pool.free(ev);
      pe.cascade_ctx = inducing_cascade;
      annihilate(pe, victim, uid, lp_kp_[src], lp_pe_[src], send_wall_ns);
      pe.cascade_ctx = 0;
    } else {
      deliver(pe, ev);
    }
  }
}

// Fault-injected drain. Invariants preserved no matter what the plan does:
//   * a positive is always consumed (delivered or parked) before its anti is
//     acted on — antis flush the reorder buffer and check the holdback, and
//     per-producer FIFO already orders the raw pops;
//   * parked envelopes keep feeding the GVT minimum (held_min walks
//     chaos_held), so nothing can commit past a held event;
//   * only delivery *timing* changes — event content and the model RNG
//     streams are untouched, so committed results stay bit-identical.
void TimeWarpEngine::drain_inbox_chaos(PeData& pe) {
  const FaultPlan& f = cfg_.fault;
  const Time gvt = shared_gvt_.load(std::memory_order_relaxed);
  while (Event* ev = pe.inbox.pop()) {
    if (ev->is_anti) {
      // Antis never pass their positives: deliver buffered positives first.
      chaos_flush_run(pe);
      if (HP_UNLIKELY(chaos_hit(f.dup_anti_prob, ev->uid))) {
        // Park a copy one round; the duplicate must annihilate nothing when
        // it lands (its positive dies to the original right below). It
        // carries no victim pointer: by then the victim's envelope may have
        // been recycled and even handed to another PE, so the copy must
        // resolve as stale without reading it.
        Event* dup = pe.pool.allocate();
        dup->key = ev->key;
        dup->uid = ev->uid;
        dup->is_anti = true;
        dup->cascade = ev->cascade;
        dup->send_wall_ns = 0;
        pe.chaos_held.push_back({dup, pe.local_rounds + 1});
        ++pe.metrics.at(Counter::ChaosDupAntis);
      }
      chaos_deliver_anti(pe, ev);
      continue;
    }
    if (HP_UNLIKELY(chaos_hit(f.delay_prob, ev->uid))) {
      pe.chaos_held.push_back({ev, pe.local_rounds + f.delay_rounds});
      ++pe.metrics.at(Counter::ChaosDelayedEvents);
      continue;
    }
    if (f.straggler_prob > 0.0 && ev->key.ts <= gvt + f.straggler_margin &&
        chaos_hit(f.straggler_prob,
                  util::hash_combine(ev->uid, 0x57A6u))) {
      // Near-horizon positive: hold it one round so it lands as a straggler
      // right behind the frontier the receiving KP built meanwhile.
      pe.chaos_held.push_back({ev, pe.local_rounds + 1});
      ++pe.metrics.at(Counter::ChaosStragglers);
      continue;
    }
    if (f.reorder_prob > 0.0) {
      pe.chaos_run.push_back(ev);
      if (pe.chaos_run.size() >= kChaosReorderWindow) {
        chaos_flush_run(pe);
        // Batch-split: sometimes abandon the drain mid-stream; the rest of
        // the inbox waits for the next scheduler iteration.
        if (pe.chaos_rng.bernoulli(f.reorder_prob * 0.5)) break;
      }
    } else {
      deliver(pe, ev);
    }
  }
  chaos_flush_run(pe);
}

void TimeWarpEngine::chaos_flush_run(PeData& pe) {
  auto& run = pe.chaos_run;
  if (run.empty()) return;
  if (run.size() > 1 && pe.chaos_rng.bernoulli(cfg_.fault.reorder_prob)) {
    pe.metrics.at(Counter::ChaosReorderedEvents) += run.size();
    for (std::size_t i = run.size(); i-- > 0;) deliver(pe, run[i]);
  } else {
    for (Event* ev : run) deliver(pe, ev);
  }
  run.clear();
}

void TimeWarpEngine::chaos_deliver_anti(PeData& pe, Event* anti) {
  Event* victim = anti->victim;
  const std::uint64_t uid = anti->uid;
  const std::uint32_t src = anti->key.src_lp;
  const std::uint32_t inducing_cascade = anti->cascade;
  const std::uint64_t send_wall_ns = anti->send_wall_ns;
  pe.pool.free(anti);
  if (victim == nullptr) {
    // A dup-anti duplicate arriving after the original did the kill. Legal
    // only under chaos — the fault-free path still hard-asserts inside
    // annihilate().
    ++pe.metrics.at(Counter::ChaosStaleAntis);
    return;
  }
  // The positive may be parked by a delay/straggler fault (still InFlight):
  // annihilate the pair inside the holdback buffer, before the positive was
  // ever delivered.
  if (live_ref(victim, uid) && victim->status == EventStatus::InFlight) {
    HP_ASSERT(chaos_kill_held(pe, victim),
              "PE %u: anti-message uid %llu found its positive undelivered "
              "but not held",
              pe.id, static_cast<unsigned long long>(uid));
    return;
  }
  pe.cascade_ctx = inducing_cascade;
  annihilate(pe, victim, uid, lp_kp_[src], lp_pe_[src], send_wall_ns);
  pe.cascade_ctx = 0;
}

bool TimeWarpEngine::chaos_kill_held(PeData& pe, Event* victim) {
  for (std::size_t i = 0; i < pe.chaos_held.size(); ++i) {
    Event* held = pe.chaos_held[i].ev;
    if (held == victim) {
      pe.pool.free(held);
      pe.chaos_held.erase(pe.chaos_held.begin() +
                          static_cast<std::ptrdiff_t>(i));
      return true;
    }
  }
  return false;
}

void TimeWarpEngine::chaos_release(PeData& pe, bool all) {
  if (all) {
    // Run over: GVT passed end_time, and held envelopes bounded it from
    // below, so everything still parked is beyond the end time and would
    // never execute. Free without delivering.
    for (const PeData::HeldEnvelope& h : pe.chaos_held) pe.pool.free(h.ev);
    pe.chaos_held.clear();
    return;
  }
  // Deliver due envelopes in holdback order and keep the rest. A delivery
  // can roll back and cancel, but a local cancellation only reaches a
  // delivered positive (local sends deliver synchronously) and a held anti
  // is a dup-anti copy that resolves as stale, so nothing a delivery
  // triggers touches the holdback.
  auto& held = pe.chaos_held;
  const std::size_t n = held.size();
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const PeData::HeldEnvelope h = held[i];
    if (h.release_round > pe.local_rounds) {
      held[kept++] = h;
    } else if (h.ev->is_anti) {
      chaos_deliver_anti(pe, h.ev);
    } else {
      deliver(pe, h.ev);
    }
  }
  HP_ASSERT(held.size() == n,
            "PE %u: delivering held envelopes changed the holdback (%zu -> "
            "%zu)",
            pe.id, n, held.size());
  held.resize(kept);
}

// Delivers in holdback order; see chaos_release for why no delivery touches
// the holdback.
void TimeWarpEngine::chaos_deliver_all_held(PeData& pe) {
  for (const PeData::HeldEnvelope& h : std::exchange(pe.chaos_held, {})) {
    if (h.ev->is_anti) {
      chaos_deliver_anti(pe, h.ev);
    } else {
      deliver(pe, h.ev);
    }
  }
}

bool TimeWarpEngine::stall_active(const PeData& pe) const noexcept {
  const FaultPlan& f = cfg_.fault;
  return f.stall_pe == pe.id && f.stall_rounds > 0 &&
         pe.local_rounds >= f.stall_at &&
         pe.local_rounds < f.stall_at + f.stall_rounds;
}

bool TimeWarpEngine::chaos_hit(double prob, std::uint64_t uid) const noexcept {
  if (prob <= 0.0) return false;
  const std::uint64_t h =
      util::splitmix64(util::hash_combine(cfg_.fault.seed, uid));
  return static_cast<double>(h >> 11) * 0x1.0p-53 < prob;
}

Event* TimeWarpEngine::next_event(PeData& pe) {
  if (HP_UNLIKELY(chaos_) && stall_active(pe)) {
    wd_beacons_[pe.id].set_phase(BeaconPhase::Stalled);
    return nullptr;
  }
  Event* ev = pe.pending.peek_min();
  if (ev == nullptr) return nullptr;
  // Beyond the end time or the controller's horizon (GVT + window, zero
  // window when Blocked): wait for GVT to advance.
  if (ev->key.ts > cfg_.end_time || !pe.opt.admits(ev->key.ts)) return nullptr;
  return pe.pending.pop_min();
}

void TimeWarpEngine::update_flow_control(PeData& pe) {
  using Transition = OptimismController::Transition;
  switch (pe.opt.flow_check(pe.pool.live())) {
    case Transition::None:
      return;
    case Transition::Throttle:
      ++pe.metrics.at(Counter::ThrottleEntries);
      if (tracing_) pe.throttle_begin_ns = obs::monotonic_ns();
      return;
    case Transition::Block:
      wd_beacons_[pe.id].set_phase(BeaconPhase::Blocked);
      ++pe.metrics.at(Counter::HardBlocks);
      // Only fossil collection sheds live envelopes, so force a GVT round
      // now instead of waiting for a progress/idle trigger.
      if (!gvt_request_.exchange(true, std::memory_order_relaxed)) {
        ++pe.metrics.at(Counter::GvtPoolTriggers);
      }
      return;
    case Transition::Unblock:
      wd_beacons_[pe.id].set_phase(BeaconPhase::Execute);
      return;
    case Transition::Reopen:
      ++pe.metrics.at(Counter::ThrottleExits);
      close_throttle_span(pe);
      return;
  }
}

void TimeWarpEngine::close_throttle_span(PeData& pe) {
  if (pe.throttle_begin_ns != 0) {
    pe.trace.add(Phase::Throttled, pe.throttle_begin_ns, obs::monotonic_ns());
    pe.throttle_begin_ns = 0;
  }
}

void TimeWarpEngine::process_one(PeData& pe, Event* ev) {
  const std::uint32_t lp = ev->key.dst_lp;
  HP_ASSERT(kps_[ev->kp].processed.empty() ||
                !(ev->key < kps_[ev->kp].processed.back()->key),
            "PE %u KP %u LP %u t=%.6f: processed deque would become unsorted "
            "(frontier t=%.6f)",
            pe.id, ev->kp, lp, ev->key.ts,
            kps_[ev->kp].processed.empty()
                ? 0.0
                : kps_[ev->kp].processed.back()->key.ts);
  ev->rng_before = rngs_[lp].draw_count();
  ev->status = EventStatus::Processed;
  if (HP_UNLIKELY(telemetry_)) {
    // Queue dwell is measured from creation, so a rolled-back event's
    // re-execution reports its full (longer) wait — a real resample.
    const std::uint64_t now = obs::monotonic_ns();
    if (ev->create_wall_ns != 0) {
      hub_->ring(pe.id).try_push(obs::LatencyMetric::QueueDwell,
                                 now - ev->create_wall_ns);
    }
    ev->exec_wall_ns = now;
  }
  kps_[ev->kp].processed.push_back(ev);
#ifdef HP_TW_PARANOID
  if (!cfg_.state_saving) ev->cold().snapshot = states_[lp]->clone();
#endif
  if (cfg_.state_saving) {
    EventCold& cold = ev->cold();
    cold.snapshot = states_[lp]->clone();
    if (!cold.payload_snapshot) {
      cold.payload_snapshot = std::make_unique<std::byte[]>(kMaxPayload);
    }
    std::memcpy(cold.payload_snapshot.get(), ev->payload, kMaxPayload);
    cold.saved_rng_state = rngs_[lp].raw_state();
    cold.saved_rng_draws = rngs_[lp].draw_count();
  }
  TwCtx& ctx = *fwd_ctx_[pe.id];
  ctx.begin_forward(ev);
  model_.forward(*states_[lp], *ev, ctx);
  // Lazy cancellation: stale children the re-execution did not reproduce
  // are dead for real now.
  if (ev->has_stale_children()) cancel_stale(pe, ev);
  ++pe.metrics.at(Counter::Processed);
}

void TimeWarpEngine::fossil_collect(PeData& pe, Time gvt) {
  // One clock read per fossil batch: commits inside a batch share `now`, so
  // telemetry adds O(1) clock cost per GVT round, not per committed event.
  std::uint64_t now = 0;
  for (std::uint32_t kp_id : pe.kps) {
    auto& dq = kps_[kp_id].processed;
    while (!dq.empty() && dq.front()->key.ts < gvt) {
      Event* ev = dq.front();
      dq.pop_front();
      model_.commit(*states_[ev->key.dst_lp], *ev);
      if (HP_UNLIKELY(telemetry_) && ev->exec_wall_ns != 0) {
        if (now == 0) now = obs::monotonic_ns();
        if (now > ev->exec_wall_ns) {
          hub_->ring(pe.id).try_push(obs::LatencyMetric::CommitLatency,
                                     now - ev->exec_wall_ns);
        }
      }
      pe.pool.free(ev);
      ++pe.metrics.at(Counter::Committed);
    }
  }
}

// Fill this PE's MonitorSlice, between barriers A and B of a GVT round.
void TimeWarpEngine::publish_slice(PeData& pe, std::uint64_t inbox_depth) {
  MonitorSlice& sl = mon_slices_[pe.id];
  sl.processed = pe.metrics.at(Counter::Processed);
  sl.rolled_back = pe.metrics.at(Counter::RolledBack);
  sl.committed = pe.committed_at_last_gvt;
  sl.inbox_depth = inbox_depth;
  const auto [top_kp, top_events] = pe.forensics.top_offender();
  sl.has_top = top_events > 0;
  sl.top_kp = top_kp;
  sl.top_kp_events = top_events;
  sl.pool_live =
      static_cast<std::uint64_t>(std::max<std::int64_t>(0, pe.pool.live()));
  sl.pool_bytes = pe.pool.pool_bytes();
  sl.throttled = pe.opt.flow() == OptimismController::FlowState::Throttled;
  sl.blocked = pe.opt.flow() == OptimismController::FlowState::Blocked;
}

// Lower bound on everything this PE holds: the pending minimum and the fault
// injector's holdback. Envelopes parked by the injector are invisible to the
// pending set but must still bound GVT from below: a held positive (or a
// duplicate anti) is in-flight work nothing may commit past. This is what
// makes every fault plan delay-only. What is still in the channel is
// covered by gvt_round's inbox walk.
Time TimeWarpEngine::held_min(PeData& pe) {
  Event* pmin = pe.pending.peek_min();
  Time local = pmin == nullptr ? kTimeInf : pmin->key.ts;
  if (HP_UNLIKELY(chaos_)) {
    for (const PeData::HeldEnvelope& h : pe.chaos_held) {
      local = std::min(local, h.ev->key.ts);
    }
  }
  return local;
}

// Engine-global side effects of a new GVT, taken by PE 0 after barrier B:
// the round count, the shared GVT and the stall watchdog's progress heart.
// The heart's committed count is slice-summed when slices are live, PE 0's
// own otherwise — any monotone proxy works, the watchdog only asks "did it
// move". PE 0 may read the slices here (see MonitorSlice).
void TimeWarpEngine::publish_gvt(PeData& pe, Time gvt) {
  const std::uint64_t rounds =
      gvt_rounds_.fetch_add(1, std::memory_order_relaxed) + 1;
  shared_gvt_.store(gvt, std::memory_order_relaxed);
  std::uint64_t wd_committed = ck_base_committed_;
  if (slices_on_) {
    for (const MonitorSlice& sl : mon_slices_) wd_committed += sl.committed;
  } else {
    wd_committed += pe.committed_at_last_gvt;
  }
  wd_heart_.gvt_bits.store(std::bit_cast<std::uint64_t>(gvt),
                           std::memory_order_relaxed);
  wd_heart_.committed.store(wd_committed, std::memory_order_relaxed);
  wd_heart_.rounds.store(rounds, std::memory_order_relaxed);
}

void TimeWarpEngine::commit_point(PeData& pe, Time gvt,
                                  std::uint64_t inbox_depth) {
  wd_beacons_[pe.id].set_phase(BeaconPhase::Fossil);
  {
    obs::PhaseScope fossil_phase(pe.probe, Phase::Fossil);
    fossil_collect(pe, gvt);
  }
  {
    // Per-PE progress beacon for the stall dump: a handful of relaxed
    // stores once per GVT round, nothing on the event hot path.
    PeBeacon& b = wd_beacons_[pe.id];
    b.processed.store(pe.metrics.at(Counter::Processed),
                      std::memory_order_relaxed);
    b.committed.store(pe.metrics.at(Counter::Committed),
                      std::memory_order_relaxed);
    b.pending.store(pe.pending.size(), std::memory_order_relaxed);
    b.inbox.store(inbox_depth, std::memory_order_relaxed);
    const auto [wd_kp, wd_kp_events] = pe.forensics.top_offender();
    b.top_kp.store(wd_kp_events > 0 ? wd_kp : ~0u, std::memory_order_relaxed);
  }
  const std::uint64_t committed_delta =
      pe.metrics.at(Counter::Committed) - pe.committed_at_last_gvt;
  if (HP_UNLIKELY(chaos_) && stall_active(pe)) {
    ++pe.metrics.at(Counter::ChaosStallRounds);
  }
  // Checkpoint trigger: every input is identical on every PE — the global
  // gvt, the slice-summed committed count and ck_next_ (written only by PE 0
  // between checkpoint barriers) — so the branch is all-or-none and the
  // barriers inside checkpoint_round always pair up.
  if (HP_UNLIKELY(ck_on_) && gvt <= cfg_.end_time) {
    std::uint64_t committed = ck_base_committed_;
    for (const MonitorSlice& sl : mon_slices_) committed += sl.committed;
    if (committed >= ck_next_) checkpoint_round(pe, gvt);
  }
  // This PE's slice of the round sample; run() sums the slices per round.
  // Rounds are totally ordered and every PE applies every one, so
  // local_rounds agrees across PEs and the rings stay index-aligned.
  const std::uint64_t now_ns = obs::monotonic_ns();
  pe.series.push(obs::GvtRoundSample{
      pe.local_rounds, now_ns - epoch_ns_, gvt,
      pe.opt.processed_since_commit(), committed_delta, inbox_depth,
      pe.pool.allocated(),
      static_cast<std::uint64_t>(std::max<std::int64_t>(0, pe.pool.live())),
      pe.pool.pool_bytes()});
  if (pe.id == 0) {
    // PE 0 may read every slice until it reaches the next round's slice
    // writes itself (barrier A), so the heartbeat and the gauges follow the
    // checkpoint round.
    if (monitor_ != nullptr &&
        ++mon_rounds_since_emit_ >= std::max(1u, cfg_.obs.monitor_interval)) {
      mon_rounds_since_emit_ = 0;
      emit_monitor_record(pe.local_rounds, gvt);
    }
    if (HP_UNLIKELY(telemetry_)) {
      // A partial counter set — the full array lands with the final
      // snapshot in run().
      obs::GaugeSnapshot g;
      for (const MonitorSlice& sl : mon_slices_) {
        g.counters[static_cast<std::size_t>(Counter::Processed)] +=
            sl.processed;
        g.counters[static_cast<std::size_t>(Counter::RolledBack)] +=
            sl.rolled_back;
        g.counters[static_cast<std::size_t>(Counter::PoolLiveEnvelopes)] +=
            sl.pool_live;
        g.counters[static_cast<std::size_t>(Counter::PoolBytes)] +=
            sl.pool_bytes;
      }
      g.gvt = gvt;
      g.round = pe.local_rounds;
      g.wall_seconds = static_cast<double>(now_ns - epoch_ns_) * 1e-9;
      hub_->publish_gauges(g);
    }
  }
  ++pe.local_rounds;
  pe.committed_at_last_gvt = pe.metrics.at(Counter::Committed);
  // Pacing and the window step on this round's commit yield; the horizon
  // moves to the new GVT.
  pe.opt.commit(gvt, committed_delta);
  wd_beacons_[pe.id].set_phase(BeaconPhase::Execute);
}

bool TimeWarpEngine::gvt_round(PeData& pe) {
  HP_ASSERT(pe.out_dirty.empty(),
            "PE %u: outbound batches must be flushed before a GVT round "
            "(%zu dirty)",
            pe.id, pe.out_dirty.size());
  pe.probe.switch_to(Phase::GvtBarrier);
  wd_beacons_[pe.id].set_phase(BeaconPhase::GvtBarrier);
  // Barrier A: everybody stops sending/processing.
  bar_a_.arrive_and_wait();
  if (pe.id == 0) {
    gvt_request_.store(false, std::memory_order_relaxed);
  }
  // With all PEs quiescent, every sent message is fully linked in some
  // inbox (producers flushed and arrived at the barrier after their release
  // pushes), so min(pending, held, inbox) over all PEs is a valid GVT — no
  // transient messages, and the non-destructive inbox walk sees every node.
  // Held envelopes count toward the observed inbox depth.
  Time local = held_min(pe);
  std::uint64_t inbox_depth = pe.chaos_held.size();
  pe.inbox.unsafe_for_each([&local, &inbox_depth](const Event& ev) {
    local = std::min(local, ev.key.ts);
    ++inbox_depth;
  });
  local_min_[pe.id] = local;
  // Publish this PE's round slice before barrier B. PE 0 reads all slices
  // after it for the monitor heartbeat, and every PE reads them for the
  // flow-control signal (nobody can reach the next round's slice writes
  // until all readers pass the next barrier A, so the reads are race-free).
  if (slices_on_) publish_slice(pe, inbox_depth);
  // Barrier B: minima published; everybody computes the same global min.
  bar_b_.arrive_and_wait();
  Time gvt = kTimeInf;
  for (Time m : local_min_) gvt = std::min(gvt, m);
  if (pe.id == 0) publish_gvt(pe, gvt);
  commit_point(pe, gvt, inbox_depth);
  pe.probe.switch_to(Phase::Forward);
  return gvt > cfg_.end_time;
}

// Checkpoint at the GVT fence. Entered by every PE in the same round, after
// fossil collection, so the committed prefix is exactly the events below
// `gvt` and a cut "committed < {gvt,0,0,0,0} <= pending" exists once the
// optimistic suffix is unwound. The protocol:
//
//   1. Fence. Every PE rolls each owned KP back to {gvt,0,0,0,0}. Fossil
//      collection already claimed everything below the fence, so this undoes
//      *all* remaining processed events using the engine's own rollback
//      machinery — reverse handlers, state-saving snapshots and lazy stale
//      bookkeeping all behave exactly as they do for a straggler.
//   2. Quiesce. The sweep's cancellations put anti tokens in flight, and a
//      fault plan may still hold envelopes hostage. The GVT barrier left
//      every sent envelope fully linked in some inbox, but inboxes may be
//      non-empty (the GVT walk is non-destructive) and draining can roll
//      back and send antis, so loop between barriers — drain, kill stale
//      children in lazy mode, force-deliver the holdback, flush — until a
//      full pass moves nothing anywhere. A PE votes for another pass when it
//      pushed anything or its inbox is still non-empty (a chaos batch-split
//      can abandon a drain mid-stream). Then assert the fence invariant:
//      processed deques empty, holdback empty.
//   3. Serialize. Each PE drains its pending set (key order) into its
//      stage; PE 0, with every other PE parked at the barrier, captures the
//      globally-indexed LP states/RNG cursors plus all staged events and
//      writes the image; the exit barrier releases everyone to reinsert and
//      resume forward execution.
//
// Committed results are bit-identical with checkpointing on or off: the
// sweep only rolls back optimistic work, which re-executes afterwards.
void TimeWarpEngine::checkpoint_round(PeData& pe, Time gvt) {
  obs::PhaseScope phase(pe.probe, Phase::Checkpoint);
  wd_beacons_[pe.id].set_phase(BeaconPhase::Checkpoint);

  const EventKey fence{gvt, 0, 0, 0, 0};
  for (std::uint32_t kp_id : pe.kps) {
    if (kps_[kp_id].processed.empty()) continue;
    rollback(pe, kp_id, fence,
             obs::RollbackCause{obs::RollbackKind::Primary, kp_id, pe.id,
                                pe.cascade_ctx + 1, 0});
    HP_ASSERT(kps_[kp_id].processed.empty(),
              "PE %u KP %u: checkpoint fence rollback left %zu processed "
              "events above gvt=%.6f",
              pe.id, kp_id, kps_[kp_id].processed.size(), gvt);
  }
  flush_outboxes(pe);

  while (true) {
    bar_a_.arrive_and_wait();
    if (pe.id == 0) quiesce_again_.store(false, std::memory_order_relaxed);
    bar_b_.arrive_and_wait();
    drain_inbox(pe);
    if (cfg_.cancellation == EngineConfig::Cancellation::Lazy) {
      // Stale children are speculative sends of rolled-back executions kept
      // alive for reuse; they are not part of the state at the fence, so
      // kill them for real. After the fence every live event on this PE is
      // pending, so cycling the pending set finds every stale owner. A
      // cancellation can free other owners on this PE (nested stale
      // chains), so each is re-checked by uid before use: a freed slot is
      // scrubbed, and the sweep allocates nothing but anti tokens (status
      // Free), which stay staged on this PE until the flush below.
      std::vector<Event*> all;
      while (Event* p = pe.pending.pop_min()) all.push_back(p);
      std::vector<std::pair<Event*, std::uint64_t>> stale_owners;
      for (Event* p : all) {
        pe.pending.insert(p);
        if (p->has_stale_children()) stale_owners.emplace_back(p, p->uid);
      }
      for (const auto& [owner, uid] : stale_owners) {
        if (delivered_ref(owner, uid)) cancel_stale(pe, owner);
      }
    }
    if (HP_UNLIKELY(chaos_)) chaos_deliver_all_held(pe);
    const bool sent = !pe.out_dirty.empty();
    flush_outboxes(pe);
    if (sent || !pe.inbox.empty_hint()) {
      quiesce_again_.store(true, std::memory_order_relaxed);
    }
    bar_a_.arrive_and_wait();
    if (!quiesce_again_.load(std::memory_order_relaxed)) break;
  }

  for (std::uint32_t kp_id : pe.kps) {
    HP_ASSERT(kps_[kp_id].processed.empty(),
              "PE %u KP %u: quiesced checkpoint has %zu re-processed events",
              pe.id, kp_id, kps_[kp_id].processed.size());
  }
  HP_ASSERT(pe.chaos_held.empty(),
            "PE %u: %zu chaos-held envelopes survived the checkpoint quiesce",
            pe.id, pe.chaos_held.size());

  std::vector<Event*>& stage = ck_stage_[pe.id];
  stage.clear();
  while (Event* p = pe.pending.pop_min()) stage.push_back(p);
  bar_b_.arrive_and_wait();
  if (pe.id == 0) {
    CheckpointImage img;
    img.seed = cfg_.seed;
    img.num_lps = cfg_.num_lps;
    img.fence = gvt;
    img.end_time = cfg_.end_time;
    // All PEs are parked at the barriers around this block, so reading
    // their counters, stages and the global LP states races with nothing.
    std::uint64_t committed = ck_base_committed_;
    for (const auto& other : pes_) {
      committed += other->metrics.at(Counter::Committed);
    }
    img.committed = committed;
    img.lps.reserve(cfg_.num_lps);
    for (std::uint32_t lp = 0; lp < cfg_.num_lps; ++lp) {
      img.lps.push_back(make_lp_record(*states_[lp], rngs_[lp]));
    }
    std::size_t total = 0;
    for (const auto& st : ck_stage_) total += st.size();
    img.events.reserve(total);
    for (const auto& st : ck_stage_) {
      for (const Event* p : st) {
        CheckpointEventRecord rec;
        rec.key = p->key;
        rec.send_ts = p->send_ts;
        rec.payload.assign(
            reinterpret_cast<const std::uint8_t*>(p->payload),
            reinterpret_cast<const std::uint8_t*>(p->payload) +
                p->payload_size);
        img.events.push_back(std::move(rec));
      }
    }
    std::string path, err;
    const bool wrote = write_checkpoint(img, cfg_.checkpoint.dir,
                                        ck_next_ / cfg_.checkpoint.every,
                                        path, err);
    HP_ASSERT(wrote, "%s", err.c_str());
    ++pe.metrics.at(Counter::Checkpoints);
    // Advance the trigger threshold off the exact committed count; the exit
    // barrier publishes it to the other PEs' next trigger reads.
    ck_next_ =
        (img.committed / cfg_.checkpoint.every + 1) * cfg_.checkpoint.every;
  }
  bar_a_.arrive_and_wait();
  for (Event* p : stage) pe.pending.insert(p);
  stage.clear();
  wd_beacons_[pe.id].set_phase(BeaconPhase::GvtBarrier);
}

void TimeWarpEngine::emit_monitor_record(std::uint64_t round_idx, Time gvt) {
  const std::uint64_t now = obs::monotonic_ns();
  std::uint64_t processed = 0;
  std::uint64_t rolled_back = 0;
  std::uint64_t inbox = 0;
  bool has_top = false;
  std::uint32_t top_kp = 0;
  std::uint64_t top_events = 0;
  std::uint64_t pool_live = 0;
  std::uint64_t pool_bytes = 0;
  std::uint32_t throttled_pes = 0;
  std::uint32_t blocked_pes = 0;
  for (const MonitorSlice& sl : mon_slices_) {
    processed += sl.processed;
    rolled_back += sl.rolled_back;
    inbox += sl.inbox_depth;
    pool_live += sl.pool_live;
    pool_bytes += sl.pool_bytes;
    throttled_pes += sl.throttled ? 1 : 0;
    blocked_pes += sl.blocked ? 1 : 0;
    // The global arg-max over per-PE arg-maxes: approximate when one
    // offender's damage is split across PEs, documented in obs/monitor.hpp.
    if (sl.has_top && sl.top_kp_events > top_events) {
      has_top = true;
      top_kp = sl.top_kp;
      top_events = sl.top_kp_events;
    }
  }
  obs::MonitorSample s;
  s.round = round_idx;
  s.t_seconds = static_cast<double>(now - epoch_ns_) * 1e-9;
  s.gvt = gvt;
  s.processed = processed - mon_last_processed_;
  s.rolled_back = rolled_back - mon_last_rolled_back_;
  s.inbox_depth = inbox;
  const double dt = static_cast<double>(now - mon_last_ns_) * 1e-9;
  s.event_rate = dt > 0.0 ? static_cast<double>(s.processed) / dt : 0.0;
  s.rollback_rate = s.processed > 0 ? static_cast<double>(s.rolled_back) /
                                          static_cast<double>(s.processed)
                                    : 0.0;
  s.has_offender = has_top;
  s.top_offender_kp = top_kp;
  s.top_offender_events = top_events;
  s.pool_live = pool_live;
  s.pool_bytes = pool_bytes;
  s.throttled_pes = throttled_pes;
  s.blocked_pes = blocked_pes;
  if (HP_UNLIKELY(telemetry_)) {
    s.has_commit_latency = true;
    s.commit_latency_p99_us =
        hub_->quantile_us(obs::LatencyMetric::CommitLatency, 0.99);
  }
  monitor_->emit(s);
  mon_last_processed_ = processed;
  mon_last_rolled_back_ = rolled_back;
  mon_last_ns_ = now;
}

void TimeWarpEngine::run_pe(PeData& pe) {
  pe.probe.begin(Phase::Forward);
  while (true) {
    // Fault injector first: envelopes whose holdback round has come are
    // delivered before this iteration's drain, so a release behaves exactly
    // like a (late) remote arrival.
    if (HP_UNLIKELY(chaos_) && !pe.chaos_held.empty()) {
      obs::PhaseScope release_phase(pe.probe, Phase::InboxDrain);
      chaos_release(pe, /*all=*/false);
    }
    // Inbox drain is its own phase only when there is plausibly work (the
    // empty_hint pre-check keeps the common empty case at one branch, no
    // clock read). Drain-triggered rollbacks nest via PhaseScope.
    if (!pe.inbox.empty_hint()) {
      obs::PhaseScope drain_phase(pe.probe, Phase::InboxDrain);
      drain_inbox(pe);
    }
    // Publish everything staged by the last process_one and by any
    // drain-triggered rollbacks: one chain push per destination. Nothing
    // staged ever survives past this point, so gvt_round's quiescence
    // invariant holds by construction.
    flush_outboxes(pe);
    if (gvt_request_.load(std::memory_order_relaxed)) {
      if (gvt_round(pe)) break;
      continue;
    }
    // Optimism flow control: two compares per iteration while Open below
    // the soft mark (always, with no budget), state transitions otherwise.
    update_flow_control(pe);
    Event* ev = next_event(pe);
    if (ev == nullptr) {
      pe.probe.switch_to(Phase::Idle);
      ++pe.metrics.at(Counter::IdleSpins);
      if (pe.opt.idle_spin()) {
        gvt_request_.store(true, std::memory_order_relaxed);
        ++pe.metrics.at(Counter::GvtIdleTriggers);
      }
      std::this_thread::yield();
      continue;
    }
    pe.probe.switch_to(Phase::Forward);
    process_one(pe, ev);
    if (pe.opt.processed()) {
      gvt_request_.store(true, std::memory_order_relaxed);
      ++pe.metrics.at(Counter::GvtProgressTriggers);
    }
  }
  // Free anything the fault injector still holds (all beyond end_time, or
  // GVT could not have terminated the run) and close an open throttle span.
  if (HP_UNLIKELY(chaos_)) chaos_release(pe, /*all=*/true);
  close_throttle_span(pe);
  // Commit everything still on the processed deques (all have ts <= end).
  pe.probe.switch_to(Phase::Fossil);
  fossil_collect(pe, kTimeInf);
  pe.probe.end();
  wd_beacons_[pe.id].set_phase(BeaconPhase::Done);
}

RunStats TimeWarpEngine::run() {
  // Telemetry comes up before seeding so the initial schedule()s get
  // creation stamps (their queue dwell until first execution is real).
  telemetry_ = cfg_.obs.telemetry_enabled();
  if (HP_UNLIKELY(telemetry_)) {
    hub_ = std::make_unique<obs::TelemetryHub>(cfg_.obs, cfg_.num_pes);
  }
  // A restored run starts from the image's committed cut instead of the
  // model's initial events: LP states + RNG cursors verbatim, and every
  // pending event routed to its LP's PE with a fresh
  // init-space uid (anti-message identity is meaningless across the cut —
  // nothing that could cancel a restored event survives it).
  CheckpointImage restore_image;
  const bool restoring = !cfg_.restore_path.empty();
  if (restoring) {
    std::string err;
    const bool loaded =
        load_checkpoint_for_restore(cfg_.restore_path, cfg_.seed,
                                    cfg_.num_lps, cfg_.end_time,
                                    restore_image, err);
    HP_ASSERT(loaded, "%s", err.c_str());
    for (std::uint32_t lp = 0; lp < cfg_.num_lps; ++lp) {
      apply_lp_record(restore_image.lps[lp], lp, *states_[lp], rngs_[lp]);
    }
    std::uint64_t restore_uid = 0;
    for (const CheckpointEventRecord& rec : restore_image.events) {
      PeData& dst = *pes_[lp_pe_[rec.key.dst_lp]];
      Event* ev = dst.pool.allocate();
      ev->key = rec.key;
      ev->uid = ++restore_uid;  // init space: disjoint from PE-minted uids
      ev->send_ts = rec.send_ts;
      ev->kp = lp_kp_[rec.key.dst_lp];
      ev->status = EventStatus::InFlight;
      ev->cv = 0;
      ev->payload_size = static_cast<std::uint16_t>(rec.payload.size());
      if (!rec.payload.empty()) {
        std::memcpy(ev->payload, rec.payload.data(), rec.payload.size());
      }
      if (HP_UNLIKELY(telemetry_)) ev->create_wall_ns = obs::monotonic_ns();
      deliver(dst, ev);
    }
    ck_base_committed_ = restore_image.committed;
  } else {
    seed_initial_events();
  }

  const bool tracing = cfg_.obs.trace;
  tracing_ = tracing;
  trace_stamps_ = tracing && cfg_.obs.forensics;
  chaos_ = cfg_.fault.any();
  HP_ASSERT(cfg_.pool_budget_envelopes == 0 ||
                cfg_.pool_budget_envelopes >= 16,
            "pool_budget_envelopes=%llu is below the minimum of 16 envelopes "
            "per PE",
            static_cast<unsigned long long>(cfg_.pool_budget_envelopes));
  // A budget whose hard mark the seeded envelopes already reach cannot be
  // held: that PE starts blocked and runs only at-GVT events until fossil
  // collection sheds enough, so the run crawls. Name the fullest such PE.
  const PeData* over = nullptr;
  for (const auto& pe : pes_) {
    if (pe->pool.live() >= pe->opt.hard_mark() &&
        (over == nullptr || pe->pool.live() > over->pool.live())) {
      over = pe.get();
    }
  }
  if (over != nullptr) {
    std::fprintf(stderr,
                 "warning: pool budget of %llu envelopes per PE is below the "
                 "seeded working set: PE %u holds %lld envelopes before the "
                 "first event (hard mark %lld), so it starts blocked\n",
                 static_cast<unsigned long long>(cfg_.pool_budget_envelopes),
                 over->id, static_cast<long long>(over->pool.live()),
                 static_cast<long long>(over->opt.hard_mark()));
  }
  if (chaos_) {
    HP_ASSERT(cfg_.fault.stall_rounds == 0 ||
                  cfg_.fault.stall_pe == FaultPlan::kNoStallPe ||
                  cfg_.fault.stall_pe < cfg_.num_pes,
              "chaos stall PE %u out of range (%u PEs)", cfg_.fault.stall_pe,
              cfg_.num_pes);
  }
  for (auto& pe : pes_) {
    pe->trace.reset(tracing ? cfg_.obs.max_trace_spans_per_pe : 0);
    pe->series.reset(cfg_.obs.gvt_series_capacity);
    pe->probe.attach(&pe->metrics, tracing ? &pe->trace : nullptr,
                     cfg_.obs.phase_timers);
    pe->forensics.reset(cfg_.num_kps, cfg_.obs.forensics);
    if (chaos_) {
      // Chaos streams are decorrelated from every model LP stream (those
      // seed from (cfg.seed, lp)): the fault plan must perturb delivery
      // timing only, never event content.
      pe->chaos_rng = util::ReversibleRng(
          util::hash_combine(cfg_.fault.seed, 0x9e3779b9u + pe->id));
      pe->chaos_run.reserve(kChaosReorderWindow);
    }
  }
  ck_on_ = cfg_.checkpoint.enabled();
  if (ck_on_) {
    ck_stage_.assign(cfg_.num_pes, {});
    ck_next_ = (ck_base_committed_ / cfg_.checkpoint.every + 1) *
               cfg_.checkpoint.every;
  }
  slices_on_ = cfg_.obs.monitor || telemetry_ || ck_on_;
  if (cfg_.obs.monitor) {
    monitor_ = std::make_unique<obs::MonitorWriter>(cfg_.obs.monitor_path);
  }
  if (slices_on_) mon_slices_.assign(cfg_.num_pes, MonitorSlice{});
  epoch_ns_ = obs::monotonic_ns();
  mon_last_ns_ = epoch_ns_;

  // Crash-safety plumbing: per-PE progress beacons for the stall watchdog
  // and the fail-fast diagnostic dump (registered for the whole run, so an
  // HP_ASSERT inside any PE thread prints the same per-PE block).
  wd_beacons_ = std::make_unique<PeBeacon[]>(cfg_.num_pes);
  WatchdogScope wd_scope{"timewarp", &wd_heart_, wd_beacons_.get(),
                         cfg_.num_pes};
  util::ScopedFailureDump wd_dump(failure_dump_adapter, &wd_scope);
  std::optional<Watchdog> watchdog;
  if (cfg_.watchdog.enabled()) watchdog.emplace(cfg_.watchdog, wd_scope);
  for (std::uint32_t p = 0; p < cfg_.num_pes; ++p) {
    wd_beacons_[p].set_phase(BeaconPhase::Execute);
  }

  const auto t0 = std::chrono::steady_clock::now();
  if (cfg_.num_pes == 1) {
    run_pe(*pes_[0]);
  } else {
    std::vector<std::jthread> threads;
    threads.reserve(cfg_.num_pes);
    for (std::uint32_t pe = 0; pe < cfg_.num_pes; ++pe) {
      threads.emplace_back([this, pe] { run_pe(*pes_[pe]); });
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  if (watchdog) watchdog->stop();

  // Envelope conservation. Nothing indexes the live envelopes, so a leak
  // would otherwise be silent: after every PE's final fossil collection and
  // the release of the chaos holdback, the pools' net live count must equal
  // exactly the envelopes the engine still holds — pending events beyond
  // end_time and whatever is left in the inboxes (positives and antis).
  std::int64_t pool_live = 0;
  std::int64_t still_held = 0;
  for (const auto& pe : pes_) {
    pool_live += pe->pool.live();
    still_held += static_cast<std::int64_t>(pe->pending.size());
    pe->inbox.unsafe_for_each([&still_held](const Event&) { ++still_held; });
  }
  HP_ASSERT(pool_live == still_held,
            "envelope leak: %lld live in the pools, %lld pending or in "
            "inboxes",
            static_cast<long long>(pool_live),
            static_cast<long long>(still_held));

  RunStats stats;
  obs::MetricsReport& m = stats.metrics;
  m.per_pe.reserve(pes_.size());
  for (auto& pe : pes_) {
    if (HP_UNLIKELY(telemetry_)) {
      // PE threads have joined, so each ring's drop counter is final.
      pe->metrics.at(Counter::TelemetryDropped) =
          hub_->ring(pe->id).dropped();
    }
    pe->metrics.at(Counter::PoolEnvelopes) = pe->pool.allocated();
    pe->metrics.at(Counter::PoolLiveEnvelopes) = static_cast<std::uint64_t>(
        std::max<std::int64_t>(0, pe->pool.live()));
    // peak_live only ratchets up from 0 inside allocate(), so no clamp
    // needed.
    pe->metrics.at(Counter::PoolPeakLive) =
        static_cast<std::uint64_t>(pe->pool.peak_live());
    pe->metrics.at(Counter::PoolSlabs) = pe->pool.slabs_allocated();
    pe->metrics.at(Counter::PoolBytes) = pe->pool.pool_bytes();
    m.per_pe.push_back(pe->metrics);
  }
  m.finalize();  // the one per-PE -> aggregate reduction
  for (const auto& pe : pes_) m.forensics.merge(pe->forensics);
  HP_ASSERT(stats.committed_events() ==
                stats.processed_events() - stats.rolled_back_events(),
            "event accounting mismatch: committed=%llu processed=%llu rb=%llu",
            static_cast<unsigned long long>(stats.committed_events()),
            static_cast<unsigned long long>(stats.processed_events()),
            static_cast<unsigned long long>(stats.rolled_back_events()));
  // Attribution invariant: every undone event belongs to exactly one
  // episode kind, and with forensics on the per-KP victim heatmap accounts
  // for all of them.
  HP_ASSERT(m.total.primary_rollback_events() +
                    m.total.secondary_rollback_events() ==
                stats.rolled_back_events(),
            "rollback attribution mismatch: primary=%llu secondary=%llu "
            "rolled_back=%llu",
            static_cast<unsigned long long>(m.total.primary_rollback_events()),
            static_cast<unsigned long long>(m.total.secondary_rollback_events()),
            static_cast<unsigned long long>(stats.rolled_back_events()));
  if (cfg_.obs.forensics) {
    HP_ASSERT(m.forensics.victim_events_total() == stats.rolled_back_events(),
              "forensics heatmap does not sum to rolled_back (%llu vs %llu)",
              static_cast<unsigned long long>(m.forensics.victim_events_total()),
              static_cast<unsigned long long>(stats.rolled_back_events()));
  }
  if (monitor_ != nullptr) m.monitor_lines = monitor_->lines();
  m.gvt_rounds = gvt_rounds_.load();
  m.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  m.final_gvt = shared_gvt_.load();

  // Merge the per-PE GVT series: rounds are barrier-global, so every ring
  // retains the same window and the slices align index-by-index. Sum the
  // per-PE quantities; gvt and the timestamp come from PE 0.
  std::vector<obs::GvtRoundSample> series = pes_[0]->series.snapshot();
  for (std::size_t p = 1; p < pes_.size(); ++p) {
    const std::vector<obs::GvtRoundSample> other = pes_[p]->series.snapshot();
    HP_ASSERT(other.size() == series.size(),
              "GVT series rings disagree across PEs (%zu vs %zu)",
              other.size(), series.size());
    for (std::size_t i = 0; i < series.size(); ++i) {
      HP_ASSERT(other[i].round == series[i].round,
                "GVT series rounds misaligned");
      series[i].processed += other[i].processed;
      series[i].committed += other[i].committed;
      series[i].inbox_depth += other[i].inbox_depth;
      series[i].pool_envelopes += other[i].pool_envelopes;
      series[i].pool_live += other[i].pool_live;
      series[i].pool_bytes += other[i].pool_bytes;
    }
  }
  m.gvt_series = std::move(series);

  if (tracing) {
    std::vector<const obs::TraceBuffer*> buffers;
    buffers.reserve(pes_.size());
    for (const auto& pe : pes_) {
      buffers.push_back(&pe->trace);
      m.trace_spans_dropped += pe->trace.dropped();
    }
    const obs::ChromeTraceStats written = obs::write_chrome_trace(
        cfg_.obs.trace_path, epoch_ns_, buffers, m.gvt_series);
    m.trace_spans = written.spans;
    m.trace_flows = written.flows;
  }

  if (HP_UNLIKELY(telemetry_)) {
    // Final gauges carry the full counter/phase arrays (live snapshots are
    // partial); finalize_into stops the collector, drains the rings one last
    // time and folds the per-PE histograms into the report.
    obs::GaugeSnapshot g;
    g.counters = m.total.counters;
    g.phase_ns = m.total.phase_ns;
    g.gvt = m.final_gvt;
    g.round = m.gvt_rounds;
    g.wall_seconds = m.wall_seconds;
    hub_->publish_gauges(g);
    hub_->finalize_into(m);
    hub_.reset();
  }
  return stats;
}

}  // namespace hp::des
