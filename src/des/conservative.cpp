#include "des/conservative.hpp"

#include <bit>
#include <chrono>
#include <cstring>
#include <optional>
#include <thread>

#include "obs/telemetry.hpp"
#include "util/failure.hpp"
#include "util/hash.hpp"

namespace hp::des {

using obs::Counter;
using obs::Phase;

// Send context: same-PE sends insert straight into the pending set (they may
// still fall inside the current window — key-ordered popping handles that);
// cross-PE sends are verified against the lookahead and parked in the
// destination inbox until the end-of-window barrier.
class ConservativeEngine::Ctx final : public Context {
 public:
  Ctx(ConservativeEngine& e, PeData& pe) : e_(e), pe_(pe) {}

  void begin_event(Event* ev) {
    cur_ = ev;
    rng_ = &e_.rngs_[ev->key.dst_lp];
    send_seq_ = 0;
    reversing_ = false;
    ev->cv = 0;
  }

 protected:
  Event* prepare_send_(std::uint32_t dst_lp, Time ts) override {
    HP_ASSERT(dst_lp < e_.cfg_.num_lps,
              "PE %u LP %u t=%.6f: send to out-of-range LP %u at ts=%.6f "
              "(num_lps %u)",
              pe_.id, cur_->key.dst_lp, cur_->key.ts, dst_lp, ts,
              e_.cfg_.num_lps);
    Event* ev = pe_.pool.allocate();
    ev->key = EventKey{ts, util::hash_combine(cur_->key.tie, send_seq_),
                       cur_->key.dst_lp, dst_lp, send_seq_};
    ++send_seq_;
    ev->send_ts = cur_->key.ts;
    ev->status = EventStatus::Pending;
    ev->cv = 0;
    if (HP_UNLIKELY(e_.telemetry_)) ev->create_wall_ns = obs::monotonic_ns();
    return ev;
  }

  void commit_send_(Event* ev) override {
    if (ev->key.dst_lp != cur_->key.dst_lp) {
      // The conservative contract: cross-LP messages respect the lookahead.
      HP_ASSERT(ev->key.ts >= cur_->key.ts + e_.lookahead_ - 1e-12,
                "PE %u LP %u t=%.6f: cross-LP send to LP %u at ts=%.6f has "
                "delay %f below the declared lookahead %f",
                pe_.id, cur_->key.dst_lp, cur_->key.ts, ev->key.dst_lp,
                ev->key.ts, ev->key.ts - cur_->key.ts, e_.lookahead_);
    }
    const std::uint32_t dst_pe = e_.lp_pe_[ev->key.dst_lp];
    if (dst_pe == pe_.id) {
      pe_.pending.insert(ev);
    } else {
      // Inbox-dwell start: the envelope sits parked until the destination's
      // end-of-window drain (send_wall_ns is otherwise unused here).
      if (HP_UNLIKELY(e_.telemetry_)) ev->send_wall_ns = obs::monotonic_ns();
      PeData& dst = *e_.pes_[dst_pe];
      std::scoped_lock lock(dst.inbox_mu);
      dst.inbox.push_back(ev);
    }
  }

 private:
  ConservativeEngine& e_;
  PeData& pe_;
};

class ConsInitCtx final : public InitContext {
 public:
  ConsInitCtx(ConservativeEngine& e, std::uint64_t seed) : e_(e), seed_(seed) {}

  void begin_lp(std::uint32_t lp) {
    lp_ = lp;
    rng_ = &e_.rngs_[lp];
    idx_ = 0;
  }

 protected:
  Event* prepare_schedule_(std::uint32_t dst_lp, Time ts) override {
    HP_ASSERT(dst_lp < e_.cfg_.num_lps,
              "init LP %u: schedule to out-of-range LP %u at ts=%.6f (num_lps "
              "%u)",
              lp_, dst_lp, ts, e_.cfg_.num_lps);
    ConservativeEngine::PeData& pe = *e_.pes_[e_.lp_pe_[dst_lp]];
    Event* ev = pe.pool.allocate();
    const std::uint64_t root = util::hash_combine(seed_, lp_);
    ev->key = EventKey{ts, util::hash_combine(root, idx_), lp_, dst_lp, idx_};
    ++idx_;
    ev->send_ts = 0.0;
    ev->status = EventStatus::Pending;
    ev->cv = 0;
    if (HP_UNLIKELY(e_.telemetry_)) ev->create_wall_ns = obs::monotonic_ns();
    return ev;
  }
  void commit_schedule_(Event* ev) override {
    e_.pes_[e_.lp_pe_[ev->key.dst_lp]]->pending.insert(ev);
  }

 private:
  ConservativeEngine& e_;
  std::uint64_t seed_;
  std::uint32_t idx_ = 0;
};

ConservativeEngine::ConservativeEngine(Model& model, EngineConfig cfg,
                                       Time lookahead)
    : model_(model),
      cfg_(cfg),
      lookahead_(lookahead),
      barrier_(static_cast<std::ptrdiff_t>(cfg.num_pes)) {
  HP_ASSERT(cfg_.num_lps > 0, "num_lps must be positive");
  HP_ASSERT(cfg_.num_pes >= 1, "need at least one PE");
  HP_ASSERT(lookahead_ > 0.0, "conservative execution needs lookahead > 0");

  if (cfg_.mapping != nullptr) {
    mapping_ = cfg_.mapping;
  } else {
    owned_mapping_ = std::make_unique<net::LinearMapping>(
        cfg_.num_lps, std::max(cfg_.num_pes, cfg_.num_kps), cfg_.num_pes);
    mapping_ = owned_mapping_.get();
  }

  states_.reserve(cfg_.num_lps);
  rngs_.reserve(cfg_.num_lps);
  lp_pe_.resize(cfg_.num_lps);
  for (std::uint32_t lp = 0; lp < cfg_.num_lps; ++lp) {
    states_.push_back(model_.make_state(lp));
    rngs_.emplace_back(util::hash_combine(cfg_.seed, lp));
    lp_pe_[lp] = mapping_->pe_of(lp);
    HP_ASSERT(lp_pe_[lp] < cfg_.num_pes,
              "mapping returned out-of-range PE %u for LP %u (num_pes %u)",
              lp_pe_[lp], lp, cfg_.num_pes);
  }
  pes_.reserve(cfg_.num_pes);
  for (std::uint32_t pe = 0; pe < cfg_.num_pes; ++pe) {
    pes_.push_back(std::make_unique<PeData>());
    pes_.back()->id = pe;
  }
  local_min_.resize(cfg_.num_pes, kTimeInf);
  local_max_ts_.resize(cfg_.num_pes, kTimeNegInf);
  local_processed_.resize(cfg_.num_pes, 0);
  wd_beacons_ = std::make_unique<PeBeacon[]>(cfg_.num_pes);
}

ConservativeEngine::~ConservativeEngine() = default;

void ConservativeEngine::run_pe(PeData& pe) {
  Ctx ctx(*this, pe);
  pe.probe.begin(Phase::GvtBarrier);
  for (;;) {
    // Publish the local floor (plus the checkpoint reductions: local max
    // processed timestamp and processed count); PE 0 computes the window.
    pe.probe.switch_to(Phase::GvtBarrier);
    wd_beacons_[pe.id].set_phase(BeaconPhase::GvtBarrier);
    local_min_[pe.id] =
        pe.pending.empty() ? kTimeInf : pe.pending.peek_min()->key.ts;
    local_max_ts_[pe.id] = pe.max_processed_ts;
    local_processed_[pe.id] = pe.metrics.at(Counter::Processed);
    wd_beacons_[pe.id].processed.store(local_processed_[pe.id],
                                       std::memory_order_relaxed);
    wd_beacons_[pe.id].committed.store(local_processed_[pe.id],
                                       std::memory_order_relaxed);
    wd_beacons_[pe.id].pending.store(pe.pending.size(),
                                     std::memory_order_relaxed);
    barrier_.arrive_and_wait();
    if (pe.id == 0) {
      Time floor = kTimeInf;
      Time max_ts = kTimeNegInf;
      std::uint64_t total_processed = 0;
      for (const Time m : local_min_) floor = std::min(floor, m);
      for (const Time m : local_max_ts_) max_ts = std::max(max_ts, m);
      for (const std::uint64_t p : local_processed_) total_processed += p;
      wd_heart_.committed.store(ck_base_committed_ + total_processed,
                                std::memory_order_relaxed);
      wd_heart_.rounds.fetch_add(1, std::memory_order_relaxed);
      if (floor > cfg_.end_time) {
        done_.store(true, std::memory_order_relaxed);
        ck_do_.store(false, std::memory_order_relaxed);
      } else {
        wd_heart_.gvt_bits.store(std::bit_cast<std::uint64_t>(floor),
                                 std::memory_order_relaxed);
        window_end_.store(floor + lookahead_, std::memory_order_relaxed);
        windows_.fetch_add(1, std::memory_order_relaxed);
        // A checkpoint fence must separate everything committed (strictly
        // below) from everything pending (at or above) — true exactly when
        // the floor has moved past the highest processed timestamp. If not,
        // keep running; a later window will present a clean cut.
        const bool ck = ck_base_committed_ + total_processed >= ck_next_ &&
                        floor > max_ts;
        if (ck) {
          ck_fence_ = floor;
          ck_committed_ = ck_base_committed_ + total_processed;
        }
        ck_do_.store(ck, std::memory_order_relaxed);
      }
    }
    barrier_.arrive_and_wait();
    if (done_.load(std::memory_order_relaxed)) {
      pe.probe.end();
      wd_beacons_[pe.id].set_phase(BeaconPhase::Done);
      return;
    }
    if (ck_do_.load(std::memory_order_relaxed)) {
      // Stop-the-world serialization: every PE is parked between barriers
      // with its inbox empty (drained at the previous window's end) and all
      // processed work committed, so PE 0 can read the global LP/RNG/pending
      // structures without racing anyone.
      if (pe.id == 0) {
        obs::PhaseScope ck_phase(pe.probe, Phase::Checkpoint);
        wd_beacons_[0].set_phase(BeaconPhase::Checkpoint);
        write_checkpoint_image();
      }
      barrier_.arrive_and_wait();
    }

    // Process everything inside the window (key order; same-PE insertions
    // during processing are picked up by the min-pop).
    pe.probe.switch_to(Phase::Forward);
    wd_beacons_[pe.id].set_phase(BeaconPhase::Execute);
    const Time wend = window_end_.load(std::memory_order_relaxed);
    while (Event* ev = pe.pending.peek_min()) {
      if (ev->key.ts >= wend || ev->key.ts > cfg_.end_time) break;
      pe.pending.pop_min();
      ev->status = EventStatus::Processed;
      if (HP_UNLIKELY(telemetry_)) {
        const std::uint64_t now = obs::monotonic_ns();
        if (ev->create_wall_ns != 0) {
          hub_->ring(pe.id).try_push(obs::LatencyMetric::QueueDwell,
                                     now - ev->create_wall_ns);
        }
        ev->exec_wall_ns = now;
      }
      ctx.begin_event(ev);
      model_.forward(*states_[ev->key.dst_lp], *ev, ctx);
      model_.commit(*states_[ev->key.dst_lp], *ev);
      pe.max_processed_ts = std::max(pe.max_processed_ts, ev->key.ts);
      ++pe.metrics.at(Counter::Processed);
      if (HP_UNLIKELY(telemetry_)) {
        // Processing commits in place, so commit latency here is the
        // forward+commit cost (the no-rollback floor of the metric).
        hub_->ring(pe.id).try_push(obs::LatencyMetric::CommitLatency,
                                   obs::monotonic_ns() - ev->exec_wall_ns);
      }
      pe.pool.free(ev);
    }

    // End-of-window barrier: all sends are parked; drain the inbox.
    pe.probe.switch_to(Phase::GvtBarrier);
    barrier_.arrive_and_wait();
    std::uint64_t inbox_depth = 0;
    {
      obs::PhaseScope drain_phase(pe.probe, Phase::InboxDrain);
      std::scoped_lock lock(pe.inbox_mu);
      inbox_depth = pe.inbox.size();
      if (HP_UNLIKELY(telemetry_) && !pe.inbox.empty()) {
        // One clock read per drain batch: every parked envelope left the
        // sender before the barrier, so `now` bounds all their dwells.
        const std::uint64_t now = obs::monotonic_ns();
        for (Event* ev : pe.inbox) {
          if (ev->send_wall_ns != 0 && now > ev->send_wall_ns) {
            hub_->ring(pe.id).try_push(obs::LatencyMetric::InboxDwell,
                                       now - ev->send_wall_ns);
          }
          ev->send_wall_ns = 0;
        }
      }
      for (Event* ev : pe.inbox) pe.pending.insert(ev);
      pe.inbox.clear();
    }

    // This window's slice of the round series; every event processed in a
    // window commits, so the yield is 1 by construction.
    const std::uint64_t processed_delta =
        pe.metrics.at(Counter::Processed) - pe.processed_at_last_window;
    pe.series.push(obs::GvtRoundSample{
        pe.local_rounds, obs::monotonic_ns() - epoch_ns_, wend - lookahead_,
        processed_delta, processed_delta, inbox_depth, pe.pool.allocated(),
        static_cast<std::uint64_t>(std::max<std::int64_t>(0, pe.pool.live())),
        pe.pool.pool_bytes()});
    ++pe.local_rounds;
    pe.processed_at_last_window = pe.metrics.at(Counter::Processed);
  }
}

// PE 0 only, with every other PE parked between barriers: capture the
// committed cut (all LP states + RNG cursors, every pending event on every
// PE) at the fence chosen by the window-top reduction.
void ConservativeEngine::write_checkpoint_image() {
  CheckpointImage img;
  img.seed = cfg_.seed;
  img.num_lps = cfg_.num_lps;
  img.fence = ck_fence_;
  img.end_time = cfg_.end_time;
  img.committed = ck_committed_;
  img.lps.reserve(cfg_.num_lps);
  for (std::uint32_t lp = 0; lp < cfg_.num_lps; ++lp) {
    img.lps.push_back(make_lp_record(*states_[lp], rngs_[lp]));
  }
  // The pending sets have no iteration API: drain each into a stage vector,
  // record, reinsert (same multiset, so window processing is unaffected).
  for (auto& pe : pes_) {
    std::vector<Event*> stage;
    while (Event* p = pe->pending.pop_min()) stage.push_back(p);
    img.events.reserve(img.events.size() + stage.size());
    for (const Event* p : stage) {
      CheckpointEventRecord rec;
      rec.key = p->key;
      rec.send_ts = p->send_ts;
      rec.payload.assign(reinterpret_cast<const std::uint8_t*>(p->payload),
                         reinterpret_cast<const std::uint8_t*>(p->payload) +
                             p->payload_size);
      img.events.push_back(std::move(rec));
    }
    for (Event* p : stage) pe->pending.insert(p);
  }
  std::string path, err;
  const bool wrote =
      write_checkpoint(img, cfg_.checkpoint.dir,
                       ck_next_ / cfg_.checkpoint.every, path, err);
  HP_ASSERT(wrote, "%s", err.c_str());
  ++ck_written_;
  ck_next_ =
      (img.committed / cfg_.checkpoint.every + 1) * cfg_.checkpoint.every;
}

RunStats ConservativeEngine::run() {
  // Telemetry comes up before init_lp so initial schedule()s get creation
  // stamps (their queue dwell until the first window is real).
  telemetry_ = cfg_.obs.telemetry_enabled();
  if (HP_UNLIKELY(telemetry_)) {
    hub_ = std::make_unique<obs::TelemetryHub>(cfg_.obs, cfg_.num_pes);
  }
  // Fresh run seeds the initial events; a restored run reinstates the
  // committed cut from the image instead (see des/checkpoint.hpp).
  const bool restoring = !cfg_.restore_path.empty();
  if (restoring) {
    CheckpointImage image;
    std::string err;
    const bool loaded =
        load_checkpoint_for_restore(cfg_.restore_path, cfg_.seed,
                                    cfg_.num_lps, cfg_.end_time, image, err);
    HP_ASSERT(loaded, "%s", err.c_str());
    for (std::uint32_t lp = 0; lp < cfg_.num_lps; ++lp) {
      apply_lp_record(image.lps[lp], lp, *states_[lp], rngs_[lp]);
    }
    for (const CheckpointEventRecord& rec : image.events) {
      PeData& pe = *pes_[lp_pe_[rec.key.dst_lp]];
      Event* ev = pe.pool.allocate();
      ev->key = rec.key;
      ev->send_ts = rec.send_ts;
      ev->status = EventStatus::Pending;
      ev->payload_size = static_cast<std::uint16_t>(rec.payload.size());
      if (!rec.payload.empty()) {
        std::memcpy(ev->payload, rec.payload.data(), rec.payload.size());
      }
      if (HP_UNLIKELY(telemetry_)) ev->create_wall_ns = obs::monotonic_ns();
      pe.pending.insert(ev);
    }
    ck_base_committed_ = image.committed;
  } else {
    ConsInitCtx ictx(*this, cfg_.seed);
    for (std::uint32_t lp = 0; lp < cfg_.num_lps; ++lp) {
      ictx.begin_lp(lp);
      model_.init_lp(lp, ictx);
    }
  }
  if (cfg_.checkpoint.enabled()) {
    ck_next_ = (ck_base_committed_ / cfg_.checkpoint.every + 1) *
               cfg_.checkpoint.every;
  }

  const bool tracing = cfg_.obs.trace;
  for (auto& pe : pes_) {
    pe->trace.reset(tracing ? cfg_.obs.max_trace_spans_per_pe : 0);
    pe->series.reset(cfg_.obs.gvt_series_capacity);
    pe->probe.attach(&pe->metrics, tracing ? &pe->trace : nullptr,
                     cfg_.obs.phase_timers);
  }
  epoch_ns_ = obs::monotonic_ns();

  WatchdogScope wd_scope{"conservative", &wd_heart_, wd_beacons_.get(),
                         cfg_.num_pes};
  util::ScopedFailureDump wd_dump(failure_dump_adapter, &wd_scope);
  std::optional<Watchdog> watchdog;
  if (cfg_.watchdog.enabled()) watchdog.emplace(cfg_.watchdog, wd_scope);

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

  RunStats stats;
  obs::MetricsReport& m = stats.metrics;
  m.per_pe.reserve(pes_.size());
  pes_[0]->metrics.at(Counter::Checkpoints) = ck_written_;
  for (auto& pe : pes_) {
    // Everything a conservative PE processes commits immediately.
    pe->metrics.at(Counter::Committed) = pe->metrics.at(Counter::Processed);
    if (HP_UNLIKELY(telemetry_)) {
      // Producers have joined, so the ring's drop counter is final.
      pe->metrics.at(Counter::TelemetryDropped) =
          hub_->ring(pe->id).dropped();
    }
    pe->metrics.at(Counter::PoolEnvelopes) = pe->pool.allocated();
    pe->metrics.at(Counter::PoolLiveEnvelopes) = static_cast<std::uint64_t>(
        std::max<std::int64_t>(0, pe->pool.live()));
    pe->metrics.at(Counter::PoolPeakLive) =
        static_cast<std::uint64_t>(pe->pool.peak_live());
    pe->metrics.at(Counter::PoolSlabs) = pe->pool.slabs_allocated();
    pe->metrics.at(Counter::PoolBytes) = pe->pool.pool_bytes();
    m.per_pe.push_back(pe->metrics);
  }
  m.finalize();
  m.gvt_rounds = windows_.load();
  m.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  m.final_gvt = cfg_.end_time;

  // Merge the per-PE window series (windows are barrier-global; slices
  // align index-by-index; window floor and timestamp come from PE 0).
  std::vector<obs::GvtRoundSample> series = pes_[0]->series.snapshot();
  for (std::size_t p = 1; p < pes_.size(); ++p) {
    const std::vector<obs::GvtRoundSample> other = pes_[p]->series.snapshot();
    HP_ASSERT(other.size() == series.size(),
              "window series rings disagree across PEs (%zu vs %zu)",
              other.size(), series.size());
    for (std::size_t i = 0; i < series.size(); ++i) {
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
    m.trace_spans = obs::write_chrome_trace(cfg_.obs.trace_path, epoch_ns_,
                                            buffers, m.gvt_series)
                        .spans;
  }
  // Rollback forensics and the live monitor are Time Warp diagnostics: a
  // conservative window never rolls back and has no straggler causality to
  // attribute, so ObsConfig::forensics/monitor are accepted and ignored here
  // (m.forensics stays empty, no heartbeat is emitted).

  if (HP_UNLIKELY(telemetry_)) {
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
