#include "des/sequential.hpp"

#include <bit>
#include <chrono>
#include <cstring>
#include <optional>

#include "obs/probe.hpp"
#include "obs/telemetry.hpp"
#include "util/failure.hpp"
#include "util/hash.hpp"

namespace hp::des {

// Send context: allocate, key, insert into the pending set.
class SequentialEngine::Ctx final : public Context {
 public:
  explicit Ctx(SequentialEngine& e) : e_(e) {}

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
              "LP %u t=%.6f: send to out-of-range LP %u at ts=%.6f (num_lps "
              "%u)",
              cur_->key.dst_lp, cur_->key.ts, dst_lp, ts, e_.cfg_.num_lps);
    Event* ev = e_.pool_.allocate();
    ev->key = EventKey{ts, util::hash_combine(cur_->key.tie, send_seq_),
                       cur_->key.dst_lp, dst_lp, send_seq_};
    ++send_seq_;
    ev->send_ts = cur_->key.ts;
    ev->kp = 0;
    ev->status = EventStatus::Pending;
    ev->cv = 0;
    if (HP_UNLIKELY(e_.telemetry_)) ev->create_wall_ns = obs::monotonic_ns();
    return ev;
  }
  void commit_send_(Event* ev) override { e_.pending_.insert(ev); }

 private:
  SequentialEngine& e_;
};

class SequentialEngine::ICtx final : public InitContext {
 public:
  ICtx(SequentialEngine& e, std::uint64_t seed) : e_(e), seed_(seed) {}

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
    Event* ev = e_.pool_.allocate();
    const std::uint64_t root = util::hash_combine(seed_, lp_);
    ev->key = EventKey{ts, util::hash_combine(root, idx_), lp_, dst_lp, idx_};
    ++idx_;
    ev->send_ts = 0.0;
    ev->kp = 0;
    ev->status = EventStatus::Pending;
    ev->cv = 0;
    if (HP_UNLIKELY(e_.telemetry_)) ev->create_wall_ns = obs::monotonic_ns();
    return ev;
  }
  void commit_schedule_(Event* ev) override { e_.pending_.insert(ev); }

 private:
  SequentialEngine& e_;
  std::uint64_t seed_;
  std::uint32_t idx_ = 0;
};

SequentialEngine::SequentialEngine(Model& model, EngineConfig cfg)
    : model_(model), cfg_(cfg) {
  HP_ASSERT(cfg_.num_lps > 0, "num_lps must be positive");
  states_.reserve(cfg_.num_lps);
  rngs_.reserve(cfg_.num_lps);
  for (std::uint32_t lp = 0; lp < cfg_.num_lps; ++lp) {
    states_.push_back(model_.make_state(lp));
    rngs_.emplace_back(util::hash_combine(cfg_.seed, lp));
  }
}

SequentialEngine::~SequentialEngine() = default;

RunStats SequentialEngine::run() {
  RunStats stats;
  obs::MetricsReport& m = stats.metrics;
  // Telemetry comes up before init_lp so the initial schedule()s get
  // creation stamps too (their queue dwell is real: they sit in the pending
  // set until the run loop reaches them).
  telemetry_ = cfg_.obs.telemetry_enabled();
  if (HP_UNLIKELY(telemetry_)) {
    hub_ = std::make_unique<obs::TelemetryHub>(cfg_.obs, 1);
  }
  // Fresh run: seed the initial events. Restored run: reinstate the
  // committed cut instead — LP states + RNG cursors from the image, and the
  // pending events verbatim (full EventKey preserved, so the causal
  // tiebreak chain — and therefore the processing order — is identical to
  // the uninterrupted run).
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
    for (const CheckpointEventRecord& rec : restore_image.events) {
      Event* ev = pool_.allocate();
      ev->key = rec.key;
      ev->send_ts = rec.send_ts;
      ev->kp = 0;
      ev->status = EventStatus::Pending;
      ev->payload_size = static_cast<std::uint16_t>(rec.payload.size());
      if (!rec.payload.empty()) {
        std::memcpy(ev->payload, rec.payload.data(), rec.payload.size());
      }
      if (HP_UNLIKELY(telemetry_)) ev->create_wall_ns = obs::monotonic_ns();
      pending_.insert(ev);
    }
  } else {
    ICtx ictx(*this, cfg_.seed);
    for (std::uint32_t lp = 0; lp < cfg_.num_lps; ++lp) {
      ictx.begin_lp(lp);
      model_.init_lp(lp, ictx);
    }
  }

  // No per-PE breakdown: the single execution stream fills `total` directly
  // (one Forward phase segment covers the whole run).
  obs::TraceBuffer trace;
  obs::PhaseProbe probe;
  const bool tracing = cfg_.obs.trace;
  if (tracing) trace.reset(cfg_.obs.max_trace_spans_per_pe);
  probe.attach(&m.total, tracing ? &trace : nullptr, cfg_.obs.phase_timers);
  const std::uint64_t epoch_ns = obs::monotonic_ns();
  probe.begin(obs::Phase::Forward);

  // Crash-safety plumbing: progress beacons for the stall watchdog and the
  // fail-fast diagnostic dump, plus the committed-count checkpoint trigger.
  // The committed baseline of a restored run counts the image's events so
  // checkpoint sequence numbers stay monotonic across restores.
  WatchdogHeart wd_heart;
  PeBeacon wd_beacon;
  WatchdogScope wd_scope{"sequential", &wd_heart, &wd_beacon, 1};
  util::ScopedFailureDump wd_dump(failure_dump_adapter, &wd_scope);
  std::optional<Watchdog> watchdog;
  if (cfg_.watchdog.enabled()) watchdog.emplace(cfg_.watchdog, wd_scope);
  wd_beacon.set_phase(BeaconPhase::Execute);
  const bool ck_on = cfg_.checkpoint.enabled();
  const std::uint64_t committed_base = restoring ? restore_image.committed : 0;
  std::uint64_t ck_next =
      ck_on ? (committed_base / cfg_.checkpoint.every + 1) *
                  cfg_.checkpoint.every
            : ~0ull;
  std::uint64_t ck_written = 0;
  Time last_ts = kTimeNegInf;

  Ctx ctx(*this);
  std::uint64_t processed = 0;
  const auto t0 = std::chrono::steady_clock::now();
  while (Event* ev = pending_.peek_min()) {
    if (ev->key.ts > cfg_.end_time) break;
    // Checkpoint at the first strict timestamp increase past the committed
    // threshold: with everything processed so far at ts < ev->key.ts, the
    // cut "committed < {fence,0,0,0,0} <= pending" exists with fence =
    // ev->key.ts (the pending minimum), which is exactly what the image
    // format requires.
    if (HP_UNLIKELY(committed_base + processed >= ck_next) &&
        ev->key.ts > last_ts) {
      probe.begin(obs::Phase::Checkpoint);
      wd_beacon.set_phase(BeaconPhase::Checkpoint);
      CheckpointImage img;
      img.seed = cfg_.seed;
      img.num_lps = cfg_.num_lps;
      img.fence = ev->key.ts;
      img.end_time = cfg_.end_time;
      img.committed = committed_base + processed;
      img.lps.reserve(cfg_.num_lps);
      for (std::uint32_t lp = 0; lp < cfg_.num_lps; ++lp) {
        img.lps.push_back(make_lp_record(*states_[lp], rngs_[lp]));
      }
      // The pending set has no iteration API: drain into a stage vector,
      // serialize, reinsert (identical multiset, so order is unaffected).
      std::vector<Event*> stage;
      while (Event* p = pending_.pop_min()) stage.push_back(p);
      img.events.reserve(stage.size());
      for (const Event* p : stage) {
        CheckpointEventRecord rec;
        rec.key = p->key;
        rec.send_ts = p->send_ts;
        rec.payload.assign(
            reinterpret_cast<const std::uint8_t*>(p->payload),
            reinterpret_cast<const std::uint8_t*>(p->payload) +
                p->payload_size);
        img.events.push_back(std::move(rec));
      }
      std::string path, err;
      const bool wrote =
          write_checkpoint(img, cfg_.checkpoint.dir,
                           ck_next / cfg_.checkpoint.every, path, err);
      HP_ASSERT(wrote, "%s", err.c_str());
      ++ck_written;
      for (Event* p : stage) pending_.insert(p);
      ck_next = (img.committed / cfg_.checkpoint.every + 1) *
                cfg_.checkpoint.every;
      probe.begin(obs::Phase::Forward);
      wd_beacon.set_phase(BeaconPhase::Execute);
    }
    pending_.pop_min();
    ev->rng_before = rngs_[ev->key.dst_lp].draw_count();
    ev->status = EventStatus::Processed;
    if (HP_UNLIKELY(telemetry_)) {
      const std::uint64_t now = obs::monotonic_ns();
      if (ev->create_wall_ns != 0) {
        hub_->ring(0).try_push(obs::LatencyMetric::QueueDwell,
                               now - ev->create_wall_ns);
      }
      ev->exec_wall_ns = now;
    }
    ctx.begin_event(ev);
    model_.forward(*states_[ev->key.dst_lp], *ev, ctx);
    model_.commit(*states_[ev->key.dst_lp], *ev);
    last_ts = ev->key.ts;
    ++processed;
    if (HP_UNLIKELY((processed & 1023u) == 0)) {
      wd_heart.gvt_bits.store(std::bit_cast<std::uint64_t>(ev->key.ts),
                              std::memory_order_relaxed);
      wd_heart.committed.store(processed, std::memory_order_relaxed);
      wd_beacon.processed.store(processed, std::memory_order_relaxed);
      wd_beacon.committed.store(processed, std::memory_order_relaxed);
      wd_beacon.pending.store(pending_.size(), std::memory_order_relaxed);
    }
    if (HP_UNLIKELY(telemetry_)) {
      // Execution and commit coincide here, so commit latency is the
      // forward+commit cost itself — the sequential floor of the same
      // metric the optimistic kernel reports.
      hub_->ring(0).try_push(obs::LatencyMetric::CommitLatency,
                             obs::monotonic_ns() - ev->exec_wall_ns);
      if ((processed & 0xFFFFu) == 0) {
        obs::GaugeSnapshot g;
        g.counters[static_cast<std::size_t>(obs::Counter::Processed)] =
            processed;
        g.counters[static_cast<std::size_t>(obs::Counter::Committed)] =
            processed;
        g.gvt = ev->key.ts;
        g.wall_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();
        hub_->publish_gauges(g);
      }
    }
    pool_.free(ev);
  }
  const auto t1 = std::chrono::steady_clock::now();
  probe.end();
  wd_beacon.set_phase(BeaconPhase::Done);
  if (watchdog) watchdog->stop();

  m.total.at(obs::Counter::Processed) = processed;
  m.total.at(obs::Counter::Committed) = processed;
  m.total.at(obs::Counter::Checkpoints) = ck_written;
  m.total.at(obs::Counter::PoolEnvelopes) = pool_.allocated();
  m.total.at(obs::Counter::PoolLiveEnvelopes) = static_cast<std::uint64_t>(
      std::max<std::int64_t>(0, pool_.live()));
  m.total.at(obs::Counter::PoolPeakLive) =
      static_cast<std::uint64_t>(pool_.peak_live());
  m.total.at(obs::Counter::PoolSlabs) = pool_.slabs_allocated();
  m.total.at(obs::Counter::PoolBytes) = pool_.pool_bytes();
  m.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  m.final_gvt = pending_.empty() ? kTimeInf : pending_.peek_min()->key.ts;
  if (tracing) {
    m.trace_spans = obs::write_chrome_trace(cfg_.obs.trace_path, epoch_ns,
                                            {&trace}, m.gvt_series)
                        .spans;
    m.trace_spans_dropped = trace.dropped();
  }
  // Events beyond end_time are never executed; release them.
  while (Event* ev = pending_.pop_min()) pool_.free(ev);

  if (HP_UNLIKELY(telemetry_)) {
    // The loop has exited, so the ring's drop counter is final.
    m.total.at(obs::Counter::TelemetryDropped) = hub_->ring(0).dropped();
    obs::GaugeSnapshot g;
    g.counters = m.total.counters;
    g.phase_ns = m.total.phase_ns;
    g.gvt = m.final_gvt;
    g.wall_seconds = m.wall_seconds;
    hub_->publish_gauges(g);
    hub_->finalize_into(m);
    hub_.reset();
  }
  return stats;
}

}  // namespace hp::des
