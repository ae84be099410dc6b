#pragma once

// Conservative parallel kernel (bounded-window / YAWNS style) — the classic
// alternative to Time Warp that the ROSS line of work positions against.
//
// Requires a model property Time Warp does not: a global **lookahead** L —
// every message sent to a *different* LP must arrive at least L after the
// sender's current time (same-LP self-sends may be arbitrarily close). Then
// events inside the window [floor, floor + L) are causally independent
// across PEs and can run in parallel with no rollback machinery at all:
//
//   loop:
//     barrier; floor = global min pending timestamp; barrier
//     every PE processes its events with ts < floor + L (in key order;
//       same-PE sends insert directly, cross-PE sends go to inboxes)
//     barrier; drain inboxes
//
// Strengths: zero wasted work, no reverse handlers needed. Weakness: the
// window — and therefore the parallelism per synchronization — is capped by
// the model's lookahead, which is exactly the limitation optimistic
// execution removes. The conservative_vs_optimistic bench quantifies both
// sides on the same models.
//
// Determinism: events are processed in the same deterministic key order as
// the other kernels, so results are bit-identical to SequentialEngine.

#include <atomic>
#include <barrier>
#include <memory>
#include <mutex>
#include <vector>

#include "des/engine.hpp"
#include "des/event.hpp"
#include "des/ladder_queue.hpp"
#include "des/model.hpp"
#include "net/mapping.hpp"
#include "obs/probe.hpp"

namespace hp::obs {
class TelemetryHub;
}

namespace hp::des {

class ConsInitCtx;

class ConservativeEngine final : public Engine {
  friend class ConsInitCtx;

 public:
  // `lookahead` must be a lower bound on every cross-LP send delay the
  // model performs; the engine verifies each send against it.
  ConservativeEngine(Model& model, EngineConfig cfg, Time lookahead);
  ~ConservativeEngine() override;

  ConservativeEngine(const ConservativeEngine&) = delete;
  ConservativeEngine& operator=(const ConservativeEngine&) = delete;

  RunStats run() override;

  LpState& state(std::uint32_t lp) noexcept override { return *states_[lp]; }
  const LpState& state(std::uint32_t lp) const noexcept override {
    return *states_[lp];
  }
  std::uint32_t num_lps() const noexcept override { return cfg_.num_lps; }

 private:
  struct alignas(64) PeData {
    std::uint32_t id = 0;
    LadderQueue pending;
    std::mutex inbox_mu;
    std::vector<Event*> inbox;
    EventPool pool;

    // Observability (same vocabulary as the Time Warp kernel; windows play
    // the role of GVT rounds).
    obs::PeMetrics metrics;
    obs::PhaseProbe probe;
    obs::TraceBuffer trace;
    obs::GvtSeriesRing series;
    std::uint64_t local_rounds = 0;
    std::uint64_t processed_at_last_window = 0;
    // Highest timestamp processed on this PE, published at the window-top
    // reduction so PE 0 can prove a checkpoint fence (all committed strictly
    // below it) exists at the current floor.
    Time max_processed_ts = kTimeNegInf;
  };

  class Ctx;

  void run_pe(PeData& pe);

  Model& model_;
  EngineConfig cfg_;
  Time lookahead_;
  std::unique_ptr<net::Mapping> owned_mapping_;
  const net::Mapping* mapping_ = nullptr;

  std::vector<std::unique_ptr<LpState>> states_;
  std::vector<util::ReversibleRng> rngs_;
  std::vector<std::uint32_t> lp_pe_;
  std::vector<std::unique_ptr<PeData>> pes_;

  // Latency telemetry (ObsConfig::telemetry): off => no clock reads in the
  // window loop; on => per-PE rings feed the hub's histograms only.
  bool telemetry_ = false;
  std::unique_ptr<obs::TelemetryHub> hub_;

  std::barrier<> barrier_;
  std::vector<Time> local_min_;
  std::atomic<Time> window_end_{0.0};
  std::atomic<bool> done_{false};
  std::atomic<std::uint64_t> windows_{0};
  std::uint64_t epoch_ns_ = 0;  // run-start timestamp for series/trace

  // Checkpointing (window-top reductions; see checkpoint_if_due).
  std::vector<Time> local_max_ts_;
  std::vector<std::uint64_t> local_processed_;
  std::atomic<bool> ck_do_{false};
  std::uint64_t ck_base_committed_ = 0;  // image baseline when restoring
  std::uint64_t ck_next_ = ~0ull;
  std::uint64_t ck_written_ = 0;
  Time ck_fence_ = 0.0;            // written and read by PE 0 only
  std::uint64_t ck_committed_ = 0;  // ditto

  void write_checkpoint_image();

  // Stall watchdog / fail-fast diagnostics (see des/watchdog.hpp).
  WatchdogHeart wd_heart_;
  std::unique_ptr<PeBeacon[]> wd_beacons_;
};

}  // namespace hp::des
