#pragma once

// Shared engine configuration, the common kernel interface, and run
// statistics.
//
// Every kernel implements des::Engine (run / state / num_lps /
// for_each_state) so harnesses, tests and the core facade drive any of them
// through one handle; make_engine is the single construction point.
// RunStats wraps the structured obs::MetricsReport — named counters, per-PE
// phase-time breakdowns and the GVT-round time series — behind the
// historical accessor vocabulary.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "des/checkpoint.hpp"
#include "des/fault.hpp"
#include "des/time.hpp"
#include "des/watchdog.hpp"
#include "net/mapping.hpp"
#include "obs/metrics.hpp"

namespace hp::des {

class Model;
class LpState;

struct EngineConfig {
  std::uint32_t num_lps = 0;
  Time end_time = 0.0;
  std::uint64_t seed = 1;

  // Time Warp kernel only.
  std::uint32_t num_pes = 1;
  // Total KPs across all PEs (report Fig. 7/8 x-axis). 0 = auto: one KP per
  // PE when an engine is built directly; the core facade substitutes the
  // report default (64) instead.
  std::uint32_t num_kps = 0;
  // Optional externally supplied LP->KP->PE mapping (e.g. the torus block
  // mapping); if null a LinearMapping is built. Not owned.
  const net::Mapping* mapping = nullptr;
  // Per-PE processed events between GVT rounds. Also bounds memory: events
  // can only be fossil-collected at GVT. This is the *ceiling*: each PE's
  // optimism controller (des/optimism.hpp) floats its effective interval
  // below it on the commit yield of the previous round (wasted optimism =>
  // sooner rounds, clean progress => stretch back toward the ceiling), and
  // idle PEs request GVT with an exponential backoff. Results are
  // bit-identical at any pacing — GVT timing affects only commit latency and
  // memory, never event order.
  std::uint32_t gvt_interval_events = 4096;
  // Ablation: roll back by restoring pre-event state snapshots instead of
  // reverse computation (report Section 3.2.1 contrasts these).
  bool state_saving = false;
  // Cancellation strategy. Aggressive (default, and what ROSS defaults to):
  // a rollback sends anti-messages for all children immediately. Lazy: keep
  // the children; if re-execution sends a bit-identical child (same derived
  // key and payload), reuse it — its whole downstream subtree survives the
  // rollback. Only exact matches are reused, so results stay bit-identical.
  enum class Cancellation : std::uint8_t { Aggressive, Lazy };
  Cancellation cancellation = Cancellation::Aggressive;
  // Optimism throttle (moving time window): a PE only executes events with
  // ts <= GVT + window. Infinite reproduces pure Time Warp; a few model time
  // steps tames rollback thrash when PEs are badly co-paced (e.g. more PEs
  // than cores, so one thread races ahead while others are descheduled).
  // Also the ceiling of the flow-control throttle window below.
  Time optimism_window = kTimeInf;
  // Optimism flow control (Time Warp only): per-PE budget of *live* event
  // envelopes (EventPool::live()). 0 disables. A PE crossing the soft
  // watermark (half the budget) enters a throttle window that caps forward
  // progress to gvt + a window steered by its commit yield; crossing the
  // hard watermark (budget minus a small reserve) blocks optimistic
  // execution entirely — only events at ts <= GVT run — and forces a GVT
  // round. Degradation, never abort; committed results are bit-identical
  // with any budget (throttling only delays execution).
  std::uint64_t pool_budget_envelopes = 0;
  // Deterministic fault injection for the remote event path (Time Warp
  // only; disarmed by default). See des/fault.hpp.
  FaultPlan fault;
  // Observability: phase timers, GVT-round series retention, Chrome trace
  // export. Pure bookkeeping — results are bit-identical at any setting.
  obs::ObsConfig obs;
  // Crash safety: periodically serialize the committed cut of the run to
  // disk (all kernels; Time Warp checkpoints at GVT commit points). A run
  // resumed from an image finishes bit-identical to the uninterrupted run.
  // See des/checkpoint.hpp.
  CheckpointConfig checkpoint;
  // Resume from a checkpoint image (file path or directory holding images;
  // empty = fresh run). seed/num_lps/end_time must match the image.
  std::string restore_path;
  // Stall watchdog: declare the run wedged and fail loudly (structured
  // per-PE dump + exit code des::kStallExitCode) when neither GVT nor the
  // committed-event count moves for timeout_ms. See des/watchdog.hpp.
  WatchdogConfig watchdog;
};

// Structured run statistics. The full breakdown (named counters, per-PE
// phase timers, GVT-round series) lives in `metrics`; the accessors below
// are the stable shorthand the benches/tests/examples read.
struct RunStats {
  obs::MetricsReport metrics;

  std::uint64_t committed_events() const noexcept {
    return metrics.total.committed_events();
  }
  std::uint64_t processed_events() const noexcept {
    return metrics.total.processed_events();
  }
  std::uint64_t rolled_back_events() const noexcept {
    return metrics.total.rolled_back_events();
  }
  std::uint64_t primary_rollbacks() const noexcept {
    return metrics.total.primary_rollbacks();
  }
  std::uint64_t secondary_rollbacks() const noexcept {
    return metrics.total.secondary_rollbacks();
  }
  std::uint64_t primary_rollback_events() const noexcept {
    return metrics.total.primary_rollback_events();
  }
  std::uint64_t secondary_rollback_events() const noexcept {
    return metrics.total.secondary_rollback_events();
  }
  std::uint64_t max_rollback_depth() const noexcept {
    return metrics.total.max_rollback_depth();
  }
  std::uint64_t max_cascade_depth() const noexcept {
    return metrics.total.max_cascade_depth();
  }
  std::uint64_t anti_messages() const noexcept {
    return metrics.total.anti_messages();
  }
  std::uint64_t lazy_reused() const noexcept {
    return metrics.total.lazy_reused();
  }
  std::uint64_t pool_envelopes() const noexcept {
    return metrics.total.pool_envelopes();
  }
  std::uint64_t inbox_batches() const noexcept {
    return metrics.total.inbox_batches();
  }
  std::uint64_t inbox_batched_items() const noexcept {
    return metrics.total.inbox_batched_items();
  }
  std::uint64_t max_inbox_batch() const noexcept {
    return metrics.total.max_inbox_batch();
  }
  std::uint64_t gvt_progress_triggers() const noexcept {
    return metrics.total.gvt_progress_triggers();
  }
  std::uint64_t gvt_idle_triggers() const noexcept {
    return metrics.total.gvt_idle_triggers();
  }
  std::uint64_t idle_spins() const noexcept {
    return metrics.total.idle_spins();
  }
  std::uint64_t gvt_rounds() const noexcept { return metrics.gvt_rounds; }
  double wall_seconds() const noexcept { return metrics.wall_seconds; }
  double final_gvt() const noexcept { return metrics.final_gvt; }
  // One entry per PE (empty: sequential kernel).
  const std::vector<obs::PeMetrics>& per_pe() const noexcept {
    return metrics.per_pe;
  }

  double event_rate() const noexcept {
    return wall_seconds() > 0
               ? static_cast<double>(committed_events()) / wall_seconds()
               : 0.0;
  }
  // Mean envelopes per remote inbox push (1.0 = no batching benefit).
  double avg_inbox_batch() const noexcept {
    return inbox_batches() > 0
               ? static_cast<double>(inbox_batched_items()) /
                     static_cast<double>(inbox_batches())
               : 0.0;
  }
  // Fraction of forward executions that were useful work.
  double efficiency() const noexcept {
    return processed_events() > 0
               ? static_cast<double>(committed_events()) /
                     static_cast<double>(processed_events())
               : 1.0;
  }
};

// The common kernel interface: run to completion, then visit LP states for
// statistics collection (the report's Section 3.1.5 visitor construct).
class Engine {
 public:
  virtual ~Engine() = default;

  virtual RunStats run() = 0;
  virtual std::uint32_t num_lps() const noexcept = 0;
  virtual LpState& state(std::uint32_t lp) noexcept = 0;
  virtual const LpState& state(std::uint32_t lp) const noexcept = 0;

  template <typename Fn>
  void for_each_state(Fn&& fn) const {
    for (std::uint32_t lp = 0; lp < num_lps(); ++lp) fn(lp, state(lp));
  }
};

enum class EngineKind : std::uint8_t { Sequential, TimeWarp, Conservative };

// Every enumerator, for sweeps and for the exhaustiveness check: a new kind
// added here without a kind_name case fails to compile (constant evaluation
// reaches __builtin_unreachable), and tests/test_obs static_asserts over
// this list.
inline constexpr EngineKind kAllEngineKinds[] = {
    EngineKind::Sequential, EngineKind::TimeWarp, EngineKind::Conservative};

constexpr const char* kind_name(EngineKind k) noexcept {
  switch (k) {
    case EngineKind::Sequential: return "sequential";
    case EngineKind::TimeWarp: return "timewarp";
    case EngineKind::Conservative: return "conservative";
  }
  __builtin_unreachable();
}

// Single construction point for all kernels. `conservative_lookahead` is
// only read by the conservative kernel (which requires it > 0).
std::unique_ptr<Engine> make_engine(EngineKind kind, Model& model,
                                    const EngineConfig& cfg,
                                    Time conservative_lookahead = 0.0);

}  // namespace hp::des
