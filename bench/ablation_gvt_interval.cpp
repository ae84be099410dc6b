// Ablation: GVT pacing (ROSS's g_tw_gvt_interval analogue) — the frequency
// knob trading synchronization overhead against memory and rollback depth.
// Short fixed intervals bound optimism tightly (frequent barriers, prompt
// fossil collection, small event pools); long intervals let PEs run free
// between reductions. The adaptive rows let each PE float its interval from
// the commit yield of the previous round (plus exponential idle backoff);
// the trigger columns show what drove the rounds.

#include <string>

#include "bench/common.hpp"

int main(int argc, char** argv) {
  hp::util::Cli cli(argc, argv, hp::bench::common_flags());
  const bool full = cli.get_bool("full", false);
  const std::int32_t n = full ? 64 : 32;

  hp::util::Table table({"mode", "gvt_interval", "events_per_s", "gvt_rounds",
                         "trig_progress", "trig_idle", "rolled_back",
                         "pool_envelopes", "identical"});
  hp::core::SimulationResult ref;
  bool have_ref = false;
  // Returns false when the row ran a different workload than the first.
  auto run_row = [&](bool adaptive, std::uint32_t interval) {
    auto o = hp::bench::tw_options(n, 0.5, 2, 64);
    o.engine.gvt_interval_events = interval;
    o.engine.adaptive_gvt = adaptive;
    const auto r = hp::core::run_hotpotato(o);
    if (!have_ref) {
      ref = r;
      have_ref = true;
    }
    const char* mode = adaptive ? "adaptive" : "fixed";
    if (!hp::bench::same_workload(
            "ablation_gvt_interval",
            std::string(mode) + " interval=" + std::to_string(interval) +
                " row",
            r.engine.committed_events(), ref.engine.committed_events(),
            r.report == ref.report)) {
      return false;
    }
    table.add_row({mode, static_cast<std::int64_t>(interval),
                   r.engine.event_rate(), r.engine.gvt_rounds(),
                   r.engine.gvt_progress_triggers(),
                   r.engine.gvt_idle_triggers(), r.engine.rolled_back_events(),
                   r.engine.pool_envelopes(), "yes"});
    return true;
  };
  for (const std::uint32_t interval : {64u, 256u, 1024u, 4096u, 16384u}) {
    if (!run_row(false, interval)) return 1;
  }
  // Adaptive pacing: the interval is the ceiling the PEs float beneath.
  for (const std::uint32_t ceiling : {1024u, 16384u}) {
    if (!run_row(true, ceiling)) return 1;
  }
  hp::bench::finish(table, cli,
                    "Ablation: GVT pacing (fixed interval sweep vs adaptive "
                    "commit-yield pacing; identical results either way)");
  return 0;
}
