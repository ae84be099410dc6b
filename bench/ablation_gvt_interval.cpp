// Ablation: GVT pacing (ROSS's g_tw_gvt_interval analogue) — the frequency
// knob trading synchronization overhead against memory and rollback depth.
// The interval is a ceiling: each PE floats its effective interval beneath
// it on the commit yield of the previous round (plus exponential idle
// backoff), so short ceilings bound optimism tightly (frequent rounds,
// prompt fossil collection, small event pools) and long ones let clean PEs
// run free between reductions. The trigger columns show what drove the
// rounds.

#include <string>

#include "bench/common.hpp"

int main(int argc, char** argv) {
  hp::util::Cli cli(argc, argv, hp::bench::common_flags());
  const bool full = cli.get_bool("full", false);
  const std::int32_t n = full ? 64 : 32;

  hp::util::Table table({"gvt_interval", "events_per_s", "gvt_rounds",
                         "trig_progress", "trig_idle", "rolled_back",
                         "pool_envelopes", "identical"});
  hp::core::SimulationResult ref;
  bool have_ref = false;
  for (const std::uint32_t interval : {64u, 256u, 1024u, 4096u, 16384u}) {
    auto o = hp::bench::tw_options(n, 0.5, 2, 64);
    o.engine.gvt_interval_events = interval;
    const auto r = hp::core::run_hotpotato(o);
    if (!have_ref) {
      ref = r;
      have_ref = true;
    }
    if (!hp::bench::same_workload(
            "ablation_gvt_interval",
            "interval=" + std::to_string(interval) + " row",
            r.engine.committed_events(), ref.engine.committed_events(),
            r.report == ref.report)) {
      return 1;
    }
    table.add_row({static_cast<std::int64_t>(interval), r.engine.event_rate(),
                   r.engine.gvt_rounds(), r.engine.gvt_progress_triggers(),
                   r.engine.gvt_idle_triggers(), r.engine.rolled_back_events(),
                   r.engine.pool_envelopes(), "yes"});
  }
  hp::bench::finish(table, cli,
                    "Ablation: GVT interval ceiling under commit-yield "
                    "pacing (identical results at every ceiling)");
  return 0;
}
