// Ablation: GVT pacing (ROSS's g_tw_gvt_interval analogue) — the frequency
// knob trading synchronization overhead against memory and rollback depth.
// The interval is a ceiling: each PE floats its effective interval beneath
// it on the commit yield of the previous round (plus exponential idle
// backoff), so short ceilings bound optimism tightly (frequent rounds,
// prompt fossil collection, small event pools) and long ones let clean PEs
// run free between reductions. The `effective` column is the interval the
// controller actually held (forward executions per PE per GVT round); the
// trigger columns show what drove the rounds.

#include <algorithm>
#include <string>

#include "bench/common.hpp"

int main(int argc, char** argv) {
  hp::util::Cli cli(argc, argv, hp::bench::common_flags());
  const bool full = cli.get_bool("full", false);
  const std::int32_t n = full ? 64 : 32;
  constexpr std::uint32_t kPes = 2;

  hp::util::Table table({"gvt_interval", "effective", "events_per_s",
                         "gvt_rounds", "trig_progress", "trig_idle",
                         "rolled_back", "pool_envelopes", "identical"});
  hp::core::SimulationResult ref;
  bool have_ref = false;
  // Ceilings from two to sixteen times the LPs per PE. At n = 32 no ceiling
  // from 32 to 512 was ever held: all ran at an effective interval of
  // 26-34, the controller's floor. Higher ceilings usually hold, but a run
  // can still sink to the floor (1024 in 6 of 15 runs, 2048 in 3 of 16,
  // 4096 in 1 of 16, 8192 in none); the effective column shows which did.
  const std::uint32_t lps_per_pe = static_cast<std::uint32_t>(n * n) / kPes;
  for (const std::uint32_t mult : {2u, 4u, 8u, 16u}) {
    const std::uint32_t interval = mult * lps_per_pe;
    auto o = hp::bench::tw_options(n, 0.5, kPes, 64);
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
    // Effective interval: forward executions per PE per GVT round, what the
    // controller actually held under this ceiling.
    const double effective =
        static_cast<double>(r.engine.processed_events()) /
        (kPes * static_cast<double>(std::max<std::uint64_t>(
                    1, r.engine.gvt_rounds())));
    table.add_row({static_cast<std::int64_t>(interval), effective,
                   r.engine.event_rate(), r.engine.gvt_rounds(), r.engine.gvt_progress_triggers(),
                   r.engine.gvt_idle_triggers(), r.engine.rolled_back_events(),
                   r.engine.pool_envelopes(), "yes"});
  }
  hp::bench::finish(table, cli,
                    "Ablation: GVT interval ceiling under commit-yield "
                    "pacing (identical results at every ceiling)");
  return 0;
}
