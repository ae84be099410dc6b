// Ablation (report Section 3.2.1): reverse computation versus classic
// state saving as the rollback mechanism. ROSS's thesis — reverse
// computation trades per-event copying for cheap inverse handlers — shows
// up as a higher event rate and far less memory traffic in rollback-heavy
// configurations.

#include "bench/common.hpp"

#include <string>
#include <vector>

int main(int argc, char** argv) {
  hp::util::Cli cli(argc, argv, hp::bench::common_flags());
  const bool full = cli.get_bool("full", false);
  const std::vector<std::int32_t> sizes =
      full ? std::vector<std::int32_t>{16, 32, 64}
           : std::vector<std::int32_t>{16, 32};

  hp::util::Table table({"N", "rollback_mechanism", "events_per_s",
                         "rolled_back", "identical_results"});
  for (const std::int32_t n : sizes) {
    hp::core::SimulationResult ref;
    for (const bool state_saving : {false, true}) {
      auto o = hp::bench::tw_options(n, 0.5, 2, 64);
      o.engine.state_saving = state_saving;
      const auto r = hp::core::run_hotpotato(o);
      if (!state_saving) ref = r;
      const char* mechanism =
          state_saving ? "state saving" : "reverse computation";
      if (!hp::bench::same_workload(
              "ablation_state_saving",
              "N=" + std::to_string(n) + " " + mechanism + " row",
              r.engine.committed_events(), ref.engine.committed_events(),
              r.report == ref.report)) {
        return 1;
      }
      table.add_row({static_cast<std::int64_t>(n), mechanism,
                     r.engine.event_rate(), r.engine.rolled_back_events(),
                     state_saving ? "yes" : "-"});
    }
  }
  hp::bench::finish(table, cli,
                    "Ablation: reverse computation vs state saving "
                    "(expect reverse computation to sustain a higher event "
                    "rate; results must stay bit-identical)");
  return 0;
}
