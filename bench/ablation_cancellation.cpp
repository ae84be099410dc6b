// Ablation: aggressive vs lazy cancellation. Aggressive (the ROSS default)
// cancels a rolled-back event's children immediately; lazy keeps them alive
// and lets a re-execution adopt bit-identical re-sends, so unchanged
// subtrees survive the rollback. The win depends on how often a straggler
// actually changes the decision: hot-potato routing decisions depend on
// contended link state, so re-sends often differ; the reuse column
// quantifies how much survives anyway.

#include "bench/common.hpp"

#include <string>
#include <vector>

int main(int argc, char** argv) {
  hp::util::Cli cli(argc, argv, hp::bench::common_flags());
  const bool full = cli.get_bool("full", false);
  const std::vector<std::int32_t> sizes =
      full ? std::vector<std::int32_t>{16, 32, 64}
           : std::vector<std::int32_t>{16, 32};

  hp::util::Table table({"N", "cancellation", "events_per_s", "rolled_back",
                         "anti_messages", "lazy_reused", "identical"});
  for (const std::int32_t n : sizes) {
    hp::core::SimulationResult ref;
    for (const bool lazy : {false, true}) {
      auto o = hp::bench::tw_options(n, 0.5, 2, 64);
      o.engine.cancellation = lazy ? hp::des::EngineConfig::Cancellation::Lazy
                            : hp::des::EngineConfig::Cancellation::Aggressive;
      const auto r = hp::core::run_hotpotato(o);
      if (!lazy) ref = r;
      const char* mode = lazy ? "lazy" : "aggressive (ROSS)";
      if (!hp::bench::same_workload(
              "ablation_cancellation",
              "N=" + std::to_string(n) + " " + mode + " row",
              r.engine.committed_events(), ref.engine.committed_events(),
              r.report == ref.report)) {
        return 1;
      }
      table.add_row({static_cast<std::int64_t>(n), mode,
                     r.engine.event_rate(), r.engine.rolled_back_events(),
                     r.engine.anti_messages(), r.engine.lazy_reused(),
                     lazy ? "yes" : "-"});
    }
  }
  hp::bench::finish(table, cli,
                    "Ablation: aggressive vs lazy cancellation (identical "
                    "results; lazy_reused children kept their subtrees)");
  return 0;
}
