// Figure 5 — "Parallel Speed-Up": committed event rate versus network
// diameter for 1, 2 and 4 PEs. The report (on a quad-CPU PC server) shows
// the 4-PE run approaching 4x for ~1024 LPs and ~2x for the largest
// networks. On a host with fewer cores than PEs the parallel rows measure
// Time Warp overhead instead of speed-up; the harness reports the core
// count so the reader can judge.
//
// Every row of one N runs the same workload (steps_for(n) steps): the 1-PE
// row on the sequential kernel, the others on Time Warp. A row whose
// committed-event count differs from the sequential row's is not a
// speed-up measurement, so the harness exits non-zero instead.

#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"

int main(int argc, char** argv) {
  hp::util::Cli cli(argc, argv, hp::bench::common_flags());
  const bool full = cli.get_bool("full", false);
  const auto scale = full ? hp::bench::full_scale() : hp::bench::quick_scale();
  std::vector<std::int32_t> sizes;
  for (const std::int32_t n : scale.sizes) {
    if (n >= 16) sizes.push_back(n);  // report sweeps N = 16..256
  }

  hp::util::Table table(
      {"N", "LPs", "PEs", "events_per_s", "committed", "rolled_back"});
  std::vector<hp::obs::MetricsReport> metrics;
  for (const std::int32_t n : sizes) {
    std::uint64_t ref_committed = 0;
    for (const std::uint32_t pes : scale.pe_counts) {
      auto o = hp::bench::tw_options(n, 0.5, pes, 64);
      if (pes == 1) {
        o.kernel = hp::core::Kernel::Sequential;
      } else {
        hp::bench::apply_monitor_flags(cli, o.engine);
      }
      hp::core::SimulationResult r = hp::core::run_hotpotato(o);
      const std::uint64_t committed = r.engine.committed_events();
      if (pes == scale.pe_counts.front()) ref_committed = committed;
      if (!hp::bench::same_workload(
              "fig5_speedup",
              "N=" + std::to_string(n) + " " + std::to_string(pes) + "-PE row",
              committed, ref_committed)) {
        return 1;
      }
      table.add_row({static_cast<std::int64_t>(n),
                     static_cast<std::int64_t>(n) * n,
                     static_cast<std::int64_t>(pes), r.engine.event_rate(),
                     r.engine.committed_events(),
                     r.engine.rolled_back_events()});
      metrics.push_back(std::move(r.engine.metrics));
    }
  }
  hp::bench::finish(
      table, cli,
      "Figure 5: parallel speed-up (event rate vs N for 1/2/4 PEs) — host "
      "has " +
          std::to_string(std::thread::hardware_concurrency()) +
          " hardware thread(s); speed-up requires PEs <= cores",
      metrics);
  return 0;
}
