// Figure 6 — "Efficiency (Speed-Up / #PE)": the Fig. 5 sweep normalized by
// PE count. The report shows near-linear efficiency (~1) for small networks
// dropping to ~0.5 for the largest.
//
// As in fig5_speedup, every row of one N runs the same workload
// (steps_for(n) steps; the 1-PE row on the sequential kernel): a row whose
// committed-event count differs from the sequential row's makes its
// speed-up meaningless, so the harness exits non-zero instead.

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
    if (n >= 16) sizes.push_back(n);
  }

  hp::util::Table table({"N", "PEs", "speedup", "efficiency"});
  for (const std::int32_t n : sizes) {
    auto base = hp::bench::tw_options(n, 0.5, 1, 64);
    base.kernel = hp::core::Kernel::Sequential;
    const hp::des::RunStats seq = hp::core::run_hotpotato(base).engine;
    const double seq_rate = seq.event_rate();
    for (const std::uint32_t pes : scale.pe_counts) {
      double rate = seq_rate;
      if (pes != 1) {
        auto o = hp::bench::tw_options(n, 0.5, pes, 64);
        hp::bench::apply_monitor_flags(cli, o.engine);
        const hp::des::RunStats tw = hp::core::run_hotpotato(o).engine;
        if (!hp::bench::same_workload("fig6_efficiency",
                                      "N=" + std::to_string(n) + " " +
                                          std::to_string(pes) + "-PE row",
                                      tw.committed_events(),
                                      seq.committed_events())) {
          return 1;
        }
        rate = tw.event_rate();
      }
      const double speedup = rate / seq_rate;
      table.add_row({static_cast<std::int64_t>(n),
                     static_cast<std::int64_t>(pes), speedup,
                     speedup / static_cast<double>(pes)});
    }
  }
  hp::bench::finish(
      table, cli,
      "Figure 6: efficiency = speed-up / #PE vs N — host has " +
          std::to_string(std::thread::hardware_concurrency()) +
          " hardware thread(s); values are meaningful only when PEs <= cores");
  return 0;
}
