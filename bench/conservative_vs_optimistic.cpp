// The classic PDES synchronization comparison: conservative (bounded-window,
// zero rollback, parallelism capped by the model's lookahead) versus
// optimistic Time Warp (lookahead-free, pays in rolled-back work). PHOLD
// makes the trade-off dial-able: with generous lookahead the conservative
// kernel does no wasted work; as the lookahead shrinks its windows (and
// parallelism per barrier) collapse, while Time Warp's throughput is nearly
// lookahead-insensitive. The hot-potato rows show a real model (lookahead
// fixed at 4.0 by the step structure).

#include "bench/common.hpp"
#include "des/conservative.hpp"
#include "des/phold.hpp"
#include "des/sequential.hpp"
#include "des/timewarp.hpp"
#include "hotpotato/packet.hpp"

#include <string>

int main(int argc, char** argv) {
  hp::util::Cli cli(argc, argv, hp::bench::common_flags());
  const bool full = cli.get_bool("full", false);

  hp::util::Table table({"model", "lookahead", "kernel", "events_per_s",
                         "sync_rounds", "rolled_back", "identical"});

  // PHOLD with the lookahead dialed from generous to stingy.
  const std::uint32_t lps = full ? 512 : 256;
  for (const double lookahead : {0.5, 0.1, 0.02}) {
    hp::des::PholdConfig pc;
    pc.num_lps = lps;
    pc.remote_fraction = 0.5;
    pc.lookahead = lookahead;
    hp::des::EngineConfig ec;
    ec.num_lps = lps;
    ec.end_time = full ? 150.0 : 80.0;

    hp::des::PholdModel m0(pc);
    hp::des::SequentialEngine seq(m0, ec);
    const auto s = seq.run();
    const auto sdigest = hp::des::PholdModel::digest(seq);
    table.add_row({"phold", lookahead, "sequential", s.event_rate(),
                   std::uint64_t{0}, std::uint64_t{0}, "-"});

    auto cc = ec;
    cc.num_pes = 2;
    hp::des::PholdModel m1(pc);
    hp::des::ConservativeEngine cons(m1, cc, lookahead);
    const auto c = cons.run();
    const std::string row = "phold lookahead=" + std::to_string(lookahead);
    if (!hp::bench::same_workload(
            "conservative_vs_optimistic", row + " conservative-2pe row",
            c.committed_events(), s.committed_events(),
            hp::des::PholdModel::digest(cons) == sdigest)) {
      return 1;
    }
    table.add_row({"phold", lookahead, "conservative-2pe", c.event_rate(),
                   c.gvt_rounds(), std::uint64_t{0}, "yes"});

    auto tc = ec;
    tc.num_pes = 2;
    tc.num_kps = 32;
    tc.gvt_interval_events = 1024;
    tc.optimism_window = 20.0 * pc.mean_delay;
    hp::des::PholdModel m2(pc);
    hp::des::TimeWarpEngine tw(m2, tc);
    const auto t = tw.run();
    if (!hp::bench::same_workload(
            "conservative_vs_optimistic", row + " timewarp-2pe row",
            t.committed_events(), s.committed_events(),
            hp::des::PholdModel::digest(tw) == sdigest)) {
      return 1;
    }
    table.add_row({"phold", lookahead, "timewarp-2pe", t.event_rate(),
                   t.gvt_rounds(), t.rolled_back_events(), "yes"});
  }

  // Hot-potato: fixed lookahead from the synchronous step structure.
  {
    const std::int32_t n = full ? 32 : 16;
    hp::core::SimulationOptions o;
    o.model.n = n;
    o.model.injector_fraction = 0.5;
    o.model.steps = static_cast<std::uint32_t>(2 * n);
    const auto seq = hp::core::run_hotpotato(o);
    table.add_row({"hotpotato", hp::hotpotato::kCrossLpLookahead, "sequential",
                   seq.engine.event_rate(), std::uint64_t{0}, std::uint64_t{0},
                   "-"});
    for (const hp::core::Kernel k :
         {hp::core::Kernel::Conservative, hp::core::Kernel::TimeWarp}) {
      auto p = o;
      p.kernel = k;
      p.engine.num_pes = 2;
      p.engine.num_kps = 64;
      p.engine.optimism_window = 30.0;
      const auto r = hp::core::run_hotpotato(p);
      const std::string kernel = std::string(hp::core::kernel_name(k)) + "-2pe";
      if (!hp::bench::same_workload(
              "conservative_vs_optimistic", "hotpotato " + kernel + " row",
              r.engine.committed_events(), seq.engine.committed_events(),
              r.report == seq.report)) {
        return 1;
      }
      table.add_row({"hotpotato", hp::hotpotato::kCrossLpLookahead, kernel,
                     r.engine.event_rate(), r.engine.gvt_rounds(),
                     r.engine.rolled_back_events(), "yes"});
    }
  }

  hp::bench::finish(table, cli,
                    "Conservative (bounded-window) vs optimistic (Time Warp) "
                    "synchronization — conservative throughput tracks the "
                    "lookahead; Time Warp pays in rollbacks instead");
  return 0;
}
