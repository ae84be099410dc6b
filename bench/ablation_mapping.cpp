// Ablation (report Section 3.2.3): LP->KP->PE mapping locality. The report
// argues that assigning adjacent LPs to the same KP and adjacent KPs to the
// same PE minimizes inter-PE and inter-KP communication; random assignment
// is the worst case (nearly every routed packet crosses a PE boundary, so
// stragglers and rollbacks multiply). Block and linear mappings both produce
// contiguous PE regions on a torus (bands vs blocks); the random mapping is
// the true antagonist. The mapping is static: a KP stays on its PE for the
// whole run.

#include "bench/common.hpp"
#include "des/sequential.hpp"
#include "des/timewarp.hpp"
#include "hotpotato/model.hpp"
#include "net/mapping.hpp"

#include <memory>
#include <string>
#include <vector>

namespace {

struct MappingRun {
  const char* name;
  std::unique_ptr<hp::net::Mapping> mapping;
};

}  // namespace

int main(int argc, char** argv) {
  hp::util::Cli cli(argc, argv, hp::bench::common_flags());
  const bool full = cli.get_bool("full", false);
  const std::vector<std::int32_t> sizes =
      full ? std::vector<std::int32_t>{16, 32, 64}
           : std::vector<std::int32_t>{16, 32};
  constexpr std::uint32_t kPes = 2;
  constexpr std::uint32_t kKps = 64;

  hp::util::Table table({"N", "mapping", "inter_pe_link_%", "wall_s",
                         "events_per_s", "rolled_back", "anti_messages",
                         "identical"});

  for (const std::int32_t n : sizes) {
    const auto nn =
        static_cast<std::uint32_t>(n) * static_cast<std::uint32_t>(n);
    hp::hotpotato::HotPotatoConfig mcfg;
    mcfg.n = n;
    mcfg.injector_fraction = 0.5;
    mcfg.steps = static_cast<std::uint32_t>(2 * n);
    hp::hotpotato::BhwPolicy policy(n);
    mcfg.policy = &policy;

    hp::des::EngineConfig ecfg;
    ecfg.num_lps = nn;
    ecfg.end_time = mcfg.end_time();
    ecfg.seed = 1;

    hp::hotpotato::HotPotatoModel ref_model(mcfg);
    hp::des::SequentialEngine seq(ref_model, ecfg);
    const std::uint64_t ref_committed = seq.run().committed_events();
    const auto ref = hp::hotpotato::collect_report(seq, mcfg.steps);

    std::vector<MappingRun> runs;
    runs.push_back({"block (report)",
                    std::make_unique<hp::net::BlockMapping>(n, kKps, kPes)});
    runs.push_back({"linear stripes",
                    std::make_unique<hp::net::LinearMapping>(nn, kKps, kPes)});
    runs.push_back(
        {"random (worst case)",
         std::make_unique<hp::net::RandomMapping>(nn, kKps, kPes, 7)});
    for (auto& run : runs) {
      auto cfg = ecfg;
      cfg.num_pes = kPes;
      cfg.num_kps = kKps;
      cfg.gvt_interval_events = 1024;
      cfg.optimism_window = 30.0;
      cfg.mapping = run.mapping.get();
      hp::hotpotato::HotPotatoModel model(mcfg);
      hp::des::TimeWarpEngine eng(model, cfg);
      const auto stats = eng.run();
      const auto report = hp::hotpotato::collect_report(eng, mcfg.steps);
      if (!hp::bench::same_workload(
              "ablation_mapping",
              "N=" + std::to_string(n) + " " + run.name + " row",
              stats.committed_events(), ref_committed, report == ref)) {
        return 1;
      }
      table.add_row({static_cast<std::int64_t>(n), run.name,
                     100.0 * hp::net::inter_pe_link_fraction(*run.mapping, n),
                     stats.wall_seconds(), stats.event_rate(),
                     stats.rolled_back_events(), stats.anti_messages(),
                     "yes"});
    }
  }

  hp::bench::finish(table, cli,
                    "Ablation: LP->KP->PE mapping locality (random placement "
                    "puts ~49% of torus links across PEs; rollback and "
                    "anti-message counts vary run to run)");
  return 0;
}
