// Ablation (report Section 3.2.3): LP->KP->PE mapping locality. The report
// argues that assigning adjacent LPs to the same KP and adjacent KPs to the
// same PE minimizes inter-PE and inter-KP communication; random assignment
// is the worst case (nearly every routed packet crosses a PE boundary, so
// stragglers and rollbacks multiply). Block and linear mappings both produce
// contiguous PE regions on a torus (bands vs blocks); the random mapping is
// the true antagonist.
//
// The second scenario measures what a *static* mapping cannot fix: hotspot
// traffic. A quarter of all packets aim at four fixed routers; pinning the
// four hotspot KPs onto one PE is the adversarial static placement (that PE
// lags in virtual time, every other PE races ahead and gets rolled back by
// its stragglers). Arming the runtime KP balancer on the same bad initial
// placement must claw the wall-clock time back by re-homing the hot KPs —
// the rollback waste, not parallelism, is what it removes, so the win shows
// even on a single core.

#include "bench/common.hpp"
#include "des/sequential.hpp"
#include "des/timewarp.hpp"
#include "hotpotato/model.hpp"
#include "hotpotato/traffic.hpp"
#include "net/grid.hpp"
#include "net/mapping.hpp"

#include <memory>
#include <string>
#include <vector>

namespace {

struct MappingRun {
  const char* name;
  std::unique_ptr<hp::net::Mapping> mapping;
  bool migrate = false;
};

// Block LP->KP assignment with the KP->PE placement sabotaged: every KP
// hosting a hotspot router is pinned to PE 0 (the other KPs keep their
// block placement). The hotspot coordinates mirror traffic.cpp's quarter
// points — a change there shifts which KPs get pinned, nothing more.
class HotspotPinnedMapping final : public hp::net::Mapping {
 public:
  HotspotPinnedMapping(std::int32_t n, std::uint32_t num_kps,
                       std::uint32_t num_pes)
      : block_(n, num_kps, num_pes) {
    kp_pe_.resize(block_.num_kps());
    for (std::uint32_t kp = 0; kp < block_.num_kps(); ++kp) {
      kp_pe_[kp] = block_.pe_of_kp(kp);
    }
    const hp::net::Grid g(n, hp::net::GridKind::Torus);
    const std::int32_t q = n / 4;
    const hp::net::Coord spots[hp::hotpotato::kNumHotspots] = {
        {q, q}, {q, 3 * q}, {3 * q, q}, {3 * q, 3 * q}};
    for (const hp::net::Coord& c : spots) {
      kp_pe_[block_.kp_of(g.id_of(c))] = 0;
    }
  }

  std::uint32_t num_lps() const noexcept override { return block_.num_lps(); }
  std::uint32_t num_kps() const noexcept override { return block_.num_kps(); }
  std::uint32_t num_pes() const noexcept override { return block_.num_pes(); }
  std::uint32_t kp_of(std::uint32_t lp) const noexcept override {
    return block_.kp_of(lp);
  }
  std::uint32_t pe_of_kp(std::uint32_t kp) const noexcept override {
    return kp_pe_[kp];
  }

 private:
  hp::net::BlockMapping block_;
  std::vector<std::uint32_t> kp_pe_;
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

  hp::util::Table table({"N", "traffic", "mapping", "inter_pe_link_%",
                         "wall_s", "events_per_s", "rolled_back",
                         "anti_messages", "kp_migrations", "identical"});

  // Scenario 1: mapping locality under uniform traffic (report figure).
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
              "N=" + std::to_string(n) + " uniform " + run.name + " row",
              stats.committed_events(), ref_committed, report == ref)) {
        return 1;
      }
      table.add_row({static_cast<std::int64_t>(n), "uniform", run.name,
                     100.0 * hp::net::inter_pe_link_fraction(*run.mapping, n),
                     stats.wall_seconds(), stats.event_rate(),
                     stats.rolled_back_events(), stats.anti_messages(),
                     stats.kp_migrations(), "yes"});
    }
  }

  // Scenario 2: hotspot traffic vs static-vs-dynamic placement. Pinning the
  // hotspot KPs on PE 0 is the worst static block mapping; the same initial
  // placement plus the runtime balancer must beat it on wall clock.
  const std::int32_t skew_n = full ? 32 : 24;
  double wall_pinned = 0.0, wall_migrated = 0.0;
  {
    const auto nn = static_cast<std::uint32_t>(skew_n) *
                    static_cast<std::uint32_t>(skew_n);
    hp::hotpotato::HotPotatoConfig mcfg;
    mcfg.n = skew_n;
    mcfg.injector_fraction = 0.75;
    mcfg.steps = static_cast<std::uint32_t>(4 * skew_n);
    mcfg.traffic = hp::hotpotato::TrafficPattern::Hotspot;
    hp::hotpotato::BhwPolicy policy(skew_n);
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
    runs.push_back(
        {"block (balanced)",
         std::make_unique<hp::net::BlockMapping>(skew_n, kKps, kPes)});
    runs.push_back(
        {"block (hotspots pinned)",
         std::make_unique<HotspotPinnedMapping>(skew_n, kKps, kPes)});
    runs.push_back(
        {"hotspots pinned + migrate",
         std::make_unique<HotspotPinnedMapping>(skew_n, kKps, kPes), true});
    for (auto& run : runs) {
      auto cfg = ecfg;
      cfg.num_pes = kPes;
      cfg.num_kps = kKps;
      cfg.gvt_interval_events = 1024;
      cfg.optimism_window = 30.0;
      cfg.mapping = run.mapping.get();
      if (run.migrate) {
        std::string err;
        const bool ok = hp::des::MigrationConfig::parse(
            "every=4,imbalance=1.5,max=1", cfg.migration, err);
        HP_ASSERT(ok, "migration spec: %s", err.c_str());
      }
      hp::hotpotato::HotPotatoModel model(mcfg);
      hp::des::TimeWarpEngine eng(model, cfg);
      const auto stats = eng.run();
      const auto report = hp::hotpotato::collect_report(eng, mcfg.steps);
      if (!hp::bench::same_workload(
              "ablation_mapping",
              "N=" + std::to_string(skew_n) + " hotspot " + run.name + " row",
              stats.committed_events(), ref_committed, report == ref)) {
        return 1;
      }
      if (run.migrate) {
        wall_migrated = stats.wall_seconds();
      } else if (std::string(run.name) == "block (hotspots pinned)") {
        wall_pinned = stats.wall_seconds();
      }
      table.add_row(
          {static_cast<std::int64_t>(skew_n), "hotspot", run.name,
           100.0 * hp::net::inter_pe_link_fraction(*run.mapping, skew_n),
           stats.wall_seconds(), stats.event_rate(),
           stats.rolled_back_events(), stats.anti_messages(),
           stats.kp_migrations(), "yes"});
    }
  }

  hp::bench::finish(table, cli,
                    "Ablation: LP->KP->PE mapping locality (uniform traffic: "
                    "random placement multiplies rollbacks; hotspot traffic: "
                    "runtime KP migration beats the worst static placement)");
  std::printf("\nskewed-traffic verdict: pinned=%.3fs pinned+migrate=%.3fs "
              "-> dynamic %s the worst static mapping\n",
              wall_pinned, wall_migrated,
              wall_migrated < wall_pinned ? "beats" : "DOES NOT beat");
  return 0;
}
