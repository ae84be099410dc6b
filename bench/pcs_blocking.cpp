// PCS network study (report references [4]/[6]: the PCS simulation that
// pioneered the ROSS methodology this report reuses): Erlang-style call
// blocking and handoff drop probability versus channel provisioning, plus
// the Time Warp determinism column. A second full model on the same engine,
// with a very different profile from hot-potato routing (self-traffic heavy,
// counter contention rather than link contention).

#include "bench/common.hpp"
#include "des/sequential.hpp"
#include "des/timewarp.hpp"
#include "pcs/pcs_model.hpp"

#include <string>

int main(int argc, char** argv) {
  hp::util::Cli cli(argc, argv, hp::bench::common_flags());
  const bool full = cli.get_bool("full", false);
  const std::int32_t n = full ? 16 : 8;
  const double end = full ? 5000.0 : 2000.0;

  hp::util::Table table({"channels", "offered_load", "blocking_%",
                         "handoff_drop_%", "mean_call", "tw_identical"});
  for (const std::uint32_t channels : {2u, 4u, 8u, 16u}) {
    hp::pcs::PcsConfig pc;
    pc.n = n;
    pc.channels_per_cell = channels;
    pc.mean_idle = 20.0;

    hp::des::EngineConfig ec;
    ec.num_lps = pc.num_cells();
    ec.end_time = end;

    hp::pcs::PcsModel m1(pc);
    hp::des::SequentialEngine seq(m1, ec);
    const std::uint64_t seq_committed = seq.run().committed_events();
    const auto sr = hp::pcs::PcsModel::collect(seq);

    auto tc = ec;
    tc.num_pes = 2;
    tc.num_kps = 16;
    tc.gvt_interval_events = 1024;
    hp::pcs::PcsModel m2(pc);
    hp::des::TimeWarpEngine tw(m2, tc);
    const std::uint64_t tw_committed = tw.run().committed_events();
    const auto tr = hp::pcs::PcsModel::collect(tw);
    if (!hp::bench::same_workload(
            "pcs_blocking",
            "channels=" + std::to_string(channels) + " Time Warp row",
            tw_committed, seq_committed, sr == tr)) {
      return 1;
    }

    // Offered load per cell in Erlangs: portables * call / (call + idle).
    const double erlangs = pc.portables_per_cell * pc.mean_call /
                           (pc.mean_call + pc.mean_idle);
    table.add_row({static_cast<std::int64_t>(channels), erlangs,
                   100.0 * sr.blocking_probability(),
                   100.0 * sr.handoff_drop_probability(), sr.mean_call_time(),
                   "yes"});
  }
  hp::bench::finish(table, cli,
                    "PCS network (report refs [4]/[6]): blocking vs channel "
                    "provisioning at fixed offered load");
  return 0;
}
