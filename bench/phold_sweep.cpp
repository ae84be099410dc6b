// PHOLD kernel characterization (the standard PDES benchmark the ROSS
// literature reports): committed event rate and rollback behaviour versus
// the remote-traffic fraction and lookahead, independent of the hot-potato
// application. Remote events are the straggler source; lookahead bounds how
// far an early message can land in a peer's past. The avg_batch column
// shows the remote-path send batching (envelopes per inbox push). Every
// Time Warp row must commit the same events and reach the same model digest
// as its cell's sequential row, or the sweep exits 1.

#include <algorithm>
#include <string>

#include "bench/common.hpp"
#include "des/phold.hpp"
#include "des/sequential.hpp"
#include "des/timewarp.hpp"

int main(int argc, char** argv) {
  hp::util::Cli cli(argc, argv, hp::bench::common_flags());
  const bool full = cli.get_bool("full", false);
  const std::uint32_t lps = full ? 1024 : 256;
  const double end = full ? 200.0 : 100.0;

  hp::util::Table table({"remote_%", "lookahead", "kernel", "events_per_s",
                         "rolled_back", "efficiency", "gvt_rounds",
                         "avg_batch"});
  std::vector<hp::obs::MetricsReport> metrics;
  double best_seq = 0.0, best_tw = 0.0;
  // GVT phase time accumulated over every 4-PE run, a headline perf-smoke
  // tracks.
  double gvt_phase_ns = 0.0;
  for (const double remote : {0.0, 0.1, 0.5, 1.0}) {
    for (const double lookahead : {0.5, 0.05}) {
      hp::des::PholdConfig pc;
      pc.num_lps = lps;
      pc.remote_fraction = remote;
      pc.lookahead = lookahead;

      hp::des::EngineConfig ec;
      ec.num_lps = lps;
      ec.end_time = end;
      // --telemetry / --metrics-out apply to every run of the sweep; the
      // exposition file ends up holding the last run's final snapshot, which
      // is what the CI Prometheus smoke greps.
      hp::bench::apply_telemetry_flags(cli, ec);
      std::uint64_t seq_committed = 0;
      std::uint64_t seq_digest = 0;
      {
        hp::des::PholdModel model(pc);
        hp::des::SequentialEngine seq(model, ec);
        auto s = seq.run();
        seq_committed = s.committed_events();
        seq_digest = hp::des::PholdModel::digest(seq);
        table.add_row({100.0 * remote, lookahead, "sequential",
                       s.event_rate(), std::uint64_t{0}, 1.0,
                       std::uint64_t{0}, 0.0});
        best_seq = std::max(best_seq, s.event_rate());
        metrics.push_back(std::move(s.metrics));
      }
      for (const std::uint32_t pes : {2u, 4u}) {
        auto tc = ec;
        tc.num_pes = pes;
        tc.num_kps = 32;
        tc.gvt_interval_events = 1024;
        tc.optimism_window = 10.0 * pc.mean_delay;
        hp::des::PholdModel model(pc);
        hp::des::TimeWarpEngine tw(model, tc);
        auto t = tw.run();
        if (!hp::bench::same_workload(
                "phold_sweep",
                "remote=" + std::to_string(remote) + " lookahead=" +
                    std::to_string(lookahead) + " " + std::to_string(pes) +
                    "pe row",
                t.committed_events(), seq_committed,
                hp::des::PholdModel::digest(tw) == seq_digest)) {
          return 1;
        }
        table.add_row({100.0 * remote, lookahead,
                       "timewarp-" + std::to_string(pes) + "pe",
                       t.event_rate(), t.rolled_back_events(), t.efficiency(),
                       t.gvt_rounds(), t.avg_inbox_batch()});
        best_tw = std::max(best_tw, t.event_rate());
        if (pes == 4) {
          gvt_phase_ns += static_cast<double>(
              t.metrics.total.ns(hp::obs::Phase::GvtBarrier));
        }
        metrics.push_back(std::move(t.metrics));
      }
    }
  }
  // Best observed rates become the headline the perf-smoke CI job diffs
  // against the committed BENCH_phold_sweep.json baseline.
  // gvt_barrier_phase_ns is the 4-PE GVT phase time (lower is better;
  // perf_delta.py inverts the sign convention on the _ns suffix).
  const std::map<std::string, double> headline = {
      {"events_per_s", best_seq},
      {"timewarp_events_per_s", best_tw},
      {"gvt_barrier_phase_ns", gvt_phase_ns}};
  hp::bench::finish(table, cli,
                    "PHOLD sweep: rollback pressure rises with remote "
                    "fraction and falls with lookahead",
                    metrics, {}, headline);
  return 0;
}
