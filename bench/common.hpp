#pragma once

// Shared scaffolding for the figure-reproduction harnesses. Every binary
// prints the same rows the paper's figure plots, as an aligned table and
// (with --csv=...) as CSV. Default "quick" scales run in seconds on a
// laptop; --full reproduces the paper-scale sweeps (minutes to hours).

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "obs/metrics.hpp"
#include "obs/model_channel.hpp"
#include "util/cli.hpp"
#include "util/macros.hpp"
#include "util/json_writer.hpp"
#include "util/table.hpp"

namespace hp::bench {

struct FigureScale {
  std::vector<std::int32_t> sizes;        // torus dimensions N
  std::vector<double> loads;              // injector fractions
  std::vector<std::uint32_t> kp_counts;   // Fig 7/8 sweeps
  std::vector<std::uint32_t> pe_counts;   // Fig 5/6 sweeps
};

inline FigureScale quick_scale() {
  return {{8, 16, 24, 32, 48, 64},
          {0.25, 0.50, 0.75, 1.00},
          {4, 8, 16, 32, 64, 128},
          {1, 2, 4}};
}

// The report's sweeps: N up to 256 (65,536 LPs), KPs 4..256, PEs 1/2/4.
inline FigureScale full_scale() {
  return {{8, 16, 32, 64, 96, 128, 192, 256},
          {0.25, 0.50, 0.75, 1.00},
          {4, 8, 16, 32, 64, 128, 256},
          {1, 2, 4}};
}

// Steps scale with N so every configuration reaches delivery steady state
// (delivery time is O(N)).
inline std::uint32_t steps_for(std::int32_t n) {
  return static_cast<std::uint32_t>(4 * n);
}

inline core::SimulationOptions tw_options(std::int32_t n, double load,
                                          std::uint32_t pes,
                                          std::uint32_t kps) {
  core::SimulationOptions o;
  o.model.n = n;
  o.model.injector_fraction = load;
  // Same step budget as the sequential-figure benches (fig3/fig4/baseline):
  // steps_for reaches delivery steady state, so the Fig. 5/6/7/8 Time Warp
  // sweeps measure the same workload as the sequential curves.
  o.model.steps = steps_for(n);
  o.kernel = core::Kernel::TimeWarp;
  o.engine.num_pes = pes;
  o.engine.num_kps = kps;
  o.engine.gvt_interval_events = 1024;
  // Moving window keeps optimism sane when PEs outnumber cores; see
  // EXPERIMENTS.md for the effect on absolute rates.
  o.engine.optimism_window = 30.0;
  return o;
}

// Same-workload gate for harnesses that compare rows. A row whose committed
// event count differs from its reference row's, or whose model results are
// not identical to them, ran a different workload, and a rate or ratio
// between the two measures nothing. Prints what differs to stderr and
// returns false; the harness then exits 1 (fail, don't warn).
inline bool same_workload(const char* bench, const std::string& row,
                          std::uint64_t committed, std::uint64_t ref_committed,
                          bool identical_results = true) {
  if (committed == ref_committed && identical_results) return true;
  std::fprintf(stderr,
               "%s: %s ran a different workload than its reference row: "
               "committed %llu vs %llu events%s\n",
               bench, row.c_str(), static_cast<unsigned long long>(committed),
               static_cast<unsigned long long>(ref_committed),
               identical_results ? "" : ", model results differ");
  return false;
}

// Applies the shared --monitor[=interval] / --monitor-out=path flags to an
// engine config. Bare --monitor means every GVT round; --monitor=N emits one
// heartbeat per N rounds; without --monitor-out the stream goes to stderr.
// Only the Time Warp kernel emits heartbeats; the flag is harmless elsewhere.
inline void apply_monitor_flags(const util::Cli& cli, des::EngineConfig& cfg) {
  if (!cli.has("monitor")) return;
  cfg.obs.monitor = true;
  const std::int64_t interval = cli.get_int("monitor", 1);
  if (interval <= 0) {
    cli.usage_error("--monitor expects a positive interval, got " +
                    std::to_string(interval));
  }
  cfg.obs.monitor_interval = static_cast<std::uint32_t>(interval);
  cfg.obs.monitor_path = cli.get("monitor-out", "");
}

// Applies the shared --telemetry / --metrics-endpoint=<port|unix:path> /
// --metrics-out=FILE flags. Bare --telemetry records latency histograms into
// the final report; an endpoint or output file implies --telemetry and adds
// live Prometheus exposition (a loopback/unix listener, or a periodically
// rewritten text file for socket-less CI). Works on every kernel.
inline void apply_telemetry_flags(const util::Cli& cli,
                                  des::EngineConfig& cfg) {
  if (cli.has("telemetry")) cfg.obs.telemetry = true;
  if (cli.has("metrics-endpoint")) {
    cfg.obs.metrics_endpoint = cli.get("metrics-endpoint", "");
    if (cfg.obs.metrics_endpoint.empty()) {
      cli.usage_error("--metrics-endpoint expects <port> or unix:<path>");
    }
  }
  if (cli.has("metrics-out")) {
    cfg.obs.metrics_out = cli.get("metrics-out", "");
    if (cfg.obs.metrics_out.empty()) {
      cli.usage_error("--metrics-out expects a file path");
    }
  }
}

// Applies the shared --chaos=<spec> flag (deterministic fault injection on
// the Time Warp remote path; see des/fault.hpp for the grammar). A
// malformed spec is a usage error. Returns true when a plan was armed so
// harnesses can restrict it to their Time Warp runs.
inline bool apply_chaos_flags(const util::Cli& cli, des::EngineConfig& cfg) {
  if (!cli.has("chaos")) return false;
  std::string err;
  if (!des::FaultPlan::parse(cli.get("chaos", ""), cfg.fault, err)) {
    cli.usage_error("--chaos: " + err);
  }
  return cfg.fault.any();
}

// Applies the shared --fc=<spec> flag (buffered flow-control scheme
// selection; see buffered/flow_control.hpp for the grammar). A malformed
// spec is a usage error.
inline void apply_fc_flags(const util::Cli& cli, core::SimulationOptions& o) {
  if (!cli.has("fc")) return;
  std::string err;
  if (!fc::FlowControlConfig::parse(cli.get("fc", ""), o.fc, err)) {
    cli.usage_error("--fc: " + err);
  }
}

inline void finish(util::Table& table, const util::Cli& cli,
                   const std::string& title,
                   const std::vector<obs::MetricsReport>& metrics = {},
                   const std::vector<obs::ModelChannel>& models = {},
                   const std::map<std::string, double>& headline = {},
                   const std::map<std::string, bool>& verdict = {}) {
  std::cout << title << "\n\n";
  table.print(std::cout);
  if (cli.has("csv")) {
    table.write_csv_file(cli.get("csv", ""));
    std::cout << "\ncsv written to " << cli.get("csv", "") << "\n";
  }
  if (cli.has("json")) {
    // Structured dump: the figure rows plus (when the bench collected them)
    // one full MetricsReport per row — named counters, per-phase timer
    // breakdown, GVT-round series.
    const std::string path = cli.get("json", "");
    std::ofstream f(path);
    HP_ASSERT(f.good(), "cannot open --json path %s", path.c_str());
    util::JsonWriter w(f);
    w.begin_object();
    w.kv("title", title);
    w.key("rows");
    table.write_json(w);
    if (!headline.empty()) {
      // Scalar figures of merit for perf tracking; scripts/perf_delta.py
      // compares these against the committed BENCH_*.json baselines.
      w.key("headline").begin_object();
      for (const auto& [k, v] : headline) w.kv(k, v);
      w.end_object();
    }
    if (!verdict.empty()) {
      // Named pass/fail claims the bench checked on its own rows (e.g. the
      // flow-control contrast's expected scheme ordering); CI validates the
      // shape and greps these for regressions.
      w.key("verdict").begin_object();
      for (const auto& [k, v] : verdict) w.kv(k, v);
      w.end_object();
    }
    if (!metrics.empty()) {
      w.key("metrics").begin_array();
      for (const obs::MetricsReport& m : metrics) m.write_json(w);
      w.end_array();
    }
    if (!models.empty()) {
      // Model metric channels, one per row, same order as `rows`.
      w.key("model").begin_array();
      for (const obs::ModelChannel& ch : models) ch.write_json(w);
      w.end_array();
    }
    w.end_object();
    HP_ASSERT(w.done(), "unbalanced JSON in bench dump");
    std::cout << "\njson written to " << path << "\n";
  }
}

inline std::map<std::string, std::string> common_flags() {
  return {{"full", "paper-scale sweep (N up to 256; slow)"},
          {"csv", "also write the table as CSV to this path"},
          {"json", "write rows + engine MetricsReports as JSON to this path"},
          {"monitor", "live heartbeat every N GVT rounds (bare = every round)"},
          {"monitor-out", "append the monitor JSON-lines stream to this file "
                          "instead of stderr"},
          {"telemetry", "record event-lifecycle latency histograms (queue "
                        "dwell, commit latency, rollback cost, inbox dwell)"},
          {"metrics-endpoint", "serve live Prometheus text on <port> "
                               "(loopback) or unix:<path>; implies "
                               "--telemetry"},
          {"metrics-out", "periodically rewrite a Prometheus text snapshot "
                          "to this file; implies --telemetry"},
          {"chaos", "deterministic fault plan for Time Warp runs, e.g. "
                    "delay:p=0.2,k=2;seed=7 (see des/fault.hpp)"},
          {"fc", "buffered flow-control scheme for contrast runs, e.g. "
                 "scheme=wormhole,qcap=4,flit=4,credit_delay=1 (see "
                 "buffered/flow_control.hpp)"},
          {"seed", "RNG seed for the simulated model"}};
}

}  // namespace hp::bench
