// Quickstart: simulate the BHW hot-potato routing algorithm on a 16x16
// bufferless optical torus, half the routers injecting one packet per step,
// and print the system-wide statistics the report tracks (Section 3.1.5).
//
//   ./quickstart [--n=16] [--inject=0.5] [--steps=200] [--pes=1]
//               [--trace=trace.json] [--monitor[=interval]]
//               [--monitor-out=monitor.jsonl] [--chaos=spec]
//               [--pool-budget=envelopes] [--telemetry]
//               [--metrics-endpoint=port|unix:path]
//               [--metrics-out=metrics.prom]
//
// --trace writes a Chrome/Perfetto phase trace of the run (one track per
// PE); load it at https://ui.perfetto.dev — see EXPERIMENTS.md.
// --monitor (Time Warp only) emits a JSON-lines heartbeat every `interval`
// GVT rounds to stderr, or to --monitor-out when given.
// --chaos (Time Warp only) arms deterministic fault injection on the remote
// event path, e.g. --chaos="delay:p=0.2,k=2;stall:pe=1,rounds=4;seed=7" —
// see des/fault.hpp for the grammar. Committed results are unchanged.
// --pool-budget (Time Warp only) caps live event envelopes per PE; the
// engine throttles optimism instead of aborting when memory runs short, and
// the run prints its throttle entries, hard blocks and peak live envelopes
// (and a stderr warning when the seeded events alone reach the budget).
// KPs stay on the PE the static block mapping gives them for the whole run.
// --telemetry records event-lifecycle latency histograms (queue dwell,
// commit latency, rollback cost, inbox dwell); --metrics-endpoint serves
// them live as Prometheus text on a loopback port or unix socket, and
// --metrics-out periodically rewrites the same text to a file. Either
// implies --telemetry. Committed results are unchanged.

#include <cstdio>
#include <string>

#include "core/simulation.hpp"
#include "des/checkpoint.hpp"
#include "des/fault.hpp"
#include "des/watchdog.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  hp::util::Cli cli(argc, argv,
                    {{"n", "torus dimension (N x N routers)"},
                     {"inject", "fraction of routers injecting (0..1)"},
                     {"steps", "simulated time steps"},
                     {"seed", "workload RNG seed (default 1)"},
                     {"pes", "1 = sequential kernel, >1 = Time Warp"},
                     {"trace", "write a Chrome/Perfetto trace to this path"},
                     {"monitor", "heartbeat every N GVT rounds (bare = 1)"},
                     {"monitor-out", "append monitor stream to this file"},
                     {"chaos", "fault plan, e.g. delay:p=0.2,k=2;seed=7"},
                     {"pool-budget", "live-envelope budget per PE (0 = off)"},
                     {"telemetry", "record latency histograms"},
                     {"metrics-endpoint",
                      "serve Prometheus text on <port> or unix:<path>"},
                     {"metrics-out",
                      "rewrite a Prometheus snapshot to this file"},
                     {"checkpoint",
                      "crash safety, e.g. every=100000,dir=checkpoints"},
                     {"restore", "resume from a checkpoint image or dir"},
                     {"watchdog", "stall detector, e.g. timeout=5000,poll=50"}});

  hp::core::SimulationOptions opts;
  opts.model.n = static_cast<std::int32_t>(cli.get_int("n", 16));
  opts.model.injector_fraction = cli.get_double("inject", 0.5);
  opts.model.steps = static_cast<std::uint32_t>(cli.get_int("steps", 200));
  const auto seed = cli.get_int("seed", 1);
  if (seed <= 0) {
    cli.usage_error("--seed expects a positive integer, got " +
                    std::to_string(seed));
  }
  opts.engine.seed = static_cast<std::uint64_t>(seed);
  const auto pes = static_cast<std::uint32_t>(cli.get_int("pes", 1));
  if (pes > 1) {
    opts.kernel = hp::core::Kernel::TimeWarp;
    opts.engine.num_pes = pes;
    opts.engine.num_kps = 64;
    opts.engine.optimism_window = 30.0;
  }
  if (cli.has("trace")) {
    opts.engine.obs.trace = true;
    opts.engine.obs.trace_path = cli.get("trace", "trace.json");
  }
  if (cli.has("monitor")) {
    opts.engine.obs.monitor = true;
    const auto interval = cli.get_int("monitor", 1);
    if (interval <= 0) {
      cli.usage_error("--monitor expects a positive interval, got " +
                      std::to_string(interval));
    }
    opts.engine.obs.monitor_interval = static_cast<std::uint32_t>(interval);
    opts.engine.obs.monitor_path = cli.get("monitor-out", "");
  }
  if (cli.has("telemetry")) opts.engine.obs.telemetry = true;
  if (cli.has("metrics-endpoint")) {
    opts.engine.obs.metrics_endpoint = cli.get("metrics-endpoint", "");
    if (opts.engine.obs.metrics_endpoint.empty()) {
      cli.usage_error("--metrics-endpoint expects <port> or unix:<path>");
    }
  }
  if (cli.has("metrics-out")) {
    opts.engine.obs.metrics_out = cli.get("metrics-out", "");
    if (opts.engine.obs.metrics_out.empty()) {
      cli.usage_error("--metrics-out expects a file path");
    }
  }
  if (cli.has("chaos")) {
    std::string err;
    if (!hp::des::FaultPlan::parse(cli.get("chaos", ""), opts.engine.fault,
                                   err)) {
      cli.usage_error("--chaos: " + err);
    }
    if (opts.engine.fault.any() && pes <= 1) {
      cli.usage_error("--chaos requires the Time Warp kernel (--pes > 1)");
    }
    if (opts.engine.fault.stall_pe != hp::des::FaultPlan::kNoStallPe &&
        opts.engine.fault.stall_pe >= pes) {
      cli.usage_error("--chaos stall:pe=" +
                      std::to_string(opts.engine.fault.stall_pe) +
                      " is out of range for " + std::to_string(pes) + " PEs");
    }
  }
  if (cli.has("pool-budget")) {
    const auto budget = cli.get_int("pool-budget", 0);
    if (budget < 0 || (budget > 0 && budget < 16)) {
      cli.usage_error("--pool-budget expects 0 or >= 16 envelopes, got " +
                      std::to_string(budget));
    }
    if (budget > 0 && pes <= 1) {
      cli.usage_error("--pool-budget requires the Time Warp kernel "
                      "(--pes > 1)");
    }
    opts.engine.pool_budget_envelopes = static_cast<std::uint64_t>(budget);
  }

  if (cli.has("checkpoint")) {
    std::string err;
    if (!hp::des::CheckpointConfig::parse(cli.get("checkpoint", ""),
                                          opts.engine.checkpoint, err)) {
      cli.usage_error("--checkpoint: " + err);
    }
  }
  if (cli.has("restore")) {
    opts.engine.restore_path = cli.get("restore", "");
    if (opts.engine.restore_path.empty()) {
      cli.usage_error("--restore expects a checkpoint file or directory");
    }
  }
  if (cli.has("watchdog")) {
    std::string err;
    if (!hp::des::WatchdogConfig::parse(cli.get("watchdog", ""),
                                        opts.engine.watchdog, err)) {
      cli.usage_error("--watchdog: " + err);
    }
  }

  const auto result = hp::core::run_hotpotato(opts);
  const auto& r = result.report;

  std::printf("hot-potato routing without flow control — %dx%d torus, "
              "%.0f%% injectors, %u steps (%s kernel)\n\n",
              opts.model.n, opts.model.n,
              100.0 * opts.model.injector_fraction, opts.model.steps,
              hp::core::kernel_name(opts.kernel));
  std::printf("  packets delivered        %llu\n",
              static_cast<unsigned long long>(r.delivered));
  std::printf("  packets injected         %llu\n",
              static_cast<unsigned long long>(r.injected));
  std::printf("  avg delivery time        %.2f steps (avg shortest path "
              "%.2f, stretch %.3f)\n",
              r.avg_delivery_steps(), r.avg_distance(), r.stretch());
  std::printf("  avg wait to inject       %.3f steps (max %.0f)\n",
              r.avg_inject_wait(), r.max_inject_wait);
  std::printf("  deflection rate          %.2f%%\n",
              100.0 * r.deflection_rate());
  std::printf("  link utilization         %.1f%%\n",
              100.0 * r.link_utilization(opts.model.num_lps(),
                                         opts.model.steps));
  std::printf("\n  engine: %llu events committed at %.0f events/s\n",
              static_cast<unsigned long long>(result.engine.committed_events()),
              result.engine.event_rate());
  if (result.engine.rolled_back_events() > 0) {
    const auto& forensics = result.engine.metrics.forensics;
    std::printf("  rollbacks: %llu events undone (%llu primary / %llu "
                "secondary episodes, max cascade %llu)\n",
                static_cast<unsigned long long>(
                    result.engine.rolled_back_events()),
                static_cast<unsigned long long>(
                    result.engine.primary_rollbacks()),
                static_cast<unsigned long long>(
                    result.engine.secondary_rollbacks()),
                static_cast<unsigned long long>(
                    result.engine.max_cascade_depth()));
    if (const auto top = forensics.top_offender(); top.second > 0) {
      std::printf("  top offender: KP %u caused %llu rolled-back events\n",
                  top.first, static_cast<unsigned long long>(top.second));
    }
  }
  if (opts.engine.pool_budget_envelopes > 0) {
    const auto& total = result.engine.metrics.total;
    std::printf("  flow control: %llu throttle entries, %llu hard blocks, "
                "peak %llu live envelopes on one PE (budget %llu)\n",
                static_cast<unsigned long long>(total.throttle_entries()),
                static_cast<unsigned long long>(total.hard_blocks()),
                static_cast<unsigned long long>(total.pool_peak_live()),
                static_cast<unsigned long long>(
                    opts.engine.pool_budget_envelopes));
  }
  if (result.engine.metrics.total.checkpoints_written() > 0) {
    std::printf("  checkpoints: %llu image(s) -> %s\n",
                static_cast<unsigned long long>(
                    result.engine.metrics.total.checkpoints_written()),
                opts.engine.checkpoint.dir.c_str());
  }
  if (opts.engine.obs.monitor) {
    std::printf("  monitor: %llu heartbeat line(s) -> %s\n",
                static_cast<unsigned long long>(
                    result.engine.metrics.monitor_lines),
                opts.engine.obs.monitor_path.empty()
                    ? "stderr"
                    : opts.engine.obs.monitor_path.c_str());
  }
  if (result.engine.metrics.telemetry) {
    const auto& commit = result.engine.metrics.latency_hist(
        hp::obs::LatencyMetric::CommitLatency);
    std::printf("  telemetry: commit latency p50 %.1f us, p99 %.1f us over "
                "%llu samples (%llu dropped)\n",
                commit.quantile_ns(0.50) * 1e-3,
                commit.quantile_ns(0.99) * 1e-3,
                static_cast<unsigned long long>(commit.count()),
                static_cast<unsigned long long>(
                    result.engine.metrics.total.telemetry_dropped()));
  }
  if (opts.engine.obs.trace) {
    std::printf("  trace: %llu spans + %llu flow events -> %s (load at "
                "ui.perfetto.dev)\n",
                static_cast<unsigned long long>(result.engine.metrics.trace_spans),
                static_cast<unsigned long long>(result.engine.metrics.trace_flows),
                opts.engine.obs.trace_path.c_str());
  }
  return 0;
}
