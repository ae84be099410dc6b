// The report's Attachment 1 interface: a driver taking the original ROSS
// application's parameters in order —
//   N                       torus dimension (multiple of 8 in the report,
//                           any >= 2 here)
//   number_of_processors    PEs for the optimistic run (1 = sequential)
//   SIMULATION_DURATION     virtual time (one step = 10 units)
//   probability_i           percent of routers that inject (0..100)
//   absorb_sleeping_packet  1 = practical mode, 0 = proof-verification
//
//   ./ross_cli --n=32 --processors=4 --duration=2560 --probability_i=50
//              [--absorb_sleeping_packet=1] [--chaos=spec]
//              [--telemetry] [--metrics-endpoint=port|unix:path]
//              [--metrics-out=metrics.prom] [--checkpoint=spec]
//              [--restore=path] [--watchdog=spec]
//
// --chaos (Time Warp only) arms deterministic fault injection on the remote
// event path (see des/fault.hpp); committed results are unchanged.
// KPs stay on the PE the static mapping gives them for the whole run.
// --telemetry records latency histograms; --metrics-endpoint /
// --metrics-out expose them live as Prometheus text (either implies
// --telemetry). Committed results are unchanged.
// --checkpoint / --restore / --watchdog are the crash-safety trio (see
// des/checkpoint.hpp and des/watchdog.hpp): periodic committed-state images,
// resume from an image, and a stall detector that fails loudly (exit 86).
// A restored run finishes with bit-identical model statistics.

#include <cstdio>
#include <string>

#include "core/simulation.hpp"
#include "des/checkpoint.hpp"
#include "des/fault.hpp"
#include "des/watchdog.hpp"
#include "hotpotato/packet.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  hp::util::Cli cli(
      argc, argv,
      {{"n", "torus dimension N (N x N routers)"},
       {"processors", "number of PEs (1 = sequential kernel)"},
       {"duration", "simulation duration in virtual time (step = 10)"},
       {"probability_i", "percent of routers injecting, 0..100"},
       {"absorb_sleeping_packet", "1 practical / 0 proof-verification"},
       {"kps", "number of kernel processes (report default 64)"},
       {"seed", "RNG seed"},
       {"monitor", "heartbeat every N GVT rounds (bare = 1)"},
       {"monitor-out", "append monitor stream to this file"},
       {"chaos", "fault plan, e.g. delay:p=0.2,k=2;seed=7"},
       {"telemetry", "record latency histograms"},
       {"metrics-endpoint", "serve Prometheus text on <port> or unix:<path>"},
       {"metrics-out", "rewrite a Prometheus snapshot to this file"},
       {"checkpoint", "crash safety, e.g. every=100000,dir=checkpoints"},
       {"restore", "resume from a checkpoint image or dir"},
       {"watchdog", "stall detector, e.g. timeout=5000,poll=50"}});

  hp::core::SimulationOptions opts;
  opts.model.n = static_cast<std::int32_t>(cli.get_int("n", 32));
  const auto duration = cli.get_double("duration", 1280.0);
  opts.model.steps =
      static_cast<std::uint32_t>(duration / hp::hotpotato::kStep);
  opts.model.injector_fraction = cli.get_double("probability_i", 50.0) / 100.0;
  opts.model.absorb_sleeping = cli.get_bool("absorb_sleeping_packet", true);
  opts.engine.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));

  const auto pes = static_cast<std::uint32_t>(cli.get_int("processors", 1));
  if (pes > 1) {
    opts.kernel = hp::core::Kernel::TimeWarp;
    opts.engine.num_pes = pes;
    opts.engine.num_kps = static_cast<std::uint32_t>(cli.get_int("kps", 64));
    opts.engine.optimism_window = 30.0;
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
      cli.usage_error("--chaos requires the Time Warp kernel "
                      "(--processors > 1)");
    }
    if (opts.engine.fault.stall_pe != hp::des::FaultPlan::kNoStallPe &&
        opts.engine.fault.stall_pe >= pes) {
      cli.usage_error("--chaos stall:pe=" +
                      std::to_string(opts.engine.fault.stall_pe) +
                      " is out of range for " + std::to_string(pes) + " PEs");
    }
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

  // Statistics block in the spirit of the report's sample output.
  std::printf("hot-potato routing simulation\n");
  std::printf("  network              : %d x %d torus (%u LPs)\n",
              opts.model.n, opts.model.n, opts.model.num_lps());
  std::printf("  kernel               : %s, %u PE(s), %u KP(s)\n",
              hp::core::kernel_name(opts.kernel),
              opts.kernel == hp::core::Kernel::Sequential ? 1 : opts.engine.num_pes,
              opts.kernel == hp::core::Kernel::Sequential ? 1 : opts.engine.num_kps);
  std::printf("  duration             : %.0f (%u steps)\n", duration,
              opts.model.steps);
  std::printf("  injecting routers    : %.0f%%\n",
              100.0 * opts.model.injector_fraction);
  std::printf("  absorb sleeping      : %s\n\n",
              opts.model.absorb_sleeping ? "yes (practical)"
                                         : "no (proof mode)");
  std::printf("  packets delivered          : %llu\n",
              static_cast<unsigned long long>(r.delivered));
  std::printf("  total transit time (steps) : %.0f\n", r.delivery_steps_sum);
  std::printf("  avg delivery time          : %.4f steps\n",
              r.avg_delivery_steps());
  std::printf("  packets injected           : %llu\n",
              static_cast<unsigned long long>(r.injected));
  std::printf("  avg wait to inject         : %.4f steps\n",
              r.avg_inject_wait());
  std::printf("  longest wait to inject     : %.0f steps\n",
              r.max_inject_wait);
  std::printf("\n  events committed           : %llu\n",
              static_cast<unsigned long long>(result.engine.committed_events()));
  std::printf("  events rolled back         : %llu (%llu primary + %llu "
              "secondary)\n",
              static_cast<unsigned long long>(
                  result.engine.rolled_back_events()),
              static_cast<unsigned long long>(
                  result.engine.primary_rollback_events()),
              static_cast<unsigned long long>(
                  result.engine.secondary_rollback_events()));
  std::printf("  event rate                 : %.0f events/s\n",
              result.engine.event_rate());
  for (std::size_t pe = 0; pe < result.engine.per_pe().size(); ++pe) {
    const auto& p = result.engine.per_pe()[pe];
    std::printf("    PE %zu: processed=%llu committed=%llu rolled_back=%llu\n",
                pe, static_cast<unsigned long long>(p.processed_events()),
                static_cast<unsigned long long>(p.committed_events()),
                static_cast<unsigned long long>(p.rolled_back_events()));
  }
  return 0;
}
