// Attachment 3 — sample output demonstrating that the parallel and
// sequential models produce identical results under the same configuration
// (the report's correctness/repeatability argument, Section 4.2.1).
//
// --chaos=<spec> arms deterministic fault injection on the Time Warp runs
// only (the sequential baseline stays fault-free), turning this into the
// CI chaos-matrix harness: faults may only delay delivery, so every plan
// must still verify IDENTICAL. --monitor[-out] streams the Time Warp
// heartbeat (with the pool/throttle fields) for artifact capture.

#include <cstdio>

#include "bench/common.hpp"

namespace {

void print_report(const char* tag, const hp::core::SimulationResult& r) {
  std::printf("%-22s %s\n", tag, r.report.summary_line().c_str());
  std::printf("%-22s   arrivals=%llu routed=%llu link_claims=%llu "
              "pending=%llu committed_events=%llu\n",
              "", static_cast<unsigned long long>(r.report.arrivals),
              static_cast<unsigned long long>(r.report.routed),
              static_cast<unsigned long long>(r.report.link_claims),
              static_cast<unsigned long long>(r.report.pending_waiting),
              static_cast<unsigned long long>(r.engine.committed_events()));
}

}  // namespace

int main(int argc, char** argv) {
  hp::util::Cli cli(argc, argv, hp::bench::common_flags());
  const std::int32_t n = cli.get_bool("full", false) ? 32 : 16;

  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));

  hp::core::SimulationOptions base;
  base.model.n = n;
  base.model.injector_fraction = 0.75;
  base.model.steps = static_cast<std::uint32_t>(4 * n);
  base.engine.seed = seed;

  // Fault injection applies to the Time Warp runs only; the sequential run
  // is the fault-free reference the chaotic runs must still match.
  hp::des::EngineConfig chaos_probe;
  const bool chaos = hp::bench::apply_chaos_flags(cli, chaos_probe);
  if (chaos) {
    std::printf("chaos plan (timewarp runs only): %s\n",
                chaos_probe.fault.to_string().c_str());
  }

  std::printf("Attachment 3: repeatability check, %dx%d torus, 75%% "
              "injectors, %u steps, seed %llu\n\n",
              n, n, base.model.steps,
              static_cast<unsigned long long>(seed));

  const auto seq = hp::core::run_hotpotato(base);
  print_report("sequential", seq);

  bool all_identical = true;
  for (const std::uint32_t pes : {1u, 2u, 4u}) {
    auto o = hp::bench::tw_options(n, 0.75, pes, 64);
    o.model.steps = base.model.steps;
    o.engine.seed = seed;
    if (chaos) {
      auto plan = chaos_probe.fault;
      if (plan.stall_pe != hp::des::FaultPlan::kNoStallPe &&
          plan.stall_pe >= pes) {
        // The stall target does not exist at this PE count; disarm the
        // stall clause but keep the rest of the plan.
        plan.stall_pe = hp::des::FaultPlan::kNoStallPe;
        plan.stall_rounds = 0;
      }
      o.engine.fault = plan;
    }
    hp::bench::apply_monitor_flags(cli, o.engine);
    // Telemetry stamps must never perturb committed state: the stamped
    // Time Warp runs still have to verify IDENTICAL against the unstamped
    // sequential reference.
    hp::bench::apply_telemetry_flags(cli, o.engine);
    const auto tw = hp::core::run_hotpotato(o);
    char tag[64];
    std::snprintf(tag, sizeof(tag), "timewarp %u PE(s)", pes);
    print_report(tag, tw);
    // Whole-channel comparison: every named model metric (including the
    // double sums and the delivery histogram) bit-for-bit, plus the typed
    // report view derived from it.
    const bool same = tw.model == seq.model && tw.report == seq.report;
    all_identical = all_identical && same;
    std::printf("%-22s   -> statistics %s\n", "",
                same ? "IDENTICAL to sequential" : "DIFFER (BUG)");
  }
  // Buffered flow-control runs ride the same whole-channel comparison: a
  // repeated run of every scheme must reproduce its ModelChannel (and the
  // typed report derived from it) bit for bit.
  std::printf("\n");
  for (const char* spec : {"scheme=saf,qcap=8,flit=4",
                           "scheme=vct,qcap=8,flit=4",
                           "scheme=wormhole,qcap=4,flit=4"}) {
    auto fo = base;
    std::string err;
    if (!hp::fc::FlowControlConfig::parse(spec, fo.fc, err)) {
      std::printf("fc spec %s rejected: %s\n", spec, err.c_str());
      all_identical = false;
      continue;
    }
    const auto a = hp::core::run_flow_control(fo);
    const auto b = hp::core::run_flow_control(fo);
    const bool same = a.model == b.model && a.report == b.report;
    all_identical = all_identical && same;
    char tag[64];
    std::snprintf(tag, sizeof(tag), "fc %s",
                  hp::fc::kind_name(fo.fc.scheme));
    std::printf("%-22s %s\n", tag, a.report.summary_line().c_str());
    std::printf("%-22s   -> repeated run %s\n", "",
                same ? "IDENTICAL" : "DIFFERS (BUG)");
  }

  // Repeatability of the parallel run itself.
  auto o = hp::bench::tw_options(n, 0.75, 4, 64);
  o.model.steps = base.model.steps;
  o.engine.seed = seed;
  if (chaos && (chaos_probe.fault.stall_pe == hp::des::FaultPlan::kNoStallPe ||
                chaos_probe.fault.stall_pe < 4)) {
    o.engine.fault = chaos_probe.fault;
  }
  hp::bench::apply_telemetry_flags(cli, o.engine);
  const auto again = hp::core::run_hotpotato(o);
  const bool repeat = again.model == seq.model && again.report == seq.report;
  all_identical = all_identical && repeat;
  std::printf("\nrepeated 4-PE run: %s\n",
              repeat ? "IDENTICAL" : "DIFFERS (BUG)");
  std::printf("\nverdict: %s\n",
              all_identical
                  ? "deterministic and repeatable at every PE count"
                  : "NON-DETERMINISTIC (regression!)");
  return all_identical ? 0 : 1;
}
