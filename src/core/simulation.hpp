#pragma once

// Public facade: configure and run a hot-potato torus simulation on either
// kernel with one call. This is the API the examples and the figure
// harnesses use; the underlying pieces (des::*, hotpotato::*) remain public
// for callers that need custom models or policies.

#include <cstdint>
#include <memory>

#include "buffered/flow_control.hpp"
#include "des/engine.hpp"
#include "hotpotato/model.hpp"
#include "hotpotato/stats.hpp"

namespace hp::core {

// The facade's kernel selector IS the engine-layer enumeration: one list of
// kernels, one exhaustive name function (a new enumerator without a name
// case fails to compile — see des::kind_name and the coverage test).
using Kernel = des::EngineKind;
inline constexpr auto& kAllKernels = des::kAllEngineKinds;

constexpr const char* kernel_name(Kernel k) noexcept {
  return des::kind_name(k);
}

struct SimulationOptions {
  hotpotato::HotPotatoConfig model;  // policy may be null => BHW default
  Kernel kernel = Kernel::Sequential;

  // Kernel configuration, embedded verbatim (seed, num_pes, num_kps,
  // gvt_interval_events, state_saving, optimism_window, pool_budget_envelopes,
  // cancellation, obs...). run_hotpotato fills the model-derived
  // fields (num_lps, end_time, mapping) itself; num_kps == 0 selects the
  // report default of 64 KPs. Anything set here reaches the engine without
  // a renamed mirror field in between — including the latency-telemetry
  // block (obs.telemetry / obs.metrics_endpoint / obs.metrics_out), which
  // every kernel honors and which never changes committed results.
  des::EngineConfig engine;

  bool block_mapping = true;  // false => linear stripes (ablation)

  // Flow-control contrast knobs (the --fc= spec): which buffered scheme
  // run_flow_control builds and its buffer/flit/credit geometry. The
  // network/workload half of fc is ignored here — run_flow_control fills it
  // from `model` (n, topology, injector_fraction, traffic, steps,
  // selection_seed) and `engine.seed`, so a buffered run and a hot-potato
  // run configured by the same options see the same network and workload.
  fc::FlowControlConfig fc;
};

struct SimulationResult {
  hotpotato::HpReport report;  // model-level statistics (view over `model`)
  obs::ModelChannel model;     // named model metrics (report/JSON pipeline)
  des::RunStats engine;        // kernel-level statistics
};

// Run one simulation to completion. Deterministic: the same options produce
// bit-identical reports on both kernels at any PE/KP count.
SimulationResult run_hotpotato(const SimulationOptions& opts);

struct FlowControlResult {
  fc::FcReport report;      // typed view over `model`
  obs::ModelChannel model;  // same named-metric pipeline as hot-potato runs
};

// Run the buffered contrast model selected by opts.fc.scheme on the network
// and workload described by opts.model (the synchronous stepper has no DES
// kernel, so opts.kernel/engine only contribute engine.seed). Deterministic:
// the same options produce bit-identical channels.
FlowControlResult run_flow_control(const SimulationOptions& opts);

}  // namespace hp::core
