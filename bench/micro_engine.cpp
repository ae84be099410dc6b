// google-benchmark microbenches of the engine primitives: reversible RNG,
// event pool recycling, torus routing arithmetic, BHW decisions, and whole-
// kernel throughput on PHOLD-style and hot-potato workloads.
//
// --json=<path> bypasses google-benchmark entirely and runs the
// deterministic perf-smoke subset (fixed iteration counts, wall-clocked by
// hand), writing the schema-conformant JSON that scripts/perf_delta.py
// diffs against the committed BENCH_micro_engine.json baseline.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/simulation.hpp"
#include "des/sequential.hpp"
#include "hotpotato/policy.hpp"
#include "net/torus.hpp"
#include "util/json_writer.hpp"
#include "util/macros.hpp"
#include "util/mpsc_queue.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

struct QNode : hp::util::MpscNode {
  std::uint64_t payload = 0;
};

// Uncontended push/pop round trip through the lock-free inbox queue — the
// per-envelope cost floor of the remote event path.
void BM_MpscQueuePushPop(benchmark::State& state) {
  hp::util::MpscQueue<QNode> q;
  QNode node;
  for (auto _ : state) {
    q.push(&node);
    benchmark::DoNotOptimize(q.pop());
  }
}
BENCHMARK(BM_MpscQueuePushPop);

// Batch publication: stage a chain locally, publish with one push_chain,
// drain — the rollback send-batching pattern (vs N individual pushes).
void BM_MpscQueueChainPushDrain(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  hp::util::MpscQueue<QNode> q;
  std::vector<QNode> nodes(batch);
  for (auto _ : state) {
    for (std::size_t i = 0; i + 1 < batch; ++i) {
      nodes[i].mpsc_next.store(&nodes[i + 1], std::memory_order_relaxed);
    }
    q.push_chain(&nodes.front(), &nodes.back());
    while (QNode* n = q.pop()) benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_MpscQueueChainPushDrain)->Arg(8)->Arg(64);

void BM_RngUniform(benchmark::State& state) {
  hp::util::ReversibleRng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform());
  }
}
BENCHMARK(BM_RngUniform);

void BM_RngForwardReverse(benchmark::State& state) {
  hp::util::ReversibleRng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform());
    rng.reverse(1);
  }
}
BENCHMARK(BM_RngForwardReverse);

void BM_EventPoolRoundTrip(benchmark::State& state) {
  hp::des::EventPool pool;
  for (auto _ : state) {
    hp::des::Event* ev = pool.allocate();
    benchmark::DoNotOptimize(ev);
    pool.free(ev);
  }
}
BENCHMARK(BM_EventPoolRoundTrip);

void BM_TorusGoodDirs(benchmark::State& state) {
  const hp::net::Torus t(64);
  std::uint32_t src = 0, dst = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.good_dirs(src, dst));
    src = (src + 7) % t.num_nodes();
    dst = (dst + 13) % t.num_nodes();
  }
}
BENCHMARK(BM_TorusGoodDirs);

void BM_BhwRouteDecision(benchmark::State& state) {
  const hp::net::Torus t(64);
  const hp::hotpotato::BhwPolicy policy(64);
  hp::util::ReversibleRng rng(1);
  hp::hotpotato::HpMsg m;
  m.prio = hp::hotpotato::Priority::Sleeping;
  m.dst_row = 13;
  m.dst_col = 42;
  hp::net::DirSet free;
  for (hp::net::Dir d : hp::net::kAllDirs) free.add(d);
  std::uint32_t here = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.route(t, m, here, free, rng));
    here = (here + 11) % t.num_nodes();
  }
}
BENCHMARK(BM_BhwRouteDecision);

void BM_SequentialHotPotato(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    hp::core::SimulationOptions o;
    o.model.n = n;
    o.model.injector_fraction = 0.5;
    o.model.steps = 32;
    const auto r = hp::core::run_hotpotato(o);
    events += r.engine.committed_events();
    benchmark::DoNotOptimize(r.report.delivered);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SequentialHotPotato)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

void BM_TimeWarpHotPotato(benchmark::State& state) {
  const auto pes = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    hp::core::SimulationOptions o;
    o.model.n = 16;
    o.model.injector_fraction = 0.5;
    o.model.steps = 32;
    o.kernel = hp::core::Kernel::TimeWarp;
    o.engine.num_pes = pes;
    o.engine.num_kps = 64;
    o.engine.optimism_window = 30.0;
    const auto r = hp::core::run_hotpotato(o);
    events += r.engine.committed_events();
    benchmark::DoNotOptimize(r.report.delivered);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
// PE threads do the work at 2+ PEs, so the main thread's CPU time is no
// denominator for the rate: time (and divide by) wall clock.
BENCHMARK(BM_TimeWarpHotPotato)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// ---------------------------------------------------------------------------
// Deterministic perf-smoke mode (--json=<path>).

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ns/op over a fixed iteration count; the hot loop is supplied as a lambda
// that performs `iters` operations and returns a value the optimizer must
// keep.
template <typename F>
double time_ns_per_op(std::uint64_t iters, F&& body) {
  const double t0 = now_seconds();
  auto sink = body(iters);
  const double t1 = now_seconds();
  benchmark::DoNotOptimize(sink);
  return (t1 - t0) * 1e9 / static_cast<double>(iters);
}

double hotpotato_events_per_s(hp::core::Kernel kernel, std::uint32_t pes,
                              int reps) {
  double best = 0.0;
  for (int i = 0; i < reps; ++i) {
    hp::core::SimulationOptions o;
    o.model.n = 16;
    o.model.injector_fraction = 0.5;
    o.model.steps = 32;
    o.kernel = kernel;
    o.engine.num_pes = pes;
    o.engine.num_kps = 64;
    o.engine.optimism_window = 30.0;
    const auto r = hp::core::run_hotpotato(o);
    best = std::max(best, r.engine.event_rate());
  }
  return best;
}

int run_perf_smoke(const std::string& path) {
  hp::util::Table table({"benchmark", "value", "unit"});
  std::map<std::string, double> headline;

  const double pool_ns = time_ns_per_op(10'000'000, [](std::uint64_t n) {
    hp::des::EventPool pool;
    hp::des::Event* last = nullptr;
    for (std::uint64_t i = 0; i < n; ++i) {
      hp::des::Event* ev = pool.allocate();
      last = ev;
      pool.free(ev);
    }
    return last;
  });
  table.add_row({"event_pool_round_trip", pool_ns, "ns/op"});

  const double rng_ns = time_ns_per_op(10'000'000, [](std::uint64_t n) {
    hp::util::ReversibleRng rng(1);
    double acc = 0.0;
    for (std::uint64_t i = 0; i < n; ++i) acc += rng.uniform();
    return acc;
  });
  table.add_row({"rng_uniform", rng_ns, "ns/op"});

  const double mpsc_ns = time_ns_per_op(10'000'000, [](std::uint64_t n) {
    hp::util::MpscQueue<QNode> q;
    QNode node;
    QNode* last = nullptr;
    for (std::uint64_t i = 0; i < n; ++i) {
      q.push(&node);
      last = q.pop();
    }
    return last;
  });
  table.add_row({"mpsc_push_pop", mpsc_ns, "ns/op"});

  const double dirs_ns = time_ns_per_op(1'000'000, [](std::uint64_t n) {
    const hp::net::Torus t(64);
    std::uint32_t src = 0, dst = 1, acc = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      acc += static_cast<std::uint32_t>(t.good_dirs(src, dst).size());
      src = (src + 7) % t.num_nodes();
      dst = (dst + 13) % t.num_nodes();
    }
    return acc;
  });
  table.add_row({"torus_good_dirs", dirs_ns, "ns/op"});

  // Whole-kernel throughput: best of 3 fixed-size hot-potato runs. The
  // sequential rate is THE headline number the perf-smoke CI job tracks.
  const double seq_rate =
      hotpotato_events_per_s(hp::core::Kernel::Sequential, 1, 3);
  table.add_row({"sequential_hotpotato_n16", seq_rate, "events/s"});
  const double tw_rate =
      hotpotato_events_per_s(hp::core::Kernel::TimeWarp, 2, 3);
  table.add_row({"timewarp_2pe_hotpotato_n16", tw_rate, "events/s"});

  headline["events_per_s"] = seq_rate;
  headline["timewarp_2pe_events_per_s"] = tw_rate;
  headline["event_pool_round_trip_ns"] = pool_ns;

  const std::string title =
      "Micro-engine perf smoke: primitive costs and whole-kernel throughput "
      "(fixed iteration counts; deterministic workload)";
  std::cout << title << "\n\n";
  table.print(std::cout);

  std::ofstream f(path);
  HP_ASSERT(f.good(), "cannot open --json path %s", path.c_str());
  hp::util::JsonWriter w(f);
  w.begin_object();
  w.kv("title", title);
  w.key("rows");
  table.write_json(w);
  w.key("headline").begin_object();
  for (const auto& [k, v] : headline) w.kv(k, v);
  w.end_object();
  w.end_object();
  HP_ASSERT(w.done(), "unbalanced JSON in perf-smoke dump");
  std::cout << "\njson written to " << path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      return run_perf_smoke(std::string(arg.substr(7)));
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
