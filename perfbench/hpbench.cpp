// hpbench — one kernel run of one benchmark workload.
//
// perfbench/run.py starts this program once per kernel run, so that each
// run's peak resident memory is its own (a process high-water mark would
// otherwise carry over from the previous run). It sets the workload up
// through the simulator's public API, times each call from outside, and
// prints one JSON line: set-up, run() and collection times, the committed
// event count, a fingerprint of the simulated output, the kernel's own
// RunStats counters and per-PE phase times.
//
//   hpbench --workload=phold_remote --kernel=timewarp --seed=7 [--traced]
//           [--scale=tiny]
//
// --traced wraps the model in a delegating des::Model that times the
// forward/reverse handlers (every kSamplePeriod-th call, with the clock's own
// cost subtracted) and adds the benchmark's spans (setup, run, collect).
// Only the model, its size, the kernel, num_pes, the seed and (for PHOLD)
// num_kps are set; every other engine knob keeps its default so that the
// benchmark measures the engine as a user gets it.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "des/engine.hpp"
#include "des/model.hpp"
#include "des/phold.hpp"
#include "hotpotato/model.hpp"
#include "hotpotato/packet.hpp"
#include "hotpotato/policy.hpp"
#include "hotpotato/stats.hpp"
#include "net/mapping.hpp"
#include "obs/metrics.hpp"
#include "obs/model_channel.hpp"
#include "util/cli.hpp"
#include "util/json_writer.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using hp::des::EngineKind;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  const char* name;
  bool hotpotato;
  std::uint32_t tw_pes;
  // Hot-potato: N x N torus, 4N steps, 50 % injectors, uniform traffic.
  std::int32_t n;
  std::uint32_t steps;
  // PHOLD.
  std::uint32_t lps;
  double remote;
  double lookahead;
  double end_time;
};

// Full size: what the benchmark measures. Tiny: the same shapes at a size
// the benchmark's own tests run in well under a second.
constexpr Workload kFull[] = {
    {"hotpotato_fig5", true, 4, 32, 128, 0, 0.0, 0.0, 0.0},
    {"phold_remote", false, 2, 0, 0, 1024, 0.5, 0.05, 300.0},
};
constexpr Workload kTiny[] = {
    {"hotpotato_fig5", true, 4, 8, 32, 0, 0.0, 0.0, 0.0},
    {"phold_remote", false, 2, 0, 0, 64, 0.5, 0.05, 40.0},
};

const Workload* find_workload(std::string_view name, bool tiny) {
  for (const Workload& w : tiny ? kTiny : kFull) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Model-handler timing

// Per-thread handler tallies. Every kSamplePeriod-th call is timed and the
// rest only counted, so the clock's cost lands on few events.
constexpr std::uint64_t kSamplePeriod = 8;

struct HandlerTally {
  std::uint64_t calls = 0;
  std::uint64_t sampled = 0;
  std::uint64_t ns = 0;

  template <typename Fn>
  void time(Fn&& fn) {
    if ((calls++ % kSamplePeriod) != 0) {
      fn();
      return;
    }
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    ns += ns_between(t0, t1);
    ++sampled;
  }
};

struct ThreadTally {
  HandlerTally forward;
  HandlerTally reverse;
};

// Cost of one empty timed region (two clock reads), averaged over many.
double clock_cost_ns() {
  constexpr int kReps = 200000;
  std::uint64_t total = 0;
  for (int i = 0; i < kReps; ++i) {
    const auto t0 = Clock::now();
    const auto t1 = Clock::now();
    total += ns_between(t0, t1);
  }
  return static_cast<double>(total) / kReps;
}

// Mean handler time per call, the clock's cost taken out.
double ns_per_call(const HandlerTally& t, double clock_ns) {
  if (t.sampled == 0) return 0.0;
  return std::max(0.0, static_cast<double>(t.ns) /
                           static_cast<double>(t.sampled) -
                       clock_ns);
}

// Delegating model: forwards every call to the real model and times the
// forward/reverse handlers on the calling thread (Time Warp runs them on its
// PE threads, so each thread keeps its own tally).
class TimedModel final : public hp::des::Model {
 public:
  explicit TimedModel(hp::des::Model& inner)
      : inner_(inner), id_(next_id_.fetch_add(1) + 1) {}

  std::unique_ptr<hp::des::LpState> make_state(std::uint32_t lp) override {
    return inner_.make_state(lp);
  }
  void init_lp(std::uint32_t lp, hp::des::InitContext& ctx) override {
    inner_.init_lp(lp, ctx);
  }
  void forward(hp::des::LpState& s, hp::des::Event& ev,
               hp::des::Context& ctx) override {
    tally().forward.time([&] { inner_.forward(s, ev, ctx); });
  }
  void reverse(hp::des::LpState& s, hp::des::Event& ev,
               hp::des::Context& ctx) override {
    tally().reverse.time([&] { inner_.reverse(s, ev, ctx); });
  }
  void commit(hp::des::LpState& s, const hp::des::Event& ev) override {
    inner_.commit(s, ev);
  }

  // Sum over threads; call only after run() has joined its threads.
  ThreadTally total() const {
    std::lock_guard<std::mutex> lock(mu_);
    ThreadTally sum;
    for (const auto& t : tallies_) {
      for (auto [dst, src] : {std::pair{&sum.forward, &t->forward},
                              std::pair{&sum.reverse, &t->reverse}}) {
        dst->calls += src->calls;
        dst->sampled += src->sampled;
        dst->ns += src->ns;
      }
    }
    return sum;
  }

 private:
  ThreadTally& tally() {
    thread_local ThreadTally* mine = nullptr;
    thread_local std::uint64_t owner = 0;
    if (owner != id_) {
      std::lock_guard<std::mutex> lock(mu_);
      tallies_.push_back(std::make_unique<ThreadTally>());
      mine = tallies_.back().get();
      owner = id_;
    }
    return *mine;
  }

  static inline std::atomic<std::uint64_t> next_id_{0};

  hp::des::Model& inner_;
  const std::uint64_t id_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadTally>> tallies_;
};

// ---------------------------------------------------------------------------
// Process memory

// Reset the peak-RSS mark (VmHWM) to the current RSS, so the next reading
// covers only what follows. Returns false if the kernel refused.
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::stoull(line.substr(6))) / 1024.0;
    }
  }
  return 0.0;
}

// FNV-1a over the rendered model channel: doubles print with 17 significant
// digits, so equal fingerprints mean bit-equal channels.
std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------------
// One run

// Set-up is repeated and its median reported: one set-up of these sizes
// takes milliseconds, too short for a single reading to be steady.
constexpr int kSetupReps = 9;

struct Span {
  const char* name;
  std::uint64_t begin_ns;
  std::uint64_t end_ns;
};

// Everything one kernel run needs, built in dependency order (the engine
// refers to the model and the mapping, so it is declared last and destroyed
// first).
struct SetUp {
  hp::des::EngineConfig cfg;
  std::unique_ptr<hp::hotpotato::BhwPolicy> policy;
  std::unique_ptr<hp::des::Model> model;
  std::unique_ptr<hp::net::Mapping> mapping;
  std::unique_ptr<TimedModel> timed;
  std::unique_ptr<hp::des::Engine> engine;
  Clock::time_point t0, t1, t2, t3;  // model, mapping, engine boundaries
};

// Builds the model, the mapping and the engine through the public API.
// Hot-potato is assembled exactly as core::run_hotpotato does (BHW policy,
// 64 KPs but at least one per PE, torus block mapping for Time Warp), because
// the facade neither accepts a wrapped model nor exposes its set-up time.
std::unique_ptr<SetUp> set_up(const Workload& w, EngineKind kind,
                              std::uint64_t seed, bool traced) {
  auto s = std::make_unique<SetUp>();
  const std::uint32_t pes = kind == EngineKind::TimeWarp ? w.tw_pes : 1;
  s->cfg.seed = seed;
  s->cfg.num_pes = pes;

  s->t0 = Clock::now();
  if (w.hotpotato) {
    hp::hotpotato::HotPotatoConfig mc;
    mc.n = w.n;
    mc.steps = w.steps;
    mc.injector_fraction = 0.5;
    s->policy = std::make_unique<hp::hotpotato::BhwPolicy>(mc.n);
    mc.policy = s->policy.get();
    s->model = std::make_unique<hp::hotpotato::HotPotatoModel>(mc);
    s->cfg.num_lps = mc.num_lps();
    s->cfg.end_time = mc.end_time();
    s->cfg.num_kps = std::max<std::uint32_t>(64, pes);
  } else {
    hp::des::PholdConfig pc;
    pc.num_lps = w.lps;
    pc.population_per_lp = 4;
    pc.remote_fraction = w.remote;
    pc.lookahead = w.lookahead;
    s->model = std::make_unique<hp::des::PholdModel>(pc);
    s->cfg.num_lps = w.lps;
    s->cfg.end_time = w.end_time;
    s->cfg.num_kps = 32;
  }
  s->t1 = Clock::now();
  if (w.hotpotato && kind == EngineKind::TimeWarp) {
    s->mapping =
        std::make_unique<hp::net::BlockMapping>(w.n, s->cfg.num_kps, pes);
    s->cfg.mapping = s->mapping.get();
  }
  s->t2 = Clock::now();
  if (traced) s->timed = std::make_unique<TimedModel>(*s->model);
  hp::des::Model& driven =
      traced ? static_cast<hp::des::Model&>(*s->timed) : *s->model;
  s->engine = hp::des::make_engine(
      kind, driven, s->cfg,
      w.hotpotato ? hp::hotpotato::kCrossLpLookahead : 0.0);
  s->t3 = Clock::now();
  return s;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct RunResult {
  double model_ctor_s = 0.0;
  double mapping_s = 0.0;
  double make_engine_s = 0.0;
  double setup_s = 0.0;
  double run_s = 0.0;
  double collect_s = 0.0;
  double peak_rss_mb = 0.0;
  bool hwm_reset = false;
  std::string output;
  hp::des::RunStats stats;
  ThreadTally handlers;
  std::vector<Span> spans;
};

RunResult run_once(const Workload& w, EngineKind kind, std::uint64_t seed,
                   bool traced) {
  RunResult r;
  const auto origin = Clock::now();
  auto span = [&](const char* name, Clock::time_point a, Clock::time_point b) {
    if (traced) {
      r.spans.push_back({name, ns_between(origin, a), ns_between(origin, b)});
    }
  };

  std::vector<double> model_s, mapping_s, engine_s, total_s;
  std::unique_ptr<SetUp> s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s.reset();
    s = set_up(w, kind, seed, traced);
    model_s.push_back(seconds_between(s->t0, s->t1));
    mapping_s.push_back(seconds_between(s->t1, s->t2));
    engine_s.push_back(seconds_between(s->t2, s->t3));
    total_s.push_back(seconds_between(s->t0, s->t3));
    span("setup", s->t0, s->t3);
  }
  r.model_ctor_s = median(model_s);
  r.mapping_s = median(mapping_s);
  r.make_engine_s = median(engine_s);
  r.setup_s = median(total_s);

  r.hwm_reset = reset_peak_rss();
  const auto t4 = Clock::now();
  r.stats = s->engine->run();
  const auto t5 = Clock::now();
  r.peak_rss_mb = peak_rss_mb();
  span("run", t4, t5);

  if (w.hotpotato) {
    const hp::obs::ModelChannel ch =
        hp::hotpotato::collect_channel(*s->engine, w.steps);
    std::ostringstream os;
    hp::util::JsonWriter jw(os);
    ch.write_json(jw);
    r.output = hex64(fnv1a(os.str()));
  } else {
    r.output = hex64(hp::des::PholdModel::digest(*s->engine));
  }
  const auto t6 = Clock::now();
  span("collect", t5, t6);

  r.run_s = seconds_between(t4, t5);
  r.collect_s = seconds_between(t5, t6);
  if (traced) r.handlers = s->timed->total();
  return r;
}

void write_result(const Workload& w, EngineKind kind, std::uint64_t seed,
                  bool traced, const RunResult& r) {
  const hp::obs::PeMetrics& m = r.stats.metrics.total;
  hp::util::JsonWriter j(std::cout);
  j.begin_object();
  j.kv("workload", w.name);
  j.kv("kernel", hp::des::kind_name(kind));
  j.kv("pes", kind == EngineKind::TimeWarp ? w.tw_pes : 1u);
  j.kv("seed", seed);
  j.kv("traced", traced);
  j.kv("compiler", HPBENCH_COMPILER);
  j.kv("build_type", HPBENCH_BUILD_TYPE);
  j.kv("model_ctor_s", r.model_ctor_s);
  j.kv("mapping_s", r.mapping_s);
  j.kv("make_engine_s", r.make_engine_s);
  j.kv("setup_s", r.setup_s);
  j.kv("run_s", r.run_s);
  j.kv("collect_s", r.collect_s);
  j.kv("peak_rss_mb", r.peak_rss_mb);
  j.kv("hwm_reset", r.hwm_reset);
  j.kv("output", r.output);
  j.kv("gvt_rounds", r.stats.gvt_rounds());
  j.key("counters").begin_object();
  for (std::size_t c = 0; c < hp::obs::kNumCounters; ++c) {
    j.kv(hp::obs::kCounterDefs[c].name, m.counters[c]);
  }
  j.end_object();
  // Phase seconds summed over PEs (empty for the sequential kernel, which
  // keeps no per-PE phases).
  j.key("phases").begin_object();
  if (!r.stats.per_pe().empty()) {
    for (std::size_t p = 0; p < hp::obs::kNumPhases; ++p) {
      j.kv(hp::obs::phase_name(static_cast<hp::obs::Phase>(p)),
           static_cast<double>(m.phase_ns[p]) * 1e-9);
    }
  }
  j.end_object();
  if (traced) {
    const double clock_ns = clock_cost_ns();
    j.key("handlers").begin_object();
    j.kv("clock_cost_ns", clock_ns);
    j.kv("sample_period", kSamplePeriod);
    j.kv("forward_calls", r.handlers.forward.calls);
    j.kv("forward_ns_per_call", ns_per_call(r.handlers.forward, clock_ns));
    j.kv("reverse_calls", r.handlers.reverse.calls);
    j.kv("reverse_ns_per_call", ns_per_call(r.handlers.reverse, clock_ns));
    j.end_object();
    j.key("spans").begin_array();
    for (const Span& s : r.spans) {
      j.begin_object();
      j.kv("name", s.name);
      j.kv("begin_ns", s.begin_ns);
      j.kv("end_ns", s.end_ns);
      j.end_object();
    }
    j.end_array();
  }
  j.end_object();
  std::cout << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  hp::util::Cli cli(argc, argv,
                    {{"workload", "hotpotato_fig5 | phold_remote"},
                     {"kernel", "sequential | timewarp"},
                     {"seed", "engine seed (EngineConfig::seed)"},
                     {"traced", "time model handlers and record spans"},
                     {"scale", "full (default) | tiny"}});
  const std::string scale = cli.get("scale", "full");
  if (scale != "full" && scale != "tiny") cli.usage_error("bad --scale");
  const Workload* w = find_workload(cli.get("workload", ""), scale == "tiny");
  if (w == nullptr) cli.usage_error("unknown --workload");
  const std::string kernel = cli.get("kernel", "");
  if (kernel != "sequential" && kernel != "timewarp") {
    cli.usage_error("--kernel must be sequential or timewarp");
  }
  const EngineKind kind =
      kernel == "timewarp" ? EngineKind::TimeWarp : EngineKind::Sequential;
  const std::int64_t seed = cli.get_int("seed", 1);
  if (seed < 0) cli.usage_error("--seed must be non-negative");
  const bool traced = cli.get_bool("traced", false);

  const RunResult r =
      run_once(*w, kind, static_cast<std::uint64_t>(seed), traced);
  write_result(*w, kind, static_cast<std::uint64_t>(seed), traced, r);
  return 0;
}
