// Broad configuration-matrix equivalence fuzz: every combination of engine
// knobs must produce results bit-identical to the sequential reference on a
// rollback-heavy PHOLD load. This is the repository's strongest single
// correctness statement about the Time Warp kernel.
//
// Both kernels are built and driven through the common des::Engine interface
// (make_engine / run / for_each_state) — no per-kernel code paths.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "des/engine.hpp"
#include "des/phold.hpp"

namespace hp::des {
namespace {

struct Knobs {
  std::uint32_t pes;
  std::uint32_t kps;
  double window;  // <= 0 means infinite
  EngineConfig::Cancellation cancellation;
  bool state_saving;
};

class EngineMatrix : public ::testing::TestWithParam<Knobs> {};

TEST_P(EngineMatrix, BitIdenticalToSequential) {
  const Knobs k = GetParam();
  PholdConfig pc;
  pc.num_lps = 48;
  pc.remote_fraction = 0.7;
  pc.lookahead = 0.05;  // straggler-heavy

  EngineConfig ec;
  ec.num_lps = pc.num_lps;
  ec.end_time = 80.0;
  ec.seed = 23;

  PholdModel m1(pc);
  std::unique_ptr<Engine> seq = make_engine(EngineKind::Sequential, m1, ec);
  const RunStats sstats = seq->run();

  ec.num_pes = k.pes;
  ec.num_kps = k.kps;
  ec.gvt_interval_events = 96;
  ec.optimism_window = k.window > 0 ? k.window : kTimeInf;
  ec.cancellation = k.cancellation;
  ec.state_saving = k.state_saving;
  PholdModel m2(pc);
  std::unique_ptr<Engine> tw = make_engine(EngineKind::TimeWarp, m2, ec);
  const RunStats tstats = tw->run();

  EXPECT_EQ(sstats.committed_events(), tstats.committed_events());
  EXPECT_EQ(PholdModel::digest(*seq), PholdModel::digest(*tw));
  EXPECT_EQ(tstats.committed_events(),
            tstats.processed_events() - tstats.rolled_back_events());

  // The reported totals must be exactly the declared reduction of the
  // per-PE breakdown (the engines no longer sum by hand).
  ASSERT_EQ(tstats.per_pe().size(), k.pes);
  EXPECT_EQ(obs::reduce(tstats.per_pe()), tstats.metrics.total);
}

constexpr auto kAgg = EngineConfig::Cancellation::Aggressive;
constexpr auto kLazy = EngineConfig::Cancellation::Lazy;
// Cell ids keep the `_splay` token of the queue backend the cells were
// written for, so that each cell's history stays under one test id. Every
// cell runs the ladder queue and the barrier GVT.
INSTANTIATE_TEST_SUITE_P(
    KnobSweep, EngineMatrix,
    ::testing::Values(Knobs{2, 8, 0.0, kAgg, false},
                      Knobs{2, 8, 0.0, kLazy, false},
                      Knobs{2, 8, 0.0, kAgg, true},
                      Knobs{4, 16, 0.0, kLazy, false},
                      Knobs{4, 16, 5.0, kAgg, false},
                      Knobs{4, 16, 5.0, kLazy, false},
                      Knobs{3, 12, 2.0, kLazy, true},
                      Knobs{8, 24, 10.0, kAgg, false}),
    [](const auto& info) {
      const Knobs& k = info.param;
      std::string name = "pe" + std::to_string(k.pes) + "_kp" +
                         std::to_string(k.kps) + "_w" +
                         std::to_string(static_cast<int>(k.window)) +
                         "_splay" +
                         (k.cancellation == kLazy ? "_lazy" : "_agg") +
                         (k.state_saving ? "_ss" : "_rc");
      return name;
    });

}  // namespace
}  // namespace hp::des
