#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "des/sequential.hpp"
#include "des/timewarp.hpp"
#include "tests/toy_models.hpp"

namespace hp::des {
namespace {

using testing::PholdModel;
using testing::RingModel;
using testing::ToyState;

struct LpDigest {
  std::uint64_t count;
  std::uint64_t xor_fold;
  std::uint64_t ordered_hash;
  bool operator==(const LpDigest&) const = default;
};

template <typename Engine>
std::vector<LpDigest> digest(Engine& eng, std::uint32_t num_lps) {
  std::vector<LpDigest> out;
  out.reserve(num_lps);
  for (std::uint32_t lp = 0; lp < num_lps; ++lp) {
    auto& s = static_cast<ToyState&>(eng.state(lp));
    out.push_back({s.count, s.xor_fold, s.ordered_hash});
  }
  return out;
}

// The core equivalence property (report Attachment 3): Time Warp execution
// at any PE/KP configuration produces exactly the sequential results.
class TimeWarpEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(TimeWarpEquivalence, MatchesSequentialPhold) {
  const auto [num_pes, num_kps, gvt_interval] = GetParam();
  constexpr std::uint32_t kLps = 32;
  constexpr double kEnd = 60.0;

  PholdModel model(kLps, 1.0, 0.05);
  EngineConfig scfg;
  scfg.num_lps = kLps;
  scfg.end_time = kEnd;
  scfg.seed = 11;
  SequentialEngine seq(model, scfg);
  const RunStats sstats = seq.run();

  EngineConfig tcfg = scfg;
  tcfg.num_pes = static_cast<std::uint32_t>(num_pes);
  tcfg.num_kps = static_cast<std::uint32_t>(num_kps);
  tcfg.gvt_interval_events = static_cast<std::uint32_t>(gvt_interval);
  TimeWarpEngine tw(model, tcfg);
  const RunStats tstats = tw.run();

  EXPECT_EQ(tstats.committed_events(), sstats.committed_events());
  EXPECT_EQ(digest(tw, kLps), digest(seq, kLps));
  EXPECT_GE(tstats.processed_events(), tstats.committed_events());
}

INSTANTIATE_TEST_SUITE_P(
    PeKpSweep, TimeWarpEquivalence,
    ::testing::Values(std::make_tuple(1, 1, 512),
                      std::make_tuple(1, 4, 512),
                      std::make_tuple(2, 2, 512),
                      std::make_tuple(2, 8, 128),
                      std::make_tuple(4, 4, 64),
                      std::make_tuple(4, 16, 256),
                      std::make_tuple(4, 32, 32),
                      std::make_tuple(8, 16, 128)),
    [](const auto& info) {
      return "pe" + std::to_string(std::get<0>(info.param)) + "_kp" +
             std::to_string(std::get<1>(info.param)) + "_gvt" +
             std::to_string(std::get<2>(info.param));
    });

// Remote-path stress: a PHOLD load with near-zero lookahead, uniform
// cross-LP traffic and a tiny GVT interval at 4 PEs hammers the lock-free
// inbox — cross-PE stragglers roll KPs back constantly, rollbacks batch
// anti-messages to every peer, and annihilation has to catch positives in
// pending, processed and in-flight states. Committed state must stay
// bit-identical to the sequential kernel under both cancellation strategies
// (lazy exercises stale-child adoption across the same remote channel).
class TimeWarpRemoteStress
    : public ::testing::TestWithParam<EngineConfig::Cancellation> {};

TEST_P(TimeWarpRemoteStress, CommittedStateMatchesSequential) {
  const EngineConfig::Cancellation cancellation = GetParam();
  constexpr std::uint32_t kLps = 48;
  constexpr double kEnd = 80.0;

  PholdModel model(kLps, 1.0, 0.005);  // near-zero lookahead => stragglers
  EngineConfig scfg;
  scfg.num_lps = kLps;
  scfg.end_time = kEnd;
  scfg.seed = 23;
  SequentialEngine seq(model, scfg);
  const RunStats s = seq.run();

  EngineConfig tcfg = scfg;
  tcfg.num_pes = 4;
  tcfg.num_kps = 16;
  tcfg.gvt_interval_events = 24;  // frequent rounds keep batches small+hot
  tcfg.cancellation = cancellation;
  TimeWarpEngine tw(model, tcfg);
  const RunStats t = tw.run();

  EXPECT_EQ(t.committed_events(), s.committed_events());
  EXPECT_EQ(digest(tw, kLps), digest(seq, kLps));
  // Every PE owns LPs under the linear mapping and PHOLD hits all of them,
  // so the remote path is exercised by construction.
  ASSERT_EQ(t.per_pe().size(), 4u);
  for (const auto& pe : t.per_pe()) EXPECT_GT(pe.processed_events(), 0u);
  EXPECT_GT(t.inbox_batches(), 0u) << "no remote batch was ever published";
  EXPECT_GE(t.inbox_batched_items(), t.inbox_batches());
}

// The suite and cell names keep the GVT axis they were written with, so
// that each cell's history stays under one test id.
INSTANTIATE_TEST_SUITE_P(
    GvtAndCancellationMatrix, TimeWarpRemoteStress,
    ::testing::Values(EngineConfig::Cancellation::Aggressive,
                      EngineConfig::Cancellation::Lazy),
    [](const auto& info) {
      return std::string(info.param == EngineConfig::Cancellation::Aggressive
                             ? "barrier_aggressive"
                             : "barrier_lazy");
    });

TEST(TimeWarpEngine, RingMatchesSequentialExactly) {
  RingModel model(8, 1.0);
  EngineConfig cfg;
  cfg.num_lps = 8;
  cfg.end_time = 200.0;
  SequentialEngine seq(model, cfg);
  const RunStats s = seq.run();

  EngineConfig tcfg = cfg;
  tcfg.num_pes = 2;
  tcfg.num_kps = 4;
  tcfg.gvt_interval_events = 32;
  TimeWarpEngine tw(model, tcfg);
  const RunStats t = tw.run();
  EXPECT_EQ(t.committed_events(), s.committed_events());
  EXPECT_EQ(digest(tw, 8), digest(seq, 8));
}

TEST(TimeWarpEngine, StateSavingModeMatchesReverseComputation) {
  constexpr std::uint32_t kLps = 16;
  PholdModel model(kLps, 1.0, 0.05);
  EngineConfig cfg;
  cfg.num_lps = kLps;
  cfg.end_time = 40.0;
  cfg.seed = 5;
  cfg.num_pes = 4;
  cfg.num_kps = 8;
  cfg.gvt_interval_events = 64;

  TimeWarpEngine rc(model, cfg);
  const RunStats rstats = rc.run();

  cfg.state_saving = true;
  TimeWarpEngine ss(model, cfg);
  const RunStats sstats = ss.run();

  EXPECT_EQ(rstats.committed_events(), sstats.committed_events());
  EXPECT_EQ(digest(rc, kLps), digest(ss, kLps));
}

TEST(TimeWarpEngine, SmallGvtIntervalForcesRollbacksButStaysCorrect) {
  constexpr std::uint32_t kLps = 24;
  PholdModel model(kLps, 1.0, 0.01);  // tiny lookahead => many stragglers
  EngineConfig cfg;
  cfg.num_lps = kLps;
  cfg.end_time = 50.0;
  cfg.seed = 17;
  SequentialEngine seq(model, cfg);
  const RunStats s = seq.run();

  EngineConfig tcfg = cfg;
  tcfg.num_pes = 4;
  tcfg.num_kps = 8;
  tcfg.gvt_interval_events = 16;
  TimeWarpEngine tw(model, tcfg);
  const RunStats t = tw.run();
  EXPECT_EQ(t.committed_events(), s.committed_events());
  EXPECT_EQ(digest(tw, kLps), digest(seq, kLps));
}

TEST(TimeWarpEngine, NoWorkTerminates) {
  RingModel model(4, 1.0);
  EngineConfig cfg;
  cfg.num_lps = 4;
  cfg.end_time = 0.25;  // the seed event at t=1 is beyond the end time
  cfg.num_pes = 2;
  cfg.num_kps = 2;
  TimeWarpEngine tw(model, cfg);
  const RunStats t = tw.run();
  EXPECT_EQ(t.committed_events(), 0u);
}

TEST(TimeWarpEngine, GvtRoundsHappen) {
  PholdModel model(16, 1.0, 0.05);
  EngineConfig cfg;
  cfg.num_lps = 16;
  cfg.end_time = 50.0;
  cfg.num_pes = 2;
  cfg.num_kps = 4;
  cfg.gvt_interval_events = 64;
  TimeWarpEngine tw(model, cfg);
  const RunStats t = tw.run();
  EXPECT_GE(t.gvt_rounds(), 2u);
  EXPECT_GT(t.final_gvt(), cfg.end_time);
}

// A model that schedules nothing at all: the engine must terminate at once
// with GVT = +inf rather than spin.
class EmptyModel final : public Model {
 public:
  std::unique_ptr<LpState> make_state(std::uint32_t) override {
    return std::make_unique<testing::ToyState>();
  }
  void init_lp(std::uint32_t, InitContext&) override {}
  void forward(LpState&, Event&, Context&) override {}
  void reverse(LpState&, Event&, Context&) override {}
};

TEST(TimeWarpEngine, EmptyModelTerminatesAtEveryPeCount) {
  for (const std::uint32_t pes : {1u, 2u, 4u}) {
    EmptyModel model;
    EngineConfig cfg;
    cfg.num_lps = 8;
    cfg.end_time = 1000.0;
    cfg.num_pes = pes;
    cfg.num_kps = 8;
    TimeWarpEngine tw(model, cfg);
    const RunStats t = tw.run();
    EXPECT_EQ(t.committed_events(), 0u);
    EXPECT_EQ(t.processed_events(), 0u);
  }
}

TEST(TimeWarpEngine, EventsBeyondEndTimeAreNeverExecuted) {
  // The ring token advances 1.0 per event; exactly floor(end) events fit.
  testing::RingModel model(4, 1.0);
  EngineConfig cfg;
  cfg.num_lps = 4;
  cfg.end_time = 37.5;
  cfg.num_pes = 2;
  cfg.num_kps = 4;
  TimeWarpEngine tw(model, cfg);
  const RunStats t = tw.run();
  EXPECT_EQ(t.committed_events(), 37u);
}

TEST(TimeWarpEngine, TinyOptimismWindowStillCompletes) {
  testing::PholdModel model(16, 1.0, 0.05);
  EngineConfig cfg;
  cfg.num_lps = 16;
  cfg.end_time = 40.0;
  cfg.num_pes = 2;
  cfg.num_kps = 8;
  cfg.optimism_window = 0.5;  // barely wider than the lookahead
  TimeWarpEngine tw(model, cfg);
  const RunStats t = tw.run();
  EngineConfig seq_cfg;
  seq_cfg.num_lps = 16;
  seq_cfg.end_time = 40.0;
  SequentialEngine seq(model, seq_cfg);
  const RunStats s = seq.run();
  EXPECT_EQ(t.committed_events(), s.committed_events());
  EXPECT_GT(t.gvt_rounds(), 10u) << "a tight window forces many GVT rounds";
}

TEST(TimeWarpEngine, RejectsBadConfig) {
  RingModel model(4, 1.0);
  EngineConfig cfg;
  cfg.num_lps = 4;
  cfg.end_time = 1.0;
  cfg.num_pes = 4;
  cfg.num_kps = 2;  // fewer KPs than PEs
  EXPECT_DEATH({ TimeWarpEngine tw(model, cfg); }, "KP");
}

}  // namespace
}  // namespace hp::des
