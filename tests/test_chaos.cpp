// Chaos matrix + optimism flow control tests.
//
// The determinism invariant under test: a FaultPlan only perturbs *delivery
// timing* on the remote path, so every chaotic Time Warp run must commit
// bit-identical results to the fault-free sequential reference — while the
// chaos counters prove the faults actually fired. The flow-control tests
// squeeze the same workload through a fraction of its unthrottled envelope
// peak and require graceful degradation (throttling, never abort, never
// past the budget) with, again, identical committed state.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <string>

#include "core/simulation.hpp"
#include "des/engine.hpp"
#include "des/fault.hpp"
#include "des/phold.hpp"
#include "des/watchdog.hpp"

namespace hp::des {
namespace {

using obs::Counter;

// ---------------------------------------------------------------- parsing

TEST(FaultPlanParse, EmptySpecIsDisarmed) {
  FaultPlan p;
  std::string err;
  EXPECT_TRUE(FaultPlan::parse("", p, err)) << err;
  EXPECT_FALSE(p.any());
  EXPECT_EQ(p.to_string(), "off");
}

TEST(FaultPlanParse, FullSpec) {
  FaultPlan p;
  std::string err;
  ASSERT_TRUE(FaultPlan::parse(
      "delay:p=0.2,k=2; reorder:p=0.5 ;straggler:p=0.3,margin=7;"
      "dup-anti:p=0.1;stall:pe=1,rounds=4,at=2;seed=42",
      p, err))
      << err;
  EXPECT_DOUBLE_EQ(p.delay_prob, 0.2);
  EXPECT_EQ(p.delay_rounds, 2u);
  EXPECT_DOUBLE_EQ(p.reorder_prob, 0.5);
  EXPECT_DOUBLE_EQ(p.straggler_prob, 0.3);
  EXPECT_DOUBLE_EQ(p.straggler_margin, 7.0);
  EXPECT_DOUBLE_EQ(p.dup_anti_prob, 0.1);
  EXPECT_EQ(p.stall_pe, 1u);
  EXPECT_EQ(p.stall_rounds, 4u);
  EXPECT_EQ(p.stall_at, 2u);
  EXPECT_EQ(p.seed, 42u);
  EXPECT_TRUE(p.any());
}

TEST(FaultPlanParse, ToStringRoundTrips) {
  FaultPlan p;
  std::string err;
  ASSERT_TRUE(FaultPlan::parse(
      "delay:p=0.25,k=3;dup-anti:p=0.5;stall:pe=0,rounds=2;seed=9", p, err));
  FaultPlan q;
  ASSERT_TRUE(FaultPlan::parse(p.to_string(), q, err)) << err;
  EXPECT_EQ(p, q);
}

TEST(FaultPlanParse, RejectsMalformedSpecs) {
  const char* bad[] = {
      "bogus",                 // unknown clause
      "delay",                 // missing parameters
      "delay:p=1.5",           // probability out of range
      "delay:p=-0.1",          // probability out of range
      "delay:p=nope",          // non-numeric
      "delay:p=0.5x",          // trailing junk
      "delay:p=0.2,k=0",       // zero hold rounds
      "delay:q=0.2",           // unknown key
      "reorder:p=",            // empty value
      "straggler:p=0.2,m=abc", // non-numeric margin
      "stall:pe=1",            // stall without rounds
      "stall:rounds=3",        // stall without pe
      "seed=abc",              // non-numeric seed
      ";;=",                   // garbage
  };
  for (const char* spec : bad) {
    FaultPlan p;
    std::string err;
    EXPECT_FALSE(FaultPlan::parse(spec, p, err)) << "accepted: " << spec;
    EXPECT_FALSE(err.empty()) << spec;
  }
}

TEST(FaultPlanParse, FailedParseLeavesOutUntouched) {
  FaultPlan p;
  std::string err;
  ASSERT_TRUE(FaultPlan::parse("delay:p=0.5,k=4", p, err));
  const FaultPlan before = p;
  EXPECT_FALSE(FaultPlan::parse("delay:p=2.0", p, err));
  EXPECT_EQ(p, before);
}

// ----------------------------------------------------------- chaos matrix

struct ChaosCase {
  const char* name;
  const char* spec;
  // Counter that proves this plan's fault actually fired.
  Counter witness;
};

// gtest appends the printed parameter to every ctest name. Print the case,
// not the default byte dump (which embeds string-literal addresses), so the
// names are the same in every build. The `/barrier` suffix is the GVT
// algorithm the cells were written under, kept so each cell's history stays
// under one test id.
void PrintTo(const ChaosCase& c, std::ostream* os) {
  *os << c.name << "/barrier";
}

class ChaosMatrix : public ::testing::TestWithParam<ChaosCase> {};

// Every fault plan, on a rollback-heavy PHOLD load at 4 PEs, commits
// bit-identical state to the fault-free sequential reference.
TEST_P(ChaosMatrix, DeliveryFaultsNeverChangeCommittedState) {
  const ChaosCase fault = GetParam();

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

  ec.num_pes = 4;
  ec.num_kps = 16;
  ec.gvt_interval_events = 96;
  std::string err;
  ASSERT_TRUE(FaultPlan::parse(fault.spec, ec.fault, err)) << err;
  ASSERT_TRUE(ec.fault.any());

  PholdModel m2(pc);
  std::unique_ptr<Engine> tw = make_engine(EngineKind::TimeWarp, m2, ec);
  const RunStats tstats = tw->run();

  EXPECT_EQ(sstats.committed_events(), tstats.committed_events());
  EXPECT_EQ(PholdModel::digest(*seq), PholdModel::digest(*tw));
  EXPECT_EQ(tstats.committed_events(),
            tstats.processed_events() - tstats.rolled_back_events());
  // The plan must have actually done something, or the test proves nothing.
  EXPECT_GT(tstats.metrics.total.at(fault.witness), 0u)
      << "fault plan " << fault.spec << " never fired";
}

// A chaotic run with a fixed plan is itself exactly repeatable.
TEST(ChaosMatrix, ChaoticRunIsRepeatable) {
  PholdConfig pc;
  pc.num_lps = 32;
  pc.remote_fraction = 0.7;
  pc.lookahead = 0.05;

  EngineConfig ec;
  ec.num_lps = pc.num_lps;
  ec.end_time = 60.0;
  ec.seed = 11;
  ec.num_pes = 4;
  ec.num_kps = 16;
  ec.gvt_interval_events = 96;
  std::string err;
  ASSERT_TRUE(FaultPlan::parse(
      "delay:p=0.3,k=2;reorder:p=0.5;dup-anti:p=0.3;seed=5", ec.fault, err));

  PholdModel m1(pc);
  std::unique_ptr<Engine> a = make_engine(EngineKind::TimeWarp, m1, ec);
  a->run();
  PholdModel m2(pc);
  std::unique_ptr<Engine> b = make_engine(EngineKind::TimeWarp, m2, ec);
  b->run();
  EXPECT_EQ(PholdModel::digest(*a), PholdModel::digest(*b));
}

constexpr ChaosCase kDelay = {"delay", "delay:p=0.3,k=2;seed=7",
                              Counter::ChaosDelayedEvents};
constexpr ChaosCase kReorder = {"reorder", "reorder:p=0.6;seed=7",
                                Counter::ChaosReorderedEvents};
constexpr ChaosCase kStraggler = {
    "straggler", "straggler:p=0.5,margin=5;seed=7", Counter::ChaosStragglers};
constexpr ChaosCase kDupAnti = {"dupanti", "dup-anti:p=0.5;seed=7",
                                Counter::ChaosDupAntis};
constexpr ChaosCase kStall = {"stall", "stall:pe=1,rounds=6,at=2",
                              Counter::ChaosStallRounds};
constexpr ChaosCase kCombined = {
    "combined",
    "delay:p=0.2,k=2;reorder:p=0.4;straggler:p=0.3;dup-anti:p=0.3;"
    "stall:pe=2,rounds=3,at=1;seed=13",
    Counter::ChaosDelayedEvents};

// Cell ids keep the `_splay` token of the queue backend the cells were
// written for, so that each cell's history stays under one test id. Every
// cell runs the ladder queue.
INSTANTIATE_TEST_SUITE_P(
    FaultSweep, ChaosMatrix,
    ::testing::Values(kDelay, kReorder, kStraggler, kDupAnti, kStall,
                      kCombined),
    [](const auto& info) { return std::string(info.param.name) + "_splay"; });

// Full-stack variant: hot-potato torus through the core facade; the whole
// obs::ModelChannel (every named model metric) must match the sequential
// run under combined chaos.
TEST(ChaosHotPotato, ModelChannelIdenticalUnderCombinedChaos) {
  core::SimulationOptions base;
  base.model.n = 8;
  base.model.injector_fraction = 0.75;
  base.model.steps = 32;
  const auto seq = core::run_hotpotato(base);

  core::SimulationOptions opts = base;
  opts.kernel = core::Kernel::TimeWarp;
  opts.engine.num_pes = 4;
  opts.engine.num_kps = 16;
  opts.engine.gvt_interval_events = 256;
  std::string err;
  ASSERT_TRUE(FaultPlan::parse(
      "delay:p=0.2,k=2;reorder:p=0.4;straggler:p=0.3;dup-anti:p=0.3;seed=3",
      opts.engine.fault, err))
      << err;
  const auto tw = core::run_hotpotato(opts);

  EXPECT_TRUE(tw.model == seq.model);
  EXPECT_TRUE(tw.report == seq.report);
  EXPECT_EQ(tw.engine.committed_events(), seq.engine.committed_events());
}

// ----------------------------------------------------- optimism flow control

namespace flow {

PholdConfig phold_config() {
  PholdConfig pc;
  pc.num_lps = 48;
  pc.remote_fraction = 0.7;
  pc.lookahead = 0.05;
  return pc;
}

EngineConfig engine_config() {
  PholdConfig pc = phold_config();
  EngineConfig ec;
  ec.num_lps = pc.num_lps;
  ec.end_time = 80.0;
  ec.seed = 23;
  ec.num_pes = 4;
  ec.num_kps = 16;
  // Moderate interval: fossil collection cadence bounds how much the
  // unthrottled run can hoard, keeping the budgeted rerun meaningful.
  ec.gvt_interval_events = 96;
  return ec;
}

}  // namespace flow

TEST(FlowControl, BudgetedRunIsIdenticalAndStaysUnderBudget) {
  PholdConfig pc = flow::phold_config();
  EngineConfig ec = flow::engine_config();

  // Reference: sequential, and an unthrottled Time Warp run to measure the
  // natural per-PE live-envelope peak.
  PholdModel ms(pc);
  std::unique_ptr<Engine> seq = make_engine(EngineKind::Sequential, ms, ec);
  seq->run();

  PholdModel m1(pc);
  std::unique_ptr<Engine> free_run =
      make_engine(EngineKind::TimeWarp, m1, ec);
  const RunStats fstats = free_run->run();
  // PoolPeakLive reduces by Max across PEs: the worst single PE's peak.
  const std::uint64_t peak = fstats.metrics.total.at(Counter::PoolPeakLive);
  ASSERT_GT(peak, 0u);

  // Squeeze: ~25% of the unthrottled peak (floor 64 keeps the watermarks
  // meaningful on tiny runs).
  const std::uint64_t budget = std::max<std::uint64_t>(peak / 4, 64);
  ec.pool_budget_envelopes = budget;
  PholdModel m2(pc);
  std::unique_ptr<Engine> tight = make_engine(EngineKind::TimeWarp, m2, ec);
  const RunStats tstats = tight->run();

  // Graceful degradation: identical results, no abort.
  EXPECT_EQ(PholdModel::digest(*seq), PholdModel::digest(*tight));
  EXPECT_EQ(fstats.committed_events(), tstats.committed_events());

  if (peak / 4 >= 64) {
    // The squeeze was real: the throttle must have engaged...
    EXPECT_GT(tstats.metrics.total.at(Counter::ThrottleEntries), 0u);
  }
  // ...and no PE's live envelope count ever exceeded its budget.
  for (const obs::PeMetrics& pe : tstats.per_pe()) {
    EXPECT_LE(pe.pool_peak_live(), budget);
  }
}

TEST(FlowControl, ThrottlingComposesWithChaos) {
  PholdConfig pc = flow::phold_config();
  EngineConfig ec = flow::engine_config();

  PholdModel ms(pc);
  std::unique_ptr<Engine> seq = make_engine(EngineKind::Sequential, ms, ec);
  seq->run();

  ec.pool_budget_envelopes = 256;
  std::string err;
  ASSERT_TRUE(FaultPlan::parse(
      "delay:p=0.2,k=2;straggler:p=0.3;dup-anti:p=0.3;seed=17", ec.fault,
      err));
  PholdModel m(pc);
  std::unique_ptr<Engine> tw = make_engine(EngineKind::TimeWarp, m, ec);
  const RunStats tstats = tw->run();

  EXPECT_EQ(PholdModel::digest(*seq), PholdModel::digest(*tw));
  for (const obs::PeMetrics& pe : tstats.per_pe()) {
    EXPECT_LE(pe.pool_peak_live(), 256u);
  }
}

// A budget tight enough to hit the hard watermark: a blocked PE forces a
// GVT round whose fossil collection frees envelopes, so the run completes,
// stays under budget on every PE and commits the sequential state.
TEST(FlowControl, HardBlockForcesRoundAndStaysIdentical) {
  PholdConfig pc = flow::phold_config();
  EngineConfig ec = flow::engine_config();

  PholdModel ms(pc);
  std::unique_ptr<Engine> seq = make_engine(EngineKind::Sequential, ms, ec);
  seq->run();

  ec.pool_budget_envelopes = 128;
  PholdModel m(pc);
  std::unique_ptr<Engine> tw = make_engine(EngineKind::TimeWarp, m, ec);
  const RunStats tstats = tw->run();

  EXPECT_EQ(PholdModel::digest(*seq), PholdModel::digest(*tw));
  for (const obs::PeMetrics& pe : tstats.per_pe()) {
    EXPECT_LE(pe.pool_peak_live(), 128u);
  }
  EXPECT_GT(tstats.metrics.total.hard_blocks(), 0u);
  EXPECT_GT(tstats.metrics.total.at(Counter::GvtPoolTriggers), 0u);
}

// Throttling is pure pacing: the same budget twice gives the same digest
// and the same committed count as an unthrottled run (already checked
// above); here the budgeted run must also be internally repeatable.
TEST(FlowControl, BudgetedRunIsRepeatable) {
  PholdConfig pc = flow::phold_config();
  EngineConfig ec = flow::engine_config();
  ec.pool_budget_envelopes = 128;

  PholdModel m1(pc);
  std::unique_ptr<Engine> a = make_engine(EngineKind::TimeWarp, m1, ec);
  a->run();
  PholdModel m2(pc);
  std::unique_ptr<Engine> b = make_engine(EngineKind::TimeWarp, m2, ec);
  b->run();
  EXPECT_EQ(PholdModel::digest(*a), PholdModel::digest(*b));
}

// A budget the seeded events alone already fill cannot be held: the run
// still completes, but the engine says so once on stderr, naming the PE.
// The quickstart Time Warp config (16x16 torus, 4 PEs, 64 KPs) seeds up to
// 287 envelopes on one PE: budget 64 (hard mark 48) cannot hold them,
// budget 1024 (hard mark 768) can.
std::string budget_warning(std::uint64_t budget) {
  core::SimulationOptions opts;
  opts.model.n = 16;
  opts.model.injector_fraction = 0.5;
  opts.model.steps = 20;
  opts.kernel = core::Kernel::TimeWarp;
  opts.engine.seed = 1;
  opts.engine.num_pes = 4;
  opts.engine.num_kps = 64;
  opts.engine.optimism_window = 30.0;
  opts.engine.pool_budget_envelopes = budget;
  ::testing::internal::CaptureStderr();
  core::run_hotpotato(opts);
  return ::testing::internal::GetCapturedStderr();
}

TEST(FlowControl, WarnsWhenTheSeededWorkingSetFillsTheBudget) {
  const std::string tight = budget_warning(64);
  EXPECT_NE(tight.find("warning: pool budget of 64 envelopes"),
            std::string::npos)
      << tight;
  EXPECT_NE(tight.find("PE 3 holds 287 envelopes"), std::string::npos)
      << tight;
  EXPECT_NE(tight.find("hard mark 48"), std::string::npos) << tight;
  const std::string roomy = budget_warning(1024);
  EXPECT_EQ(roomy.find("warning: pool budget"), std::string::npos) << roomy;
}

// --------------------------------------------------- watchdog x PE stalls
//
// The watchdog must tell two fates apart: a FaultPlan stall that ends on
// its own (the stalled PE keeps joining GVT barriers, the frontier keeps
// moving, the run completes) and a genuinely wedged PE (nothing moves for
// the whole timeout). The first must never escalate; the second must fail
// loudly with the structured dump and the distinct exit code.

TEST(WatchdogChaos, BenignStallCompletesWithoutEscalation) {
  PholdConfig pc = flow::phold_config();
  EngineConfig ec = flow::engine_config();

  PholdModel ms(pc);
  std::unique_ptr<Engine> seq = make_engine(EngineKind::Sequential, ms, ec);
  seq->run();

  std::string err;
  ASSERT_TRUE(FaultPlan::parse("stall:pe=1,rounds=6,at=2", ec.fault, err))
      << err;
  // Generous bound: the stall is long in GVT rounds but short on the wall
  // clock, so a correct watchdog sees continuous progress.
  ASSERT_TRUE(WatchdogConfig::parse("timeout=60000,poll=20", ec.watchdog,
                                    err))
      << err;
  PholdModel m(pc);
  std::unique_ptr<Engine> tw = make_engine(EngineKind::TimeWarp, m, ec);
  const RunStats tstats = tw->run();

  EXPECT_EQ(PholdModel::digest(*seq), PholdModel::digest(*tw));
  EXPECT_GT(tstats.metrics.total.at(Counter::ChaosStallRounds), 0u)
      << "the stall never fired, so this proved nothing";
}

TEST(WatchdogChaosDeathTest, WedgedPeDumpsDiagnosticsAndExits86) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  PholdConfig pc = flow::phold_config();
  EngineConfig ec = flow::engine_config();
  std::string err;
  // A stall window that outlives any plausible test runtime: GVT can never
  // pass the wedged PE's published minimum, so the frontier goes flat.
  ASSERT_TRUE(
      FaultPlan::parse("stall:pe=1,rounds=1000000000,at=2", ec.fault, err))
      << err;
  ASSERT_TRUE(WatchdogConfig::parse("timeout=500,poll=20", ec.watchdog, err))
      << err;

  EXPECT_EXIT(
      {
        PholdModel m(pc);
        std::unique_ptr<Engine> tw = make_engine(EngineKind::TimeWarp, m, ec);
        tw->run();
      },
      ::testing::ExitedWithCode(kStallExitCode), "stall watchdog");
}

}  // namespace
}  // namespace hp::des
