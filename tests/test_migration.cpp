// Dynamic KP migration tests.
//
// The invariant under test: migration only changes *where* a KP's events
// execute, never their order — the EventKey is model-derived and placement-
// independent — so every migrated Time Warp run must commit bit-identical
// results to the sequential reference, at any cadence, composed with any
// fault plan and either pending-queue backend. The unit tests below pin the
// planner (pure function: same inputs, same plan on every PE) and the
// ownership table the handoff rewrites.

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "des/engine.hpp"
#include "des/fault.hpp"
#include "des/migration.hpp"
#include "des/phold.hpp"
#include "net/mapping.hpp"

namespace hp::des {
namespace {

using obs::Counter;

// ---------------------------------------------------------------- parsing

TEST(MigrationConfigParse, EmptySpecArmsDefaults) {
  MigrationConfig c;
  std::string err;
  ASSERT_TRUE(MigrationConfig::parse("", c, err)) << err;
  EXPECT_TRUE(c.enabled);
  EXPECT_EQ(c.interval_rounds, 4u);
  EXPECT_DOUBLE_EQ(c.imbalance_threshold, 1.5);
  EXPECT_EQ(c.max_moves, 1u);
  EXPECT_FALSE(c.forced);
}

TEST(MigrationConfigParse, FullSpec) {
  MigrationConfig c;
  std::string err;
  ASSERT_TRUE(
      MigrationConfig::parse("every=8, imbalance=1.25 ,max=2", c, err))
      << err;
  EXPECT_TRUE(c.enabled);
  EXPECT_EQ(c.interval_rounds, 8u);
  EXPECT_DOUBLE_EQ(c.imbalance_threshold, 1.25);
  EXPECT_EQ(c.max_moves, 2u);
  EXPECT_FALSE(c.forced);

  ASSERT_TRUE(MigrationConfig::parse("forced,every=1", c, err)) << err;
  EXPECT_TRUE(c.forced);
  EXPECT_EQ(c.interval_rounds, 1u);
}

TEST(MigrationConfigParse, ToStringRoundTrips) {
  MigrationConfig c;
  std::string err;
  ASSERT_TRUE(MigrationConfig::parse("forced,every=2,max=3", c, err));
  MigrationConfig d;
  ASSERT_TRUE(MigrationConfig::parse(c.to_string(), d, err)) << err;
  EXPECT_EQ(c, d);
  EXPECT_EQ(MigrationConfig{}.to_string(), "off");
}

TEST(MigrationConfigParse, RejectsMalformedSpecs) {
  const char* bad[] = {
      "bogus",          // unknown bare word
      "every=0",        // zero interval
      "every=abc",      // non-numeric
      "every=-2",       // negative
      "imbalance=0.5",  // below 1
      "imbalance=x",    // non-numeric
      "max=0",          // zero moves
      "every=",         // empty value
      "=3",             // empty key
      "force=1",        // unknown key
  };
  for (const char* spec : bad) {
    MigrationConfig c;
    std::string err;
    EXPECT_FALSE(MigrationConfig::parse(spec, c, err)) << "accepted: " << spec;
    EXPECT_FALSE(err.empty()) << spec;
  }
}

TEST(MigrationConfigParse, FailedParseLeavesOutUntouched) {
  MigrationConfig c;
  std::string err;
  ASSERT_TRUE(MigrationConfig::parse("every=6", c, err));
  const MigrationConfig before = c;
  EXPECT_FALSE(MigrationConfig::parse("every=0", c, err));
  EXPECT_EQ(c, before);
}

// -------------------------------------------------------- ownership table

TEST(OwnershipTable, MirrorsMappingAfterReset) {
  net::BlockMapping m(/*n=*/4, /*num_kps=*/8, /*num_pes=*/2);
  net::OwnershipTable t;
  t.reset(m);
  ASSERT_EQ(t.num_kps(), 8u);
  ASSERT_EQ(t.num_lps(), 16u);
  EXPECT_EQ(t.epoch(), 0u);
  for (std::uint32_t kp = 0; kp < 8; ++kp) {
    EXPECT_EQ(t.pe_of_kp(kp), m.pe_of_kp(kp));
  }
  for (std::uint32_t lp = 0; lp < 16; ++lp) {
    EXPECT_EQ(t.pe_of_lp(lp), m.pe_of_kp(m.kp_of(lp)));
    EXPECT_EQ(t.pe_of_lp(lp), t.pe_of_kp(m.kp_of(lp)));
  }
}

TEST(OwnershipTable, SetKpOwnerRehomesEveryLpOfTheKp) {
  net::LinearMapping m(/*num_lps=*/24, /*num_kps=*/6, /*num_pes=*/3);
  net::OwnershipTable t;
  t.reset(m);
  const std::uint32_t kp = 1;
  const std::uint32_t old_pe = t.pe_of_kp(kp);
  const std::uint32_t new_pe = (old_pe + 1) % 3;
  t.set_kp_owner(kp, new_pe);
  t.bump_epoch();
  EXPECT_EQ(t.epoch(), 1u);
  EXPECT_EQ(t.pe_of_kp(kp), new_pe);
  for (const std::uint32_t lp : t.lps_of_kp(kp)) {
    EXPECT_EQ(m.kp_of(lp), kp);
    EXPECT_EQ(t.pe_of_lp(lp), new_pe);
  }
  // Every other KP (and its LPs) is untouched.
  for (std::uint32_t k = 0; k < 6; ++k) {
    if (k == kp) continue;
    EXPECT_EQ(t.pe_of_kp(k), m.pe_of_kp(k));
  }
  EXPECT_EQ(t.kp_owner()[kp], new_pe);
}

// ----------------------------------------------------------------- planner

MigrationConfig scored_cfg(double imbalance = 1.5, std::uint32_t max = 1) {
  MigrationConfig c;
  c.enabled = true;
  c.imbalance_threshold = imbalance;
  c.max_moves = max;
  return c;
}

PeLoad load(std::uint64_t processed, std::uint64_t rolled_back,
            std::uint32_t owned, std::uint32_t cand_kp,
            std::uint64_t cand_score, std::uint64_t pool = 0) {
  PeLoad l;
  l.processed_delta = processed;
  l.rolled_back_delta = rolled_back;
  l.pool_live = pool;
  l.owned_kps = owned;
  l.has_candidate = cand_score > 0;
  l.candidate_kp = cand_kp;
  l.candidate_score = cand_score;
  return l;
}

TEST(PlanMigrations, ForcedModeRotatesDistinctKpsByDecisionIndex) {
  MigrationConfig c;
  c.enabled = true;
  c.forced = true;
  c.max_moves = 2;
  const std::vector<std::uint32_t> owner = {0, 0, 1, 1, 2, 2};
  std::vector<PeLoad> loads(3);

  const auto plan0 = plan_migrations(c, loads, owner, /*decision_index=*/0);
  ASSERT_EQ(plan0.size(), 2u);
  EXPECT_EQ(plan0[0], (KpMove{0, 0, 1}));
  EXPECT_EQ(plan0[1], (KpMove{1, 0, 1}));

  const auto plan1 = plan_migrations(c, loads, owner, 1);
  ASSERT_EQ(plan1.size(), 2u);
  EXPECT_EQ(plan1[0], (KpMove{2, 1, 2}));
  EXPECT_EQ(plan1[1], (KpMove{3, 1, 2}));

  // Index 3 wraps: KPs 6,7 don't exist -> 0,1 again.
  const auto plan3 = plan_migrations(c, loads, owner, 3);
  ASSERT_EQ(plan3.size(), 2u);
  EXPECT_EQ(plan3[0].kp, 0u);
  EXPECT_EQ(plan3[1].kp, 1u);
}

TEST(PlanMigrations, ScoredModeMovesHotCandidateToColdestPe) {
  // PE0 is 4x the mean; PE2 is the coldest.
  const std::vector<PeLoad> loads = {load(900, 300, 4, /*cand=*/2, 500),
                                     load(200, 0, 4, 6, 80),
                                     load(100, 0, 4, 9, 40)};
  const std::vector<std::uint32_t> owner = {0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2};
  const auto plan = plan_migrations(scored_cfg(), loads, owner, 0);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0], (KpMove{2, 0, 2}));
}

TEST(PlanMigrations, BalancedLoadPlansNothing) {
  const std::vector<PeLoad> loads = {load(100, 0, 2, 0, 60),
                                     load(110, 0, 2, 2, 55)};
  const std::vector<std::uint32_t> owner = {0, 0, 1, 1};
  EXPECT_TRUE(plan_migrations(scored_cfg(), loads, owner, 0).empty());
}

TEST(PlanMigrations, IdleEngineAndSinglePePlanNothing) {
  // All-zero scores: nothing to balance.
  const std::vector<PeLoad> idle = {load(0, 0, 2, 0, 0), load(0, 0, 2, 2, 0)};
  EXPECT_TRUE(plan_migrations(scored_cfg(), idle, {0, 0, 1, 1}, 0).empty());
  // One PE: nowhere to move.
  const std::vector<PeLoad> solo = {load(500, 100, 4, 1, 300)};
  EXPECT_TRUE(plan_migrations(scored_cfg(), solo, {0, 0, 0, 0}, 0).empty());
}

TEST(PlanMigrations, SourceMustKeepAtLeastOneKp) {
  // PE0 is scorching but owns a single KP: stripping it would leave an
  // empty PE for no balance gain (the KP *is* the load).
  const std::vector<PeLoad> loads = {load(1000, 500, 1, 0, 900),
                                     load(50, 0, 3, 3, 20)};
  const std::vector<std::uint32_t> owner = {0, 1, 1, 1};
  EXPECT_TRUE(plan_migrations(scored_cfg(), loads, owner, 0).empty());
}

TEST(PlanMigrations, StaleCandidateIsIgnored) {
  // PE0's published candidate is no longer owned by PE0 (moved by an earlier
  // round before this plan): the planner must not move someone else's KP.
  const std::vector<PeLoad> loads = {load(1000, 0, 3, /*cand=*/5, 800),
                                     load(10, 0, 3, 1, 5)};
  const std::vector<std::uint32_t> owner = {0, 0, 0, 1, 1, 1};
  EXPECT_TRUE(plan_migrations(scored_cfg(), loads, owner, 0).empty());
}

TEST(PlanMigrations, DestinationTiesBreakByPoolPressureThenId) {
  // PE1 and PE2 have equal scores; PE2 has less pool pressure -> dst.
  const std::vector<PeLoad> loads = {load(900, 100, 2, 0, 700),
                                     load(100, 0, 2, 2, 50, /*pool=*/500),
                                     load(100, 0, 2, 4, 50, /*pool=*/10)};
  const std::vector<std::uint32_t> owner = {0, 0, 1, 1, 2, 2};
  const auto plan = plan_migrations(scored_cfg(), loads, owner, 0);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].dst_pe, 2u);
}

TEST(PlanMigrations, MaxMovesBoundsTheRoundAndSourcesMoveOnce) {
  // Two hot PEs, max=4: each hot PE contributes at most its one published
  // candidate, so the plan holds exactly two moves.
  const std::vector<PeLoad> loads = {load(800, 200, 2, 0, 600),
                                     load(700, 300, 2, 2, 500),
                                     load(10, 0, 2, 4, 5),
                                     load(20, 0, 2, 6, 8)};
  const std::vector<std::uint32_t> owner = {0, 0, 1, 1, 2, 2, 3, 3};
  const auto plan = plan_migrations(scored_cfg(1.0, 4), loads, owner, 0);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].src_pe, 0u);  // hottest first
  EXPECT_EQ(plan[1].src_pe, 1u);
  EXPECT_NE(plan[0].kp, plan[1].kp);
}

// --------------------------------------------------- kernel determinism

PholdConfig mig_phold_config() {
  PholdConfig pc;
  pc.num_lps = 48;
  pc.remote_fraction = 0.7;
  pc.lookahead = 0.05;  // straggler-heavy
  return pc;
}

EngineConfig mig_engine_config(const PholdConfig& pc) {
  EngineConfig ec;
  ec.num_lps = pc.num_lps;
  ec.end_time = 80.0;
  ec.seed = 23;
  ec.num_pes = 4;
  ec.num_kps = 16;
  ec.gvt_interval_events = 96;
  return ec;
}

// Forced migration on every GVT round is the harshest handoff stress: KPs
// rotate constantly, some PEs transiently own zero KPs, and the committed
// state must still be bit-identical to the sequential reference.
TEST(MigrationDeterminism, ForcedEveryRoundMatchesSequential) {
  const PholdConfig pc = mig_phold_config();
  EngineConfig ec = mig_engine_config(pc);

  PholdModel m1(pc);
  std::unique_ptr<Engine> seq = make_engine(EngineKind::Sequential, m1, ec);
  const RunStats sstats = seq->run();

  std::string err;
  ASSERT_TRUE(MigrationConfig::parse("forced,every=1,max=2", ec.migration, err))
      << err;
  PholdModel m2(pc);
  std::unique_ptr<Engine> tw = make_engine(EngineKind::TimeWarp, m2, ec);
  const RunStats tstats = tw->run();

  EXPECT_EQ(sstats.committed_events(), tstats.committed_events());
  EXPECT_EQ(PholdModel::digest(*seq), PholdModel::digest(*tw));
  // The stress must actually have moved KPs (and, over that many rounds,
  // in-flight events with them) or this proves nothing.
  EXPECT_GT(tstats.kp_migrations(), 0u);
  EXPECT_GT(tstats.migrated_events(), 0u);
  EXPECT_GT(tstats.metrics.total.at(Counter::MigrationRounds), 0u);
}

TEST(MigrationDeterminism, ScoredModeMatchesSequential) {
  const PholdConfig pc = mig_phold_config();
  EngineConfig ec = mig_engine_config(pc);

  PholdModel m1(pc);
  std::unique_ptr<Engine> seq = make_engine(EngineKind::Sequential, m1, ec);
  seq->run();

  std::string err;
  ASSERT_TRUE(
      MigrationConfig::parse("every=2,imbalance=1,max=2", ec.migration, err))
      << err;
  PholdModel m2(pc);
  std::unique_ptr<Engine> tw = make_engine(EngineKind::TimeWarp, m2, ec);
  tw->run();
  EXPECT_EQ(PholdModel::digest(*seq), PholdModel::digest(*tw));
}

// A PE may end up owning zero KPs mid-run (4 KPs rotating across 4 PEs) and
// the engine must neither deadlock nor diverge.
TEST(MigrationDeterminism, ToleratesPesWithZeroKps) {
  const PholdConfig pc = mig_phold_config();
  EngineConfig ec = mig_engine_config(pc);
  ec.num_kps = 4;

  PholdModel m1(pc);
  std::unique_ptr<Engine> seq = make_engine(EngineKind::Sequential, m1, ec);
  seq->run();

  std::string err;
  ASSERT_TRUE(MigrationConfig::parse("forced,every=1,max=3", ec.migration, err));
  PholdModel m2(pc);
  std::unique_ptr<Engine> tw = make_engine(EngineKind::TimeWarp, m2, ec);
  const RunStats tstats = tw->run();
  EXPECT_EQ(PholdModel::digest(*seq), PholdModel::digest(*tw));
  EXPECT_GT(tstats.kp_migrations(), 0u);
}

// A migrating run with a fixed config is itself exactly repeatable.
TEST(MigrationDeterminism, MigratingRunIsRepeatable) {
  const PholdConfig pc = mig_phold_config();
  EngineConfig ec = mig_engine_config(pc);
  std::string err;
  ASSERT_TRUE(MigrationConfig::parse("forced,every=2,max=2", ec.migration, err));

  PholdModel m1(pc);
  std::unique_ptr<Engine> a = make_engine(EngineKind::TimeWarp, m1, ec);
  a->run();
  PholdModel m2(pc);
  std::unique_ptr<Engine> b = make_engine(EngineKind::TimeWarp, m2, ec);
  b->run();
  EXPECT_EQ(PholdModel::digest(*a), PholdModel::digest(*b));
}

// ---------------------------------------------------- migration x chaos

struct MigChaosKnobs {
  const char* name;
  const char* migrate;
  const char* chaos;  // nullptr = fault-free
};

// Stable ctest names: print the case name, not a byte dump of pointers.
void PrintTo(const MigChaosKnobs& k, std::ostream* os) { *os << k.name; }

class MigrationMatrix : public ::testing::TestWithParam<MigChaosKnobs> {};

// Migration composes with every delivery fault: anti-messages chase moved
// positives through the live ownership table, chaos-held envelopes migrate
// with their KP, and the committed state still matches sequential.
TEST_P(MigrationMatrix, MigrationComposesWithDeliveryFaults) {
  const MigChaosKnobs k = GetParam();
  const PholdConfig pc = mig_phold_config();
  EngineConfig ec = mig_engine_config(pc);

  PholdModel m1(pc);
  std::unique_ptr<Engine> seq = make_engine(EngineKind::Sequential, m1, ec);
  const RunStats sstats = seq->run();

  std::string err;
  ASSERT_TRUE(MigrationConfig::parse(k.migrate, ec.migration, err)) << err;
  if (k.chaos != nullptr) {
    ASSERT_TRUE(FaultPlan::parse(k.chaos, ec.fault, err)) << err;
  }
  PholdModel m2(pc);
  std::unique_ptr<Engine> tw = make_engine(EngineKind::TimeWarp, m2, ec);
  const RunStats tstats = tw->run();

  EXPECT_EQ(sstats.committed_events(), tstats.committed_events());
  EXPECT_EQ(PholdModel::digest(*seq), PholdModel::digest(*tw));
  EXPECT_GT(tstats.kp_migrations(), 0u)
      << "migration spec " << k.migrate << " never moved a KP";
}

constexpr const char* kCombinedChaos =
    "delay:p=0.2,k=2;reorder:p=0.4;straggler:p=0.3;dup-anti:p=0.3;seed=13";

// Cell ids keep the `_splay` token of the queue backend the cells were
// written for, so that each cell's history stays under one test id. Every
// cell runs the ladder queue.
INSTANTIATE_TEST_SUITE_P(
    MigChaosSweep, MigrationMatrix,
    ::testing::Values(
        MigChaosKnobs{"forced_splay", "forced,every=1,max=2", nullptr},
        MigChaosKnobs{"forced_delay_splay", "forced,every=1,max=2",
                      "delay:p=0.3,k=2;seed=7"},
        MigChaosKnobs{"forced_combined_splay", "forced,every=1,max=2",
                      kCombinedChaos},
        MigChaosKnobs{"forced_stall_splay", "forced,every=2,max=1",
                      "stall:pe=1,rounds=6,at=2"},
        MigChaosKnobs{"scored_combined_splay", "every=2,imbalance=1,max=2",
                      kCombinedChaos}),
    [](const auto& info) { return std::string(info.param.name); });

// Full-stack variant: hot-potato torus through the core facade; the whole
// obs::ModelChannel (every named model metric) must match the sequential run
// with forced migration churning the placement underneath it.
TEST(MigrationHotPotato, ModelChannelIdenticalUnderForcedMigration) {
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
  ASSERT_TRUE(
      MigrationConfig::parse("forced,every=1,max=2", opts.engine.migration, err))
      << err;
  const auto tw = core::run_hotpotato(opts);

  EXPECT_TRUE(tw.model == seq.model);
  EXPECT_TRUE(tw.report == seq.report);
  EXPECT_EQ(tw.engine.committed_events(), seq.engine.committed_events());
  EXPECT_GT(tw.engine.kp_migrations(), 0u);
}

}  // namespace
}  // namespace hp::des
