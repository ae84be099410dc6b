// Checkpoint/restore + watchdog configuration tests.
//
// The invariant under test: a checkpoint image is an engine-agnostic
// committed cut, so a run interrupted at any image and restored — by the
// same kernel or a different one — finishes with bit-identical model state
// (PholdModel::digest) and the same total committed-event count as the
// uninterrupted run. The file-format tests pin down the failure mode that
// matters for crash safety: a truncated or bit-flipped image is *rejected*,
// never silently restored.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "des/checkpoint.hpp"
#include "des/engine.hpp"
#include "des/phold.hpp"
#include "des/watchdog.hpp"
#include "util/bytes.hpp"

namespace hp::des {
namespace {

using obs::Counter;

// ---------------------------------------------------------------- parsing

TEST(CheckpointConfigParse, FullSpec) {
  CheckpointConfig c;
  std::string err;
  ASSERT_TRUE(CheckpointConfig::parse("every=5000, dir=images", c, err))
      << err;
  EXPECT_EQ(c.every, 5000u);
  EXPECT_EQ(c.dir, "images");
  EXPECT_TRUE(c.enabled());
}

TEST(CheckpointConfigParse, DirDefaultsWhenOmitted) {
  CheckpointConfig c;
  std::string err;
  ASSERT_TRUE(CheckpointConfig::parse("every=100", c, err)) << err;
  EXPECT_EQ(c.every, 100u);
  EXPECT_EQ(c.dir, "checkpoints");
}

TEST(CheckpointConfigParse, ToStringRoundTrips) {
  CheckpointConfig c;
  std::string err;
  ASSERT_TRUE(CheckpointConfig::parse("every=42,dir=x/y", c, err));
  CheckpointConfig d;
  ASSERT_TRUE(CheckpointConfig::parse(c.to_string(), d, err)) << err;
  EXPECT_EQ(c, d);
}

TEST(CheckpointConfigParse, RejectsMalformedSpecs) {
  const char* bad[] = {
      "",                 // missing required every=N
      "dir=foo",          // ditto
      "every=0",          // zero interval
      "every=-5",         // negative
      "every=abc",        // non-numeric
      "every=10x",        // trailing junk
      "every",            // no value
      "bogus=1,every=5",  // unknown key
      "=5",               // empty key
  };
  for (const char* spec : bad) {
    CheckpointConfig c;
    std::string err;
    EXPECT_FALSE(CheckpointConfig::parse(spec, c, err))
        << "accepted: " << spec;
    EXPECT_FALSE(err.empty()) << spec;
  }
}

TEST(CheckpointConfigParse, FailedParseLeavesOutUntouched) {
  CheckpointConfig c;
  std::string err;
  ASSERT_TRUE(CheckpointConfig::parse("every=7,dir=keep", c, err));
  const CheckpointConfig before = c;
  EXPECT_FALSE(CheckpointConfig::parse("every=0", c, err));
  EXPECT_EQ(c, before);
}

TEST(WatchdogConfigParse, FullSpec) {
  WatchdogConfig w;
  std::string err;
  ASSERT_TRUE(WatchdogConfig::parse("timeout=5000,poll=25", w, err)) << err;
  EXPECT_EQ(w.timeout_ms, 5000u);
  EXPECT_EQ(w.poll_ms, 25u);
  EXPECT_TRUE(w.enabled());
}

TEST(WatchdogConfigParse, PollDefaultsWhenOmitted) {
  WatchdogConfig w;
  std::string err;
  ASSERT_TRUE(WatchdogConfig::parse("timeout=1000", w, err)) << err;
  EXPECT_EQ(w.timeout_ms, 1000u);
  EXPECT_EQ(w.poll_ms, 50u);
}

TEST(WatchdogConfigParse, ToStringRoundTrips) {
  WatchdogConfig w;
  std::string err;
  ASSERT_TRUE(WatchdogConfig::parse("timeout=250,poll=10", w, err));
  WatchdogConfig v;
  ASSERT_TRUE(WatchdogConfig::parse(w.to_string(), v, err)) << err;
  EXPECT_EQ(w, v);
}

TEST(WatchdogConfigParse, RejectsMalformedSpecs) {
  const char* bad[] = {
      "",               // missing required timeout=N
      "poll=10",        // ditto
      "timeout=0",      // zero timeout
      "timeout=abc",    // non-numeric
      "timeout=5s",     // trailing junk
      "timeout=5,poll=0",  // zero poll
      "timeout=5,cadence=1",  // unknown key
  };
  for (const char* spec : bad) {
    WatchdogConfig w;
    std::string err;
    EXPECT_FALSE(WatchdogConfig::parse(spec, w, err)) << "accepted: " << spec;
    EXPECT_FALSE(err.empty()) << spec;
  }
}

TEST(WatchdogConfigParse, FailedParseLeavesOutUntouched) {
  WatchdogConfig w;
  std::string err;
  ASSERT_TRUE(WatchdogConfig::parse("timeout=9,poll=3", w, err));
  const WatchdogConfig before = w;
  EXPECT_FALSE(WatchdogConfig::parse("timeout=zero", w, err));
  EXPECT_EQ(w, before);
}

// ----------------------------------------------------------- image codec

CheckpointImage sample_image() {
  CheckpointImage img;
  img.seed = 77;
  img.num_lps = 2;
  img.fence = 12.5;
  img.end_time = 100.0;
  img.committed = 4321;
  img.lps.resize(2);
  img.lps[0].rng_state = 0xdeadbeefcafef00dULL;
  img.lps[0].rng_draws = 19;
  img.lps[0].state = {1, 2, 3, 4};
  img.lps[1].rng_state = 42;
  img.lps[1].rng_draws = 0;
  img.lps[1].state = {};
  CheckpointEventRecord ev;
  ev.key = EventKey{13.25, 7, 0, 1, 3};
  ev.send_ts = 12.0;
  ev.payload = {9, 8, 7};
  img.events.push_back(ev);
  CheckpointEventRecord ev2;
  ev2.key = EventKey{13.25, 7, 1, 0, 4};  // same ts, tiebreak differs
  ev2.send_ts = 12.25;
  img.events.push_back(ev2);
  return img;
}

TEST(CheckpointImageCodec, RoundTripsBitExact) {
  const CheckpointImage img = sample_image();
  util::ByteSink sink;
  img.encode(sink);

  CheckpointImage out;
  util::ByteSource src(sink.data());
  std::string err;
  ASSERT_TRUE(out.decode(src, err)) << err;
  EXPECT_TRUE(src.exhausted());

  EXPECT_EQ(out.seed, img.seed);
  EXPECT_EQ(out.num_lps, img.num_lps);
  EXPECT_EQ(out.fence, img.fence);
  EXPECT_EQ(out.end_time, img.end_time);
  EXPECT_EQ(out.committed, img.committed);
  ASSERT_EQ(out.lps.size(), img.lps.size());
  for (std::size_t i = 0; i < img.lps.size(); ++i) {
    EXPECT_EQ(out.lps[i].rng_state, img.lps[i].rng_state);
    EXPECT_EQ(out.lps[i].rng_draws, img.lps[i].rng_draws);
    EXPECT_EQ(out.lps[i].state, img.lps[i].state);
  }
  ASSERT_EQ(out.events.size(), img.events.size());
  for (std::size_t i = 0; i < img.events.size(); ++i) {
    EXPECT_EQ(out.events[i].key, img.events[i].key);
    EXPECT_EQ(out.events[i].send_ts, img.events[i].send_ts);
    EXPECT_EQ(out.events[i].payload, img.events[i].payload);
  }
}

TEST(CheckpointImageCodec, TruncatedPayloadRejected) {
  util::ByteSink sink;
  sample_image().encode(sink);
  // Every strict prefix must be rejected without aborting. Stride keeps the
  // loop cheap; the interesting cuts (mid-scalar, mid-byte-blob) are covered.
  for (std::size_t cut = 0; cut < sink.size(); cut += 7) {
    CheckpointImage out;
    util::ByteSource src(sink.data().data(), cut);
    std::string err;
    EXPECT_FALSE(out.decode(src, err)) << "accepted a " << cut
                                       << "-byte prefix";
  }
}

// ------------------------------------------------------------ file format

std::string fresh_dir(const std::string& name) {
  const std::filesystem::path p =
      std::filesystem::path(::testing::TempDir()) / ("hp_ck_" + name);
  std::filesystem::remove_all(p);
  std::filesystem::create_directories(p);
  return p.string();
}

TEST(CheckpointFile, WriteReadRoundTrip) {
  const std::string dir = fresh_dir("roundtrip");
  const CheckpointImage img = sample_image();
  std::string path, err;
  ASSERT_TRUE(write_checkpoint(img, dir, 3, path, err)) << err;
  EXPECT_NE(path.find("ckpt-000003.hpck"), std::string::npos) << path;

  CheckpointImage out;
  ASSERT_TRUE(read_checkpoint(path, out, err)) << err;
  EXPECT_EQ(out.committed, img.committed);
  EXPECT_EQ(out.events.size(), img.events.size());
  std::filesystem::remove_all(dir);
}

TEST(CheckpointFile, CorruptAndTruncatedFilesRejected) {
  const std::string dir = fresh_dir("corrupt");
  std::string path, err;
  ASSERT_TRUE(write_checkpoint(sample_image(), dir, 1, path, err)) << err;

  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 32u);

  // Bit flip in the middle of the payload: checksum must catch it.
  {
    std::vector<char> flipped = bytes;
    flipped[flipped.size() / 2] ^= 0x40;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(flipped.data(), static_cast<std::streamsize>(flipped.size()));
  }
  CheckpointImage img;
  EXPECT_FALSE(read_checkpoint(path, img, err));
  EXPECT_FALSE(err.empty());

  // Truncation: header promises more payload than the file holds.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_FALSE(read_checkpoint(path, img, err));

  // Garbage that is not even a header.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write("not a checkpoint", 16);
  }
  EXPECT_FALSE(read_checkpoint(path, img, err));
  std::filesystem::remove_all(dir);
}

TEST(CheckpointFile, FindLatestPicksHighestSequence) {
  const std::string dir = fresh_dir("latest");
  std::string p1, p2, p3, err;
  ASSERT_TRUE(write_checkpoint(sample_image(), dir, 1, p1, err)) << err;
  ASSERT_TRUE(write_checkpoint(sample_image(), dir, 12, p3, err)) << err;
  ASSERT_TRUE(write_checkpoint(sample_image(), dir, 2, p2, err)) << err;

  EXPECT_EQ(find_latest_checkpoint(dir), p3);
  // A direct file path resolves to itself.
  EXPECT_EQ(find_latest_checkpoint(p1), p1);
  // Nothing suitable -> empty.
  EXPECT_EQ(find_latest_checkpoint(dir + "/nonexistent"), "");
  const std::string empty = fresh_dir("latest_empty");
  EXPECT_EQ(find_latest_checkpoint(empty), "");
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(empty);
}

TEST(CheckpointFile, RestoreRejectsConfigMismatch) {
  const std::string dir = fresh_dir("mismatch");
  const CheckpointImage img = sample_image();
  std::string path, err;
  ASSERT_TRUE(write_checkpoint(img, dir, 1, path, err)) << err;

  CheckpointImage out;
  // Matching configuration loads.
  EXPECT_TRUE(load_checkpoint_for_restore(dir, img.seed, img.num_lps,
                                          img.end_time, out, err))
      << err;
  // Any mismatch is an error, not a warning: silent divergence would break
  // the bit-identity guarantee.
  EXPECT_FALSE(load_checkpoint_for_restore(dir, img.seed + 1, img.num_lps,
                                           img.end_time, out, err));
  EXPECT_FALSE(load_checkpoint_for_restore(dir, img.seed, img.num_lps + 1,
                                           img.end_time, out, err));
  EXPECT_FALSE(load_checkpoint_for_restore(dir, img.seed, img.num_lps,
                                           img.end_time + 1.0, out, err));
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------ engine bit identity
//
// Workload shared by the engine matrix: rollback-heavy PHOLD (high remote
// fraction, small lookahead) so the Time Warp checkpoint fence actually has
// speculative state to unwind.

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
  return ec;
}

EngineConfig parallel_config() {
  EngineConfig ec = engine_config();
  ec.num_pes = 4;
  ec.num_kps = 16;
  ec.gvt_interval_events = 96;
  return ec;
}

// Runs `kind` uninterrupted, then checkpointing every `every` commits, then
// a fresh `restore_kind` engine resumed from the latest image. Requires the
// restored continuation to land on the identical model digest and for the
// image baseline plus the continuation's commits to equal the uninterrupted
// total (RunStats of a restored run cover only the continuation).
void expect_restore_identity(EngineKind kind, EngineKind restore_kind,
                             const EngineConfig& base_cfg, std::uint64_t every,
                             const std::string& dir_name) {
  const PholdConfig pc = phold_config();
  const Time lookahead = pc.lookahead;
  const std::string dir = fresh_dir(dir_name);

  PholdModel mb(pc);
  std::unique_ptr<Engine> base =
      make_engine(kind, mb, base_cfg, lookahead);
  const RunStats bstats = base->run();

  EngineConfig ck_cfg = base_cfg;
  ck_cfg.checkpoint.every = every;
  ck_cfg.checkpoint.dir = dir;
  PholdModel m1(pc);
  std::unique_ptr<Engine> ck = make_engine(kind, m1, ck_cfg, lookahead);
  const RunStats cstats = ck->run();
  ASSERT_GT(cstats.metrics.total.checkpoints_written(), 0u)
      << "no image was ever written — the restore below would test nothing";
  // Checkpointing itself must not perturb the run.
  EXPECT_EQ(PholdModel::digest(*base), PholdModel::digest(*ck));
  EXPECT_EQ(bstats.committed_events(), cstats.committed_events());

  const std::string latest = find_latest_checkpoint(dir);
  ASSERT_FALSE(latest.empty());
  CheckpointImage img;
  std::string err;
  ASSERT_TRUE(read_checkpoint(latest, img, err)) << err;
  ASSERT_LT(img.committed, bstats.committed_events())
      << "image already covers the whole run; restore would be a no-op";

  EngineConfig rs_cfg = base_cfg;
  rs_cfg.restore_path = dir;
  PholdModel m2(pc);
  std::unique_ptr<Engine> restored =
      make_engine(restore_kind, m2, rs_cfg, lookahead);
  const RunStats rstats = restored->run();

  EXPECT_EQ(PholdModel::digest(*base), PholdModel::digest(*restored));
  EXPECT_EQ(img.committed + rstats.committed_events(),
            bstats.committed_events());
  std::filesystem::remove_all(dir);
}

TEST(CheckpointRestore, SequentialBitIdentical) {
  expect_restore_identity(EngineKind::Sequential, EngineKind::Sequential,
                          engine_config(), 4000, "seq");
}

TEST(CheckpointRestore, TimeWarpBitIdentical) {
  expect_restore_identity(EngineKind::TimeWarp, EngineKind::TimeWarp,
                          parallel_config(), 4000, "tw");
}

TEST(CheckpointRestore, ConservativeBitIdentical) {
  expect_restore_identity(EngineKind::Conservative, EngineKind::Conservative,
                          parallel_config(), 4000, "cons");
}

// The image is engine-agnostic: a cut written by one kernel restores into
// another and still lands bit-identical (the baseline here is the *writing*
// kernel's uninterrupted run; all kernels agree on committed state anyway).
TEST(CheckpointRestore, SequentialImageRestoresIntoTimeWarp) {
  expect_restore_identity(EngineKind::Sequential, EngineKind::TimeWarp,
                          parallel_config(), 4000, "seq_to_tw");
}

TEST(CheckpointRestore, TimeWarpImageRestoresIntoSequential) {
  expect_restore_identity(EngineKind::TimeWarp, EngineKind::Sequential,
                          parallel_config(), 4000, "tw_to_seq");
}

TEST(CheckpointRestore, TimeWarpImageRestoresIntoConservative) {
  expect_restore_identity(EngineKind::TimeWarp, EngineKind::Conservative,
                          parallel_config(), 4000, "tw_to_cons");
}

// Restoring from an early image (long continuation) exercises the re-seeded
// uid space harder than the latest one.
TEST(CheckpointRestore, RestoreFromFirstImageByPath) {
  const PholdConfig pc = phold_config();
  const EngineConfig ec = parallel_config();
  const std::string dir = fresh_dir("first_image");

  PholdModel mb(pc);
  std::unique_ptr<Engine> base = make_engine(EngineKind::TimeWarp, mb, ec);
  const RunStats bstats = base->run();

  EngineConfig ck_cfg = ec;
  ck_cfg.checkpoint.every = 2000;
  ck_cfg.checkpoint.dir = dir;
  PholdModel m1(pc);
  std::unique_ptr<Engine> ck = make_engine(EngineKind::TimeWarp, m1, ck_cfg);
  ck->run();

  const std::string first = dir + "/ckpt-000001.hpck";
  ASSERT_TRUE(std::filesystem::exists(first));
  CheckpointImage img;
  std::string err;
  ASSERT_TRUE(read_checkpoint(first, img, err)) << err;

  EngineConfig rs_cfg = ec;
  rs_cfg.restore_path = first;  // explicit file, not the directory
  PholdModel m2(pc);
  std::unique_ptr<Engine> restored =
      make_engine(EngineKind::TimeWarp, m2, rs_cfg);
  const RunStats rstats = restored->run();

  EXPECT_EQ(PholdModel::digest(*base), PholdModel::digest(*restored));
  EXPECT_EQ(img.committed + rstats.committed_events(),
            bstats.committed_events());
  std::filesystem::remove_all(dir);
}

// Lazy cancellation leaves stale speculative state around by design; the
// checkpoint fence sweep must still reach a clean cut.
TEST(CheckpointRestore, LazyCancellationBitIdentical) {
  EngineConfig ec = parallel_config();
  ec.cancellation = EngineConfig::Cancellation::Lazy;
  expect_restore_identity(EngineKind::TimeWarp, EngineKind::TimeWarp, ec,
                          4000, "lazy");
}

// Chaos holdback queues are force-drained at the fence; a chaotic
// checkpointing run still cuts and restores bit-identically.
TEST(CheckpointRestore, ChaosBitIdentical) {
  EngineConfig ec = parallel_config();
  std::string err;
  ASSERT_TRUE(FaultPlan::parse(
      "delay:p=0.2,k=2;reorder:p=0.4;straggler:p=0.3;dup-anti:p=0.3;seed=13",
      ec.fault, err))
      << err;
  expect_restore_identity(EngineKind::TimeWarp, EngineKind::TimeWarp, ec,
                          4000, "chaos");
}

// A restored chaotic run resumes with the plan still armed — the image it
// came from and the faults that follow must not interact.
TEST(CheckpointRestore, ChaoticImageRestoresUnderChaos) {
  const PholdConfig pc = phold_config();
  EngineConfig ec = parallel_config();
  std::string err;
  ASSERT_TRUE(
      FaultPlan::parse("delay:p=0.3,k=2;dup-anti:p=0.3;seed=5", ec.fault,
                       err));
  const std::string dir = fresh_dir("chaos_resume");

  PholdModel mb(pc);
  std::unique_ptr<Engine> base = make_engine(EngineKind::TimeWarp, mb, ec);
  base->run();

  EngineConfig ck_cfg = ec;
  ck_cfg.checkpoint.every = 4000;
  ck_cfg.checkpoint.dir = dir;
  PholdModel m1(pc);
  std::unique_ptr<Engine> ck = make_engine(EngineKind::TimeWarp, m1, ck_cfg);
  const RunStats cstats = ck->run();
  ASSERT_GT(cstats.metrics.total.checkpoints_written(), 0u);

  EngineConfig rs_cfg = ec;  // chaos plan still armed
  rs_cfg.restore_path = dir;
  PholdModel m2(pc);
  std::unique_ptr<Engine> restored =
      make_engine(EngineKind::TimeWarp, m2, rs_cfg);
  restored->run();

  EXPECT_EQ(PholdModel::digest(*base), PholdModel::digest(*restored));
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------- envelope conservation
//
// Nothing indexes the live envelopes, so TimeWarpEngine::run() asserts at
// the end of every run that the pools' net live count equals the envelopes
// still pending or left in inboxes; a leaked (or doubly freed) envelope
// aborts the run. Drive that check through every path that moves or frees
// envelopes outside plain execution: both cancellation modes, the chaos
// holdback (delay, straggler, reorder, duplicate antis), and a checkpointing
// run plus its restored continuation — each of which must also stay
// bit-identical.

struct ConservationCase {
  const char* name;
  bool lazy;
  bool chaos;
};

// Stable ctest names: print the case name, not a byte dump of pointers.
void PrintTo(const ConservationCase& c, std::ostream* os) { *os << c.name; }

class EnvelopeConservation
    : public ::testing::TestWithParam<ConservationCase> {};

TEST_P(EnvelopeConservation, CheckpointRestoreRunsStayBitIdentical) {
  const ConservationCase& c = GetParam();
  EngineConfig ec = parallel_config();
  std::string err;
  if (c.lazy) ec.cancellation = EngineConfig::Cancellation::Lazy;
  if (c.chaos) {
    ASSERT_TRUE(FaultPlan::parse(
        "delay:p=0.2,k=2;reorder:p=0.4;straggler:p=0.3;dup-anti:p=0.3;"
        "seed=13",
        ec.fault, err))
        << err;
  }
  PholdModel ms(phold_config());
  std::unique_ptr<Engine> seq = make_engine(EngineKind::Sequential, ms, ec);
  seq->run();
  PholdModel mt(phold_config());
  std::unique_ptr<Engine> tw = make_engine(EngineKind::TimeWarp, mt, ec);
  const RunStats stats = tw->run();
  EXPECT_EQ(PholdModel::digest(*seq), PholdModel::digest(*tw));
  if (c.lazy) {
    EXPECT_GT(stats.metrics.total.at(Counter::LazyReused), 0u);
  }
  if (c.chaos) {
    EXPECT_GT(stats.metrics.total.at(Counter::ChaosDupAntis), 0u);
  }
  expect_restore_identity(EngineKind::TimeWarp, EngineKind::TimeWarp, ec,
                          4000, std::string("conserve_") + c.name);
}

// The instantiation keeps its name so the cells' ctest ids stay stable.
INSTANTIATE_TEST_SUITE_P(
    CancelChaosMigration, EnvelopeConservation,
    ::testing::Values(ConservationCase{"aggressive", false, false},
                      ConservationCase{"lazy", true, false},
                      ConservationCase{"aggressive_chaos", false, true},
                      ConservationCase{"lazy_chaos", true, true}),
    [](const ::testing::TestParamInfo<ConservationCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace hp::des
