// Documentation consistency tests.
//
// The docs tree is part of the contract: docs/METRICS.md must name every
// registered obs counter, every phase timer and every monitor JSONL key, and
// docs/CLI.md must cover the user-facing flag set. These tests grep the
// checked-in markdown (via the HP_SOURCE_DIR compile definition) so a PR
// that adds a counter without documenting it fails in CI rather than rotting
// silently.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "obs/latency.hpp"
#include "obs/metrics.hpp"

namespace {

std::string read_file(const std::string& rel) {
  const std::string path = std::string(HP_SOURCE_DIR) + "/" + rel;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool mentions(const std::string& doc, const std::string& needle) {
  return doc.find(needle) != std::string::npos;
}

TEST(DocsTree, CoreDocumentsExistAndAreNonTrivial) {
  const char* files[] = {
      "README.md",          "DESIGN.md",        "EXPERIMENTS.md",
      "docs/ARCHITECTURE.md", "docs/METRICS.md", "docs/CLI.md",
      "docs/GVT.md",
  };
  for (const char* f : files) {
    EXPECT_GT(read_file(f).size(), 500u) << f << " is missing or trivial";
  }
}

// Every registered counter name appears in the metrics reference. This is
// the doc-rot tripwire: adding a Counter enum entry forces a kCounterDefs
// entry (static_assert in test_obs), and this test forces the docs row.
TEST(MetricsDoc, CoversEveryRegisteredCounter) {
  const std::string doc = read_file("docs/METRICS.md");
  for (std::size_t c = 0; c < hp::obs::kNumCounters; ++c) {
    EXPECT_TRUE(mentions(doc, hp::obs::kCounterDefs[c].name))
        << "docs/METRICS.md does not document counter '"
        << hp::obs::kCounterDefs[c].name << "'";
  }
}

TEST(MetricsDoc, CoversEveryPhaseTimer) {
  const std::string doc = read_file("docs/METRICS.md");
  for (std::size_t p = 0; p < hp::obs::kNumPhases; ++p) {
    EXPECT_TRUE(
        mentions(doc, hp::obs::phase_name(static_cast<hp::obs::Phase>(p))))
        << "docs/METRICS.md does not document phase '"
        << hp::obs::phase_name(static_cast<hp::obs::Phase>(p)) << "'";
  }
}

// Every latency-telemetry metric key (the JSON latency block and the
// hp_<name> Prometheus families are both derived from these names).
TEST(MetricsDoc, CoversEveryLatencyMetric) {
  const std::string doc = read_file("docs/METRICS.md");
  for (std::size_t m = 0; m < hp::obs::kNumLatencyMetrics; ++m) {
    const char* name =
        hp::obs::latency_metric_name(static_cast<hp::obs::LatencyMetric>(m));
    EXPECT_TRUE(mentions(doc, name))
        << "docs/METRICS.md does not document latency metric '" << name << "'";
  }
}

// The monitor JSONL record keys (obs/monitor.cpp emit order). Kept as a
// literal list on purpose: if emit() gains a key, this list and the doc must
// both move, which is exactly the review nudge we want.
TEST(MetricsDoc, CoversEveryMonitorKey) {
  const std::string doc = read_file("docs/METRICS.md");
  const char* keys[] = {
      "round",         "t_seconds",    "gvt",
      "processed",     "rolled_back",  "event_rate",
      "rollback_rate", "inbox_depth",  "pool_live",
      "pool_bytes",    "throttled_pes", "blocked_pes",
      "commit_latency_p99_us", "top_offender_kp", "top_offender_events",
  };
  for (const char* k : keys) {
    EXPECT_TRUE(mentions(doc, k))
        << "docs/METRICS.md does not document monitor key '" << k << "'";
  }
}

TEST(CliDoc, CoversTheUserFacingFlagSet) {
  const std::string doc = read_file("docs/CLI.md");
  const char* flags[] = {
      "--chaos=", "--pool-budget", "--monitor",
      "--json=",  "--csv=",        "--pes",     "--trace",
      "--fc=",    "--telemetry",   "--metrics-endpoint=",
      "--metrics-out=", "--checkpoint=", "--restore=", "--watchdog=",
  };
  // There is one GVT algorithm and no flag to pick one; the CLI reference
  // must not advertise one.
  EXPECT_FALSE(mentions(doc, "--gvt=")) << "docs/CLI.md documents --gvt=";
  // Nor one that moves KPs between PEs: the static mapping is the only
  // placement.
  EXPECT_FALSE(mentions(doc, "--migrate="))
      << "docs/CLI.md documents --migrate=";
  // ...and the full --fc= grammar: every key and scheme name.
  for (const char* k : {"scheme=", "qcap=", "flit=", "credit_delay=",
                        "saf", "vct", "wormhole"}) {
    EXPECT_TRUE(mentions(doc, k))
        << "docs/CLI.md does not document --fc= key '" << k << "'";
  }
  // ...and the crash-safety trio's grammar keys plus the distinct exit code.
  for (const char* k : {"every=", "dir=", "timeout=", "poll=", "86"}) {
    EXPECT_TRUE(mentions(doc, k))
        << "docs/CLI.md does not document crash-safety key '" << k << "'";
  }
  for (const char* f : flags) {
    EXPECT_TRUE(mentions(doc, f))
        << "docs/CLI.md does not document flag '" << f << "'";
  }
}

TEST(DocsTree, ReadmeAndDesignLinkTheDocsTree) {
  const std::string readme = read_file("README.md");
  EXPECT_TRUE(mentions(readme, "docs/ARCHITECTURE.md"));
  EXPECT_TRUE(mentions(readme, "docs/METRICS.md"));
  EXPECT_TRUE(mentions(readme, "docs/CLI.md"));
  const std::string design = read_file("DESIGN.md");
  EXPECT_TRUE(mentions(design, "docs/ARCHITECTURE.md"));
}

TEST(ArchitectureDoc, WalksTheLayersAndTheRemotePath) {
  const std::string doc = read_file("docs/ARCHITECTURE.md");
  // Layer map: every library layer is named.
  for (const char* layer : {"util", "obs", "des", "net", "models"}) {
    EXPECT_TRUE(mentions(doc, layer)) << "missing layer '" << layer << "'";
  }
  // Engine lifecycle and the remote event walkthrough.
  for (const char* s : {"rollback", "GVT", "fossil", "lp_pe_", "inbox",
                        "anti-message"}) {
    EXPECT_TRUE(mentions(doc, s)) << "missing lifecycle term '" << s << "'";
  }
}

TEST(ArchitectureDoc, DescribesCheckpointRestoreAndFailureHandling) {
  const std::string doc = read_file("docs/ARCHITECTURE.md");
  for (const char* s :
       {"Checkpoint/restore protocol", "Failure handling", "fence",
        "quiesce", "CheckpointImage", "FNV-1a", "tmp", "rename",
        "WatchdogHeart", "PeBeacon", "fail_fast", "exit code",
        "min_width_at", "ULP"}) {
    EXPECT_TRUE(mentions(doc, s))
        << "missing checkpoint/failure term '" << s << "'";
  }
}

// The GVT protocol document: the triggers, the two-barrier round and why
// it sees no transient messages, the commit point and the rounds that run
// inside it, and why there is no asynchronous mode.
TEST(GvtDoc, DescribesTheBarrierRoundAndTheCommitPoint) {
  const std::string doc = read_file("docs/GVT.md");
  for (const char* s :
       {"barrier", "gvt_round", "commit_point", "trigger", "transient",
        "inbox", "in flight", "held_min", "fossil", "checkpoint", "quiesce",
        "optimism", "asynchronous"}) {
    EXPECT_TRUE(mentions(doc, s)) << "missing GVT term '" << s << "'";
  }
}

TEST(ArchitectureDoc, DescribesTheFlowControlSchemeFamily) {
  const std::string doc = read_file("docs/ARCHITECTURE.md");
  for (const char* s : {"FlowControlScheme", "store-and-forward",
                        "cut-through", "wormhole", "credit", "flit",
                        "BufferModel", "run_flow_control"}) {
    EXPECT_TRUE(mentions(doc, s))
        << "missing flow-control term '" << s << "'";
  }
}

}  // namespace
