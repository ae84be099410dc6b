// The fc::FlowControlScheme public surface: config parsing (the --fc= spec
// grammar, strict like --chaos=), the factory, channel-based
// statistics, core::run_flow_control integration, and the paper's headline
// contrast against the hot-potato network. Scheme *physics* (hand-computed
// traces, credits, conformance across the family) live in
// test_flow_control.cpp.

#include <gtest/gtest.h>

#include "bench/common.hpp"
#include "buffered/schemes.hpp"
#include "core/simulation.hpp"

namespace hp::fc {
namespace {

FlowControlConfig cfg(Kind k, std::int32_t n, double inject,
                      std::uint32_t steps, std::uint32_t qcap,
                      std::uint32_t flit = 1) {
  FlowControlConfig c;
  c.scheme = k;
  c.n = n;
  c.injector_fraction = inject;
  c.steps = steps;
  c.queue_capacity = qcap;
  c.flits_per_packet = flit;
  return c;
}

TEST(FcKind, NamesRoundTripThroughParse) {
  for (const Kind k : kAllKinds) {
    Kind parsed{};
    ASSERT_TRUE(parse_kind(kind_name(k), parsed)) << kind_name(k);
    EXPECT_EQ(parsed, k);
  }
  Kind out{};
  EXPECT_FALSE(parse_kind("", out));
  EXPECT_FALSE(parse_kind("SAF", out));
  EXPECT_FALSE(parse_kind("store-and-forward", out));
}

TEST(FcConfigParse, EmptySpecKeepsDefaults) {
  FlowControlConfig c;
  std::string err;
  ASSERT_TRUE(FlowControlConfig::parse("", c, err)) << err;
  EXPECT_EQ(c.scheme, Kind::StoreAndForward);
  EXPECT_EQ(c.queue_capacity, 8u);
  EXPECT_EQ(c.flits_per_packet, 1u);
  EXPECT_EQ(c.credit_delay, 1u);
}

TEST(FcConfigParse, FullSpec) {
  FlowControlConfig c;
  std::string err;
  ASSERT_TRUE(FlowControlConfig::parse(
      "scheme=wormhole, qcap=4 ,flit=6,credit_delay=2", c, err))
      << err;
  EXPECT_EQ(c.scheme, Kind::Wormhole);
  EXPECT_EQ(c.queue_capacity, 4u);
  EXPECT_EQ(c.flits_per_packet, 6u);
  EXPECT_EQ(c.credit_delay, 2u);
}

TEST(FcConfigParse, ToStringRoundTrips) {
  FlowControlConfig c;
  std::string err;
  ASSERT_TRUE(FlowControlConfig::parse("scheme=vct,qcap=16,flit=4", c, err));
  FlowControlConfig d;
  ASSERT_TRUE(FlowControlConfig::parse(c.to_string(), d, err)) << err;
  EXPECT_EQ(d.scheme, c.scheme);
  EXPECT_EQ(d.queue_capacity, c.queue_capacity);
  EXPECT_EQ(d.flits_per_packet, c.flits_per_packet);
  EXPECT_EQ(d.credit_delay, c.credit_delay);
}

TEST(FcConfigParse, RejectsMalformedSpecs) {
  const char* bad[] = {
      "scheme=bogus",     "scheme=",          "qcap=0",
      "qcap=-1",          "qcap=abc",         "flit=0",
      "credit_delay=0",   "credit_delay=x",   "unknown=1",
      "qcap",             "=4",               "qcap=4=5",
      // saf/vct must buffer whole packets per hop.
      "scheme=saf,qcap=2,flit=4",
      "scheme=vct,qcap=1,flit=2",
  };
  for (const char* spec : bad) {
    FlowControlConfig c;
    std::string err;
    EXPECT_FALSE(FlowControlConfig::parse(spec, c, err))
        << "accepted: " << spec;
    EXPECT_FALSE(err.empty()) << spec;
  }
  // ...but wormhole forwards on single-flit credits, so qcap < flit is fine.
  FlowControlConfig c;
  std::string err;
  EXPECT_TRUE(
      FlowControlConfig::parse("scheme=wormhole,qcap=2,flit=4", c, err))
      << err;
}

TEST(FcConfigParse, FailedParseLeavesOutUntouched) {
  FlowControlConfig c;
  std::string err;
  ASSERT_TRUE(FlowControlConfig::parse("scheme=vct,qcap=32", c, err));
  EXPECT_EQ(c.queue_capacity, 32u);
  EXPECT_FALSE(FlowControlConfig::parse("qcap=0", c, err));
  EXPECT_EQ(c.scheme, Kind::VirtualCutThrough);
  EXPECT_EQ(c.queue_capacity, 32u);
}

TEST(FcCliDeath, MalformedFcSpecIsAUsageError) {
  const char* argv[] = {"bench", "--fc=scheme=bogus"};
  EXPECT_EXIT(
      {
        util::Cli cli(2, const_cast<char**>(argv), {{"fc", ""}});
        core::SimulationOptions o;
        bench::apply_fc_flags(cli, o);
      },
      ::testing::ExitedWithCode(2), "--fc");
}

TEST(FcFactory, CreatesEverySchemeWithMatchingKind) {
  for (const Kind k : kAllKinds) {
    const auto s = FlowControlScheme::create(cfg(k, 4, 0.5, 10, 4, 2));
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->kind(), k);
    EXPECT_STREQ(s->name(), kind_name(k));
  }
}

TEST(FcScheme, StepCounterAdvances) {
  const auto s = FlowControlScheme::create(cfg(Kind::StoreAndForward, 4, 0.5,
                                               10, 4));
  EXPECT_EQ(s->current_step(), 0u);
  s->step();
  s->step();
  EXPECT_EQ(s->current_step(), 2u);
}

TEST(FcScheme, ConservationAndBoundedQueuesEverywhere) {
  for (const Kind k : kAllKinds) {
    const auto s = FlowControlScheme::create(cfg(k, 8, 1.0, 200, 4, 2));
    const FcReport r = s->run();
    EXPECT_GT(r.delivered, 0u) << kind_name(k);
    EXPECT_EQ(s->flits_in_network(), r.flits_injected - r.flits_absorbed)
        << kind_name(k);
    EXPECT_LE(r.max_queue_depth, 4.0) << kind_name(k);
    EXPECT_LE(r.delivered, r.injected) << kind_name(k);
  }
}

TEST(FcScheme, ChannelsAreDeterministicForFixedSeed) {
  for (const Kind k : kAllKinds) {
    const auto a = FlowControlScheme::create(cfg(k, 8, 0.5, 150, 4, 2));
    const auto b = FlowControlScheme::create(cfg(k, 8, 0.5, 150, 4, 2));
    a->run();
    b->run();
    EXPECT_EQ(a->collect_channel(), b->collect_channel()) << kind_name(k);
    EXPECT_EQ(a->report(), b->report()) << kind_name(k);
  }
}

TEST(FcScheme, BackpressureThrottlesInjection) {
  const auto small =
      FlowControlScheme::create(cfg(Kind::StoreAndForward, 8, 1.0, 200, 1));
  const auto big =
      FlowControlScheme::create(cfg(Kind::StoreAndForward, 8, 1.0, 200, 8));
  const auto rs = small->run();
  const auto rb = big->run();
  EXPECT_LT(rs.injected, rb.injected)
      << "smaller buffers must throttle the sources harder";
  EXPECT_GT(rs.stalls, 0u);
}

TEST(FcScheme, UtilizationBoundedOnBothTopologies) {
  for (const auto topo : {net::GridKind::Torus, net::GridKind::Mesh}) {
    auto c = cfg(Kind::VirtualCutThrough, 8, 1.0, 200, 4, 2);
    c.topology = topo;
    const auto s = FlowControlScheme::create(c);
    const FcReport r = s->run();
    const double u = r.link_utilization(s->grid(), 200);
    EXPECT_GT(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
}

TEST(FcScheme, MeshDoesNotUnderReportUtilization) {
  // The old BufferedReport divided by 4*num_routers link slots even on a
  // mesh, where boundary links do not exist. The grid-aware denominator is
  // smaller, so the same flit_moves must score strictly higher utilization.
  auto c = cfg(Kind::StoreAndForward, 8, 1.0, 200, 4);
  c.topology = net::GridKind::Mesh;
  const auto s = FlowControlScheme::create(c);
  const FcReport r = s->run();
  const net::Grid mesh(8, net::GridKind::Mesh);
  ASSERT_LT(mesh.num_directed_links(), 4u * mesh.num_nodes());
  const double honest = r.link_utilization(mesh, 200);
  const double old_denominator =
      static_cast<double>(r.flit_moves) / (4.0 * 64.0 * 200.0);
  EXPECT_GT(honest, old_denominator);
}

TEST(FcCore, RunFlowControlUsesModelNetworkAndWorkload) {
  core::SimulationOptions o;
  o.model.n = 8;
  o.model.injector_fraction = 0.5;
  o.model.steps = 120;
  o.model.traffic = hotpotato::TrafficPattern::Transpose;
  o.fc.scheme = Kind::Wormhole;
  o.fc.queue_capacity = 2;
  o.fc.flits_per_packet = 4;
  const core::FlowControlResult r = core::run_flow_control(o);
  EXPECT_GT(r.report.injected, 0u);
  // The typed report is a pure view over the channel.
  EXPECT_EQ(r.report, report_from_channel(r.model));
  // Equal options => bit-identical channel (the determinism_check contract).
  const core::FlowControlResult again = core::run_flow_control(o);
  EXPECT_EQ(r.model, again.model);
  EXPECT_EQ(r.report, again.report);
}

TEST(FcContrast, HotPotatoSustainsHigherUtilization) {
  // The paper's headline claim: without flow control, hot-potato keeps links
  // busy where a credit-controlled network under-utilizes them at
  // saturation. Checked against every scheme in the family.
  constexpr std::int32_t n = 8;
  constexpr std::uint32_t steps = 200;
  core::SimulationOptions o;
  o.model.n = n;
  o.model.injector_fraction = 1.0;
  o.model.steps = steps;
  const auto hot = core::run_hotpotato(o);
  const net::Grid grid(n, net::GridKind::Torus);
  const double u_hot = hot.report.link_utilization(grid, steps);

  o.fc.queue_capacity = 4;
  o.fc.flits_per_packet = 2;
  for (const Kind k : kAllKinds) {
    o.fc.scheme = k;
    const auto buf = core::run_flow_control(o);
    EXPECT_GT(u_hot, buf.report.link_utilization(grid, steps))
        << kind_name(k)
        << ": hot-potato should out-utilize credit flow control";
  }
}

TEST(FcContrast, CutThroughBeatsStoreAndForwardPerHop) {
  // At light load the pipelined schemes approach 1 step/hop while SAF pays
  // the full serialization latency every hop.
  core::SimulationOptions o;
  o.model.n = 8;
  o.model.injector_fraction = 0.25;
  o.model.steps = 200;
  o.fc.queue_capacity = 8;
  o.fc.flits_per_packet = 4;
  o.fc.scheme = Kind::StoreAndForward;
  const double saf = core::run_flow_control(o).report.per_hop_latency();
  o.fc.scheme = Kind::VirtualCutThrough;
  const double vct = core::run_flow_control(o).report.per_hop_latency();
  o.fc.scheme = Kind::Wormhole;
  const double wh = core::run_flow_control(o).report.per_hop_latency();
  EXPECT_GE(saf, static_cast<double>(o.fc.flits_per_packet));
  EXPECT_LT(vct, saf);
  EXPECT_LT(wh, saf);
}

}  // namespace
}  // namespace hp::fc
