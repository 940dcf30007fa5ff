// Unit tests for the differential-testing building blocks: the fuzz-case
// seed encoding, the reference kernel's bit-exact equivalence with the
// fast engine, and the naive-Dijkstra route validation.
#include <gtest/gtest.h>

#include "roadnet/manhattan.hpp"
#include "testing/diff_runner.hpp"
#include "testing/fuzzer.hpp"
#include "testing/reference_kernel.hpp"
#include "traffic/demand.hpp"
#include "traffic/router.hpp"

namespace ivc::testing {
namespace {

using roadnet::NodeId;
using roadnet::RoadNetwork;

// ---- fuzz-case encoding -----------------------------------------------------

TEST(FuzzCaseEncoding, ShrinkSpecRoundTrips) {
  for (int len = 0; len <= 3; ++len) {
    for (int demand = 0; demand <= 1; ++demand) {
      for (int scale = 0; scale <= 3; ++scale) {
        ShrinkSpec spec;
        spec.length_halvings = len;
        spec.halve_demand = demand != 0;
        spec.scale_steps = scale;
        const std::uint64_t seed = with_shrink(0x23456789abcdefULL, spec);
        const ShrinkSpec back = unpack_shrink(seed);
        EXPECT_EQ(back.length_halvings, spec.length_halvings);
        EXPECT_EQ(back.halve_demand, spec.halve_demand);
        EXPECT_EQ(back.scale_steps, spec.scale_steps);
        // The base case is untouched by the shrink byte.
        EXPECT_EQ(seed & kBaseSeedMask, 0x23456789abcdefULL);
      }
    }
  }
}

TEST(FuzzCaseEncoding, CaseGenerationIsDeterministic) {
  for (std::uint64_t seed : {1ULL, 42ULL, 0xdeadbeefULL}) {
    const FuzzCase a = make_fuzz_case(seed);
    const FuzzCase b = make_fuzz_case(seed);
    EXPECT_EQ(a.summary, b.summary);
    EXPECT_EQ(a.config.describe(), b.config.describe());
    EXPECT_EQ(a.config.seed, b.config.seed);
  }
  EXPECT_NE(make_fuzz_case(1).summary, make_fuzz_case(2).summary);
}

TEST(FuzzCaseEncoding, ShrinkReducesRunLengthAndDemand) {
  const FuzzCase base = make_fuzz_case(7);
  ShrinkSpec spec;
  spec.length_halvings = 2;
  spec.halve_demand = true;
  const FuzzCase shrunk = make_fuzz_case(with_shrink(7, spec));
  EXPECT_LT(shrunk.config.time_limit_minutes, base.config.time_limit_minutes);
  EXPECT_LT(shrunk.config.vehicles_at_100pct, base.config.vehicles_at_100pct);
  // Same base case: the replica seed and mode are unchanged.
  EXPECT_EQ(shrunk.config.seed, base.config.seed);
  EXPECT_EQ(shrunk.config.mode, base.config.mode);
}

// ---- reference kernel -------------------------------------------------------

// Fast engine and reference kernel, fully wired with demand, on the same
// open grid and seed: the event streams must agree bit for bit, and the
// reference recounts must find nothing.
TEST(ReferenceKernel, MatchesFastEngineEventStream) {
  const auto run = [](bool reference) {
    roadnet::ManhattanConfig mc;
    mc.streets = 5;
    mc.avenues = 4;
    mc.gateway_stride = 1;
    const RoadNetwork net = roadnet::make_manhattan_grid(mc);
    traffic::SimConfig sc;
    sc.seed = 33;
    std::unique_ptr<traffic::SimEngine> engine;
    ReferenceKernel* kernel = nullptr;
    if (reference) {
      auto ref = std::make_unique<ReferenceKernel>(net, sc);
      kernel = ref.get();
      engine = std::move(ref);
    } else {
      engine = std::make_unique<traffic::SimEngine>(net, sc);
    }
    traffic::Router router(net, util::derive_seed(33, "router"));
    traffic::DemandConfig dc;
    dc.vehicles_at_100pct = 60;
    dc.arrival_rate_at_100pct = 0.5;
    dc.exit_probability = 0.4;
    dc.seed = util::derive_seed(33, "demand");
    traffic::DemandModel demand(*engine, router, dc);
    engine->set_route_planner([&demand](traffic::VehicleId v, NodeId n) {
      return demand.plan_continuation(v, n);
    });
    EventStreamHasher hasher;
    hasher.bind(engine.get());
    engine->add_observer(&hasher);
    demand.init_population();
    const auto& alive = engine->alive_vehicles();
    for (std::size_t i = 0; i < std::min<std::size_t>(alive.size(), 10); ++i) {
      engine->set_watched(alive[i], true);
    }
    for (int i = 0; i < 1200; ++i) {
      demand.update();
      engine->step();
    }
    EXPECT_GT(hasher.event_count(), 100u);
    EXPECT_EQ(hasher.ledger_population(),
              static_cast<std::int64_t>(engine->population_inside()));
    if (kernel != nullptr) {
      EXPECT_EQ(kernel->violation_count(), 0u)
          << "first violation: "
          << (kernel->violations().empty() ? "?" : kernel->violations().front());
      EXPECT_EQ(kernel->checked_steps(), engine->step_count());
    }
    return hasher.hash();
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(ReferenceKernel, PopulationScanMatchesCounter) {
  roadnet::ManhattanConfig mc;
  mc.streets = 4;
  mc.avenues = 3;
  mc.gateway_stride = 2;
  const RoadNetwork net = roadnet::make_manhattan_grid(mc);
  traffic::SimConfig sc;
  sc.seed = 9;
  ReferenceKernel kernel(net, sc);
  traffic::Router router(net, util::derive_seed(9, "router"));
  traffic::DemandConfig dc;
  dc.vehicles_at_100pct = 30;
  dc.seed = util::derive_seed(9, "demand");
  traffic::DemandModel demand(kernel, router, dc);
  kernel.set_route_planner([&demand](traffic::VehicleId v, NodeId n) {
    return demand.plan_continuation(v, n);
  });
  demand.init_population();
  for (int i = 0; i < 400; ++i) {
    demand.update();
    kernel.step();
  }
  EXPECT_EQ(reference_population_inside(kernel), kernel.population_inside());
  EXPECT_EQ(reference_class_population(kernel), kernel.class_population());
  EXPECT_EQ(kernel.violation_count(), 0u);
}

// ---- naive Dijkstra + route validation --------------------------------------

TEST(ReferenceDijkstra, PlannedRoutesPassValidation) {
  roadnet::ManhattanConfig mc;
  mc.streets = 6;
  mc.avenues = 5;
  const RoadNetwork net = roadnet::make_manhattan_grid(mc);
  traffic::Router router(net, 77);
  int validated = 0;
  for (std::uint32_t from = 0; from < net.num_intersections(); from += 3) {
    for (std::uint32_t to = 1; to < net.num_intersections(); to += 7) {
      if (from == to) continue;
      traffic::Route route;
      route.edges = router.plan(NodeId{from}, NodeId{to});
      if (route.edges.empty()) continue;
      const std::string fail = validate_continuation(net, NodeId{from}, route);
      EXPECT_EQ(fail, "") << "route " << from << "->" << to;
      ++validated;
    }
  }
  EXPECT_GT(validated, 20);
}

TEST(ReferenceDijkstra, RejectsDiscontinuousAndOverpricedRoutes) {
  roadnet::ManhattanConfig mc;
  mc.streets = 5;
  mc.avenues = 5;
  const RoadNetwork net = roadnet::make_manhattan_grid(mc);
  traffic::Router router(net, 5);

  // A route whose first edge does not leave the stated node.
  traffic::Route route;
  route.edges = router.plan(NodeId{0}, NodeId{12});
  ASSERT_FALSE(route.edges.empty());
  const NodeId wrong_start{net.segment(route.edges.front()).to.value()};
  EXPECT_NE(validate_continuation(net, wrong_start, route), "");

  // A grossly indirect route: out and back over the same street repeatedly
  // blows through the jitter envelope of the direct optimum.
  const auto& out0 = net.intersection(NodeId{0}).out_edges;
  ASSERT_FALSE(out0.empty());
  traffic::Route wander;
  NodeId at{0};
  // Walk 40 greedy hops to wherever; the free-flow cost of this walk vastly
  // exceeds 1.8x the shortest path to its endpoint on a 5x5 block grid.
  for (int hop = 0; hop < 40; ++hop) {
    const auto& out = net.intersection(at).out_edges;
    ASSERT_FALSE(out.empty());
    wander.edges.push_back(out.front());
    at = net.segment(out.front()).to;
  }
  EXPECT_NE(validate_continuation(net, NodeId{0}, wander), "");

  const double direct = reference_shortest_free_flow(net, NodeId{0}, at);
  EXPECT_LT(direct, 40 * net.free_flow_time(out0.front()));
}

}  // namespace
}  // namespace ivc::testing
