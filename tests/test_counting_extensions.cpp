// Alg. 3 extensions: specified-type counting ("white van"), one-way
// streets, overtake adjustments, loss compensation accounting.
#include <gtest/gtest.h>

#include "counting_test_helpers.hpp"
#include "traffic/trace.hpp"

namespace ivc::counting {
namespace {

using ivc::testing::World;
using ivc::testing::WorldConfig;
using roadnet::NodeId;

TEST(WhiteVan, CountsOnlyMatchingVehicles) {
  roadnet::ManhattanConfig mc;
  mc.streets = 5;
  mc.avenues = 4;
  ProtocolConfig pc;
  pc.target = surveillance::TargetSpec::white_van();
  pc.channel_loss = 0.30;
  WorldConfig wc{make_manhattan_grid(mc), traffic::SimConfig{}, pc, 250, 101};
  World world(std::move(wc));
  auto& protocol = world.protocol();
  protocol.designate_seeds({NodeId{0}});
  protocol.start();
  ASSERT_TRUE(world.run_to_convergence(180.0)) << protocol.debug_collection_state();

  // Ground truth: count white vans directly.
  std::int64_t vans = 0;
  for (const auto& cold : world.engine().store().cold) {
    if (cold.alive && cold.attrs.color == traffic::Color::White &&
        cold.attrs.type == traffic::BodyType::Van) {
      ++vans;
    }
  }
  ASSERT_GT(vans, 0) << "fixture must contain at least one white van";
  EXPECT_EQ(protocol.live_total(), vans);
  EXPECT_EQ(protocol.collected_total(), vans);
  EXPECT_EQ(world.oracle().true_population(), vans);
  // Far fewer count events than vehicles: the filter was active.
  EXPECT_LT(protocol.stats().count_events, world.placed());
}

// The oracle's O(1) truth (a sum over the engine's class histogram) must
// equal the linear recount under a constrained spec, with vans entering
// and leaving through gateways: before the first step, on every step, and
// across a save/restore cut.
TEST(WhiteVan, OracleTruthMatchesLinearRecountEveryStep) {
  experiment::ScenarioConfig config;
  config.map.streets = 5;
  config.map.avenues = 4;
  config.mode = experiment::SystemMode::Open;
  config.gateway_stride = 2;
  config.vehicles_at_100pct = 250;
  config.arrival_rate_at_100pct = 1.0;
  config.protocol.target = surveillance::TargetSpec::white_van();
  config.protocol.channel_loss = 0.30;
  config.time_limit_minutes = 8.0;
  config.seed = 111;
  const auto trace = ivc::testing::expect_truth_matches_reference(config, 300);
  EXPECT_GT(trace.checks, 600u);
  EXPECT_GT(trace.max_truth, 0) << "fixture must contain white vans";
  EXPECT_NE(trace.min_truth, trace.max_truth) << "the van population never moved";
}

TEST(WhiteVan, LabelsRideAnyVehicleEvenNonMatching) {
  // Communication is independent of the counting filter: markers still
  // propagate through sedans and trucks.
  ProtocolConfig pc;
  pc.target = surveillance::TargetSpec::white_van();
  WorldConfig wc{roadnet::make_ring(6, 150.0), traffic::SimConfig::simple_model(), pc,
                 40, 102};
  World world(std::move(wc));
  auto& protocol = world.protocol();
  protocol.designate_seeds({NodeId{0}});
  protocol.start();
  ASSERT_TRUE(world.run_until([&] { return protocol.all_stable(); }, 60.0));
  EXPECT_EQ(protocol.stats().labels_issued, world.net().num_interior_segments());
}

TEST(OneWay, PureOneWayRingCountsExactly) {
  // Every segment one-way: labels can never return on a reverse edge, so
  // acks and reports must take the circuitous route (Alg. 4 semantics via
  // store-carry-forward).
  ProtocolConfig pc;
  WorldConfig wc{roadnet::make_one_way_ring(7, 160.0), traffic::SimConfig::simple_model(),
                 pc, 35, 103};
  World world(std::move(wc));
  auto& protocol = world.protocol();
  protocol.designate_seeds({NodeId{0}});
  protocol.start();
  ASSERT_TRUE(world.run_to_convergence(180.0)) << protocol.debug_collection_state();
  const auto once = world.oracle().verify_exactly_once();
  EXPECT_TRUE(once.ok) << once.detail;
  EXPECT_EQ(protocol.collected_total(), world.oracle().true_population());
}

TEST(OneWay, ManhattanMixedOneWayTwoWayExact) {
  roadnet::ManhattanConfig mc;
  mc.streets = 6;
  mc.avenues = 5;
  mc.two_way_every = 0;  // maximally one-way (perimeter stays two-way)
  ProtocolConfig pc;
  pc.channel_loss = 0.3;
  WorldConfig wc{make_manhattan_grid(mc), traffic::SimConfig{}, pc, 200, 104};
  World world(std::move(wc));
  auto& protocol = world.protocol();
  protocol.designate_seeds(protocol.choose_random_seeds(2));
  protocol.start();
  ASSERT_TRUE(world.run_to_convergence(200.0)) << protocol.debug_collection_state();
  EXPECT_EQ(protocol.live_total(), world.oracle().true_population());
  EXPECT_EQ(protocol.collected_total(), protocol.live_total());
}

TEST(Overtakes, AdjustmentsFireOnMultiLaneRoads) {
  roadnet::ManhattanConfig mc;
  mc.streets = 5;
  mc.avenues = 4;
  mc.avenue_lanes = 3;
  ProtocolConfig pc;
  pc.channel_loss = 0.3;  // escapees + overtakes interact
  WorldConfig wc{make_manhattan_grid(mc), traffic::SimConfig{}, pc, 300, 105};
  World world(std::move(wc));
  auto& protocol = world.protocol();
  protocol.designate_seeds({NodeId{0}});
  protocol.start();
  ASSERT_TRUE(world.run_until([&] { return protocol.all_stable() && protocol.quiescent(); },
                              200.0));
  EXPECT_EQ(protocol.live_total(), world.oracle().true_population());
  EXPECT_GT(protocol.stats().overtake_events, 0u)
      << "multi-lane fixture should exercise the adjustment path";
}

TEST(Overtakes, DisabledAdjustmentBreaksExactness) {
  // Negative control: with Alg. 3's overtake adjustment switched off, the
  // same lossy multi-lane scenario generally miscounts — demonstrating the
  // adjustments are load-bearing, exactly the paper's claim.
  roadnet::ManhattanConfig mc;
  mc.streets = 5;
  mc.avenues = 4;
  mc.avenue_lanes = 3;
  int mismatches = 0;
  for (std::uint64_t rng = 1; rng <= 4; ++rng) {
    ProtocolConfig pc;
    pc.channel_loss = 0.3;
    pc.overtake_adjustment = false;
    pc.collection = false;
    WorldConfig wc{make_manhattan_grid(mc), traffic::SimConfig{}, pc, 300, 200 + rng};
    World world(std::move(wc));
    auto& protocol = world.protocol();
    protocol.designate_seeds({NodeId{0}});
    protocol.start();
    if (!world.run_until([&] { return protocol.all_stable() && protocol.quiescent(); },
                         200.0)) {
      continue;
    }
    if (protocol.live_total() != world.oracle().true_population()) ++mismatches;
  }
  EXPECT_GT(mismatches, 0);
}

TEST(LossCompensation, LedgerBalancesDoubleCounts) {
  roadnet::ManhattanConfig mc;
  mc.streets = 5;
  mc.avenues = 4;
  ProtocolConfig pc;
  pc.channel_loss = 0.4;
  pc.collection = false;
  WorldConfig wc{make_manhattan_grid(mc), traffic::SimConfig{}, pc, 250, 106};
  World world(std::move(wc));
  auto& protocol = world.protocol();
  protocol.designate_seeds({NodeId{0}});
  protocol.start();
  ASSERT_TRUE(
      world.run_until([&] { return protocol.all_stable() && protocol.quiescent(); }, 200.0));

  // Count events exceed the population by exactly the number of
  // compensations (each -1 pairs with one extra camera count or tally).
  std::int64_t loss_adjust_total = 0;
  std::int64_t overtake_adjust_total = 0;
  for (const auto& cp : protocol.checkpoints()) {
    loss_adjust_total += cp.loss_adjust();
    overtake_adjust_total += cp.overtake_adjust();
  }
  EXPECT_LT(loss_adjust_total, 0);
  const std::int64_t camera_counts =
      static_cast<std::int64_t>(protocol.stats().count_events);
  EXPECT_EQ(camera_counts + loss_adjust_total + overtake_adjust_total,
            world.oracle().true_population());
  EXPECT_GT(world.oracle().double_counted_vehicles(), 0u);
}

TEST(LossCompensation, RetriesUntilAck) {
  ProtocolConfig pc;
  pc.channel_loss = 0.6;  // heavy loss: many retries
  pc.collection = false;
  WorldConfig wc{roadnet::make_ring(5, 150.0), traffic::SimConfig{}, pc, 80, 107};
  World world(std::move(wc));
  auto& protocol = world.protocol();
  protocol.designate_seeds({NodeId{0}});
  protocol.start();
  ASSERT_TRUE(
      world.run_until([&] { return protocol.all_stable() && protocol.quiescent(); }, 120.0));
  // Despite 60% loss, every edge eventually carried its marker.
  EXPECT_EQ(protocol.stats().labels_issued, world.net().num_interior_segments());
  EXPECT_GT(protocol.stats().label_handoff_failures,
            protocol.stats().labels_issued / 2);
  EXPECT_EQ(protocol.live_total(), world.oracle().true_population());
}

TEST(Roundabout, MultiAdmissionIntersectionCountsExactly) {
  roadnet::ManhattanConfig mc;
  mc.streets = 4;
  mc.avenues = 4;
  mc.with_roundabout = true;
  ProtocolConfig pc;
  WorldConfig wc{make_manhattan_grid(mc), traffic::SimConfig{}, pc, 150, 108};
  World world(std::move(wc));
  // Seed at the roundabout itself (NW corner = last row, col 0).
  const NodeId roundabout{static_cast<std::uint32_t>((mc.streets - 1) * mc.avenues)};
  ASSERT_EQ(world.net().intersection(roundabout).kind,
            roadnet::IntersectionKind::Roundabout);
  auto& protocol = world.protocol();
  protocol.designate_seeds({roundabout});
  protocol.start();
  ASSERT_TRUE(world.run_to_convergence(120.0));
  EXPECT_EQ(protocol.live_total(), world.oracle().true_population());
}

}  // namespace
}  // namespace ivc::counting
