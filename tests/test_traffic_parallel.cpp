// Thread-count determinism: the engine's event stream and final state
// must be bit-identical for every SimConfig::threads value. A world steps
// serially whatever the value (it is kept for configs, trace bytes and
// perfbench), so these tests pin that the knob stays inert: they drive a
// fully-wired churning world (boundary arrivals, lane changes on
// multi-lane avenues, watched vehicles, replans, despawns) at thread
// counts 1/2/4/8 and require identical event-stream hashes, identical
// state counters, and a consistent occupancy worklist throughout.
//
// The differential fuzz bank covers the same contract across randomized
// topologies; this file is the fast, targeted engine-layer check that
// runs in the integration tier with a readable failure surface.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "roadnet/manhattan.hpp"
#include "traffic/demand.hpp"
#include "traffic/router.hpp"
#include "traffic/sim_engine.hpp"

namespace ivc::traffic {
namespace {

using roadnet::NodeId;
using roadnet::RoadNetwork;
using roadnet::make_manhattan_grid;

RoadNetwork open_grid(int streets, int avenues) {
  roadnet::ManhattanConfig mc;
  mc.streets = streets;
  mc.avenues = avenues;
  mc.gateway_stride = 1;
  return make_manhattan_grid(mc);
}

// FNV-1a over every field of every event, in delivery order.
class StreamHash final : public SimObserver {
 public:
  void on_spawn(const SpawnEvent& e) override {
    mix(1);
    mix(static_cast<std::uint64_t>(e.time.millis()));
    mix(e.vehicle.value());
    mix(e.edge.value());
  }
  void on_transit(const TransitEvent& e) override {
    mix(2);
    mix(static_cast<std::uint64_t>(e.time.millis()));
    mix(e.vehicle.value());
    mix(e.node.value());
    mix(e.from_edge.value());
    mix(e.to_edge.value());
    mix(e.from_entry_seq);
  }
  void on_overtake(const OvertakeEvent& e) override {
    mix(3);
    mix(static_cast<std::uint64_t>(e.time.millis()));
    mix(e.edge.value());
    mix(e.watched.value());
    mix(e.other.value());
    mix(e.other_now_ahead ? 1 : 0);
  }
  void on_despawn(const DespawnEvent& e) override {
    mix(4);
    mix(static_cast<std::uint64_t>(e.time.millis()));
    mix(e.vehicle.value());
    mix(e.edge.value());
  }

  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (i * 8)) & 0xff;
      hash_ *= 1099511628211ull;
    }
  }
  std::uint64_t hash_ = 1469598103934665603ull;
};

struct RunResult {
  std::uint64_t event_hash = 0;
  std::uint64_t events = 0;
  std::uint64_t transits = 0;
  std::uint64_t spawned = 0;
  std::size_t alive = 0;
  std::size_t population_inside = 0;
  double mean_speed = 0.0;
  bool occupancy_consistent = false;
};

// One deterministic churning run at the given engine thread count.
RunResult run_world(int threads, std::uint64_t seed, int steps,
                    bool check_occupancy_under_way = false) {
  const RoadNetwork net = open_grid(6, 5);
  SimConfig sc;
  sc.seed = seed;
  sc.threads = threads;
  SimEngine engine(net, sc);
  Router router(net, util::derive_seed(seed, "router"));
  DemandConfig dc;
  dc.vehicles_at_100pct = 70;
  dc.arrival_rate_at_100pct = 0.7;
  dc.exit_probability = 0.4;
  dc.seed = util::derive_seed(seed, "demand");
  DemandModel demand(engine, router, dc);
  engine.set_route_planner(
      [&demand](VehicleId v, NodeId n) { return demand.plan_continuation(v, n); });

  StreamHash hash;
  engine.add_observer(&hash);
  demand.init_population();
  // Watch a slice of the fleet so overtake events enter the stream.
  const auto& alive = engine.alive_vehicles();
  for (std::size_t i = 0; i < std::min<std::size_t>(alive.size(), 16); ++i) {
    engine.set_watched(alive[i], true);
  }

  RunResult result;
  result.occupancy_consistent = true;
  for (int i = 0; i < steps; ++i) {
    demand.update();
    engine.step();
    if (check_occupancy_under_way && i % 50 == 0) {
      result.occupancy_consistent =
          result.occupancy_consistent && engine.debug_occupancy_consistent();
    }
  }
  result.occupancy_consistent =
      result.occupancy_consistent && engine.debug_occupancy_consistent();
  result.event_hash = hash.value();
  result.events = engine.events_emitted();
  result.transits = engine.total_transits();
  result.spawned = engine.total_spawned();
  result.alive = engine.alive_count();
  result.population_inside = engine.population_inside();
  result.mean_speed = engine.mean_speed();
  return result;
}

TEST(ParallelStepping, EventStreamIdenticalAcrossThreadCounts) {
  const RunResult serial = run_world(1, 51, 1200);
  ASSERT_GT(serial.events, 0u);
  ASSERT_GT(serial.transits, 0u);
  for (const int threads : {2, 4, 8}) {
    const RunResult threaded = run_world(threads, 51, 1200);
    EXPECT_EQ(threaded.event_hash, serial.event_hash) << "threads=" << threads;
    EXPECT_EQ(threaded.events, serial.events) << "threads=" << threads;
    EXPECT_EQ(threaded.transits, serial.transits) << "threads=" << threads;
    EXPECT_EQ(threaded.spawned, serial.spawned) << "threads=" << threads;
    EXPECT_EQ(threaded.alive, serial.alive) << "threads=" << threads;
    EXPECT_EQ(threaded.population_inside, serial.population_inside)
        << "threads=" << threads;
    // Bitwise, not approximately: every thread count runs the same
    // floating-point operations in the same per-lane order.
    EXPECT_EQ(threaded.mean_speed, serial.mean_speed) << "threads=" << threads;
  }
}

TEST(ParallelStepping, HardwareConcurrencyAliasMatchesSerial) {
  // threads = 0 resolves to hardware concurrency — whatever that is on
  // the host, the stream must not change.
  const RunResult serial = run_world(1, 52, 600);
  const RunResult hardware = run_world(0, 52, 600);
  EXPECT_EQ(hardware.event_hash, serial.event_hash);
  EXPECT_EQ(hardware.events, serial.events);
}

TEST(ParallelStepping, OccupancyWorklistConsistentUnderSharding) {
  // The occupancy worklist must stay exactly the set of non-empty lanes
  // through heavy churn at a thread count above one.
  const RunResult threaded = run_world(4, 53, 1000, /*check_occupancy_under_way=*/true);
  EXPECT_TRUE(threaded.occupancy_consistent);
  EXPECT_GT(threaded.transits, 0u);
}

TEST(ParallelStepping, RepeatedThreadedRunsAreBitExact) {
  const RunResult a = run_world(4, 54, 800);
  const RunResult b = run_world(4, 54, 800);
  EXPECT_EQ(a.event_hash, b.event_hash);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.mean_speed, b.mean_speed);
}

}  // namespace
}  // namespace ivc::traffic
