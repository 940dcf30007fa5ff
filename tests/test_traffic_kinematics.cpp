// Kinematic invariants of the dynamics kernel under extreme inputs.
//
// Property sweep over step size (dt 0.05 / 0.5 / 2 s), speed limit
// (1 / 15 / 60 m/s) and vehicle length (2 / 20 m and a 2-20 m mix) on
// small closed zoo maps. After every step, for every vehicle and every
// in-lane follower/leader pair:
//  * position and speed are finite;
//  * 0 <= speed <= the vehicle's desired speed on its edge;
//  * bumper-to-bumper separation is at least kMinSeparation, behind a
//    leader waiting past the stop line for admission too;
//  * a follower never crosses the stop line (seg.length - kStopMargin).
// Every map uses one speed limit on all of its roads, so a vehicle's
// desired speed does not change when it crosses an intersection.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <string>
#include <tuple>

#include "roadnet/zoo.hpp"
#include "traffic/sim_engine.hpp"

namespace ivc::traffic {
namespace {

using roadnet::RoadNetwork;

// Mirrors the engine's private constants (sim_engine.cpp).
constexpr double kMinSeparation = 0.1;
constexpr double kStopMargin = 0.5;

enum class MapKind { RoundaboutTown, RingRadial, RandomWeb };
enum class Lengths { Short, Long, Mixed };

RoadNetwork make_map(MapKind kind, double speed_limit) {
  switch (kind) {
    case MapKind::RoundaboutTown: {
      roadnet::RoundaboutTownConfig c;
      c.rows = 3;
      c.cols = 3;
      c.spacing = 120.0;
      c.lanes = 2;
      c.speed_limit = speed_limit;
      return roadnet::make_roundabout_town(c);
    }
    case MapKind::RingRadial: {
      roadnet::RingRadialConfig c;
      c.rings = 2;
      c.spokes = 5;
      c.inner_radius = 90.0;
      c.ring_gap = 90.0;
      c.speed_limit = speed_limit;
      return roadnet::make_ring_radial(c);
    }
    case MapKind::RandomWeb: {
      roadnet::RandomWebConfig c;
      c.nodes = 10;
      c.radius = 250.0;
      c.speed_limit = speed_limit;
      c.seed = 7;
      return roadnet::make_random_web(c);
    }
  }
  return {};
}

// Test-local engine that spawns vehicles of any length. Body types only
// span 2.2-11 m; the length column is what every kernel reads, so setting
// it right after the spawn gives a well-formed vehicle of that length.
class LengthProbeEngine final : public SimEngine {
 public:
  using SimEngine::SimEngine;

  VehicleId spawn_with_length(roadnet::EdgeId edge, int lane, double position, double length,
                              double desired_speed_factor) {
    const VehicleId id = spawn_at(edge, lane, position, ExteriorAttributes{}, Route{},
                                  desired_speed_factor);
    if (id.valid()) store_.length[id.slot()] = length;
    return id;
  }
};

double length_of(Lengths mode, std::size_t k) {
  constexpr double kMix[] = {2.0, 20.0, 4.5, 11.0, 7.0, 16.0};
  switch (mode) {
    case Lengths::Short: return 2.0;
    case Lengths::Long: return 20.0;
    case Lengths::Mixed: return kMix[k % std::size(kMix)];
  }
  return 0.0;
}

// Fills every lane from its start: each vehicle's rear sits `gap` metres
// ahead of the previous vehicle's front bumper.
void populate(LengthProbeEngine& engine, Lengths mode) {
  constexpr double kGap = 6.0;
  constexpr double kFactors[] = {0.6, 1.0, 1.2, 0.9};
  std::size_t k = 0;
  for (const auto& seg : engine.network().segments()) {
    for (int lane = 0; lane < seg.lanes; ++lane) {
      double rear = 0.0;
      for (;;) {
        const double len = length_of(mode, k);
        const double front = rear + len;
        if (front >= seg.length - 1.0) break;
        const VehicleId id = engine.spawn_with_length(seg.id, lane, front, len,
                                                      kFactors[k % std::size(kFactors)]);
        ASSERT_TRUE(id.valid()) << "seg " << seg.id.value() << " lane " << lane;
        ++k;
        rear = front + kGap;
      }
    }
  }
}

void expect_invariants(const SimEngine& engine, const std::string& where) {
  const VehicleStore& store = engine.store();
  for (const VehicleId id : engine.alive_vehicles()) {
    const std::uint32_t s = id.slot();
    ASSERT_TRUE(std::isfinite(store.position[s])) << where << " slot " << s;
    ASSERT_TRUE(std::isfinite(store.speed[s])) << where << " slot " << s;
    ASSERT_GE(store.speed[s], 0.0) << where << " slot " << s;
    const double limit = engine.network().segment(store.edge[s]).speed_limit;
    ASSERT_LE(store.speed[s], store.desired_speed(s, limit)) << where << " slot " << s;
  }
  for (const auto& seg : engine.network().segments()) {
    for (int lane = 0; lane < seg.lanes; ++lane) {
      const auto& vehicles = engine.lane_vehicles(seg.id, lane);
      for (std::size_t i = 0; i + 1 < vehicles.size(); ++i) {
        const std::uint32_t f = vehicles[i].slot();
        const std::uint32_t l = vehicles[i + 1].slot();
        ASSERT_LE(store.position[f], seg.length - kStopMargin)
            << where << ": follower past the stop line, seg " << seg.id.value();
        // pos[l] - len[l] - pos[f] >= kMinSeparation, written in the
        // overlap clamp's own rounding order: the clamp places a follower
        // exactly at fl(fl(pos[l] - len[l]) - kMinSeparation), which the
        // subtraction form can read back a few ulp short of 0.1 m.
        ASSERT_LE(store.position[f], store.position[l] - store.length[l] - kMinSeparation)
            << where << ": overlap on seg " << seg.id.value() << " lane " << lane;
      }
    }
  }
}

using Params = std::tuple<MapKind, double, double>;  // map, dt, speed limit

class KinematicInvariants : public ::testing::TestWithParam<Params> {};

TEST_P(KinematicInvariants, HoldAfterEveryStep) {
  const auto [kind, dt, speed_limit] = GetParam();
  const RoadNetwork net = make_map(kind, speed_limit);
  for (const Lengths mode : {Lengths::Short, Lengths::Long, Lengths::Mixed}) {
    SimConfig config;
    config.dt = dt;
    config.seed = 11;
    LengthProbeEngine engine(net, config);
    populate(engine, mode);
    if (HasFatalFailure()) return;
    ASSERT_GT(engine.alive_count(), 0u);
    // 150 s of simulated time: long enough for the slowest vehicles to
    // reach an intersection.
    const int steps = static_cast<int>(150.0 / dt);
    for (int step = 0; step < steps; ++step) {
      engine.step();
      expect_invariants(engine, "lengths " + std::to_string(static_cast<int>(mode)) +
                                    " step " + std::to_string(step));
      if (HasFatalFailure()) return;
    }
    EXPECT_GT(engine.total_transits(), 0u) << "no vehicle ever crossed an intersection";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KinematicInvariants,
    ::testing::Combine(::testing::Values(MapKind::RoundaboutTown, MapKind::RingRadial,
                                         MapKind::RandomWeb),
                       ::testing::Values(0.05, 0.5, 2.0), ::testing::Values(1.0, 15.0, 60.0)));

}  // namespace
}  // namespace ivc::traffic
