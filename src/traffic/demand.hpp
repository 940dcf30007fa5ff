// Traffic demand generation.
//
// Closed systems (paper Fig. 2/3): a fixed roaming population placed at
// t = 0, sized as a percentage of the "daily average" calibration constant —
// the x-axis of every figure in the paper's evaluation (10 %..100 %).
// Vehicles drive to random destinations and immediately re-plan on arrival,
// giving the unpredictable trajectories the protocol must tolerate.
//
// Open systems (paper Fig. 4/5): the same interior population plus Poisson
// arrivals on every inbound gateway; a fraction of trips are through
// traffic (enter one border, leave another), the rest roam and eventually
// exit — the "vehicles in and out along the border continuously" workload.
#pragma once

#include <cstdint>
#include <vector>

#include "traffic/router.hpp"
#include "traffic/sim_engine.hpp"

namespace ivc::serve {
struct SnapshotAccess;
}

namespace ivc::traffic {

struct DemandConfig {
  // Traffic volume as % of the daily average (paper x-axis: 10..100).
  double volume_pct = 100.0;
  // Interior population at 100 % volume.
  std::size_t vehicles_at_100pct = 2000;
  // Open systems: total arrival rate over all inbound gateways at 100 %
  // volume (vehicles/second).
  double arrival_rate_at_100pct = 1.6;
  // Probability that a roaming vehicle heads for an exit when it completes
  // a trip (open systems only).
  double exit_probability = 0.15;
  // Fraction of entering vehicles that are through traffic (straight to an
  // outbound gateway) — the paper notes many midtown vehicles are through
  // traffic.
  double through_fraction = 0.30;
  std::uint64_t seed = 1;
};

class DemandModel {
 public:
  DemandModel(SimEngine& engine, Router& router, DemandConfig config);

  // Places the initial interior population; call once before stepping.
  // Returns the number of vehicles actually placed (the network may
  // saturate below the target at extreme volumes).
  std::size_t init_population();

  // Per-step arrivals; no-op for closed networks. Call before engine.step().
  void update();

  // Route continuation used as the engine's RoutePlanner. Order-
  // independent: every draw (exit choice, destination, routing jitter)
  // comes from a stream keyed by the asking vehicle's own counter-based
  // draw, so a vehicle's route does not depend on which other vehicle
  // replanned before it.
  [[nodiscard]] Route plan_continuation(VehicleId vehicle, roadnet::NodeId node);

  // Sample exterior attributes from the fleet mix (never a police car).
  [[nodiscard]] ExteriorAttributes sample_attributes();

  [[nodiscard]] std::size_t target_population() const;
  [[nodiscard]] std::uint64_t spawned_total() const { return spawned_total_; }

 private:
  friend struct serve::SnapshotAccess;

  [[nodiscard]] double speed_factor();
  // Route from `node` to a random interior destination, drawing from `rng`.
  [[nodiscard]] Route roam_route(roadnet::NodeId node, util::StreamRng& rng);
  // Route from `node` out of the system via a random outbound gateway.
  [[nodiscard]] Route exit_route(roadnet::NodeId node, util::StreamRng& rng);

  SimEngine& engine_;
  Router& router_;
  DemandConfig config_;
  // Sequential stream for the serial paths only (initial placement,
  // boundary arrivals, attribute sampling); plan_continuation never
  // touches it — see above.
  util::Rng rng_;
  std::uint64_t replan_seed_ = 0;  // keys plan_continuation streams
  std::vector<roadnet::EdgeId> inbound_gateways_;
  std::vector<roadnet::NodeId> exit_nodes_;  // nodes with outbound gateways
  double arrival_budget_ = 0.0;  // fractional arrivals carried across steps
  std::uint64_t spawned_total_ = 0;
};

}  // namespace ivc::traffic
