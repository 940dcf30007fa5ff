// Shared scaffolding for protocol integration tests: builds a world
// (network + engine + demand + protocol + oracle) and runs it to
// convergence.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <ostream>
#include <type_traits>

#include "counting/oracle.hpp"
#include "counting/protocol.hpp"
#include "roadnet/manhattan.hpp"
#include "serve/world.hpp"
#include "testing/reference_kernel.hpp"
#include "traffic/demand.hpp"
#include "traffic/router.hpp"
#include "traffic/sim_engine.hpp"

namespace ivc::testing {

struct WorldConfig {
  roadnet::RoadNetwork net;
  traffic::SimConfig sim;
  counting::ProtocolConfig protocol;
  std::size_t vehicles = 100;
  std::uint64_t seed = 1;
  // Skip init_population() in the constructor so the test can first adjust
  // the router (e.g. exclude an orphan edge before any route is planned).
  bool defer_population = false;
};

class World {
 public:
  explicit World(WorldConfig config)
      : net_(std::move(config.net)),
        engine_(net_, config.sim),
        router_(net_, util::derive_seed(config.seed, "router")) {
    traffic::DemandConfig dc;
    dc.vehicles_at_100pct = config.vehicles;
    dc.arrival_rate_at_100pct = 0.5;
    dc.seed = util::derive_seed(config.seed, "demand");
    demand_ = std::make_unique<traffic::DemandModel>(engine_, router_, dc);
    engine_.set_route_planner([this](traffic::VehicleId v, roadnet::NodeId n) {
      return demand_->plan_continuation(v, n);
    });
    config.protocol.seed = util::derive_seed(config.seed, "protocol");
    protocol_ = std::make_unique<counting::CountingProtocol>(engine_, config.protocol);
    oracle_ = std::make_unique<counting::Oracle>(
        engine_, surveillance::Recognizer(config.protocol.target));
    protocol_->set_oracle(oracle_.get());
    if (!config.defer_population) placed_ = demand_->init_population();
  }

  std::size_t init_population() {
    placed_ = demand_->init_population();
    return placed_;
  }

  // Runs until `done()` or the limit; returns true when done() was reached.
  bool run_until(const std::function<bool()>& done, double limit_minutes = 120.0) {
    const auto limit = util::SimTime::from_minutes(limit_minutes);
    while (engine_.now() < limit) {
      demand_->update();
      engine_.step();
      if (engine_.step_count() % 10 == 0 && done()) return true;
    }
    return done();
  }

  bool run_to_convergence(double limit_minutes = 120.0) {
    return run_until(
        [this] {
          return protocol_->all_stable() && protocol_->quiescent() &&
                 (!protocol_->config().collection || protocol_->collection_complete());
        },
        limit_minutes);
  }

  roadnet::RoadNetwork& net() { return net_; }
  traffic::SimEngine& engine() { return engine_; }
  traffic::Router& router() { return router_; }
  traffic::DemandModel& demand() { return *demand_; }
  counting::CountingProtocol& protocol() { return *protocol_; }
  counting::Oracle& oracle() { return *oracle_; }
  [[nodiscard]] std::size_t placed() const { return placed_; }

 private:
  roadnet::RoadNetwork net_;
  traffic::SimEngine engine_;
  traffic::Router router_;
  std::unique_ptr<traffic::DemandModel> demand_;
  std::unique_ptr<counting::CountingProtocol> protocol_;
  std::unique_ptr<counting::Oracle> oracle_;
  std::size_t placed_ = 0;
};

struct TruthTrace {
  std::uint64_t checks = 0;
  std::int64_t min_truth = 0;
  std::int64_t max_truth = 0;
};

// Runs `config` to the end in a SimWorld and expects Oracle::true_population()
// to equal the linear reference recount before the first step, after every
// step, and across a save/restore cut at step `cut` (>= 1): the restored
// world is checked before its first step and after each of its own.
inline TruthTrace expect_truth_matches_reference(const experiment::ScenarioConfig& config,
                                                 std::uint64_t cut) {
  const surveillance::Recognizer recognizer(config.protocol.target);
  TruthTrace trace;
  const auto check = [&](const serve::SimWorld& world, const char* when) {
    const std::int64_t truth = world.oracle().true_population();
    EXPECT_EQ(truth, reference_true_population(world.engine(), recognizer))
        << when << ", step " << world.engine().step_count();
    trace.min_truth = trace.checks == 0 ? truth : std::min(trace.min_truth, truth);
    trace.max_truth = trace.checks == 0 ? truth : std::max(trace.max_truth, truth);
    ++trace.checks;
  };

  serve::SimWorld original(config);
  check(original, "before the first step");
  while (!original.done() && original.engine().step_count() < cut) {
    original.step();
    check(original, "uninterrupted");
  }
  serve::Snapshot snap;
  original.save(snap);
  serve::SimWorld resumed(config, serve::SimWorld::Mode::Restore);
  resumed.restore(serve::Snapshot::from_bytes(snap.to_bytes()));
  check(resumed, "after restore");
  while (!resumed.done()) {
    resumed.step();
    check(resumed, "resumed");
  }
  return trace;
}

// gtest prints a parameter struct as a raw byte dump, and CTest's test
// names carry that dump. A `const char* name` member would put a load
// address into the names, which ASLR changes on every run, and even its
// offset within the page moves whenever a string literal is added to the
// test binary. Call this from the case struct's PrintTo: it dumps the bytes
// as gtest does, with the name pointer written as zero. The struct must
// have no padding, or the dump shows stack bytes.
template <typename Case>
void print_case_bytes(const Case& param, std::ostream* os) {
  static_assert(std::is_trivially_copyable_v<Case>);
  static_assert(offsetof(Case, name) == 0);
  unsigned char bytes[sizeof(Case)];
  std::memcpy(bytes, &param, sizeof(Case));
  std::memset(bytes, 0, sizeof(param.name));
  ::testing::internal::PrintBytesInObjectTo(bytes, sizeof(Case), os);
}

}  // namespace ivc::testing
