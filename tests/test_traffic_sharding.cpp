// Shard partition + merge (traffic/sharding.hpp, EventBuffer::splice):
// the two pure pieces a partitioned pass's determinism rests on. The
// engine steps every world serially and calls neither; the last cases
// pin that SimConfig::threads leaves a saturated world bit-identical.
// The partitioner must produce contiguous,
// exhaustive, segment-aligned ranges for ANY worklist/shard-count
// combination — including the adversarial ones (empty worklists, empty
// shards, single-lane shards, one segment swallowing everything) — and
// the EventBuffer splice must reproduce serial generation order when
// shard buffers are concatenated in shard order.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "roadnet/builder.hpp"
#include "traffic/events.hpp"
#include "traffic/sharding.hpp"
#include "traffic/sim_engine.hpp"

namespace ivc::traffic {
namespace {

// segment_of stub: lane indices map to segments in blocks of `lanes_per_seg`.
struct BlockSegments {
  std::uint32_t lanes_per_seg;
  std::uint32_t operator()(std::uint32_t lane) const { return lane / lanes_per_seg; }
};

// Structural invariants every partition must satisfy, plus alignment.
template <typename SegmentOf>
void expect_valid_partition(const std::vector<std::uint32_t>& worklist,
                            const std::vector<ShardRange>& shards, SegmentOf segment_of,
                            std::size_t requested) {
  ASSERT_EQ(shards.size(), requested);
  std::size_t at = 0;
  for (const ShardRange& shard : shards) {
    EXPECT_EQ(shard.begin, at) << "shards must be contiguous";
    EXPECT_LE(shard.begin, shard.end);
    at = shard.end;
  }
  EXPECT_EQ(at, worklist.size()) << "shards must cover the worklist";
  // Alignment: a segment's lanes never straddle a boundary.
  for (std::size_t s = 0; s + 1 < shards.size(); ++s) {
    const std::size_t boundary = shards[s].end;
    if (boundary == 0 || boundary >= worklist.size()) continue;
    if (shards[s].empty()) continue;
    EXPECT_NE(segment_of(worklist[boundary - 1]), segment_of(worklist[boundary]))
        << "boundary at " << boundary << " splits a segment";
  }
}

TEST(ShardWorklist, EmptyWorklistYieldsEmptyShards) {
  std::vector<std::uint32_t> worklist;
  std::vector<ShardRange> shards;
  shard_worklist(worklist, 4, BlockSegments{2}, &shards);
  expect_valid_partition(worklist, shards, BlockSegments{2}, 4);
  for (const ShardRange& shard : shards) EXPECT_TRUE(shard.empty());
}

TEST(ShardWorklist, SingleLaneShardsWhenFewerLanesThanShards) {
  // 3 occupied lanes on 3 distinct segments, 8 shards: some shards get
  // exactly one lane, the rest are empty — all still valid.
  const std::vector<std::uint32_t> worklist = {0, 2, 4};
  std::vector<ShardRange> shards;
  shard_worklist(worklist, 8, BlockSegments{2}, &shards);
  expect_valid_partition(worklist, shards, BlockSegments{2}, 8);
  std::size_t singles = 0, empties = 0;
  for (const ShardRange& shard : shards) {
    if (shard.size() == 1) ++singles;
    if (shard.empty()) ++empties;
  }
  EXPECT_EQ(singles, 3u);
  EXPECT_EQ(empties, 5u);
}

TEST(ShardWorklist, OneGiantSegmentCollapsesToAllInOneShard) {
  // Every lane belongs to segment 0: no legal interior boundary exists,
  // so the first shard takes everything and the rest are empty.
  std::vector<std::uint32_t> worklist(64);
  for (std::uint32_t i = 0; i < 64; ++i) worklist[i] = i;
  std::vector<ShardRange> shards;
  shard_worklist(worklist, 4, BlockSegments{1000}, &shards);
  expect_valid_partition(worklist, shards, BlockSegments{1000}, 4);
  EXPECT_EQ(shards[0].size(), 64u);
  for (std::size_t s = 1; s < shards.size(); ++s) EXPECT_TRUE(shards[s].empty());
}

TEST(ShardWorklist, BoundariesPushRightPastSegmentRuns) {
  // Segments of 5 lanes each; even splits land mid-segment and must slide
  // to the next segment change.
  std::vector<std::uint32_t> worklist(40);
  for (std::uint32_t i = 0; i < 40; ++i) worklist[i] = i;
  std::vector<ShardRange> shards;
  shard_worklist(worklist, 3, BlockSegments{5}, &shards);
  expect_valid_partition(worklist, shards, BlockSegments{5}, 3);
  for (std::size_t s = 0; s + 1 < shards.size(); ++s) {
    if (!shards[s].empty() && shards[s].end < worklist.size()) {
      EXPECT_EQ(shards[s].end % 5, 0u);
    }
  }
}

TEST(ShardWorklist, SparseWorklistWithGaps) {
  // Non-contiguous lane indices (the realistic case: most lanes empty).
  const std::vector<std::uint32_t> worklist = {1, 3, 8, 9, 20, 21, 22, 40, 41, 99};
  for (std::size_t shards_requested = 1; shards_requested <= 12; ++shards_requested) {
    std::vector<ShardRange> shards;
    shard_worklist(worklist, shards_requested, BlockSegments{2}, &shards);
    expect_valid_partition(worklist, shards, BlockSegments{2}, shards_requested);
  }
}

TEST(ShardWorklist, PartitionIsDeterministic) {
  std::vector<std::uint32_t> worklist;
  for (std::uint32_t i = 0; i < 301; i += 3) worklist.push_back(i);
  std::vector<ShardRange> a, b;
  shard_worklist(worklist, 7, BlockSegments{4}, &a);
  shard_worklist(worklist, 7, BlockSegments{4}, &b);
  EXPECT_EQ(a, b);
}

// ---- shard-buffer merge -----------------------------------------------------

// Collects the vehicle slot of every event in delivery order.
class OrderProbe final : public SimObserver {
 public:
  std::vector<std::uint64_t> order;
  void on_spawn(const SpawnEvent& e) override { order.push_back(e.vehicle.value()); }
  void on_despawn(const DespawnEvent& e) override { order.push_back(e.vehicle.value()); }
};

TEST(EventBufferSplice, ConcatenatesInShardOrderAndClearsSources) {
  // Three shard buffers with interleavable content, one empty — the merge
  // must be a pure concatenation (shard 0 events, then shard 1, ...),
  // which is serial order precisely because shards are contiguous ranges
  // of the sorted worklist.
  EventBuffer step;
  EventBuffer shard0, shard1, shard2, shard3;
  const auto spawn = [](std::uint32_t slot) {
    return SpawnEvent{util::SimTime{}, VehicleId{slot, 0}, roadnet::EdgeId{0}};
  };
  shard0.push(spawn(0));
  shard0.push(spawn(1));
  // shard1 deliberately empty (empty shards must merge as no-ops).
  shard2.push(spawn(2));
  shard3.push(spawn(3));
  shard3.push(spawn(4));

  step.push(spawn(99));  // pre-existing serial event stays in front
  for (EventBuffer* shard : {&shard0, &shard1, &shard2, &shard3}) {
    step.splice(*shard);
    EXPECT_TRUE(shard->empty());
  }
  ASSERT_EQ(step.size(), 6u);

  OrderProbe probe;
  std::vector<SimObserver*> observers = {&probe};
  step.flush(observers);
  const std::vector<std::uint64_t> expected = {
      VehicleId{99, 0}.value(), VehicleId{0, 0}.value(), VehicleId{1, 0}.value(),
      VehicleId{2, 0}.value(),  VehicleId{3, 0}.value(), VehicleId{4, 0}.value()};
  EXPECT_EQ(probe.order, expected);
  EXPECT_TRUE(step.empty());  // flush cleared the merged buffer
}

TEST(EventBufferSplice, AdversarialShardBoundariesPreserveWorklistOrder) {
  // End-to-end shape of the engine's merge: take a worklist, partition it
  // with every shard count from all-in-one to more-shards-than-lanes,
  // emit one event per lane into the owning shard's buffer, merge, and
  // require the delivered order to equal the worklist order every time.
  std::vector<std::uint32_t> worklist = {2, 3, 10, 11, 12, 30, 31, 55, 70, 71, 72, 90};
  for (std::size_t shard_count = 1; shard_count <= 16; ++shard_count) {
    std::vector<ShardRange> shards;
    shard_worklist(worklist, shard_count, BlockSegments{2}, &shards);
    std::vector<EventBuffer> buffers(shards.size());
    for (std::size_t s = 0; s < shards.size(); ++s) {
      for (std::size_t i = shards[s].begin; i < shards[s].end; ++i) {
        buffers[s].push(SpawnEvent{util::SimTime{}, VehicleId{worklist[i], 0},
                                   roadnet::EdgeId{0}});
      }
    }
    EventBuffer step;
    for (auto& buffer : buffers) step.splice(buffer);

    OrderProbe probe;
    std::vector<SimObserver*> observers = {&probe};
    step.flush(observers);
    ASSERT_EQ(probe.order.size(), worklist.size()) << shard_count << " shards";
    for (std::size_t i = 0; i < worklist.size(); ++i) {
      EXPECT_EQ(probe.order[i], (VehicleId{worklist[i], 0}.value()))
          << "shard_count=" << shard_count << " position=" << i;
    }
  }
}

// ---- thread count against the SoA layout ------------------------------------
//
// These cases saturate every lane of a ring and require the hot arrays
// (position[], speed[]) to come out bit-identical for every thread count:
// the engine steps serially whatever SimConfig::threads says.

// One-way ring of `segments` edges, `lanes` lanes each, every lane seeded
// with two vehicles — occupancy is total.
struct SaturatedRing {
  roadnet::RoadNetwork net;
  std::vector<roadnet::EdgeId> edges;

  explicit SaturatedRing(std::uint32_t segments, int lanes) {
    roadnet::NetworkBuilder b;
    roadnet::RoadSpec rs;
    rs.lanes = lanes;
    rs.speed_limit = 12.0;
    std::vector<roadnet::NodeId> nodes;
    for (std::uint32_t i = 0; i < segments; ++i) {
      const double angle = 2.0 * 3.14159265358979 * i / segments;
      nodes.push_back(b.add_intersection({400.0 * std::cos(angle), 400.0 * std::sin(angle)}));
    }
    for (std::uint32_t i = 0; i < segments; ++i) {
      edges.push_back(b.add_one_way(nodes[i], nodes[(i + 1) % segments], rs, 150.0));
    }
    net = b.build();
  }

  [[nodiscard]] Route loop_from(std::uint32_t segment) const {
    Route r;
    r.cyclic = true;
    for (std::size_t i = 0; i < edges.size(); ++i) {
      r.edges.push_back(edges[(segment + 1 + i) % edges.size()]);
    }
    return r;
  }
};

// Full engine run at `threads`; returns the hot-state snapshot of every
// slot plus the event count — the bit-exactness witness.
std::tuple<std::vector<double>, std::vector<double>, std::uint64_t> run_saturated(
    const SaturatedRing& ring, int threads, int steps) {
  SimConfig config;
  config.threads = threads;
  SimEngine engine(ring.net, config);
  ExteriorAttributes attrs;
  attrs.type = BodyType::Sedan;
  for (std::uint32_t s = 0; s < ring.edges.size(); ++s) {
    const int lanes = ring.net.segment(ring.edges[s]).lanes;
    for (int lane = 0; lane < lanes; ++lane) {
      // Mixed desired speeds provoke lane changes and overtakes right at
      // the stop lines.
      const double fast = 0.7 + 0.05 * ((s + static_cast<std::uint32_t>(lane)) % 8);
      EXPECT_TRUE(
          engine.spawn_at(ring.edges[s], lane, 90.0, attrs, ring.loop_from(s), fast).valid());
      EXPECT_TRUE(
          engine.spawn_at(ring.edges[s], lane, 30.0, attrs, ring.loop_from(s), 1.2).valid());
    }
  }
  // Watch a spread of vehicles so the overtake scan contributes.
  const auto& alive = engine.alive_vehicles();
  for (std::size_t i = 0; i < alive.size(); i += 7) engine.set_watched(alive[i], true);
  for (int i = 0; i < steps; ++i) engine.step();

  EXPECT_TRUE(engine.store().rows_consistent());
  return {engine.store().position, engine.store().speed, engine.events_emitted()};
}

TEST(ShardSoA, HotArraysBitIdenticalAcrossThreadCounts) {
  // 32 segments x 2 lanes = 64 occupied lanes.
  const SaturatedRing ring(32, 2);
  const auto serial = run_saturated(ring, 1, 80);
  for (const int threads : {2, 3, 4, 8}) {
    const auto parallel = run_saturated(ring, threads, 80);
    // Bitwise, not approximately: every thread count runs the same
    // per-lane bodies in the same arithmetic order.
    EXPECT_EQ(std::get<0>(serial), std::get<0>(parallel)) << "threads=" << threads;
    EXPECT_EQ(std::get<1>(serial), std::get<1>(parallel)) << "threads=" << threads;
    EXPECT_EQ(std::get<2>(serial), std::get<2>(parallel)) << "threads=" << threads;
  }
}

// ---- exception safety -------------------------------------------------------

// Reaches the engine's protected serial-only despawn.
class DespawnProbeEngine final : public SimEngine {
 public:
  using SimEngine::SimEngine;

  void despawn_serially(VehicleId id) { despawn(id.slot(), vehicle(id).edge()); }
};

// A route-planner callback may throw from inside a step. Regression
// shape: drive a world at threads = 4 whose planner throws, catch the
// rethrow, then perform a serial-only mutation, which must succeed on
// the engine the exception left behind.
TEST(ShardExceptionSafety, ThrowingPlannerLeavesSerialPathUsable) {
  const SaturatedRing ring(32, 2);
  SimConfig config;
  config.threads = 4;
  DespawnProbeEngine engine(ring.net, config);
  ExteriorAttributes attrs;
  attrs.type = BodyType::Sedan;
  for (std::uint32_t s = 0; s < ring.edges.size(); ++s) {
    const int lanes = ring.net.segment(ring.edges[s]).lanes;
    for (int lane = 0; lane < lanes; ++lane) {
      // Non-cyclic single-edge continuations (the route holds the edges
      // *after* the spawn edge): one transit exhausts it, and the next
      // stop line must consult the planner from inside the dynamics pass.
      Route route;
      route.edges = {ring.edges[(s + 1) % ring.edges.size()]};
      ASSERT_TRUE(engine.spawn_at(ring.edges[s], lane, 120.0, attrs, route, 1.0).valid());
      ASSERT_TRUE(engine.spawn_at(ring.edges[s], lane, 40.0, attrs, route, 1.0).valid());
    }
  }
  engine.set_route_planner([](VehicleId, roadnet::NodeId) -> Route {
    throw std::runtime_error("planner failure injected by test");
  });

  bool threw = false;
  try {
    for (int i = 0; i < 400; ++i) engine.step();
  } catch (const std::runtime_error&) {
    threw = true;
  }
  ASSERT_TRUE(threw) << "no vehicle consulted the planner; the setup went stale";

  // The engine survived the rethrow and still takes serial mutations.
  ASSERT_FALSE(engine.alive_vehicles().empty());
  const std::size_t before = engine.alive_vehicles().size();
  engine.despawn_serially(engine.alive_vehicles().front());
  EXPECT_EQ(engine.alive_vehicles().size(), before - 1);
}

TEST(ShardSoA, SingleSegmentRingDegeneratesToOneShard) {
  // A two-segment ring, the smallest saturated world: threads = 4 must
  // still be exact.
  const SaturatedRing ring(2, 3);
  const auto serial = run_saturated(ring, 1, 60);
  const auto parallel = run_saturated(ring, 4, 60);
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace ivc::traffic
