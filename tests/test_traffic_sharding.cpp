// Shard partition + merge: the two pure pieces the parallel engine's
// determinism rests on. The partitioner must produce contiguous,
// exhaustive, segment-aligned ranges for ANY worklist/shard-count
// combination — including the adversarial ones (empty worklists, empty
// shards, single-lane shards, one segment swallowing everything) — and
// the EventBuffer splice must reproduce serial generation order when
// shard buffers are concatenated in shard order.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <set>
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

// ---- shard boundaries against the SoA layout --------------------------------
//
// The SoA refactor made every shard read and write slices of the same
// global arrays (position[], speed[], ...) instead of disjoint Vehicle
// records, so a shard-boundary bug now corrupts neighbours through plain
// array indexing rather than through pointers. These cases saturate every
// lane of a ring (worklist = all lanes, so shard boundaries land exactly
// on segment edges, the alignment the partitioner guarantees) and require
// the hot arrays to come out bit-identical for every thread count.

// One-way ring of `segments` edges, `lanes` lanes each, every lane seeded
// with two vehicles — occupancy is total, the adversarial case where each
// worker's range abuts another's in the shared arrays.
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
      // the stop lines where shard ranges meet.
      const double fast = 0.7 + 0.05 * ((s + static_cast<std::uint32_t>(lane)) % 8);
      EXPECT_TRUE(
          engine.spawn_at(ring.edges[s], lane, 90.0, attrs, ring.loop_from(s), fast).valid());
      EXPECT_TRUE(
          engine.spawn_at(ring.edges[s], lane, 30.0, attrs, ring.loop_from(s), 1.2).valid());
    }
  }
  // Watch a spread of vehicles so the sharded overtake scan contributes.
  const auto& alive = engine.alive_vehicles();
  for (std::size_t i = 0; i < alive.size(); i += 7) engine.set_watched(alive[i], true);
  for (int i = 0; i < steps; ++i) engine.step();

  EXPECT_TRUE(engine.store().rows_consistent());
  return {engine.store().position, engine.store().speed, engine.events_emitted()};
}

TEST(ShardSoA, HotArraysBitIdenticalAcrossThreadCounts) {
  // 32 segments x 2 lanes = 64 occupied lanes: enough for 4 shards at the
  // engine's grain, with boundaries forced onto segment edges mid-ring.
  const SaturatedRing ring(32, 2);
  const auto serial = run_saturated(ring, 1, 80);
  for (const int threads : {2, 3, 4, 8}) {
    const auto parallel = run_saturated(ring, threads, 80);
    // Bitwise, not approximately: shards execute the same per-lane bodies
    // in the same arithmetic order, so any divergence is a boundary bug.
    EXPECT_EQ(std::get<0>(serial), std::get<0>(parallel)) << "threads=" << threads;
    EXPECT_EQ(std::get<1>(serial), std::get<1>(parallel)) << "threads=" << threads;
    EXPECT_EQ(std::get<2>(serial), std::get<2>(parallel)) << "threads=" << threads;
  }
}

// A traced sharded step reads the workers' thread-CPU clock only on the
// collector's sampling stride, not on every fork-join, while the wall
// busy time still covers every sharded call.
TEST(ShardPerf, WorkerCpuIsSampledOnTheCollectorStride) {
  const SaturatedRing ring(32, 2);
  SimConfig config;
  config.threads = 2;
  SimEngine engine(ring.net, config);
  ExteriorAttributes attrs;
  for (std::uint32_t s = 0; s < ring.edges.size(); ++s) {
    for (int lane = 0; lane < 2; ++lane) {
      for (const double pos : {30.0, 90.0}) {
        ASSERT_TRUE(engine.spawn_at(ring.edges[s], lane, pos, attrs, ring.loop_from(s)).valid());
      }
    }
  }
  util::PerfCollector perf;
  engine.set_perf(&perf);
  constexpr std::uint64_t kSteps = 4 * util::PerfCollector::kCpuSampleStride;
  for (std::uint64_t i = 0; i < kSteps; ++i) engine.step();
  // 128 vehicles keep the worklist above the sharding grain, so dynamics
  // is sharded on every step and exactly the strided calls are sampled.
  const util::PerfPhaseStats& dynamics = perf.phase(util::PerfPhase::Dynamics);
  EXPECT_EQ(dynamics.calls, kSteps);
  EXPECT_EQ(dynamics.parallel_calls, kSteps);
  EXPECT_EQ(dynamics.parallel_cpu_sample_calls, 4u);
  EXPECT_GT(dynamics.parallel_nanos, 0u);
}

// ---- shard ownership assertions ---------------------------------------------
//
// Two nets catch a serial-only call escaping into a sharded phase:
//
//  * static — ivc_lint rule R3 walks the direct call graph from every
//    IVC_SHARD_PASS body and rejects reachable IVC_SERIAL_ONLY calls at
//    lint time. It cannot see through virtual dispatch, std::function
//    callbacks (the route planner), or code outside src/.
//  * dynamic — the IVC_ASSERT(tls_shard_ == nullptr) ownership checks in
//    the serial-only mutators, which trip at runtime no matter how the
//    call arrived. IVC_ASSERT stays enabled in Release, so this net is
//    live in every build type.
//
// This death test pins the dynamic net: a subclass (exactly the kind of
// code R3 never sees) installs a worker's shard context the way
// run_sharded does, then makes the forbidden despawn call. No pool
// threads are involved — the context is installed directly on this
// thread — so the EXPECT_DEATH fork stays single-threaded and safe.
class ShardOwnershipProbeEngine final : public SimEngine {
 public:
  using SimEngine::SimEngine;

  void despawn_from_inside_shard(VehicleId id) {
    ShardContext ctx;
    tls_shard_ = &ctx;  // what run_sharded does around each worker's body
    despawn(id.slot(), vehicle(id).edge());
    tls_shard_ = nullptr;  // not reached; restored for form
  }

  void despawn_serially(VehicleId id) { despawn(id.slot(), vehicle(id).edge()); }
};

TEST(ShardOwnership, SerialOnlyDespawnInsideShardContextAborts) {
  const SaturatedRing ring(2, 1);
  SimConfig config;
  config.threads = 1;  // no fork-join team: keep the parent fork-safe
  ShardOwnershipProbeEngine engine(ring.net, config);
  ExteriorAttributes attrs;
  attrs.type = BodyType::Sedan;
  const VehicleId id =
      engine.spawn_at(ring.edges[0], 0, 40.0, attrs, ring.loop_from(0), 1.0);
  ASSERT_TRUE(id.valid());
  // The same call is legal on the serial path (proves the probe fails for
  // the ownership reason, not because the despawn itself is malformed)...
  ShardOwnershipProbeEngine serial_engine(ring.net, config);
  const VehicleId serial_id =
      serial_engine.spawn_at(ring.edges[0], 0, 40.0, attrs, ring.loop_from(0), 1.0);
  ASSERT_TRUE(serial_id.valid());
  serial_engine.despawn_serially(serial_id);
  EXPECT_EQ(serial_engine.alive_vehicles().size(), 0u);
  // ...and aborts with the ownership assertion inside a shard context.
  EXPECT_DEATH(engine.despawn_from_inside_shard(id), "tls_shard_ == nullptr");
}

// The TlsGuard in run_sharded is a scope guard precisely so that a shard
// body throwing (a route-planner callback can) cannot leave the caller
// thread — worker 0 — with a stale shard context after the fork-join
// rethrows. Regression shape: drive a genuinely sharded step whose
// planner throws, catch the rethrow, then perform a serial-only mutation.
// With a stale tls_shard_ the despawn's ownership assertion would abort
// the process; with the guard it must succeed.
TEST(ShardExceptionSafety, ThrowingPlannerLeavesSerialPathUsable) {
  // 32 segments x 2 lanes = 64 occupied lanes: over the sharding grain, so
  // the dynamics phase really forks across the 4-worker team.
  const SaturatedRing ring(32, 2);
  SimConfig config;
  config.threads = 4;
  ShardOwnershipProbeEngine engine(ring.net, config);
  ExteriorAttributes attrs;
  attrs.type = BodyType::Sedan;
  for (std::uint32_t s = 0; s < ring.edges.size(); ++s) {
    const int lanes = ring.net.segment(ring.edges[s]).lanes;
    for (int lane = 0; lane < lanes; ++lane) {
      // Non-cyclic single-edge continuations (the route holds the edges
      // *after* the spawn edge): one transit exhausts it, and the next
      // stop line must consult the planner — from inside the sharded
      // dynamics pass.
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

  // Caller thread survived the rethrow; its shard context must be gone.
  ASSERT_FALSE(engine.alive_vehicles().empty());
  const std::size_t before = engine.alive_vehicles().size();
  engine.despawn_serially(engine.alive_vehicles().front());
  EXPECT_EQ(engine.alive_vehicles().size(), before - 1);
}

// ---- false-sharing stat ------------------------------------------------------
//
// debug_shared_hot_lines() counts the 64-byte lines of the position column
// that hold vehicles of more than one dynamics shard. The reference below
// groups slots by line directly from their addresses.

// 32 single-lane segments at threads = 2: lanes 0-15 form shard 0 and
// lanes 16-31 shard 1. Spawns one vehicle per segment; `segment_of_slot`
// says which segment slot i (the i-th spawn) lands on.
std::size_t shared_lines(int threads, std::uint32_t (*segment_of_slot)(std::uint32_t),
                         std::size_t* reference) {
  const SaturatedRing ring(32, 1);
  SimConfig config;
  config.threads = threads;
  SimEngine engine(ring.net, config);
  ExteriorAttributes attrs;
  for (std::uint32_t slot = 0; slot < 32; ++slot) {
    const std::uint32_t segment = segment_of_slot(slot);
    const VehicleId id =
        engine.spawn_at(ring.edges[segment], 0, 40.0, attrs, ring.loop_from(segment));
    EXPECT_EQ(id.slot(), slot);
  }
  std::map<std::uintptr_t, std::set<bool>> shards_by_line;
  for (std::uint32_t slot = 0; slot < 32; ++slot) {
    const auto line = reinterpret_cast<std::uintptr_t>(&engine.store().position[slot]) / 64;
    shards_by_line[line].insert(segment_of_slot(slot) >= 16);
  }
  *reference = 0;
  for (const auto& [line, shards] : shards_by_line) *reference += shards.size() > 1 ? 1 : 0;
  return engine.debug_shared_hot_lines();
}

// Even slots on shard 0's segments, odd slots on shard 1's.
std::uint32_t interleaved(std::uint32_t slot) { return slot / 2 + (slot % 2) * 16; }

TEST(ShardFalseSharing, SerialEngineSharesNoLines) {
  std::size_t reference = 0;
  EXPECT_EQ(shared_lines(1, interleaved, &reference), 0u);
}

TEST(ShardFalseSharing, InterleavedSlotsShareEveryLine) {
  // Every line holding two or more of the 32 slots is shared (4 or 5
  // lines, by alignment).
  std::size_t reference = 0;
  const std::size_t shared = shared_lines(2, interleaved, &reference);
  EXPECT_EQ(shared, reference);
  EXPECT_GE(shared, 4u);
}

TEST(ShardFalseSharing, ContiguousSlotsShareAtMostTheBoundaryLine) {
  std::size_t reference = 0;
  const auto contiguous = [](std::uint32_t slot) { return slot; };
  const std::size_t shared = shared_lines(2, contiguous, &reference);
  EXPECT_EQ(shared, reference);
  EXPECT_LE(shared, 1u);
}

TEST(ShardSoA, SingleSegmentRingDegeneratesToOneShard) {
  // 2 segments cannot split across 4 workers without breaking alignment;
  // the run must still be exact (and exercise the all-in-one-shard path).
  const SaturatedRing ring(2, 3);
  const auto serial = run_saturated(ring, 1, 60);
  const auto parallel = run_saturated(ring, 4, 60);
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace ivc::traffic
