#include "traffic/router.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "roadnet/graph.hpp"
#include "util/assert.hpp"

namespace ivc::traffic {

namespace {

// The jitter bounds live on the class (the differential harness checks
// planned routes against them); the lower bound also scales the A*
// heuristic, so it must stay a true floor on the realized edge cost.
constexpr double kJitterLo = Router::kJitterLo;
constexpr double kJitterHi = Router::kJitterHi;

struct QueueEntry {
  double estimate;  // g + heuristic (plain Dijkstra: heuristic = 0)
  double dist;      // g: jittered cost from the source
  std::uint32_t node;
  friend bool operator>(const QueueEntry& a, const QueueEntry& b) {
    if (a.estimate != b.estimate) return a.estimate > b.estimate;
    return a.node > b.node;
  }
};
}  // namespace

Router::Router(const roadnet::RoadNetwork& net, std::uint64_t seed)
    : net_(net), seq_(util::derive_seed(seed, "router-seq")) {
  free_flow_.reserve(net_.num_segments());
  double max_speed = 0.0;
  // Admissibility guard: the builder accepts explicit segment lengths, and
  // nothing forbids a length shorter than the straight-line distance
  // between its endpoints (a tunnel-like shortcut). The heuristic divides
  // by the worst such shortcut ratio so remaining-cost estimates stay true
  // lower bounds on every buildable map.
  double shortcut = 1.0;
  for (const auto& seg : net_.segments()) {
    free_flow_.push_back(net_.free_flow_time(seg.id));
    max_speed = std::max(max_speed, seg.speed_limit);
    if (seg.is_gateway()) continue;  // plan() never traverses gateways
    const geom::Vec2 d = net_.intersection(seg.to).position -
                         net_.intersection(seg.from).position;
    const double euclid = std::sqrt(d.x * d.x + d.y * d.y);
    if (euclid > 0.0) shortcut = std::min(shortcut, seg.length / euclid);
  }
  // Seconds of lower-bound travel per meter of straight-line distance.
  heuristic_rate_ = max_speed > 0.0 ? kJitterLo * shortcut / max_speed : 0.0;
}

void Router::exclude_edge(roadnet::EdgeId e) { excluded_.insert(e); }

std::vector<roadnet::EdgeId> Router::plan(roadnet::NodeId from, roadnet::NodeId to,
                                          util::StreamRng& rng) const {
  IVC_ASSERT(from.valid() && to.valid());
  if (from == to) return {};
  const std::size_t n = net_.num_intersections();
  // Per-thread scratch: plan() is const and may run on any thread (sweep
  // replicas plan on pool threads), and these arrays are pure workspace —
  // sharing them per thread instead of per Router keeps the hot path
  // allocation-free without any locking.
  static thread_local std::vector<double> dist_scratch;
  static thread_local std::vector<roadnet::EdgeId> parent_scratch;
  // The scratch outlives any single Router (thread_local): the same pool
  // thread may plan on a city-scale network and then on a toy one for a
  // different engine. Every entry below is (re)written for THIS network —
  // assign() sizes to n and overwrites the full range, never trusting
  // leftovers — and a grossly oversized backing store from an earlier,
  // larger network is released rather than pinned forever.
  if (dist_scratch.capacity() > 4 * n + 64) {
    std::vector<double>().swap(dist_scratch);
    std::vector<roadnet::EdgeId>().swap(parent_scratch);
  }
  dist_scratch.assign(n, roadnet::kUnreachable);
  parent_scratch.assign(n, roadnet::EdgeId::invalid());

  // A* with an admissible, consistent heuristic: remaining cost is at
  // least heuristic_rate_ seconds per straight-line meter (jitter floor /
  // max speed, corrected for shortcut segments — see the constructor). On
  // a city-scale grid this expands a corridor toward the destination
  // instead of flooding the whole map (the planner runs inside the
  // engine's step, so its cost is part of the per-step budget).
  const geom::Vec2 goal = net_.intersection(to).position;
  const auto heuristic = [&](roadnet::NodeId v) {
    const geom::Vec2 d = net_.intersection(v).position - goal;
    return heuristic_rate_ * std::sqrt(d.x * d.x + d.y * d.y);
  };

  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>> heap;
  dist_scratch[from.value()] = 0.0;
  heap.push({heuristic(from), 0.0, from.value()});
  while (!heap.empty()) {
    const auto [est, d, u] = heap.top();
    heap.pop();
    if (d > dist_scratch[u]) continue;
    if (roadnet::NodeId{u} == to) break;
    for (const roadnet::EdgeId e : net_.intersection(roadnet::NodeId{u}).out_edges) {
      if (excluded_.contains(e)) continue;
      const auto v = net_.segment(e).to.value();
      const double w = free_flow_[e.value()] * rng.uniform(kJitterLo, kJitterHi);
      const double nd = d + w;
      if (nd < dist_scratch[v]) {
        dist_scratch[v] = nd;
        parent_scratch[v] = e;
        heap.push({nd + heuristic(roadnet::NodeId{v}), nd, v});
      }
    }
  }
  if (dist_scratch[to.value()] == roadnet::kUnreachable) return {};
  std::vector<roadnet::EdgeId> path;
  for (roadnet::NodeId v = to; v != from;) {
    const roadnet::EdgeId e = parent_scratch[v.value()];
    path.push_back(e);
    v = net_.segment(e).from;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

roadnet::NodeId Router::random_destination(roadnet::NodeId avoid,
                                           util::StreamRng& rng) const {
  IVC_ASSERT(net_.num_intersections() > 1);
  for (;;) {
    const auto idx =
        static_cast<std::uint32_t>(rng.uniform_index(net_.num_intersections()));
    if (roadnet::NodeId{idx} != avoid) return roadnet::NodeId{idx};
  }
}

}  // namespace ivc::traffic
