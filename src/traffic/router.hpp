// Route planning for roaming and boundary trips.
//
// Routes minimize free-flow travel time with a small per-request
// multiplicative jitter so demand spreads over parallel streets the way a
// real city's does. An exclusion set supports the paper's "odd traffic
// pattern" experiments: demand that deliberately detours around a segment
// creates the orphan deadlock that patrol cars must break (Theorem 3).
#pragma once

#include <unordered_set>
#include <vector>

#include "roadnet/road_network.hpp"
#include "util/rng.hpp"

namespace ivc::traffic {

class Router {
 public:
  // Per-request multiplicative jitter bounds on the free-flow edge cost:
  // route diversity that also flattens edge betweenness without maintaining
  // congestion state. Public because they bound every planned route's
  // free-flow cost relative to the unjittered optimum — any plan() result P
  // satisfies free_flow(P) <= (kJitterHi / kJitterLo) * free_flow(optimal),
  // the property the differential-testing harness checks against a naive
  // Dijkstra reference (src/testing/reference_kernel.hpp).
  static constexpr double kJitterLo = 0.75;
  static constexpr double kJitterHi = 1.35;

  Router(const roadnet::RoadNetwork& net, std::uint64_t seed);

  // Edges that demand refuses to route over (they remain drivable; the
  // patrol fleet still uses them). Setup-time only: plan() is const and
  // may run on any thread, so the exclusion set must be frozen before the
  // first step.
  void exclude_edge(roadnet::EdgeId e);
  [[nodiscard]] const std::unordered_set<roadnet::EdgeId>& excluded() const {
    return excluded_;
  }

  // Shortest jittered path from `from` to `to` over non-excluded interior
  // edges; all jitter comes from the caller's counter-based stream, so two
  // queries with equal (key, counter) yield the same route no matter which
  // thread plans first. Thread-safe (const; per-thread scratch). Returns
  // an empty vector when unreachable (caller falls back to a non-jittered,
  // non-excluded search before giving up).
  [[nodiscard]] std::vector<roadnet::EdgeId> plan(roadnet::NodeId from, roadnet::NodeId to,
                                                 util::StreamRng& rng) const;

  // Uniformly random interior destination different from `avoid`.
  [[nodiscard]] roadnet::NodeId random_destination(roadnet::NodeId avoid,
                                                   util::StreamRng& rng) const;

  // Convenience for serial callers (tests, benches, examples): same
  // algorithms drawing from an internal sequential stream seeded by the
  // constructor. NOT thread-safe and order-dependent by nature — the
  // engine/demand path always passes an explicit per-vehicle stream.
  [[nodiscard]] std::vector<roadnet::EdgeId> plan(roadnet::NodeId from, roadnet::NodeId to) {
    return plan(from, to, seq_);
  }
  [[nodiscard]] roadnet::NodeId random_destination(roadnet::NodeId avoid) {
    return random_destination(avoid, seq_);
  }

 private:
  const roadnet::RoadNetwork& net_;
  util::StreamRng seq_;  // backs the convenience overloads only
  std::unordered_set<roadnet::EdgeId> excluded_;
  // Free-flow time per edge, cached once: plan() relaxes tens of thousands
  // of edges per second at city scale and must not re-derive static edge
  // weights from the segment table every time.
  std::vector<double> free_flow_;
  // A* lower bound in seconds per straight-line meter: jitter floor over
  // the fastest segment, corrected for shortcut segments (length shorter
  // than the endpoint distance) so the heuristic stays admissible.
  double heuristic_rate_ = 0.0;
};

}  // namespace ivc::traffic
