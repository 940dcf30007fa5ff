#include "testing/reference_kernel.hpp"

#include <algorithm>
#include <limits>

#include "traffic/router.hpp"
#include "util/string_util.hpp"

namespace ivc::testing {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

ReferenceKernel::ReferenceKernel(const roadnet::RoadNetwork& net, traffic::SimConfig config)
    : SimEngine(net, config) {}

void ReferenceKernel::record_violation(std::string what) {
  ++violation_count_;
  if (violations_.size() < kMaxViolations) violations_.push_back(std::move(what));
}

void ReferenceKernel::apply_lane_changes() {
  if (!config_.allow_lane_change) return;
  // Every lane of every segment, ascending — the order the fast engine's
  // worklist snapshot walks. A lane that becomes occupied mid-phase (a
  // move into a previously-empty lane) is visited here where the snapshot
  // skips it; the mover is cooldown-gated, so both visits are no-ops and
  // the phases stay equivalent.
  for (std::size_t i = 0; i < total_lanes(); ++i) {
    lane_change_pass(static_cast<std::uint32_t>(i));
  }
}

void ReferenceKernel::update_dynamics() {
  // The shared dynamics_pass body reads next-edge entry room from the
  // pre-phase snapshot; every dynamics driver must take it first.
  prepare_entry_space();
  for (std::size_t i = 0; i < total_lanes(); ++i) {
    dynamics_pass(static_cast<std::uint32_t>(i));
  }
}

void ReferenceKernel::process_transits() {
  // Candidate collection over every lane; gateway despawns happen inline
  // exactly as in the worklist walk (segment-major order).
  for (std::size_t i = 0; i < total_lanes(); ++i) {
    collect_transit_candidates(static_cast<std::uint32_t>(i));
  }
  // Every intersection in id order — admit_at_node on a node with no
  // candidates is a no-op, so this matches the fast engine's sorted
  // active-node sweep event for event.
  for (std::size_t n = 0; n < net_.num_intersections(); ++n) {
    admit_at_node(roadnet::NodeId{static_cast<std::uint32_t>(n)});
  }
  // The shared candidate-collection body still maintains the fast engine's
  // active-node list; discard it, the sweep above covered every node.
  active_nodes_.clear();

  check_invariants();
}

void ReferenceKernel::check_invariants() {
  ++checked_steps_;

  // O(1) counter vs. linear recount.
  const std::size_t recount = reference_population_inside(*this);
  if (recount != population_inside()) {
    record_violation(util::format("population_inside=%zu but linear recount=%zu at step %llu",
                                  population_inside(), recount,
                                  static_cast<unsigned long long>(step_count())));
  }

  // Class histogram vs. per-class linear recount, every cell.
  const std::vector<std::uint32_t> classes = reference_class_population(*this);
  for (std::size_t c = 0; c < classes.size(); ++c) {
    if (classes[c] != class_population()[c]) {
      record_violation(util::format("class_population[%zu]=%u but linear recount=%u at step %llu",
                                    c, class_population()[c], classes[c],
                                    static_cast<unsigned long long>(step_count())));
      break;
    }
  }

  // Worklist + per-edge occupancy counters vs. the lane table.
  if (!debug_occupancy_consistent()) {
    record_violation(util::format(
        "occupied-lane worklist / edge counters inconsistent with lane table at step %llu",
        static_cast<unsigned long long>(step_count())));
  }

  // Every lane sorted by position ascending, every listed vehicle alive and
  // recorded on that lane.
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    const auto& lane_list = lanes_[i];
    for (std::size_t k = 0; k < lane_list.size(); ++k) {
      const auto veh = find_vehicle(lane_list[k]);
      if (!veh || !veh->alive()) {
        record_violation(util::format("lane %zu holds a dead/stale vehicle id at step %llu", i,
                                      static_cast<unsigned long long>(step_count())));
        break;
      }
      if (lane_index(veh->edge(), veh->lane()) != i) {
        record_violation(util::format("vehicle on lane %zu believes it is elsewhere", i));
        break;
      }
      if (k > 0 && vehicle(lane_list[k - 1]).position() > veh->position()) {
        record_violation(util::format("lane %zu not sorted by position at step %llu", i,
                                      static_cast<unsigned long long>(step_count())));
        break;
      }
    }
  }

  // The SoA arrays carry one row per slot...
  if (!store().rows_consistent()) {
    record_violation(util::format("SoA store rows inconsistent at step %llu",
                                  static_cast<unsigned long long>(step_count())));
  }
  // ...the dense alive index resolves, and its size matches a full slot scan.
  std::size_t alive_scan = 0;
  for (const traffic::VehicleCold& cold : store().cold) {
    if (cold.alive) ++alive_scan;
  }
  // The hot next-edge column is a memo of the route: unset, or the edge
  // the route names next. A stale entry would steer the fast kernel's
  // front vehicles by an edge the route has already left behind.
  for (const traffic::VehicleId id : alive_vehicles()) {
    const roadnet::EdgeId cached = store().next_edge[id.slot()];
    if (cached.valid() && cached != store().cold[id.slot()].route.peek()) {
      record_violation(util::format("vehicle slot %u caches next edge %u but its route names %u "
                                    "at step %llu",
                                    id.slot(), cached.value(),
                                    store().cold[id.slot()].route.peek().value(),
                                    static_cast<unsigned long long>(step_count())));
      break;
    }
  }
  if (alive_scan != alive_count()) {
    record_violation(util::format("alive index size %zu but slot scan finds %zu alive",
                                  alive_count(), alive_scan));
  }
}

std::size_t reference_population_inside(const traffic::SimEngine& engine) {
  std::size_t n = 0;
  for (const traffic::VehicleId id : engine.alive_vehicles()) {
    const traffic::VehicleRef veh = engine.vehicle(id);
    if (!veh.is_patrol() && !engine.network().segment(veh.edge()).is_gateway()) ++n;
  }
  return n;
}

std::vector<std::uint32_t> reference_class_population(const traffic::SimEngine& engine) {
  std::vector<std::uint32_t> cells(traffic::SimEngine::kAttrClasses, 0);
  for (const traffic::VehicleId id : engine.alive_vehicles()) {
    const traffic::VehicleRef veh = engine.vehicle(id);
    if (!veh.is_patrol() && !engine.network().segment(veh.edge()).is_gateway()) {
      ++cells[traffic::SimEngine::attr_class(veh.attrs())];
    }
  }
  return cells;
}

std::int64_t reference_true_population(const traffic::SimEngine& engine,
                                       const surveillance::Recognizer& recognizer) {
  std::int64_t n = 0;
  for (const traffic::VehicleId id : engine.alive_vehicles()) {
    const traffic::VehicleRef veh = engine.vehicle(id);
    if (veh.is_patrol()) continue;
    if (!recognizer.matches(veh.attrs())) continue;
    if (engine.network().segment(veh.edge()).is_gateway()) continue;
    ++n;
  }
  return n;
}

double reference_shortest_free_flow(const roadnet::RoadNetwork& net, roadnet::NodeId from,
                                    roadnet::NodeId to) {
  const std::size_t n = net.num_intersections();
  std::vector<double> dist(n, kInf);
  std::vector<char> done(n, 0);
  dist[from.value()] = 0.0;
  // Heap-less relaxation: V scans of the distance array. Obviously correct
  // and obviously O(V^2) — exactly what a reference should be.
  for (std::size_t round = 0; round < n; ++round) {
    std::size_t u = n;
    double best = kInf;
    for (std::size_t v = 0; v < n; ++v) {
      if (!done[v] && dist[v] < best) {
        best = dist[v];
        u = v;
      }
    }
    if (u == n) break;
    done[u] = 1;
    if (roadnet::NodeId{static_cast<std::uint32_t>(u)} == to) break;
    for (const roadnet::EdgeId e : net.intersection(roadnet::NodeId{static_cast<std::uint32_t>(u)})
                                       .out_edges) {
      const auto v = net.segment(e).to.value();
      dist[v] = std::min(dist[v], dist[u] + net.free_flow_time(e));
    }
  }
  return dist[to.value()];
}

std::string validate_continuation(const roadnet::RoadNetwork& net, roadnet::NodeId node,
                                  const traffic::Route& route) {
  if (route.edges.empty()) return {};  // engine falls back to a random out-edge

  // Split off a trailing outbound-gateway edge (exit routes end on one).
  std::size_t interior_count = route.edges.size();
  const auto& last = net.segment(route.edges.back());
  if (last.is_outbound_gateway()) --interior_count;

  roadnet::NodeId at = node;
  double free_flow = 0.0;
  for (std::size_t i = 0; i < interior_count; ++i) {
    const auto& seg = net.segment(route.edges[i]);
    if (seg.is_gateway()) {
      return util::format("route edge %zu is a gateway mid-route", i);
    }
    if (seg.from != at) {
      return util::format("route discontinuity at edge %zu (starts at node %u, expected %u)", i,
                          seg.from.value(), at.value());
    }
    at = seg.to;
    free_flow += net.free_flow_time(route.edges[i]);
  }
  if (interior_count < route.edges.size() && last.from != at) {
    return util::format("exit gateway departs node %u but route ends at node %u",
                        last.from.value(), at.value());
  }

  if (interior_count == 0) return {};
  const double optimum = reference_shortest_free_flow(net, node, at);
  if (!(optimum < kInf)) {
    return util::format("route reaches node %u which naive Dijkstra finds unreachable",
                        at.value());
  }
  // plan() minimizes jittered cost with jitter in [kJitterLo, kJitterHi]:
  //   kJitterLo * ff(chosen) <= jittered(chosen) <= jittered(optimal)
  //                          <= kJitterHi * ff(optimal).
  const double bound =
      (traffic::Router::kJitterHi / traffic::Router::kJitterLo) * optimum + 1e-9;
  if (free_flow > bound) {
    return util::format(
        "route free-flow cost %.3fs exceeds jitter envelope %.3fs of Dijkstra optimum %.3fs",
        free_flow, bound, optimum);
  }
  return {};
}

}  // namespace ivc::testing
