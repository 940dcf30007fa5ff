// Snapshot container + the component field visitors.
//
// Everything that touches component internals lives here, next to the one
// friend type (SnapshotAccess) the components grant access to. Each
// component's serialized members are listed once, in Fields<T>::io, which
// both saves (ByteWriter) and restores (ByteReader). What only restore
// does follows the io call as plain code: rebuilding derived state
// (alive index, class histogram, occupancy, memo caches) and the
// cross-checks that refuse a snapshot whose parts disagree — a vehicle
// reference naming no live vehicle, a lane list that does not hold
// exactly its own vehicles, a broken route, a label off its edge.

#include "serve/snapshot.hpp"

#include <algorithm>
#include <utility>

#include "counting/oracle.hpp"
#include "counting/patrol.hpp"
#include "counting/protocol.hpp"
#include "serve/world.hpp"
#include "traffic/demand.hpp"
#include "traffic/sim_engine.hpp"
#include "util/annotations.hpp"

namespace ivc::serve {

// ---- Snapshot container -----------------------------------------------------

void ByteReader::refuse(const char* what) { throw SnapshotError(what); }

std::vector<std::uint8_t>& Snapshot::add_section(std::string_view name) {
  for (Section& s : sections_) {
    if (s.name == name) {
      s.payload.clear();
      return s.payload;
    }
  }
  sections_.push_back(Section{std::string(name), {}});
  return sections_.back().payload;
}

const std::vector<std::uint8_t>& Snapshot::section(std::string_view name) const {
  for (const Section& s : sections_) {
    if (s.name == name) return s.payload;
  }
  throw SnapshotError("snapshot has no section '" + std::string(name) + "'");
}

bool Snapshot::has_section(std::string_view name) const {
  for (const Section& s : sections_) {
    if (s.name == name) return true;
  }
  return false;
}

std::vector<std::uint8_t> Snapshot::to_bytes() const {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  file_header(w, kMagic, kVersion, "snapshot");
  w(static_cast<std::uint32_t>(sections_.size()));
  for (const Section& s : sections_) {
    w(s.name);
    w(s.payload);
  }
  return out;
}

Snapshot Snapshot::from_bytes(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  file_header(r, kMagic, kVersion, "snapshot");
  std::uint32_t count = 0;
  r(count);
  Snapshot snap;
  for (std::uint32_t i = 0; i < count; ++i) {
    Section s;
    r(s.name);
    r(s.payload);
    snap.add_section(s.name) = std::move(s.payload);
  }
  r.expect_end("snapshot");
  return snap;
}

// ---- field visitors -----------------------------------------------------------

namespace {

void check(bool ok, const char* what) {
  if (!ok) throw SnapshotError(std::string("snapshot incompatible with this world: ") + what);
}

}  // namespace

template <>
struct SnapshotAccess::Fields<v2x::Message> {
  template <class Ar, class Self>
  static void io(Ar& ar, Self& msg) {
    ar(msg.source);
    ar(msg.destination);
    auto kind = static_cast<std::uint8_t>(msg.payload.index());
    ar(kind);
    if constexpr (Ar::kLoading) {  // a fresh element already holds a TreeAck (kind 0)
      if (kind > 1) throw SnapshotError("unknown message payload kind in snapshot");
      if (kind == 1) msg.payload = v2x::CountReport{};
    }
    if (auto* ack = std::get_if<v2x::TreeAck>(&msg.payload)) {
      ar(ack->from);
      ar(ack->is_child);
    } else {
      auto& report = std::get<v2x::CountReport>(msg.payload);
      ar(report.from);
      ar(report.subtree_total);
    }
    ar(msg.created_at);
    ar(msg.hops);
  }
};

template <>
struct SnapshotAccess::Fields<v2x::ObuRegistry::Entry> {
  template <class Ar, class Self>
  static void io(Ar& ar, Self& entry) {
    ar(entry.generation_tag);
    auto& obu = entry.state;
    ar(obu.counted);
    bool has_label = obu.label.has_value();
    ar(has_label);
    if (has_label) {
      if constexpr (Ar::kLoading) obu.label.emplace();
      ar(obu.label->issuer);
      ar(obu.label->edge);
      ar(obu.label->issued_at);
    }
    ar(obu.overtake_delta);
    ar.seq(obu.cargo, nested);
    ar(obu.channel_attempts);
  }
};

template <>
struct SnapshotAccess::Fields<counting::Checkpoint> {
  template <class Ar, class Self>
  static void io(Ar& ar, Self& cp) {
    ar(cp.seed_);
    ar(cp.active_);
    ar(cp.activation_time_);
    ar.maybe_unset(cp.predecessor_edge_);
    ar.maybe_unset(cp.parent_);
    // The direction vectors are structure (rebuilt from the network); only
    // their mutable state is serialized, keyed by a checked edge echo.
    ar.expect(cp.inbound_.size(), "inbound direction count differs");
    for (auto& in : cp.inbound_) {
      ar.expect(in.edge, "inbound direction edge differs");
      ar(in.state);
      ar(in.count);
      ar(in.start_time);
      ar(in.stop_time);
    }
    ar.expect(cp.outbound_.size(), "outbound direction count differs");
    for (auto& out : cp.outbound_) {
      ar.expect(out.edge, "outbound direction edge differs");
      ar(out.needs_label);
      ar(out.outcome);
      ar(out.failed_handoffs);
      ar(out.issue_time);
    }
    ar(cp.interaction_in_);
    ar(cp.interaction_out_);
    ar(cp.loss_adjust_);
    ar(cp.overtake_adjust_);
    std::vector<std::pair<std::uint32_t, std::int64_t>> reports(cp.child_reports_.begin(),
                                                                cp.child_reports_.end());
    ar.seq(reports);
    if constexpr (Ar::kLoading) cp.child_reports_ = {reports.begin(), reports.end()};
    ar.seq(cp.children_);
    ar(cp.report_sent_);
    ar(cp.subtree_total_);
    ar(cp.report_time_);
  }
};

template <>
struct SnapshotAccess::Fields<counting::CountingProtocol> {
  template <class Ar, class Self>
  static void io(Ar& ar, Self& p) {
    ar.expect(p.config_.seed, "protocol seed differs");
    ar.expect(p.config_.channel_loss, "channel loss differs");
    ar.expect(p.config_.open_system, "open-system flag differs");
    ar.expect(p.checkpoints_.size(), "checkpoint count differs");
    ar.expect(p.outbox_.size(), "outbox table size differs");
    ar.expect(p.marker_on_edge_.size(), "marker table size differs");

    ar(p.started_);
    ar.seq(p.seeds_);
    ar(p.rng_);

    ar(p.channel_.anonymous_attempts_);
    ar(p.channel_.attempts_);
    ar(p.channel_.failures_);

    auto& stats = p.stats_;
    ar(stats.count_events);
    ar(stats.labels_issued);
    ar(stats.label_handoff_failures);
    ar(stats.activations_by_label);
    ar(stats.markers_consumed);
    ar(stats.messages_sent);
    ar(stats.messages_delivered);
    ar(stats.message_pickup_failures);
    ar(stats.patrol_relays);
    ar(stats.overtake_events);
    ar(stats.interaction_entries);
    ar(stats.interaction_exits);

    ar.seq(p.obus_.entries_, nested);
    for (auto& box : p.outbox_) {
      ar.seq(box, [](auto& a, auto& stamped) {
        SnapshotAccess::io(a, stamped.msg);
        a(stamped.since);
      });
    }
    for (auto& marker : p.marker_on_edge_) ar(marker);
    for (auto& cp : p.checkpoints_) SnapshotAccess::io(ar, cp);
  }
};

template <>
struct SnapshotAccess::Fields<traffic::DemandModel> {
  template <class Ar, class Self>
  static void io(Ar& ar, Self& demand) {
    ar.expect(demand.config_.seed, "demand seed differs");
    ar.expect(demand.config_.volume_pct, "demand volume differs");
    ar(demand.rng_);
    ar(demand.arrival_budget_);
    ar(demand.spawned_total_);
  }
};

template <>
struct SnapshotAccess::Fields<counting::Oracle> {
  template <class Ar, class Self>
  static void io(Ar& ar, Self& oracle) {
    ar(oracle.count_events_);
    ar(oracle.adjustment_sum_);
    ar(oracle.exit_events_);
    std::vector<std::pair<std::uint64_t, std::uint16_t>> counted;
    if constexpr (!Ar::kLoading) {
      counted.reserve(oracle.counted_times_.size());
      IVC_ORDER_EXEMPT("entries are collected then sorted by key; serialized order is canonical");
      for (const auto& [id, times] : oracle.counted_times_) counted.emplace_back(id, times);
      std::sort(counted.begin(), counted.end());
    }
    ar.seq(counted);
    if constexpr (Ar::kLoading) oracle.counted_times_ = {counted.begin(), counted.end()};
  }
};

template <>
struct SnapshotAccess::Fields<counting::PatrolFleet> {
  template <class Ar, class Self>
  static void io(Ar& ar, Self& fleet) {
    ar.seq(fleet.vehicles_);
  }
};

// One vehicle-store row: the hot columns and the cold record of one slot.
template <>
struct SnapshotAccess::Fields<traffic::VehicleStore> {
  template <class Ar, class Self>
  static void row(Ar& ar, Self& store, std::size_t i) {
    ar(store.position[i]);
    ar(store.prev_position[i]);
    ar(store.speed[i]);
    ar(store.length[i]);
    ar(store.desired_speed_factor[i]);
    ar.maybe_unset(store.edge[i]);  // a recycled slot is reset to no edge
    ar(store.lane[i]);
    ar(store.lane_change_cooldown[i]);
    ar(store.is_patrol[i]);
    auto& cold = store.cold[i];
    ar(cold.id);
    ar(cold.attrs.color);
    ar(cold.attrs.type);
    ar(cold.attrs.brand);
    ar(cold.alive);
    ar.seq(cold.route.edges);
    ar(cold.route.next);
    ar(cold.route.cyclic);
    ar(cold.entry_seq);
    ar(cold.rng_key);
    ar(cold.rng_draws);
  }

  template <class Ar, class Self>
  static void io(Ar& ar, Self& store) {
    std::size_t slots = store.slot_count();
    ar.length(slots, blank_row_bytes());
    if constexpr (Ar::kLoading) store = traffic::VehicleStore{};
    for (std::size_t i = 0; i < slots; ++i) {
      if constexpr (Ar::kLoading) store.push_slot();
      row(ar, store, i);
    }
  }

  static std::size_t blank_row_bytes() {
    traffic::VehicleStore blank;
    blank.push_slot();
    std::vector<std::uint8_t> out;
    ByteWriter w(out);
    row(w, std::as_const(blank), 0);
    return out.size();
  }
};

template <>
struct SnapshotAccess::Fields<traffic::SimEngine> {
  template <class Ar, class Self>
  static void io(Ar& ar, Self& e) {
    // Structural-validation block: restore refuses a world built from
    // different inputs. Thread count is deliberately absent — it must not
    // be state.
    ar.expect(e.config_.seed, "engine seed differs");
    ar.expect(e.config_.dt, "dt differs");
    ar.expect(e.config_.multi_admission, "admission model differs");
    ar.expect(e.config_.allow_lane_change, "lane-change model differs");
    ar.expect(e.config_.intersection_lookahead, "intersection lookahead differs");
    ar.expect(e.net_.num_intersections(), "intersection count differs");
    ar.expect(e.net_.num_segments(), "segment count differs");
    ar.expect(e.lanes_.size(), "lane count differs");
    ar.expect(e.vehicle_stream_seed_, "vehicle stream seed differs");

    ar(e.now_);
    ar(e.step_count_);
    ar(e.total_transits_);
    ar(e.total_spawned_);
    ar(e.entry_seq_counter_);
    ar(e.events_emitted_);
    ar(e.population_inside_);
    ar(e.peak_occupied_lanes_);
    ar(e.rng_);

    SnapshotAccess::io(ar, e.store_);
    ar.seq(e.free_slots_);
    ar.seq(e.alive_);
    ar.seq(e.watched_);
    // Lane membership is serialized explicitly: in-lane order encodes
    // arrival history (position ties), which positions alone cannot rebuild.
    ar.expect(e.lanes_.size(), "lane table size differs");
    for (auto& lane : e.lanes_) ar.seq(lane);
  }
};

template <>
struct SnapshotAccess::Fields<SimWorld> {
  template <class Ar, class Self>
  static void io(Ar& ar, Self& world) {
    ar(world.population_);
    ar(world.saw_all_active_);
    ar(world.time_all_active_min_);
    ar(world.converged_);
  }
};

// ---- save / restore -----------------------------------------------------------

namespace {

bool is_live(const traffic::VehicleStore& store, traffic::VehicleId id) {
  return id.slot() < store.slot_count() && store.cold[id.slot()].id == id &&
         store.cold[id.slot()].alive;
}

struct SegmentEnds {
  roadnet::NodeId from, to;
};

// A route the engine can drive: `next` within the edge list (before its
// end for a cycle), and every edge still ahead (all of a cycle, back round
// to where it starts) leaving the node the one before it reaches — or an
// inbound gateway, which the engine also accepts. Ids are already
// range-checked by the reader.
bool route_drivable(const std::vector<SegmentEnds>& ends, const traffic::Route& route,
                    roadnet::EdgeId on) {
  const std::vector<roadnet::EdgeId>& edges = route.edges;
  const std::size_t n = edges.size();
  if (route.cyclic ? route.next >= n : route.next > n) return false;
  roadnet::NodeId at = ends[on.value()].to;
  const auto leaves_at = [&ends, &at](roadnet::EdgeId e) {
    const SegmentEnds& seg = ends[e.value()];
    const bool ok = !at.valid() || seg.from == at || (!seg.from.valid() && seg.to.valid());
    at = seg.to;
    return ok;
  };
  for (std::size_t i = route.next; i < n; ++i) {
    if (!leaves_at(edges[i])) return false;
  }
  if (!route.cyclic) return true;
  for (std::size_t i = 0; i <= route.next; ++i) {  // wrap back round to `next`
    if (!leaves_at(edges[i])) return false;
  }
  return true;
}

}  // namespace

void SnapshotAccess::save(const SimWorld& world, Snapshot& snap) {
  const traffic::SimEngine& engine = *world.engine_;
  if (!engine.events_.empty() || !engine.pending_free_.empty() ||
      !engine.active_nodes_.empty()) {
    throw SnapshotError("a snapshot is only legal between steps");
  }
  const auto write = [&snap](const char* section, const auto& component) {
    ByteWriter w(snap.add_section(section));
    io(w, component);
  };
  write("engine", engine);
  write("demand", *world.demand_);
  write("protocol", *world.protocol_);
  write("oracle", *world.oracle_);
  if (world.patrol_) write("patrol", *world.patrol_);
  write("world", world);
}

void SnapshotAccess::restore(SimWorld& world, const Snapshot& snap) {
  traffic::SimEngine& e = *world.engine_;
  if (!e.events_.empty() || !e.pending_free_.empty() || !e.active_nodes_.empty()) {
    throw SnapshotError("a restore is only legal between steps");
  }
  if (snap.has_section("patrol") != (world.patrol_ != nullptr)) {
    throw SnapshotError("snapshot and world disagree on having a patrol fleet");
  }
  const auto read = [&snap, &e](const char* section, auto& component) {
    ByteReader r(snap.section(section), &e.net_);
    io(r, component);
    r.expect_end(section);
  };

  // Engine: each alive vehicle once in the alive index and in its own
  // lane list, with a drivable route. The class histogram and occupancy
  // are rebuilt; the histogram must match population_inside.
  read("engine", e);
  const traffic::VehicleStore& store = e.store_;
  const std::vector<roadnet::Segment>& segs = e.net_.segments();
  std::vector<SegmentEnds> ends;
  ends.reserve(segs.size());
  for (const roadnet::Segment& seg : segs) ends.push_back({seg.from, seg.to});
  const std::size_t slots = store.slot_count();
  enum : std::uint8_t { kUnseen, kAlive, kFree, kInLane };
  std::vector<std::uint8_t> seen(slots, kUnseen);
  e.alive_pos_.assign(slots, 0);
  e.class_population_.assign(traffic::SimEngine::kAttrClasses, 0);
  // The next-edge cache is a memo of the routes, not state: unset, the
  // first dynamics step re-resolves it from the restored routes.
  e.store_.next_edge.assign(slots, roadnet::EdgeId::invalid());
  std::size_t inside = 0;
  for (std::size_t i = 0; i < e.alive_.size(); ++i) {
    const std::uint32_t slot = e.alive_[i].slot();
    check(is_live(store, e.alive_[i]) && seen[slot] == kUnseen,
          "alive index names a vehicle that is not alive");
    seen[slot] = kAlive;
    e.alive_pos_[slot] = static_cast<std::uint32_t>(i);
    const roadnet::EdgeId edge = store.edge[slot];
    check(edge.valid() && store.lane[slot] >= 0 && store.lane[slot] < segs[edge.value()].lanes,
          "alive vehicle off the road");
    check(route_drivable(ends, store.cold[slot].route, edge), "alive vehicle has a broken route");
    if (store.is_patrol[slot] != 0 || segs[edge.value()].is_gateway()) continue;
    ++e.class_population_[traffic::SimEngine::attr_class(store.cold[slot].attrs)];
    ++inside;
  }
  check(inside == e.population_inside_, "population_inside disagrees with the restored vehicles");
  // Between steps every slot is alive or free (a despawn's slot is
  // recycled into the free list before the step ends).
  for (const std::uint32_t slot : e.free_slots_) {
    check(slot < slots && seen[slot] == kUnseen && !store.cold[slot].alive,
          "free list names a slot in use");
    seen[slot] = kFree;
  }
  check(e.alive_.size() + e.free_slots_.size() == slots, "a slot is neither alive nor free");

  std::size_t in_lanes = 0;
  e.edge_count_.assign(e.edge_count_.size(), 0);
  e.occupied_lanes_.clear();
  for (std::size_t li = 0; li < e.lanes_.size(); ++li) {
    for (const traffic::VehicleId id : e.lanes_[li]) {
      check(is_live(store, id) && seen[id.slot()] == kAlive &&
                store.edge[id.slot()] == e.lane_refs_[li].edge &&
                store.lane[id.slot()] == e.lane_refs_[li].lane,
            "lane list holds a vehicle that is not its own");
      seen[id.slot()] = kInLane;
    }
    if (e.lanes_[li].empty()) continue;
    in_lanes += e.lanes_[li].size();
    e.occupied_lanes_.push_back(static_cast<std::uint32_t>(li));
    e.edge_count_[e.lane_refs_[li].edge.value()] += static_cast<std::uint32_t>(e.lanes_[li].size());
  }
  check(in_lanes == e.alive_.size(), "alive vehicle missing from its lane");
  for (std::size_t i = 0; i < e.watched_.size(); ++i) {
    check(is_live(store, e.watched_[i]) && (i == 0 || e.watched_[i - 1] < e.watched_[i]),
          "watched set names a vehicle that is not alive");
  }
  e.peak_occupied_lanes_ = std::max(e.peak_occupied_lanes_, e.occupied_lanes_.size());
  for (auto& candidates : e.node_candidates_) candidates.clear();
  IVC_ASSERT(e.debug_occupancy_consistent());

  // Demand: update() drains the arrival budget below one every step.
  traffic::DemandModel& demand = *world.demand_;
  read("demand", demand);
  check(demand.arrival_budget_ >= 0.0 && demand.arrival_budget_ < 1.0,
        "arrival budget out of range");

  // Protocol, against the engine restored above: no OBU tag from a future
  // generation, and a label or cargo only on a live vehicle — a label on
  // the very edge it marks. The next-hop memo is a pure function of the
  // (identical) network: drop it and re-derive.
  counting::CountingProtocol& p = *world.protocol_;
  read("protocol", p);
  p.next_hop_cache_.clear();
  const auto& entries = p.obus_.entries_;
  check(entries.size() <= slots, "OBU registry exceeds the vehicle store");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const std::uint64_t current = v2x::ObuRegistry::generation_tag(store.cold[i].id);
    check(entries[i].generation_tag <= current, "OBU entry from a future vehicle generation");
    const bool carried = entries[i].generation_tag == current && store.cold[i].alive;
    const v2x::ObuState& obu = entries[i].state;
    check(!obu.label.has_value() || (carried && obu.label->edge == store.edge[i]),
          "label not on its carrier's edge");
    check(obu.cargo.empty() || carried, "cargo on a vehicle that is gone");
  }
  for (const traffic::VehicleId marker : p.marker_on_edge_) {
    check(!marker.valid() || is_live(store, marker), "marker carrier is not alive");
  }

  read("oracle", *world.oracle_);
  if (world.patrol_) {
    read("patrol", *world.patrol_);
    for (const traffic::VehicleId id : world.patrol_->vehicles_) {
      check(is_live(store, id), "patrol vehicle is not alive");
    }
  }
  read("world", world);
}

}  // namespace ivc::serve
