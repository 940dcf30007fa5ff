// Per-intersection checkpoint state machine (paper Alg. 1 / 3 / 5).
//
// A checkpoint tracks, per interior inbound direction u<-v, the counting
// state and counter c(u, v); per interior outbound direction, the pending
// marker ("label") and the spanning-tree feedback; plus the adjustment
// ledgers introduced by the Alg. 3 extensions and the open-system
// interaction counters of Alg. 5.
//
// The class is engine-agnostic: the CountingProtocol drives transitions
// from simulation events and owns message transport. Keeping the state
// machine pure makes the unit tests direct (no simulator required).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "roadnet/road_network.hpp"
#include "util/sim_time.hpp"

namespace ivc::serve {
struct SnapshotAccess;
}

namespace ivc::counting {

// Lifecycle of one inbound counting direction.
enum class DirectionState : std::uint8_t {
  Idle,      // checkpoint not yet active, or direction not yet started
  Counting,  // phase 5: unlabeled matching vehicles are counted
  Stopped,   // phase 4: marker arrived; counting ended
  Excluded,  // predecessor direction: never counted (phase 3 sets s(u))
  kCount,
};

// Resolution of the marker issued on one outbound direction.
enum class LabelOutcome : std::uint8_t {
  NotIssued,  // still waiting for a (successful) handoff
  Pending,    // marker in flight; no TreeAck yet
  Child,      // far checkpoint was activated by our marker
  NotChild,   // far checkpoint was already active
  kCount,
};

struct InboundDirection {
  roadnet::EdgeId edge;          // interior edge arriving at this node
  roadnet::NodeId neighbor;      // v in u<-v
  DirectionState state = DirectionState::Idle;
  std::int64_t count = 0;        // c(u, v)
  util::SimTime start_time = util::SimTime::never();
  util::SimTime stop_time = util::SimTime::never();
};

struct OutboundDirection {
  roadnet::EdgeId edge;          // interior edge leaving this node
  roadnet::NodeId neighbor;
  bool needs_label = false;      // marker not yet (successfully) handed off
  LabelOutcome outcome = LabelOutcome::NotIssued;
  int failed_handoffs = 0;       // lossy-channel retries (each compensated)
  util::SimTime issue_time = util::SimTime::never();
};

// Reasons recorded in the adjustment ledger (diagnostics / EXPERIMENTS.md).
enum class AdjustReason : std::uint8_t {
  LossCompensation,  // Alg. 3 phase-2 extension: failed label handoff, -1
  OvertakeByMarker,  // marker passed a countable vehicle, +1
  MarkerOvertaken,   // countable vehicle passed the marker, -1
};

class Checkpoint {
 public:
  Checkpoint(const roadnet::RoadNetwork& net, roadnet::NodeId node, bool open_system);

  // ---- identity -------------------------------------------------------------
  [[nodiscard]] roadnet::NodeId node() const { return node_; }
  [[nodiscard]] bool is_seed() const { return seed_; }
  [[nodiscard]] bool is_active() const { return active_; }
  [[nodiscard]] bool is_border() const { return has_interaction_; }
  [[nodiscard]] roadnet::NodeId parent() const { return parent_; }
  [[nodiscard]] roadnet::EdgeId predecessor_edge() const { return predecessor_edge_; }
  [[nodiscard]] util::SimTime activation_time() const { return activation_time_; }

  // ---- activation (Alg. 1 phases 1 & 3) -------------------------------------
  void activate_as_seed(util::SimTime now);
  void activate_from_label(roadnet::EdgeId predecessor_edge, util::SimTime now);

  // ---- counting (phases 4 & 5) ----------------------------------------------
  // Marker arrived via `edge`: stop that direction if it was counting.
  void marker_arrived(roadnet::EdgeId edge, util::SimTime now);
  // Count one unlabeled matching vehicle arriving via `edge` (caller has
  // already checked the direction is Counting).
  void count_vehicle(roadnet::EdgeId edge);
  void apply_adjustment(std::int64_t delta, AdjustReason reason);
  // Open-system interaction (Alg. 5): entering / exiting counted vehicles.
  void interaction_entered();
  void interaction_exited();

  // ---- outbound markers (phase 2) -------------------------------------------
  [[nodiscard]] InboundDirection* find_inbound(roadnet::EdgeId edge);
  [[nodiscard]] OutboundDirection* find_outbound(roadnet::EdgeId edge);
  [[nodiscard]] const InboundDirection* find_inbound(roadnet::EdgeId edge) const;
  void record_label_issued(roadnet::EdgeId edge, util::SimTime now);
  void record_label_failure(roadnet::EdgeId edge);
  void resolve_label(roadnet::NodeId neighbor, bool is_child);

  // ---- collection (Alg. 2 / 4) ----------------------------------------------
  void record_child_report(roadnet::NodeId child, std::int64_t subtree_total);
  // True when phase 6 has completed: active and no direction still Counting.
  // Interaction directions never block stability (Alg. 5 phase 4).
  [[nodiscard]] bool is_stable() const;
  [[nodiscard]] util::SimTime stable_time() const;
  // True when the subtree sum can be finalized: stable, all outbound
  // markers resolved, and a report received from every child.
  [[nodiscard]] bool ready_to_report() const;
  [[nodiscard]] bool report_sent() const { return report_sent_; }
  void mark_report_sent(std::int64_t subtree_total, util::SimTime now);
  [[nodiscard]] std::int64_t subtree_total() const { return subtree_total_; }
  [[nodiscard]] util::SimTime report_time() const { return report_time_; }

  // ---- totals ---------------------------------------------------------------
  // Local view: sum of direction counters plus the adjustment ledgers and
  // the interaction balance.
  [[nodiscard]] std::int64_t local_total() const;
  [[nodiscard]] std::int64_t interaction_in() const { return interaction_in_; }
  [[nodiscard]] std::int64_t interaction_out() const { return interaction_out_; }
  [[nodiscard]] std::int64_t loss_adjust() const { return loss_adjust_; }
  [[nodiscard]] std::int64_t overtake_adjust() const { return overtake_adjust_; }
  [[nodiscard]] int total_label_failures() const;

  [[nodiscard]] const std::vector<InboundDirection>& inbound() const { return inbound_; }
  [[nodiscard]] const std::vector<OutboundDirection>& outbound() const { return outbound_; }
  [[nodiscard]] const std::map<std::uint32_t, std::int64_t>& child_reports() const {
    return child_reports_;
  }
  [[nodiscard]] std::vector<roadnet::NodeId> children() const;

 private:
  // Snapshot serialization of the mutable state machine fields; the
  // structural direction vectors are rebuilt from the network instead.
  friend struct serve::SnapshotAccess;

  void start_counting_all_except(roadnet::EdgeId excluded, util::SimTime now);

  roadnet::NodeId node_;
  bool has_interaction_ = false;  // open system and this node has gateways
  bool seed_ = false;
  bool active_ = false;
  util::SimTime activation_time_ = util::SimTime::never();
  roadnet::EdgeId predecessor_edge_;
  roadnet::NodeId parent_;

  std::vector<InboundDirection> inbound_;
  std::vector<OutboundDirection> outbound_;

  std::int64_t interaction_in_ = 0;
  std::int64_t interaction_out_ = 0;
  std::int64_t loss_adjust_ = 0;
  std::int64_t overtake_adjust_ = 0;

  std::map<std::uint32_t, std::int64_t> child_reports_;  // by child node id
  // Nodes that acked "child": they owe us a report.
  std::vector<roadnet::NodeId> children_;
  bool report_sent_ = false;
  std::int64_t subtree_total_ = 0;
  util::SimTime report_time_ = util::SimTime::never();
};

}  // namespace ivc::counting
