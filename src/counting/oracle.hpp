// Ground-truth oracle.
//
// The oracle observes every protocol-level count event and adjustment and
// checks the paper's correctness claims against simulator ground truth:
//
//  * Theorem 1 (closed, lossless, FIFO): every countable vehicle is counted
//    exactly once — verified per vehicle.
//  * Theorem 2 / Alg. 3 (overtakes, losses, one-way): the *total* is exact
//    once the protocol is quiescent; individual vehicles may be counted
//    twice with a matching -1 compensation (this is inherent to the
//    paper's compensation scheme, not a bug).
//  * Corollaries 1/2 (open system): after the complete status, the summed
//    local views track the live countable population.
//
// Ground truth costs O(1) in the vehicle count: the engine keeps the
// interior population as a histogram over exterior classes, and the oracle
// sums the cells its recognizer matches (listed once, at construction).
// No per-vehicle scan runs on the truth path; the linear recount lives in
// testing::reference_true_population as the machine-checked reference.
//
// The oracle is a test/benchmark aid; the protocol never reads from it.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "roadnet/types.hpp"
#include "surveillance/recognizer.hpp"
#include "traffic/sim_engine.hpp"
#include "util/sim_time.hpp"

namespace ivc::serve {
struct SnapshotAccess;
}

namespace ivc::counting {

struct Verdict {
  bool ok = true;
  std::string detail;
};

class Oracle {
 public:
  Oracle(const traffic::SimEngine& engine, surveillance::Recognizer recognizer);

  // ---- hooks invoked by the protocol -----------------------------------------
  void on_counted(traffic::VehicleId veh, roadnet::NodeId node, util::SimTime t);
  void on_adjustment(roadnet::NodeId node, std::int64_t delta);
  void on_interaction_exit(traffic::VehicleId veh, roadnet::NodeId node);

  // ---- ground truth -----------------------------------------------------------
  // Countable vehicles currently inside the region (alive, matching,
  // non-patrol, on an interior edge): a sum over the engine's class
  // histogram, exact at any point between mutations.
  [[nodiscard]] std::int64_t true_population() const;

  // ---- checks -----------------------------------------------------------------
  // Strict per-vehicle exactly-once over all currently-alive countable
  // vehicles (closed lossless systems; Theorem 1).
  [[nodiscard]] Verdict verify_exactly_once() const;
  // Aggregate exactness: protocol_total must equal the countable
  // population (closed: Theorem 2; open after complete status: Cor. 1/2).
  [[nodiscard]] Verdict verify_total(std::int64_t protocol_total) const;

  [[nodiscard]] std::uint64_t count_events() const { return count_events_; }
  [[nodiscard]] std::int64_t adjustment_sum() const { return adjustment_sum_; }
  [[nodiscard]] std::uint64_t exit_events() const { return exit_events_; }
  [[nodiscard]] int times_counted(traffic::VehicleId veh) const;
  [[nodiscard]] std::uint64_t double_counted_vehicles() const;

 private:
  friend struct serve::SnapshotAccess;

  const traffic::SimEngine& engine_;
  surveillance::Recognizer recognizer_;
  // SimEngine::attr_class indices of the exterior classes recognizer_ matches.
  std::vector<std::uint16_t> matching_classes_;
  // Keyed by the packed (slot, generation) id value: vehicle slots are
  // recycled, so a dense slot-indexed array would conflate successive
  // occupants. Per-vehicle-EVER history is inherent to the double-count
  // check, so this map grows with distinct counted vehicles — acceptable
  // for a test/benchmark aid that the protocol never reads.
  std::unordered_map<std::uint64_t, std::uint16_t> counted_times_;
  std::uint64_t count_events_ = 0;
  std::int64_t adjustment_sum_ = 0;
  std::uint64_t exit_events_ = 0;
};

}  // namespace ivc::counting
