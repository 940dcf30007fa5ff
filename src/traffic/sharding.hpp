// Worklist sharding: segment-aligned, contiguous partitions of a sorted
// lane worklist. SimEngine steps every world serially and does not call
// these; they stay as tested building blocks for a partitioned pass.
//
// A shard is a contiguous range of a phase's (sorted) worklist snapshot.
// Contiguity is what makes a partitioned pass's output canonical: shard
// s covers worklist entries [begin, end), so concatenating per-shard
// results in shard order reproduces exactly the ascending-order walk the
// serial engine performs — the merge is a concatenation, not a sort.
//
// A lane-change pass additionally requires shard boundaries to be
// *segment-aligned*: a lane change moves a vehicle between lanes of the
// same segment, so as long as all of a segment's occupied lanes land in
// one shard, the phase is free of cross-shard reads and writes and the
// live-state algorithm is bitwise identical to its serial execution.
//
// Both functions are pure: the partition depends only on (worklist,
// shard count), never on thread scheduling.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ivc::traffic {

struct ShardRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  [[nodiscard]] std::size_t size() const { return end - begin; }
  [[nodiscard]] bool empty() const { return begin == end; }
  friend bool operator==(const ShardRange&, const ShardRange&) = default;
};

// Even partition of [0, count) into exactly `shards` contiguous ranges
// (earlier ranges take the remainder). Ranges may be empty when
// count < shards.
inline void shard_even(std::size_t count, std::size_t shards,
                       std::vector<ShardRange>* out) {
  out->clear();
  if (shards == 0) return;
  const std::size_t base = count / shards;
  const std::size_t extra = count % shards;
  std::size_t at = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t len = base + (s < extra ? 1 : 0);
    out->push_back({at, at + len});
    at += len;
  }
}

// Segment-aligned partition of a sorted lane-index worklist into at most
// `shards` contiguous ranges of near-equal size. `segment_of(lane_index)`
// maps a worklist entry to its segment id; a boundary that would split a
// segment's lanes is pushed right until the segment changes. Degenerate
// inputs produce degenerate (still valid) shards: a worklist dominated by
// one segment collapses to all-in-one-shard with trailing empties, and
// count < shards yields single-lane and empty shards.
template <typename SegmentOf>
void shard_worklist(const std::vector<std::uint32_t>& worklist, std::size_t shards,
                    SegmentOf&& segment_of, std::vector<ShardRange>* out) {
  out->clear();
  if (shards == 0) return;
  const std::size_t count = worklist.size();
  std::size_t at = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    // Even-split target for this boundary, then align to the next segment
    // change. The last shard always ends at `count`.
    std::size_t end = s + 1 == shards ? count
                                      : (count * (s + 1)) / shards;
    if (end < at) end = at;
    if (s + 1 < shards) {
      while (end > at && end < count &&
             segment_of(worklist[end]) == segment_of(worklist[end - 1])) {
        ++end;
      }
    }
    out->push_back({at, end});
    at = end;
  }
}

}  // namespace ivc::traffic
