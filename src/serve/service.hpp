// Long-running counting service: one writer thread steps a live SimWorld,
// many reader threads answer per-checkpoint count/verdict queries.
//
// The published-counts table is a seqlock: the stepping thread bumps a
// sequence number to odd, stores the new table with release atomic writes
// (readers load it with acquire loads; no fences, which TSan cannot model),
// then bumps it to the next even value with release ordering. A checkpoint
// cell is stored only when its value changed since the last publish, so a
// step dirties just the cache lines of the checkpoints it moved. Building
// and publishing a view is O(checkpoints) with no per-vehicle work (the
// oracle's truth is a sum over the engine's class histogram). Readers are
// lock-free and never block the writer — they snapshot the table between
// two equal even sequence reads and retry on a torn window. Every cell is
// a std::atomic, so even a torn read (discarded by the retry loop) is not
// a data race; the whole structure is TSan-clean by construction.
//
// Determinism contract: the service changes WHEN counts are observed, not
// what they are. The stepping thread drives the same SimWorld the batch
// runner uses, so a served run's event stream and final verdicts are
// bit-identical to `run_scenario` on the same config — queries are a
// read-only window onto a deterministic history.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "serve/world.hpp"

namespace ivc::serve {

struct CheckpointCounts {
  std::int64_t local_total = 0;  // the checkpoint's own count view
  bool active = false;
  bool stable = false;
};

// One consistent reading of the service: everything a checkpoint-count
// query can ask, captured at a single publish.
struct ServiceView {
  std::uint64_t step = 0;
  std::int64_t now_millis = 0;
  std::int64_t live_total = 0;  // protocol's live population estimate
  std::int64_t truth = 0;       // oracle ground truth at the same step
  bool all_stable = false;
  bool quiescent = false;
  bool finished = false;  // world converged or hit its time limit
  std::vector<CheckpointCounts> checkpoints;  // protocol checkpoint order
};

// Seqlock-published table. One writer (the stepping thread), any number of
// lock-free readers. `init` must be called before the first concurrent
// reader (the cell array is sized once and never reallocated).
class PublishedCounts {
 public:
  void init(std::size_t checkpoint_count);
  [[nodiscard]] std::size_t checkpoint_count() const { return cell_count_; }

  void publish(const ServiceView& view);      // writer thread only
  [[nodiscard]] ServiceView read() const;     // any thread

 private:
  struct Cell {
    std::atomic<std::int64_t> local_total{0};
    std::atomic<std::uint8_t> active{0};
    std::atomic<std::uint8_t> stable{0};
  };

  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::uint64_t> step_{0};
  std::atomic<std::int64_t> now_millis_{0};
  std::atomic<std::int64_t> live_total_{0};
  std::atomic<std::int64_t> truth_{0};
  std::atomic<std::uint8_t> all_stable_{0};
  std::atomic<std::uint8_t> quiescent_{0};
  std::atomic<std::uint8_t> finished_{0};
  std::unique_ptr<Cell[]> cells_;
  std::size_t cell_count_ = 0;
};

// Owns a SimWorld and a stepping thread; query() is safe from any number
// of concurrent threads while the world steps.
class CountingService {
 public:
  explicit CountingService(const experiment::ScenarioConfig& config);
  ~CountingService();

  CountingService(const CountingService&) = delete;
  CountingService& operator=(const CountingService&) = delete;

  // Spawns the stepping thread. The world steps until it converges (or
  // hits its time limit) or stop() is called; a final view is published
  // either way.
  void start();
  // Signals the stepping thread and joins it. Idempotent.
  void stop();

  // Latest published view; lock-free, callable from any thread.
  [[nodiscard]] ServiceView query() const { return counts_.read(); }
  // True once the world converged or hit its time limit.
  [[nodiscard]] bool finished() const { return finished_.load(std::memory_order_acquire); }

  // Direct world access — only safe before start() or after stop().
  [[nodiscard]] SimWorld& world() { return world_; }

 private:
  void run();  // stepping-thread body

  SimWorld world_;
  PublishedCounts counts_;
  std::thread stepper_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> finished_{false};
  bool started_ = false;
};

}  // namespace ivc::serve
