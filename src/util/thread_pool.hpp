// Fixed-size thread pool with a parallel_for helper, plus a low-latency
// fork-join team.
//
// The benchmark harnesses sweep a (traffic volume x seed count x replica)
// grid; each grid point is an independent deterministic simulation, so the
// sweep is embarrassingly parallel. Tasks pull indices from a shared atomic
// counter (dynamic scheduling) because run times vary strongly with traffic
// volume.
//
// ThreadPool's mutex + condvar queue costs tens of microseconds per batch,
// which is nothing beside replicas that run for seconds each. ForkJoinPool
// keeps resident workers waiting on an epoch counter (a time-budgeted
// spin, then a C++20 atomic wait) and runs the caller as worker 0, so a
// fork-join is two atomic bumps plus however long the stragglers take.
//
// SimEngine uses neither: one world steps serially, because a step
// (~100 us on the paper's grid at peak) is too short to split across
// cores and win. ForkJoinPool once ran its intra-step shards and has no
// caller in src/ now.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ivc::util {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads = 0);  // 0 = hardware_concurrency
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  // Enqueue a task; tasks must not throw (they run under noexcept workers —
  // an escaping exception terminates, which is the desired fail-fast
  // behaviour for fire-and-forget submissions). Use parallel_for for work
  // that may throw: it captures and rethrows.
  void submit(std::function<void()> task);

  // Block until all submitted tasks have completed.
  void wait_idle();

  // Run body(i) for i in [0, count) across the pool, blocking until done.
  // If any invocation throws, the remaining indices are drained without
  // running the body and the first exception is rethrown on the caller.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

// Persistent fork-join team: `size()` logical workers, of which one is the
// calling thread itself — a team of N runs only N-1 OS threads. Both
// waits (workers on the fork epoch, the caller on the join count) spin
// for about 100 us, yielding every few dozen spins, then park on a C++20
// atomic wait. A caller that forks again within the budget finds the
// team awake and pays no futex wake-up; a team idle for longer parks and
// costs nothing.
class ForkJoinPool {
 public:
  // `num_threads` is the total worker count including the caller;
  // 0 = hardware_concurrency. A team of 1 runs everything inline.
  explicit ForkJoinPool(std::size_t num_threads = 0);
  ~ForkJoinPool();

  ForkJoinPool(const ForkJoinPool&) = delete;
  ForkJoinPool& operator=(const ForkJoinPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size() + 1; }

  // Run task(worker) for worker in [0, size()) — the caller executes
  // worker 0 — and block until every worker returns. The first exception
  // thrown by any worker (caller included) is rethrown here after the
  // join, so a failed fork-join never leaves workers running.
  void run(const std::function<void(std::size_t)>& task);

 private:
  void worker_loop(std::size_t worker_index);
  void record_exception();

  std::vector<std::thread> workers_;
  const std::function<void(std::size_t)>* task_ = nullptr;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::size_t> remaining_{0};
  std::atomic<bool> stop_{false};
  std::mutex exception_mutex_;
  std::exception_ptr first_exception_;
};

}  // namespace ivc::util
