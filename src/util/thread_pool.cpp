#include "util/thread_pool.hpp"

#include <utility>

#include "util/assert.hpp"
#include "util/perf.hpp"

namespace ivc::util {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 2;
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  IVC_ASSERT(task != nullptr);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    IVC_ASSERT_MSG(!stop_, "submit after shutdown");
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  // Shared between the spawned tasks; kept alive past this frame by the
  // shared_ptr captures (wait_idle normally outlives the tasks, but a
  // throwing body must not leave dangling captures behind).
  struct State {
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex mutex;
    std::exception_ptr first_exception;
  };
  auto state = std::make_shared<State>();
  const std::size_t tasks = std::min(count, workers_.size());
  for (std::size_t t = 0; t < tasks; ++t) {
    submit([state, count, &body] {
      for (;;) {
        const std::size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        // After a failure the remaining indices are drained, not run: the
        // caller is about to rethrow, so partial work past the first
        // exception would be wasted (and possibly unsafe).
        if (state->failed.load(std::memory_order_acquire)) continue;
        try {
          body(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(state->mutex);
          if (!state->first_exception) state->first_exception = std::current_exception();
          state->failed.store(true, std::memory_order_release);
        }
      }
    });
  }
  wait_idle();
  if (state->first_exception) std::rethrow_exception(state->first_exception);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

// ---- ForkJoinPool -----------------------------------------------------------

namespace {
// How long a waiter spins before parking on the atomic. The engine issues
// two or three fork-joins per step, separated by serial work: transits,
// bookkeeping and the event flush take about 40-60 us of a grid-rush
// step. A shorter spin parks the workers inside that gap, and every phase
// then pays a futex wake-up. 100 us outlasts the gap, so a stepping team
// stays hot for the whole step, while an idle team still parks and costs
// nothing.
constexpr std::uint64_t kSpinBudgetNanos = 100'000;
// Spins between clock reads. Each clock read also yields the core: with
// more runnable threads than cores (parallel ctest runs several threaded
// tests at once) a pure spin would steal the timeslice of the very thread
// it waits on.
constexpr unsigned kSpinsPerYield = 64;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// Waits while `keep_waiting(word)`: spins with a relax hint, yielding and
// reading the clock every kSpinsPerYield spins, and parks on the atomic
// once the spin budget is spent. Returns the value that ended the wait.
template <typename T, typename KeepWaiting>
T spin_then_park(const std::atomic<T>& word, KeepWaiting keep_waiting) {
  std::uint64_t deadline = 0;
  for (unsigned spins = 1;; ++spins) {
    const T value = word.load(std::memory_order_acquire);
    if (!keep_waiting(value)) return value;
    if (spins % kSpinsPerYield != 0) {
      cpu_relax();
      continue;
    }
    std::this_thread::yield();
    const std::uint64_t now = steady_now_nanos();
    if (deadline == 0) {
      deadline = now + kSpinBudgetNanos;
    } else if (now >= deadline) {
      word.wait(value, std::memory_order_acquire);
    }
  }
}
}  // namespace

ForkJoinPool::ForkJoinPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 1;
  }
  workers_.reserve(num_threads - 1);
  for (std::size_t i = 0; i + 1 < num_threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i + 1); });
  }
}

ForkJoinPool::~ForkJoinPool() {
  stop_.store(true, std::memory_order_release);
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ForkJoinPool::record_exception() {
  std::lock_guard<std::mutex> lock(exception_mutex_);
  if (!first_exception_) first_exception_ = std::current_exception();
}

void ForkJoinPool::run(const std::function<void(std::size_t)>& task) {
  IVC_ASSERT(task != nullptr);
  if (workers_.empty()) {
    task(0);
    return;
  }
  task_ = &task;
  remaining_.store(workers_.size(), std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  try {
    task(0);
  } catch (...) {
    record_exception();
  }
  // Join: the last worker's decrement notifies, in case we parked.
  spin_then_park(remaining_, [](std::size_t left) { return left != 0; });
  task_ = nullptr;
  if (first_exception_) {
    std::exception_ptr e = std::exchange(first_exception_, nullptr);
    std::rethrow_exception(e);
  }
}

void ForkJoinPool::worker_loop(std::size_t worker_index) {
  std::uint64_t seen = 0;
  for (;;) {
    seen = spin_then_park(epoch_, [seen](std::uint64_t epoch) { return epoch == seen; });
    if (stop_.load(std::memory_order_acquire)) return;
    try {
      (*task_)(worker_index);
    } catch (...) {
      record_exception();
    }
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      remaining_.notify_all();
    }
  }
}

}  // namespace ivc::util
