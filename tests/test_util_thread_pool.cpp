// Thread pool behaviour: completion, parallel_for coverage, reuse,
// exception propagation, the fork-join team's stress/determinism contract
// (task-order-independent reductions), and both sides of its wait policy:
// back-to-back fork-joins that stay on the spin path and fork-joins after
// an idle longer than the spin budget, which park and must be woken.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace ivc::util {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  pool.parallel_for(0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, ParallelForFewerItemsThanThreads) {
  ThreadPool pool(8);
  std::atomic<int> counter{0};
  pool.parallel_for(3, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int batch = 0; batch < 5; ++batch) {
    pool.parallel_for(50, [&](std::size_t) { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 250);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, DefaultSizeIsPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ParallelWorkActuallyParallel) {
  // With 2+ workers, tasks that block on each other's side effects would
  // deadlock a serial executor; here we just assert both workers make
  // progress on a large dynamic workload.
  ThreadPool pool(2);
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(10000, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 10000u * 9999u / 2);
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [](std::size_t i) {
                          if (i == 37) throw std::runtime_error("worker failure");
                        }),
      std::runtime_error);
  // The pool survives a failed batch and keeps running new work.
  std::atomic<int> counter{0};
  pool.parallel_for(50, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 50);
}

// ---- ForkJoinPool -----------------------------------------------------------

TEST(ForkJoinPool, CallerIsWorkerZero) {
  ForkJoinPool team(3);
  EXPECT_EQ(team.size(), 3u);
  std::vector<std::atomic<int>> hits(3);
  team.run([&](std::size_t worker) { hits[worker].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ForkJoinPool, TeamOfOneRunsInline) {
  ForkJoinPool team(1);
  EXPECT_EQ(team.size(), 1u);
  int runs = 0;
  team.run([&](std::size_t worker) {
    EXPECT_EQ(worker, 0u);
    ++runs;
  });
  EXPECT_EQ(runs, 1);
}

TEST(ForkJoinPool, StressDeterministicOrderIndependentReduction) {
  // The engine's contract in miniature: each worker reduces its own
  // contiguous shard into its own slot, the caller combines the slots in
  // shard order. Repeating the fork-join thousands of times must yield
  // the same total every time regardless of how the OS schedules the
  // workers — any cross-shard interference or lost-task bug shows up as a
  // flaky sum here long before it corrupts an event stream.
  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t kItems = 4096;
  std::vector<std::uint64_t> items(kItems);
  std::iota(items.begin(), items.end(), 1);
  const std::uint64_t expected =
      std::accumulate(items.begin(), items.end(), std::uint64_t{0});

  ForkJoinPool team(kWorkers);
  std::vector<std::uint64_t> partial(kWorkers);
  for (int round = 0; round < 2000; ++round) {
    team.run([&](std::size_t worker) {
      const std::size_t begin = worker * kItems / kWorkers;
      const std::size_t end = (worker + 1) * kItems / kWorkers;
      std::uint64_t sum = 0;
      for (std::size_t i = begin; i < end; ++i) sum += items[i];
      partial[worker] = sum;
    });
    std::uint64_t total = 0;
    for (const std::uint64_t p : partial) total += p;
    ASSERT_EQ(total, expected) << "round " << round;
  }
}

TEST(ForkJoinPool, PropagatesWorkerException) {
  ForkJoinPool team(4);
  EXPECT_THROW(team.run([](std::size_t worker) {
                 if (worker == 2) throw std::runtime_error("shard failure");
               }),
               std::runtime_error);
  // The team survives and the next fork-join completes normally.
  std::atomic<int> counter{0};
  team.run([&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 4);
}

TEST(ForkJoinPool, PropagatesCallerException) {
  ForkJoinPool team(2);
  EXPECT_THROW(team.run([](std::size_t worker) {
                 if (worker == 0) throw std::runtime_error("caller failure");
               }),
               std::runtime_error);
  std::atomic<int> counter{0};
  team.run([&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 2);
}

TEST(ForkJoinPool, ReusableAcrossManyForkJoins) {
  ForkJoinPool team(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 1000; ++i) {
    team.run([&](std::size_t) { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 2000);
}

// Longer than the fork-join team's ~100 us spin budget, so every worker
// (and the joining caller, on the next fork-join) has parked on the atomic.
constexpr auto kPastSpinBudget = std::chrono::milliseconds(5);

TEST(ForkJoinPool, BackToBackForkJoinsRunEveryWorkerOnce) {
  // No idle time between fork-joins: the workers never leave the spin
  // path, so a lost or doubled epoch shows up here.
  ForkJoinPool team(4);
  std::vector<int> hits(team.size());
  for (int round = 0; round < 10000; ++round) {
    team.run([&](std::size_t worker) { ++hits[worker]; });
    for (std::size_t w = 0; w < hits.size(); ++w) {
      ASSERT_EQ(hits[w], round + 1) << "worker " << w << " round " << round;
    }
  }
}

TEST(ForkJoinPool, ParkedWorkersWakeForTheNextForkJoin) {
  ForkJoinPool team(4);
  std::vector<int> hits(team.size());
  for (int round = 1; round <= 3; ++round) {
    team.run([&](std::size_t worker) { ++hits[worker]; });
    for (const int h : hits) ASSERT_EQ(h, round);
    std::this_thread::sleep_for(kPastSpinBudget);
  }
}

TEST(ForkJoinPool, ExceptionAfterParkedIdleReachesTheCaller) {
  ForkJoinPool team(3);
  team.run([](std::size_t) {});
  std::this_thread::sleep_for(kPastSpinBudget);
  EXPECT_THROW(team.run([](std::size_t worker) {
                 if (worker == 2) throw std::runtime_error("shard failure after idle");
               }),
               std::runtime_error);
  std::atomic<int> counter{0};
  team.run([&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 3);
}

TEST(ForkJoinPool, DestroyWhileWorkersSpin) {
  // Destroyed right after a fork-join: the workers are still inside their
  // spin budget and must see the stop epoch without being notified.
  for (int i = 0; i < 50; ++i) {
    ForkJoinPool team(4);
    std::atomic<int> counter{0};
    team.run([&](std::size_t) { counter.fetch_add(1); });
    EXPECT_EQ(counter.load(), 4);
  }
}

TEST(ForkJoinPool, DestroyWhileWorkersParked) {
  ForkJoinPool team(4);
  std::atomic<int> counter{0};
  team.run([&](std::size_t) { counter.fetch_add(1); });
  std::this_thread::sleep_for(kPastSpinBudget);
  EXPECT_EQ(counter.load(), 4);
  // ~ForkJoinPool must wake the parked workers, or this test hangs.
}

TEST(ForkJoinPool, OversubscribedTeamFinishesWithCorrectResults) {
  // More threads than cores: spinning waiters must yield to the workers
  // they wait on, or this crawls.
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  ForkJoinPool team(hw + 1);
  ASSERT_EQ(team.size(), hw + 1);
  std::vector<std::uint64_t> partial(team.size());
  for (std::uint64_t round = 1; round <= 200; ++round) {
    team.run([&](std::size_t worker) { partial[worker] = round * (worker + 1); });
    for (std::size_t w = 0; w < partial.size(); ++w) {
      ASSERT_EQ(partial[w], round * (w + 1)) << "worker " << w << " round " << round;
    }
  }
}

}  // namespace
}  // namespace ivc::util
