// Counting-service query front-end under concurrency.
//
// The seqlock test hammers PublishedCounts with one writer and several
// readers publishing views whose fields are arithmetically entangled —
// any torn read breaks an invariant and fails loudly. The service test
// then runs the real thing: a stepping thread plus concurrent query
// threads over a live scenario, checking that every view is internally
// consistent and that views never move backwards in time. Both are prime
// TSan targets; CI runs this binary under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "serve/service.hpp"

namespace ivc::serve {
namespace {

experiment::ScenarioConfig small_closed_config() {
  experiment::ScenarioConfig config;
  config.map.streets = 5;
  config.map.avenues = 4;
  config.mode = experiment::SystemMode::Closed;
  config.volume_pct = 60.0;
  config.vehicles_at_100pct = 80;
  config.num_seeds = 1;
  config.time_limit_minutes = 5.0;
  config.seed = 77;
  return config;
}

// Every published field is a fixed function of `step`, so a reader can
// verify a whole view from its step alone. A torn read — data from two
// different publishes in one view — cannot satisfy all the equations.
ServiceView entangled_view(std::uint64_t step, std::size_t checkpoints) {
  ServiceView view;
  view.step = step;
  view.now_millis = static_cast<std::int64_t>(step * 7 + 1);
  view.live_total = static_cast<std::int64_t>(step * 2 + 1);
  view.truth = static_cast<std::int64_t>(step * 3 + 2);
  view.all_stable = (step % 2) == 0;
  view.quiescent = (step % 3) == 0;
  view.finished = false;
  view.checkpoints.resize(checkpoints);
  for (std::size_t i = 0; i < checkpoints; ++i) {
    view.checkpoints[i].local_total = static_cast<std::int64_t>(step + i);
    view.checkpoints[i].active = (step + i) % 2 == 0;
    view.checkpoints[i].stable = (step + i) % 5 == 0;
  }
  return view;
}

TEST(PublishedCountsTest, SeqlockReadsAreNeverTornUnderContention) {
  constexpr std::size_t kCheckpoints = 6;
  constexpr std::uint64_t kPublishes = 20000;
  PublishedCounts counts;
  counts.init(kCheckpoints);
  counts.publish(entangled_view(0, kCheckpoints));

  std::atomic<bool> done{false};
  std::atomic<int> torn{0};
  std::atomic<int> regressed{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last_step = 0;
      std::uint64_t reads = 0;
      while (!done.load(std::memory_order_acquire) || reads < 100) {
        const ServiceView view = counts.read();
        ++reads;
        if (view.step < last_step) regressed.fetch_add(1);
        last_step = view.step;
        const ServiceView want = entangled_view(view.step, kCheckpoints);
        bool consistent = view.now_millis == want.now_millis &&
                          view.live_total == want.live_total && view.truth == want.truth &&
                          view.all_stable == want.all_stable &&
                          view.quiescent == want.quiescent &&
                          view.checkpoints.size() == kCheckpoints;
        for (std::size_t i = 0; consistent && i < kCheckpoints; ++i) {
          consistent = view.checkpoints[i].local_total == want.checkpoints[i].local_total &&
                       view.checkpoints[i].active == want.checkpoints[i].active &&
                       view.checkpoints[i].stable == want.checkpoints[i].stable;
        }
        if (!consistent) torn.fetch_add(1);
      }
    });
  }
  for (std::uint64_t step = 1; step <= kPublishes; ++step) {
    counts.publish(entangled_view(step, kCheckpoints));
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(regressed.load(), 0);
}

void expect_same_view(const ServiceView& got, const ServiceView& want, const char* label) {
  EXPECT_EQ(got.step, want.step) << label;
  EXPECT_EQ(got.now_millis, want.now_millis) << label;
  EXPECT_EQ(got.live_total, want.live_total) << label;
  EXPECT_EQ(got.truth, want.truth) << label;
  EXPECT_EQ(got.all_stable, want.all_stable) << label;
  EXPECT_EQ(got.quiescent, want.quiescent) << label;
  EXPECT_EQ(got.finished, want.finished) << label;
  ASSERT_EQ(got.checkpoints.size(), want.checkpoints.size()) << label;
  for (std::size_t i = 0; i < want.checkpoints.size(); ++i) {
    EXPECT_EQ(got.checkpoints[i].local_total, want.checkpoints[i].local_total)
        << label << " cell " << i;
    EXPECT_EQ(got.checkpoints[i].active, want.checkpoints[i].active) << label << " cell " << i;
    EXPECT_EQ(got.checkpoints[i].stable, want.checkpoints[i].stable) << label << " cell " << i;
  }
}

// publish() stores only the cells that changed. Publishing A, B, A, then B
// with one field back at its A value must still read back each view
// exactly, including cells that return to an earlier value.
TEST(PublishedCountsTest, ChangedCellsPublishReadsBackEveryView) {
  constexpr std::size_t kCheckpoints = 6;
  PublishedCounts counts;
  counts.init(kCheckpoints);
  const ServiceView a = entangled_view(3, kCheckpoints);
  const ServiceView b = entangled_view(4, kCheckpoints);
  ServiceView b_partial = b;
  b_partial.checkpoints[2].local_total = a.checkpoints[2].local_total;

  counts.publish(a);
  expect_same_view(counts.read(), a, "A");
  counts.publish(b);
  expect_same_view(counts.read(), b, "B");
  counts.publish(a);
  expect_same_view(counts.read(), a, "A again");
  counts.publish(b_partial);
  expect_same_view(counts.read(), b_partial, "B with one cell at its A value");
}

TEST(CountingServiceTest, QueryBeforeStartIsSafeAndEmpty) {
  CountingService service(small_closed_config());
  const ServiceView view = service.query();
  EXPECT_EQ(view.step, 0u);
  EXPECT_FALSE(view.finished);
  EXPECT_FALSE(service.finished());
}

TEST(CountingServiceTest, ConcurrentQueriesSeeMonotonicConsistentViews) {
  CountingService service(small_closed_config());
  const std::size_t checkpoints = service.query().checkpoints.size();
  ASSERT_GT(checkpoints, 0u);

  service.start();
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last_step = 0;
      std::uint64_t queries = 0;
      while (!service.finished() || queries < 50) {
        const ServiceView view = service.query();
        ++queries;
        if (view.step < last_step) failures.fetch_add(1);  // time ran backwards
        last_step = view.step;
        if (view.checkpoints.size() != checkpoints) failures.fetch_add(1);
        if (view.live_total < 0 || view.truth < 0) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : readers) t.join();
  service.stop();

  EXPECT_EQ(failures.load(), 0);
  const ServiceView final_view = service.query();
  EXPECT_TRUE(final_view.finished);
  EXPECT_GT(final_view.step, 0u);
  // Closed lossless scenario: once converged, the protocol's live total
  // must equal the oracle's ground truth — the paper's exactness claim,
  // visible straight through the query surface.
  EXPECT_EQ(final_view.live_total, final_view.truth);
  EXPECT_TRUE(service.world().done());
}

}  // namespace
}  // namespace ivc::serve
