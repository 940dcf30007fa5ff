#include "serve/service.hpp"

namespace ivc::serve {

namespace {
// Writer-side payload store that skips an unchanged value. Only the writer
// stores, so a relaxed load returns what it stored last; skipping the
// equal store leaves the cell's cache line clean in every reader's cache.
// A reader in the publish window sees the same value either way, so the
// seqlock protocol is unaffected.
template <typename T>
void store_if_changed(std::atomic<T>& cell, T value) {
  if (cell.load(std::memory_order_relaxed) != value) {
    cell.store(value, std::memory_order_release);
  }
}
}  // namespace

void PublishedCounts::init(std::size_t checkpoint_count) {
  cells_ = std::make_unique<Cell[]>(checkpoint_count);
  cell_count_ = checkpoint_count;
}

// Seqlock without fences (TSan does not model them): a reader whose acquire
// load sees any release-stored value of a publish also sees that publish's
// odd sequence store, so its final re-read makes it retry.
void PublishedCounts::publish(const ServiceView& view) {
  const std::uint64_t s = seq_.load(std::memory_order_relaxed);
  seq_.store(s + 1, std::memory_order_relaxed);

  step_.store(view.step, std::memory_order_release);
  now_millis_.store(view.now_millis, std::memory_order_release);
  live_total_.store(view.live_total, std::memory_order_release);
  truth_.store(view.truth, std::memory_order_release);
  all_stable_.store(view.all_stable ? 1 : 0, std::memory_order_release);
  quiescent_.store(view.quiescent ? 1 : 0, std::memory_order_release);
  finished_.store(view.finished ? 1 : 0, std::memory_order_release);
  const std::size_t n = view.checkpoints.size() < cell_count_ ? view.checkpoints.size()
                                                              : cell_count_;
  for (std::size_t i = 0; i < n; ++i) {
    const CheckpointCounts& cp = view.checkpoints[i];
    store_if_changed(cells_[i].local_total, cp.local_total);
    store_if_changed<std::uint8_t>(cells_[i].active, cp.active ? 1 : 0);
    store_if_changed<std::uint8_t>(cells_[i].stable, cp.stable ? 1 : 0);
  }

  seq_.store(s + 2, std::memory_order_release);
}

ServiceView PublishedCounts::read() const {
  ServiceView view;
  view.checkpoints.resize(cell_count_);
  for (;;) {
    const std::uint64_t s1 = seq_.load(std::memory_order_acquire);
    if (s1 & 1u) continue;  // writer mid-publish; spin

    view.step = step_.load(std::memory_order_acquire);
    view.now_millis = now_millis_.load(std::memory_order_acquire);
    view.live_total = live_total_.load(std::memory_order_acquire);
    view.truth = truth_.load(std::memory_order_acquire);
    view.all_stable = all_stable_.load(std::memory_order_acquire) != 0;
    view.quiescent = quiescent_.load(std::memory_order_acquire) != 0;
    view.finished = finished_.load(std::memory_order_acquire) != 0;
    for (std::size_t i = 0; i < cell_count_; ++i) {
      view.checkpoints[i].local_total = cells_[i].local_total.load(std::memory_order_acquire);
      view.checkpoints[i].active = cells_[i].active.load(std::memory_order_acquire) != 0;
      view.checkpoints[i].stable = cells_[i].stable.load(std::memory_order_acquire) != 0;
    }

    if (seq_.load(std::memory_order_relaxed) == s1) return view;
  }
}

CountingService::CountingService(const experiment::ScenarioConfig& config)
    : world_(config) {
  counts_.init(world_.protocol().checkpoints().size());
}

CountingService::~CountingService() { stop(); }

void CountingService::start() {
  if (started_) return;
  started_ = true;
  stepper_ = std::thread([this] { run(); });
}

void CountingService::stop() {
  stop_.store(true, std::memory_order_release);
  if (stepper_.joinable()) stepper_.join();
}

void CountingService::run() {
  const auto snapshot_view = [this](bool done) {
    ServiceView view;
    view.step = world_.engine().step_count();
    view.now_millis = world_.engine().now().millis();
    view.live_total = world_.protocol().live_total();
    view.truth = world_.oracle().true_population();
    view.all_stable = world_.protocol().all_stable();
    view.quiescent = world_.protocol().quiescent();
    view.finished = done;
    const auto& checkpoints = world_.protocol().checkpoints();
    view.checkpoints.reserve(checkpoints.size());
    for (const auto& cp : checkpoints) {
      view.checkpoints.push_back(
          CheckpointCounts{cp.local_total(), cp.is_active(), cp.is_stable()});
    }
    return view;
  };

  counts_.publish(snapshot_view(world_.done()));
  while (!stop_.load(std::memory_order_acquire) && !world_.done()) {
    world_.step();
    counts_.publish(snapshot_view(world_.done()));
  }
  if (world_.done()) finished_.store(true, std::memory_order_release);
}

}  // namespace ivc::serve
