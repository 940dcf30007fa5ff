// ivc_perfbench: the repository benchmark program (see perfbench/README.md).
//
// Runs one workload for a wall-clock budget through the public APIs —
// registry scenarios, serve::SimWorld / CountingService, SimWorld::save /
// restore, Snapshot::to_bytes / from_bytes, traffic::Router::plan and the
// map factories — timing every call from this file. Every pass of a run is
// checked for correctness; the last line of stdout is one JSON object
// {"correct", "attempted", "failed", "metrics"}.
//
//   --trace 0  end-to-end metrics, no instrumentation attached.
//   --trace 1  untraced and traced passes alternate; per-layer metrics come
//              from the traced ones (spans recorded here plus the engine's
//              util::PerfCollector via ScenarioConfig::perf), and the gap
//              between the two kinds is reported as trace.overhead_frac.
//
//   ivc_perfbench --workload grid-rush --seed 1 --seconds 30 --trace 0
#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "experiment/registry.hpp"
#include "roadnet/manhattan.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "serve/world.hpp"
#include "testing/diff_runner.hpp"
#include "traffic/router.hpp"
#include "util/cli.hpp"
#include "util/perf.hpp"

#ifndef IVC_PERFBENCH_BUILD_TYPE
#define IVC_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace ivc;

double now_s() { return static_cast<double>(util::steady_now_nanos()) * 1e-9; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

// Samples in log-spaced buckets 0.5% wide over [1e-3, 1e7) of the
// recorded unit, so a run answering a million queries still holds a few
// tens of KB and peak_rss_mb measures the program, not the benchmark.
class Histogram {
 public:
  void add(double v) {
    buckets_.resize(kBuckets);
    const double pos = std::log(std::max(v, kLow) / kLow) / std::log(kRatio);
    ++buckets_[std::min(static_cast<std::size_t>(pos), kBuckets - 1)];
    ++count_;
  }
  void merge(const Histogram& o) {
    if (o.count_ == 0) return;
    buckets_.resize(kBuckets);
    for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
    count_ += o.count_;
  }
  [[nodiscard]] std::uint64_t count() const { return count_; }

  // Nearest-rank percentile, q in (0, 1]; interpolated by rank inside its
  // bucket.
  [[nodiscard]] double percentile(double q) const {
    if (count_ == 0) return 0.0;
    const auto rank = std::min(static_cast<std::uint64_t>(q * static_cast<double>(count_)),
                               count_ - 1);
    std::uint64_t below = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (below + buckets_[i] > rank) {
        const double within = (static_cast<double>(rank - below) + 0.5) /
                              static_cast<double>(buckets_[i]);
        return kLow * std::pow(kRatio, static_cast<double>(i) + within);
      }
      below += buckets_[i];
    }
    return 0.0;
  }

 private:
  static constexpr double kLow = 1e-3;
  static constexpr double kRatio = 1.005;
  static constexpr std::size_t kBuckets = 4620;  // log(1e10) / log(1.005)
  std::vector<std::uint64_t> buckets_;  // allocated by the first sample
  std::uint64_t count_ = 0;
};

// ---- workloads ----------------------------------------------------------------
//
// Why each workload exists is recorded in perfbench/README.md.

struct Workload {
  const char* name;
  const char* scenario;
  bool parallel;          // engine threads = min(2, nproc) instead of 1
  bool served;            // CountingService to its verdict under open-loop readers
  std::uint64_t window;   // batch: steps per pass, checkpoint cut at half (Full scale)
  unsigned min_nproc;     // below this the numbers would mislead: skip
};

// Batch passes measure a fixed window of steps instead of running to the
// verdict: whole runs of these scenarios are bimodal across seeds
// (manhattan-closed-rush converges within an hour on some seeds and jams
// to its 4-hour limit on others), so a whole-run rate would describe the
// seed more than the code.
constexpr Workload kWorkloads[] = {
    {"grid-rush", "manhattan-closed-rush", false, false, 2400, 1},
    {"grid-rush-mt", "manhattan-closed-rush", true, false, 2400, 2},
    {"metro-sparse", "metro-grid-sparse", false, false, 8000, 1},
    {"serve-open", "manhattan-open-steady", false, true, 0, 3},
};

constexpr std::uint64_t kSmokeWindow = 400;
constexpr int kMaxEngineThreads = 2;
constexpr int kServeReaders = 2;
constexpr double kServeQueryRate = 40000.0;  // queries/s over all readers
constexpr int kWarmSetups = 3;         // extra timed constructions per run
constexpr int kCheckpointRepeats = 10;  // timed checkpoints and resumes per pass
constexpr std::uint64_t kBlockSteps = 100;  // stepping time is kept per block of steps
constexpr int kRouterPlans = 400;
constexpr int kMapBuilds = 3;
// Documented in README.md: never used while tuning a change, only to
// confirm a claim once it is made.
constexpr std::uint64_t kHeldOutSeed = 20141017;

// Passes run in pairs on one scenario variant; variant 0 is the run's own
// seed and later variants are derived from it, so a run averages over
// several inputs while every pass still has an exact twin to match.
std::uint64_t variant_seed(std::uint64_t seed, std::uint64_t variant) {
  return variant == 0 ? seed : util::derive_seed(seed, variant);
}

// ---- tracing ------------------------------------------------------------------

// Spans around the public calls this file makes. Durations are always
// measured (the end-to-end metrics need them); spans are kept only when
// tracing and written out when the run ends.
class Tracer {
 public:
  explicit Tracer(bool keep) : keep_(keep), origin_(now_s()) {}

  void begin(const char* name) {
    const double t = now_s();
    int id = -1;
    if (keep_) {
      id = static_cast<int>(spans_.size());
      spans_.push_back({name, open_.empty() ? -1 : open_.back().span, t, t});
    }
    open_.push_back({t, id});
  }
  // Closes the innermost open span and returns its duration in seconds.
  double end() {
    const double t = now_s();
    const Open o = open_.back();
    open_.pop_back();
    if (o.span >= 0) spans_[static_cast<std::size_t>(o.span)].end = t;
    return t - o.start;
  }
  template <typename F>
  double time(const char* name, F&& fn) {
    begin(name);
    fn();
    return end();
  }

  // One JSON object per line: id, parent id, name, and start/end in
  // seconds since the tracer was created.
  void write(const std::string& path) const {
    std::ofstream out(path);
    out.precision(9);
    out << std::fixed;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
          << "\",\"start_s\":" << s.start - origin_ << ",\"end_s\":" << s.end - origin_
          << "}\n";
    }
  }

 private:
  struct Span {
    const char* name;
    int parent;
    double start;
    double end;
  };
  struct Open {
    double start;
    int span;
  };
  bool keep_;
  double origin_;
  std::vector<Span> spans_;
  std::vector<Open> open_;
};

// ---- checks and exact work counts -----------------------------------------

class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// Per-step work, sampled at each step's end on the stepping thread.
class WorkCounter final : public traffic::SimObserver {
 public:
  void bind(const traffic::SimEngine* engine) { engine_ = engine; }
  void on_step_end(util::SimTime) override {
    vehicle_steps += engine_->alive_count();
    lane_visits += engine_->occupied_lane_count();
  }
  std::uint64_t vehicle_steps = 0;
  std::uint64_t lane_visits = 0;

 private:
  const traffic::SimEngine* engine_ = nullptr;
};

// Marks every kBlockSteps-th step end on the stepping thread, so a served
// run's stepping time splits into the same blocks as a batch pass's.
class StepClock final : public traffic::SimObserver {
 public:
  explicit StepClock(const traffic::SimEngine& engine) : engine_(engine) {}
  void on_step_end(util::SimTime) override {
    if (engine_.step_count() % kBlockSteps == 0) marks.push_back(now_s());
  }
  std::vector<double> marks;

 private:
  const traffic::SimEngine& engine_;
};

// Everything a pass must reproduce exactly on the same seed, whatever the
// thread count or instrumentation: the event stream and the work counts.
struct Digest {
  std::vector<std::pair<const char*, std::uint64_t>> fields;

  void add(const char* name, std::uint64_t value) { fields.emplace_back(name, value); }
  [[nodiscard]] std::uint64_t get(const char* name) const {
    for (const auto& [n, v] : fields) {
      if (std::string(n) == name) return v;
    }
    return 0;
  }
};

void expect_same(Checks& checks, const Digest& ref, const Digest& got, const std::string& what) {
  bool same = ref.fields.size() == got.fields.size();
  for (std::size_t i = 0; same && i < ref.fields.size(); ++i) {
    if (ref.fields[i].second != got.fields[i].second) {
      std::fprintf(stderr, "  %s: %s %llu != %llu\n", what.c_str(), ref.fields[i].first,
                   static_cast<unsigned long long>(ref.fields[i].second),
                   static_cast<unsigned long long>(got.fields[i].second));
      same = false;
    }
  }
  checks.expect(same, what + ": event hash and exact work counts repeat");
}

// The paper's claim, checked on every pass: once the protocol declares its
// count complete (every checkpoint stable), the total equals the oracle's
// truth. A served run must also reach that verdict; a batch window usually
// ends before it, with no verdict claimed.
void expect_verdict(Checks& checks, const experiment::ScenarioConfig& config,
                    const experiment::RunMetrics& m, bool must_converge, const std::string& what) {
  if (must_converge) {
    checks.expect(m.constitution_converged && m.quiescent &&
                      (m.collection_converged || !config.protocol.collection),
                  what + ": run converged");
  }
  checks.expect(!m.constitution_converged || m.total_exact,
                what + ": declared total exact (protocol " + std::to_string(m.protocol_total) +
                    ", truth " + std::to_string(m.truth) + ")");
}

// ---- query logs ---------------------------------------------------------------

// Open-loop query records. Each query is due at a fixed time; the reader
// sends it `lag` after that and gets the answer `service` later. The
// end-to-end figures use service time (the program's part); latency from
// the due time (lag + service) and the lag itself are reported per layer,
// because on a shared host they mostly measure stalls of the reader thread.
struct QueryLog {
  Histogram service_us;
  Histogram lag_us;
  Histogram from_due_us;
  Histogram publish_gap_ms;    // wall time per published step, as observed
  std::uint64_t backwards = 0;  // views whose step went backwards

  void record(double due, double start, double end) {
    service_us.add((end - start) * 1e6);
    lag_us.add((start - due) * 1e6);
    from_due_us.add((end - due) * 1e6);
  }
  void merge(const QueryLog& o) {
    service_us.merge(o.service_us);
    lag_us.merge(o.lag_us);
    from_due_us.merge(o.from_due_us);
    publish_gap_ms.merge(o.publish_gap_ms);
    backwards += o.backwards;
  }
};

// Tracks the step sequence one reader observes.
class ViewObserver {
 public:
  void see(std::uint64_t step, double t, QueryLog& log) {
    if (step < last_step_) ++log.backwards;
    if (step > last_step_) {
      if (seen_) {
        log.publish_gap_ms.add((t - last_change_) * 1e3 / static_cast<double>(step - last_step_));
      }
      seen_ = true;
      last_step_ = step;
      last_change_ = t;
    }
  }

 private:
  bool seen_ = false;
  std::uint64_t last_step_ = 0;
  double last_change_ = 0.0;
};

// The view CountingService publishes, built from a world between steps.
serve::ServiceView make_view(const serve::SimWorld& world) {
  serve::ServiceView view;
  view.step = world.engine().step_count();
  view.now_millis = world.engine().now().millis();
  view.live_total = world.protocol().live_total();
  view.truth = world.oracle().true_population();
  view.all_stable = world.protocol().all_stable();
  view.quiescent = world.protocol().quiescent();
  view.finished = world.done();
  view.checkpoints.reserve(world.protocol().checkpoints().size());
  for (const auto& cp : world.protocol().checkpoints()) {
    view.checkpoints.push_back(
        serve::CheckpointCounts{cp.local_total(), cp.is_active(), cp.is_stable()});
  }
  return view;
}

// Count queries against a batch world, sent by the stepping thread every
// kPollSteps steps. With no service thread publishing each step, answering
// one means building the view from the world and passing it through the
// serving layer's published-counts table. Polls sit at the same steps in
// every twin pass, so twins still do identical work, query for query.
class BatchPoller {
 public:
  BatchPoller(std::size_t checkpoints, QueryLog& log) : log_(log) { table_.init(checkpoints); }

  void poll(const serve::SimWorld& world, double due) {
    if (world.engine().step_count() % kPollSteps != 0) return;
    const double start = now_s();
    table_.publish(make_view(world));
    const serve::ServiceView view = table_.read();
    const double end = now_s();
    log_.record(due, start, end);
    observer_.see(view.step, end, log_);
  }

 private:
  static constexpr std::uint64_t kPollSteps = 5;
  serve::PublishedCounts table_;
  QueryLog& log_;
  ViewObserver observer_;
};

// ---- one pass -------------------------------------------------------------------

struct Pass {
  Digest digest;
  double setup_s = 0.0;
  double step_s = 0.0;  // wall time inside stepping
  std::uint64_t steps = 0;
  std::vector<double> block_s;  // stepping time per kBlockSteps steps
  std::vector<double> checkpoint_s, resume_s;
  std::map<std::string, double> layer;  // per-layer metrics (traced passes)
  QueryLog queries;  // merged into the run's log once the pass ends

  void keep(QueryLog q, Checks& checks) {
    checks.expect(q.service_us.count() > 0, "queries were answered");
    checks.expect(q.backwards == 0, "no reader saw a view whose step went backwards");
    layer["service.queries"] = static_cast<double>(q.service_us.count());
    queries = std::move(q);
  }
};

// Hooks that carry the hasher, the work counter and a pass-through route
// filter into every world a pass builds, rebinding across the snapshot cut.
struct Instruments {
  testing::EventStreamHasher hasher;
  WorkCounter work;
  std::atomic<std::uint64_t> continuations{0};  // planned from engine shards

  void bind(const traffic::SimEngine* engine) {
    hasher.bind(engine);
    work.bind(engine);
  }
  traffic::Route count(traffic::Route planned) {
    continuations.fetch_add(1, std::memory_order_relaxed);
    return planned;
  }
  experiment::RunHooks hooks() {
    experiment::RunHooks h;
    h.make_engine = [this](const roadnet::RoadNetwork& net, traffic::SimConfig sim) {
      auto engine = std::make_unique<traffic::SimEngine>(net, sim);
      bind(engine.get());
      return engine;
    };
    h.observers = {&hasher, &work};
    h.filter_continuation = [this](traffic::VehicleId, roadnet::NodeId, traffic::Route planned) {
      return count(std::move(planned));
    };
    return h;
  }
};

void add_perf_layers(Pass& pass, const util::PerfCollector& perf) {
  using util::PerfPhase;
  const auto seconds = [&](PerfPhase p) { return perf.phase(p).seconds(); };
  pass.layer["engine.lane_change_s"] = seconds(PerfPhase::LaneChange);
  pass.layer["engine.dynamics_s"] = seconds(PerfPhase::Dynamics);
  pass.layer["engine.overtakes_s"] = seconds(PerfPhase::Overtakes);
  pass.layer["engine.transits_s"] = seconds(PerfPhase::Transits);
  pass.layer["engine.bookkeeping_s"] = seconds(PerfPhase::StepBookkeeping);
  pass.layer["engine.event_flush_s"] = seconds(PerfPhase::EventFlush);
  pass.layer["demand.update_s"] = seconds(PerfPhase::Demand);
  double wall = 0.0;
  double cpu = 0.0;
  double busy = 0.0;
  for (PerfPhase p : {PerfPhase::LaneChange, PerfPhase::Dynamics, PerfPhase::Overtakes,
                      PerfPhase::Transits, PerfPhase::StepBookkeeping, PerfPhase::EventFlush}) {
    const util::PerfPhaseStats& s = perf.phase(p);
    wall += s.seconds();
    cpu += s.cpu_seconds();
    // A phase that ran sharded reports its team's summed task time; a
    // serial phase keeps its one thread busy for its whole wall time.
    busy += s.parallel_nanos > 0 ? s.parallel_seconds() : s.seconds();
  }
  pass.layer["engine.cpu_s"] = cpu;
  pass.layer["engine.cpu_per_wall"] = wall > 0.0 ? cpu / wall : 0.0;
  pass.layer["engine.parallel_busy_s"] = busy;
  const double vehicle_steps = static_cast<double>(pass.digest.get("engine.vehicle_steps"));
  pass.layer["engine.dynamics_ns_per_vehicle_step"] =
      vehicle_steps > 0 ? seconds(PerfPhase::Dynamics) * 1e9 / vehicle_steps : 0.0;
}

struct RunContext {
  const Workload& workload;
  experiment::ScenarioConfig config;  // run seed and engine threads applied
  std::uint64_t window;
  Checks& checks;
  Tracer& tracer;
};

// Checkpoints `world` (SimWorld::save + Snapshot::to_bytes) and resumes the
// bytes (Snapshot::from_bytes + a Restore-mode SimWorld + restore()), each
// kCheckpointRepeats times; returns the last restored world. The restored
// world must be consistent and must save back to the very same bytes.
std::unique_ptr<serve::SimWorld> checkpoint_and_resume(
    const RunContext& ctx, const serve::SimWorld& original,
    const experiment::ScenarioConfig& config, const experiment::RunHooks& hooks, Pass& pass,
    bool traced) {
  Tracer& tracer = ctx.tracer;
  std::vector<std::uint8_t> bytes;
  std::vector<double> save_s, encode_s, decode_s, rebuild_s, restore_s;
  for (int i = 0; i < kCheckpointRepeats; ++i) {
    tracer.begin("checkpoint");
    serve::Snapshot snap;
    save_s.push_back(tracer.time("snapshot.save", [&] { original.save(snap); }));
    encode_s.push_back(tracer.time("snapshot.encode", [&] { bytes = snap.to_bytes(); }));
    pass.checkpoint_s.push_back(tracer.end());
  }
  std::unique_ptr<serve::SimWorld> world;
  for (int i = 0; i < kCheckpointRepeats; ++i) {
    tracer.begin("resume");
    std::optional<serve::Snapshot> parsed;
    decode_s.push_back(tracer.time("snapshot.decode", [&] {
      parsed.emplace(serve::Snapshot::from_bytes(bytes));
    }));
    world.reset();
    rebuild_s.push_back(tracer.time("world.rebuild", [&] {
      world = std::make_unique<serve::SimWorld>(config, hooks, serve::SimWorld::Mode::Restore);
    }));
    restore_s.push_back(tracer.time("snapshot.restore", [&] { world->restore(*parsed); }));
    pass.resume_s.push_back(tracer.end());
  }
  ctx.checks.expect(world->engine().debug_occupancy_consistent(),
                    "restored world passes debug_occupancy_consistent()");
  serve::Snapshot again;
  world->save(again);
  ctx.checks.expect(again.to_bytes() == bytes, "restored world saves back to identical bytes");
  pass.digest.add("snapshot.bytes", bytes.size());
  if (traced) {
    pass.layer["snapshot.save_s"] = median(save_s);
    pass.layer["snapshot.encode_s"] = median(encode_s);
    pass.layer["snapshot.decode_s"] = median(decode_s);
    pass.layer["snapshot.rebuild_s"] = median(rebuild_s);
    pass.layer["snapshot.restore_s"] = median(restore_s);
  }
  return world;
}

experiment::RunMetrics finish_digest(const RunContext& ctx, Pass& pass, serve::SimWorld& world,
                                     Instruments& inst, bool must_converge, const char* what) {
  experiment::RunMetrics m;
  ctx.tracer.time("world.finish", [&] { m = world.finish(); });
  expect_verdict(ctx.checks, world.config(), m, must_converge,
                 std::string(ctx.workload.name) + " " + what);
  ctx.checks.expect(inst.hasher.ledger_population() ==
                        static_cast<std::int64_t>(world.engine().population_inside()),
                    "event-ledger population equals the engine's population");
  Digest& d = pass.digest;
  d.add("event_hash", inst.hasher.hash());
  d.add("hasher.events", inst.hasher.event_count());
  d.add("engine.steps", m.steps);
  d.add("engine.vehicle_steps", inst.work.vehicle_steps);
  d.add("engine.lane_visits", inst.work.lane_visits);
  d.add("engine.events", m.sim_events);
  d.add("engine.transits", m.transits);
  d.add("engine.spawned", m.total_spawned);
  d.add("engine.peak_occupied_lanes", m.peak_occupied_lanes);
  d.add("roadnet.lanes", m.total_lanes);
  d.add("demand.spawned", world.demand().spawned_total());
  d.add("router.continuations", inst.continuations.load());
  d.add("protocol.messages_sent", m.protocol_stats.messages_sent);
  d.add("protocol.messages_delivered", m.protocol_stats.messages_delivered);
  d.add("protocol.pickup_failures", m.protocol_stats.message_pickup_failures);
  d.add("protocol.label_handoff_failures", m.protocol_stats.label_handoff_failures);
  d.add("protocol.patrol_relays", m.protocol_stats.patrol_relays);
  d.add("oracle.double_counted", m.double_counted);
  return m;
}

// A fixed window of steps: build a world, step to the cut, checkpoint,
// resume on a restored world and step it to the window's end.
Pass batch_pass(const RunContext& ctx, std::uint64_t seed, bool traced) {
  Pass pass;
  Instruments inst;
  util::PerfCollector perf;
  experiment::ScenarioConfig config = ctx.config;
  config.seed = seed;
  if (traced) config.perf = &perf;
  const experiment::RunHooks hooks = inst.hooks();
  Tracer& tracer = ctx.tracer;

  tracer.begin("pass");
  std::unique_ptr<serve::SimWorld> world;
  pass.setup_s = tracer.time("world.construct", [&] {
    world = std::make_unique<serve::SimWorld>(config, hooks);
  });

  QueryLog queries;
  BatchPoller poller(world->protocol().checkpoints().size(), queries);
  // Steps past a verdict too: every pass of a workload does the same work.
  const auto step_until = [&](serve::SimWorld& w, std::uint64_t stop_at) {
    tracer.begin("world.step_loop");
    double t = now_s();
    while (w.engine().step_count() < stop_at) {
      w.step();
      const double after = now_s();
      pass.step_s += after - t;
      const std::size_t block = pass.steps++ / kBlockSteps;
      if (block >= pass.block_s.size()) pass.block_s.push_back(0.0);
      pass.block_s[block] += after - t;
      poller.poll(w, after);
      t = now_s();
    }
    tracer.end();
  };

  step_until(*world, ctx.window / 2);
  pass.digest.add("cut.event_hash", inst.hasher.hash());
  pass.digest.add("cut.vehicle_steps", inst.work.vehicle_steps);
  pass.digest.add("cut.lane_visits", inst.work.lane_visits);
  world = checkpoint_and_resume(ctx, *world, config, hooks, pass, traced);
  step_until(*world, ctx.window);
  finish_digest(ctx, pass, *world, inst, false, "window");
  tracer.end();  // pass

  pass.keep(std::move(queries), ctx.checks);
  if (traced) add_perf_layers(pass, perf);
  return pass;
}

// Serves the scenario through CountingService to its verdict while
// kServeReaders threads query on an open-loop schedule, then checkpoints
// the served world and resumes it into a restored one.
Pass serve_pass(const RunContext& ctx, std::uint64_t seed, bool traced) {
  Pass pass;
  Instruments inst;
  util::PerfCollector perf;
  experiment::ScenarioConfig config = ctx.config;
  config.seed = seed;
  if (traced) config.perf = &perf;
  Tracer& tracer = ctx.tracer;

  tracer.begin("pass");
  std::optional<serve::CountingService> service;
  pass.setup_s = tracer.time("service.construct", [&] { service.emplace(config); });
  serve::SimWorld& world = service->world();
  // The RunHooks wiring, attached before start() as the service allows.
  inst.bind(&world.engine());
  world.engine().add_observer(&inst.hasher);
  world.engine().add_observer(&inst.work);
  StepClock clock(world.engine());
  world.engine().add_observer(&clock);
  world.engine().set_route_planner([&world, &inst](traffic::VehicleId v, roadnet::NodeId n) {
    return inst.count(world.demand().plan_continuation(v, n));
  });

  constexpr double kPeriod = kServeReaders / kServeQueryRate;
  constexpr double kGiveUpAfter = 120.0;
  std::vector<QueryLog> logs(kServeReaders);
  std::vector<double> finish_seen(kServeReaders, 0.0);
  std::atomic<bool> gave_up{false};

  tracer.begin("service.serve");
  const double t0 = now_s();
  service->start();
  {
    std::vector<std::jthread> readers;
    for (int r = 0; r < kServeReaders; ++r) {
      readers.emplace_back([&, r] {
        QueryLog& log = logs[static_cast<std::size_t>(r)];
        ViewObserver observer;
        const double offset = kPeriod * r / kServeReaders;
        for (std::uint64_t k = 0;; ++k) {
          const double due = t0 + offset + static_cast<double>(k) * kPeriod;
          double start = now_s();
          while (start < due) start = now_s();
          const serve::ServiceView view = service->query();
          const double end = now_s();
          log.record(due, start, end);
          observer.see(view.step, end, log);
          if (view.finished) {
            finish_seen[static_cast<std::size_t>(r)] = end;
            return;
          }
          if (end - t0 > kGiveUpAfter) {
            gave_up.store(true);
            return;
          }
        }
      });
    }
  }
  service->stop();
  tracer.end();
  ctx.checks.expect(!gave_up.load(), "service finished within the time limit");
  pass.step_s = *std::min_element(finish_seen.begin(), finish_seen.end()) - t0;
  pass.steps = world.engine().step_count();
  double mark = t0;
  for (const double m : clock.marks) {
    pass.block_s.push_back(m - mark);
    mark = m;
  }

  const serve::ServiceView final_view = service->query();
  ctx.checks.expect(final_view.finished && final_view.live_total == final_view.truth &&
                        final_view.truth == world.oracle().true_population(),
                    "final served count equals the oracle truth");
  const experiment::RunMetrics served =
      finish_digest(ctx, pass, world, inst, true, "served run");
  QueryLog queries;
  for (const QueryLog& log : logs) queries.merge(log);
  pass.keep(std::move(queries), ctx.checks);

  // The stepping thread has stopped, so the served world may be
  // checkpointed; the restored world must report the same verdict.
  const std::unique_ptr<serve::SimWorld> restored =
      checkpoint_and_resume(ctx, world, config, experiment::RunHooks{}, pass, traced);
  const experiment::RunMetrics resumed = restored->finish();
  ctx.checks.expect(resumed.protocol_total == served.protocol_total &&
                        resumed.truth == served.truth && resumed.steps == served.steps &&
                        resumed.constitution_converged == served.constitution_converged,
                    "restored world reports the served world's verdict");
  tracer.end();  // pass
  if (traced) add_perf_layers(pass, perf);
  return pass;
}

// Serial run of variant 0 up to the cut: a multi-threaded pass must
// reproduce its event hash and work counts bit for bit.
Digest serial_prefix(const RunContext& ctx) {
  Instruments inst;
  experiment::ScenarioConfig config = ctx.config;
  config.sim.threads = 1;
  Digest d;
  ctx.tracer.time("serial_prefix", [&] {
    serve::SimWorld world(config, inst.hooks());
    while (world.engine().step_count() < ctx.window / 2) world.step();
    d.add("cut.event_hash", inst.hasher.hash());
    d.add("cut.vehicle_steps", inst.work.vehicle_steps);
    d.add("cut.lane_visits", inst.work.lane_visits);
  });
  return d;
}

// Map factories and the router, measured on the workload's own map.
void measure_map_and_router(const RunContext& ctx, std::map<std::string, std::vector<double>>& layer) {
  const experiment::ScenarioConfig& config = ctx.config;
  const int stride = config.mode == experiment::SystemMode::Open ? config.gateway_stride : 0;
  std::optional<roadnet::RoadNetwork> net;
  for (int i = 0; i < kMapBuilds; ++i) {
    layer["roadnet.build_s"].push_back(ctx.tracer.time("roadnet.build", [&] {
      if (config.map_factory) {
        net.emplace(config.map_factory(stride));
      } else {
        roadnet::ManhattanConfig map = config.map;
        map.gateway_stride = stride;
        net.emplace(roadnet::make_manhattan_grid(map));
      }
    }));
  }
  traffic::Router router(*net, config.seed);
  std::mt19937_64 od(config.seed);
  std::uniform_int_distribution<std::uint32_t> pick(
      0, static_cast<std::uint32_t>(net->num_intersections() - 1));
  std::vector<double> plan_us;
  std::size_t planned_edges = 0;
  ctx.tracer.time("router.plan_set", [&] {
    for (int i = 0; i < kRouterPlans; ++i) {
      const roadnet::NodeId from{pick(od)};
      const roadnet::NodeId to{pick(od)};
      const double t = now_s();
      planned_edges += router.plan(from, to).size();
      plan_us.push_back((now_s() - t) * 1e6);
    }
  });
  ctx.checks.expect(planned_edges > 0, "router plans routes on the workload's map");
  layer["router.plan_us"].push_back(median(plan_us));
}

// ---- output ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void print_result(const Checks& checks, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-40s %s %s\n", m.name.c_str(), number(m.value).c_str(), m.unit.c_str());
  }
  const double fail_frac = static_cast<double>(checks.failed()) /
                           static_cast<double>(std::max<std::uint64_t>(1, checks.attempted()));
  std::printf("checks attempted=%llu failed=%llu fail_frac=%s\n",
              static_cast<unsigned long long>(checks.attempted()),
              static_cast<unsigned long long>(checks.failed()), number(fail_frac).c_str());
  std::string json = "{\"correct\": ";
  json += checks.failed() == 0 && checks.attempted() > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checks.attempted());
  json += ", \"failed\": " + std::to_string(checks.failed());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// Optimized, uninstrumented builds only: anything else produces timings
// that describe the build, not the program.
const char* unfit_build() {
#if !defined(NDEBUG)
  return "assertions enabled (NDEBUG not defined)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  return "sanitizer build";
#endif
#endif
  const std::string type = IVC_PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") return "build type is not Release";
  return nullptr;
}

// Stepping rate of a variant from its twins: they do identical work block
// by block, and interference on a shared host only ever adds time, so each
// block counts at the faster twin's time.
double twin_rate(const Pass& a, const Pass& b) {
  const std::size_t n = std::min(a.block_s.size(), b.block_s.size());
  if (n == 0) {  // shorter than one block (Smoke scale): whole-pass rates
    return std::max(static_cast<double>(a.steps) / a.step_s,
                    static_cast<double>(b.steps) / b.step_s);
  }
  double secs = 0.0;
  for (std::size_t k = 0; k < n; ++k) secs += std::min(a.block_s[k], b.block_s[k]);
  return static_cast<double>(n * kBlockSteps) / secs;
}

double least(const std::vector<double>& v) { return *std::min_element(v.begin(), v.end()); }

// Interference on a shared host only ever adds time. The stepping rate is
// the median over variants of each variant's twin rate; checkpoint and
// resume report the best of the run's repeats. The query median covers
// every query of the run as it was answered, not at its faster twin's
// time: the host alternates between a fast and a slow speed, and pairing
// would put the median where it jumps between the two (README.md, "Why
// only the median is bounded").
std::vector<Metric> end_to_end(const std::vector<Pass>& passes, const QueryLog& queries,
                               std::vector<double> setups) {
  std::vector<double> rates, checkpoint, resume;
  for (std::size_t i = 0; i + 1 < passes.size(); i += 2) {
    rates.push_back(twin_rate(passes[i], passes[i + 1]));
  }
  for (const Pass& p : passes) {
    setups.push_back(p.setup_s);
    checkpoint.push_back(least(p.checkpoint_s));
    resume.push_back(least(p.resume_s));
  }
  std::printf("# steps/s per variant:");
  for (const double r : rates) std::printf(" %.0f", r);
  const Histogram& service = queries.service_us;
  std::printf("\n# queries=%llu, service time p90=%s us, p99=%s us\n",
              static_cast<unsigned long long>(service.count()),
              number(service.percentile(0.90)).c_str(), number(service.percentile(0.99)).c_str());
  return {
      {"setup_s", median(setups), "s"},
      {"steps_per_s", median(rates), "1/s"},
      {"checkpoint_s", least(checkpoint), "s"},
      {"resume_s", least(resume), "s"},
      {"query_p50_us", service.percentile(0.50), "us"},
      {"peak_rss_mb", static_cast<double>(util::peak_rss_bytes()) / 1e6, "MB"},
  };
}

std::vector<Metric> per_layer(const std::vector<Pass>& passes, const QueryLog& queries,
                              std::map<std::string, std::vector<double>> layer) {
  std::vector<double> untraced, traced;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const Pass& p = passes[i];
    (i % 2 == 1 ? traced : untraced).push_back(static_cast<double>(p.steps) / p.step_s);
    if (i % 2 == 0) continue;
    for (const auto& [name, v] : p.layer) layer[name].push_back(v);
  }
  for (const auto& [name, log, q] : std::vector<std::tuple<const char*, const Histogram*, double>>{
           {"service.publish_gap_p50_ms", &queries.publish_gap_ms, 0.50},
           {"service.publish_gap_p99_ms", &queries.publish_gap_ms, 0.99},
           {"service.generator_lag_p50_us", &queries.lag_us, 0.50},
           {"service.generator_lag_p99_us", &queries.lag_us, 0.99},
           {"service.latency_from_due_p50_us", &queries.from_due_us, 0.50},
           {"service.latency_from_due_p99_us", &queries.from_due_us, 0.99},
           {"service.query_p90_us", &queries.service_us, 0.90},
           {"service.query_p99_us", &queries.service_us, 0.99}}) {
    layer[name].push_back(log->percentile(q));
  }
  std::vector<Metric> out;
  for (const auto& [name, unit] : std::vector<std::pair<const char*, const char*>>{
           {"engine.dynamics_s", "s"},
           {"engine.dynamics_ns_per_vehicle_step", "ns"},
           {"engine.lane_change_s", "s"},
           {"engine.transits_s", "s"},
           {"engine.bookkeeping_s", "s"},
           {"engine.overtakes_s", "s"},
           {"engine.event_flush_s", "s"},
           {"engine.parallel_busy_s", "s"},
           {"engine.cpu_s", "s"},
           {"engine.cpu_per_wall", "ratio"},
           {"demand.update_s", "s"},
           {"router.plan_us", "us"},
           {"roadnet.build_s", "s"},
           {"snapshot.save_s", "s"},
           {"snapshot.encode_s", "s"},
           {"snapshot.decode_s", "s"},
           {"snapshot.rebuild_s", "s"},
           {"snapshot.restore_s", "s"},
           {"service.publish_gap_p50_ms", "ms"},
           {"service.publish_gap_p99_ms", "ms"},
           {"service.generator_lag_p50_us", "us"},
           {"service.generator_lag_p99_us", "us"},
           {"service.latency_from_due_p50_us", "us"},
           {"service.latency_from_due_p99_us", "us"},
           {"service.query_p90_us", "us"},
           {"service.query_p99_us", "us"},
           {"service.queries", "count"},
       }) {
    out.push_back({name, median(layer[name]), unit});
  }
  // Exact counts of the first traced pass (variant 0); every other pass
  // was checked against its twin.
  const Digest& d = passes[1].digest;
  for (const char* name :
       {"engine.vehicle_steps", "engine.lane_visits", "engine.events", "engine.transits",
        "engine.spawned", "engine.peak_occupied_lanes", "demand.spawned",
        "router.continuations", "roadnet.lanes", "protocol.messages_sent",
        "protocol.messages_delivered", "protocol.pickup_failures",
        "protocol.label_handoff_failures", "protocol.patrol_relays", "oracle.double_counted"}) {
    out.push_back({name, static_cast<double>(d.get(name)), "count"});
  }
  out.push_back({"snapshot.bytes", static_cast<double>(d.get("snapshot.bytes")), "bytes"});
  const double sent = static_cast<double>(d.get("protocol.messages_sent"));
  out.push_back({"protocol.delivery_ratio",
                 sent > 0 ? static_cast<double>(d.get("protocol.messages_delivered")) / sent : 0.0,
                 "ratio"});
  out.push_back({"trace.overhead_frac", median(untraced) / median(traced) - 1.0, "ratio"});
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::int64_t seed = 1;
  double seconds = 10.0;
  std::int64_t trace = 0;
  bool smoke = false;
  bool inject_mismatch = false;
  std::string spans_out;
  util::Cli cli("ivc_perfbench", "repository benchmark: one workload, timed and checked");
  cli.add_string("workload", &workload_name,
                 "grid-rush | grid-rush-mt | metro-sparse | serve-open");
  cli.add_int("seed", &seed, "run seed (every scenario input is derived from it)");
  cli.add_double("seconds", &seconds, "wall-clock budget of the run");
  cli.add_int("trace", &trace, "0: end-to-end metrics; 1: per-layer metrics from traced passes");
  cli.add_flag("smoke", &smoke, "Smoke-scale scenarios (self-test only)");
  cli.add_flag("inject-mismatch", &inject_mismatch,
               "run the first pass's twin on another seed, so the repeat check must fail");
  cli.add_string("spans-out", &spans_out, "traced runs: write the spans here (JSON lines)");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 2;

  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload_name == w.name) workload = &w;
  }
  if (workload == nullptr || seed <= 0 || seconds <= 0.0 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr, "ivc_perfbench: bad arguments (see --help)\n");
    return 2;
  }
  if (const char* why = unfit_build()) {
    std::fprintf(stderr, "ivc_perfbench: refusing to time this build: %s\n", why);
    return 3;
  }
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  if (nproc < workload->min_nproc) {
    std::fprintf(stderr,
                 "ivc_perfbench: SKIP %s: needs >= %u cores, this host has %u "
                 "(its numbers would measure oversubscription)\n",
                 workload->name, workload->min_nproc, nproc);
    return 4;
  }
  const experiment::NamedScenario* scenario =
      experiment::ScenarioRegistry::builtin().find(workload->scenario);
  if (scenario == nullptr) {
    std::fprintf(stderr, "ivc_perfbench: scenario %s missing from the registry\n",
                 workload->scenario);
    return 2;
  }

  experiment::ScenarioConfig config =
      scenario->make(smoke ? experiment::ScenarioScale::Smoke : experiment::ScenarioScale::Full);
  config.seed = static_cast<std::uint64_t>(seed);
  config.sim.threads =
      workload->parallel ? std::min<int>(kMaxEngineThreads, static_cast<int>(nproc)) : 1;
  std::printf("# workload=%s scenario=%s seed=%lld held_out_seed=%llu engine_threads=%d\n",
              workload->name, workload->scenario, static_cast<long long>(seed),
              static_cast<unsigned long long>(kHeldOutSeed), config.sim.threads);
  std::printf("# host nproc=%u uname=\"%s\" compiler=\"%s\" build=%s trace=%lld smoke=%d\n",
              nproc, util::host_uname().c_str(), __VERSION__, IVC_PERFBENCH_BUILD_TYPE,
              static_cast<long long>(trace), smoke ? 1 : 0);

  Checks checks;
  Tracer tracer(trace == 1);
  const RunContext ctx{*workload, config, smoke ? kSmokeWindow : workload->window, checks,
                       tracer};
  const double t_start = now_s();
  std::vector<Metric> metrics;
  try {
    std::vector<double> setups;
    for (int i = 0; i < kWarmSetups; ++i) {
      if (workload->served) {
        setups.push_back(tracer.time("service.construct",
                                     [&] { serve::CountingService warm(config); }));
      } else {
        setups.push_back(tracer.time("world.construct", [&] { serve::SimWorld warm(config); }));
      }
    }
    std::map<std::string, std::vector<double>> layer;
    if (trace == 1) measure_map_and_router(ctx, layer);
    const std::optional<Digest> serial =
        workload->parallel ? std::optional<Digest>(serial_prefix(ctx)) : std::nullopt;

    // Pairs of passes on one variant (untraced + traced when tracing) until
    // the budget would be exceeded; at least one pair.
    std::vector<Pass> passes;
    QueryLog queries;  // of the passes the reported metrics describe
    double longest = 0.0;
    for (std::uint64_t i = 0;; ++i) {
      if (i % 2 == 0 && i > 0 && now_s() - t_start + 2 * longest > seconds) break;
      std::uint64_t pass_seed = variant_seed(config.seed, i / 2);
      if (inject_mismatch && i == 1) ++pass_seed;
      const bool traced = trace == 1 && i % 2 == 1;
      const double t = now_s();
      passes.push_back(workload->served ? serve_pass(ctx, pass_seed, traced)
                                        : batch_pass(ctx, pass_seed, traced));
      longest = std::max(longest, now_s() - t);
      if (traced == (trace == 1)) queries.merge(passes.back().queries);
      passes.back().queries = QueryLog{};
    }
    for (std::size_t i = 0; i + 1 < passes.size(); i += 2) {
      expect_same(checks, passes[i].digest, passes[i + 1].digest,
                  std::string(workload->name) + " variant " + std::to_string(i / 2) +
                      (trace == 1 ? " traced vs untraced" : " repeat"));
    }
    if (serial) {
      Digest cut;
      for (const char* f : {"cut.event_hash", "cut.vehicle_steps", "cut.lane_visits"}) {
        cut.add(f, passes[0].digest.get(f));
      }
      expect_same(checks, *serial, cut,
                  std::string(workload->name) + " at the cut vs a serial run");
    }
    std::printf("# passes=%zu variants=%zu\n", passes.size(), passes.size() / 2);
    metrics = trace == 1 ? per_layer(passes, queries, std::move(layer))
                         : end_to_end(passes, queries, setups);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ivc_perfbench: %s: %s\n", workload->name, e.what());
    return 1;
  }

  if (!spans_out.empty()) tracer.write(spans_out);
  print_result(checks, metrics);
  return 0;
}
