#include "serve/trace.hpp"

#include <algorithm>
#include <fstream>
#include <thread>
#include <utility>

#include "serve/snapshot.hpp"
#include "serve/world.hpp"
#include "testing/diff_runner.hpp"
#include "testing/fuzzer.hpp"
#include "util/string_util.hpp"

namespace ivc::serve {

namespace {

// "IVCT" little-endian, distinct from the snapshot magic so the two file
// kinds cannot be confused.
constexpr std::uint32_t kTraceMagic = 0x54435649u;
constexpr std::uint32_t kTraceVersion = 1;

struct StepRecord {
  std::uint64_t step = 0;
  std::uint64_t total_spawned = 0;
  std::uint64_t events_emitted = 0;
  std::uint64_t alive = 0;
  std::uint64_t hash = 0;

  template <class Ar, class Self>
  static void io(Ar& ar, Self& rec) {
    ar(rec.step);
    ar(rec.total_spawned);
    ar(rec.events_emitted);
    ar(rec.alive);
    ar(rec.hash);
  }
};

// The run-level verdicts a replay must also reproduce.
struct Digest {
  std::int64_t protocol_total = 0;
  std::int64_t truth = 0;
  bool total_exact = false;
  bool exactly_once = false;
  bool quiescent = false;

  static Digest of(const experiment::RunMetrics& m) {
    return {m.protocol_total, m.truth, m.total_exact, m.exactly_once, m.quiescent};
  }
  friend bool operator==(const Digest&, const Digest&) = default;
  [[nodiscard]] std::string describe() const {
    return util::format("(total=%lld truth=%lld exact=%d once=%d quiescent=%d)",
                        static_cast<long long>(protocol_total), static_cast<long long>(truth),
                        total_exact ? 1 : 0, exactly_once ? 1 : 0, quiescent ? 1 : 0);
  }
};

// A whole trace file: the source, one record per step, the final digest.
struct TraceFile {
  TraceSource source;
  std::vector<StepRecord> records;
  Digest digest;

  template <class Ar, class Self>
  static void io(Ar& ar, Self& trace) {
    file_header(ar, kTraceMagic, kTraceVersion, "trace");
    ar(trace.source.kind);
    ar(trace.source.name);
    ar(trace.source.scale);
    ar(trace.source.case_seed);
    ar(trace.source.threads);
    ar.seq(trace.records, [](auto& a, auto& rec) { StepRecord::io(a, rec); });
    ar(trace.digest.protocol_total);
    ar(trace.digest.truth);
    ar(trace.digest.total_exact);
    ar(trace.digest.exactly_once);
    ar(trace.digest.quiescent);
  }
};

// Rebuild the traced scenario's configuration. Both source kinds are pure
// functions of their key, so this yields the recorded run's exact config.
experiment::ScenarioConfig resolve_config(const TraceSource& source) {
  experiment::ScenarioConfig config;
  if (source.kind == TraceSource::Kind::Registry) {
    const experiment::NamedScenario* named =
        experiment::ScenarioRegistry::builtin().find(source.name);
    if (named == nullptr) {
      throw SnapshotError(
          util::format("trace references unknown scenario '%s'", source.name.c_str()));
    }
    config = named->make(source.scale);
  } else {
    config = testing::make_fuzz_case(source.case_seed).config;
  }
  // The thread override sizes the engine's worker team: refuse one the
  // machine cannot run before any world (or thread) is built.
  const std::string bad_threads =
      thread_flag_error("trace engine threads", source.threads, -1, max_threads());
  if (!bad_threads.empty()) throw SnapshotError(bad_threads);
  if (source.threads >= 0) config.sim.threads = source.threads;
  return config;
}

StepRecord observe(const SimWorld& world, const testing::EventStreamHasher& hasher) {
  StepRecord rec;
  rec.step = world.engine().step_count();
  rec.total_spawned = world.engine().total_spawned();
  rec.events_emitted = world.engine().events_emitted();
  rec.alive = world.engine().alive_count();
  rec.hash = hasher.hash();
  return rec;
}

// First mismatching field of a step record, or empty when equal.
std::string diff_records(const StepRecord& recorded, const StepRecord& replayed) {
  static constexpr std::pair<const char*, std::uint64_t StepRecord::*> kFields[] = {
      {"step", &StepRecord::step},
      {"total_spawned", &StepRecord::total_spawned},
      {"events_emitted", &StepRecord::events_emitted},
      {"alive", &StepRecord::alive},
      {"event_hash", &StepRecord::hash}};
  for (const auto& [name, field] : kFields) {
    if (recorded.*field == replayed.*field) continue;
    return util::format("step %llu: %s recorded=%llu replayed=%llu",
                        static_cast<unsigned long long>(recorded.step), name,
                        static_cast<unsigned long long>(recorded.*field),
                        static_cast<unsigned long long>(replayed.*field));
  }
  return {};
}

}  // namespace

TraceSource TraceSource::registry(std::string scenario_name, experiment::ScenarioScale s,
                                  int threads_override) {
  TraceSource source;
  source.kind = Kind::Registry;
  source.name = std::move(scenario_name);
  source.scale = s;
  source.threads = threads_override;
  return source;
}

TraceSource TraceSource::fuzz_case(std::uint64_t seed, int threads_override) {
  TraceSource source;
  source.kind = Kind::FuzzCase;
  source.case_seed = seed;
  source.threads = threads_override;
  return source;
}

std::string TraceSource::describe() const {
  if (kind == Kind::Registry) {
    return util::format("registry:%s (%s)", name.c_str(),
                        scale == experiment::ScenarioScale::Full ? "full" : "smoke");
  }
  return util::format("fuzz-case:0x%016llx", static_cast<unsigned long long>(case_seed));
}

int max_threads() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

std::string thread_flag_error(const char* name, std::int64_t value, std::int64_t lo,
                              std::int64_t hi) {
  if (value >= lo && value <= hi) return {};
  return util::format("%s %lld is out of range [%lld, %lld] on this machine", name,
                      static_cast<long long>(value), static_cast<long long>(lo),
                      static_cast<long long>(hi));
}

std::vector<std::uint8_t> record_trace(const TraceSource& source) {
  const experiment::ScenarioConfig config = resolve_config(source);

  testing::EventStreamHasher hasher;
  experiment::RunHooks hooks;
  hooks.observers.push_back(&hasher);
  SimWorld world(config, hooks);
  hasher.bind(&world.engine());

  TraceFile trace;
  trace.source = source;
  while (!world.done()) {
    world.step();
    trace.records.push_back(observe(world, hasher));
  }
  trace.digest = Digest::of(world.finish());

  std::vector<std::uint8_t> bytes;
  ByteWriter w(bytes);
  TraceFile::io(w, trace);
  return bytes;
}

ReplayReport replay_trace(const std::vector<std::uint8_t>& bytes) {
  TraceFile trace;
  ByteReader r(bytes);
  TraceFile::io(r, trace);
  r.expect_end("trace");

  const experiment::ScenarioConfig config = resolve_config(trace.source);
  testing::EventStreamHasher hasher;
  experiment::RunHooks hooks;
  hooks.observers.push_back(&hasher);
  SimWorld world(config, hooks);
  hasher.bind(&world.engine());

  ReplayReport report;
  const auto diverged = [&](std::string detail) {
    report.detail = std::move(detail);
    report.final_hash = hasher.hash();
    return report;
  };
  for (const StepRecord& recorded : trace.records) {
    if (world.done()) {
      return diverged(util::format(
          "replay converged after %llu steps but the trace has %llu records",
          static_cast<unsigned long long>(report.steps),
          static_cast<unsigned long long>(trace.records.size())));
    }
    world.step();
    ++report.steps;
    std::string diff = diff_records(recorded, observe(world, hasher));
    if (!diff.empty()) return diverged(std::move(diff));
  }
  if (!world.done()) {
    return diverged(util::format("trace ends after %llu steps but the replay has not converged",
                                 static_cast<unsigned long long>(trace.records.size())));
  }
  const Digest replayed = Digest::of(world.finish());
  report.final_hash = hasher.hash();
  report.ok = replayed == trace.digest;
  if (!report.ok) {
    report.detail =
        "final digest recorded=" + trace.digest.describe() + " replayed=" + replayed.describe();
  }
  return report;
}

void write_trace_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw SnapshotError(util::format("cannot open '%s' for writing", path.c_str()));
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw SnapshotError(util::format("short write to '%s'", path.c_str()));
}

std::vector<std::uint8_t> read_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw SnapshotError(util::format("cannot open '%s' for reading", path.c_str()));
  const std::streamsize size = in.tellg();
  in.seekg(0, std::ios::beg);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  if (size > 0 && !in.read(reinterpret_cast<char*>(bytes.data()), size)) {
    throw SnapshotError(util::format("short read from '%s'", path.c_str()));
  }
  return bytes;
}

}  // namespace ivc::serve
