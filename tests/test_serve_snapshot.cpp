// Serve-layer snapshot/restore + trace replay.
//
// Codec-level tests pin the byte format (explicit little-endian, doubles
// as bit patterns, length-prefixed strings, loud truncation); container
// tests pin the versioned envelope (bad magic / version skew / trailing
// garbage are rejected with SnapshotError, never silently accepted);
// world-level tests pin the contract: save is only legal between steps,
// restore refuses a snapshot from a different world, and restore-then-
// continue reproduces the uninterrupted run's digest bit for bit (the
// full 120-seed sweep lives in test_differential_fuzz.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "serve/snapshot.hpp"
#include "serve/trace.hpp"
#include "serve/world.hpp"
#include "testing/diff_runner.hpp"
#include "testing/fuzzer.hpp"

namespace ivc::serve {
namespace {

experiment::ScenarioConfig tiny_config() {
  experiment::ScenarioConfig config;
  config.map.streets = 4;
  config.map.avenues = 3;
  config.mode = experiment::SystemMode::Closed;
  config.volume_pct = 50.0;
  config.vehicles_at_100pct = 40;
  config.num_seeds = 1;
  config.time_limit_minutes = 3.0;
  config.seed = 2014;
  return config;
}

// ---- byte codec -------------------------------------------------------------

TEST(SnapshotCodec, RoundtripsEveryScalarType) {
  std::vector<std::uint8_t> bytes;
  ByteWriter w(bytes);
  w(std::uint8_t{0xab});
  w(std::uint16_t{0xbeef});
  w(std::uint32_t{0xdeadbeefu});
  w(std::uint64_t{0x0123456789abcdefULL});
  w(std::int32_t{-123456789});
  w(std::numeric_limits<std::int64_t>::min());
  w(-0.0);
  w(1.0e308);
  w(std::numeric_limits<double>::quiet_NaN());
  w(true);
  w(false);
  w(std::string("with\0null", 9));
  w(std::string());

  ByteReader r(bytes);
  EXPECT_EQ(r.read<std::uint8_t>(), 0xab);
  EXPECT_EQ(r.read<std::uint16_t>(), 0xbeef);
  EXPECT_EQ(r.read<std::uint32_t>(), 0xdeadbeefu);
  EXPECT_EQ(r.read<std::uint64_t>(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.read<std::int32_t>(), -123456789);
  EXPECT_EQ(r.read<std::int64_t>(), std::numeric_limits<std::int64_t>::min());
  const double neg_zero = r.read<double>();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));  // bit pattern, not value, roundtrips
  EXPECT_EQ(r.read<double>(), 1.0e308);
  EXPECT_TRUE(std::isnan(r.read<double>()));
  EXPECT_TRUE(r.read<bool>());
  EXPECT_FALSE(r.read<bool>());
  EXPECT_EQ(r.read<std::string>(), std::string("with\0null", 9));
  EXPECT_EQ(r.read<std::string>(), "");
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_NO_THROW(r.expect_end("codec"));
}

TEST(SnapshotCodec, ByteOrderIsExplicitLittleEndian) {
  std::vector<std::uint8_t> bytes;
  ByteWriter w(bytes);
  w(std::uint32_t{0x01020304u});
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_EQ(bytes[0], 0x04);
  EXPECT_EQ(bytes[1], 0x03);
  EXPECT_EQ(bytes[2], 0x02);
  EXPECT_EQ(bytes[3], 0x01);
}

TEST(SnapshotCodec, TruncationAndTrailingBytesAreLoud) {
  std::vector<std::uint8_t> bytes;
  ByteWriter w(bytes);
  w(std::uint32_t{7});
  ByteReader short_read(bytes);
  (void)short_read.read<std::uint16_t>();
  EXPECT_THROW((void)short_read.read<std::uint64_t>(), SnapshotError);  // runs past the end

  ByteReader trailing(bytes);
  (void)trailing.read<std::uint16_t>();
  EXPECT_THROW(trailing.expect_end("codec"), SnapshotError);  // 2 bytes left
}

// A length prefix is checked against the bytes left before anything is
// allocated, and a boolean byte must be 0 or 1.
TEST(SnapshotCodec, MalformedPrefixesAndBooleansAreRefused) {
  std::vector<std::uint8_t> bytes;
  ByteWriter w(bytes);
  w(std::uint64_t{1} << 62);
  w(std::uint64_t{0});
  std::vector<std::uint64_t> out;
  ByteReader prefix(bytes);
  EXPECT_THROW(prefix.seq(out), SnapshotError);

  const std::vector<std::uint8_t> two{2};
  ByteReader boolean(two);
  EXPECT_THROW((void)boolean.read<bool>(), SnapshotError);
}

// ---- versioned container ----------------------------------------------------

TEST(SnapshotContainer, SectionsRoundtripThroughBytes) {
  Snapshot snap;
  {
    ByteWriter w(snap.add_section("alpha"));
    w(std::uint64_t{42});
  }
  {
    ByteWriter w(snap.add_section("beta"));
    w(std::string("payload"));
  }
  EXPECT_TRUE(snap.has_section("alpha"));
  EXPECT_FALSE(snap.has_section("gamma"));
  EXPECT_THROW((void)snap.section("gamma"), SnapshotError);

  const Snapshot parsed = Snapshot::from_bytes(snap.to_bytes());
  ASSERT_EQ(parsed.section_count(), 2u);
  ByteReader a(parsed.section("alpha"));
  EXPECT_EQ(a.read<std::uint64_t>(), 42u);
  ByteReader b(parsed.section("beta"));
  EXPECT_EQ(b.read<std::string>(), "payload");
}

TEST(SnapshotContainer, RejectsBadMagic) {
  std::vector<std::uint8_t> bytes;
  ByteWriter w(bytes);
  w(std::uint32_t{0x4b4f4f42u});  // some other file format
  w(Snapshot::kVersion);
  w(Snapshot::kEndianMark);
  w(std::uint32_t{0});
  EXPECT_THROW((void)Snapshot::from_bytes(bytes), SnapshotError);
}

// The version-skew contract: an old-format snapshot is rejected loudly,
// with a message that says what to do — never half-parsed.
TEST(SnapshotContainer, RejectsVersionSkewLoudly) {
  std::vector<std::uint8_t> bytes;
  ByteWriter w(bytes);
  w(Snapshot::kMagic);
  w(Snapshot::kVersion + 1);
  w(Snapshot::kEndianMark);
  w(std::uint32_t{0});
  try {
    (void)Snapshot::from_bytes(bytes);
    FAIL() << "version skew accepted";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("re-record"), std::string::npos) << e.what();
  }
}

// Format v2 dropped the per-vehicle IDM parameters from the engine
// section, so a real v1 world snapshot must be refused by version, with
// both versions named, rather than misread field by field.
TEST(SnapshotContainer, RejectsVersionOneWorldSnapshot) {
  static_assert(Snapshot::kVersion == 2);
  SimWorld world(tiny_config());
  world.step();
  Snapshot snap;
  world.save(snap);
  std::vector<std::uint8_t> bytes = snap.to_bytes();
  ASSERT_NO_THROW((void)Snapshot::from_bytes(bytes));
  bytes[4] = 1;  // the little-endian version word follows the magic
  try {
    (void)Snapshot::from_bytes(bytes);
    FAIL() << "version 1 snapshot accepted";
  } catch (const SnapshotError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version 1 "), std::string::npos) << what;
    EXPECT_NE(what.find("version 2"), std::string::npos) << what;
  }
}

TEST(SnapshotContainer, RejectsTruncatedSectionTable) {
  Snapshot snap;
  ByteWriter w(snap.add_section("alpha"));
  w(std::uint64_t{42});
  const std::vector<std::uint8_t> bytes = snap.to_bytes();
  const std::vector<std::uint8_t> truncated(bytes.begin(), bytes.end() - 3);
  EXPECT_THROW((void)Snapshot::from_bytes(truncated), SnapshotError);
}

// ---- world save/restore -----------------------------------------------------

TEST(SimWorldSnapshot, SaveBeforeFirstStepIsIllegal) {
  // The initial placement's spawn events are still buffered until the
  // first step's flush; a snapshot here would drop them on the floor.
  SimWorld world(tiny_config());
  Snapshot snap;
  EXPECT_THROW(world.save(snap), SnapshotError);
  world.step();
  EXPECT_NO_THROW(world.save(snap));
}

TEST(SimWorldSnapshot, RestoreRefusesSnapshotFromDifferentWorld) {
  SimWorld source(tiny_config());
  source.step();
  Snapshot snap;
  source.save(snap);

  experiment::ScenarioConfig other = tiny_config();
  other.map.streets = 6;  // different topology: every count below differs
  SimWorld target(other, SimWorld::Mode::Restore);
  EXPECT_THROW(target.restore(snap), SnapshotError);
}

TEST(SimWorldSnapshot, RestoreRefusesPatrolMismatch) {
  SimWorld source(tiny_config());
  source.step();
  Snapshot snap;
  source.save(snap);

  experiment::ScenarioConfig with_patrol = tiny_config();
  with_patrol.num_patrol = 1;
  SimWorld target(with_patrol, SimWorld::Mode::Restore);
  EXPECT_THROW(target.restore(snap), SnapshotError);
}

// The class histogram is rebuilt on restore and must agree with the
// serialized population_inside: a snapshot whose counter was patched is
// refused instead of restoring a world whose two truths disagree.
TEST(SimWorldSnapshot, RestoreRefusesPatchedPopulationInside) {
  SimWorld source(tiny_config());
  source.step();
  Snapshot snap;
  source.save(snap);
  {
    SimWorld control(tiny_config(), SimWorld::Mode::Restore);
    ASSERT_NO_THROW(control.restore(snap));
  }

  // Engine section layout: seed, dt, two flags, lookahead, three counts
  // and the stream seed (58 bytes); then now, step, transits, spawned,
  // entry_seq and events (48 bytes); then population_inside as a u64.
  constexpr std::size_t kPopulationOffset = 58 + 48;
  std::vector<std::uint8_t> engine = snap.section("engine");
  std::uint64_t stored = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    stored |= std::uint64_t{engine[kPopulationOffset + i]} << (8 * i);
  }
  ASSERT_EQ(stored, source.engine().population_inside());
  ASSERT_GT(stored, 0u);
  const std::uint64_t patched = stored + 1;
  for (std::size_t i = 0; i < 8; ++i) {
    engine[kPopulationOffset + i] = static_cast<std::uint8_t>(patched >> (8 * i));
  }
  snap.add_section("engine") = engine;
  const Snapshot parsed = Snapshot::from_bytes(snap.to_bytes());

  SimWorld target(tiny_config(), SimWorld::Mode::Restore);
  try {
    target.restore(parsed);
    FAIL() << "snapshot with a patched population_inside restored";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("population_inside"), std::string::npos) << e.what();
  }
}

// ---- pinned format ----------------------------------------------------------

// An open tiny world with one patrol car: the only pinned world that
// writes the demand model's arrival budget and a "patrol" section.
experiment::ScenarioConfig tiny_open_patrol_config() {
  experiment::ScenarioConfig config = tiny_config();
  config.mode = experiment::SystemMode::Open;
  config.num_patrol = 1;
  return config;
}

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

Snapshot save_after(const experiment::ScenarioConfig& config, int steps) {
  SimWorld world(config);
  for (int i = 0; i < steps && !world.done(); ++i) world.step();
  Snapshot snap;
  world.save(snap);
  return snap;
}

struct PinnedSection {
  const char* name;
  std::uint64_t hash;
};

void expect_pinned(const Snapshot& snap, const std::vector<PinnedSection>& pinned) {
  EXPECT_EQ(snap.section_count(), pinned.size());
  for (const PinnedSection& p : pinned) {
    ASSERT_TRUE(snap.has_section(p.name)) << p.name;
    EXPECT_EQ(fnv1a(snap.section(p.name)), p.hash)
        << "section '" << p.name << "' bytes changed: bump Snapshot::kVersion";
  }
}

// The byte format is pinned, not just self-consistent: a codec change
// that alters any section's bytes without a version bump fails here even
// when save and restore still agree with each other.
TEST(SnapshotFormat, ClosedWorldSectionBytesArePinned) {
  expect_pinned(save_after(tiny_config(), 200), {{"engine", 0xabb03ec0a734acf4ULL},
                                                 {"demand", 0xfcd8a8c03daddb01ULL},
                                                 {"protocol", 0xd137aecd8758c5b2ULL},
                                                 {"oracle", 0xac966c955f01339dULL},
                                                 {"world", 0x37dbcf3d306ce419ULL}});
}

TEST(SnapshotFormat, OpenPatrolWorldSectionBytesArePinned) {
  expect_pinned(save_after(tiny_open_patrol_config(), 200),
                {{"engine", 0xc10e5e6c13fe4776ULL},
                 {"demand", 0xa8a6ad80f98db507ULL},
                 {"protocol", 0x42cf4ac6cfd0228aULL},
                 {"oracle", 0xe21a32f4f48e12d7ULL},
                 {"patrol", 0x392209f14dea4c24ULL},
                 {"world", 0x37dbcf3d306ce419ULL}});
}

TEST(SnapshotFormat, TraceBytesArePinned) {
  const std::vector<std::uint8_t> bytes =
      record_trace(TraceSource::fuzz_case(testing::campaign_case_seed(2014, 0)));
  EXPECT_EQ(fnv1a(bytes), 0x589a5dd5d03c80fbULL);
}

// ---- malformed input ----------------------------------------------------------

constexpr std::size_t kHeaderBytes = 16;  // magic, version, endian mark, section count

// Restores `bytes` into a fresh world and steps it 10 steps (every step
// runs every phase over every vehicle). Restore treats the bytes as
// untrusted: it either refuses them with SnapshotError
// (returns true) or yields a world that steps without aborting. Any other
// exception is a test failure.
bool refused_or_runs(const experiment::ScenarioConfig& config,
                     const std::vector<std::uint8_t>& bytes, std::size_t at) {
  try {
    SimWorld world(config, SimWorld::Mode::Restore);
    try {
      world.restore(Snapshot::from_bytes(bytes));
    } catch (const SnapshotError&) {
      return true;
    }
    for (int i = 0; i < 10 && !world.done(); ++i) world.step();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "mutation at byte " << at << " threw " << e.what();
  }
  return false;
}

// Every single-byte corruption (XOR 0xFF) after the header, and every
// small u64 (each length prefix among them) raised to 2^62.
void expect_mutants_refused_or_run(const experiment::ScenarioConfig& config) {
  const std::vector<std::uint8_t> good = save_after(config, 200).to_bytes();
  std::size_t refused = 0;
  std::size_t prefixes = 0;
  for (std::size_t i = kHeaderBytes; i < good.size(); ++i) {
    std::vector<std::uint8_t> bytes = good;
    bytes[i] ^= 0xFF;
    if (refused_or_runs(config, bytes, i)) ++refused;
  }
  for (std::size_t i = kHeaderBytes; i + 8 <= good.size(); ++i) {
    std::uint64_t value = 0;
    for (std::size_t b = 0; b < 8; ++b) value |= std::uint64_t{good[i + b]} << (8 * b);
    if (value >= (1u << 16)) continue;
    std::vector<std::uint8_t> bytes = good;
    for (std::size_t b = 0; b < 8; ++b) bytes[i + b] = b == 7 ? 0x40 : 0x00;  // 2^62
    ++prefixes;
    if (refused_or_runs(config, bytes, i)) ++refused;
  }
  EXPECT_GT(prefixes, 0u);
  EXPECT_GT(refused, good.size() / 10);
}

TEST(SnapshotMalformed, ClosedWorldMutantsAreRefusedOrRun) {
  expect_mutants_refused_or_run(tiny_config());
}

TEST(SnapshotMalformed, OpenPatrolWorldMutantsAreRefusedOrRun) {
  expect_mutants_refused_or_run(tiny_open_patrol_config());
}

TEST(SimWorldSnapshot, RoundtripReproducesUninterruptedRunBitExact) {
  const testing::DiffResult diff = testing::diff_config_snapshot(tiny_config(), 7);
  EXPECT_TRUE(diff.match) << diff.summary << "\n  divergence: " << diff.divergence;
  EXPECT_GT(diff.fast.steps, 7u);
}

std::size_t cached_next_edges(const SimWorld& world) {
  const traffic::SimEngine& engine = world.engine();
  std::size_t cached = 0;
  for (const traffic::VehicleId id : engine.alive_vehicles()) {
    if (engine.store().next_edge[id.slot()].valid()) ++cached;
  }
  return cached;
}

// The hot next-edge column is a memo, not state: restore leaves it unset.
// Rewinding a world whose front vehicles have cached next edges since the
// snapshot was taken must continue exactly as the uninterrupted run.
TEST(SimWorldSnapshot, RestoreOverCachedNextEdgesContinuesBitExact) {
  SimWorld original(tiny_config());
  for (int i = 0; i < 7; ++i) original.step();
  ASSERT_GT(cached_next_edges(original), 0u);
  Snapshot at_cut;
  original.save(at_cut);

  SimWorld rewound(tiny_config(), SimWorld::Mode::Restore);
  rewound.restore(at_cut);
  EXPECT_EQ(cached_next_edges(rewound), 0u);
  for (int i = 0; i < 40 && !rewound.done(); ++i) rewound.step();
  ASSERT_GT(cached_next_edges(rewound), 0u);
  rewound.restore(at_cut);
  EXPECT_EQ(cached_next_edges(rewound), 0u);

  for (int i = 0; i < 120 && !original.done(); ++i) {
    original.step();
    rewound.step();
  }
  Snapshot a;
  Snapshot b;
  original.save(a);
  rewound.save(b);
  EXPECT_EQ(a.to_bytes(), b.to_bytes());
}

// ---- traces -----------------------------------------------------------------

TEST(TraceReplay, RecordedTraceReplaysCleanly) {
  const TraceSource source = TraceSource::fuzz_case(testing::campaign_case_seed(2014, 0));
  const std::vector<std::uint8_t> bytes = record_trace(source);
  const ReplayReport report = replay_trace(bytes);
  EXPECT_TRUE(report.ok) << report.detail;
  EXPECT_GT(report.steps, 0u);
  EXPECT_NE(report.final_hash, 0u);
}

TEST(TraceReplay, TamperedTraceReportsFirstDivergentStep) {
  const TraceSource source = TraceSource::fuzz_case(testing::campaign_case_seed(2014, 1));
  std::vector<std::uint8_t> bytes = record_trace(source);
  bytes[bytes.size() / 2] ^= 0x01;  // flip one bit inside the step records
  const ReplayReport report = replay_trace(bytes);
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(report.detail.empty());
}

TEST(TraceReplay, RejectsVersionSkew) {
  const TraceSource source = TraceSource::fuzz_case(testing::campaign_case_seed(2014, 2));
  std::vector<std::uint8_t> bytes = record_trace(source);
  bytes[4] ^= 0xff;  // the version word follows the magic
  EXPECT_THROW((void)replay_trace(bytes), SnapshotError);
}

// The trace's thread override sizes the engine's worker team, so replay
// refuses one the machine cannot run before building any world.
TEST(TraceReplay, RefusesThreadCountBeyondTheMachine) {
  const int too_many = static_cast<int>(std::max(1u, std::thread::hardware_concurrency())) + 1;
  const std::uint64_t seed = testing::campaign_case_seed(2014, 0);
  EXPECT_THROW((void)record_trace(TraceSource::fuzz_case(seed, too_many)), SnapshotError);

  const std::vector<std::uint8_t> good = record_trace(TraceSource::fuzz_case(seed));
  // Header (12 bytes), source kind (1), empty name (4), scale (1) and case
  // seed (8); the i32 thread override follows.
  constexpr std::size_t kThreadsOffset = 26;
  ASSERT_EQ(good[kThreadsOffset], 0xff);  // -1: keep the case's own
  for (const int threads : {too_many, -2}) {
    std::vector<std::uint8_t> bytes = good;
    for (std::size_t b = 0; b < 4; ++b) {
      const auto word = static_cast<std::uint32_t>(threads);
      bytes[kThreadsOffset + b] = static_cast<std::uint8_t>(word >> (8 * b));
    }
    EXPECT_THROW((void)replay_trace(bytes), SnapshotError) << threads;
  }
}

// ivc_serve's --readers/--threads bounds share the trace's machine rule.
// Small values only: the check must refuse before any thread starts, so
// nothing here may ask for a real thread count.
TEST(TraceReplay, ThreadFlagBoundsAreInclusive) {
  EXPECT_EQ(thread_flag_error("--readers", 1, 1, 2), "");
  EXPECT_EQ(thread_flag_error("--readers", 2, 1, 2), "");
  EXPECT_NE(thread_flag_error("--readers", 3, 1, 2), "");
  EXPECT_NE(thread_flag_error("--readers", 0, 1, 2), "");
  EXPECT_NE(thread_flag_error("--readers", -1, 1, 2), "");
  EXPECT_EQ(thread_flag_error("--threads", -1, -1, 2), "");
  EXPECT_NE(thread_flag_error("--threads", -3, -1, 2), "");
  EXPECT_NE(thread_flag_error("--threads", 3, -1, 2).find("--threads 3"), std::string::npos);
  EXPECT_GE(max_threads(), 1);
}

}  // namespace
}  // namespace ivc::serve
