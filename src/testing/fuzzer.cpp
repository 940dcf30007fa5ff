#include "testing/fuzzer.hpp"

#include <algorithm>

#include "roadnet/zoo.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"

namespace ivc::testing {

namespace {

// Shrink byte layout: bits 0-1 length halvings, bit 2 demand, bits 3-4
// scale steps (within the top byte of the case seed).
constexpr std::uint64_t kLengthMask = 0x3;
constexpr std::uint64_t kDemandBit = 0x4;
constexpr std::uint64_t kScaleShift = 3;
constexpr std::uint64_t kScaleMask = 0x3;

int shrink_int(int value, int step_size, int steps, int floor) {
  return std::max(floor, value - step_size * steps);
}

}  // namespace

std::string ShrinkSpec::describe() const {
  if (!any()) return "none";
  std::string s;
  if (length_halvings > 0) s += util::format("L%d", length_halvings);
  if (halve_demand) {
    if (!s.empty()) s += "+";
    s += "D";
  }
  if (scale_steps > 0) {
    if (!s.empty()) s += "+";
    s += util::format("S%d", scale_steps);
  }
  return s;
}

std::uint64_t pack_shrink(const ShrinkSpec& spec) {
  const std::uint64_t byte =
      (static_cast<std::uint64_t>(spec.length_halvings) & kLengthMask) |
      (spec.halve_demand ? kDemandBit : 0) |
      ((static_cast<std::uint64_t>(spec.scale_steps) & kScaleMask) << kScaleShift);
  return byte << kShrinkShift;
}

ShrinkSpec unpack_shrink(std::uint64_t case_seed) {
  const std::uint64_t byte = case_seed >> kShrinkShift;
  ShrinkSpec spec;
  spec.length_halvings = static_cast<int>(byte & kLengthMask);
  spec.halve_demand = (byte & kDemandBit) != 0;
  spec.scale_steps = static_cast<int>((byte >> kScaleShift) & kScaleMask);
  return spec;
}

std::uint64_t with_shrink(std::uint64_t case_seed, const ShrinkSpec& spec) {
  return (case_seed & kBaseSeedMask) | pack_shrink(spec);
}

std::uint64_t campaign_case_seed(std::uint64_t campaign_seed, std::uint64_t index) {
  return util::derive_seed(campaign_seed, index) & kBaseSeedMask;
}

FuzzCase make_fuzz_case(std::uint64_t case_seed) {
  FuzzCase fc;
  fc.case_seed = case_seed;
  fc.shrink = unpack_shrink(case_seed);
  const std::uint64_t base = case_seed & kBaseSeedMask;
  const int scale_steps = fc.shrink.scale_steps;
  util::Rng rng(util::derive_seed(base, "fuzz-case"));

  experiment::ScenarioConfig& c = fc.config;
  std::string topo;

  // --- topology ---------------------------------------------------------------
  // All zoo generators validate strong connectivity, so every draw below is
  // a legal map; shrink steps reduce toward each family's smallest size.
  switch (rng.uniform_index(5)) {
    case 0: {  // Manhattan grid (the paper's map, randomized)
      c.map.streets = shrink_int(static_cast<int>(rng.uniform_int(4, 8)), 2, scale_steps, 3);
      c.map.avenues = shrink_int(static_cast<int>(rng.uniform_int(3, 6)), 1, scale_steps, 3);
      c.map.two_way_every = static_cast<int>(rng.uniform_int(2, 4));
      c.map.with_roundabout = rng.bernoulli(0.5);
      c.gateway_stride = static_cast<int>(rng.uniform_int(1, 3));
      topo = util::format("manhattan(%dx%d,tw%d%s)", c.map.streets, c.map.avenues,
                          c.map.two_way_every, c.map.with_roundabout ? ",rb" : "");
      break;
    }
    case 1: {  // ring/radial city
      roadnet::RingRadialConfig map;
      map.rings = shrink_int(static_cast<int>(rng.uniform_int(2, 3)), 1, scale_steps, 2);
      map.spokes = shrink_int(static_cast<int>(rng.uniform_int(5, 8)), 2, scale_steps, 4);
      map.roundabout_center = rng.bernoulli(0.6);
      map.one_way_rings = rng.bernoulli(0.3);
      c.map_name = "ring-radial";
      c.gateway_stride = static_cast<int>(rng.uniform_int(2, 3));
      c.map_factory = [map](int stride) {
        auto m = map;
        m.gateway_stride = stride;
        return roadnet::make_ring_radial(m);
      };
      topo = util::format("ring-radial(r%d,s%d%s%s)", map.rings, map.spokes,
                          map.roundabout_center ? ",rb" : "", map.one_way_rings ? ",ow" : "");
      break;
    }
    case 2: {  // highway corridor
      roadnet::HighwayConfig map;
      map.interchanges = shrink_int(static_cast<int>(rng.uniform_int(3, 6)), 1, scale_steps, 3);
      map.link_every = static_cast<int>(rng.uniform_int(1, 2));
      map.mainline_lanes = static_cast<int>(rng.uniform_int(2, 3));
      c.map_name = "highway-corridor";
      c.gateway_stride = 1;
      c.map_factory = [map](int stride) {
        auto m = map;
        m.gateway_stride = stride;
        return roadnet::make_highway_corridor(m);
      };
      topo = util::format("highway(i%d,l%d,ml%d)", map.interchanges, map.link_every,
                          map.mainline_lanes);
      break;
    }
    case 3: {  // roundabout town
      roadnet::RoundaboutTownConfig map;
      map.rows = shrink_int(static_cast<int>(rng.uniform_int(3, 5)), 1, scale_steps, 2);
      map.cols = shrink_int(static_cast<int>(rng.uniform_int(3, 5)), 1, scale_steps, 2);
      map.roundabout_stride = static_cast<int>(rng.uniform_int(1, 2));
      c.map_name = "roundabout-town";
      c.gateway_stride = static_cast<int>(rng.uniform_int(2, 4));
      c.map_factory = [map](int stride) {
        auto m = map;
        m.gateway_stride = stride;
        return roadnet::make_roundabout_town(m);
      };
      topo = util::format("roundabout(%dx%d,rs%d)", map.rows, map.cols, map.roundabout_stride);
      break;
    }
    default: {  // random web — the adversarial end of the zoo
      roadnet::RandomWebConfig map;
      map.nodes = shrink_int(static_cast<int>(rng.uniform_int(12, 28)), 6, scale_steps, 8);
      map.extra_edge_factor = rng.uniform(1.0, 2.0);
      map.two_way_fraction = rng.uniform(0.2, 0.8);
      map.lanes = static_cast<int>(rng.uniform_int(1, 2));
      map.seed = rng.next();
      c.map_name = "random-web";
      c.gateway_stride = static_cast<int>(rng.uniform_int(4, 8));
      c.map_factory = [map](int stride) {
        auto m = map;
        m.gateway_stride = stride;
        return roadnet::make_random_web(m);
      };
      topo = util::format("web(n%d,x%.2f,tw%.2f,ln%d,seed=%llx)", map.nodes,
                          map.extra_edge_factor, map.two_way_fraction, map.lanes,
                          static_cast<unsigned long long>(map.seed));
      break;
    }
  }

  // --- mode + demand ----------------------------------------------------------
  c.mode = rng.bernoulli(0.45) ? experiment::SystemMode::Open
                               : experiment::SystemMode::Closed;
  c.volume_pct = static_cast<double>(rng.uniform_int(10, 100));
  c.vehicles_at_100pct = static_cast<std::size_t>(rng.uniform_int(30, 120));
  c.arrival_rate_at_100pct = rng.uniform(0.1, 0.6);
  if (fc.shrink.halve_demand) {
    c.vehicles_at_100pct = std::max<std::size_t>(8, c.vehicles_at_100pct / 2);
    c.arrival_rate_at_100pct *= 0.5;
  }

  // --- protocol ---------------------------------------------------------------
  c.num_seeds = static_cast<int>(rng.uniform_int(1, 4));
  c.num_patrol = rng.bernoulli(0.5) ? static_cast<std::size_t>(rng.uniform_int(1, 2)) : 0;
  // A quarter of cases run the lossless channel of Alg. 1 (the strict
  // exactly-once regime); the rest sweep the lossy range up to 0.9 — far
  // past the paper's 30% operating point, into the regime where probe-based
  // estimators degrade and exactness is hardest to keep.
  c.protocol.channel_loss = rng.bernoulli(0.25) ? 0.0 : rng.uniform(0.0, 0.9);
  c.protocol.collection = rng.bernoulli(0.8);

  // --- simulation toggles + run length ---------------------------------------
  c.sim.allow_lane_change = rng.bernoulli(0.85);
  c.sim.multi_admission = rng.bernoulli(0.85);
  c.time_limit_minutes = static_cast<double>(rng.uniform_int(15, 60));
  for (int i = 0; i < fc.shrink.length_halvings; ++i) c.time_limit_minutes /= 2.0;
  c.time_limit_minutes = std::max(2.0, c.time_limit_minutes);

  // Engine thread count: 1, 2 or hardware concurrency (0). Worlds step
  // serially at every value, but the draw stays: it is part of every case
  // seed's derivation, so dropping it would move every generated case,
  // summary and pinned fuzz trace.
  switch (rng.uniform_index(3)) {
    case 0: c.sim.threads = 1; break;
    case 1: c.sim.threads = 2; break;
    default: c.sim.threads = 0; break;
  }

  c.seed = util::derive_seed(base, "fuzz-replica");

  fc.summary = util::format(
      "case=0x%llx topo=%s mode=%s vol=%.0f%% n100=%zu arr=%.2f seeds=%d patrol=%zu "
      "loss=%.0f%% coll=%d lc=%d ma=%d thr=%d limit=%.1fmin shrink=%s",
      static_cast<unsigned long long>(case_seed), topo.c_str(),
      c.mode == experiment::SystemMode::Open ? "open" : "closed", c.volume_pct,
      c.vehicles_at_100pct, c.arrival_rate_at_100pct, c.num_seeds, c.num_patrol,
      c.protocol.channel_loss * 100.0, c.protocol.collection ? 1 : 0,
      c.sim.allow_lane_change ? 1 : 0, c.sim.multi_admission ? 1 : 0, c.sim.threads,
      c.time_limit_minutes, fc.shrink.describe().c_str());
  return fc;
}

}  // namespace ivc::testing
