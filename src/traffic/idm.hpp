// Intelligent Driver Model (Treiber et al.) car-following.
//
// Substitute for SUMO's default Krauss model: both are collision-free
// single-lane followers; IDM is smooth under a plain Euler update, which is
// what the engine uses at dt = 0.5 s.
//
// The acceleration exponent is fixed at the model's standard δ = 4 and the
// free-road term is computed as r²·r² rather than through std::pow (within
// 4 ulp of std::pow(r, 4.0); test_traffic_idm.cpp pins the bound). Every
// vehicle drives with the same engine-wide parameters (kEngineIdm): no
// per-vehicle envelope is stored, and the engine's kernels read the
// constexpr value so the compiler folds its derived constants.
#pragma once

#include <algorithm>
#include <cmath>

namespace ivc::traffic {

struct IdmParams {
  double max_accel = 1.8;     // a: maximum acceleration (m/s^2)
  double comfort_decel = 2.5; // b: comfortable braking deceleration (m/s^2)
  double headway = 1.1;       // T: desired time headway (s)
  double min_gap = 2.0;       // s0: standstill jam distance (m)
};

// The parameters every vehicle in the engine drives with.
inline constexpr IdmParams kEngineIdm{};

// (v/v0)^δ for δ = 4, speeds clamped as the free-road term needs them.
[[nodiscard]] inline double idm_speed_ratio_pow4(double v, double v0) {
  const double r = std::max(v, 0.0) / std::max(v0, 0.1);
  const double r2 = r * r;
  return r2 * r2;
}

// Acceleration for a vehicle at speed v with desired speed v0, following a
// leader at relative speed dv = v - v_leader across a (bumper-to-bumper)
// gap. Pass gap = +inf for free road.
[[nodiscard]] inline double idm_acceleration(double v, double v0, double gap, double dv,
                                             const IdmParams& p) {
  const double free_term = 1.0 - idm_speed_ratio_pow4(v, v0);
  if (!std::isfinite(gap)) return p.max_accel * free_term;
  const double s_star =
      p.min_gap + std::max(0.0, v * p.headway +
                                    v * dv / (2.0 * std::sqrt(p.max_accel * p.comfort_decel)));
  const double interaction = s_star / std::max(gap, 0.1);
  return p.max_accel * (free_term - interaction * interaction);
}

}  // namespace ivc::traffic
