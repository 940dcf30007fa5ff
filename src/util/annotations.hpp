// Determinism contract markers, read by `tools/ivc_lint`.
//
// The repo's exactness guarantees (bit-identical event streams, exact
// per-checkpoint counts) rest on invariants that a compiler cannot see,
// such as which iteration orders feed the event stream. These macros mark
// the sites where a rule is deliberately waived, with the reason; the
// literal macro name in the source is what `tools/ivc_lint` keys on.
//
// Rules enforced over `src/` (see tools/ivc_lint and the README section
// "Static analysis & determinism invariants"):
//   R1  no ad-hoc randomness (std::mt19937, rand, std::random_device)
//       outside util/rng, no raw clock reads outside util/perf;
//   R2  no iteration over std::unordered_map/set without an explicit
//       IVC_ORDER_EXEMPT justification;
//   R4  no direct VehicleStore hot-array indexing outside src/traffic/.
#pragma once

// Statement-level exemption for rule R2: the following iteration over an
// unordered container is deliberate and order-insensitive (e.g. a
// commutative reduction). The justification must be a non-empty string —
// enforced both here (sizeof of an empty literal is 1) and by the lint,
// so an exemption can never silently lose its rationale.
#define IVC_ORDER_EXEMPT(why) \
  static_assert(sizeof(why) > 1, "IVC_ORDER_EXEMPT requires a non-empty justification")

// Site-level exemption for any rule: silences `rule` (R1, R2 or R4)
// findings on this line and the next. Use sparingly — every allow is an invariant the
// tools can no longer check; the justification string must say why the
// site is safe, not what it does.
#define IVC_LINT_ALLOW(rule, why) \
  static_assert(sizeof(why) > 1, "IVC_LINT_ALLOW requires a non-empty justification")
