#pragma once

#include <string>
#include <string_view>

#include "exp/sweep.hpp"

/// Canonical JSON codec for exp::SweepPlan: the wire request schema of the
/// selection service's sweep jobs, and a standalone save/replay format for
/// plans.
///
/// The codec covers the *declarative* subset of a plan -- every field that
/// shapes cell results (systems, collectives, series, axes, backend knobs,
/// journal_salt) plus the portable execution knobs (shard width, failure
/// discipline, deadlines). It deliberately excludes what cannot or must not
/// travel:
///
///   * `metric` (Backend::custom) -- an opaque function; serialization throws.
///   * `table` -- tuned series serialize, but the decision table itself stays
///     with the consumer: a service injects its own live table before running
///     (and plan_fingerprint then covers that table's content).
///   * `journal_path`, `cancel`, `progress` -- host-local execution plumbing;
///     the executing side owns them.
///
/// Systems serialize by *profile name* (net::profile_by_name) because a
/// SystemProfile's build lambda cannot travel: serialization verifies the
/// profile actually is the named factory's output (fingerprint match) and
/// throws otherwise. Fault specs ride along in the BINE_FAULT_SPEC syntax
/// (fault::spec_to_string).
///
/// The emission is canonical -- fixed field order, fixed 2-space indentation,
/// %.17g-free (every number in the schema is integral; doubles only appear
/// inside fault spec strings) -- so parse(dump(plan)) -> dump is
/// byte-identical, equal plans serialize byte-identically, and
/// plan_fingerprint survives the round trip. Parsing is strict in the
/// tune/json style: format/version checked first, unknown keys, wrong types,
/// out-of-domain values and trailing garbage all rejected with actionable
/// errors.
namespace bine::exp {

inline constexpr std::string_view kPlanFormat = "bine-sweep-plan";
inline constexpr i64 kPlanVersion = 2;

/// Serialize the plan. Throws std::invalid_argument for plans outside the
/// serializable subset: Backend::custom / a set `metric`, or a system whose
/// profile is not a named factory profile (profile_by_name cannot rebuild
/// it).
[[nodiscard]] std::string plan_to_json(const SweepPlan& plan);

/// Parse + validate a serialized plan. The result carries null `table` /
/// `metric` / `cancel` / `progress` and an empty `journal_path`; a consumer
/// running tuned series injects its table first. Throws std::runtime_error
/// (tune/json parse errors pass through) or std::invalid_argument on
/// malformed input.
[[nodiscard]] SweepPlan plan_from_json(std::string_view text);

}  // namespace bine::exp
