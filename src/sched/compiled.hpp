#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sched/schedule.hpp"

/// Flat schedule IR for the simulator hot path.
///
/// `Schedule` is built for generation and execution: per-rank vectors of
/// steps of `Op`s carrying full `BlockSet`s. The cost model needs none of
/// that structure -- only (step, rank, kind, peer, bytes, segments) -- so
/// `CompiledSchedule::lower()` flattens the nested representation once into
/// contiguous structure-of-arrays storage the simulator streams through:
///
///   * `bytes` is the one size-dependent column: `Schedule::op_bytes`
///     derives it from each op's blocks (ops carry no byte count), the same
///     arithmetic SizeFreeSchedule::resolve_into runs per message size;
///   * ops are sorted by (step, rank, original op order) and indexed by a
///     per-step CSR range, so one pass over a step touches memory linearly;
///   * `extra_segments` pre-computes max(0, segments - 1), the only form the
///     cost model ever uses;
///   * plain `recv` ops are dropped entirely: the cost model charges message
///     latency on the sender side and a recv moves no wire bytes, so they
///     would only dilute the op stream (recv_reduce is kept -- it costs
///     reduction bandwidth);
///   * ragged schedules (ranks with differing step counts) lower correctly:
///     missing trailing steps contribute no ops.
///
/// Column storage is exposed as read-only spans. On the `lower`/`lower_into`
/// path they point at the schedule's own arrays (`own`); on the
/// `SizeFreeSchedule::resolve_into` path every size-invariant column aliases
/// the shared cache entry directly (kept alive via `keepalive`) and only the
/// `bytes` column -- the one thing message size changes -- is materialized.
/// That makes a cache-hit resolve O(bytes column), not O(all columns).
///
/// Because the spans may alias `own`, a CompiledSchedule is movable but not
/// copyable (a copy would leave the new spans aliasing the old storage).
///
/// Lowering costs one traversal of the schedule and is amortized across the
/// simulator's per-step work; `net::simulate`/`net::measure_traffic` consume
/// this IR together with a `net::RouteCache` (see route_cache.hpp).
///
/// Sweeps rarely call `lower` at all any more: sched::ScheduleCache
/// (schedule_cache.hpp) memoizes the size-independent part of this IR per
/// (algorithm, collective, p, knobs) and re-materializes the `bytes` column
/// per message size, skipping generation and lowering for every cache hit.
/// The runtime executor consumes the same cached artifact through its own
/// flat IR, runtime::ExecPlan (runtime/exec_plan.hpp) -- see DESIGN.md for
/// the full pipeline.
namespace bine::sched {

struct CompiledSchedule {
  i64 p = 0;
  size_t steps = 0;

  /// CSR over the op arrays: ops of step t are [step_begin[t], step_begin[t+1]).
  std::span<const std::uint32_t> step_begin;

  // One entry per op, sorted by (step, issuing rank, op order within rank).
  std::span<const OpKind> kind;
  std::span<const std::int32_t> rank;   ///< issuing rank
  std::span<const std::int32_t> peer;   ///< peer rank (-1 for local_perm)
  std::span<const i64> bytes;           ///< wire bytes (local_perm: bytes moved)
  std::span<const std::int32_t> extra_segments;  ///< max(0, segments - 1)

  CompiledSchedule() = default;
  CompiledSchedule(CompiledSchedule&&) noexcept = default;
  CompiledSchedule& operator=(CompiledSchedule&&) noexcept = default;
  CompiledSchedule(const CompiledSchedule&) = delete;
  CompiledSchedule& operator=(const CompiledSchedule&) = delete;

  [[nodiscard]] size_t num_ops() const noexcept { return kind.size(); }

  /// Flatten `s` into SoA form. Pure; does not require normalized steps.
  [[nodiscard]] static CompiledSchedule lower(const Schedule& s);

  /// Flatten `s` into `out`, reusing out's array capacity. Sweeps lower one
  /// schedule per simulation, and for large schedules the SoA arrays cross
  /// glibc's mmap threshold -- re-allocating them per cell costs more kernel
  /// page-fault time than the lowering itself. Keep one scratch
  /// CompiledSchedule per worker and the arrays stay resident.
  static void lower_into(const Schedule& s, CompiledSchedule& out);

  /// Owned backing storage. `lower_into` fills every array; `resolve_into`
  /// fills only `bytes` (the rest alias the cache entry through `keepalive`).
  struct Storage {
    std::vector<std::uint32_t> step_begin;
    std::vector<OpKind> kind;
    std::vector<std::int32_t> rank;
    std::vector<std::int32_t> peer;
    std::vector<i64> bytes;
    std::vector<std::int32_t> extra_segments;
  } own;
  /// Keeps span targets alive when columns alias a shared cache entry.
  std::shared_ptr<const void> keepalive;
};

/// Visit every op of `s` in the canonical flat order: step-major, ranks
/// increasing within a step, original per-rank op order, ragged ranks
/// contributing nothing past their last step. Calls `op(rank, o)` per op and
/// `step_end(t)` after each step. This is the one definition of IR order,
/// shared by the simulation lowering below and the execution-overlay build in
/// SizeFreeSchedule::from (which runtime::ExecPlan::lower goes through).
template <class OpFn, class StepEndFn>
void for_each_op_step_major(const Schedule& s, size_t steps, OpFn&& op,
                            StepEndFn&& step_end) {
  for (size_t t = 0; t < steps; ++t) {
    for (Rank r = 0; r < s.p; ++r) {
      const auto& rank_steps = s.steps[static_cast<size_t>(r)];
      if (t >= rank_steps.size()) continue;
      for (const Op& o : rank_steps[t].ops) op(r, o);
    }
    step_end(t);
  }
}

/// The simulation lowering order: the canonical order above with plain recvs
/// dropped (cost-free in the model). SizeFreeSchedule::from routes ops
/// through the same filter so its cached IR is indistinguishable from a
/// fresh lower.
template <class OpFn, class StepEndFn>
void for_each_lowered_op(const Schedule& s, size_t steps, OpFn&& op,
                         StepEndFn&& step_end) {
  for_each_op_step_major(
      s, steps,
      [&](Rank r, const Op& o) {
        if (o.kind == OpKind::recv) return;
        op(r, o);
      },
      step_end);
}

/// The `extra_segments` column's formula, in one place for the same reason.
[[nodiscard]] inline std::int32_t lowered_extra_segments(const Op& op) noexcept {
  return static_cast<std::int32_t>(std::max<i64>(0, op.segments - 1));
}

}  // namespace bine::sched
