#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "sched/blocks.hpp"

/// The schedule intermediate representation.
///
/// Every collective algorithm in this library -- Bine or baseline -- is a
/// *schedule generator*: a pure function producing, for each rank, a sequence
/// of synchronized steps of send/recv/local operations over logical blocks.
/// One schedule serves two consumers:
///   * runtime::Executor runs it over real buffers and verifies semantics;
///   * net::simulate lays it onto a topology model for traffic/time.
/// This type stays optimized for *generation* (per-rank append, BlockSet
/// bookkeeping). Hot loops consume the flat size-free IR compiled from it,
/// sched::SizeFreeSchedule (schedule_cache.hpp); the scalar simulation
/// oracle walks this nested form directly, in the canonical op order that
/// `for_each_lowered_op` below defines for both.
///
/// Size independence, by construction: an op carries no byte count. Its
/// bytes are a derived view (`op_bytes`) -- its blocks' share of the vector
/// via `bytes_of`'s block arithmetic, or the whole vector for a local_perm --
/// so the *structure* of every schedule (steps, peers, block sets, segment
/// counts) is a pure function of (algorithm, p, root, torus_dims), and
/// `elem_count`/`elem_size` only size the view. sched::ScheduleCache
/// (schedule_cache.hpp) builds on this: one cached structure serves every
/// message size of a sweep, with bytes resolved per size by the same
/// arithmetic. Generators never read the vector size (coll::make_base copies
/// it onto the schedule; the test_generators_size_free lint keeps every
/// other file under src/coll/ from naming it).
///
/// Block-range storage lives in a per-schedule ScheduleArena (blocks.hpp):
/// `Op::blocks` values point into it (or hold tiny sets inline), so the
/// schedule must not outlive its arena -- which `arena_` guarantees for the
/// normal value-semantics usage, including splicing via coll::sequence
/// (which retains the donor arena).
namespace bine::sched {

enum class Collective {
  bcast,
  reduce,
  gather,
  scatter,
  allgather,
  reduce_scatter,
  allreduce,
  alltoall,
};

[[nodiscard]] constexpr const char* to_string(Collective c) noexcept {
  switch (c) {
    case Collective::bcast: return "bcast";
    case Collective::reduce: return "reduce";
    case Collective::gather: return "gather";
    case Collective::scatter: return "scatter";
    case Collective::allgather: return "allgather";
    case Collective::reduce_scatter: return "reduce_scatter";
    case Collective::allreduce: return "allreduce";
    case Collective::alltoall: return "alltoall";
  }
  return "?";
}

/// How logical block ids map onto data.
enum class BlockSpace {
  /// B blocks shared across ranks: block b always means element range b of
  /// *the* vector (bcast/reduce/scatter/gather/allgather/... semantics).
  per_vector,
  /// p*p blocks: id s*p + d is the data rank s sends to rank d (alltoall).
  pairwise,
};

enum class OpKind : std::uint8_t {
  send,        ///< transmit blocks to `peer`
  recv,        ///< receive blocks from `peer`, replacing slot contents
  recv_reduce, ///< receive blocks from `peer`, folding into slots with the op
  local_perm,  ///< local buffer shuffle (costs memory bandwidth, moves no bytes on wires)
};

/// `Op::exchange` of ops no Schedule::add_exchange call built.
inline constexpr std::uint32_t kNoExchange = 0xffffffffu;

/// One operation of one rank within one step.
struct Op {
  OpKind kind = OpKind::send;
  /// Id of the add_exchange call that built this send or receive, shared by
  /// both halves (kNoExchange for local ops and ops built by hand). It sits
  /// in the padding after `kind`, so it costs no space. SizeFreeSchedule::from
  /// pairs each receive with its send through it.
  std::uint32_t exchange = kNoExchange;
  Rank peer = -1;      ///< counterpart rank (unused for local_perm)
  BlockSet blocks;     ///< logical block ids (empty for local_perm)
  i64 segments = 1;    ///< contiguous memory segments touched by this op
};

/// All ops a rank performs in one synchronized step. Sends and receives in
/// the same step proceed concurrently (sendrecv exchange).
struct RankStep {
  std::vector<Op> ops;
};

struct Schedule {
  Collective coll{};
  std::string algorithm;  ///< generator name, e.g. "bine_dh_tree"
  i64 p = 0;              ///< number of ranks
  i64 nblocks = 0;        ///< number of logical blocks (p*p for pairwise)
  BlockSpace space = BlockSpace::per_vector;
  i64 elem_count = 0;     ///< vector length (elements, per the collective's convention)
  i64 elem_size = 4;      ///< bytes per element
  Rank root = 0;          ///< for rooted collectives
  /// steps[rank][step]
  std::vector<std::vector<RankStep>> steps;
  /// Exchange ids handed out so far: add_exchange stamps the next one on
  /// both ops it appends, and coll::sequence offsets a donor's ids past it.
  std::uint32_t num_exchanges = 0;

  /// Number of synchronized steps: the max over ranks, so a ragged schedule
  /// (one that missed normalize_steps()) can never be silently
  /// under-simulated. validate() still rejects ragged schedules outright;
  /// consumers that index steps[r][t] must bound t by steps[r].size().
  [[nodiscard]] size_t num_steps() const noexcept {
    size_t n = 0;
    for (const auto& rank_steps : steps) n = std::max(n, rank_steps.size());
    return n;
  }

  /// Bytes covered by a block set under this schedule's vector config.
  [[nodiscard]] i64 bytes_of(const BlockSet& set) const {
    return set.elem_count(total_elems(), nblocks) * elem_size;
  }

  /// Total elements across the block space (pairwise: p vectors of elem_count).
  [[nodiscard]] i64 total_elems() const noexcept {
    return space == BlockSpace::pairwise ? elem_count * p : elem_count;
  }

  /// Bytes `op` moves: wire bytes for send/recv ops, bytes shuffled in memory
  /// for local_perm (always the whole vector). The only source of byte counts.
  [[nodiscard]] i64 op_bytes(const Op& op) const {
    return op.kind == OpKind::local_perm ? total_elems() * elem_size : bytes_of(op.blocks);
  }

  /// Append a matched send/recv pair at `step`, both stamped with the
  /// exchange id `num_exchanges` (then incremented). Only `from`'s and
  /// `to`'s step vectors grow, so the schedule stays ragged until
  /// normalize_steps(), which every generator calls last. `segments`
  /// overrides the memory-contiguity estimate derived from the block set
  /// (-1 = derive): strategies that pack (Permute/Send) force 1, strategies
  /// that issue per-block sends force the block count.
  void add_exchange(size_t step, Rank from, Rank to, BlockSet blocks, bool reduce,
                    i64 segments = -1);

  /// Append a one-sided op (local_perm over the whole vector); grows only
  /// `r`'s step vector.
  void add_local(size_t step, Rank r, i64 segs);

  /// Ensure all ranks have the same number of steps (pad with empty).
  void normalize_steps();

  /// Sum of wire bytes over all sends.
  [[nodiscard]] i64 total_wire_bytes() const;

  /// Structural validation: every send has a matching recv in the same step
  /// with the same blocks, peers are in range, block ids valid.
  /// Returns an empty string when valid, else a description of the problem.
  [[nodiscard]] std::string validate() const;

  /// Arena backing this schedule's BlockSet range storage (created lazily;
  /// shared so copies of the schedule keep the spans alive).
  [[nodiscard]] ScheduleArena& arena() {
    if (!arena_) arena_ = std::make_shared<ScheduleArena>();
    return *arena_;
  }
  [[nodiscard]] std::shared_ptr<const ScheduleArena> arena_handle() const {
    return arena_;
  }
  /// Keep `donor`'s arena alive: required before splicing its ops in.
  /// Rebases this schedule onto a fresh arena that retains both the previous
  /// one and the donor's, so an arena shared with another schedule (e.g.
  /// after copy) is never mutated and retention edges always point from
  /// newer arenas to older ones -- no cycles, no unbounded growth of a
  /// long-lived base schedule's arena.
  void retain_arena_of(const Schedule& donor) {
    auto fresh = std::make_shared<ScheduleArena>();
    fresh->retain(std::move(arena_));
    fresh->retain(donor.arena_);
    arena_ = std::move(fresh);
  }

 private:
  std::shared_ptr<ScheduleArena> arena_;
};

/// Visit every op of `s` in the canonical flat order: step-major, ranks
/// increasing within a step, original per-rank op order, ragged ranks
/// contributing nothing past their last step. Calls `op(rank, o)` per op and
/// `step_end(t)` after each step. This is the one definition of IR order,
/// shared by SizeFreeSchedule::from (its simulation stream and the
/// execution overlay runtime::ExecPlan::lower goes through) and the scalar
/// simulation oracle over a Schedule.
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

/// The simulation order: the canonical order above with plain recvs dropped
/// (cost-free in the model). SizeFreeSchedule::from's simulation stream and
/// the scalar oracle both walk it, so the two visit identical op sequences.
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

/// The cost model's segment term, max(0, segments - 1), in one place for
/// the same reason.
[[nodiscard]] inline std::int32_t lowered_extra_segments(const Op& op) noexcept {
  return static_cast<std::int32_t>(std::max<i64>(0, op.segments - 1));
}

}  // namespace bine::sched
