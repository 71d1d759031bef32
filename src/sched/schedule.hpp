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
/// *schedule generator*: a pure function producing a sequence of
/// synchronized steps in which ranks exchange logical blocks. One schedule
/// serves two consumers:
///   * runtime::Executor runs it over real buffers and verifies semantics;
///   * net::simulate lays it onto a topology model for traffic/time.
///
/// A Schedule is a flat *exchange log*: each add_exchange call is stored
/// once (step, from, to, reduce, segments, blocks) and each add_local call
/// in a side column. The receive half of an exchange is implied, never
/// stored, so every send has exactly one receive with the same blocks in the
/// same step by construction. Readers that need per-rank ops walk the
/// canonical order `for_each_op_step_major` below defines (step-major, ranks
/// increasing, each rank's call order), which produces each send and
/// receive half on the fly. Hot loops consume the flat size-free IR compiled
/// from it, sched::SizeFreeSchedule (schedule_cache.hpp); the scalar
/// simulation oracle walks the canonical order directly.
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
/// `Exchange::blocks` values point into it (or hold tiny sets inline), so
/// the schedule must not outlive its arena -- which `arena_` guarantees for
/// the normal value-semantics usage, including splicing via coll::sequence
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

/// `Op::exchange` of local ops, which no Schedule::add_exchange call built.
inline constexpr std::uint32_t kNoExchange = 0xffffffffu;

/// One half of a logged exchange, or a local op, as one rank performs it:
/// what the canonical walk (for_each_op_step_major) hands its callback.
struct Op {
  OpKind kind = OpKind::send;
  /// Log index of the exchange this send or receive is a half of (shared
  /// by both halves; kNoExchange for a local_perm). It sits in the padding
  /// after `kind`, so it costs no space.
  std::uint32_t exchange = kNoExchange;
  Rank peer = -1;      ///< counterpart rank (unused for local_perm)
  BlockSet blocks;     ///< logical block ids (empty for local_perm)
  i64 segments = 1;    ///< contiguous memory segments touched by this op
};

/// One add_exchange call: at `step`, `from` sends `blocks` to `to`, which
/// stores them (or folds them in, when `reduce`). Sends and receives in the
/// same step proceed concurrently (sendrecv exchange).
struct Exchange {
  BlockSet blocks;
  Rank from = -1;
  Rank to = -1;
  i64 segments = 1;  ///< contiguous memory segments each half touches
  std::uint32_t step = 0;
  bool reduce = false;
};

/// One add_local call: a local_perm by `rank` at `step`.
struct LocalOp {
  Rank rank = -1;
  i64 segments = 1;
  std::uint32_t step = 0;
  /// Exchanges logged before it: its place in the rank's call order.
  std::uint32_t before = 0;
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

  /// Number of synchronized steps: 1 + the largest step any op uses.
  [[nodiscard]] size_t num_steps() const noexcept { return num_steps_; }

  /// The exchange log, in add_exchange call order; an exchange's index is
  /// its id (`Op::exchange`).
  [[nodiscard]] const std::vector<Exchange>& exchanges() const noexcept {
    return exchanges_;
  }
  /// The add_local ops, in call order.
  [[nodiscard]] const std::vector<LocalOp>& locals() const noexcept { return locals_; }

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

  /// Log `from` sending `blocks` to `to` at `step`. `segments` overrides the
  /// memory-contiguity estimate derived from the block set (-1 = derive):
  /// strategies that pack (Permute/Send) force 1, strategies that issue
  /// per-block sends force the block count.
  void add_exchange(size_t step, Rank from, Rank to, BlockSet blocks, bool reduce,
                    i64 segments = -1);

  /// Log a one-sided op (local_perm over the whole vector) by `r`.
  void add_local(size_t step, Rank r, i64 segs);

  /// Log `next`'s ops after this schedule's last step, keeping `next`'s
  /// arena alive (coll::sequence). Its exchange ids follow this log's.
  void append(const Schedule& next);

  /// Sum of wire bytes over all exchanges.
  [[nodiscard]] i64 total_wire_bytes() const;

  /// Structural validation: peers are in range and distinct, and every
  /// block range lies in the block space (range_in_space). Returns an
  /// empty string when valid, else a description of the problem.
  [[nodiscard]] std::string validate() const;

  /// The canonical op order, as indices of op halves: half h < 2E (E =
  /// exchanges().size()) is the send (h even) or receive (h odd) of exchange
  /// h / 2; half h >= 2E is local h - 2E. Step t's halves are
  /// [step_begin[t], step_begin[t + 1]), sorted by rank with ties in call
  /// order. Throws std::length_error past 2^32 - 1 halves.
  struct OpOrder {
    std::vector<std::uint32_t> step_begin;
    std::vector<std::uint32_t> halves;
  };
  [[nodiscard]] OpOrder op_order() const;
  /// The rank that performs half `h`, and the op it performs.
  [[nodiscard]] Rank half_rank(std::uint32_t h) const noexcept;
  [[nodiscard]] Op half_op(std::uint32_t h) const noexcept;

  /// Arena backing this schedule's BlockSet range storage (created lazily;
  /// shared so copies of the schedule keep the spans alive).
  [[nodiscard]] ScheduleArena& arena() {
    if (!arena_) arena_ = std::make_shared<ScheduleArena>();
    return *arena_;
  }

 private:
  std::vector<Exchange> exchanges_;
  std::vector<LocalOp> locals_;
  size_t num_steps_ = 0;
  std::shared_ptr<ScheduleArena> arena_;
};

/// Visit every op of `s` in the canonical flat order: step-major, ranks
/// increasing within a step, each rank's ops in call order. Calls
/// `op(rank, o)` per op -- each exchange yields its send at `from` and its
/// receive at `to` -- and `step_end(t)` after each of the first `steps`
/// steps. This is the one definition of IR order, shared by
/// SizeFreeSchedule::from (its simulation stream, which drops the cost-free
/// plain recvs, and the execution overlay), the scalar simulation oracle and
/// the reference executor.
template <class OpFn, class StepEndFn>
void for_each_op_step_major(const Schedule& s, size_t steps, OpFn&& op,
                            StepEndFn&& step_end) {
  const Schedule::OpOrder order = s.op_order();
  for (size_t t = 0; t < steps; ++t) {
    if (t < s.num_steps())
      for (std::uint32_t i = order.step_begin[t]; i < order.step_begin[t + 1]; ++i) {
        const std::uint32_t h = order.halves[i];
        op(s.half_rank(h), s.half_op(h));
      }
    step_end(t);
  }
}

/// The cost model's segment term, max(0, segments - 1), in one place: the
/// size-free stream and the scalar oracle both charge it.
[[nodiscard]] inline std::int32_t lowered_extra_segments(i64 segments) noexcept {
  return static_cast<std::int32_t>(std::max<i64>(0, segments - 1));
}

}  // namespace bine::sched
