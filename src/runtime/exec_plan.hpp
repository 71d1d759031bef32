#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sched/schedule.hpp"
#include "sched/schedule_cache.hpp"

/// Flat execution IR, built from a sched::SizeFreeSchedule entry.
///
/// The executor's work is entirely delivery-driven: within a synchronized
/// step every send reads the sender's *pre-step* state, so a message's
/// payload is fully determined by (sender, block ids) -- all sends a rank
/// issues in one step read identical state, and each exchange of the
/// Schedule's log is one send and one implied receive of the same block
/// set. `ExecPlan` therefore keeps exactly one record per *delivery*
/// (receive half), in the canonical step-major / receiver-grouped order
/// the reference executor applies them in:
///
///   * per rank: the *held cells*, one per block id the rank can ever hold
///     (its initial holdings plus every id delivered to it), ids ascending
///     in a CSR (`cell_begin`, `cell_block`). Execution state exists only
///     for these cells; one extra, permanently invalid *sentinel* cell
///     stands for every (rank, block) a rank can never hold. Alltoall in
///     pairwise space (p^2 blocks) holds a few percent of its p * p^2
///     (rank, block) pairs; per_vector plans in which every rank holds
///     every block have exactly p * nblocks held cells;
///   * per delivery: receiving rank, sending rank, reduce flag, wire bytes,
///     and a CSR slice of delivered blocks, each resolved to the cell it is
///     read from (`read_cell`: sender, block -- the sentinel when the sender
///     can never hold it) and the cell it lands in (`write_cell`);
///   * per cell: an element offset (`cell_off`), so all ranks' state is ONE
///     flat buffer, and contributor sets are fixed-width bitset word runs in
///     one flat array;
///   * per step: op and receiver-run CSR ranges, plus staging prefix sums
///     (`elem_prefix`) sized once at plan build time, so execution performs no
///     per-step allocation at all.
///
/// Columns split along the size axis: everything except byte/element
/// arithmetic is a pure function of schedule *structure* (and the
/// collective and root, which fix the initial holdings), so those columns
/// are exposed as read-only spans. The step CSR and reduce flags alias a
/// sched::SizeFreeSchedule's execution overlay directly. Everything else
/// aliases an `ExecSkeleton`: the held cells, each delivery resolved through
/// its send index (receiver, sender, read and write cells) plus the
/// finalized, size-free dataflow analysis (receiver runs, zero-copy direct
/// marks, fused symmetric pairs, staging block offsets), built ONCE per
/// entry and cached on it, so a cache hit pays only for the size-dependent
/// columns (`op_bytes`, `cell_off`, `elem_prefix`, `stage_elem_off`). The
/// plan owns no delivery storage: `keepalive` and `skeleton` hold what the
/// spans point into.
///
/// One construction path, `from_size_free(entry, ...)`, which is how
/// harness::Runner's verify path skips generation entirely on a
/// schedule-cache hit. `lower(Schedule)` is the fresh-schedule front end
/// (the examples' and the tests' oracle): it rejects invalid schedules
/// (`Schedule::validate()`: a peer or block range out of range), compiles
/// SizeFreeSchedule::from(s) and hands the fresh entry to `from_size_free`.
namespace bine::runtime {

/// The block ids rank r holds before step 0, always one run: the root holds
/// every block (bcast, scatter), so does every rank (reduce, allreduce,
/// reduce_scatter); rank r holds block r (gather, allgather) or its p send
/// blocks r*p .. r*p+p-1 (alltoall). Empty for every other rank. The
/// reference executor's initial_state fills the same blocks.
[[nodiscard]] sched::BlockRange initial_blocks(sched::Collective coll, Rank root, i64 p,
                                               i64 nblocks, Rank r) noexcept;

/// Rank r's cell for block b in a held-cell CSR (rank r's ascending ids are
/// cell_block[cell_begin[r] .. cell_begin[r+1])); the sentinel
/// cell_block.size() when r never holds b. A rank holding one contiguous
/// run of ids -- every block, in most per_vector plans -- resolves by
/// offset, any other by binary search.
[[nodiscard]] inline std::uint32_t find_cell(std::span<const std::uint32_t> cell_begin,
                                             std::span<const std::uint32_t> cell_block,
                                             Rank r, i64 b) noexcept {
  const auto sentinel = static_cast<std::uint32_t>(cell_block.size());
  const std::uint32_t lo = cell_begin[static_cast<size_t>(r)];
  const std::uint32_t hi = cell_begin[static_cast<size_t>(r) + 1];
  if (lo == hi) return sentinel;
  const auto id = static_cast<std::uint32_t>(b);
  if (cell_block[hi - 1] - cell_block[lo] == hi - 1 - lo)
    return id >= cell_block[lo] && id <= cell_block[hi - 1] ? lo + (id - cell_block[lo])
                                                            : sentinel;
  const auto it = std::lower_bound(cell_block.begin() + lo, cell_block.begin() + hi, id);
  return it != cell_block.begin() + hi && *it == id
             ? static_cast<std::uint32_t>(it - cell_block.begin())
             : sentinel;
}

/// The size-invariant finalized structure of one delivery stream: the held
/// cells of every rank, each delivery's endpoints and cells, resolved
/// through the entry's send index, plus every output of the per-step
/// dataflow analysis that does not touch element counts. Cached on the
/// schedule-cache entry (SizeFreeSchedule::derived) so `from_size_free`
/// re-runs none of it on a hit. Only entries that execute ever build one.
struct ExecSkeleton {
  // The collective and root the held cells were built for: they fix the
  // initial holdings, and the entry's cache key fixes them in turn.
  sched::Collective coll{};
  Rank root = 0;
  // Held cells: rank r's are [cell_begin[r], cell_begin[r+1]), holding the
  // ascending block ids cell_block[c]. Cell cell_block.size() is the
  // sentinel.
  std::vector<std::uint32_t> cell_begin;
  std::vector<std::uint32_t> cell_block;
  // Delivery endpoints: the matched send's peer and rank.
  std::vector<std::int32_t> to;
  std::vector<std::int32_t> from;
  // Delivery payloads (CSR into the cell columns), from the exchange ranges.
  std::vector<std::uint32_t> block_begin;
  std::vector<std::uint32_t> read_cell;
  std::vector<std::uint32_t> write_cell;
  // Dataflow analysis outputs (see ExecPlan field docs).
  std::vector<std::uint32_t> run_begin;
  std::vector<std::uint32_t> step_run_begin;
  std::vector<std::uint8_t> direct;
  std::vector<std::uint8_t> fused;
  std::vector<std::uint32_t> fused_pair;
  std::vector<std::uint32_t> step_fused_begin;
  /// Pair-tiling mask (see ExecPlan::staged_id): one byte per delivered block.
  std::vector<std::uint8_t> staged_id;
  std::vector<i64> stage_block_off;
  i64 max_step_blocks = 0;

  /// The entry's skeleton for (coll, root), built and cached on first use
  /// (thread-safe). Throws std::invalid_argument when the entry's cached
  /// skeleton was built for another collective or root.
  [[nodiscard]] static std::shared_ptr<const ExecSkeleton> of(
      const sched::SizeFreeSchedule& sf, sched::Collective coll, Rank root);
};

struct ExecPlan {
  sched::Collective coll{};
  sched::BlockSpace space = sched::BlockSpace::per_vector;
  i64 p = 0;
  i64 nblocks = 0;
  i64 elem_count = 0;
  i64 elem_size = 0;
  Rank root = 0;
  size_t steps = 0;

  // One record per delivery (recv or recv_reduce), step-major,
  // receiver-grouped, receiver op order preserved. Size-invariant: spans
  // into the size-free entry's overlay (step_begin, reduce) or its skeleton.
  std::span<const std::uint32_t> step_begin;    ///< steps+1 CSR over deliveries
  std::span<const std::int32_t> to;             ///< receiving rank
  std::span<const std::int32_t> from;           ///< sending rank
  std::span<const std::uint8_t> reduce;         ///< 1 = fold with the reduce op
  std::span<const std::uint32_t> cell_begin;    ///< p+1 CSR over held cells
  std::span<const std::uint32_t> cell_block;    ///< block id of each held cell
  std::span<const std::uint32_t> block_begin;   ///< nops+1 CSR into the cells
  std::span<const std::uint32_t> read_cell;     ///< (sender, block), or sentinel
  std::span<const std::uint32_t> write_cell;    ///< (receiver, block)
  std::span<const std::uint32_t> run_begin;     ///< receiver-run CSR over deliveries
  std::span<const std::uint32_t> step_run_begin;///< steps+1 CSR over runs
  /// Deliveries whose read cells (sender, id) are written by no delivery of
  /// the same step: their payload IS the sender's live buffer, so the
  /// executor skips staging them (zero-copy apply). Trees, scatter/allgather
  /// composites, rings and recursive halving are direct almost everywhere;
  /// only full-vector butterfly exchanges (recursive doubling) still stage.
  std::span<const std::uint8_t> direct;
  /// Symmetric-exchange fusion: delivery pairs (j1 = r<-s, j2 = s<-r), both
  /// recv_reduce over the identical id list, whose cells no other delivery
  /// of the step touches. The executor computes `a op b` once and writes
  /// both sides (reduce_symmetric), so these -- the full-vector butterfly
  /// exchanges of recursive doubling -- never stage either. `fused[j]` marks
  /// members; `fused_pair` lists each pair once (j1 then j2), with
  /// `step_fused_begin` the steps+1 CSR in pairs.
  std::span<const std::uint8_t> fused;
  std::span<const std::uint32_t> fused_pair;
  std::span<const std::uint32_t> step_fused_begin;
  /// Pair-tiling: the per-block refinement of `direct`. For a non-direct,
  /// non-fused delivery, staged_id[k] (k indexing the cell columns) marks the
  /// blocks whose read cell IS written by some delivery of the same step --
  /// only those genuinely overlapping payloads stage. Maximal runs of equal
  /// mask decompose the delivery into disjoint source/target tile pairs; the
  /// unmarked tiles read the sender's live buffer in place, exactly like a
  /// direct delivery (per-cell data, contributor words and validity bytes are
  /// disjoint per cell, so in-place tiles race with nothing phase 2 writes).
  /// All-zero across direct and fused deliveries.
  std::span<const std::uint8_t> staged_id;
  /// Staging offsets of non-direct deliveries (blocks within the step's
  /// stage buffer, counting only staged_id-marked ids); unused for direct
  /// and fused ones.
  std::span<const i64> stage_block_off;

  // Size-dependent columns: always materialized per plan.
  std::vector<i64> op_bytes;                ///< wire bytes (accounting)
  std::vector<i64> cell_off;                ///< ncells+1 element offsets
  std::vector<i64> elem_prefix;             ///< delivered blocks+1, cumulative elements
  std::vector<i64> stage_elem_off;          ///< staging offsets (elements)
  i64 ncells = 0;                           ///< held cells + the sentinel
  i64 state_elems = 0;                      ///< cell_off.back()
  i64 words = 0;                            ///< u64 words per contributor set
  i64 max_step_elems = 0;                   ///< staging buffer size (elements)
  i64 max_step_blocks = 0;                  ///< staging buffer size (blocks)
  i64 total_wire_bytes = 0;
  /// Total payload bytes one execution copies through stage buffers (sum over
  /// steps of staged elements x elem_size; contributor words excluded). A
  /// static plan property: 0 means the plan executes fully zero-copy --
  /// every delivery lands direct, fused, or through in-place tiles.
  i64 stage_bytes = 0;

  [[nodiscard]] size_t num_ops() const noexcept { return to.size(); }
  /// The permanently invalid cell: every (rank, block) the rank never holds.
  [[nodiscard]] std::uint32_t sentinel_cell() const noexcept {
    return static_cast<std::uint32_t>(cell_block.size());
  }
  /// Rank r's cell for block b, or the sentinel.
  [[nodiscard]] std::uint32_t cell(Rank r, i64 b) const noexcept {
    return find_cell(cell_begin, cell_block, r, b);
  }
  [[nodiscard]] i64 cell_len(std::uint32_t c) const noexcept {
    return cell_off[static_cast<size_t>(c) + 1] - cell_off[static_cast<size_t>(c)];
  }
  /// Block id of delivered block k (its write cell is always held).
  [[nodiscard]] i64 block_id(std::uint32_t k) const noexcept {
    return cell_block[write_cell[k]];
  }

  /// Validate `s`, compile it size-free and re-materialize it at its own
  /// size. Throws std::runtime_error on structurally invalid schedules (the
  /// same contract execute_reference enforces at run time).
  [[nodiscard]] static ExecPlan lower(const sched::Schedule& s);

  /// Re-materialize from a cached entry's execution overlay for a concrete
  /// vector config (cached or freshly compiled); `coll`/`root` come from
  /// the cache key (the entry itself is keyed, not self-describing). The
  /// plan aliases the entry's columns and cached skeleton, keeping both
  /// alive through `keepalive`/`skeleton`.
  [[nodiscard]] static ExecPlan from_size_free(
      std::shared_ptr<const sched::SizeFreeSchedule> sf, sched::Collective coll,
      Rank root, i64 elem_count, i64 elem_size);

  /// Structural columns' owner: the entry's cached skeleton.
  std::shared_ptr<const ExecSkeleton> skeleton;
  /// Keeps the cache entry alive while delivery spans alias it.
  std::shared_ptr<const void> keepalive;

 private:
  /// Point the structural spans at `skeleton` and compute every
  /// size-dependent column (cell_off, elem_prefix, staging element offsets,
  /// wire-byte totals). Requires the delivery spans and op_bytes to be set.
  void finalize_sizes();
};

}  // namespace bine::runtime
