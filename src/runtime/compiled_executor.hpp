#pragma once

#include <algorithm>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "harness/parallel.hpp"
#include "runtime/exec_plan.hpp"
#include "runtime/executor.hpp"
#include "runtime/reduction.hpp"

/// The compiled execution engine: streams a runtime::ExecPlan (flat delivery
/// IR, exec_plan.hpp) over flat per-cell state.
///
/// State exists only for the plan's held cells -- the (rank, block) pairs a
/// rank can ever hold -- plus one permanently invalid sentinel cell, in three
/// flat arrays: element data (each cell at its ExecPlan::cell_off offset),
/// one u64 word run per cell for the contributor set, one validity byte per
/// cell. Deliveries address cells directly (ExecPlan::read_cell,
/// write_cell), so a pairwise-space alltoall allocates the few percent of
/// its p * p^2 (rank, block) pairs that ever hold data. A send from a cell
/// the sender can never hold reads the sentinel and throws the same
/// "sends invalid block" error a never-filled cell does. A step is two
/// phases over the plan's delivery records:
///
///   1. *stage*: copy the genuinely overlapping payload tiles (sender's
///      block data + contributor words of ids whose read cell is written
///      this step -- see ExecPlan::staged_id) into a staging buffer sized
///      once from the plan's prefix sums; this realizes the pre-step
///      snapshot semantics without per-message allocation, and most plans
///      stage nothing at all (ExecPlan::stage_bytes == 0);
///   2. *apply*: walk deliveries in receiver op order, replacing cells
///      (recv) or folding them (recv_reduce) with the duplicate-contributor
///      check done wordwise on the flat bitsets.
///
/// Results are bit-identical to execute_reference (the parity suite asserts
/// buffers, contributor sets and message accounting). With `threads > 1`
/// both phases fan out over harness::parallel_for -- phase 1 over deliveries
/// (disjoint staging slices), phase 2 over receiver runs (disjoint cells) --
/// so the output is byte-identical for any thread count.
namespace bine::runtime {

/// Vector size (bytes) below which the executor's auto thread default stays
/// sequential: parallel_for spawns and joins real threads per phase, which
/// profiling shows only pays off beyond ~1 MiB vectors (see the threaded
/// crossover recorded in BENCH_exec.json; the ROADMAP's "profile and gate a
/// threads>1 default" item).
inline constexpr i64 kExecAutoThreadBytes = i64{1} << 20;

/// The executor's thread count for `threads <= 0` (auto): the harness
/// default worker count for vectors at or beyond kExecAutoThreadBytes,
/// sequential below it. Results are bit-identical either way -- the gate is
/// purely a performance decision.
[[nodiscard]] inline i64 auto_exec_threads(i64 vector_bytes) {
  return vector_bytes >= kExecAutoThreadBytes ? harness::default_thread_count() : 1;
}

/// Elements a step must move before a `threads > 1` run fans its phases out:
/// parallel_for spawns and joins real threads per call, so smaller steps
/// run every phase inline.
inline constexpr i64 kParallelGrainElems = i64{1} << 15;

/// True when a `threads > 1` run executes step `t` of `pl` through
/// parallel_for (each phase with more than one work item fans out).
[[nodiscard]] inline bool step_fans_out(const ExecPlan& pl, size_t t) {
  const std::uint32_t ob = pl.step_begin[t], oe = pl.step_begin[t + 1];
  return pl.elem_prefix[pl.block_begin[oe]] - pl.elem_prefix[pl.block_begin[ob]] >=
         kParallelGrainElems;
}

/// Flip the low bit of one element's byte representation (the executor's
/// corruption injection): a single-bit payload error, type-agnostic, that the
/// postcondition verifier is guaranteed to see as a data mismatch.
template <typename T>
inline void corrupt_low_bit(T& v) noexcept {
  unsigned char b = 0;
  std::memcpy(&b, &v, 1);
  b ^= 1u;
  std::memcpy(&v, &b, 1);
}

/// Final execution state, indexed by cell (cell_data, cell_words, valid).
/// The (rank, block) accessors look the cell up in rank r's held ids
/// (ExecPlan::cell); a block the rank never holds resolves to the sentinel,
/// which reads as invalid, empty, with no contributors.
template <typename T>
struct CompiledExecResult {
  const ExecPlan* plan = nullptr;     ///< borrowed; must outlive the result
  std::vector<T> data;                ///< state_elems, cells at cell_off
  std::vector<u64> contrib;           ///< ncells * words contributor bitsets
  std::vector<std::uint8_t> valid;    ///< ncells
  i64 messages = 0;
  i64 wire_bytes = 0;
  i64 stage_bytes = 0;  ///< payload bytes copied through stage buffers (plan property)

  [[nodiscard]] std::span<const T> cell_data(std::uint32_t c) const {
    return {data.data() + plan->cell_off[c], static_cast<size_t>(plan->cell_len(c))};
  }
  [[nodiscard]] std::span<const u64> cell_words(std::uint32_t c) const {
    return {contrib.data() + static_cast<size_t>(c) * static_cast<size_t>(plan->words),
            static_cast<size_t>(plan->words)};
  }
  [[nodiscard]] std::span<const T> block(Rank r, i64 b) const {
    return cell_data(plan->cell(r, b));
  }
  [[nodiscard]] bool is_valid(Rank r, i64 b) const { return valid[plan->cell(r, b)] != 0; }
  [[nodiscard]] std::span<const u64> contributor_words(Rank r, i64 b) const {
    return cell_words(plan->cell(r, b));
  }
  [[nodiscard]] RankSet contributors(Rank r, i64 b) const {
    return RankSet::from_words(plan->p, contributor_words(r, b));
  }
};

class CompiledExecutor {
 public:
  explicit CompiledExecutor(const ExecPlan& plan) : plan_(&plan) {}
  /// Results borrow the plan (CompiledExecResult::plan), so binding a
  /// temporary would dangle the moment the full expression ends.
  explicit CompiledExecutor(ExecPlan&&) = delete;

  /// Run the plan over the given inputs. `threads <= 0` resolves through the
  /// size-gated auto default (sequential below kExecAutoThreadBytes);
  /// `threads == 1` is fully sequential; otherwise phases fan out over
  /// harness::parallel_for. Throws std::runtime_error on semantic
  /// violations, like the reference.
  ///
  /// `faults`, when non-null with exec injection enabled, is the fault
  /// layer's delivery hook: a delivery whose seeded (step, plan index) hash
  /// samples below drop_fraction is silently discarded (the receiver's cell
  /// keeps its pre-step content -- later ops either read stale data the
  /// verifier flags or hit an invalid cell and throw), and one below
  /// corrupt_fraction lands with the low bit of its first payload element
  /// flipped. Decisions are keyed by plan indices, so injection is
  /// bit-deterministic for any thread count; harness::Runner::run_verified
  /// provably reports the damage as a not-ok VerifiedRun.
  template <typename T>
  [[nodiscard]] CompiledExecResult<T> run(ReduceOp op,
                                          std::span<const std::vector<T>> inputs,
                                          i64 threads = 0,
                                          const fault::FaultSpec* faults = nullptr) const {
    const ExecPlan& pl = *plan_;
    // Only a spec with injection probabilities takes any branch below; a
    // null/degradation-only spec leaves every step bit-identical.
    const fault::FaultSpec* inject =
        (faults != nullptr && faults->has_exec_injection()) ? faults : nullptr;
    if (threads <= 0)
      threads = auto_exec_threads(pl.elem_count * static_cast<i64>(sizeof(T)));
    if (static_cast<i64>(inputs.size()) != pl.p)
      throw std::runtime_error("executor: inputs.size() != p");
    for (const auto& in : inputs)
      if (static_cast<i64>(in.size()) < pl.elem_count)
        throw std::runtime_error("executor: input vector shorter than elem_count");

    CompiledExecResult<T> res;
    res.plan = &pl;
    res.data.assign(static_cast<size_t>(pl.state_elems), T{});
    res.contrib.assign(static_cast<size_t>(pl.ncells * pl.words), 0);
    res.valid.assign(static_cast<size_t>(pl.ncells), 0);
    init_state(pl, inputs, res);

    std::vector<T> stage(static_cast<size_t>(pl.max_step_elems));
    std::vector<u64> stage_contrib(
        static_cast<size_t>(pl.max_step_blocks * pl.words));

    bool step_parallel = false;  // see step_fans_out
    const auto for_range = [&](std::uint32_t n, auto&& fn) {
      if (step_parallel && n > 1) {
        harness::parallel_for(static_cast<i64>(n), fn, threads);
      } else {
        for (i64 i = 0; i < static_cast<i64>(n); ++i) fn(i);
      }
    };

    for (size_t t = 0; t < pl.steps; ++t) {
      const std::uint32_t ob = pl.step_begin[t], oe = pl.step_begin[t + 1];
      if (ob == oe) continue;
      step_parallel = threads > 1 && step_fans_out(pl, t);

      // Phase 1: stage the payloads of non-direct deliveries' overlapping
      // tiles from pre-step state (direct deliveries -- and the in-place
      // tiles of partially overlapping ones -- read the sender's live buffer
      // in phase 2: their cells are untouched this step, so live ==
      // pre-step). Disjoint staging slices per delivery; exceptions
      // propagate through parallel_for exactly as a sequential throw would.
      for_range(oe - ob, [&](i64 jj) {
        const std::uint32_t j = ob + static_cast<std::uint32_t>(jj);
        if (pl.direct[j] || pl.fused[j]) return;
        i64 elem_off = pl.stage_elem_off[j];
        i64 stage_block = pl.stage_block_off[j];
        for (std::uint32_t k = pl.block_begin[j]; k < pl.block_begin[j + 1]; ++k) {
          if (!pl.staged_id[k]) continue;  // in-place tile: validated in phase 2
          const std::uint32_t sc = pl.read_cell[k];
          if (!res.valid[sc])
            throw std::runtime_error("step " + std::to_string(t) + ": rank " +
                                     std::to_string(pl.from[j]) + " sends invalid block " +
                                     std::to_string(pl.block_id(k)));
          const i64 len = pl.cell_len(sc);
          std::copy_n(res.data.data() + pl.cell_off[sc], len, stage.data() + elem_off);
          std::copy_n(
              res.contrib.data() + static_cast<size_t>(sc) * static_cast<size_t>(pl.words),
              static_cast<size_t>(pl.words),
              stage_contrib.data() + static_cast<size_t>(stage_block) * static_cast<size_t>(pl.words));
          elem_off += len;
          ++stage_block;
        }
      });

      // Phase 2: apply deliveries, receiver runs in parallel, op order
      // within a run (a rank's deliveries must fold in its op order).
      const std::uint32_t rb = pl.step_run_begin[t], re = pl.step_run_begin[t + 1];
      for_range(re - rb, [&](i64 rr) {
        const std::uint32_t run = rb + static_cast<std::uint32_t>(rr);
        for (std::uint32_t j = pl.run_begin[run]; j < pl.run_begin[run + 1]; ++j) {
          if (pl.fused[j]) continue;  // applied pairwise in the fused pass
          if (inject && inject->drop_delivery(t, j)) continue;  // lost on the wire
          bool corrupt_pending = inject && inject->corrupt_delivery(t, j);
          const i64 r = pl.to[j];
          const bool is_direct = pl.direct[j] != 0;
          i64 elem_off = pl.stage_elem_off[j];
          i64 stage_block = pl.stage_block_off[j];
          for (std::uint32_t k = pl.block_begin[j]; k < pl.block_begin[j + 1]; ++k) {
            const size_t slot = pl.write_cell[k];
            const size_t sslot = pl.read_cell[k];
            const i64 len = pl.cell_len(pl.write_cell[k]);
            // In-place sources: the whole delivery (direct) or this block's
            // pair tile (non-direct, unmarked) -- either way the sender's
            // cell is untouched this step, so its live state IS the
            // pre-step snapshot and nothing was staged for it.
            const bool in_place = is_direct || !pl.staged_id[k];
            if (in_place && !res.valid[sslot])
              throw std::runtime_error("step " + std::to_string(t) + ": rank " +
                                       std::to_string(pl.from[j]) + " sends invalid block " +
                                       std::to_string(pl.block_id(k)));
            T* dst = res.data.data() + pl.cell_off[slot];
            const T* src = in_place ? res.data.data() + pl.cell_off[sslot]
                                    : stage.data() + elem_off;
            u64* dst_c = res.contrib.data() + slot * static_cast<size_t>(pl.words);
            const u64* src_c =
                in_place
                    ? res.contrib.data() + sslot * static_cast<size_t>(pl.words)
                    : stage_contrib.data() +
                          static_cast<size_t>(stage_block) * static_cast<size_t>(pl.words);
            if (!pl.reduce[j]) {
              std::copy_n(src, len, dst);
              std::copy_n(src_c, static_cast<size_t>(pl.words), dst_c);
              res.valid[slot] = 1;
            } else {
              if (!res.valid[slot])
                throw std::runtime_error("step " + std::to_string(t) + ": rank " +
                                         std::to_string(r) + " reduce into invalid block " +
                                         std::to_string(pl.block_id(k)));
              for (i64 w = 0; w < pl.words; ++w)
                if (dst_c[w] & src_c[w])
                  throw std::runtime_error("step " + std::to_string(t) + ": rank " +
                                           std::to_string(r) +
                                           " would fold duplicate contributions into block " +
                                           std::to_string(pl.block_id(k)));
              reduce_into<T>(op, {dst, static_cast<size_t>(len)},
                             {src, static_cast<size_t>(len)});
              for (i64 w = 0; w < pl.words; ++w) dst_c[w] |= src_c[w];
            }
            if (corrupt_pending && len > 0) {  // one-bit payload error
              corrupt_low_bit(dst[0]);
              corrupt_pending = false;
            }
            if (!in_place) {  // stage slices hold staged tiles only
              elem_off += len;
              ++stage_block;
            }
          }
        }
      });

      // Phase 2b: fused symmetric exchanges -- both directions of a mutual
      // recv_reduce pair in one pass over cells nobody else touches, so this
      // runs in parallel with itself (and is order-independent w.r.t. the
      // runs above) without staging anything.
      const std::uint32_t fb = pl.step_fused_begin[t], fe = pl.step_fused_begin[t + 1];
      for_range(fe - fb, [&](i64 pp) {
        const std::uint32_t pair = fb + static_cast<std::uint32_t>(pp);
        const std::uint32_t j1 = pl.fused_pair[2 * pair];
        const std::uint32_t j2 = pl.fused_pair[2 * pair + 1];
        // Injection keys off the pair's first delivery: dropping loses the
        // whole symmetric exchange (neither side folds), corruption lands on
        // the j1 receiver's side.
        if (inject && inject->drop_delivery(t, j1)) return;
        bool corrupt_pending = inject && inject->corrupt_delivery(t, j1);
        const i64 r = pl.to[j1];
        const i64 s = pl.to[j2];
        for (std::uint32_t k = pl.block_begin[j1]; k < pl.block_begin[j1 + 1]; ++k) {
          const i64 id = pl.block_id(k);
          // j1 writes (r, id) and reads (s, id): both cells are held, since
          // j2 writes the latter.
          const size_t rslot = pl.write_cell[k];
          const size_t sslot = pl.read_cell[k];
          const i64 len = pl.cell_len(pl.write_cell[k]);
          for (const size_t slot : {rslot, sslot})
            if (!res.valid[slot])
              throw std::runtime_error(
                  "step " + std::to_string(t) + ": rank " +
                  std::to_string(slot == rslot ? r : s) +
                  (slot == rslot ? " reduce into invalid block " : " sends invalid block ") +
                  std::to_string(id));
          u64* rc = res.contrib.data() + rslot * static_cast<size_t>(pl.words);
          u64* sc = res.contrib.data() + sslot * static_cast<size_t>(pl.words);
          for (i64 w = 0; w < pl.words; ++w)
            if (rc[w] & sc[w])
              throw std::runtime_error("step " + std::to_string(t) + ": rank " +
                                       std::to_string(r) +
                                       " would fold duplicate contributions into block " +
                                       std::to_string(id));
          T* rdata = res.data.data() + pl.cell_off[rslot];
          T* sdata = res.data.data() + pl.cell_off[sslot];
          reduce_symmetric<T>(op, {rdata, static_cast<size_t>(len)},
                              {sdata, static_cast<size_t>(len)});
          if (corrupt_pending && len > 0) {
            corrupt_low_bit(rdata[0]);
            corrupt_pending = false;
          }
          for (i64 w = 0; w < pl.words; ++w) {
            const u64 merged = rc[w] | sc[w];
            rc[w] = merged;
            sc[w] = merged;
          }
        }
      });
    }

    // One delivery per exchange (its send and receive carry the same
    // bytes), so send-side accounting falls out of the plan.
    res.messages = static_cast<i64>(pl.num_ops());
    res.wire_bytes = pl.total_wire_bytes;
    res.stage_bytes = pl.stage_bytes;
    return res;
  }

 private:
  template <typename T>
  static void init_state(const ExecPlan& pl, std::span<const std::vector<T>> inputs,
                         CompiledExecResult<T>& res) {
    // A rank's held ids ascend, so its initial run of consecutive block ids
    // is a run of consecutive cells with contiguous data: one copy of the
    // matching slice of its input. For per_vector space the run sits at its
    // vector offset; alltoall's rank r holds its whole send buffer.
    for (Rank r = 0; r < pl.p; ++r) {
      const sched::BlockRange init = initial_blocks(pl.coll, pl.root, pl.p, pl.nblocks, r);
      if (init.count == 0) continue;
      const i64 in_off = pl.space == sched::BlockSpace::per_vector
                             ? sched::block_offset(init.begin, pl.elem_count, pl.nblocks)
                             : 0;
      const std::uint32_t c0 = pl.cell(r, init.begin);
      const auto c1 = c0 + static_cast<std::uint32_t>(init.count);
      std::copy_n(inputs[static_cast<size_t>(r)].data() + in_off,
                  pl.cell_off[c1] - pl.cell_off[c0], res.data.data() + pl.cell_off[c0]);
      for (std::uint32_t c = c0; c < c1; ++c) {
        res.valid[c] = 1;
        res.contrib[static_cast<size_t>(c) * static_cast<size_t>(pl.words) +
                    static_cast<size_t>(r) / 64] |= u64{1} << (static_cast<size_t>(r) % 64);
      }
    }
  }

  const ExecPlan* plan_;
};

/// Convenience wrapper mirroring net::simulate's compiled entry point.
template <typename T>
[[nodiscard]] CompiledExecResult<T> execute(const ExecPlan& plan, ReduceOp op,
                                            std::span<const std::vector<T>> inputs,
                                            i64 threads = 0,
                                            const fault::FaultSpec* faults = nullptr) {
  return CompiledExecutor(plan).run<T>(op, inputs, threads, faults);
}

/// The result aliases the plan; a temporary plan would dangle before the
/// first accessor runs. Keep the plan in a named variable.
template <typename T>
CompiledExecResult<T> execute(ExecPlan&&, ReduceOp, std::span<const std::vector<T>>,
                              i64 = 0, const fault::FaultSpec* = nullptr) = delete;

}  // namespace bine::runtime
