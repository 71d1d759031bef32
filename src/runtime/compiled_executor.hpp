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
/// IR, exec_plan.hpp) over dense per-rank buffers.
///
/// State is three flat arrays instead of p * nblocks individually allocated
/// BlockSlots: one data buffer per rank (blocks at their dense element
/// offsets), one u64 word run per block for the contributor set, one validity
/// byte per block. A step is two phases over the plan's delivery records:
///
///   1. *stage*: copy the genuinely overlapping payload tiles (sender's
///      block data + contributor words of ids whose read cell is written
///      this step -- see ExecPlan::staged_id) into a staging buffer sized
///      once from the plan's prefix sums; this realizes the pre-step
///      snapshot semantics without per-message allocation, and most plans
///      stage nothing at all (ExecPlan::stage_bytes == 0);
///   2. *apply*: walk deliveries in receiver op order, replacing slots
///      (recv) or folding them (recv_reduce) with the duplicate-contributor
///      check done wordwise on the flat bitsets.
///
/// Results are bit-identical to execute_reference (the parity suite asserts
/// buffers, contributor sets and message accounting). With `threads > 1`
/// both phases fan out over harness::parallel_for -- phase 1 over deliveries
/// (disjoint staging slices), phase 2 over receiver runs (disjoint slots) --
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

template <typename T>
struct CompiledExecResult {
  const ExecPlan* plan = nullptr;     ///< borrowed; must outlive the result
  std::vector<T> data;                ///< p * elems_per_rank, dense block layout
  std::vector<u64> contrib;           ///< p * nblocks * words contributor bitsets
  std::vector<std::uint8_t> valid;    ///< p * nblocks
  i64 messages = 0;
  i64 wire_bytes = 0;
  i64 stage_bytes = 0;  ///< payload bytes copied through stage buffers (plan property)

  [[nodiscard]] std::span<const T> block(Rank r, i64 b) const {
    const size_t off = static_cast<size_t>(r) * static_cast<size_t>(plan->elems_per_rank) +
                       static_cast<size_t>(plan->block_off[static_cast<size_t>(b)]);
    return {data.data() + off, static_cast<size_t>(plan->block_len(b))};
  }
  [[nodiscard]] bool is_valid(Rank r, i64 b) const {
    return valid[static_cast<size_t>(r * plan->nblocks + b)] != 0;
  }
  [[nodiscard]] std::span<const u64> contributor_words(Rank r, i64 b) const {
    const size_t off =
        static_cast<size_t>((r * plan->nblocks + b) * plan->words);
    return {contrib.data() + off, static_cast<size_t>(plan->words)};
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
  /// samples below drop_fraction is silently discarded (the receiver's slot
  /// keeps its pre-step content -- later ops either read stale data the
  /// verifier flags or hit an invalid slot and throw), and one below
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
    res.data.assign(static_cast<size_t>(pl.p) * static_cast<size_t>(pl.elems_per_rank),
                    T{});
    res.contrib.assign(static_cast<size_t>(pl.p * pl.nblocks * pl.words), 0);
    res.valid.assign(static_cast<size_t>(pl.p * pl.nblocks), 0);
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
        const i64 sender = pl.from[j];
        const T* sdata = res.data.data() +
                         static_cast<size_t>(sender) * static_cast<size_t>(pl.elems_per_rank);
        i64 elem_off = pl.stage_elem_off[j];
        i64 block_off = pl.stage_block_off[j];
        for (std::uint32_t k = pl.block_begin[j]; k < pl.block_begin[j + 1]; ++k) {
          if (!pl.staged_id[k]) continue;  // in-place tile: validated in phase 2
          const i64 id = pl.ids[k];
          if (!res.valid[static_cast<size_t>(sender * pl.nblocks + id)])
            throw std::runtime_error("step " + std::to_string(t) + ": rank " +
                                     std::to_string(sender) + " sends invalid block " +
                                     std::to_string(id));
          const i64 len = pl.block_len(id);
          std::copy_n(sdata + pl.block_off[static_cast<size_t>(id)], len,
                      stage.data() + elem_off);
          std::copy_n(
              res.contrib.data() + static_cast<size_t>((sender * pl.nblocks + id) * pl.words),
              static_cast<size_t>(pl.words),
              stage_contrib.data() + static_cast<size_t>(block_off) * static_cast<size_t>(pl.words));
          elem_off += len;
          ++block_off;
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
          const i64 sender = pl.from[j];
          const bool is_direct = pl.direct[j] != 0;
          T* rdata = res.data.data() +
                     static_cast<size_t>(r) * static_cast<size_t>(pl.elems_per_rank);
          const T* sdata = res.data.data() +
                           static_cast<size_t>(sender) * static_cast<size_t>(pl.elems_per_rank);
          i64 elem_off = pl.stage_elem_off[j];
          i64 block_off = pl.stage_block_off[j];
          for (std::uint32_t k = pl.block_begin[j]; k < pl.block_begin[j + 1]; ++k) {
            const i64 id = pl.ids[k];
            const i64 len = pl.block_len(id);
            const size_t slot = static_cast<size_t>(r * pl.nblocks + id);
            const size_t sslot = static_cast<size_t>(sender * pl.nblocks + id);
            // In-place sources: the whole delivery (direct) or this id's
            // pair tile (non-direct, unmarked) -- either way the sender's
            // cell is untouched this step, so its live buffer IS the
            // pre-step snapshot and nothing was staged for it.
            const bool in_place = is_direct || !pl.staged_id[k];
            if (in_place && !res.valid[sslot])
              throw std::runtime_error("step " + std::to_string(t) + ": rank " +
                                       std::to_string(sender) + " sends invalid block " +
                                       std::to_string(id));
            T* dst = rdata + pl.block_off[static_cast<size_t>(id)];
            const T* src = in_place ? sdata + pl.block_off[static_cast<size_t>(id)]
                                    : stage.data() + elem_off;
            u64* dst_c = res.contrib.data() + slot * static_cast<size_t>(pl.words);
            const u64* src_c =
                in_place
                    ? res.contrib.data() + sslot * static_cast<size_t>(pl.words)
                    : stage_contrib.data() +
                          static_cast<size_t>(block_off) * static_cast<size_t>(pl.words);
            if (!pl.reduce[j]) {
              std::copy_n(src, len, dst);
              std::copy_n(src_c, static_cast<size_t>(pl.words), dst_c);
              res.valid[slot] = 1;
            } else {
              if (!res.valid[slot])
                throw std::runtime_error("step " + std::to_string(t) + ": rank " +
                                         std::to_string(r) + " reduce into invalid block " +
                                         std::to_string(id));
              for (i64 w = 0; w < pl.words; ++w)
                if (dst_c[w] & src_c[w])
                  throw std::runtime_error("step " + std::to_string(t) + ": rank " +
                                           std::to_string(r) +
                                           " would fold duplicate contributions into block " +
                                           std::to_string(id));
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
              ++block_off;
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
        T* rdata = res.data.data() +
                   static_cast<size_t>(r) * static_cast<size_t>(pl.elems_per_rank);
        T* sdata = res.data.data() +
                   static_cast<size_t>(s) * static_cast<size_t>(pl.elems_per_rank);
        for (std::uint32_t k = pl.block_begin[j1]; k < pl.block_begin[j1 + 1]; ++k) {
          const i64 id = pl.ids[k];
          const i64 len = pl.block_len(id);
          const size_t rslot = static_cast<size_t>(r * pl.nblocks + id);
          const size_t sslot = static_cast<size_t>(s * pl.nblocks + id);
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
          const size_t off = static_cast<size_t>(pl.block_off[static_cast<size_t>(id)]);
          reduce_symmetric<T>(op, {rdata + off, static_cast<size_t>(len)},
                              {sdata + off, static_cast<size_t>(len)});
          if (corrupt_pending && len > 0) {
            corrupt_low_bit(rdata[off]);
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
    using sched::Collective;
    const auto mark = [&](Rank holder, i64 id, Rank contributor) {
      const size_t slot = static_cast<size_t>(holder * pl.nblocks + id);
      res.valid[slot] = 1;
      res.contrib[slot * static_cast<size_t>(pl.words) +
                  static_cast<size_t>(contributor) / 64] |=
          u64{1} << (static_cast<size_t>(contributor) % 64);
    };
    const auto rank_data = [&](Rank r) {
      return res.data.data() +
             static_cast<size_t>(r) * static_cast<size_t>(pl.elems_per_rank);
    };
    // For per_vector space the dense layout IS the vector layout, so a
    // rank's initial holdings are one contiguous copy of (a slice of) its
    // input; for pairwise space rank r's p send blocks land contiguously at
    // block_off[r*p].
    switch (pl.coll) {
      case Collective::bcast:
      case Collective::scatter:
        std::copy_n(inputs[static_cast<size_t>(pl.root)].data(), pl.elem_count,
                    rank_data(pl.root));
        for (i64 b = 0; b < pl.nblocks; ++b) mark(pl.root, b, pl.root);
        break;
      case Collective::reduce:
      case Collective::allreduce:
      case Collective::reduce_scatter:
        for (Rank r = 0; r < pl.p; ++r) {
          std::copy_n(inputs[static_cast<size_t>(r)].data(), pl.elem_count, rank_data(r));
          for (i64 b = 0; b < pl.nblocks; ++b) mark(r, b, r);
        }
        break;
      case Collective::gather:
      case Collective::allgather:
        for (Rank r = 0; r < pl.p; ++r) {
          const i64 off = pl.block_off[static_cast<size_t>(r)];
          std::copy_n(inputs[static_cast<size_t>(r)].data() + off, pl.block_len(r),
                      rank_data(r) + off);
          mark(r, r, r);
        }
        break;
      case Collective::alltoall:
        for (Rank r = 0; r < pl.p; ++r) {
          std::copy_n(inputs[static_cast<size_t>(r)].data(), pl.elem_count,
                      rank_data(r) + pl.block_off[static_cast<size_t>(r * pl.p)]);
          for (i64 d = 0; d < pl.p; ++d) mark(r, r * pl.p + d, r);
        }
        break;
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
