#pragma once

#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "runtime/compiled_executor.hpp"
#include "runtime/exec_plan.hpp"
#include "runtime/executor.hpp"

/// Postcondition checkers: given the collective kind, the reduction operator
/// and the original inputs, verify that an execution result matches the MPI
/// semantics of that collective. Returns "" on success, else a diagnostic.
///
/// One generic checker serves both engines: the expected (holder, block,
/// data, contributors) tuples are a function of (collective, layout, root,
/// inputs) alone, and each result type supplies a slot accessor.
namespace bine::runtime {

namespace detail {

/// `check(holder, id, expected_data, expected_contrib)` for every slot the
/// collective's postcondition pins down; first non-empty diagnostic wins.
/// Expected data is never copied per slot: an initial block is a view of
/// the inputs (input_block), and a fully reduced block is a slice of ONE
/// p-way fold of the whole vector, computed on first use in rank order
/// 0..p-1 -- each element sees the same operation order a per-block fold
/// would, so the expected bits are identical.
template <typename T, class CheckFn>
std::string verify_slots(sched::Collective coll, const BlockLayout& l, Rank root,
                         ReduceOp op, std::span<const std::vector<T>> inputs,
                         CheckFn&& check) {
  using sched::Collective;
  const RankSet all = RankSet::full(l.p);
  // Only the reducing collectives fold, and they all run in per_vector space.
  std::vector<T> folded;
  bool have_fold = false;
  const auto reduced = [&](i64 id) -> std::span<const T> {
    if (!have_fold) {
      const auto n = static_cast<size_t>(l.elem_count);
      folded.assign(inputs[0].begin(), inputs[0].begin() + static_cast<std::ptrdiff_t>(n));
      for (Rank r = 1; r < l.p; ++r)
        reduce_into<T>(op, folded, std::span<const T>(inputs[static_cast<size_t>(r)]).first(n));
      have_fold = true;
    }
    return std::span<const T>(folded).subspan(
        static_cast<size_t>(sched::block_offset(id, l.elem_count, l.nblocks)),
        static_cast<size_t>(sched::block_elems(id, l.elem_count, l.nblocks)));
  };
  const auto initial = [&](Rank holder, i64 id) { return input_block(l, inputs, holder, id); };
  const RankSet root_single = RankSet::single(l.p, root);
  std::string err;
  switch (coll) {
    case Collective::bcast:
      // Every rank holds every block with the root's data.
      for (Rank r = 0; r < l.p; ++r)
        for (i64 b = 0; b < l.nblocks; ++b) {
          err = check(r, b, initial(root, b), root_single);
          if (!err.empty()) return err;
        }
      return {};
    case Collective::reduce:
      // The root holds every block fully reduced.
      for (i64 b = 0; b < l.nblocks; ++b) {
        err = check(root, b, reduced(b), all);
        if (!err.empty()) return err;
      }
      return {};
    case Collective::gather:
      // The root holds block b with rank b's contribution.
      for (i64 b = 0; b < l.nblocks; ++b) {
        err = check(root, b, initial(b, b), RankSet::single(l.p, b));
        if (!err.empty()) return err;
      }
      return {};
    case Collective::scatter:
      // Rank r ends with block r carrying the root's data.
      for (Rank r = 0; r < l.p; ++r) {
        err = check(r, r, initial(root, r), root_single);
        if (!err.empty()) return err;
      }
      return {};
    case Collective::allgather: {
      // Everyone holds block b with rank b's contribution.
      std::vector<RankSet> singles;
      singles.reserve(static_cast<size_t>(l.p));
      for (Rank b = 0; b < l.p; ++b) singles.push_back(RankSet::single(l.p, b));
      for (Rank r = 0; r < l.p; ++r)
        for (i64 b = 0; b < l.nblocks; ++b) {
          err = check(r, b, initial(b, b), singles[static_cast<size_t>(b)]);
          if (!err.empty()) return err;
        }
      return {};
    }
    case Collective::reduce_scatter:
      // Rank r holds block r fully reduced.
      for (Rank r = 0; r < l.p; ++r) {
        err = check(r, r, reduced(r), all);
        if (!err.empty()) return err;
      }
      return {};
    case Collective::allreduce:
      // Everyone holds every block fully reduced.
      for (Rank r = 0; r < l.p; ++r)
        for (i64 b = 0; b < l.nblocks; ++b) {
          err = check(r, b, reduced(b), all);
          if (!err.empty()) return err;
        }
      return {};
    case Collective::alltoall: {
      // Rank r holds block (src, r) for every src.
      std::vector<RankSet> singles;
      singles.reserve(static_cast<size_t>(l.p));
      for (Rank s = 0; s < l.p; ++s) singles.push_back(RankSet::single(l.p, s));
      for (Rank r = 0; r < l.p; ++r)
        for (Rank src = 0; src < l.p; ++src) {
          const i64 id = src * l.p + r;
          err = check(r, id, initial(src, id), singles[static_cast<size_t>(src)]);
          if (!err.empty()) return err;
        }
      return {};
    }
  }
  return "unknown collective";
}

/// The failure message is built only on mismatch: the success path of a
/// verify touches no stream machinery (it runs once per slot, p * nblocks
/// times per collective).
inline std::string slot_failure(Rank holder, i64 id, const char* what) {
  std::ostringstream err;
  err << "rank " << holder << " block " << id << " " << what;
  return err.str();
}

/// Contributor sets are compared as raw bitset words, so the compiled
/// result's flat contributor array needs no per-slot RankSet materialization.
template <typename T>
std::string slot_diagnostic(Rank holder, i64 id, bool valid, std::span<const T> data,
                            std::span<const u64> contrib_words,
                            std::span<const T> expected_data,
                            const RankSet& expected_contrib) {
  if (!valid) return slot_failure(holder, id, "missing");
  if (!std::equal(data.begin(), data.end(), expected_data.begin(), expected_data.end()))
    return slot_failure(holder, id, "has wrong data");
  const std::span<const u64> expected_words = expected_contrib.words();
  if (!std::equal(contrib_words.begin(), contrib_words.end(), expected_words.begin(),
                  expected_words.end()))
    return slot_failure(holder, id, "has wrong contributor set");
  return {};
}

}  // namespace detail

/// Verify the final state of a reference execution against s.coll.
template <typename T>
std::string verify(const sched::Schedule& s, ReduceOp op,
                   std::span<const std::vector<T>> inputs, const ExecResult<T>& res) {
  return detail::verify_slots<T>(
      s.coll, BlockLayout::of(s), s.root, op, inputs,
      [&](Rank holder, i64 id, std::span<const T> expected_data,
          const RankSet& expected_contrib) {
        const BlockSlot<T>& slot =
            res.ranks[static_cast<size_t>(holder)].slots[static_cast<size_t>(id)];
        return detail::slot_diagnostic<T>(holder, id, slot.valid, slot.data,
                                          slot.contributors.words(), expected_data,
                                          expected_contrib);
      });
}

/// Verify the final state of a compiled execution against plan.coll.
template <typename T>
std::string verify(const ExecPlan& plan, ReduceOp op,
                   std::span<const std::vector<T>> inputs,
                   const CompiledExecResult<T>& res) {
  const BlockLayout layout{plan.space, plan.p, plan.nblocks, plan.elem_count};
  return detail::verify_slots<T>(
      plan.coll, layout, plan.root, op, inputs,
      [&](Rank holder, i64 id, std::span<const T> expected_data,
          const RankSet& expected_contrib) {
        const std::uint32_t c = plan.cell(holder, id);
        return detail::slot_diagnostic<T>(holder, id, res.valid[c] != 0, res.cell_data(c),
                                          res.cell_words(c), expected_data,
                                          expected_contrib);
      });
}

}  // namespace bine::runtime
