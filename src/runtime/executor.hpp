#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "runtime/reduction.hpp"
#include "sched/schedule.hpp"

/// In-process execution of a schedule over real per-rank buffers: the
/// library's substitute for an MPI job (see DESIGN.md, substitutions table).
///
/// Semantics are synchronous-step message passing: within a step, every send
/// reads the sender's *pre-step* state; all deliveries then apply together.
/// This matches the matched send/recv (sendrecv) structure of the paper's
/// algorithms, where each step is a communication round.
///
/// Besides the data itself, the executor tracks, per block, the *contributor
/// set*: which ranks' original inputs have been folded into the value. A
/// reduction that would fold the same contributor twice -- the correctness
/// hazard of Appendix C's non-power-of-two handling -- throws immediately.
///
/// Two engines implement these semantics (mirroring the simulator's split,
/// DESIGN.md):
///
///   * the *compiled* engine (runtime/compiled_executor.hpp) streams the flat
///     runtime::ExecPlan IR over flat state for the (rank, block) cells each
///     rank can hold, with flat contributor bitset words -- the default, and
///     the one harness::Runner drives;
///   * `execute_reference` in this header, which walks the Schedule's
///     canonical op order (sched::for_each_op_step_major), is retained as
///     the sequential oracle the parity suites compare the compiled engine
///     against -- its threaded path (`threads > 1`) included.
namespace bine::runtime {

/// Dynamic bitset over ranks, used for contributor tracking.
class RankSet {
 public:
  RankSet() = default;
  explicit RankSet(i64 p) : bits_(static_cast<size_t>((p + 63) / 64), 0), p_(p) {}

  static RankSet single(i64 p, Rank r) {
    RankSet s(p);
    s.add(r);
    return s;
  }
  static RankSet full(i64 p) {
    RankSet s(p);
    for (Rank r = 0; r < p; ++r) s.add(r);
    return s;
  }
  /// Wrap the flat word array the compiled executor tracks contributor sets
  /// in (one fixed-width run of (p+63)/64 words per block).
  static RankSet from_words(i64 p, std::span<const u64> words) {
    RankSet s(p);
    assert(words.size() == s.bits_.size());
    std::copy(words.begin(), words.end(), s.bits_.begin());
    return s;
  }

  void add(Rank r) { bits_[word(r)] |= bit(r); }
  [[nodiscard]] bool contains(Rank r) const { return (bits_[word(r)] & bit(r)) != 0; }
  [[nodiscard]] bool intersects(const RankSet& o) const {
    for (size_t i = 0; i < bits_.size(); ++i)
      if (bits_[i] & o.bits_[i]) return true;
    return false;
  }
  void merge(const RankSet& o) {
    for (size_t i = 0; i < bits_.size(); ++i) bits_[i] |= o.bits_[i];
  }
  [[nodiscard]] bool operator==(const RankSet& o) const = default;
  [[nodiscard]] i64 count() const {
    i64 n = 0;
    for (const u64 w : bits_) n += static_cast<i64>(__builtin_popcountll(w));
    return n;
  }
  [[nodiscard]] std::span<const u64> words() const { return bits_; }

 private:
  static size_t word(Rank r) { return static_cast<size_t>(r) / 64; }
  static u64 bit(Rank r) { return u64{1} << (static_cast<size_t>(r) % 64); }
  std::vector<u64> bits_;
  i64 p_ = 0;
};

/// Contents of one logical block slot at one rank.
template <typename T>
struct BlockSlot {
  std::vector<T> data;
  RankSet contributors;
  bool valid = false;
};

template <typename T>
struct RankState {
  std::vector<BlockSlot<T>> slots;  ///< indexed by logical block id
};

template <typename T>
struct ExecResult {
  std::vector<RankState<T>> ranks;
  i64 messages = 0;
  i64 wire_bytes = 0;
};

/// The block-id-to-elements mapping of one schedule: everything
/// `input_block`/`verify` need, shared between the Schedule path and
/// the compiled ExecPlan path (which has no Schedule to point at).
struct BlockLayout {
  sched::BlockSpace space = sched::BlockSpace::per_vector;
  i64 p = 0;
  i64 nblocks = 0;
  i64 elem_count = 0;

  [[nodiscard]] static BlockLayout of(const sched::Schedule& s) {
    return {s.space, s.p, s.nblocks, s.elem_count};
  }

  /// Element length of logical block `id`.
  [[nodiscard]] i64 block_len(i64 id) const {
    return space == sched::BlockSpace::per_vector
               ? sched::block_elems(id, elem_count, nblocks)
               : sched::block_elems(id % p, elem_count, p);
  }
};

namespace detail {

/// Logical block `id` as it sits in the inputs, before any step: a view of
/// rank `holder`'s input vector for per_vector space; for pairwise space
/// id = s*p + d views block d of sender s's send buffer.
template <typename T>
std::span<const T> input_block(const BlockLayout& l, std::span<const std::vector<T>> inputs,
                               Rank holder, i64 id) {
  using sched::block_elems;
  using sched::block_offset;
  const bool per_vector = l.space == sched::BlockSpace::per_vector;
  const i64 b = per_vector ? id : id % l.p;
  const i64 nb = per_vector ? l.nblocks : l.p;
  const auto& in = inputs[static_cast<size_t>(per_vector ? holder : id / l.p)];
  return {in.data() + block_offset(b, l.elem_count, nb),
          static_cast<size_t>(block_elems(b, l.elem_count, nb))};
}

}  // namespace detail

/// Initial per-rank block ownership for each collective (who holds which
/// blocks, with which contributor sets, before step 0).
template <typename T>
std::vector<RankState<T>> initial_state(const sched::Schedule& s,
                                        std::span<const std::vector<T>> inputs) {
  using sched::Collective;
  assert(static_cast<i64>(inputs.size()) == s.p);
  std::vector<RankState<T>> ranks(static_cast<size_t>(s.p));
  for (auto& rs : ranks) rs.slots.resize(static_cast<size_t>(s.nblocks));

  const BlockLayout layout = BlockLayout::of(s);
  auto fill = [&](Rank holder, i64 id, Rank contributor) {
    BlockSlot<T>& slot = ranks[static_cast<size_t>(holder)].slots[static_cast<size_t>(id)];
    const std::span<const T> in = detail::input_block(layout, inputs, contributor, id);
    slot.data.assign(in.begin(), in.end());
    slot.contributors = RankSet::single(s.p, contributor);
    slot.valid = true;
  };

  switch (s.coll) {
    case Collective::bcast:
    case Collective::scatter:
      // Only the root holds data (the whole vector).
      for (i64 b = 0; b < s.nblocks; ++b) fill(s.root, b, s.root);
      break;
    case Collective::reduce:
    case Collective::allreduce:
    case Collective::reduce_scatter:
      // Everyone holds a full private copy of the vector to be reduced.
      for (Rank r = 0; r < s.p; ++r)
        for (i64 b = 0; b < s.nblocks; ++b) fill(r, b, r);
      break;
    case Collective::gather:
    case Collective::allgather:
      // Rank r contributes block r.
      for (Rank r = 0; r < s.p; ++r) fill(r, r, r);
      break;
    case Collective::alltoall:
      // Rank r holds blocks (r, d) for every destination d.
      for (Rank r = 0; r < s.p; ++r)
        for (i64 d = 0; d < s.p; ++d) fill(r, r * s.p + d, r);
      break;
  }
  return ranks;
}

/// Run `schedule` over the given inputs, walking its canonical op order
/// (sched::for_each_op_step_major) op by op. Retained as the sequential
/// oracle for the compiled engine (runtime/compiled_executor.hpp). Throws
/// std::runtime_error on any semantic violation (an invalid schedule,
/// sending an invalid block, duplicated reduction contributions).
template <typename T>
ExecResult<T> execute_reference(const sched::Schedule& schedule, ReduceOp op,
                                std::span<const std::vector<T>> inputs) {
  if (const std::string err = schedule.validate(); !err.empty())
    throw std::runtime_error("invalid schedule: " + err);

  ExecResult<T> result;
  result.ranks = initial_state<T>(schedule, inputs);

  struct Message {
    std::vector<i64> ids;
    std::vector<BlockSlot<T>> payload;
  };

  // Each step is buffered, then run in two phases over its ops.
  std::vector<std::pair<Rank, sched::Op>> step_ops;
  std::unordered_map<std::uint32_t, Message> inflight;  // by exchange id
  sched::for_each_op_step_major(
      schedule, schedule.num_steps(),
      [&](Rank r, const sched::Op& opr) { step_ops.emplace_back(r, opr); },
      [&](size_t t) {
        // Phase 1: capture all sends from pre-step state.
        for (const auto& [r, opr] : step_ops) {
          if (opr.kind != sched::OpKind::send) continue;
          Message msg;
          msg.ids = opr.blocks.expand(schedule.nblocks);
          for (const i64 id : msg.ids) {
            const BlockSlot<T>& slot =
                result.ranks[static_cast<size_t>(r)].slots[static_cast<size_t>(id)];
            if (!slot.valid)
              throw std::runtime_error("step " + std::to_string(t) + ": rank " +
                                       std::to_string(r) + " sends invalid block " +
                                       std::to_string(id));
            msg.payload.push_back(slot);
          }
          result.messages += 1;
          result.wire_bytes += schedule.op_bytes(opr);
          inflight.emplace(opr.exchange, std::move(msg));
        }

        // Phase 2: deliver into receivers, in receiver order.
        for (const auto& [r, opr] : step_ops) {
          if (opr.kind != sched::OpKind::recv && opr.kind != sched::OpKind::recv_reduce)
            continue;
          const Message& msg = inflight.at(opr.exchange);
          for (size_t k = 0; k < msg.ids.size(); ++k) {
            const i64 id = msg.ids[k];
            BlockSlot<T>& slot =
                result.ranks[static_cast<size_t>(r)].slots[static_cast<size_t>(id)];
            const BlockSlot<T>& incoming = msg.payload[k];
            if (opr.kind == sched::OpKind::recv) {
              slot = incoming;
            } else {
              if (!slot.valid)
                throw std::runtime_error("step " + std::to_string(t) + ": rank " +
                                         std::to_string(r) + " reduce into invalid block " +
                                         std::to_string(id));
              if (slot.contributors.intersects(incoming.contributors))
                throw std::runtime_error("step " + std::to_string(t) + ": rank " +
                                         std::to_string(r) +
                                         " would fold duplicate contributions into block " +
                                         std::to_string(id));
              reduce_into<T>(op, slot.data, incoming.data);
              slot.contributors.merge(incoming.contributors);
            }
          }
        }
        step_ops.clear();
        inflight.clear();
      });
  return result;
}

}  // namespace bine::runtime
