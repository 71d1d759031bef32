#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sched/schedule.hpp"

/// Size-independent schedule memoization: the generation fast path.
///
/// Schedule *structure* -- steps, peers, block sets, segment counts -- is a
/// pure function of (algorithm, collective, p, root, torus_dims) by
/// construction: ops carry no byte counts, and `Schedule::op_bytes` derives
/// them from blocks (see schedule.hpp). The evaluation grids exploit none of
/// that when every (collective, algorithm, nodes, size) cell regenerates its
/// BlockSet-heavy schedule from scratch, and with the simulator compiled
/// generation dominates sweep wall time.
///
/// `SizeFreeSchedule` is the memoized artifact: a flat structure-of-arrays
/// op stream in the canonical order (`for_each_op_step_major`, schedule.hpp;
/// cost-free plain recvs dropped) with no byte column at all -- each op names the *exchange*
/// whose block ranges it covers instead (a local_perm covers the whole
/// vector), and the size-free net::simulate derives bytes for any
/// (elem_count, elem_size) from them. One cached entry therefore serves an
/// entire message-size sweep.
///
/// Each exchange of the Schedule's log -- a send plus its implied receive --
/// stores its block ranges exactly once, as 8-byte
/// BlockRange32s in one CSR: the send and a matched recv_reduce in the
/// simulation stream reference the same span. Beyond the simulation
/// columns, the entry carries an *execution overlay* of index columns: one
/// record per delivery (every receive-type op, plain recvs included -- the
/// simulation stream drops them) holding the stream index of its send and a
/// reduce flag, in the canonical step-major/receiver order. The receiver,
/// the sender and the payload all come from that send.
/// runtime::ExecPlan::from_size_free consumes it, which is how the runtime
/// executor and the verification harness run off the same cached artifact as
/// the simulator (DESIGN.md has the full pipeline).
///
/// Bytes at any size come from the *same* integer arithmetic
/// `Schedule::op_bytes` runs, so simulating a cached entry and simulating a
/// freshly generated Schedule at that size are bit-exact -- which the
/// registry-wide parity test (test_schedule_cache) asserts at sizes from p
/// elements to 2^27. A miss therefore generates once, with no runtime
/// structure check.
namespace bine::sched {

/// Size-independent compiled form of one schedule (see file comment).
struct SizeFreeSchedule {
  i64 p = 0;
  i64 nblocks = 0;
  BlockSpace space = BlockSpace::per_vector;
  size_t steps = 0;
  /// Every entry is size-independent by construction (ops carry no bytes).
  static constexpr bool size_independent = true;

  /// CSR over the op arrays: ops of step t are [step_begin[t], step_begin[t+1]).
  std::vector<std::uint32_t> step_begin;

  // One entry per op, in canonical order with plain recvs dropped.
  std::vector<OpKind> kind;
  std::vector<std::int32_t> rank;
  std::vector<std::int32_t> peer;
  std::vector<std::int32_t> extra_segments;  ///< lowered_extra_segments(op)
  /// The op's exchange: sends and recv_reduces cover its ranges. A
  /// local_perm holds kNoExchange and covers the whole vector.
  std::vector<std::uint32_t> exchange;

  /// Exchange e covers ranges [range_begin[e], range_begin[e+1]) -- an owned
  /// copy, so entries outlive generator arenas. Exchanges are numbered in
  /// the stream order of their sends.
  std::vector<std::uint32_t> range_begin;
  std::vector<BlockRange32> ranges;

  // --- execution overlay ---------------------------------------------------
  // One record per delivery (receive-type op: recv AND recv_reduce), in
  // canonical step-major / receiver-grouped order with the receiver's op
  // order preserved -- the ordering the reference executor's delivery
  // semantics depend on. A delivery stores only the stream index of its
  // send: the receiver is that send's peer, the sender its rank, and the
  // payload its exchange's ranges.
  std::vector<std::uint32_t> delivery_step_begin;  ///< CSR per step
  std::vector<std::uint32_t> delivery_send;        ///< stream index of the send
  std::vector<std::uint8_t> delivery_reduce;       ///< 1 = recv_reduce

  /// Type-erased slot for derived artifacts a higher layer caches on the
  /// entry (runtime::ExecPlan's finalized skeleton). Built once under the
  /// slot mutex on first use, then shared by every later hit; the sched
  /// layer stays runtime-agnostic. Held by unique_ptr so the entry remains
  /// movable; mutable because entries are only ever reached as
  /// shared_ptr<const>.
  struct DerivedSlot {
    std::mutex mutex;
    std::shared_ptr<const void> value;
  };
  mutable std::unique_ptr<DerivedSlot> derived = std::make_unique<DerivedSlot>();
  /// Second derived slot, used by the simulator's size-batched engine for
  /// its compiled op/byte-row form (the size-free net::simulate). Separate
  /// from `derived` so the runtime skeleton and the simulation compile can
  /// both live on one entry without evicting each other.
  mutable std::unique_ptr<DerivedSlot> sim_derived = std::make_unique<DerivedSlot>();

  [[nodiscard]] size_t num_ops() const noexcept { return kind.size(); }
  [[nodiscard]] size_t num_exchanges() const noexcept { return range_begin.size() - 1; }
  [[nodiscard]] size_t num_deliveries() const noexcept { return delivery_send.size(); }

  /// Block ranges of exchange `e`.
  [[nodiscard]] std::span<const BlockRange32> exchange_ranges(std::uint32_t e) const {
    return {ranges.data() + range_begin[e], ranges.data() + range_begin[e + 1]};
  }

  /// Capacity in bytes of every column above (derived slots excluded):
  /// what the entry keeps resident.
  [[nodiscard]] size_t resident_bytes() const noexcept;

  /// Compile `s` into size-free form (its vector config is not read): one
  /// counting sort of its log into the canonical order, then the column
  /// fill. Throws std::length_error when p, nblocks, a block range or a
  /// column offset does not fit the 32-bit columns, and
  /// std::invalid_argument for a block range outside the block space
  /// (sched::range_in_space).
  [[nodiscard]] static SizeFreeSchedule from(const Schedule& s);
};

/// Key of one memoized schedule: the registry algorithm name plus every
/// Config knob that shapes structure. elem_count/elem_size are deliberately
/// absent -- that is the point of the cache. `fault_epoch` partitions the
/// table by fault model (fault::FaultSpec::fingerprint(); 0 = healthy): a
/// Runner whose fault spec changes -- or two Runners with different specs in
/// one process -- can never be served a schedule cached under another
/// machine state, and the fault-free key is unchanged.
struct ScheduleKey {
  Collective coll{};
  std::string algorithm;
  i64 p = 0;
  Rank root = 0;
  std::vector<i64> torus_dims;
  u64 fault_epoch = 0;
};

/// Non-owning view of a ScheduleKey, so the cache hit path can look an entry
/// up straight from a Runner's (name, config) without materializing the
/// string/vector copies a ScheduleKey costs. Only a miss pays for the owned
/// key.
struct ScheduleKeyView {
  Collective coll{};
  std::string_view algorithm;
  i64 p = 0;
  Rank root = 0;
  std::span<const i64> torus_dims;
  u64 fault_epoch = 0;

  ScheduleKeyView() = default;
  ScheduleKeyView(Collective c, std::string_view algo, i64 ranks, Rank rt,
                  std::span<const i64> dims, u64 epoch = 0)
      : coll(c), algorithm(algo), p(ranks), root(rt), torus_dims(dims),
        fault_epoch(epoch) {}
  ScheduleKeyView(const ScheduleKey& k)  // NOLINT(google-explicit-constructor)
      : coll(k.coll), algorithm(k.algorithm), p(k.p), root(k.root),
        torus_dims(k.torus_dims), fault_epoch(k.fault_epoch) {}

  [[nodiscard]] ScheduleKey materialize() const {
    return {coll, std::string(algorithm), p, root,
            std::vector<i64>(torus_dims.begin(), torus_dims.end()), fault_epoch};
  }
};

/// Transparent strict-weak order over ScheduleKey/ScheduleKeyView mixes:
/// lookups with a view never construct a key.
struct ScheduleKeyLess {
  using is_transparent = void;
  [[nodiscard]] static bool less(const ScheduleKeyView& a, const ScheduleKeyView& b) {
    if (a.coll != b.coll) return a.coll < b.coll;
    if (a.p != b.p) return a.p < b.p;
    if (a.root != b.root) return a.root < b.root;
    if (a.fault_epoch != b.fault_epoch) return a.fault_epoch < b.fault_epoch;
    if (const int c = a.algorithm.compare(b.algorithm); c != 0) return c < 0;
    return std::lexicographical_compare(a.torus_dims.begin(), a.torus_dims.end(),
                                        b.torus_dims.begin(), b.torus_dims.end());
  }
  template <class A, class B>
  [[nodiscard]] bool operator()(const A& a, const B& b) const {
    return less(ScheduleKeyView(a), ScheduleKeyView(b));
  }
};

[[nodiscard]] inline bool operator<(const ScheduleKey& a, const ScheduleKey& b) {
  return ScheduleKeyLess::less(a, b);
}

/// Thread-safe memo table. Concurrent misses on the same key may both run
/// `build` (outside the lock, so workers never serialize on generation); the
/// generators are pure functions of the key, so whichever entry lands first
/// is identical to the loser's -- sweep output stays deterministic for any
/// BINE_THREADS. Hits take only a shared lock (reads never contend with each
/// other) and hit/miss counters are atomics, so the steady-state sweep path
/// is copy- and contention-free.
class ScheduleCache {
 public:
  /// Generator hook: build the schedule for the key (every config knob fixed
  /// by it). Called exactly once per miss and never on a hit. The argument
  /// only sizes the built Schedule's derived byte view (`op_bytes`); the
  /// entry does not depend on it.
  using Builder = std::function<Schedule(i64 elem_count)>;

  /// The cached entry for `key`, building it on first use.
  /// Exceptions from `build` propagate and cache nothing.
  [[nodiscard]] std::shared_ptr<const SizeFreeSchedule> get(const ScheduleKeyView& key,
                                                            const Builder& build);
  [[nodiscard]] std::shared_ptr<const SizeFreeSchedule> get(const ScheduleKey& key,
                                                            const Builder& build) {
    return get(ScheduleKeyView(key), build);
  }

  struct Stats {
    u64 hits = 0;
    u64 misses = 0;
    u64 entries = 0;  ///< entries held
    u64 bytes = 0;    ///< sum of their SizeFreeSchedule::resident_bytes()
  };
  [[nodiscard]] Stats stats() const;
  void clear();

 private:
  mutable std::shared_mutex mutex_;
  std::map<ScheduleKey, std::shared_ptr<const SizeFreeSchedule>, ScheduleKeyLess>
      entries_;
  mutable std::atomic<u64> hits_{0};
  std::atomic<u64> misses_{0};
  u64 bytes_ = 0;  ///< guarded by mutex_
};

/// The process-wide cache instance. Schedule structure is a pure function of
/// the key -- no Runner-, profile- or topology-specific state leaks into it --
/// so every Runner (and the table benches' many Runners) shares one table:
/// the second Runner in a process starts hot. It is the only cache a Runner
/// uses, always on; `clear()` gives a cold start (benches, tests).
[[nodiscard]] ScheduleCache& process_schedule_cache();

}  // namespace bine::sched
