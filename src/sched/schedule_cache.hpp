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
/// `SizeFreeSchedule` is the memoized artifact, and it is the size-free
/// net::simulate's input as it stands: the 16-byte op stream in the
/// canonical order (`for_each_op_step_major`, schedule.hpp; cost-free plain
/// recvs dropped) with no byte column at all. Each op names the *byte row*
/// holding its exchange's block ranges (a local_perm covers the whole
/// vector), and the simulator derives bytes for any (elem_count, elem_size)
/// from the rows. One cached entry therefore serves an entire message-size
/// sweep, and `from` is the only compile a schedule gets.
///
/// Each exchange of the Schedule's log -- a send plus its implied receive --
/// is interned once: its ranges are checked, hashed and stored as 8-byte
/// BlockRange32s in one CSR of content-distinct rows, and its send and a
/// matched recv_reduce both name that row and the exchange's schedule-local
/// pair id (`pair_keys` maps it back to from * p + to). Beyond the stream,
/// the entry carries an *execution overlay* of index columns: one record per
/// delivery (every receive-type op, plain recvs included -- the stream drops
/// them) holding the stream index of its send and a reduce flag, in the
/// canonical step-major/receiver order. The receiver and the sender come
/// from that send's pair key, the payload from its row.
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

  /// One costed op of the simulation stream: a send, a recv_reduce or a
  /// local_perm. `flags` holds its OpKind in the kKind bits, plus kBoundary
  /// on the first op of a rank group (its rank differs from the previous
  /// op's in the same step).
  struct StreamOp {
    static constexpr std::uint32_t kKind = 3u;
    static constexpr std::uint32_t kBoundary = 4u;
    std::uint32_t flags = 0;
    std::uint32_t pair = 0;  ///< send, recv_reduce: the exchange's pair id
    std::uint32_t row = 0;   ///< send, recv_reduce: the exchange's byte row
    std::int32_t extra = 0;  ///< lowered_extra_segments(op.segments)
    [[nodiscard]] OpKind kind() const noexcept { return static_cast<OpKind>(flags & kKind); }
    friend bool operator==(const StreamOp&, const StreamOp&) = default;
  };

  /// CSR over `ops`: ops of step t are [step_begin[t], step_begin[t+1]).
  std::vector<std::uint32_t> step_begin;
  /// Canonical order with plain recvs dropped.
  std::vector<StreamOp> ops;

  /// Byte row r covers ranges [row_begin[r], row_begin[r+1]) -- an owned
  /// copy, so entries outlive generator arenas. No two rows are equal.
  std::vector<std::uint32_t> row_begin;
  std::vector<BlockRange32> ranges;
  /// Pair id -> from * p + to, pairs numbered in first-touch stream order.
  std::vector<u64> pair_keys;

  // --- execution overlay ---------------------------------------------------
  // One record per delivery (receive-type op: recv AND recv_reduce), in
  // canonical step-major / receiver-grouped order with the receiver's op
  // order preserved -- the ordering the reference executor's delivery
  // semantics depend on. A delivery stores only the stream index of its
  // send: the receiver and sender are that send's pair, the payload its row.
  std::vector<std::uint32_t> delivery_step_begin;  ///< CSR per step
  std::vector<std::uint32_t> delivery_send;        ///< stream index of the send
  std::vector<std::uint8_t> delivery_reduce;       ///< 1 = recv_reduce

  /// Type-erased slot for the one derived artifact a higher layer caches on
  /// the entry: runtime::ExecPlan's finalized `ExecSkeleton`. Built once
  /// under the slot mutex on first use, then shared by every later hit; the
  /// sched layer stays runtime-agnostic. Held by unique_ptr so the entry
  /// remains movable; mutable because entries are only ever reached as
  /// shared_ptr<const>.
  struct DerivedSlot {
    std::mutex mutex;
    std::shared_ptr<const void> value;
  };
  mutable std::unique_ptr<DerivedSlot> derived = std::make_unique<DerivedSlot>();

  [[nodiscard]] size_t num_ops() const noexcept { return ops.size(); }
  [[nodiscard]] size_t num_rows() const noexcept { return row_begin.size() - 1; }
  /// Every exchange delivers exactly once, so this also counts the sends.
  [[nodiscard]] size_t num_deliveries() const noexcept { return delivery_send.size(); }

  /// Block ranges of byte row `r`.
  [[nodiscard]] std::span<const BlockRange32> row_ranges(std::uint32_t r) const {
    return {ranges.data() + row_begin[r], ranges.data() + row_begin[r + 1]};
  }
  /// Sender and receiver of pair `id`.
  [[nodiscard]] Rank pair_from(std::uint32_t id) const noexcept {
    return static_cast<Rank>(pair_keys[id] / static_cast<u64>(p));
  }
  [[nodiscard]] Rank pair_to(std::uint32_t id) const noexcept {
    return static_cast<Rank>(pair_keys[id] % static_cast<u64>(p));
  }

  /// Capacity in bytes of every column above (the derived slot excluded):
  /// what the entry keeps resident.
  [[nodiscard]] size_t resident_bytes() const noexcept;

  /// Compile `s` into size-free form (its vector config is not read): one
  /// pass over the exchange log interns rows and numbers pairs, one walk of
  /// `s.op_order()` emits the stream and the overlay. Throws
  /// std::length_error when p, nblocks, a block range or a column offset
  /// does not fit the 32-bit columns, and std::invalid_argument for a block
  /// range outside the block space (sched::range_in_space).
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
