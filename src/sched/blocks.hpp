#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/types.hpp"

/// Block bookkeeping for collective schedules.
///
/// A collective on a vector of `n` elements over `B` blocks assigns block `b`
/// the contiguous element range [offset(b), offset(b+1)), with sizes differing
/// by at most one element (the usual MPI convention for non-divisible counts).
///
/// Storage model: a `BlockSet` is a *value* of at most two inline
/// `BlockRange`s -- which covers every single/run/all literal and every
/// circularly-merged pair -- or, for larger sets, a span into a
/// `ScheduleArena` owned by the schedule under construction. Copying a
/// BlockSet never allocates: schedule generation used to perform one heap
/// allocation per op (the per-op `std::vector<BlockRange>`); with the arena
/// it performs O(1) allocations per *schedule* (amortized chunk growth).
namespace bine::sched {

/// First element of block `b` when `n` elements are split into `B` blocks.
[[nodiscard]] constexpr i64 block_offset(i64 b, i64 n, i64 B) noexcept {
  assert(b >= 0 && b <= B && B > 0);
  const i64 base = n / B, extra = n % B;
  return b * base + (b < extra ? b : extra);
}

/// Number of elements in block `b`.
[[nodiscard]] constexpr i64 block_elems(i64 b, i64 n, i64 B) noexcept {
  return block_offset(b + 1, n, B) - block_offset(b, n, B);
}

/// A circular run of `count` consecutive block ids starting at `begin`
/// (indices taken mod B). count in [0, B]. A run with begin + count > B
/// wraps past B-1 (the paper's "Two Transmissions" effect, Sec. 4.3.1).
struct BlockRange {
  i64 begin = 0;
  i64 count = 0;
  friend bool operator==(const BlockRange&, const BlockRange&) = default;
};

/// True when `r` lies in a space of `B` blocks: begin in [0, B), count in
/// [0, B]. Schedule::validate and SizeFreeSchedule::from reject any other
/// range; ranges_elem_count and the executors assume none reaches them.
[[nodiscard]] constexpr bool range_in_space(const BlockRange& r, i64 B) noexcept {
  return r.begin >= 0 && r.begin < B && r.count >= 0 && r.count <= B;
}

/// The cached form of a BlockRange (sched::SizeFreeSchedule): 8 bytes
/// instead of 16. Every begin and count lies in [0, nblocks], and
/// nblocks <= p^2 fits for p < 65536; SizeFreeSchedule::from rejects
/// anything wider.
struct BlockRange32 {
  std::uint32_t begin = 0;
  std::uint32_t count = 0;
  friend bool operator==(const BlockRange32&, const BlockRange32&) = default;
};

/// Bump allocator backing BlockSet range storage for one schedule build.
///
/// Spans handed out by `alloc`/`intern` are stable for the arena's lifetime:
/// storage grows by whole chunks (doubling, never relocating), so a
/// `BlockSet` captured into an `Op` stays valid while the owning `Schedule`
/// (which holds the arena via shared_ptr) is alive. `retain` lets a schedule
/// that splices ops from another schedule (coll::sequence) keep that donor's
/// arena alive without re-interning every range.
class ScheduleArena {
 public:
  ScheduleArena() = default;
  ScheduleArena(const ScheduleArena&) = delete;
  ScheduleArena& operator=(const ScheduleArena&) = delete;

  /// Uninitialized stable storage for `n` ranges.
  [[nodiscard]] BlockRange* alloc(size_t n) {
    if (n == 0) return nullptr;
    if (cap_ - used_ < n) grow(n);
    BlockRange* out = chunks_.back().get() + used_;
    used_ += n;
    total_ += n;
    return out;
  }

  /// Copy `rs` into the arena; the returned span never moves.
  [[nodiscard]] std::span<const BlockRange> intern(std::span<const BlockRange> rs) {
    BlockRange* dst = alloc(rs.size());
    std::copy(rs.begin(), rs.end(), dst);
    return {dst, rs.size()};
  }

  /// Keep `dep` alive as long as this arena: used when ops referencing
  /// another schedule's arena are spliced into a schedule using this one.
  void retain(std::shared_ptr<const ScheduleArena> dep) {
    if (dep && dep.get() != this) retained_.push_back(std::move(dep));
  }

  /// Total ranges ever allocated (diagnostics / tests).
  [[nodiscard]] size_t ranges_allocated() const noexcept { return total_; }
  /// Number of chunk allocations performed (tests assert this stays O(log n)).
  [[nodiscard]] size_t chunk_count() const noexcept { return chunks_.size(); }

 private:
  void grow(size_t n) {
    const size_t cap = std::max(n, chunks_.empty() ? kMinChunk : cap_ * 2);
    chunks_.push_back(std::make_unique<BlockRange[]>(cap));
    cap_ = cap;
    used_ = 0;
  }

  static constexpr size_t kMinChunk = 512;
  std::vector<std::unique_ptr<BlockRange[]>> chunks_;
  size_t cap_ = 0;   ///< capacity of the last chunk
  size_t used_ = 0;  ///< ranges used in the last chunk
  size_t total_ = 0;
  std::vector<std::shared_ptr<const ScheduleArena>> retained_;
};

/// Total elements covered by `rs` when `n` elements are split into `B`
/// blocks. O(#ranges). Shared by BlockSet::elem_count and the ScheduleCache's
/// per-size byte resolution (over BlockRange32), so cached schedules
/// reproduce generation's byte arithmetic bit-exactly.
template <class Range>
[[nodiscard]] inline i64 ranges_elem_count(std::span<const Range> rs, i64 n,
                                           i64 B) noexcept {
  i64 total = 0;
  for (const Range& r : rs) {
    const i64 begin = r.begin, count = r.count;
    const i64 head = std::min(count, B - begin);
    total += block_offset(begin + head, n, B) - block_offset(begin, n, B);
    const i64 tail = count - head;  // wrapped part, restarting at block 0
    if (tail > 0) total += block_offset(tail, n, B);
  }
  return total;
}

/// An ordered set of disjoint circular block ranges (see storage model above).
class BlockSet {
 public:
  BlockSet() = default;

  [[nodiscard]] static BlockSet single(i64 block) noexcept {
    return BlockSet(BlockRange{block, 1});
  }
  [[nodiscard]] static BlockSet run(i64 begin, i64 count) noexcept {
    return BlockSet(BlockRange{begin, count});
  }
  [[nodiscard]] static BlockSet all(i64 B) noexcept { return BlockSet(BlockRange{0, B}); }

  /// Wrap `rs`: inline when it fits, else an arena-interned copy.
  [[nodiscard]] static BlockSet from_ranges(std::span<const BlockRange> rs,
                                            ScheduleArena& arena) {
    BlockSet out;
    out.size_ = static_cast<i64>(rs.size());
    if (rs.size() <= kInline) {
      std::copy(rs.begin(), rs.end(), out.inline_);
    } else {
      out.ext_ = arena.intern(rs).data();
    }
    return out;
  }

  [[nodiscard]] std::span<const BlockRange> ranges() const noexcept {
    return {ext_ ? ext_ : inline_, static_cast<size_t>(size_)};
  }

  /// True when the ranges live in an arena span, which every copy of this
  /// value shares: equal addresses then mean equal contents.
  [[nodiscard]] bool in_arena() const noexcept { return ext_ != nullptr; }

  [[nodiscard]] i64 block_count() const noexcept {
    i64 total = 0;
    for (const BlockRange& r : ranges()) total += r.count;
    return total;
  }

  [[nodiscard]] bool empty() const noexcept { return block_count() == 0; }

  /// Number of contiguous *memory* segments the set occupies when blocks are
  /// laid out in id order: a circular run that wraps past B-1 splits in two.
  [[nodiscard]] i64 memory_segments(i64 B) const noexcept {
    i64 segs = 0;
    for (const BlockRange& r : ranges()) {
      if (r.count == 0) continue;
      segs += (r.begin + r.count > B && r.count < B) ? 2 : 1;
    }
    return segs;
  }

  /// Materialize the block ids in range order.
  [[nodiscard]] std::vector<i64> expand(i64 B) const {
    std::vector<i64> ids;
    ids.reserve(static_cast<size_t>(block_count()));
    for (const BlockRange& r : ranges())
      for (i64 k = 0; k < r.count; ++k) ids.push_back(pmod(r.begin + k, B));
    return ids;
  }

  /// Total elements covered when `n` elements are split into `B` blocks.
  /// O(#ranges), not O(#blocks).
  [[nodiscard]] i64 elem_count(i64 n, i64 B) const {
    return ranges_elem_count(ranges(), n, B);
  }

 private:
  explicit BlockSet(BlockRange r) noexcept : size_(1) { inline_[0] = r; }

  static constexpr size_t kInline = 2;
  const BlockRange* ext_ = nullptr;  ///< arena-backed when size_ > kInline
  BlockRange inline_[kInline]{};
  i64 size_ = 0;
};

/// Build a BlockSet from an arbitrary list of distinct ids: sorts them and
/// coalesces consecutive runs, joining circularly across the B-1/0 boundary
/// (a sorted run ending at B-1 and one starting at 0 become one wrapped
/// range). Ranges that don't fit inline are interned into `arena`, which must
/// outlive the returned set (generators pass their schedule's arena).
[[nodiscard]] BlockSet blockset_from_ids(std::vector<i64> ids, i64 B,
                                         ScheduleArena& arena);

/// Build a BlockSet from disjoint circular ranges (begin taken mod B): the
/// same canonical set blockset_from_ids gives for their expansion, in
/// O(#ranges) for presorted input (one sort of the pieces otherwise).
/// Generators whose sets are a few intervals use this instead of listing ids.
[[nodiscard]] BlockSet blockset_from_ranges(std::span<const BlockRange> ranges, i64 B,
                                            ScheduleArena& arena);

}  // namespace bine::sched
