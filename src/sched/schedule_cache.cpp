#include "sched/schedule_cache.hpp"

#include <algorithm>
#include <limits>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/fnv.hpp"

namespace bine::sched {

namespace {

/// Largest count a 32-bit column may hold: ids stay below the kNoExchange
/// sentinel.
constexpr u64 kMaxCount = 0xfffffffeu;

void check_count(u64 n, const char* what) {
  if (n > kMaxCount)
    throw std::length_error(std::string("SizeFreeSchedule: ") + what + " " +
                            std::to_string(n) + " does not fit a 32-bit column");
}

[[nodiscard]] std::uint32_t narrow32(i64 v, const char* what) {
  if (v < 0 || v > i64{0xffffffff})
    throw std::length_error(std::string("SizeFreeSchedule: ") + what + " " +
                            std::to_string(v) + " does not fit 32 bits");
  return static_cast<std::uint32_t>(v);
}

/// A range of the send `from`->`to` at `step` must fit the 32-bit columns
/// (std::length_error) and lie in the block space (std::invalid_argument).
void check_range(const BlockRange& br, i64 nblocks, size_t step, Rank from, Rank to) {
  if (br.begin > 0) (void)narrow32(br.begin, "range begin");
  if (br.count > 0) (void)narrow32(br.count, "range count");
  if (!range_in_space(br, nblocks))
    throw std::invalid_argument("SizeFreeSchedule: step " + std::to_string(step) + ": " +
                                std::to_string(from) + "->" + std::to_string(to) +
                                " block range " + std::to_string(br.begin) + "+" +
                                std::to_string(br.count) + " outside " +
                                std::to_string(nblocks) + " blocks");
}

/// Content-interning of exchange byte rows into the entry's row CSR: an
/// open-addressing table over range-content hashes, resolved by exact
/// compare against the stored row. Each slot keeps the hash's low half next
/// to the row id, so most probes never leave the table and growth never
/// rehashes content. Schedules are SPMD-symmetric -- across ranks and steps
/// the same few block shapes recur -- so rows mostly number orders of
/// magnitude below exchanges.
class RowInterner {
 public:
  RowInterner(std::vector<std::uint32_t>& row_begin, std::vector<BlockRange32>& ranges)
      : row_begin_(row_begin), ranges_(ranges) {
    row_begin_.push_back(0);
  }

  /// Row id of `rs`, whose content hashes to `h`; appends a new row.
  std::uint32_t intern(std::span<const BlockRange> rs, u64 h) {
    const auto tag = static_cast<std::uint32_t>(h);
    size_t idx = tag & (table_.size() - 1);
    for (; table_[idx] != 0; idx = (idx + 1) & (table_.size() - 1)) {
      if (static_cast<std::uint32_t>(table_[idx] >> 32) != tag) continue;
      const auto r = static_cast<std::uint32_t>(table_[idx]) - 1;
      const std::span<const BlockRange32> have{ranges_.data() + row_begin_[r],
                                               ranges_.data() + row_begin_[r + 1]};
      if (std::equal(have.begin(), have.end(), rs.begin(), rs.end(),
                     [](const BlockRange32& a, const BlockRange& b) {
                       return a.begin == b.begin && a.count == b.count;
                     }))
        return r;
    }
    const auto r = static_cast<std::uint32_t>(row_begin_.size() - 1);
    for (const BlockRange& br : rs)
      ranges_.push_back(
          {static_cast<std::uint32_t>(br.begin), static_cast<std::uint32_t>(br.count)});
    row_begin_.push_back(static_cast<std::uint32_t>(ranges_.size()));
    table_[idx] = static_cast<u64>(tag) << 32 | (r + 1);
    if (2 * (r + 1) > table_.size()) grow();
    return r;
  }

 private:
  void grow() {
    std::vector<u64> old(2 * table_.size(), 0);
    old.swap(table_);
    for (const u64 slot : old) {
      if (slot == 0) continue;
      size_t idx = static_cast<size_t>(slot >> 32) & (table_.size() - 1);
      while (table_[idx] != 0) idx = (idx + 1) & (table_.size() - 1);
      table_[idx] = slot;
    }
  }

  std::vector<std::uint32_t>& row_begin_;
  std::vector<BlockRange32>& ranges_;
  std::vector<u64> table_ = std::vector<u64>(1024, 0);  ///< tag << 32 | row + 1
};

/// The 64-bit content hash of a range list that RowInterner keys on.
[[nodiscard]] u64 ranges_hash(std::span<const BlockRange> rs) {
  u64 h = core::kFnvOffset;
  for (const BlockRange& br : rs)
    h = (h ^ (static_cast<u64>(br.begin) << 32 | static_cast<u64>(br.count))) *
        core::kFnvPrime;
  h ^= h >> 33;  // fold the high bits into the table index's low ones
  h *= 0xff51afd7ed558ccdull;
  return h ^ (h >> 33);
}

}  // namespace

SizeFreeSchedule SizeFreeSchedule::from(const Schedule& s) {
  SizeFreeSchedule out;
  out.p = s.p;
  out.nblocks = s.nblocks;
  out.space = s.space;
  out.steps = s.num_steps();
  if (s.p > std::numeric_limits<std::int32_t>::max())
    throw std::length_error("SizeFreeSchedule: p " + std::to_string(s.p) +
                            " does not fit a 32-bit rank column");
  (void)narrow32(s.nblocks, "nblocks");

  const std::vector<Exchange>& log = s.exchanges();
  const size_t np = static_cast<size_t>(s.p);
  check_count(log.size(), "exchange count");

  std::vector<std::uint32_t> send_begin(np + 1, 0);
  u64 num_reduces = 0, log_ranges = 0;
  for (const Exchange& x : log) {
    ++send_begin[static_cast<size_t>(x.from) + 1];
    num_reduces += x.reduce ? 1 : 0;
    log_ranges += x.blocks.ranges().size();
  }
  const u64 num_ops = log.size() + num_reduces + s.locals().size();
  check_count(num_ops, "op count");
  check_count(log_ranges, "block range count");

  // Pairs: the sends bucketed by rank, in log order, find each rank's
  // distinct peers through one p-sized stamp table reused for every rank.
  struct ExchangeIds {
    std::uint32_t row, pair;
  };
  std::vector<ExchangeIds> ids(log.size(), {kNoExchange, 0});
  std::vector<u64> keys;  // distinct pairs, by sender rank
  {
    for (size_t r = 0; r < np; ++r) send_begin[r + 1] += send_begin[r];
    std::vector<std::uint32_t> by_from(log.size());
    std::vector<std::uint32_t> next(send_begin.begin(), send_begin.end() - 1);
    for (std::uint32_t e = 0; e < log.size(); ++e) by_from[next[log[e].from]++] = e;
    std::vector<std::uint32_t> stamp(np, kNoExchange), id(np);
    for (size_t r = 0; r < np; ++r)
      for (std::uint32_t k = send_begin[r]; k < send_begin[r + 1]; ++k) {
        const auto to = static_cast<size_t>(log[by_from[k]].to);
        if (stamp[to] != r) {
          stamp[to] = static_cast<std::uint32_t>(r);
          id[to] = static_cast<std::uint32_t>(keys.size());
          keys.push_back(static_cast<u64>(r) * np + to);
        }
        ids[by_from[k]].pair = id[to];
      }
  }

  // The stream and the overlay, in the shared canonical order
  // (schedule.hpp): the stream must visit ops exactly as the scalar oracle
  // over the Schedule does, and the overlay must replay the reference
  // executor's delivery order. An exchange's ranges are checked, hashed and
  // interned, and its pair numbered, when the stream first reaches it (its
  // send, or a recv_reduce ahead of it): rows and pairs number in
  // first-touch order, so the simulator walks their tables nearly in
  // sequence. Reserving the rows' upper bound maps address space, not
  // pages; the closing shrink copies only what interning kept. A delivery
  // first records its exchange, which becomes its send's stream index once
  // every send is placed.
  out.row_begin.reserve(log.size() + 1);
  out.ranges.reserve(log_ranges);
  out.pair_keys.reserve(keys.size());
  RowInterner rows(out.row_begin, out.ranges);
  std::vector<std::uint32_t> pair_at(keys.size(), kNoExchange);
  // Rows of the arena spans already interned, by address. An arena span is
  // immutable and every copy of its BlockSet shares it, so a span seen
  // before names its row with no check, hash or compare. Generators hand
  // one set to many exchanges (the butterflies share each distinct set,
  // coll/butterfly_colls.cpp). The first exchange to carry a span checks
  // it, so an error names the same exchange whether or not others share it.
  std::unordered_map<const BlockRange*, std::uint32_t> span_rows;
  const auto row_of = [&](const Exchange& x) {
    const std::span<const BlockRange> rs = x.blocks.ranges();
    if (x.blocks.in_arena())
      if (const auto it = span_rows.find(rs.data()); it != span_rows.end()) return it->second;
    for (const BlockRange& br : rs) check_range(br, s.nblocks, x.step, x.from, x.to);
    const std::uint32_t row = rows.intern(rs, ranges_hash(rs));
    if (x.blocks.in_arena()) span_rows.emplace(rs.data(), row);
    return row;
  };
  const auto first_touch = [&](const Exchange& x, ExchangeIds& xi) {
    xi.row = row_of(x);
    std::uint32_t& at = pair_at[xi.pair];
    if (at == kNoExchange) {
      at = static_cast<std::uint32_t>(out.pair_keys.size());
      out.pair_keys.push_back(keys[xi.pair]);
    }
    xi.pair = at;
  };

  const Schedule::OpOrder order = s.op_order();
  const auto first_local = static_cast<std::uint32_t>(2 * log.size());
  out.step_begin.assign(out.steps + 1, 0);
  out.delivery_step_begin.assign(out.steps + 1, 0);
  out.ops.reserve(num_ops);
  out.delivery_send.reserve(log.size());
  out.delivery_reduce.reserve(log.size());
  std::vector<std::uint32_t> send_at(log.size());
  for (size_t t = 0; t < out.steps; ++t) {
    Rank last = -1;
    const auto push_op = [&](OpKind kind, Rank rank, ExchangeIds xi, i64 segments) {
      out.ops.push_back({static_cast<std::uint32_t>(kind) |
                             (rank != last ? StreamOp::kBoundary : 0u),
                         xi.pair, xi.row, lowered_extra_segments(segments)});
      last = rank;
    };
    for (std::uint32_t i = order.step_begin[t]; i < order.step_begin[t + 1]; ++i) {
      const std::uint32_t h = order.halves[i];
      if (h >= first_local) {
        const LocalOp& l = s.locals()[h - first_local];
        push_op(OpKind::local_perm, l.rank, {0, 0}, l.segments);
        continue;
      }
      const std::uint32_t e = h / 2;
      const Exchange& x = log[e];
      if (h % 2 == 0) {
        if (ids[e].row == kNoExchange) first_touch(x, ids[e]);
        send_at[e] = static_cast<std::uint32_t>(out.ops.size());
        push_op(OpKind::send, x.from, ids[e], x.segments);
        continue;
      }
      out.delivery_send.push_back(e);
      out.delivery_reduce.push_back(x.reduce ? 1 : 0);
      if (!x.reduce) continue;  // a plain recv is cost-free: not streamed
      if (ids[e].row == kNoExchange) first_touch(x, ids[e]);
      push_op(OpKind::recv_reduce, x.to, ids[e], x.segments);
    }
    out.step_begin[t + 1] = static_cast<std::uint32_t>(out.ops.size());
    out.delivery_step_begin[t + 1] = static_cast<std::uint32_t>(out.delivery_send.size());
  }
  for (std::uint32_t& d : out.delivery_send) d = send_at[d];
  out.row_begin.shrink_to_fit();
  out.ranges.shrink_to_fit();
  return out;
}

size_t SizeFreeSchedule::resident_bytes() const noexcept {
  const auto bytes = [](const auto& v) { return v.capacity() * sizeof(v[0]); };
  return bytes(step_begin) + bytes(ops) + bytes(row_begin) + bytes(ranges) +
         bytes(pair_keys) + bytes(delivery_step_begin) + bytes(delivery_send) +
         bytes(delivery_reduce);
}

std::shared_ptr<const SizeFreeSchedule> ScheduleCache::get(const ScheduleKeyView& key,
                                                           const Builder& build) {
  {
    const std::shared_lock lock(mutex_);
    const auto it = entries_.find(key);  // transparent: no ScheduleKey built
    if (it != entries_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  // Build outside the lock: generation is the expensive part and a pure
  // function of the key, so racing builders produce identical entries. The
  // builder's size argument only sizes the built Schedule's byte view; p
  // elements (one per block) is the smallest size callers resolve.
  auto built = std::make_shared<const SizeFreeSchedule>(
      SizeFreeSchedule::from(build(std::max<i64>(1, key.p))));
  const size_t built_bytes = built->resident_bytes();
  const std::unique_lock lock(mutex_);
  misses_.fetch_add(1, std::memory_order_relaxed);
  const auto [it, inserted] = entries_.emplace(key.materialize(), std::move(built));
  if (inserted) bytes_ += built_bytes;
  return it->second;
}

ScheduleCache::Stats ScheduleCache::stats() const {
  const std::shared_lock lock(mutex_);
  return {hits_.load(std::memory_order_relaxed), misses_.load(std::memory_order_relaxed),
          entries_.size(), bytes_};
}

void ScheduleCache::clear() {
  const std::unique_lock lock(mutex_);
  entries_.clear();
  bytes_ = 0;
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
}

ScheduleCache& process_schedule_cache() {
  static ScheduleCache cache;
  return cache;
}

}  // namespace bine::sched
