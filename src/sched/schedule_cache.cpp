#include "sched/schedule_cache.hpp"

#include <algorithm>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

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
  const Schedule::OpOrder order = s.op_order();
  const auto first_local = static_cast<std::uint32_t>(2 * log.size());

  // Pass 1 counts every column, so pass 2 sizes each one exactly, numbers
  // the exchanges in the stream order of their sends and records each send's
  // stream index. Counts only grow, so checking the totals covers every
  // offset written on the way.
  out.step_begin.assign(out.steps + 1, 0);
  out.delivery_step_begin.assign(out.steps + 1, 0);
  std::vector<std::uint32_t> number(log.size()), send_at(log.size());
  u64 num_ops = 0, num_exchanges = 0, num_ranges = 0, num_deliveries = 0;
  for (size_t t = 0; t < out.steps; ++t) {
    for (std::uint32_t i = order.step_begin[t]; i < order.step_begin[t + 1]; ++i) {
      const std::uint32_t h = order.halves[i];
      if (h >= first_local) {
        ++num_ops;
      } else if (h % 2 == 0) {
        const Exchange& x = log[h / 2];
        for (const BlockRange& br : x.blocks.ranges())
          check_range(br, s.nblocks, t, x.from, x.to);
        number[h / 2] = static_cast<std::uint32_t>(num_exchanges++);
        send_at[h / 2] = static_cast<std::uint32_t>(num_ops++);
        num_ranges += x.blocks.ranges().size();
      } else {
        ++num_deliveries;
        if (log[h / 2].reduce) ++num_ops;  // a plain recv is cost-free: not streamed
      }
    }
    out.step_begin[t + 1] = static_cast<std::uint32_t>(num_ops);
    out.delivery_step_begin[t + 1] = static_cast<std::uint32_t>(num_deliveries);
  }
  check_count(num_ops, "op count");
  check_count(num_exchanges, "exchange count");
  check_count(num_ranges, "block range count");
  check_count(num_deliveries, "delivery count");

  out.kind.reserve(num_ops);
  out.rank.reserve(num_ops);
  out.peer.reserve(num_ops);
  out.extra_segments.reserve(num_ops);
  out.exchange.reserve(num_ops);
  out.range_begin.reserve(num_exchanges + 1);
  out.range_begin.push_back(0);
  out.ranges.reserve(num_ranges);
  out.delivery_send.reserve(num_deliveries);
  out.delivery_reduce.reserve(num_deliveries);

  // Pass 2 fills the columns in the shared canonical order (schedule.hpp):
  // the simulation stream must visit ops exactly as the scalar oracle over
  // the Schedule does, and the overlay must replay the reference executor's
  // delivery order.
  const auto push_op = [&out](OpKind kind, Rank rank, Rank peer, i64 segments,
                              std::uint32_t exchange) {
    out.kind.push_back(kind);
    out.rank.push_back(static_cast<std::int32_t>(rank));
    out.peer.push_back(static_cast<std::int32_t>(peer));
    out.extra_segments.push_back(lowered_extra_segments(segments));
    out.exchange.push_back(exchange);
  };
  for (const std::uint32_t h : order.halves) {
    if (h >= first_local) {
      const LocalOp& l = s.locals()[h - first_local];
      push_op(OpKind::local_perm, l.rank, -1, l.segments, kNoExchange);
      continue;
    }
    const Exchange& x = log[h / 2];
    if (h % 2 == 0) {
      push_op(OpKind::send, x.from, x.to, x.segments, number[h / 2]);
      for (const BlockRange& br : x.blocks.ranges())
        out.ranges.push_back(
            {static_cast<std::uint32_t>(br.begin), static_cast<std::uint32_t>(br.count)});
      out.range_begin.push_back(static_cast<std::uint32_t>(out.ranges.size()));
      continue;
    }
    out.delivery_send.push_back(send_at[h / 2]);
    out.delivery_reduce.push_back(x.reduce ? 1 : 0);
    if (x.reduce) push_op(OpKind::recv_reduce, x.to, x.from, x.segments, number[h / 2]);
  }
  return out;
}

size_t SizeFreeSchedule::resident_bytes() const noexcept {
  const auto bytes = [](const auto& v) { return v.capacity() * sizeof(v[0]); };
  return bytes(step_begin) + bytes(kind) + bytes(rank) + bytes(peer) +
         bytes(extra_segments) + bytes(exchange) + bytes(range_begin) + bytes(ranges) +
         bytes(delivery_step_begin) + bytes(delivery_send) + bytes(delivery_reduce);
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
