#include "sched/schedule_cache.hpp"

#include <algorithm>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

namespace bine::sched {

namespace {

constexpr std::uint32_t kNoOp = 0xffffffffu;
/// Largest count a 32-bit column may hold: ids stay below the kNoOp /
/// kNoExchange sentinels.
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

[[noreturn]] void throw_unmatched(size_t step, Rank from, Rank to) {
  throw std::invalid_argument("SizeFreeSchedule: step " + std::to_string(step) + ": recv " +
                              std::to_string(from) + "->" + std::to_string(to) +
                              " has no matching send");
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

  // Pass 1 counts every column, so pass 2 sizes each one exactly, and maps
  // each exchange id to the stream index of its send. Counts only grow, so
  // checking the totals covers every offset written on the way.
  out.step_begin.assign(out.steps + 1, 0);
  out.delivery_step_begin.assign(out.steps + 1, 0);
  std::vector<std::uint32_t> send_of(s.num_exchanges, kNoOp);
  u64 num_ops = 0, num_exchanges = 0, num_ranges = 0, num_deliveries = 0;
  for_each_op_step_major(
      s, out.steps,
      [&](Rank, const Op& op) {
        switch (op.kind) {
          case OpKind::recv:
            ++num_deliveries;
            return;  // dropped from the simulation stream
          case OpKind::recv_reduce:
            ++num_deliveries;
            break;
          case OpKind::send:
            if (op.exchange < send_of.size())
              send_of[op.exchange] = static_cast<std::uint32_t>(num_ops);
            ++num_exchanges;
            num_ranges += op.blocks.ranges().size();
            break;
          case OpKind::local_perm:
            break;
        }
        ++num_ops;
      },
      [&](size_t t) {
        out.step_begin[t + 1] = static_cast<std::uint32_t>(num_ops);
        out.delivery_step_begin[t + 1] = static_cast<std::uint32_t>(num_deliveries);
      });
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
  // delivery order. A receive may precede its send within the step, so its
  // pairing is checked once the step's stream is complete.
  struct Pending {
    std::uint32_t send;         ///< kNoOp when the receive's id names none
    std::uint32_t recv_reduce;  ///< stream index, kNoOp for a plain recv
    Rank from, to;
  };
  std::vector<Pending> pending;
  for_each_op_step_major(
      s, out.steps,
      [&](Rank r, const Op& op) {
        std::uint32_t exchange = kNoExchange;
        if (op.kind == OpKind::recv || op.kind == OpKind::recv_reduce) {
          std::uint32_t send = kNoOp;
          if (op.exchange < send_of.size())
            std::swap(send, send_of[op.exchange]);  // each send delivers once
          out.delivery_send.push_back(send);
          out.delivery_reduce.push_back(op.kind == OpKind::recv_reduce ? 1 : 0);
          pending.push_back({send,
                             op.kind == OpKind::recv ? kNoOp
                                                     : static_cast<std::uint32_t>(
                                                           out.kind.size()),
                             op.peer, r});
          if (op.kind == OpKind::recv) return;
        } else if (op.kind == OpKind::send) {
          exchange = static_cast<std::uint32_t>(out.range_begin.size() - 1);
          for (const BlockRange& br : op.blocks.ranges())
            out.ranges.push_back(
                {narrow32(br.begin, "range begin"), narrow32(br.count, "range count")});
          out.range_begin.push_back(static_cast<std::uint32_t>(out.ranges.size()));
        }
        out.kind.push_back(op.kind);
        out.rank.push_back(static_cast<std::int32_t>(r));
        out.peer.push_back(static_cast<std::int32_t>(op.peer));
        out.extra_segments.push_back(lowered_extra_segments(op));
        out.exchange.push_back(exchange);  // a recv_reduce's is set below
      },
      [&](size_t t) {
        for (const Pending& d : pending) {
          // kNoOp lies past every stream index, so an unnamed send fails here.
          if (d.send < out.step_begin[t] || d.send >= out.step_begin[t + 1] ||
              out.kind[d.send] != OpKind::send || out.rank[d.send] != d.from ||
              out.peer[d.send] != d.to)
            throw_unmatched(t, d.from, d.to);
          if (d.recv_reduce != kNoOp) out.exchange[d.recv_reduce] = out.exchange[d.send];
        }
        pending.clear();
      });
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
