#include "sched/schedule_cache.hpp"

#include <algorithm>
#include <mutex>

namespace bine::sched {

SizeFreeSchedule SizeFreeSchedule::from(const Schedule& s) {
  SizeFreeSchedule out;
  out.p = s.p;
  out.nblocks = s.nblocks;
  out.space = s.space;
  out.steps = s.num_steps();

  size_t total_ops = 0;
  for (const auto& rank_steps : s.steps)
    for (const RankStep& st : rank_steps) total_ops += st.ops.size();
  out.kind.reserve(total_ops);
  out.rank.reserve(total_ops);
  out.peer.reserve(total_ops);
  out.extra_segments.reserve(total_ops);
  out.block_begin.reserve(total_ops + 1);
  out.step_begin.reserve(out.steps + 1);
  out.step_begin.push_back(0);
  out.block_begin.push_back(0);
  out.recv_step_begin.reserve(out.steps + 1);
  out.recv_step_begin.push_back(0);
  out.recv_block_begin.push_back(0);

  // Shared canonical-order visitor (schedule.hpp): the simulation stream
  // must visit ops exactly as the scalar oracle over the Schedule does, and
  // the execution overlay must replay the reference executor's delivery
  // order.
  for_each_op_step_major(
      s, out.steps,
      [&](Rank r, const Op& op) {
        const bool is_recv_kind =
            op.kind == OpKind::recv || op.kind == OpKind::recv_reduce;
        if (is_recv_kind) {
          out.recv_rank.push_back(static_cast<std::int32_t>(r));
          out.recv_peer.push_back(static_cast<std::int32_t>(op.peer));
          out.recv_reduce.push_back(op.kind == OpKind::recv_reduce ? 1 : 0);
          const auto rs = op.blocks.ranges();
          out.recv_ranges.insert(out.recv_ranges.end(), rs.begin(), rs.end());
          out.recv_block_begin.push_back(
              static_cast<std::uint32_t>(out.recv_ranges.size()));
        }
        if (op.kind == OpKind::recv) return;  // dropped from the simulation stream

        out.kind.push_back(op.kind);
        out.rank.push_back(static_cast<std::int32_t>(r));
        out.peer.push_back(static_cast<std::int32_t>(op.peer));
        out.extra_segments.push_back(lowered_extra_segments(op));

        const auto rs = op.blocks.ranges();
        out.ranges.insert(out.ranges.end(), rs.begin(), rs.end());
        out.block_begin.push_back(static_cast<std::uint32_t>(out.ranges.size()));
      },
      [&](size_t) {
        out.step_begin.push_back(static_cast<std::uint32_t>(out.kind.size()));
        out.recv_step_begin.push_back(static_cast<std::uint32_t>(out.recv_rank.size()));
      });
  return out;
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
  const std::unique_lock lock(mutex_);
  misses_.fetch_add(1, std::memory_order_relaxed);
  const auto [it, inserted] = entries_.emplace(key.materialize(), std::move(built));
  return it->second;
}

ScheduleCache::Stats ScheduleCache::stats() const {
  return {hits_.load(std::memory_order_relaxed), misses_.load(std::memory_order_relaxed)};
}

void ScheduleCache::clear() {
  const std::unique_lock lock(mutex_);
  entries_.clear();
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
}

ScheduleCache& process_schedule_cache() {
  static ScheduleCache cache;
  return cache;
}

}  // namespace bine::sched
