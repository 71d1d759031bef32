#include "sched/schedule.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>

namespace bine::sched {

BlockSet blockset_from_ids(std::vector<i64> ids, i64 B, ScheduleArena& arena) {
  if (ids.empty()) return {};
  std::sort(ids.begin(), ids.end());
  assert(std::adjacent_find(ids.begin(), ids.end()) == ids.end() && "ids must be distinct");

  // Coalesce into a per-thread scratch; the final ranges are interned into
  // the arena (or stored inline) so this function allocates only while the
  // scratch warms up.
  static thread_local std::vector<BlockRange> scratch;
  scratch.clear();
  BlockRange cur{ids.front(), 1};
  for (size_t k = 1; k < ids.size(); ++k) {
    if (ids[k] == cur.begin + cur.count) {
      ++cur.count;
    } else {
      scratch.push_back(cur);
      cur = BlockRange{ids[k], 1};
    }
  }
  scratch.push_back(cur);
  // Join circularly: a run ending at B-1 glues onto a run starting at 0,
  // forming one wrapped range (begin + count > B). Sorted input means the
  // 0-run can only be first and the B-ending run only last.
  if (scratch.size() > 1 && scratch.front().begin == 0 &&
      scratch.back().begin + scratch.back().count == B) {
    scratch.back().count += scratch.front().count;
    scratch.erase(scratch.begin());
  }
  return BlockSet::from_ranges(scratch, arena);
}

BlockSet blockset_from_ranges(std::span<const BlockRange> ranges, i64 B,
                              ScheduleArena& arena) {
  // Split wrapped ranges at B into linear pieces, then coalesce exactly as
  // blockset_from_ids does over the expanded ids.
  static thread_local std::vector<BlockRange> scratch;
  scratch.clear();
  for (const BlockRange& r : ranges) {
    if (r.count == 0) continue;
    if (r.count >= B) return BlockSet::all(B);  // disjoint: nothing else remains
    const i64 begin = pmod(r.begin, B);
    const i64 head = std::min(r.count, B - begin);
    scratch.push_back({begin, head});
    if (head < r.count) scratch.push_back({0, r.count - head});
  }
  if (scratch.empty()) return {};
  const auto by_begin = [](const BlockRange& a, const BlockRange& b) {
    return a.begin < b.begin;
  };
  if (!std::is_sorted(scratch.begin(), scratch.end(), by_begin))
    std::sort(scratch.begin(), scratch.end(), by_begin);
  size_t out = 0;
  for (size_t k = 1; k < scratch.size(); ++k) {
    assert(scratch[out].begin + scratch[out].count <= scratch[k].begin &&
           "ranges must be disjoint");
    if (scratch[out].begin + scratch[out].count == scratch[k].begin)
      scratch[out].count += scratch[k].count;
    else
      scratch[++out] = scratch[k];
  }
  scratch.resize(out + 1);
  // Same circular join as blockset_from_ids.
  if (scratch.size() > 1 && scratch.front().begin == 0 &&
      scratch.back().begin + scratch.back().count == B) {
    scratch.back().count += scratch.front().count;
    scratch.erase(scratch.begin());
  }
  return BlockSet::from_ranges(scratch, arena);
}

void Schedule::add_exchange(size_t step, Rank from, Rank to, BlockSet blocks, bool reduce,
                            i64 segments) {
  assert(from != to && from >= 0 && from < p && to >= 0 && to < p);
  assert(step < kNoExchange);
  const i64 segs =
      segments > 0 ? segments : std::max<i64>(1, blocks.memory_segments(nblocks));
  exchanges_.push_back(
      {std::move(blocks), from, to, segs, static_cast<std::uint32_t>(step), reduce});
  num_steps_ = std::max(num_steps_, step + 1);
}

void Schedule::add_local(size_t step, Rank r, i64 segs) {
  assert(r >= 0 && r < p);
  assert(step < kNoExchange);
  locals_.push_back({r, segs, static_cast<std::uint32_t>(step),
                     static_cast<std::uint32_t>(exchanges_.size())});
  num_steps_ = std::max(num_steps_, step + 1);
}

void Schedule::append(const Schedule& next) {
  // Keep next's arena alive by rebasing onto a fresh arena that retains both
  // the previous one and next's: an arena shared with another schedule (e.g.
  // after copy) is never mutated, and retention edges always point from
  // newer arenas to older ones -- no cycles, no unbounded growth of a
  // long-lived base schedule's arena.
  auto fresh = std::make_shared<ScheduleArena>();
  fresh->retain(std::move(arena_));
  fresh->retain(next.arena_);
  arena_ = std::move(fresh);
  const auto step_offset = static_cast<std::uint32_t>(num_steps_);
  const auto id_offset = static_cast<std::uint32_t>(exchanges_.size());
  exchanges_.reserve(exchanges_.size() + next.exchanges_.size());
  locals_.reserve(locals_.size() + next.locals_.size());
  for (Exchange x : next.exchanges_) {
    x.step += step_offset;
    exchanges_.push_back(std::move(x));
  }
  for (LocalOp l : next.locals_) {
    l.step += step_offset;
    l.before += id_offset;
    locals_.push_back(l);
  }
  num_steps_ += next.num_steps_;
}

i64 Schedule::total_wire_bytes() const {
  i64 total = 0;
  for (const Exchange& x : exchanges_) total += bytes_of(x.blocks);
  return total;
}

std::string Schedule::validate() const {
  std::ostringstream err;
  for (const Exchange& x : exchanges_) {
    if (x.from < 0 || x.from >= p || x.to < 0 || x.to >= p || x.from == x.to) {
      err << "step " << x.step << ": bad exchange " << x.from << "->" << x.to;
      return err.str();
    }
    for (const BlockRange& r : x.blocks.ranges())
      if (!range_in_space(r, nblocks)) {
        err << "step " << x.step << ": " << x.from << "->" << x.to << " block range "
            << r.begin << "+" << r.count << " outside " << nblocks << " blocks";
        return err.str();
      }
  }
  for (const LocalOp& l : locals_)
    if (l.rank < 0 || l.rank >= p) {
      err << "step " << l.step << ": bad local rank " << l.rank;
      return err.str();
    }
  return {};
}

Schedule::OpOrder Schedule::op_order() const {
  const u64 num_halves = 2 * u64{exchanges_.size()} + locals_.size();
  if (num_halves > kNoExchange)
    throw std::length_error("Schedule: " + std::to_string(num_halves) +
                            " ops do not fit 32-bit indices");
  const auto first_local = static_cast<std::uint32_t>(2 * exchanges_.size());

  // Stable counting sorts, least significant key first: by rank, then by
  // step. Ties keep call order. The rank sort reads the log directly, in
  // call order: a local sits before the exchange logged after it. Both
  // halves of one exchange belong to different ranks, so their relative
  // order never matters. Each entry carries its step, so the step sort never
  // reads the log again.
  std::vector<std::uint32_t> rank_at(static_cast<size_t>(p) + 1, 0);
  for (const Exchange& x : exchanges_) {
    ++rank_at[static_cast<size_t>(x.from) + 1];
    ++rank_at[static_cast<size_t>(x.to) + 1];
  }
  for (const LocalOp& l : locals_) ++rank_at[static_cast<size_t>(l.rank) + 1];
  for (size_t r = 0; r < static_cast<size_t>(p); ++r) rank_at[r + 1] += rank_at[r];

  OpOrder order;
  order.step_begin.assign(num_steps_ + 1, 0);
  std::vector<u64> by_rank(num_halves);  ///< step << 32 | half
  const auto put = [&](Rank r, std::uint32_t step, std::uint32_t h) {
    by_rank[rank_at[static_cast<size_t>(r)]++] = u64{step} << 32 | h;
    ++order.step_begin[step + 1];
  };
  size_t l = 0;
  for (std::uint32_t e = 0;; ++e) {
    for (; l < locals_.size() && locals_[l].before == e; ++l)
      put(locals_[l].rank, locals_[l].step, first_local + static_cast<std::uint32_t>(l));
    if (e == exchanges_.size()) break;
    const Exchange& x = exchanges_[e];
    put(x.from, x.step, 2 * e);
    put(x.to, x.step, 2 * e + 1);
  }

  for (size_t t = 0; t < num_steps_; ++t) order.step_begin[t + 1] += order.step_begin[t];
  std::vector<std::uint32_t> step_at(order.step_begin.begin(), order.step_begin.end() - 1);
  order.halves.resize(num_halves);
  for (const u64 v : by_rank) order.halves[step_at[v >> 32]++] = static_cast<std::uint32_t>(v);
  return order;
}

Rank Schedule::half_rank(std::uint32_t h) const noexcept {
  if (h / 2 < exchanges_.size()) {
    const Exchange& x = exchanges_[h / 2];
    return h % 2 == 0 ? x.from : x.to;
  }
  return locals_[h - 2 * exchanges_.size()].rank;
}

Op Schedule::half_op(std::uint32_t h) const noexcept {
  if (h / 2 < exchanges_.size()) {
    const Exchange& x = exchanges_[h / 2];
    if (h % 2 == 0) return {OpKind::send, h / 2, x.to, x.blocks, x.segments};
    return {x.reduce ? OpKind::recv_reduce : OpKind::recv, h / 2, x.from, x.blocks,
            x.segments};
  }
  return {OpKind::local_perm, kNoExchange, -1, {}, locals_[h - 2 * exchanges_.size()].segments};
}

}  // namespace bine::sched
