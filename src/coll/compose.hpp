#pragma once

#include <string>

#include "sched/schedule.hpp"

/// Sequencing of schedule phases: run `a`'s steps, then `b`'s. Used by the
/// large-vector composites (bcast = scatter + allgather, reduce =
/// reduce-scatter + gather, allreduce = reduce-scatter + allgather).
namespace bine::coll {

[[nodiscard]] inline sched::Schedule sequence(sched::Collective coll, std::string name,
                                              const sched::Schedule& a,
                                              const sched::Schedule& b) {
  assert(a.p == b.p && a.nblocks == b.nblocks && a.space == b.space);
  sched::Schedule out = a;
  out.coll = coll;
  out.algorithm = std::move(name);
  // b's ops carry BlockSets pointing into b's arena; keep it alive.
  out.retain_arena_of(b);
  const size_t offset = out.num_steps();
  // b's exchange ids continue after a's, so every id stays unique.
  const std::uint32_t id_offset = out.num_exchanges;
  for (Rank r = 0; r < out.p; ++r) {
    auto& dst = out.steps[static_cast<size_t>(r)];
    const auto& src = b.steps[static_cast<size_t>(r)];
    dst.resize(offset + src.size());
    for (size_t t = 0; t < src.size(); ++t) {
      dst[offset + t] = src[t];
      for (sched::Op& op : dst[offset + t].ops)
        if (op.exchange != sched::kNoExchange) op.exchange += id_offset;
    }
  }
  out.num_exchanges += b.num_exchanges;
  out.normalize_steps();
  return out;
}

}  // namespace bine::coll
