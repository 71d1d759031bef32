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
  out.append(b);
  return out;
}

}  // namespace bine::coll
