#include "coll/ring_colls.hpp"

namespace bine::coll {

using sched::BlockSet;
using sched::Collective;
using sched::Schedule;

namespace {

/// Ring reduce-scatter steps: block b travels b+1 -> b+2 -> ... -> b,
/// accumulating contributions; at step t rank r ships block (r - 1 - t) to
/// its right neighbour. Emits into `sch` starting at `step0`.
size_t emit_ring_rs(Schedule& sch, i64 p, size_t step0) {
  for (i64 t = 0; t < p - 1; ++t)
    for (Rank r = 0; r < p; ++r)
      sch.add_exchange(step0 + static_cast<size_t>(t), r, pmod(r + 1, p),
                       BlockSet::single(pmod(r - 1 - t, p)), true);
  return step0 + static_cast<size_t>(p - 1);
}

/// Ring allgather steps: block b circulates b -> b+1 -> ...; at step t rank r
/// forwards block (r - t).
size_t emit_ring_ag(Schedule& sch, i64 p, size_t step0) {
  for (i64 t = 0; t < p - 1; ++t)
    for (Rank r = 0; r < p; ++r)
      sch.add_exchange(step0 + static_cast<size_t>(t), r, pmod(r + 1, p),
                       BlockSet::single(pmod(r - t, p)), false);
  return step0 + static_cast<size_t>(p - 1);
}

}  // namespace

Schedule allgather_ring(const Config& cfg) {
  Schedule sch =
      make_base(Collective::allgather, cfg, "allgather_ring", sched::BlockSpace::per_vector);
  emit_ring_ag(sch, cfg.p, 0);
  return sch;
}

Schedule reduce_scatter_ring(const Config& cfg) {
  Schedule sch = make_base(Collective::reduce_scatter, cfg, "reduce_scatter_ring",
                           sched::BlockSpace::per_vector);
  emit_ring_rs(sch, cfg.p, 0);
  return sch;
}

Schedule allreduce_ring(const Config& cfg) {
  Schedule sch =
      make_base(Collective::allreduce, cfg, "allreduce_ring", sched::BlockSpace::per_vector);
  const size_t mid = emit_ring_rs(sch, cfg.p, 0);
  emit_ring_ag(sch, cfg.p, mid);
  return sch;
}

}  // namespace bine::coll
