#pragma once

#include <span>
#include <vector>

#include "net/pair_route_memo.hpp"
#include "net/route_cache.hpp"
#include "net/topology.hpp"
#include "sched/schedule.hpp"
#include "sched/schedule_cache.hpp"

/// Laying a schedule onto a topology: exact per-link-class traffic accounting
/// (the paper's headline metric) and an alpha-beta-gamma cost model with
/// per-step link contention for the what-wins-where comparisons.
///
/// Traffic is exact; time is modeled -- see DESIGN.md's substitutions table
/// for why this preserves the paper's qualitative results.
///
/// One production engine and two oracles implement the model:
///
///   * The size-free `simulate` overload -- the engine harness::Runner (and
///     through it every sweep, tuner and service job) runs: one schedule
///     across the whole size axis in one pass over cached size-free IR.
///   * The scalar `simulate` over a `sched::Schedule` plus a `RouteCache`
///     -- the *bitwise* oracle of the size-free engine, which routes each
///     send through `RouteCache::route` as it goes, and (via the
///     topology/placement overloads) the one-off convenience the examples
///     use.
///   * The *reference* engine (`*_reference`): per-op virtual routing and a
///     per-step hash map -- the *semantic* oracle the scalar engine is
///     checked against within 1e-12; don't use it in sweeps.
///
/// DESIGN.md describes the full three-layer pipeline, including the runtime
/// executor's sibling IR (runtime::ExecPlan).
namespace bine::net {

struct TrafficStats {
  i64 local_bytes = 0;
  i64 global_bytes = 0;
  i64 intra_node_bytes = 0;
  i64 messages = 0;
  [[nodiscard]] i64 total() const { return local_bytes + global_bytes + intra_node_bytes; }
};

/// Exact per-class byte counts of `sch` routed over `topo` under `pl`: the
/// traffic of the convenience `simulate` below. Throws std::invalid_argument
/// when `pl` places fewer than `sch.p` ranks or puts a rank off `topo`.
[[nodiscard]] TrafficStats measure_traffic(const sched::Schedule& sch, const Topology& topo,
                                           const Placement& pl);

/// Bytes crossing group boundaries (no routing needed): the metric of Fig. 5
/// and of the "Traffic Red." columns when groups have single logical pipes.
[[nodiscard]] i64 inter_group_bytes(const sched::Schedule& sch,
                                    std::span<const i64> group_of_rank);

/// Cost-model knobs; per-link bandwidths come from the topology.
struct CostParams {
  double alpha_local = 1.5e-6;    ///< per-message latency, intra-group (s)
  double alpha_global = 4.0e-6;   ///< per-message latency crossing global links (s)
  double seg_overhead = 0.7e-6;   ///< per extra memory segment (pack/unpack, rendezvous)
  double mem_bandwidth = 40e9;    ///< local permute/copy bandwidth (B/s)
  double reduce_bandwidth = 25e9; ///< reduction throughput (B/s)
};

struct SimResult {
  double seconds = 0;
  TrafficStats traffic;
  size_t steps = 0;
};

/// Synchronous-step simulation: each step costs
///   max over links (bytes on link / bandwidth)
/// + max over ranks  (sum of message alphas + segment overheads
///                    + reduce bytes / reduce bw + permute bytes / mem bw).
/// Total time is the sum over steps. Traffic stats fall out of the same pass.
/// Routes each send as it is simulated; throws std::invalid_argument when
/// `pl` places fewer than `sch.p` ranks or puts a rank off `topo`.
[[nodiscard]] SimResult simulate(const sched::Schedule& sch, const Topology& topo,
                                 const Placement& pl, const CostParams& cp);

/// The scalar oracle over one machine instance's routes: walks `sch` in
/// sched::for_each_op_step_major order with bytes from `Schedule::op_bytes`.
/// `sch.p` must match `rc`.
[[nodiscard]] SimResult simulate(const sched::Schedule& sch, const RouteCache& rc,
                                 const CostParams& cp);

/// Size-batched engine -- the one production simulator: one structural
/// pass per schedule across the whole size axis. The schedule's send pairs
/// resolve through `memo`, so routing amortizes across schedules, cells,
/// Runners, and tuner rounds (tests pass a private memo for isolation). The
/// entry's op stream and distinct byte rows (`SizeFreeSchedule::from`
/// emits them; nothing is compiled here) then stream through W-wide
/// size-lane tiles.
///
/// result[s] is bit-identical to the scalar oracle over the Schedule `sf`
/// was compiled from, generated at elem_counts[s]
///   simulate(sch_at(elem_counts[s]), rc, cp)
/// -- the per-size loop the parity suite runs: byte resolution runs the same
/// integer arithmetic as `Schedule::op_bytes`, per-rank overheads accumulate
/// in the same FP order (ops outer, flushed at rank boundaries), and
/// per-step maxima reduce over non-negative finite terms, where max is
/// order-independent bitwise. `sf`'s p must match `rc`; any entry qualifies,
/// cached or freshly compiled, since every size-free schedule serves every
/// size.
[[nodiscard]] std::vector<SimResult> simulate(const sched::SizeFreeSchedule& sf,
                                              std::span<const i64> elem_counts,
                                              i64 elem_size, const RouteCache& rc,
                                              const CostParams& cp, PairRouteMemo& memo);

/// Resident capacity (bytes) of the calling thread's size-batched scratch
/// arena. Testing hook for the capacity-cap trim: a huge schedule followed
/// by small ones must release the spike.
[[nodiscard]] size_t sim_scratch_resident_bytes();

/// Naive oracles (virtual routing per op, hash-map accumulators), retained
/// verbatim for the parity suite and the before/after benchmark.
[[nodiscard]] TrafficStats measure_traffic_reference(const sched::Schedule& sch,
                                                     const Topology& topo,
                                                     const Placement& pl);
[[nodiscard]] SimResult simulate_reference(const sched::Schedule& sch, const Topology& topo,
                                           const Placement& pl, const CostParams& cp);

}  // namespace bine::net
