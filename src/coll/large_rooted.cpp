#include "coll/large_rooted.hpp"

#include "coll/bine_sets.hpp"
#include "coll/butterfly_colls.hpp"
#include "coll/compose.hpp"
#include "coll/tree_colls.hpp"
#include "core/block_perm.hpp"
#include "core/butterfly.hpp"
#include "core/modular.hpp"
#include "core/nu.hpp"
#include "core/tree.hpp"

namespace bine::coll {

using core::to_physical;
using sched::BlockSet;
using sched::Collective;
using sched::Schedule;

Schedule bcast_scatter_allgather_std(const Config& cfg) {
  return sequence(Collective::bcast, "bcast_scatter_allgather_std", scatter_tree(cfg, core::TreeVariant::binomial_dh),
                  allgather_recursive_doubling(cfg));
}

Schedule reduce_rs_gather_std(const Config& cfg) {
  return sequence(Collective::reduce, "reduce_rs_gather_std",
                  reduce_scatter_recursive_halving(cfg),
                  gather_tree(cfg, core::TreeVariant::binomial_dh));
}

namespace {

/// Physical, aliased block set of a group of logical destinations: the block
/// of logical destination d is phys(reverse(nu(d))). Every group this file
/// sends -- a bine_dd subtree, or a distance-doubling/halving butterfly set --
/// is the ranks whose nu agrees with one member's nu on its low bits, so
/// reverse(nu) maps it onto an aligned run of `len` (a power of two)
/// positions (Fig. 8). `member` is any logical destination of the group; the
/// run is then rotated onto physical blocks by the root.
BlockSet aliased_run(i64 member, i64 len, Rank root, i64 p, sched::ScheduleArena& arena) {
  const sched::BlockRange run{
      to_physical(core::permuted_position(member, p) & ~(len - 1), root, p), len};
  return sched::blockset_from_ranges({&run, 1}, p, arena);
}

/// Aliased blocks of the bine_dd subtree rooted at logical rank `c` (c != 0):
/// the P >> (join_step(c) + 1) ranks sharing nu(c)'s low join_step(c) + 1 bits.
BlockSet aliased_subtree(Rank c, Rank root, i64 p, sched::ScheduleArena& arena) {
  const int keep = core::join_step(core::TreeVariant::bine_dd, c, p) + 1;
  return aliased_run(c, p >> keep, root, p, arena);
}

/// Aliased blocks logical rank `l` sends for the butterfly step whose
/// relative set is `rels`.
BlockSet aliased_step(const std::vector<i64>& rels, Rank l, Rank root, i64 p,
                      sched::ScheduleArena& arena) {
  return aliased_run(detail::rel_to_dest(l, rels.front(), p), static_cast<i64>(rels.size()),
                     root, p, arena);
}

/// Aliased distance-halving Bine allgather steps in logical (root-rotated)
/// space, starting from "logical rank l holds block phys(pi(l))".
void emit_aliased_dh_allgather(Schedule& sch, const Config& cfg, size_t step0) {
  const i64 P = cfg.p;
  const auto held = detail::dh_held_rel(P);
  for (int i = 0; i < log2_exact(P); ++i) {
    for (Rank l = 0; l < P; ++l) {
      const Rank q = core::butterfly_partner(core::ButterflyVariant::bine_dh, l, i, P);
      sch.add_exchange(step0 + static_cast<size_t>(i), to_physical(l, cfg.root, P),
                       to_physical(q, cfg.root, P),
                       aliased_step(held[static_cast<size_t>(i)], l, cfg.root, P, sch.arena()),
                       false);
    }
  }
}

/// Aliased distance-doubling Bine reduce-scatter steps in logical space;
/// ends with "logical rank l holds block phys(pi(l))" fully reduced.
void emit_aliased_dd_reduce_scatter(Schedule& sch, const Config& cfg, size_t step0) {
  const i64 P = cfg.p;
  const auto sent = detail::dd_sent_rel(P);
  for (int j = 0; j < log2_exact(P); ++j) {
    for (Rank l = 0; l < P; ++l) {
      const Rank q = core::butterfly_partner(core::ButterflyVariant::bine_dd, l, j, P);
      sch.add_exchange(step0 + static_cast<size_t>(j), to_physical(l, cfg.root, P),
                       to_physical(q, cfg.root, P),
                       aliased_step(sent[static_cast<size_t>(j)], l, cfg.root, P, sch.arena()),
                       true);
    }
  }
}

}  // namespace

Schedule bcast_scatter_allgather_bine(const Config& cfg) {
  if (!is_pow2(cfg.p)) {
    // Appendix C fallback: contiguous without aliasing.
    return sequence(Collective::bcast, "bcast_scatter_allgather_bine",
                    scatter_tree(cfg, core::TreeVariant::bine_dh),
                    allgather_bine(cfg, NoncontigStrategy::two_transmission));
  }
  Schedule sch = make_base(Collective::bcast, cfg, "bcast_scatter_allgather_bine",
                           sched::BlockSpace::per_vector);
  const i64 P = cfg.p;
  const int s = log2_exact(P);
  // Phase 1: scatter down the distance-doubling Bine tree. Parent l ships to
  // child c the (aliased) blocks of c's whole subtree; the aliasing turns the
  // non-contiguous dd-subtrees into contiguous runs.
  for (Rank l = 0; l < P; ++l) {
    const int joined = core::join_step(core::TreeVariant::bine_dd, l, P);
    for (int st = joined + 1; st < s; ++st) {
      const Rank c = core::tree_partner(core::TreeVariant::bine_dd, l, st, P);
      sch.add_exchange(static_cast<size_t>(st), to_physical(l, cfg.root, P),
                       to_physical(c, cfg.root, P),
                       aliased_subtree(c, cfg.root, P, sch.arena()), false);
    }
  }
  // Phase 2: distance-halving Bine allgather over the aliased layout.
  emit_aliased_dh_allgather(sch, cfg, static_cast<size_t>(s));
  return sch;
}

Schedule reduce_rs_gather_bine(const Config& cfg) {
  if (!is_pow2(cfg.p)) {
    return sequence(Collective::reduce, "reduce_rs_gather_bine",
                    reduce_scatter_bine(cfg, NoncontigStrategy::two_transmission),
                    gather_tree(cfg, core::TreeVariant::bine_dh));
  }
  Schedule sch = make_base(Collective::reduce, cfg, "reduce_rs_gather_bine",
                           sched::BlockSpace::per_vector);
  const i64 P = cfg.p;
  const int s = log2_exact(P);
  // Phase 1: aliased distance-doubling Bine reduce-scatter.
  emit_aliased_dd_reduce_scatter(sch, cfg, 0);
  // Phase 2: gather up the reversed distance-doubling Bine tree (distances
  // halve in gather order); child c ships the aliased blocks of its subtree,
  // undoing the reduce-scatter's aliasing at the root (Sec. 4.5).
  for (Rank l = 0; l < P; ++l) {
    const int joined = core::join_step(core::TreeVariant::bine_dd, l, P);
    for (int st = joined + 1; st < s; ++st) {
      const Rank c = core::tree_partner(core::TreeVariant::bine_dd, l, st, P);
      const size_t out_step = static_cast<size_t>(s) + static_cast<size_t>(s - 1 - st);
      sch.add_exchange(out_step, to_physical(c, cfg.root, P), to_physical(l, cfg.root, P),
                       aliased_subtree(c, cfg.root, P, sch.arena()), false);
    }
  }
  return sch;
}

}  // namespace bine::coll
