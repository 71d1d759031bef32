#include "coll/butterfly_colls.hpp"

#include <stdexcept>
#include <string>

#include "coll/bine_sets.hpp"
#include "core/block_perm.hpp"
#include "core/butterfly.hpp"
#include "core/nu.hpp"
#include "core/tree.hpp"

namespace bine::coll {

using core::butterfly_partner;
using core::ButterflyVariant;
using sched::BlockSet;
using sched::Collective;
using sched::Schedule;

namespace {

using detail::dd_sent_rel;
using detail::dh_held_rel;

/// Relative destination interval sent at step j of the *distance-halving*
/// reduce-scatter (the "Two Transmissions" strategy): the bine_dh subtree of
/// rank 0's step-j child. Circular, hence at most two memory segments.
core::CircularInterval dh_sent_interval(int j, i64 P) {
  const Rank child = core::tree_partner(core::TreeVariant::bine_dh, 0, j, P);
  return core::subtree_interval(core::TreeVariant::bine_dh, child, P);
}

/// Relative holdings *before* step i of the distance-doubling allgather
/// (time reversal of the distance-halving reduce-scatter): {0} plus the
/// subtrees attached at steps >= s - i.
core::CircularInterval dd_held_interval(int i, i64 P) {
  const int s = log2_exact(P);
  core::CircularInterval acc{0, 1};
  for (int k = s - 1; k >= s - i; --k) {
    const core::CircularInterval sub = dh_sent_interval(k, P);
    // Glue: the kept set stays a circular interval around 0.
    if (pmod(sub.start - (acc.start + acc.length), P) == 0) {
      acc.length += sub.length;
    } else {
      assert(pmod(acc.start - (sub.start + sub.length), P) == 0);
      acc.start = sub.start;
      acc.length += sub.length;
    }
  }
  return acc;
}

using detail::rel_to_dest;

/// Physical blocks carried for destination set `dests` (p'-space), folding in
/// the blocks of the extra ranks paired during the non-power-of-two pre-step.
BlockSet dest_blocks(const std::vector<i64>& dests, i64 P, i64 extra, i64 p,
                     sched::ScheduleArena& arena) {
  std::vector<i64> ids;
  ids.reserve(dests.size() * 2);
  for (const i64 x : dests) {
    ids.push_back(x);
    if (x < extra) ids.push_back(P + x);
  }
  return sched::blockset_from_ids(std::move(ids), p, arena);
}

struct Layout {
  i64 P = 0;      ///< butterfly size (pow2)
  i64 extra = 0;  ///< p - P ranks folded via pre/post steps
  int s = 0;
};

Layout layout_of(i64 p) {
  Layout lo;
  lo.P = pow2_floor(p);
  lo.extra = p - lo.P;
  lo.s = log2_exact(lo.P);
  return lo;
}

void require_pow2_for(const char* what, const Layout& lo) {
  if (lo.extra != 0)
    throw std::invalid_argument(std::string(what) +
                                " requires a power-of-two rank count (paper Sec. 4.3.1)");
}

/// Emit the reduce-scatter butterfly steps into `sch` starting at step
/// `step0`; returns the next free step index. `aliased` applies the
/// reverse(nu) position aliasing of the "Send" strategy.
size_t emit_rs_steps(Schedule& sch, const Config& cfg, const Layout& lo,
                     NoncontigStrategy st, size_t step0) {
  const bool aliased = st == NoncontigStrategy::send;
  std::vector<i64> dests;
  if (st == NoncontigStrategy::two_transmission) {
    for (int j = 0; j < lo.s; ++j) {
      const core::CircularInterval rel = dh_sent_interval(j, lo.P);
      for (Rank r = 0; r < lo.P; ++r) {
        const Rank q = butterfly_partner(ButterflyVariant::bine_dh, r, j, lo.P);
        dests.clear();
        dests.reserve(static_cast<size_t>(rel.length));
        for (i64 k = 0; k < rel.length; ++k)
          dests.push_back(rel_to_dest(r, pmod(rel.start + k, lo.P), lo.P));
        sch.add_exchange(step0 + static_cast<size_t>(j), r, q,
                         dest_blocks(dests, lo.P, lo.extra, cfg.p, sch.arena()), true);
      }
    }
    return step0 + static_cast<size_t>(lo.s);
  }
  const auto rel_by_step = dd_sent_rel(lo.P);
  for (int j = 0; j < lo.s; ++j) {
    for (Rank r = 0; r < lo.P; ++r) {
      const Rank q = butterfly_partner(ButterflyVariant::bine_dd, r, j, lo.P);
      dests.clear();
      dests.reserve(rel_by_step[static_cast<size_t>(j)].size());
      for (const i64 l : rel_by_step[static_cast<size_t>(j)])
        dests.push_back(rel_to_dest(r, l, lo.P));
      if (aliased)
        for (i64& d : dests) d = core::permuted_position(d, lo.P);
      BlockSet blocks = dest_blocks(dests, lo.P, lo.extra, cfg.p, sch.arena());
      const i64 segs =
          st == NoncontigStrategy::block_by_block ? blocks.block_count() : 1;
      sch.add_exchange(step0 + static_cast<size_t>(j), r, q, blocks, true, segs);
    }
  }
  return step0 + static_cast<size_t>(lo.s);
}

/// Emit the allgather butterfly steps (time reversal of the reduce-scatter).
size_t emit_ag_steps(Schedule& sch, const Config& cfg, const Layout& lo,
                     NoncontigStrategy st, size_t step0) {
  const bool aliased = st == NoncontigStrategy::send;
  std::vector<i64> dests;
  if (st == NoncontigStrategy::two_transmission) {
    for (int i = 0; i < lo.s; ++i) {
      const core::CircularInterval rel = dd_held_interval(i, lo.P);
      for (Rank r = 0; r < lo.P; ++r) {
        const Rank q = butterfly_partner(ButterflyVariant::bine_dd, r, i, lo.P);
        dests.clear();
        dests.reserve(static_cast<size_t>(rel.length));
        for (i64 k = 0; k < rel.length; ++k)
          dests.push_back(rel_to_dest(r, pmod(rel.start + k, lo.P), lo.P));
        sch.add_exchange(step0 + static_cast<size_t>(i), r, q,
                         dest_blocks(dests, lo.P, lo.extra, cfg.p, sch.arena()), false);
      }
    }
    return step0 + static_cast<size_t>(lo.s);
  }
  const auto rel_by_step = dh_held_rel(lo.P);
  for (int i = 0; i < lo.s; ++i) {
    for (Rank r = 0; r < lo.P; ++r) {
      const Rank q = butterfly_partner(ButterflyVariant::bine_dh, r, i, lo.P);
      dests.clear();
      dests.reserve(rel_by_step[static_cast<size_t>(i)].size());
      for (const i64 l : rel_by_step[static_cast<size_t>(i)])
        dests.push_back(rel_to_dest(r, l, lo.P));
      if (aliased)
        for (i64& d : dests) d = core::permuted_position(d, lo.P);
      BlockSet blocks = dest_blocks(dests, lo.P, lo.extra, cfg.p, sch.arena());
      const i64 segs =
          st == NoncontigStrategy::block_by_block ? blocks.block_count() : 1;
      sch.add_exchange(step0 + static_cast<size_t>(i), r, q, blocks, false, segs);
    }
  }
  return step0 + static_cast<size_t>(lo.s);
}

}  // namespace

Schedule reduce_scatter_bine(const Config& cfg, NoncontigStrategy st) {
  const Layout lo = layout_of(cfg.p);
  if (st == NoncontigStrategy::permute || st == NoncontigStrategy::send)
    require_pow2_for("reduce_scatter_bine permute/send", lo);
  Schedule sch = make_base(Collective::reduce_scatter, cfg,
                           std::string("reduce_scatter_bine_") + to_string(st),
                           sched::BlockSpace::per_vector);
  size_t step = 0;
  for (i64 i = 0; i < lo.extra; ++i)
    sch.add_exchange(step, lo.P + i, i, BlockSet::all(cfg.p), true);
  if (lo.extra > 0) ++step;
  if (st == NoncontigStrategy::permute) {
    for (Rank r = 0; r < lo.P; ++r) sch.add_local(step, r, lo.P);
    ++step;
  }
  step = emit_rs_steps(sch, cfg, lo, st, step);
  if (st == NoncontigStrategy::send) {
    // Fix-up: rank r holds the block that belongs to reverse(nu(r)).
    for (Rank r = 0; r < lo.P; ++r) {
      const Rank t = core::permuted_position(r, lo.P);
      if (t != r) sch.add_exchange(step, r, t, BlockSet::single(t), false);
    }
    ++step;
  }
  for (i64 i = 0; i < lo.extra; ++i)
    sch.add_exchange(step, i, lo.P + i, BlockSet::single(lo.P + i), false);
  sch.normalize_steps();
  return sch;
}

Schedule allgather_bine(const Config& cfg, NoncontigStrategy st) {
  const Layout lo = layout_of(cfg.p);
  if (st == NoncontigStrategy::permute || st == NoncontigStrategy::send)
    require_pow2_for("allgather_bine permute/send", lo);
  Schedule sch = make_base(Collective::allgather, cfg,
                           std::string("allgather_bine_") + to_string(st),
                           sched::BlockSpace::per_vector);
  size_t step = 0;
  for (i64 i = 0; i < lo.extra; ++i)
    sch.add_exchange(step, lo.P + i, i, BlockSet::single(lo.P + i), false);
  if (lo.extra > 0) ++step;
  if (st == NoncontigStrategy::send) {
    // Pre-exchange: rank r seeds the butterfly with its aliased block by
    // shipping its own block to the rank that "owns" position r.
    const auto inv = core::inverse_contiguity_permutation(lo.P);
    for (Rank r = 0; r < lo.P; ++r) {
      const Rank t = inv[static_cast<size_t>(r)];
      if (t != r) sch.add_exchange(step, r, t, BlockSet::single(r), false);
    }
    ++step;
  }
  step = emit_ag_steps(sch, cfg, lo, st, step);
  if (st == NoncontigStrategy::permute) {
    for (Rank r = 0; r < lo.P; ++r) sch.add_local(step, r, lo.P);
    ++step;
  }
  for (i64 i = 0; i < lo.extra; ++i)
    sch.add_exchange(step, i, lo.P + i, BlockSet::all(cfg.p), false);
  sch.normalize_steps();
  return sch;
}

Schedule allreduce_bine_large(const Config& cfg, NoncontigStrategy st) {
  const Layout lo = layout_of(cfg.p);
  if (st == NoncontigStrategy::permute || st == NoncontigStrategy::send)
    require_pow2_for("allreduce_bine_large permute/send", lo);
  Schedule sch = make_base(Collective::allreduce, cfg,
                           std::string("allreduce_bine_") + to_string(st),
                           sched::BlockSpace::per_vector);
  size_t step = 0;
  for (i64 i = 0; i < lo.extra; ++i)
    sch.add_exchange(step, lo.P + i, i, BlockSet::all(cfg.p), true);
  if (lo.extra > 0) ++step;
  if (st == NoncontigStrategy::permute) {
    for (Rank r = 0; r < lo.P; ++r) sch.add_local(step, r, lo.P);
    ++step;
  }
  // Reduce-scatter phase, then allgather phase. The Send strategy's aliasing
  // cancels between the phases; the Permute strategy un-permutes at the end
  // (Sec. 4.3.1: "the subsequent collective implicitly reverses the
  // permutation").
  step = emit_rs_steps(sch, cfg, lo, st, step);
  step = emit_ag_steps(sch, cfg, lo, st, step);
  if (st == NoncontigStrategy::permute) {
    for (Rank r = 0; r < lo.P; ++r) sch.add_local(step, r, lo.P);
    ++step;
  }
  for (i64 i = 0; i < lo.extra; ++i)
    sch.add_exchange(step, i, lo.P + i, BlockSet::all(cfg.p), false);
  sch.normalize_steps();
  return sch;
}

Schedule allreduce_bine_small(const Config& cfg) {
  const Layout lo = layout_of(cfg.p);
  Schedule sch = make_base(Collective::allreduce, cfg, "allreduce_bine_small",
                           sched::BlockSpace::per_vector);
  size_t step = 0;
  for (i64 i = 0; i < lo.extra; ++i)
    sch.add_exchange(step, lo.P + i, i, BlockSet::all(cfg.p), true);
  if (lo.extra > 0) ++step;
  for (int j = 0; j < lo.s; ++j, ++step)
    for (Rank r = 0; r < lo.P; ++r)
      sch.add_exchange(step, r, butterfly_partner(ButterflyVariant::bine_dd, r, j, lo.P),
                       BlockSet::all(cfg.p), true);
  for (i64 i = 0; i < lo.extra; ++i)
    sch.add_exchange(step, i, lo.P + i, BlockSet::all(cfg.p), false);
  sch.normalize_steps();
  return sch;
}

// --- Standard butterflies -----------------------------------------------------

namespace {

/// Contiguous logical-destination range kept by `r` down to level `lvl` of
/// the standard hypercube halving: {d : d >> lvl == r >> lvl}.
std::vector<i64> cube_range(Rank r, int lvl) {
  std::vector<i64> out;
  const i64 base = (r >> lvl) << lvl;
  out.reserve(static_cast<size_t>(i64{1} << lvl));
  for (i64 d = base; d < base + (i64{1} << lvl); ++d) out.push_back(d);
  return out;
}

}  // namespace

Schedule reduce_scatter_recursive_halving(const Config& cfg) {
  const Layout lo = layout_of(cfg.p);
  Schedule sch = make_base(Collective::reduce_scatter, cfg, "reduce_scatter_rhalving",
                           sched::BlockSpace::per_vector);
  size_t step = 0;
  for (i64 i = 0; i < lo.extra; ++i)
    sch.add_exchange(step, lo.P + i, i, BlockSet::all(cfg.p), true);
  if (lo.extra > 0) ++step;
  for (int j = 0; j < lo.s; ++j, ++step) {
    const int lvl = lo.s - 1 - j;
    for (Rank r = 0; r < lo.P; ++r) {
      const Rank q = r ^ (i64{1} << lvl);
      sch.add_exchange(step, r, q, dest_blocks(cube_range(q, lvl), lo.P, lo.extra, cfg.p, sch.arena()),
                       true);
    }
  }
  for (i64 i = 0; i < lo.extra; ++i)
    sch.add_exchange(step, i, lo.P + i, BlockSet::single(lo.P + i), false);
  sch.normalize_steps();
  return sch;
}

Schedule allgather_recursive_doubling(const Config& cfg) {
  const Layout lo = layout_of(cfg.p);
  Schedule sch = make_base(Collective::allgather, cfg, "allgather_rdoubling",
                           sched::BlockSpace::per_vector);
  size_t step = 0;
  for (i64 i = 0; i < lo.extra; ++i)
    sch.add_exchange(step, lo.P + i, i, BlockSet::single(lo.P + i), false);
  if (lo.extra > 0) ++step;
  for (int j = 0; j < lo.s; ++j, ++step)
    for (Rank r = 0; r < lo.P; ++r)
      sch.add_exchange(step, r, r ^ (i64{1} << j),
                       dest_blocks(cube_range(r, j), lo.P, lo.extra, cfg.p, sch.arena()), false);
  for (i64 i = 0; i < lo.extra; ++i)
    sch.add_exchange(step, i, lo.P + i, BlockSet::all(cfg.p), false);
  sch.normalize_steps();
  return sch;
}

Schedule allreduce_recursive_doubling(const Config& cfg) {
  const Layout lo = layout_of(cfg.p);
  Schedule sch = make_base(Collective::allreduce, cfg, "allreduce_rdoubling",
                           sched::BlockSpace::per_vector);
  size_t step = 0;
  for (i64 i = 0; i < lo.extra; ++i)
    sch.add_exchange(step, lo.P + i, i, BlockSet::all(cfg.p), true);
  if (lo.extra > 0) ++step;
  for (int j = 0; j < lo.s; ++j, ++step)
    for (Rank r = 0; r < lo.P; ++r)
      sch.add_exchange(step, r, r ^ (i64{1} << j), BlockSet::all(cfg.p), true);
  for (i64 i = 0; i < lo.extra; ++i)
    sch.add_exchange(step, i, lo.P + i, BlockSet::all(cfg.p), false);
  sch.normalize_steps();
  return sch;
}

Schedule allreduce_rabenseifner(const Config& cfg) {
  const Layout lo = layout_of(cfg.p);
  Schedule sch = make_base(Collective::allreduce, cfg, "allreduce_rabenseifner",
                           sched::BlockSpace::per_vector);
  size_t step = 0;
  for (i64 i = 0; i < lo.extra; ++i)
    sch.add_exchange(step, lo.P + i, i, BlockSet::all(cfg.p), true);
  if (lo.extra > 0) ++step;
  for (int j = 0; j < lo.s; ++j, ++step) {
    const int lvl = lo.s - 1 - j;
    for (Rank r = 0; r < lo.P; ++r) {
      const Rank q = r ^ (i64{1} << lvl);
      sch.add_exchange(step, r, q, dest_blocks(cube_range(q, lvl), lo.P, lo.extra, cfg.p, sch.arena()),
                       true);
    }
  }
  for (int j = 0; j < lo.s; ++j, ++step)
    for (Rank r = 0; r < lo.P; ++r)
      sch.add_exchange(step, r, r ^ (i64{1} << j),
                       dest_blocks(cube_range(r, j), lo.P, lo.extra, cfg.p, sch.arena()), false);
  for (i64 i = 0; i < lo.extra; ++i)
    sch.add_exchange(step, i, lo.P + i, BlockSet::all(cfg.p), false);
  sch.normalize_steps();
  return sch;
}

// --- Swing --------------------------------------------------------------------

Schedule reduce_scatter_swing(const Config& cfg) {
  Schedule s = reduce_scatter_bine(cfg, NoncontigStrategy::block_by_block);
  s.algorithm = "reduce_scatter_swing";
  return s;
}

Schedule allgather_swing(const Config& cfg) {
  Schedule s = allgather_bine(cfg, NoncontigStrategy::block_by_block);
  s.algorithm = "allgather_swing";
  return s;
}

Schedule allreduce_swing(const Config& cfg) {
  Schedule s = allreduce_bine_large(cfg, NoncontigStrategy::block_by_block);
  s.algorithm = "allreduce_swing";
  return s;
}

}  // namespace bine::coll
