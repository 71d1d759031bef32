#include "coll/butterfly_colls.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

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
using sched::BlockRange;

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

/// Physical blocks carried for the destination pieces `pieces` (p'-space,
/// sorted, disjoint, each within [0, P)), folding in the blocks of the extra
/// ranks paired during the non-power-of-two pre-step: every piece's part
/// below `extra` appears again at +P.
BlockSet fold_blocks(std::vector<BlockRange>& pieces, const Layout& lo, i64 p,
                     sched::ScheduleArena& arena) {
  const size_t n = pieces.size();
  for (size_t k = 0; k < n && pieces[k].begin < lo.extra; ++k) {
    const i64 end = std::min(pieces[k].begin + pieces[k].count, lo.extra);
    const BlockRange folded{lo.P + pieces[k].begin, end - pieces[k].begin};
    pieces.push_back(folded);
  }
  return sched::blockset_from_ranges(pieces, p, arena);
}

/// Sorted pieces of the circular p'-space interval {start, len}.
void interval_pieces(i64 start, i64 len, i64 P, std::vector<BlockRange>& out) {
  out.clear();
  start = pmod(start, P);
  const i64 head = std::min(len, P - start);
  if (head < len) out.push_back({0, len - head});
  out.push_back({start, head});
}

/// Sorted maximal runs of a sorted id list.
std::vector<BlockRange> runs_of(const std::vector<i64>& sorted_ids) {
  std::vector<BlockRange> out;
  for (const i64 x : sorted_ids) {
    if (!out.empty() && out.back().begin + out.back().count == x)
      ++out.back().count;
    else
      out.push_back({x, 1});
  }
  return out;
}

/// A step's relative set S as sorted runs of its rel_to_dest images before
/// the shift by r: S itself for even ranks, -S mod P for odd ones.
struct RelRuns {
  std::vector<BlockRange> even, odd;
};

RelRuns rel_runs(std::vector<i64> rel, i64 P) {
  RelRuns out;
  out.even = runs_of(rel);
  for (i64& l : rel) l = pmod(-l, P);
  std::sort(rel.begin(), rel.end());
  out.odd = runs_of(rel);
  return out;
}

/// `runs` (sorted, within [0, P)) shifted by `shift` in [0, P), written to
/// `out` still sorted: a rotation, where the runs pushed past P move to the
/// front and the one straddling P splits in two.
void rotate_runs(const std::vector<BlockRange>& runs, i64 shift, i64 P,
                 std::vector<BlockRange>& out) {
  out.clear();
  size_t k = 0;  // first run whose shifted end passes P
  while (k < runs.size() && runs[k].begin + runs[k].count + shift <= P) ++k;
  for (size_t i = k; i < runs.size(); ++i) {
    const i64 b = runs[i].begin + shift;
    out.push_back(b >= P ? BlockRange{b - P, runs[i].count}
                         : BlockRange{0, b + runs[i].count - P});
  }
  for (size_t i = 0; i < k; ++i) out.push_back({runs[i].begin + shift, runs[i].count});
  if (k < runs.size() && runs[k].begin + shift < P)
    out.push_back({runs[k].begin + shift, P - runs[k].begin - shift});
}

/// How rank r's Permute/block_by_block set repeats in r. The set is r's
/// parity image of the relative set S (S for even r, -S for odd r) rotated by
/// r, so ranks r and r + period share it, where period is the smallest even
/// rotation mapping S onto itself. When -S is S rotated by an odd
/// `odd_shift`, odd rank r also shares even rank r + odd_shift's set. Both
/// come from membership scans.
struct Repeat {
  i64 period = 2;
  i64 odd_shift = 0;  ///< 0: the odd ranks share no even rank's set

  [[nodiscard]] size_t class_of(Rank r) const {
    return static_cast<size_t>((r % 2 == 1 ? r + odd_shift : r) % period);
  }
};

Repeat repeat_of(const std::vector<i64>& rel, i64 P) {
  std::vector<bool> in_even(static_cast<size_t>(P), false), in_odd(in_even);
  for (const i64 l : rel) {
    in_even[static_cast<size_t>(l)] = true;
    in_odd[static_cast<size_t>(pmod(-l, P))] = true;
  }
  const auto maps_onto = [&](const std::vector<bool>& image, i64 shift) {
    return std::all_of(rel.begin(), rel.end(), [&](i64 l) {
      return image[static_cast<size_t>((l + shift) % P)];
    });
  };
  Repeat rep;
  while (rep.period < P && !maps_onto(in_even, rep.period)) rep.period *= 2;
  for (i64 c = 1; c < rep.period && rep.odd_shift == 0; c += 2)
    if (maps_onto(in_odd, c)) rep.odd_shift = c;
  return rep;
}

/// Emit the reduce-scatter (`reduce`) or allgather (its time reversal)
/// butterfly steps into `sch` starting at step `step0`; returns the next free
/// step index. Every set is built from ranges: the Two Transmissions sets are
/// one circular interval, the Send strategy's reverse(nu) aliasing maps each
/// set onto one aligned run, and Permute/block_by_block rotate the step's
/// presorted relative runs by r. Those rotations repeat in r (Repeat), so the
/// first rank of each class builds its set and the others reuse the BlockSet
/// value: one arena span per distinct set.
size_t emit_butterfly_steps(Schedule& sch, const Config& cfg, const Layout& lo,
                            NoncontigStrategy st, size_t step0, bool reduce) {
  const bool two_trans = st == NoncontigStrategy::two_transmission;
  // Two Transmissions runs the opposite butterfly (Sec. 4.3.1).
  const ButterflyVariant variant =
      reduce != two_trans ? ButterflyVariant::bine_dd : ButterflyVariant::bine_dh;
  std::vector<BlockRange> pieces;
  if (two_trans) {
    for (int j = 0; j < lo.s; ++j) {
      const core::CircularInterval rel = reduce ? dh_sent_interval(j, lo.P)
                                                : dd_held_interval(j, lo.P);
      for (Rank r = 0; r < lo.P; ++r) {
        const i64 start =
            r % 2 == 0 ? r + rel.start : r - rel.start - rel.length + 1;
        interval_pieces(start, rel.length, lo.P, pieces);
        sch.add_exchange(step0 + static_cast<size_t>(j), r,
                         butterfly_partner(variant, r, j, lo.P),
                         fold_blocks(pieces, lo, cfg.p, sch.arena()), reduce);
      }
    }
    return step0 + static_cast<size_t>(lo.s);
  }
  const auto rel_by_step = reduce ? dd_sent_rel(lo.P) : dh_held_rel(lo.P);
  const auto perm = st == NoncontigStrategy::send ? core::contiguity_permutation(lo.P)
                                                  : std::vector<i64>{};
  struct SharedSet {
    BlockSet blocks;
    i64 segments = 0;  ///< 0 until the class's first rank builds the set
  };
  std::vector<SharedSet> shared;  ///< per Repeat class
  for (int j = 0; j < lo.s; ++j) {
    const size_t step = step0 + static_cast<size_t>(j);
    const std::vector<i64>& rel = rel_by_step[static_cast<size_t>(j)];
    if (st == NoncontigStrategy::send) {
      // The aliased set shares the top bits of reverse(nu(d)): an aligned
      // run of |S| = 2^k positions, located by any one member.
      assert(lo.extra == 0);
      const i64 len = static_cast<i64>(rel.size());
      for (Rank r = 0; r < lo.P; ++r) {
        const i64 begin =
            perm[static_cast<size_t>(rel_to_dest(r, rel.front(), lo.P))] & ~(len - 1);
#ifndef NDEBUG
        i64 lo_pos = lo.P, hi_pos = -1;
        for (const i64 l : rel) {
          const i64 pos = perm[static_cast<size_t>(rel_to_dest(r, l, lo.P))];
          lo_pos = std::min(lo_pos, pos);
          hi_pos = std::max(hi_pos, pos);
        }
        assert(hi_pos - lo_pos + 1 == len && lo_pos == begin);
#endif
        sch.add_exchange(step, r, butterfly_partner(variant, r, j, lo.P),
                         BlockSet::run(begin, len), reduce, 1);
      }
      continue;
    }
    const RelRuns runs = rel_runs(rel, lo.P);
    const Repeat rep = repeat_of(rel, lo.P);
    shared.assign(static_cast<size_t>(rep.period), {});
    for (Rank r = 0; r < lo.P; ++r) {
      SharedSet& set = shared[rep.class_of(r)];
      if (set.segments == 0) {
        rotate_runs(r % 2 == 0 ? runs.even : runs.odd, r, lo.P, pieces);
        set.blocks = fold_blocks(pieces, lo, cfg.p, sch.arena());
        set.segments =
            st == NoncontigStrategy::block_by_block ? set.blocks.block_count() : 1;
      }
      sch.add_exchange(step, r, butterfly_partner(variant, r, j, lo.P), set.blocks, reduce,
                       set.segments);
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
  step = emit_butterfly_steps(sch, cfg, lo, st, step, true);
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
  step = emit_butterfly_steps(sch, cfg, lo, st, step, false);
  if (st == NoncontigStrategy::permute) {
    for (Rank r = 0; r < lo.P; ++r) sch.add_local(step, r, lo.P);
    ++step;
  }
  for (i64 i = 0; i < lo.extra; ++i)
    sch.add_exchange(step, i, lo.P + i, BlockSet::all(cfg.p), false);
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
  step = emit_butterfly_steps(sch, cfg, lo, st, step, true);
  step = emit_butterfly_steps(sch, cfg, lo, st, step, false);
  if (st == NoncontigStrategy::permute) {
    for (Rank r = 0; r < lo.P; ++r) sch.add_local(step, r, lo.P);
    ++step;
  }
  for (i64 i = 0; i < lo.extra; ++i)
    sch.add_exchange(step, i, lo.P + i, BlockSet::all(cfg.p), false);
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
  return sch;
}

// --- Standard butterflies -----------------------------------------------------

namespace {

/// Physical blocks of the logical destinations kept by `r` down to level
/// `lvl` of the standard hypercube halving, {d : d >> lvl == r >> lvl}: one
/// run, plus the blocks of the extra ranks folded onto it.
BlockSet cube_blocks(Rank r, int lvl, const Layout& lo, i64 p,
                     std::vector<BlockRange>& pieces, sched::ScheduleArena& arena) {
  pieces.assign(1, BlockRange{(r >> lvl) << lvl, i64{1} << lvl});
  return fold_blocks(pieces, lo, p, arena);
}

}  // namespace

Schedule reduce_scatter_recursive_halving(const Config& cfg) {
  const Layout lo = layout_of(cfg.p);
  Schedule sch = make_base(Collective::reduce_scatter, cfg, "reduce_scatter_rhalving",
                           sched::BlockSpace::per_vector);
  std::vector<BlockRange> pieces;
  size_t step = 0;
  for (i64 i = 0; i < lo.extra; ++i)
    sch.add_exchange(step, lo.P + i, i, BlockSet::all(cfg.p), true);
  if (lo.extra > 0) ++step;
  for (int j = 0; j < lo.s; ++j, ++step) {
    const int lvl = lo.s - 1 - j;
    for (Rank r = 0; r < lo.P; ++r) {
      const Rank q = r ^ (i64{1} << lvl);
      sch.add_exchange(step, r, q, cube_blocks(q, lvl, lo, cfg.p, pieces, sch.arena()),
                       true);
    }
  }
  for (i64 i = 0; i < lo.extra; ++i)
    sch.add_exchange(step, i, lo.P + i, BlockSet::single(lo.P + i), false);
  return sch;
}

Schedule allgather_recursive_doubling(const Config& cfg) {
  const Layout lo = layout_of(cfg.p);
  Schedule sch = make_base(Collective::allgather, cfg, "allgather_rdoubling",
                           sched::BlockSpace::per_vector);
  std::vector<BlockRange> pieces;
  size_t step = 0;
  for (i64 i = 0; i < lo.extra; ++i)
    sch.add_exchange(step, lo.P + i, i, BlockSet::single(lo.P + i), false);
  if (lo.extra > 0) ++step;
  for (int j = 0; j < lo.s; ++j, ++step)
    for (Rank r = 0; r < lo.P; ++r)
      sch.add_exchange(step, r, r ^ (i64{1} << j),
                       cube_blocks(r, j, lo, cfg.p, pieces, sch.arena()), false);
  for (i64 i = 0; i < lo.extra; ++i)
    sch.add_exchange(step, i, lo.P + i, BlockSet::all(cfg.p), false);
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
  return sch;
}

Schedule allreduce_rabenseifner(const Config& cfg) {
  const Layout lo = layout_of(cfg.p);
  Schedule sch = make_base(Collective::allreduce, cfg, "allreduce_rabenseifner",
                           sched::BlockSpace::per_vector);
  std::vector<BlockRange> pieces;
  size_t step = 0;
  for (i64 i = 0; i < lo.extra; ++i)
    sch.add_exchange(step, lo.P + i, i, BlockSet::all(cfg.p), true);
  if (lo.extra > 0) ++step;
  for (int j = 0; j < lo.s; ++j, ++step) {
    const int lvl = lo.s - 1 - j;
    for (Rank r = 0; r < lo.P; ++r) {
      const Rank q = r ^ (i64{1} << lvl);
      sch.add_exchange(step, r, q, cube_blocks(q, lvl, lo, cfg.p, pieces, sch.arena()),
                       true);
    }
  }
  for (int j = 0; j < lo.s; ++j, ++step)
    for (Rank r = 0; r < lo.P; ++r)
      sch.add_exchange(step, r, r ^ (i64{1} << j),
                       cube_blocks(r, j, lo, cfg.p, pieces, sch.arena()), false);
  for (i64 i = 0; i < lo.extra; ++i)
    sch.add_exchange(step, i, lo.P + i, BlockSet::all(cfg.p), false);
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
