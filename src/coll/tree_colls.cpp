#include "coll/tree_colls.hpp"

#include <algorithm>
#include <string>

#include "core/modular.hpp"

namespace bine::coll {

using core::to_physical;
using core::TreeVariant;
using sched::BlockSet;
using sched::Collective;
using sched::Schedule;

namespace {

std::string algo_name(const char* coll, TreeVariant v) {
  return std::string(coll) + "_" + to_string(v) + "_tree";
}

/// Physical blocks held by the subtree of logical rank `l` (p'-space),
/// including the blocks of the extra ranks folded onto subtree members during
/// the non-power-of-two pre-step: the subtree's circular interval as at most
/// two logical runs, each run's part below `extra` again at +p', all rotated
/// by the root.
BlockSet subtree_blocks(TreeVariant v, Rank l, i64 p_prime, i64 extra, Rank root, i64 p,
                        sched::ScheduleArena& arena) {
  const core::CircularInterval iv = core::subtree_interval(v, l, p_prime);
  sched::BlockRange pieces[4];
  size_t n = 0;
  const i64 start = pmod(iv.start, p_prime);
  const i64 head = std::min(iv.length, p_prime - start);
  pieces[n++] = {start, head};
  if (head < iv.length) pieces[n++] = {0, iv.length - head};
  for (size_t k = 0, runs = n; k < runs; ++k)
    if (pieces[k].begin < extra)
      pieces[n++] = {p_prime + pieces[k].begin,
                     std::min(pieces[k].begin + pieces[k].count, extra) - pieces[k].begin};
  for (size_t k = 0; k < n; ++k) pieces[k].begin = to_physical(pieces[k].begin, root, p);
  return sched::blockset_from_ranges({pieces, n}, p, arena);
}

/// Single physical block of logical rank `l`.
BlockSet own_block(Rank l, Rank root, i64 p) {
  return BlockSet::single(to_physical(l, root, p));
}

}  // namespace

Schedule bcast_tree(const Config& cfg, TreeVariant v) {
  Schedule s = make_base(Collective::bcast, cfg, algo_name("bcast", v),
                         sched::BlockSpace::per_vector);
  const i64 p_prime = pow2_floor(cfg.p);
  const i64 extra = cfg.p - p_prime;
  const int sp = log2_exact(p_prime);
  const BlockSet everything = BlockSet::all(cfg.p);

  for (Rank l = 0; l < p_prime; ++l) {
    const int joined = (p_prime == 1) ? 0 : core::join_step(v, l, p_prime);
    for (int step = joined + 1; step < sp; ++step) {
      const Rank child = core::tree_partner(v, l, step, p_prime);
      s.add_exchange(static_cast<size_t>(step), to_physical(l, cfg.root, cfg.p),
                     to_physical(child, cfg.root, cfg.p), everything, false);
    }
  }
  for (i64 i = 0; i < extra; ++i)
    s.add_exchange(static_cast<size_t>(sp), to_physical(i, cfg.root, cfg.p),
                   to_physical(p_prime + i, cfg.root, cfg.p), everything, false);
  return s;
}

Schedule reduce_tree(const Config& cfg, TreeVariant v) {
  Schedule s = make_base(Collective::reduce, cfg, algo_name("reduce", v),
                         sched::BlockSpace::per_vector);
  const i64 p_prime = pow2_floor(cfg.p);
  const i64 extra = cfg.p - p_prime;
  const int sp = log2_exact(p_prime);
  const BlockSet everything = BlockSet::all(cfg.p);
  const size_t pre = extra > 0 ? 1 : 0;

  for (i64 i = 0; i < extra; ++i)
    s.add_exchange(0, to_physical(p_prime + i, cfg.root, cfg.p),
                   to_physical(i, cfg.root, cfg.p), everything, true);
  // Reverse every broadcast edge: tree step st runs at output step
  // pre + (sp-1-st), child -> parent, folding with the reduction operator.
  for (Rank l = 0; l < p_prime; ++l) {
    const int joined = (p_prime == 1) ? 0 : core::join_step(v, l, p_prime);
    for (int st = joined + 1; st < sp; ++st) {
      const Rank child = core::tree_partner(v, l, st, p_prime);
      const size_t out_step = pre + static_cast<size_t>(sp - 1 - st);
      s.add_exchange(out_step, to_physical(child, cfg.root, cfg.p),
                     to_physical(l, cfg.root, cfg.p), everything, true);
    }
  }
  return s;
}

Schedule gather_tree(const Config& cfg, TreeVariant v) {
  assert(v == TreeVariant::binomial_dh || v == TreeVariant::bine_dh);
  Schedule s = make_base(Collective::gather, cfg, algo_name("gather", v),
                         sched::BlockSpace::per_vector);
  const i64 p_prime = pow2_floor(cfg.p);
  const i64 extra = cfg.p - p_prime;
  const int sp = log2_exact(p_prime);
  const size_t pre = extra > 0 ? 1 : 0;

  for (i64 i = 0; i < extra; ++i)
    s.add_exchange(0, to_physical(p_prime + i, cfg.root, cfg.p),
                   to_physical(i, cfg.root, cfg.p),
                   own_block(p_prime + i, cfg.root, cfg.p), false);
  for (Rank l = 0; l < p_prime; ++l) {
    const int joined = (p_prime == 1) ? 0 : core::join_step(v, l, p_prime);
    for (int st = joined + 1; st < sp; ++st) {
      const Rank child = core::tree_partner(v, l, st, p_prime);
      const size_t out_step = pre + static_cast<size_t>(sp - 1 - st);
      s.add_exchange(out_step, to_physical(child, cfg.root, cfg.p),
                     to_physical(l, cfg.root, cfg.p),
                     subtree_blocks(v, child, p_prime, extra, cfg.root, cfg.p, s.arena()), false);
    }
  }
  return s;
}

Schedule scatter_tree(const Config& cfg, TreeVariant v) {
  assert(v == TreeVariant::binomial_dh || v == TreeVariant::bine_dh);
  Schedule s = make_base(Collective::scatter, cfg, algo_name("scatter", v),
                         sched::BlockSpace::per_vector);
  const i64 p_prime = pow2_floor(cfg.p);
  const i64 extra = cfg.p - p_prime;
  const int sp = log2_exact(p_prime);

  for (Rank l = 0; l < p_prime; ++l) {
    const int joined = (p_prime == 1) ? 0 : core::join_step(v, l, p_prime);
    for (int st = joined + 1; st < sp; ++st) {
      const Rank child = core::tree_partner(v, l, st, p_prime);
      s.add_exchange(static_cast<size_t>(st), to_physical(l, cfg.root, cfg.p),
                     to_physical(child, cfg.root, cfg.p),
                     subtree_blocks(v, child, p_prime, extra, cfg.root, cfg.p, s.arena()), false);
    }
  }
  for (i64 i = 0; i < extra; ++i)
    s.add_exchange(static_cast<size_t>(sp), to_physical(i, cfg.root, cfg.p),
                   to_physical(p_prime + i, cfg.root, cfg.p),
                   own_block(p_prime + i, cfg.root, cfg.p), false);
  return s;
}

namespace {

Schedule flat(Collective coll, const Config& cfg, const char* name, bool to_root,
              bool reduce, bool per_rank_blocks) {
  Schedule s = make_base(coll, cfg, name, sched::BlockSpace::per_vector);
  const BlockSet everything = BlockSet::all(cfg.p);
  size_t step = 0;
  for (Rank off = 1; off < cfg.p; ++off, ++step) {
    const Rank peer = pmod(cfg.root + off, cfg.p);
    const BlockSet blocks = per_rank_blocks ? BlockSet::single(peer) : everything;
    if (to_root)
      s.add_exchange(step, peer, cfg.root, blocks, reduce);
    else
      s.add_exchange(step, cfg.root, peer, blocks, reduce);
  }
  return s;
}

}  // namespace

Schedule bcast_linear(const Config& cfg) {
  return flat(Collective::bcast, cfg, "bcast_linear", false, false, false);
}
Schedule reduce_linear(const Config& cfg) {
  return flat(Collective::reduce, cfg, "reduce_linear", true, true, false);
}
Schedule gather_linear(const Config& cfg) {
  return flat(Collective::gather, cfg, "gather_linear", true, false, true);
}
Schedule scatter_linear(const Config& cfg) {
  return flat(Collective::scatter, cfg, "scatter_linear", false, false, true);
}

}  // namespace bine::coll
