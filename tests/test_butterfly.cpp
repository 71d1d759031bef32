#include "core/butterfly.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "coll/butterfly_colls.hpp"
#include "coll/registry.hpp"
#include "core/block_perm.hpp"
#include "core/modular.hpp"
#include "core/nu.hpp"
#include "core/tree.hpp"

namespace bc = bine::core;
using bc::ButterflyVariant;
using bine::i64;
using bine::Rank;
using bine::u64;

// --- Paper worked examples ----------------------------------------------------

TEST(BineButterfly, DhStepDistancesFor8Ranks) {
  // Eq. 4 with s=3: distances (1-(-2)^3)/3 = 3, then -1, then 1.
  EXPECT_EQ(bc::butterfly_partner(ButterflyVariant::bine_dh, 0, 0, 8), 3);
  EXPECT_EQ(bc::butterfly_partner(ButterflyVariant::bine_dh, 0, 1, 8), 7);
  EXPECT_EQ(bc::butterfly_partner(ButterflyVariant::bine_dh, 0, 2, 8), 1);
}

TEST(BineButterfly, DdRootSequenceFor8Ranks) {
  // Eq. 5: rank 0 meets 1 (step 0), -1=7 (step 1), 3 (step 2).
  EXPECT_EQ(bc::butterfly_partner(ButterflyVariant::bine_dd, 0, 0, 8), 1);
  EXPECT_EQ(bc::butterfly_partner(ButterflyVariant::bine_dd, 0, 1, 8), 7);
  EXPECT_EQ(bc::butterfly_partner(ButterflyVariant::bine_dd, 0, 2, 8), 3);
}

TEST(StandardButterfly, RecursiveDoublingAndHalving) {
  EXPECT_EQ(bc::butterfly_partner(ButterflyVariant::recursive_doubling, 0, 0, 8), 1);
  EXPECT_EQ(bc::butterfly_partner(ButterflyVariant::recursive_doubling, 0, 2, 8), 4);
  EXPECT_EQ(bc::butterfly_partner(ButterflyVariant::recursive_halving, 0, 0, 8), 4);
  EXPECT_EQ(bc::butterfly_partner(ButterflyVariant::recursive_halving, 0, 2, 8), 1);
}

// --- Matching / consistency properties -----------------------------------------

struct BflyCase {
  ButterflyVariant variant;
  i64 p;
};

class ButterflyMatching : public ::testing::TestWithParam<BflyCase> {};

TEST_P(ButterflyMatching, EveryStepIsAPerfectMatching) {
  const auto [variant, p] = GetParam();
  const int s = bine::log2_exact(p);
  for (int step = 0; step < s; ++step) {
    for (Rank r = 0; r < p; ++r) {
      const Rank q = bc::butterfly_partner(variant, r, step, p);
      ASSERT_GE(q, 0);
      ASSERT_LT(q, p);
      EXPECT_NE(q, r);
      EXPECT_EQ(bc::butterfly_partner(variant, q, step, p), r)
          << to_string(variant) << " p=" << p << " r=" << r << " step=" << step;
    }
  }
}

TEST_P(ButterflyMatching, FullPatternConnectsAllRanks) {
  // After s steps, data starting at any rank can have reached every rank:
  // the union of matchings forms a connected hypercube-like graph.
  const auto [variant, p] = GetParam();
  const int s = bine::log2_exact(p);
  std::vector<char> reached(static_cast<size_t>(p), 0);
  reached[0] = 1;
  for (int step = 0; step < s; ++step) {
    std::vector<char> next = reached;
    for (Rank r = 0; r < p; ++r)
      if (reached[static_cast<size_t>(r)])
        next[static_cast<size_t>(bc::butterfly_partner(variant, r, step, p))] = 1;
    reached = std::move(next);
  }
  for (Rank r = 0; r < p; ++r) EXPECT_TRUE(reached[static_cast<size_t>(r)]) << r;
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, ButterflyMatching,
    ::testing::Values(BflyCase{ButterflyVariant::recursive_doubling, 16},
                      BflyCase{ButterflyVariant::recursive_doubling, 256},
                      BflyCase{ButterflyVariant::recursive_halving, 16},
                      BflyCase{ButterflyVariant::recursive_halving, 256},
                      BflyCase{ButterflyVariant::bine_dh, 2},
                      BflyCase{ButterflyVariant::bine_dh, 16},
                      BflyCase{ButterflyVariant::bine_dh, 256},
                      BflyCase{ButterflyVariant::bine_dh, 1024},
                      BflyCase{ButterflyVariant::bine_dd, 2},
                      BflyCase{ButterflyVariant::bine_dd, 16},
                      BflyCase{ButterflyVariant::bine_dd, 256},
                      BflyCase{ButterflyVariant::bine_dd, 1024},
                      BflyCase{ButterflyVariant::swing, 64}),
    [](const ::testing::TestParamInfo<BflyCase>& ti) {
      return std::string(to_string(ti.param.variant)) + "_p" + std::to_string(ti.param.p);
    });

TEST(ButterflyTreeConsistency, DhTreeEdgesFollowEq4) {
  // The distance-halving Bine tree rooted at 0 is embedded in the
  // distance-halving Bine butterfly (Sec. 3.1): every tree send at step i
  // uses the Eq. 4 partner.
  for (const i64 p : {4, 8, 16, 64, 256}) {
    const int s = bine::log2_exact(p);
    for (Rank r = 0; r < p; ++r) {
      const int joined = bc::join_step(bc::TreeVariant::bine_dh, r, p);
      for (int step = joined + 1; step < s; ++step) {
        EXPECT_EQ(bc::tree_partner(bc::TreeVariant::bine_dh, r, step, p),
                  bc::butterfly_partner(ButterflyVariant::bine_dh, r, step, p))
            << "p=" << p << " r=" << r << " step=" << step;
      }
    }
  }
}

TEST(ButterflyTreeConsistency, DdTreeEdgesSatisfyNuRelation) {
  // Sec. 3.2.2: tree partner q of r at step j satisfies nu(q) = nu(r) ^ 2^j.
  for (const i64 p : {4, 8, 16, 64, 256}) {
    const int s = bine::log2_exact(p);
    for (Rank r = 0; r < p; ++r) {
      const int joined = bc::join_step(bc::TreeVariant::bine_dd, r, p);
      for (int step = joined + 1; step < s; ++step) {
        const Rank q = bc::tree_partner(bc::TreeVariant::bine_dd, r, step, p);
        EXPECT_EQ(bc::nu(q, p), bc::nu(r, p) ^ (u64{1} << step))
            << "p=" << p << " r=" << r << " step=" << step;
      }
    }
  }
}

TEST(ButterflyTreeConsistency, SwingSharesBineDdPeers) {
  // Sec. 4.4: Bine's large-vector pattern is "similar to the Swing
  // algorithm"; in our model they share the exact peer schedule and differ in
  // data layout only.
  for (const i64 p : {8, 64, 512}) {
    const int s = bine::log2_exact(p);
    for (Rank r = 0; r < p; ++r)
      for (int step = 0; step < s; ++step)
        EXPECT_EQ(bc::butterfly_partner(ButterflyVariant::swing, r, step, p),
                  bc::butterfly_partner(ButterflyVariant::bine_dd, r, step, p));
  }
}

TEST(ButterflyLocality, BineDhShortensDistancesVsRecursiveHalving) {
  // Aggregate modular distance over all (rank, step) pairs must be lower for
  // the Bine butterfly -- the mechanism behind the 33% traffic cut.
  for (const i64 p : {16, 64, 256, 1024}) {
    const int s = bine::log2_exact(p);
    i64 bine_total = 0, std_total = 0;
    for (Rank r = 0; r < p; ++r)
      for (int step = 0; step < s; ++step) {
        bine_total += bc::modular_distance(
            r, bc::butterfly_partner(ButterflyVariant::bine_dh, r, step, p), p);
        std_total += bc::modular_distance(
            r, bc::butterfly_partner(ButterflyVariant::recursive_halving, r, step, p), p);
      }
    EXPECT_LT(bine_total, std_total) << "p=" << p;
    // Expect roughly the 2/3 ratio of Eq. 2.
    const double ratio = static_cast<double>(bine_total) / static_cast<double>(std_total);
    EXPECT_NEAR(ratio, 2.0 / 3.0, 0.08) << "p=" << p;
  }
}

// --- Block permutation (Fig. 8) -------------------------------------------------

TEST(BlockPermutation, Fig8Row) {
  // Fig. 8: dest positions (reverse(nu(i))) = 000 100 110 001 011 111 101 010.
  const i64 expected[8] = {0, 4, 6, 1, 3, 7, 5, 2};
  for (i64 i = 0; i < 8; ++i) EXPECT_EQ(bc::permuted_position(i, 8), expected[i]) << i;
}

TEST(BlockPermutation, IsBijectionAndInverse) {
  for (const i64 p : {2, 4, 8, 16, 64, 256, 1024}) {
    const auto perm = bc::contiguity_permutation(p);
    const auto inv = bc::inverse_contiguity_permutation(p);
    std::vector<int> seen(static_cast<size_t>(p), 0);
    for (i64 i = 0; i < p; ++i) {
      seen[static_cast<size_t>(perm[static_cast<size_t>(i)])]++;
      EXPECT_EQ(inv[static_cast<size_t>(perm[static_cast<size_t>(i)])], i);
    }
    for (i64 i = 0; i < p; ++i) EXPECT_EQ(seen[static_cast<size_t>(i)], 1);
  }
}

TEST(BlockPermutation, MakesDdSubtreeBlocksContiguous) {
  // The whole point of Fig. 8: blocks of any bine_dd subtree land in a
  // contiguous region after the permutation.
  for (const i64 p : {8, 16, 32, 64, 128}) {
    for (Rank r = 1; r < p; ++r) {
      std::vector<i64> dests;
      for (const Rank m : bc::dd_subtree_members(r, p))
        dests.push_back(bc::permuted_position(m, p));
      std::sort(dests.begin(), dests.end());
      for (size_t k = 1; k < dests.size(); ++k)
        EXPECT_EQ(dests[k], dests[k - 1] + 1) << "p=" << p << " subtree root " << r;
    }
  }
}

TEST(BlockPermutation, PaperSendExample) {
  // Sec. 4.3.1 "Send": rank 1 ships its block to reverse(nu(1)) = 4.
  EXPECT_EQ(bc::send_strategy_peer(1, 8), 4);
}

TEST(BlockPermutation, Fig8Step0BlocksOfRank0) {
  // At step 0 of the 8-rank reduce-scatter, rank 0 sends all blocks whose nu
  // has LSB 1: blocks 1, 2, 5, 6; after permutation they occupy positions 4-7.
  std::vector<i64> dests;
  for (const i64 b : {1, 2, 5, 6}) dests.push_back(bc::permuted_position(b, 8));
  std::sort(dests.begin(), dests.end());
  EXPECT_EQ(dests, (std::vector<i64>{4, 5, 6, 7}));
}

// --- Range-native butterfly blocks vs the id oracle ----------------------------
//
// The butterfly generators build every block set from ranges. The oracle below
// rebuilds each set the way they used to: list the relative destinations, map
// them through rel_to_dest (and reverse(nu) for the Send strategy), fold in the
// extra ranks of a non-power-of-two communicator and canonicalise with
// blockset_from_ids. Every butterfly op must match it exactly.

namespace {

namespace bco = bine::coll;
namespace bs = bine::sched;
using bco::NoncontigStrategy;

std::vector<bs::BlockRange> ranges_of(const bs::BlockSet& set) {
  return {set.ranges().begin(), set.ranges().end()};
}

/// Physical destination of relative offset `l` for rank `r` (Sec. 3.1).
i64 oracle_dest(Rank r, i64 l, i64 P) { return bine::pmod(r % 2 == 0 ? r + l : r - l, P); }

/// The p'-space destination ids folded with the extra ranks, canonicalised.
bs::BlockSet oracle_blocks(const std::vector<i64>& dests, i64 P, i64 p,
                           bs::ScheduleArena& arena) {
  std::vector<i64> ids;
  for (const i64 d : dests) {
    ids.push_back(d);
    if (d < p - P) ids.push_back(P + d);
  }
  return bs::blockset_from_ids(std::move(ids), p, arena);
}

/// Ids of the bine_dh subtree of rank 0's step-k child, relative to rank 0.
std::vector<i64> dh_subtree_rel(int k, i64 P) {
  const Rank child = bc::tree_partner(bc::TreeVariant::bine_dh, 0, k, P);
  const bc::CircularInterval iv = bc::subtree_interval(bc::TreeVariant::bine_dh, child, P);
  std::vector<i64> out;
  for (i64 x = 0; x < iv.length; ++x) out.push_back(bine::pmod(iv.start + x, P));
  return out;
}

/// Relative destinations rank r sends at step j of the Bine reduce-scatter
/// (`reduce`) or allgather butterfly under strategy `st`.
std::vector<i64> bine_rel(bool reduce, NoncontigStrategy st, int j, i64 P) {
  const int s = bine::log2_exact(P);
  std::vector<i64> rel;
  if (st == NoncontigStrategy::two_transmission) {
    if (reduce) return dh_subtree_rel(j, P);
    rel.push_back(0);
    for (int k = s - j; k < s; ++k)
      for (const i64 l : dh_subtree_rel(k, P)) rel.push_back(l);
    return rel;
  }
  for (i64 l = 0; l < P; ++l) {
    const u64 v = bc::nu(l, P);
    const bool in = reduce ? (v & bine::low_bits(j)) == 0 && ((v >> j) & 1) != 0
                           : (v & bine::low_bits(s - j)) == 0;
    if (in) rel.push_back(l);
  }
  return rel;
}

enum class Phase { bine_rs, bine_ag, cube_rs, cube_ag };

struct OracleCase {
  bs::Collective coll;
  std::string name;  ///< registry name
  NoncontigStrategy st;
  std::vector<Phase> phases;
};

/// Each rank's ops per step, out[step][rank], in the canonical walk's order.
std::vector<std::vector<std::vector<bs::Op>>> ops_by_step(const bs::Schedule& sch) {
  std::vector<std::vector<std::vector<bs::Op>>> out(
      sch.num_steps(), std::vector<std::vector<bs::Op>>(static_cast<size_t>(sch.p)));
  size_t step = 0;
  bs::for_each_op_step_major(
      sch, sch.num_steps(),
      [&](Rank r, const bs::Op& op) { out[step][static_cast<size_t>(r)].push_back(op); },
      [&](size_t t) { step = t + 1; });
  return out;
}

/// Check the butterfly steps of `sch` starting at `step0` against the oracle.
void expect_phase_matches_oracle(const bs::Schedule& sch, Phase phase, NoncontigStrategy st,
                                 size_t step0, const std::string& what) {
  const i64 p = sch.p, P = bco::pow2_floor(p);
  const int s = bine::log2_exact(P);
  const bool reduce = phase == Phase::bine_rs || phase == Phase::cube_rs;
  const bool two_trans = st == NoncontigStrategy::two_transmission;
  bs::ScheduleArena arena;
  const auto ops_at = ops_by_step(sch);
  for (int j = 0; j < s; ++j) {
    const size_t step = step0 + static_cast<size_t>(j);
    const bool bine = phase == Phase::bine_rs || phase == Phase::bine_ag;
    const std::vector<i64> rel = bine ? bine_rel(reduce, st, j, P) : std::vector<i64>{};
    for (Rank r = 0; r < p; ++r) {
      const auto& ops = ops_at[step][static_cast<size_t>(r)];
      if (r >= P) {
        ASSERT_TRUE(ops.empty()) << what << " step " << step << " rank " << r;
        continue;
      }
      std::vector<i64> dests;
      Rank q = 0;
      if (bine) {
        q = bc::butterfly_partner(reduce != two_trans ? ButterflyVariant::bine_dd
                                                      : ButterflyVariant::bine_dh,
                                  r, j, P);
        for (const i64 l : rel) {
          const i64 d = oracle_dest(r, l, P);
          dests.push_back(st == NoncontigStrategy::send ? bc::permuted_position(d, P) : d);
        }
      } else {
        const int lvl = reduce ? s - 1 - j : j;
        q = r ^ (i64{1} << lvl);
        const Rank kept = reduce ? q : r;
        for (i64 d = (kept >> lvl) << lvl; d < ((kept >> lvl) + 1) << lvl; ++d)
          dests.push_back(d);
      }
      const bs::BlockSet want = oracle_blocks(dests, P, p, arena);
      const i64 segs = !bine || two_trans ? std::max<i64>(1, want.memory_segments(p))
                       : st == NoncontigStrategy::block_by_block ? want.block_count()
                                                                 : 1;
      ASSERT_EQ(ops.size(), 2u) << what << " step " << step << " rank " << r;
      const bs::Op& send = ops[0].kind == bs::OpKind::send ? ops[0] : ops[1];
      ASSERT_EQ(send.kind, bs::OpKind::send) << what;
      ASSERT_EQ(send.peer, q) << what << " step " << step << " rank " << r;
      ASSERT_EQ(ranges_of(send.blocks), ranges_of(want))
          << what << " step " << step << " rank " << r;
      ASSERT_EQ(send.segments, segs) << what << " step " << step << " rank " << r;
      if (st == NoncontigStrategy::send && bine) {
        ASSERT_EQ(send.blocks.ranges().size(), 1u) << what << " Send set is not one run";
        ASSERT_EQ(send.blocks.memory_segments(p), 1) << what << " Send set wraps";
      }
    }
  }
}

const std::vector<OracleCase>& oracle_cases() {
  using C = bs::Collective;
  using S = NoncontigStrategy;
  static const std::vector<OracleCase> cases = [] {
    std::vector<OracleCase> out;
    for (const S st : {S::block_by_block, S::permute, S::send, S::two_transmission}) {
      const std::string name = std::string("bine_") + bco::to_string(st);  // registry name
      out.push_back({C::reduce_scatter, name, st, {Phase::bine_rs}});
      out.push_back({C::allgather, name, st, {Phase::bine_ag}});
      out.push_back({C::allreduce, name, st, {Phase::bine_rs, Phase::bine_ag}});
    }
    for (const C c : {C::reduce_scatter, C::allgather, C::allreduce}) {
      const std::vector<Phase> phases =
          c == C::reduce_scatter ? std::vector<Phase>{Phase::bine_rs}
          : c == C::allgather    ? std::vector<Phase>{Phase::bine_ag}
                                 : std::vector<Phase>{Phase::bine_rs, Phase::bine_ag};
      out.push_back({c, "swing", S::block_by_block, phases});
    }
    // The standard butterflies have no strategy; two_transmission stands in
    // for "no pre-step, segments derived from the set".
    out.push_back({C::reduce_scatter, "recursive_halving", S::two_transmission, {Phase::cube_rs}});
    out.push_back({C::allgather, "recursive_doubling", S::two_transmission, {Phase::cube_ag}});
    out.push_back(
        {C::allreduce, "rabenseifner", S::two_transmission, {Phase::cube_rs, Phase::cube_ag}});
    return out;
  }();
  return cases;
}

void expect_range_native_matches_oracle(i64 p) {
  const i64 P = bco::pow2_floor(p);
  const int s = bine::log2_exact(P);
  for (const OracleCase& c : oracle_cases()) {
    const bco::AlgorithmEntry& entry = bco::find_algorithm(c.coll, c.name);
    if (entry.pow2_only && P != p) continue;
    bco::Config cfg;
    cfg.p = p;
    cfg.elem_count = p;
    const bs::Schedule sch = entry.make(cfg);
    const std::string what =
        std::string(bs::to_string(c.coll)) + "/" + c.name + " p=" + std::to_string(p);
    // Pre-steps: the non-power-of-two fold, then Permute's local shuffle
    // before a reduce-scatter or Send's seeding exchange before an allgather.
    size_t step = P != p ? 1 : 0;
    if (c.phases[0] == Phase::bine_rs && c.st == NoncontigStrategy::permute) ++step;
    if (c.phases[0] == Phase::bine_ag && c.st == NoncontigStrategy::send) ++step;
    for (const Phase ph : c.phases) {
      expect_phase_matches_oracle(sch, ph, c.st, step, what);
      if (::testing::Test::HasFatalFailure()) return;
      step += static_cast<size_t>(s);
    }
  }
}

}  // namespace

TEST(ButterflyBlocks, RangeNativeMatchesIdOracle) {
  for (i64 p = 2; p <= 70; ++p) {
    expect_range_native_matches_oracle(p);
    if (HasFatalFailure()) return;
  }
  for (const i64 p : {96, 127, 1000, 1024, 2048}) {
    expect_range_native_matches_oracle(p);
    if (HasFatalFailure()) return;
  }
}

// The rooted large-vector composites (bcast scatter + allgather, reduce
// reduce-scatter + gather) alias every set through reverse(nu) and build it as
// one run. Oracle: every op rebuilt from ids -- the per-rank nu scan for the
// butterfly phases, dd_subtree_members for the tree phases -- over pow2 p up
// to 1024 and two roots.
TEST(ButterflyBlocks, AliasedRootedCompositesMatchIdOracle) {
  for (i64 p = 2; p <= 1024; p *= 2) {
    const int s = bine::log2_exact(p);
    for (const Rank root : {Rank{0}, p / 3}) {
      bco::Config cfg;
      cfg.p = p;
      cfg.elem_count = p;
      cfg.root = root;
      const bs::Schedule bcast = bco::find_algorithm(bs::Collective::bcast,
                                                     "bine_scatter_allgather").make(cfg);
      const bs::Schedule reduce = bco::find_algorithm(bs::Collective::reduce,
                                                      "bine_rs_gather").make(cfg);
      // Each schedule with its ops per step, walked once.
      struct Walked {
        const bs::Schedule& sch;
        std::vector<std::vector<std::vector<bs::Op>>> ops;
      };
      const Walked bcast_walk{bcast, ops_by_step(bcast)};
      const Walked reduce_walk{reduce, ops_by_step(reduce)};
      bs::ScheduleArena arena;
      const auto aliased = [&](const std::vector<i64>& logical) {
        std::vector<i64> ids;
        for (const i64 d : logical)
          ids.push_back(bc::to_physical(bc::permuted_position(d, p), root, p));
        return bs::blockset_from_ids(ids, p, arena);
      };
      // The send from logical rank `from` to `to` at `step` carries `want`.
      const auto expect_send = [&](const Walked& w, size_t step, Rank from, Rank to,
                                   const bs::BlockSet& want) {
        const Rank pf = bc::to_physical(from, root, p), pt = bc::to_physical(to, root, p);
        const bs::Schedule& sch = w.sch;
        const auto& ops = w.ops[step][static_cast<size_t>(pf)];
        const auto it = std::find_if(ops.begin(), ops.end(), [&](const bs::Op& op) {
          return op.kind == bs::OpKind::send && op.peer == pt;
        });
        ASSERT_NE(it, ops.end()) << sch.algorithm << " p=" << p << " root=" << root
                                 << " step " << step << " " << from << "->" << to;
        ASSERT_EQ(ranges_of(it->blocks), ranges_of(want))
            << sch.algorithm << " p=" << p << " root=" << root << " step " << step << " "
            << from << "->" << to;
      };
      // Butterfly phases: bcast's allgather fills steps [s, 2s), reduce's
      // reduce-scatter [0, s).
      for (const bool reducing : {false, true}) {
        for (int j = 0; j < s; ++j) {
          for (Rank l = 0; l < p; ++l) {
            std::vector<i64> dests;
            for (i64 rel = 0; rel < p; ++rel) {
              const u64 v = bc::nu(rel, p);
              const bool in = reducing ? (v & bine::low_bits(j)) == 0 && ((v >> j) & 1)
                                       : (v & bine::low_bits(s - j)) == 0;
              if (in) dests.push_back(oracle_dest(l, rel, p));
            }
            const Rank q = bc::butterfly_partner(
                reducing ? ButterflyVariant::bine_dd : ButterflyVariant::bine_dh, l, j, p);
            expect_send(reducing ? reduce_walk : bcast_walk,
                        static_cast<size_t>(reducing ? j : s + j), l, q, aliased(dests));
            if (HasFatalFailure()) return;
          }
        }
      }
      // Tree phases: bcast scatters down the bine_dd tree in steps [0, s),
      // reduce gathers up it in steps [s, 2s); each edge carries the child's
      // whole subtree.
      for (Rank l = 0; l < p; ++l) {
        for (int st = bc::join_step(bc::TreeVariant::bine_dd, l, p) + 1; st < s; ++st) {
          const Rank c = bc::tree_partner(bc::TreeVariant::bine_dd, l, st, p);
          std::vector<i64> members;
          for (const Rank m : bc::dd_subtree_members(c, p)) members.push_back(m);
          const bs::BlockSet want = aliased(members);
          expect_send(bcast_walk, static_cast<size_t>(st), l, c, want);
          expect_send(reduce_walk, static_cast<size_t>(2 * s - 1 - st), c, l, want);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}
