#include "sched/schedule.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "coll/registry.hpp"
#include "core/butterfly.hpp"
#include "core/nu.hpp"
#include "sched/blocks.hpp"
#include "sched/schedule_cache.hpp"

namespace bs = bine::sched;
using bine::i64;
using bine::u64;

TEST(Blocks, OffsetsAndSizesPartitionTheVector) {
  for (const i64 n : {0, 1, 7, 16, 100, 1023}) {
    for (const i64 B : {1, 2, 3, 8, 16, 40}) {
      i64 total = 0;
      for (i64 b = 0; b < B; ++b) {
        EXPECT_EQ(bs::block_offset(b, n, B) + bs::block_elems(b, n, B),
                  bs::block_offset(b + 1, n, B));
        total += bs::block_elems(b, n, B);
        EXPECT_GE(bs::block_elems(b, n, B), n / B);
        EXPECT_LE(bs::block_elems(b, n, B), n / B + 1);
      }
      EXPECT_EQ(total, n);
      EXPECT_EQ(bs::block_offset(0, n, B), 0);
      EXPECT_EQ(bs::block_offset(B, n, B), n);
    }
  }
}

TEST(Blocks, BlockSetExpandAndCount) {
  bs::BlockSet set = bs::BlockSet::run(6, 4);  // wraps 6,7,0,1 in B=8
  EXPECT_EQ(set.block_count(), 4);
  EXPECT_EQ(set.expand(8), (std::vector<i64>{6, 7, 0, 1}));
  EXPECT_EQ(set.memory_segments(8), 2);  // wrapped run = two memory segments
  EXPECT_EQ(bs::BlockSet::run(2, 3).memory_segments(8), 1);
  EXPECT_EQ(bs::BlockSet::all(8).memory_segments(8), 1);
}

TEST(Blocks, ElemCountMatchesExpandedSum) {
  for (const i64 n : {13, 40, 111}) {
    const i64 B = 8;
    for (i64 start = 0; start < B; ++start)
      for (i64 count = 0; count <= B; ++count) {
        const bs::BlockSet set = bs::BlockSet::run(start, count);
        i64 manual = 0;
        for (const i64 b : set.expand(B)) manual += bs::block_elems(b, n, B);
        EXPECT_EQ(set.elem_count(n, B), manual) << "n=" << n << " run " << start << "+"
                                                << count;
      }
  }
}

TEST(Blocks, FromIdsCoalescesAndWraps) {
  bs::ScheduleArena arena;
  const bs::BlockSet a = bs::blockset_from_ids({3, 1, 2}, 8, arena);
  ASSERT_EQ(a.ranges().size(), 1u);
  EXPECT_EQ(a.ranges()[0].begin, 1);
  EXPECT_EQ(a.ranges()[0].count, 3);

  const bs::BlockSet b = bs::blockset_from_ids({7, 0, 3}, 8, arena);
  // 7 and 0 glue circularly; 3 stays apart.
  EXPECT_EQ(b.block_count(), 3);
  EXPECT_EQ(b.memory_segments(8), 3);  // {3} + wrapped {7,0} counted as 2

  const bs::BlockSet c = bs::blockset_from_ids({0, 1, 2, 3, 4, 5, 6, 7}, 8, arena);
  ASSERT_EQ(c.ranges().size(), 1u);
  EXPECT_EQ(c.ranges()[0].count, 8);
}

// Property: expand() -> blockset_from_ids() is an exact round trip -- same
// ids in canonical (sorted-run, circularly merged) order -- for random id
// subsets, including ones that wrap at B-1. This is the invariant the
// ScheduleCache's size resolution leans on: the canonical form determines
// elem_count for every vector length.
TEST(Blocks, FromIdsExpandRoundTripOnRandomSets) {
  bs::ScheduleArena arena;
  std::mt19937_64 rng(20250731);
  for (const i64 B : {1, 2, 3, 8, 16, 37, 64}) {
    for (int trial = 0; trial < 200; ++trial) {
      // Random non-empty subset of [0, B), biased to include the wrap pair
      // {B-1, 0} in about half the trials.
      std::vector<i64> ids;
      const bool force_wrap = B > 1 && (trial % 2 == 0);
      for (i64 b = 0; b < B; ++b)
        if (rng() % 3 == 0) ids.push_back(b);
      if (force_wrap) {
        for (const i64 must : {i64{0}, B - 1})
          if (std::find(ids.begin(), ids.end(), must) == ids.end()) ids.push_back(must);
        std::sort(ids.begin(), ids.end());
      }
      if (ids.empty()) ids.push_back(static_cast<i64>(rng() % static_cast<u64>(B)));

      const bs::BlockSet set = bs::blockset_from_ids(ids, B, arena);
      EXPECT_EQ(set.block_count(), static_cast<i64>(ids.size()));

      // Expanded ids are the input set (as a set).
      std::vector<i64> expanded = set.expand(B);
      std::vector<i64> expanded_sorted = expanded;
      std::sort(expanded_sorted.begin(), expanded_sorted.end());
      std::vector<i64> input_sorted = ids;
      std::sort(input_sorted.begin(), input_sorted.end());
      ASSERT_EQ(expanded_sorted, input_sorted) << "B=" << B << " trial=" << trial;

      // Round trip through expand() reproduces the identical canonical form.
      const bs::BlockSet again = bs::blockset_from_ids(expanded, B, arena);
      ASSERT_EQ(std::vector<bs::BlockRange>(again.ranges().begin(), again.ranges().end()),
                std::vector<bs::BlockRange>(set.ranges().begin(), set.ranges().end()))
          << "B=" << B << " trial=" << trial;

      // Canonical-form invariants: every range non-empty, no range both
      // starting at 0 and another ending at B (they must have merged), and a
      // wrapped range only ever appears once, at the back.
      i64 wrapped = 0;
      bool starts_at_zero = false, ends_at_B = false;
      for (const bs::BlockRange& r : set.ranges()) {
        EXPECT_GT(r.count, 0);
        EXPECT_LE(r.count, B);
        if (r.begin + r.count > B) ++wrapped;
        starts_at_zero |= r.begin == 0;
        if (r.begin + r.count == B) ends_at_B = true;
      }
      EXPECT_LE(wrapped, 1);
      if (set.ranges().size() > 1) {
        EXPECT_FALSE(starts_at_zero && ends_at_B && wrapped == 0);
      }

      // elem_count matches the per-block sum for a non-divisible vector.
      const i64 n = 7 * B + 3;
      i64 manual = 0;
      for (const i64 b : expanded) manual += bs::block_elems(b, n, B);
      EXPECT_EQ(set.elem_count(n, B), manual);

      // memory_segments: a wrapped range costs two segments unless it covers
      // the whole space (then the memory image is one contiguous run).
      i64 expect_segs = 0;
      for (const bs::BlockRange& r : set.ranges())
        expect_segs += (r.begin + r.count > B && r.count < B) ? 2 : 1;
      EXPECT_EQ(set.memory_segments(B), expect_segs);
    }
  }
}

// blockset_from_ranges must land on the canonical form blockset_from_ids
// gives for the expanded ids: random disjoint circular ranges (wrapped ones
// included, given in shuffled order), the full circle, pieces meeting at
// B-1/0, empty input and B = 1.
TEST(Blocks, FromRangesMatchesFromIds) {
  bs::ScheduleArena arena;
  const auto expect_same = [&](const std::vector<bs::BlockRange>& ranges, i64 B) {
    std::vector<i64> ids;
    for (const bs::BlockRange& r : ranges)
      for (i64 k = 0; k < r.count; ++k) ids.push_back(bine::pmod(r.begin + k, B));
    const bs::BlockSet want = bs::blockset_from_ids(ids, B, arena);
    const bs::BlockSet got = bs::blockset_from_ranges(ranges, B, arena);
    EXPECT_EQ(std::vector<bs::BlockRange>(got.ranges().begin(), got.ranges().end()),
              std::vector<bs::BlockRange>(want.ranges().begin(), want.ranges().end()))
        << "B=" << B << " ranges=" << ranges.size();
    EXPECT_EQ(got.memory_segments(B), want.memory_segments(B)) << "B=" << B;
  };

  std::mt19937_64 rng(20261017);
  for (const i64 B : {1, 2, 3, 8, 16, 37, 64}) {
    for (int trial = 0; trial < 300; ++trial) {
      // Cut the circle at random points starting from a random offset; keep
      // a random subset of the arcs. Adjacent kept arcs exercise merging,
      // arcs crossing B-1/0 exercise the split and the circular join.
      const i64 offset = static_cast<i64>(rng() % static_cast<u64>(B));
      std::vector<bs::BlockRange> ranges;
      i64 at = 0;
      while (at < B) {
        const i64 len = 1 + static_cast<i64>(rng() % static_cast<u64>(std::min<i64>(B, 5)));
        const i64 count = std::min(len, B - at);
        if (rng() % 2 == 0) ranges.push_back({offset + at, count});
        at += count;
      }
      std::shuffle(ranges.begin(), ranges.end(), rng);
      expect_same(ranges, B);
    }
    expect_same({}, B);            // empty input
    expect_same({{0, 0}}, B);      // only empty ranges
    expect_same({{0, B}}, B);      // the full circle
    expect_same({{B - 1, B}}, B);  // the full circle, wrapped
    if (B > 1) expect_same({{B - 1, 1}, {0, 1}}, B);  // pieces meeting at B-1/0
  }
  expect_same({{5, 4}, {1, 2}}, 8);  // wrapped 5..0 plus 1..2: joins to one range
  expect_same({{3, 2}, {7, 1}, {0, 1}}, 8);
  EXPECT_TRUE(bs::blockset_from_ranges({}, 4, arena).empty());
}

TEST(Blocks, FullCircleWrappedRunIsOneMemorySegment) {
  // run(3, 8) in B=8 covers every block: the memory image is the whole
  // vector, i.e. one contiguous segment, not a split pair.
  EXPECT_EQ(bs::BlockSet::run(3, 8).memory_segments(8), 1);
  EXPECT_EQ(bs::BlockSet::run(3, 7).memory_segments(8), 2);
}

TEST(Blocks, ArenaSpansAreStableAcrossGrowth) {
  bs::ScheduleArena arena;
  // Force many chunk growths and verify previously returned sets never move.
  std::vector<bs::BlockSet> sets;
  std::vector<std::vector<i64>> expect;
  for (i64 t = 0; t < 2000; ++t) {
    const i64 B = 64;
    std::vector<i64> ids;
    for (i64 b = 0; b < B; b += 2 + (t % 5)) ids.push_back(b);
    expect.push_back(ids);
    sets.push_back(bs::blockset_from_ids(ids, B, arena));
  }
  for (size_t t = 0; t < sets.size(); ++t) {
    std::vector<i64> got = sets[t].expand(64);
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, expect[t]) << "set " << t;
  }
  // Chunked doubling: storage grows in O(log n) allocations, not O(n).
  EXPECT_LE(arena.chunk_count(), 16u);
}

// Every block range must lie in the block space: begin in [0, nblocks),
// count in [0, nblocks]. validate() checks the ranges themselves, not their
// expansion (which wraps ids mod nblocks and so once let any id through),
// and SizeFreeSchedule::from rejects the same ranges.
TEST(Schedule, ValidateRejectsOutOfRangeBlocks) {
  const auto with = [](bs::BlockSet blocks) {
    bs::Schedule s;
    s.coll = bs::Collective::bcast;
    s.p = 2;
    s.nblocks = 4;
    s.elem_count = 8;
    s.add_exchange(0, 0, 1, blocks, false);
    return s;
  };
  for (const bs::BlockSet ok : {bs::BlockSet::single(0), bs::BlockSet::single(3),
                                bs::BlockSet::all(4), bs::BlockSet::run(3, 4),
                                bs::BlockSet::run(2, 0)}) {
    EXPECT_EQ(with(ok).validate(), "");
    EXPECT_NO_THROW((void)bs::SizeFreeSchedule::from(with(ok)));
  }
  for (const bs::BlockSet bad : {bs::BlockSet::single(4), bs::BlockSet::single(-1),
                                 bs::BlockSet::run(0, 5), bs::BlockSet::run(1, -1)}) {
    const bs::BlockRange r = bad.ranges()[0];
    SCOPED_TRACE(std::to_string(r.begin) + "+" + std::to_string(r.count));
    EXPECT_NE(with(bad).validate().find("outside 4 blocks"), std::string::npos)
        << with(bad).validate();
    EXPECT_THROW((void)bs::SizeFreeSchedule::from(with(bad)), std::invalid_argument);
  }
}

// The canonical walk yields each exchange as a send at `from` and a receive
// at `to`, and keeps each rank's ops within a step in call order, locals
// included; coll::sequence's append moves the donor's log past the last step.
TEST(Schedule, CanonicalOrderKeepsEachRanksCallOrder) {
  bs::Schedule s;
  s.coll = bs::Collective::allreduce;
  s.p = 3;
  s.nblocks = 3;
  s.add_exchange(0, 2, 0, bs::BlockSet::single(2), true);
  s.add_local(0, 0, 3);
  s.add_exchange(0, 0, 1, bs::BlockSet::single(0), false);
  s.add_exchange(2, 1, 0, bs::BlockSet::all(3), false);
  EXPECT_EQ(s.num_steps(), 3u);

  std::string walk;
  const auto record = [&walk](const bs::Schedule& sch) {
    walk.clear();
    bs::for_each_op_step_major(
        sch, sch.num_steps(),
        [&](bine::Rank r, const bs::Op& op) {
          static const char* const kinds[] = {"send", "recv", "recv_reduce", "local"};
          walk += std::to_string(r) + ":" + kinds[static_cast<int>(op.kind)];
          if (op.kind != bs::OpKind::local_perm)
            walk += "@" + std::to_string(op.peer) + "#" + std::to_string(op.exchange);
          walk += " ";
        },
        [&](size_t t) {
          walk += "|";
          walk += std::to_string(t);
          walk += " ";
        });
  };
  record(s);
  EXPECT_EQ(walk,
            "0:recv_reduce@2#0 0:local 0:send@1#1 1:recv@0#1 2:send@0#0 |0 |1 "
            "0:recv@1#2 1:send@0#2 |2 ");

  bs::Schedule twice = s;
  twice.append(s);
  EXPECT_EQ(twice.num_steps(), 6u);
  ASSERT_EQ(twice.exchanges().size(), 6u);
  EXPECT_EQ(twice.exchanges()[5].step, 5u);
  record(twice);
  EXPECT_NE(walk.find("|2 0:recv_reduce@2#3 0:local 0:send@1#4 1:recv@0#4 2:send@0#3 |3 |4 "
                      "0:recv@1#5 1:send@0#5 |5 "),
            std::string::npos)
      << walk;
}

TEST(Schedule, TotalWireBytes) {
  bs::Schedule s;
  s.coll = bs::Collective::bcast;
  s.p = 4;
  s.nblocks = 4;
  s.elem_count = 16;  // 4 elems per block
  s.elem_size = 4;
  s.add_exchange(0, 0, 1, bs::BlockSet::all(4), false);   // 64 bytes
  s.add_exchange(1, 0, 2, bs::BlockSet::single(2), false);  // 16 bytes
  EXPECT_EQ(s.total_wire_bytes(), 64 + 16);
}

// The canonical op stream (`for_each_op_step_major`) is what every consumer
// of a Schedule reads: the size-free compile, the scalar simulation oracle
// and the reference executor. This digest pins it -- rank, kind, peer,
// exchange id, segments and block ranges of every op, plus the step
// boundaries -- for every non-specialized registry algorithm, so a change to
// how a Schedule stores its ops cannot reorder or alter the stream.
TEST(Schedule, RegistryOpStreamIsPinned) {
  u64 h = 0xcbf29ce484222325ull;  // FNV-1a over 64-bit words
  const auto mix = [&h](i64 v) {
    h ^= static_cast<u64>(v);
    h *= 0x100000001b3ull;
  };
  size_t schedules = 0;
  for (const bs::Collective c : bine::coll::all_collectives()) {
    for (const auto& entry : bine::coll::algorithms_for(c)) {
      if (entry.specialized) continue;
      for (const i64 p : {2, 3, 5, 8, 12, 33, 64}) {
        if (entry.pow2_only && !bine::is_pow2(p)) continue;
        for (const bine::Rank root : {bine::Rank{0}, bine::Rank{p / 3}}) {
          if (root != 0 && p / 3 == 0) continue;
          bine::coll::Config cfg;
          cfg.p = p;
          cfg.root = root;
          cfg.elem_count = p;
          const bs::Schedule sch = entry.make(cfg);
          ++schedules;
          mix(static_cast<i64>(sch.num_steps()));
          bs::for_each_op_step_major(
              sch, sch.num_steps(),
              [&](bine::Rank r, const bs::Op& op) {
                mix(r);
                mix(static_cast<i64>(op.kind));
                mix(op.peer);
                mix(op.exchange);
                mix(op.segments);
                for (const bs::BlockRange& br : op.blocks.ranges()) {
                  mix(br.begin);
                  mix(br.count);
                }
                mix(-1);
              },
              [&](size_t t) { mix(-2 - static_cast<i64>(t)); });
        }
      }
    }
  }
  EXPECT_GT(schedules, 0u);
  EXPECT_EQ(h, 0xc3cddc01d6fbbf19ull) << std::hex << h;
}

// --- Alltoall generators vs the id-walking oracle ------------------------------
//
// The oracle routes every pairwise block (s, d), id s * p + d, one hop at a
// time and canonicalises each exchange's ids with blockset_from_ids. Every
// exchange of the generators must match it: step, peers, block ranges and
// segment count (one per block: both store and forward per block).

namespace {

struct OracleExchange {
  size_t step = 0;
  bine::Rank from = 0, to = 0;
  std::vector<i64> ids;
};

/// Bruck: block (s, d) starts at rank s and hops +2^k at phase k for every
/// set bit k of its offset (d - s) mod p.
std::vector<OracleExchange> bruck_oracle(i64 p) {
  // held[r][j]: ids at rank r whose destination lies j ranks ahead of r.
  std::vector<std::vector<std::vector<i64>>> held(
      static_cast<size_t>(p), std::vector<std::vector<i64>>(static_cast<size_t>(p)));
  for (bine::Rank r = 0; r < p; ++r)
    for (i64 d = 0; d < p; ++d)
      held[static_cast<size_t>(r)][static_cast<size_t>(bine::pmod(d - r, p))].push_back(r * p +
                                                                                         d);
  std::vector<OracleExchange> out;
  size_t step = 0;
  for (i64 dist = 1; dist < p; dist <<= 1, ++step) {
    std::vector<std::vector<i64>> moving(static_cast<size_t>(p));
    for (bine::Rank r = 0; r < p; ++r)
      for (i64 j = 0; j < p; ++j) {
        if ((j & dist) == 0) continue;
        auto& cell = held[static_cast<size_t>(r)][static_cast<size_t>(j)];
        moving[static_cast<size_t>(r)].insert(moving[static_cast<size_t>(r)].end(),
                                              cell.begin(), cell.end());
        cell.clear();
      }
    for (bine::Rank r = 0; r < p; ++r) {
      if (moving[static_cast<size_t>(r)].empty()) continue;
      const bine::Rank q = bine::pmod(r + dist, p);
      for (const i64 id : moving[static_cast<size_t>(r)])
        held[static_cast<size_t>(q)][static_cast<size_t>(bine::pmod(id % p - q, p))].push_back(
            id);
      out.push_back({step, r, q, std::move(moving[static_cast<size_t>(r)])});
    }
  }
  return out;
}

/// Bine: block (s, d) with relative destination l (d - s for even s, s - d
/// for odd s) hops over the bine_dd butterfly at exactly the phases named by
/// the set bits of nu(l) (Appendix A); every block must end at its
/// destination.
std::vector<OracleExchange> bine_alltoall_oracle(i64 p) {
  struct Parcel {
    i64 id;
    u64 route;  // phases still to hop
  };
  std::vector<std::vector<Parcel>> held(static_cast<size_t>(p));
  for (bine::Rank r = 0; r < p; ++r)
    for (i64 d = 0; d < p; ++d)
      held[static_cast<size_t>(r)].push_back(
          {r * p + d, bine::core::nu(bine::pmod(r % 2 == 0 ? d - r : r - d, p), p)});
  std::vector<OracleExchange> out;
  for (int k = 0; k < bine::log2_exact(p); ++k) {
    std::vector<std::vector<Parcel>> moving(static_cast<size_t>(p));
    for (bine::Rank r = 0; r < p; ++r) {
      std::vector<Parcel> stay;
      for (const Parcel& par : held[static_cast<size_t>(r)]) {
        if ((par.route >> k) & 1)
          moving[static_cast<size_t>(r)].push_back({par.id, par.route & ~(u64{1} << k)});
        else
          stay.push_back(par);
      }
      held[static_cast<size_t>(r)] = std::move(stay);
    }
    for (bine::Rank r = 0; r < p; ++r) {
      if (moving[static_cast<size_t>(r)].empty()) continue;
      const bine::Rank q =
          bine::core::butterfly_partner(bine::core::ButterflyVariant::bine_dd, r, k, p);
      OracleExchange x{static_cast<size_t>(k), r, q, {}};
      for (const Parcel& par : moving[static_cast<size_t>(r)]) {
        x.ids.push_back(par.id);
        held[static_cast<size_t>(q)].push_back(par);
      }
      out.push_back(std::move(x));
    }
  }
  for (bine::Rank r = 0; r < p; ++r)
    for (const Parcel& par : held[static_cast<size_t>(r)]) {
      EXPECT_EQ(par.route, 0u) << "p=" << p;
      EXPECT_EQ(par.id % p, r) << "p=" << p;
    }
  return out;
}

void expect_matches_oracle(const bs::Schedule& sch, const std::vector<OracleExchange>& want) {
  const std::string what = sch.algorithm + " p=" + std::to_string(sch.p);
  const std::vector<bs::Exchange>& log = sch.exchanges();
  ASSERT_EQ(log.size(), want.size()) << what;
  EXPECT_TRUE(sch.locals().empty()) << what;
  bs::ScheduleArena arena;
  for (size_t e = 0; e < log.size(); ++e) {
    const bs::Exchange& x = log[e];
    const OracleExchange& o = want[e];
    const bs::BlockSet blocks = bs::blockset_from_ids(o.ids, sch.nblocks, arena);
    ASSERT_EQ(x.step, o.step) << what << " exchange " << e;
    ASSERT_EQ(x.from, o.from) << what << " exchange " << e;
    ASSERT_EQ(x.to, o.to) << what << " exchange " << e;
    ASSERT_FALSE(x.reduce) << what << " exchange " << e;
    ASSERT_TRUE(std::ranges::equal(x.blocks.ranges(), blocks.ranges()))
        << what << " exchange " << e;
    ASSERT_EQ(x.segments, blocks.block_count()) << what << " exchange " << e;
  }
}

}  // namespace

TEST(AlltoallBlocks, RangeNativeMatchesIdOracle) {
  for (const i64 p : {2, 3, 5, 8, 12, 33, 64, 256}) {
    bine::coll::Config cfg;
    cfg.p = p;
    cfg.elem_count = p;
    expect_matches_oracle(
        bine::coll::find_algorithm(bs::Collective::alltoall, "bruck").make(cfg),
        bruck_oracle(p));
    if (HasFatalFailure()) return;
    if (!bine::is_pow2(p)) continue;
    expect_matches_oracle(bine::coll::find_algorithm(bs::Collective::alltoall, "bine").make(cfg),
                          bine_alltoall_oracle(p));
    if (HasFatalFailure()) return;
  }
}

// RegistryOpStreamIsPinned stops at p = 64. This digest pins the compiled
// entry -- every column of SizeFreeSchedule::from: the stream, the byte rows,
// the pair keys and the delivery overlay -- of every butterfly and alltoall
// registry algorithm at the rank counts where per-rank set sharing and row
// interning matter.
TEST(Schedule, LargeRegistryEntryIsPinned) {
  u64 h = 0xcbf29ce484222325ull;  // FNV-1a over 64-bit words
  const auto mix = [&h](u64 v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  const auto mix_column = [&mix](const auto& column) {
    mix(column.size());
    for (const auto& v : column) mix(static_cast<u64>(v));
  };
  size_t entries = 0;
  for (const bs::Collective c : {bs::Collective::allgather, bs::Collective::reduce_scatter,
                                 bs::Collective::allreduce, bs::Collective::alltoall}) {
    for (const auto& entry : bine::coll::algorithms_for(c)) {
      if (entry.specialized || entry.name == "ring") continue;
      for (const i64 p : {128, 256, 1024}) {
        bine::coll::Config cfg;
        cfg.p = p;
        cfg.elem_count = p;
        const bs::SizeFreeSchedule sf = bs::SizeFreeSchedule::from(entry.make(cfg));
        ++entries;
        mix(static_cast<u64>(p));
        mix(sf.steps);
        mix_column(sf.step_begin);
        mix(sf.ops.size());
        for (const bs::SizeFreeSchedule::StreamOp& op : sf.ops) {
          mix(op.flags);
          mix(op.pair);
          mix(op.row);
          mix(static_cast<u64>(op.extra));
        }
        mix_column(sf.row_begin);
        mix(sf.ranges.size());
        for (const bs::BlockRange32& br : sf.ranges) mix(u64{br.begin} << 32 | br.count);
        mix_column(sf.pair_keys);
        mix_column(sf.delivery_step_begin);
        mix_column(sf.delivery_send);
        mix_column(sf.delivery_reduce);
      }
    }
  }
  EXPECT_GT(entries, 0u);
  EXPECT_EQ(h, 0x00883386aa52ca00ull) << std::hex << h;
}
