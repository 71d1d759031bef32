// Schedule-generation fast path tests: registry-wide parity of cached
// SizeFreeSchedule entries with fresh generation at every vector size (every
// IR column, and the production simulator against the scalar oracle), the
// op stream against the canonical walk, each exchange interned once into
// content-distinct rows and exactly sized columns, rejection of what the
// 32-bit columns or the block space cannot hold, one builder call per cache
// miss, the cache's entry and resident-byte counts, cached Runner cells
// bit-exact with the scalar oracle across all four topology families. Sweep
// determinism across threads lives in test_sim_engine.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <set>
#include <span>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "coll/registry.hpp"
#include "harness/runner.hpp"
#include "net/pair_route_memo.hpp"
#include "net/profiles.hpp"
#include "net/route_cache.hpp"
#include "net/simulate.hpp"
#include "net/topology.hpp"
#include "sched/schedule_cache.hpp"
#include "sim_oracle.hpp"

using namespace bine;

namespace {

void expect_same_entry(const sched::SizeFreeSchedule& a, const sched::SizeFreeSchedule& b,
                       const std::string& what) {
  EXPECT_EQ(a.p, b.p) << what;
  EXPECT_EQ(a.nblocks, b.nblocks) << what;
  EXPECT_EQ(a.space, b.space) << what;
  EXPECT_EQ(a.steps, b.steps) << what;
  // Simulation stream.
  EXPECT_EQ(a.step_begin, b.step_begin) << what;
  EXPECT_EQ(a.ops, b.ops) << what;
  // Byte rows and pair keys.
  EXPECT_EQ(a.row_begin, b.row_begin) << what;
  EXPECT_EQ(a.ranges, b.ranges) << what;
  EXPECT_EQ(a.pair_keys, b.pair_keys) << what;
  // Execution overlay.
  EXPECT_EQ(a.delivery_step_begin, b.delivery_step_begin) << what;
  EXPECT_EQ(a.delivery_send, b.delivery_send) << what;
  EXPECT_EQ(a.delivery_reduce, b.delivery_reduce) << what;
}

/// Every registry algorithm at p in {2, 3, 5, 8, 12, 33, 64, 256} and roots
/// {0, p/3}, pow2-only ones at powers of two: `fn(what, schedule)`.
template <class Fn>
void for_each_registry_schedule(Fn&& fn) {
  for (const sched::Collective c : coll::all_collectives()) {
    for (const auto& entry : coll::algorithms_for(c)) {
      for (const i64 p : {2, 3, 5, 8, 12, 33, 64, 256}) {
        if (entry.pow2_only && !is_pow2(p)) continue;
        for (const Rank root : {Rank{0}, Rank{p / 3}}) {
          if (root != 0 && p / 3 == 0) continue;
          const std::string what = std::string(sched::to_string(c)) + "/" + entry.name +
                                   " p=" + std::to_string(p) + " root=" + std::to_string(root);
          SCOPED_TRACE(what);
          coll::Config cfg;
          cfg.p = p;
          cfg.root = root;
          cfg.elem_count = p;
          fn(what, entry.make(cfg));
        }
      }
    }
  }
}

bool same_ranges(std::span<const sched::BlockRange32> a,
                 std::span<const sched::BlockRange> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const sched::BlockRange32& x, const sched::BlockRange& y) {
                      return x.begin == y.begin && x.count == y.count;
                    });
}

}  // namespace

// Every registry generator is size-free by construction. One cached entry
// per (algorithm, p, root) must therefore equal, column for column, the
// entry compiled from a fresh generation at EVERY vector size, and the
// production simulator over the cached entry must be bitwise equal to the
// scalar oracle over each fresh schedule -- from one element per block up
// to 2^27 elements, with non-divisible remainders in between
// (2^26 + 5p + 2). Ranks sit on the first p nodes of a 4x4x4 torus.
TEST(SizeFreeSchedule, MatchesFreshGenerationAtEverySize) {
  sched::ScheduleCache cache;
  const net::Torus topo({4, 4, 4}, 6.8e9);
  const net::CostParams cp;
  net::PairRouteMemo memo;
  std::map<i64, net::RouteCache> routes;  // per rank count
  for (const sched::Collective c : coll::all_collectives()) {
    const bool rooted = c == sched::Collective::bcast || c == sched::Collective::reduce ||
                        c == sched::Collective::gather || c == sched::Collective::scatter;
    for (const auto& entry : coll::algorithms_for(c)) {
      for (const i64 p : {2, 3, 5, 8, 12, 16, 24, 33, 64}) {
        if (entry.pow2_only && !is_pow2(p)) continue;
        const net::RouteCache& rc =
            routes.try_emplace(p, topo, net::Placement::identity(p)).first->second;
        for (const Rank root : {Rank{0}, Rank{p - 1}}) {
          if (root != 0 && !rooted) continue;
          SCOPED_TRACE(std::string(sched::to_string(c)) + "/" + entry.name +
                       " p=" + std::to_string(p) + " root=" + std::to_string(root));
          coll::Config cfg;
          cfg.p = p;
          cfg.root = root;
          const sched::ScheduleKey key{c, entry.name, p, root, {}, 0};
          const auto sf = cache.get(key, [&](i64 elem_count) {
            coll::Config build_cfg = cfg;
            build_cfg.elem_count = elem_count;
            return entry.make(build_cfg);
          });

          const std::vector<i64> elem_counts = {p, 2 * p + 1, 7 * p + 3,
                                                (i64{1} << 26) + 5 * p + 2, i64{1} << 27};
          const auto production =
              net::simulate(*sf, elem_counts, cfg.elem_size, rc, cp, memo);
          ASSERT_EQ(production.size(), elem_counts.size());
          for (size_t s = 0; s < elem_counts.size(); ++s) {
            const std::string what = "elem_count=" + std::to_string(elem_counts[s]);
            cfg.elem_count = elem_counts[s];
            const sched::Schedule fresh_sch = entry.make(cfg);
            expect_same_entry(sched::SizeFreeSchedule::from(fresh_sch), *sf, what);
            test_util::expect_bitwise_eq(production[s], net::simulate(fresh_sch, rc, cp),
                                         what);
          }
        }
      }
    }
  }
}

// The stream is the canonical walk with plain recvs dropped: for every
// costed op, in order, its kind, its rank-group boundary flag (the op's rank
// differs from the previous costed op's in the step), its exchange's pair
// key (sender * p + receiver; a local_perm names none), its extra segments,
// and a byte row holding exactly its exchange's ranges. Rows are interned:
// no two hold equal content, and every pair key is distinct.
TEST(SizeFreeSchedule, StreamMatchesCanonicalWalk) {
  using Entry = sched::SizeFreeSchedule;
  for_each_registry_schedule([](const std::string& what, const sched::Schedule& sch) {
    const Entry sf = Entry::from(sch);
    const auto np = static_cast<u64>(sch.p);
    std::uint32_t i = 0;
    Rank prev = -1;
    size_t mismatches = 0;
    sched::for_each_op_step_major(
        sch, sf.steps,
        [&](Rank r, const sched::Op& op) {
          if (op.kind == sched::OpKind::recv) return;
          if (i >= sf.num_ops()) {
            ++mismatches;
            return;
          }
          const Entry::StreamOp& o = sf.ops[i++];
          bool ok = ((o.flags & Entry::StreamOp::kBoundary) != 0) == (r != prev) &&
                    o.extra == sched::lowered_extra_segments(op.segments);
          prev = r;
          if (op.kind == sched::OpKind::local_perm) {
            ok = ok && o.kind() == sched::OpKind::local_perm;
          } else {
            const bool send = op.kind == sched::OpKind::send;
            const u64 key = send ? static_cast<u64>(r) * np + static_cast<u64>(op.peer)
                                 : static_cast<u64>(op.peer) * np + static_cast<u64>(r);
            ok = ok && o.kind() == op.kind && o.pair < sf.pair_keys.size() &&
                 sf.pair_keys[o.pair] == key && o.row < sf.num_rows() &&
                 same_ranges(sf.row_ranges(o.row), op.blocks.ranges());
          }
          if (!ok) ++mismatches;
        },
        [&](size_t t) {
          EXPECT_EQ(i, sf.step_begin[t + 1]) << what;
          prev = -1;
        });
    EXPECT_EQ(mismatches, 0u) << what;
    EXPECT_EQ(i, sf.num_ops()) << what;

    std::set<std::vector<std::pair<std::uint32_t, std::uint32_t>>> rows;
    for (std::uint32_t r = 0; r < sf.num_rows(); ++r) {
      std::vector<std::pair<std::uint32_t, std::uint32_t>> content;
      for (const sched::BlockRange32& br : sf.row_ranges(r))
        content.emplace_back(br.begin, br.count);
      EXPECT_TRUE(rows.insert(std::move(content)).second) << what << " row " << r;
    }
    EXPECT_EQ(std::set<u64>(sf.pair_keys.begin(), sf.pair_keys.end()).size(),
              sf.pair_keys.size())
        << what;
  });
}

// Every column is exactly sized, and every reader reaches an exchange
// through its send: each delivery of the overlay names a send in the same
// step whose pair mirrors the receive's (from, to) and whose row carries
// the receive's own block ranges, each send is delivered exactly once, and a
// recv_reduce in the stream names its send's pair and row.
TEST(SizeFreeSchedule, StoresEachExchangeOnce) {
  using Entry = sched::SizeFreeSchedule;
  for_each_registry_schedule([](const std::string& what, const sched::Schedule& sch) {
    const Entry sf = Entry::from(sch);
    size_t send_ranges = 0;
    for (const sched::Exchange& x : sch.exchanges()) send_ranges += x.blocks.ranges().size();
    EXPECT_EQ(sf.num_deliveries(), sch.exchanges().size()) << what;
    EXPECT_LE(sf.ranges.size(), send_ranges) << what;
    EXPECT_EQ(sf.row_begin.back(), sf.ranges.size()) << what;

    const auto exact = [](const auto& v) { return v.capacity() == v.size(); };
    EXPECT_TRUE(exact(sf.step_begin));
    EXPECT_TRUE(exact(sf.ops));
    EXPECT_TRUE(exact(sf.row_begin));
    EXPECT_TRUE(exact(sf.ranges));
    EXPECT_TRUE(exact(sf.pair_keys));
    EXPECT_TRUE(exact(sf.delivery_step_begin));
    EXPECT_TRUE(exact(sf.delivery_send));
    EXPECT_TRUE(exact(sf.delivery_reduce));

    std::vector<size_t> step_of(sf.num_ops());
    for (size_t t = 0; t < sf.steps; ++t)
      for (std::uint32_t i = sf.step_begin[t]; i < sf.step_begin[t + 1]; ++i) step_of[i] = t;
    std::vector<std::uint32_t> deliveries_of(sf.num_ops(), 0);

    // Walk the receive-type ops in canonical order next to the stream and
    // the overlay.
    std::uint32_t op = 0, delivery = 0;
    size_t step = 0, mismatches = 0;
    sched::for_each_op_step_major(
        sch, sf.steps,
        [&](Rank r, const sched::Op& o) {
          if (o.kind == sched::OpKind::send || o.kind == sched::OpKind::local_perm) {
            ++op;
            return;
          }
          const std::uint32_t send = sf.delivery_send[delivery];
          const Entry::StreamOp& s = sf.ops[send];
          const bool reduce = o.kind == sched::OpKind::recv_reduce;
          ++deliveries_of[send];
          bool ok = sf.delivery_reduce[delivery] == (reduce ? 1 : 0) &&
                    s.kind() == sched::OpKind::send && step_of[send] == step &&
                    sf.pair_from(s.pair) == o.peer && sf.pair_to(s.pair) == r &&
                    same_ranges(sf.row_ranges(s.row), o.blocks.ranges());
          if (reduce) {
            ok = ok && sf.ops[op].kind() == sched::OpKind::recv_reduce &&
                 sf.ops[op].pair == s.pair && sf.ops[op].row == s.row && step_of[op] == step;
            ++op;
          }
          if (!ok) ++mismatches;
          ++delivery;
        },
        [&](size_t t) {
          EXPECT_EQ(op, sf.step_begin[t + 1]) << what;
          EXPECT_EQ(delivery, sf.delivery_step_begin[t + 1]) << what;
          step = t + 1;
        });
    EXPECT_EQ(mismatches, 0u) << what;
    EXPECT_EQ(delivery, sf.num_deliveries()) << what;
    for (std::uint32_t i = 0; i < sf.num_ops(); ++i) {
      const bool send = sf.ops[i].kind() == sched::OpKind::send;
      EXPECT_EQ(deliveries_of[i], send ? 1u : 0u) << what << " op " << i;
    }
  });

  // The layout's footprint on a range-heavy schedule. Allreduce bine_permute
  // at p=256 took 6535324 resident bytes when each exchange's ranges were
  // stored up to three times at 16 bytes per range with growth slack, 932508
  // with every exchange stored once in 8-byte ranges, and 160916 as the
  // simulator's stream with content-distinct rows.
  coll::Config cfg;
  cfg.p = 256;
  cfg.elem_count = cfg.p;
  const sched::SizeFreeSchedule sf = sched::SizeFreeSchedule::from(
      coll::find_algorithm(sched::Collective::allreduce, "bine_permute").make(cfg));
  EXPECT_LE(sf.resident_bytes(), 160916u);
}

// from() narrows into 32-bit columns; it rejects, instead of truncating,
// what does not fit, and rejects block ranges outside the block space.
TEST(SizeFreeSchedule, RejectsWhatItCannotStore) {
  sched::Schedule wide;
  wide.coll = sched::Collective::bcast;
  wide.p = 2;
  wide.nblocks = i64{1} << 33;
  wide.add_exchange(0, 0, 1, sched::BlockSet::run((i64{1} << 32) + 1, 1), false);
  EXPECT_THROW((void)sched::SizeFreeSchedule::from(wide), std::length_error);
  wide.nblocks = 8;  // nblocks fits; the range field still does not
  EXPECT_THROW((void)sched::SizeFreeSchedule::from(wide), std::length_error);

  sched::Schedule outside;
  outside.coll = sched::Collective::bcast;
  outside.p = 3;
  outside.nblocks = 3;
  outside.add_exchange(0, 0, 1, sched::BlockSet::all(3), true);
  outside.add_exchange(1, 1, 2, sched::BlockSet::single(3), false);
  try {
    (void)sched::SizeFreeSchedule::from(outside);
    ADD_FAILURE() << "no exception";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("step 1: 1->2 block range 3+1 outside 3 blocks"),
              std::string::npos)
        << e.what();
  }
}

namespace {

/// `s` with every block set re-interned into a span of its own, logged in
/// the same call order: no two exchanges share storage.
sched::Schedule reinterned(const sched::Schedule& s) {
  sched::Schedule out;
  out.coll = s.coll;
  out.algorithm = s.algorithm;
  out.p = s.p;
  out.nblocks = s.nblocks;
  out.space = s.space;
  out.elem_count = s.elem_count;
  out.elem_size = s.elem_size;
  out.root = s.root;
  const std::vector<sched::LocalOp>& locals = s.locals();
  size_t l = 0;
  for (std::uint32_t e = 0;; ++e) {
    for (; l < locals.size() && locals[l].before == e; ++l)
      out.add_local(locals[l].step, locals[l].rank, locals[l].segments);
    if (e == s.exchanges().size()) break;
    const sched::Exchange& x = s.exchanges()[e];
    std::vector<sched::BlockRange> own(x.blocks.ranges().begin(), x.blocks.ranges().end());
    out.add_exchange(x.step, x.from, x.to, sched::BlockSet::from_ranges(own, out.arena()),
                     x.reduce, x.segments);
  }
  return out;
}

}  // namespace

// The butterflies hand one BlockSet value to every rank whose Permute or
// block_by_block set coincides, so generation builds each distinct set once.
// Allreduce bine_permute at p = 1024 stores 9728 ranges in its rows; its
// arena took 1570816 ranges when every rank built its own set.
TEST(SizeFreeSchedule, ButterflySetsAreBuiltOncePerDistinctSet) {
  coll::Config cfg;
  cfg.p = 1024;
  cfg.elem_count = cfg.p;
  sched::Schedule sch =
      coll::find_algorithm(sched::Collective::allreduce, "bine_permute").make(cfg);
  const sched::SizeFreeSchedule sf = sched::SizeFreeSchedule::from(sch);
  EXPECT_EQ(sf.ranges.size(), 9728u);
  EXPECT_LE(sch.arena().ranges_allocated(), 2 * sf.ranges.size());
}

// from() interns a span it has already seen by address, skipping the check,
// the hash and the compare. That is only a shortcut: a copy of each registry
// schedule with every set in a span of its own compiles to the same entry.
TEST(SizeFreeSchedule, ReinternedCopyCompilesIdentically) {
  for_each_registry_schedule([](const std::string& what, const sched::Schedule& sch) {
    expect_same_entry(sched::SizeFreeSchedule::from(sch),
                      sched::SizeFreeSchedule::from(reinterned(sch)), what);
  });
}

// A span shared by several exchanges is checked by the first one the stream
// reaches, so a range outside the block space names that exchange, exactly
// as when each exchange carries its own copy.
TEST(SizeFreeSchedule, SharedSpanErrorNamesItsFirstExchange) {
  sched::Schedule sch;
  sch.coll = sched::Collective::bcast;
  sch.p = 4;
  sch.nblocks = 8;
  const std::vector<sched::BlockRange> bad = {{0, 1}, {2, 1}, {9, 1}};
  const sched::BlockSet shared = sched::BlockSet::from_ranges(bad, sch.arena());
  ASSERT_TRUE(shared.in_arena());
  sch.add_exchange(0, 0, 1, sched::BlockSet::all(8), false);
  sch.add_exchange(2, 3, 0, shared, false);
  sch.add_exchange(1, 2, 3, shared, false);
  sch.add_exchange(1, 1, 2, shared, true);
  const auto message = [](const sched::Schedule& s) {
    try {
      (void)sched::SizeFreeSchedule::from(s);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no exception");
  };
  const std::string got = message(sch);
  EXPECT_NE(got.find("step 1: 1->2 block range 9+1 outside 8 blocks"), std::string::npos)
      << got;
  EXPECT_EQ(got, message(reinterned(sch)));
}

// A miss runs the builder exactly once and a hit never runs it.
TEST(ScheduleCache, BuilderRunsOncePerMiss) {
  sched::ScheduleCache cache;
  int builds = 0;
  const auto builder_for = [&builds](i64 p) {
    return [&builds, p](i64 elem_count) {
      ++builds;
      coll::Config cfg;
      cfg.p = p;
      cfg.elem_count = elem_count;
      return coll::find_algorithm(sched::Collective::allreduce, "recursive_doubling")
          .make(cfg);
    };
  };
  sched::ScheduleKey key;
  key.coll = sched::Collective::allreduce;
  key.algorithm = "recursive_doubling";
  key.p = 8;
  const auto first = cache.get(key, builder_for(key.p));
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(cache.get(key, builder_for(key.p)), first);
  EXPECT_EQ(cache.get(key, builder_for(key.p)), first);
  EXPECT_EQ(builds, 1);

  sched::ScheduleKey other = key;
  other.p = 16;
  EXPECT_NE(cache.get(other, builder_for(other.p)), first);
  EXPECT_EQ(builds, 2);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 2u);
}

// Stats report the entries held and the sum of their resident bytes,
// maintained on insert and on clear.
TEST(ScheduleCache, StatsCountEntriesAndResidentBytes) {
  sched::ScheduleCache cache;
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
  std::vector<std::shared_ptr<const sched::SizeFreeSchedule>> held;
  u64 bytes = 0;
  for (const char* name : {"recursive_doubling", "ring", "bine_permute"}) {
    for (const i64 p : {8, 33}) {
      const auto& entry = coll::find_algorithm(sched::Collective::allreduce, name);
      if (entry.pow2_only && !is_pow2(p)) continue;
      const sched::ScheduleKey key{sched::Collective::allreduce, name, p, 0, {}, 0};
      const auto build = [&](i64 elem_count) {
        coll::Config cfg;
        cfg.p = p;
        cfg.elem_count = elem_count;
        return entry.make(cfg);
      };
      held.push_back(cache.get(key, build));
      bytes += held.back()->resident_bytes();
      (void)cache.get(key, build);  // a hit adds nothing
    }
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, held.size());
  EXPECT_EQ(stats.bytes, bytes);
  EXPECT_GT(stats.bytes, 0u);
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

// Cached cells must be bit-exact with the scalar oracle over fresh
// generation (test_util::ScalarCell) on every topology family: dragonfly
// (lumi), dragonfly+ (leonardo), torus (fugaku), and multi-GPU --
// TrafficStats integer-equal, seconds equal by bit pattern.
TEST(ScheduleCache, CachedRunsMatchScalarOracleAcrossTopologyFamilies) {
  std::vector<net::SystemProfile> profiles;
  profiles.push_back(net::lumi_profile());
  profiles.push_back(net::leonardo_profile());
  profiles.push_back(net::fugaku_profile({4, 4, 4}));
  profiles.push_back(net::multigpu_profile());

  const std::vector<sched::Collective> colls = {
      sched::Collective::allreduce, sched::Collective::bcast,
      sched::Collective::reduce_scatter, sched::Collective::alltoall};
  const std::vector<i64> sizes = {32, 16384, 1048576};

  for (auto& profile : profiles) {
    sched::process_schedule_cache().clear();  // per-profile stats for the assert below
    harness::Runner runner(profile, /*spread_placement=*/false);
    const test_util::ScalarCell oracle(runner, 64);
    for (const sched::Collective coll : colls) {
      for (const auto& entry : coll::algorithms_for(coll)) {
        if (entry.specialized) continue;
        if (entry.pow2_only && !is_pow2(64)) continue;
        for (const i64 size : sizes)
          test_util::expect_bitwise_eq(runner.run(coll, entry, 64, size),
                                       oracle.run(entry, size),
                                       profile.name + "/" + entry.name + "/" +
                                           harness::size_label(size));
      }
    }
    // The whole point: one entry per (algorithm, p), hit for every extra size.
    const auto stats = sched::process_schedule_cache().stats();
    EXPECT_GT(stats.hits, stats.misses) << profile.name;
  }
}

