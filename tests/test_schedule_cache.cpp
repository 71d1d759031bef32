// Schedule-generation fast path tests: SizeFreeSchedule resolution parity
// against fresh lowering at every vector size, Runner cached-vs-uncached
// bit-exactness across all four topology families, demotion of
// size-dependent schedules, and scoped RouteCache equality with the eager
// build. Sweep determinism across threads and cache modes lives in
// test_sim_engine.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "coll/registry.hpp"
#include "harness/runner.hpp"
#include "net/profiles.hpp"
#include "net/route_cache.hpp"
#include "net/simulate.hpp"
#include "sched/compiled.hpp"
#include "sched/schedule_cache.hpp"

using namespace bine;

namespace {

template <class T>
std::vector<T> as_vec(std::span<const T> s) {
  return {s.begin(), s.end()};
}

void expect_same_ir(const sched::CompiledSchedule& a, const sched::CompiledSchedule& b,
                    const std::string& what) {
  EXPECT_EQ(a.p, b.p) << what;
  EXPECT_EQ(a.steps, b.steps) << what;
  EXPECT_EQ(as_vec(a.step_begin), as_vec(b.step_begin)) << what;
  EXPECT_EQ(as_vec(a.kind), as_vec(b.kind)) << what;
  EXPECT_EQ(as_vec(a.rank), as_vec(b.rank)) << what;
  EXPECT_EQ(as_vec(a.peer), as_vec(b.peer)) << what;
  EXPECT_EQ(as_vec(a.bytes), as_vec(b.bytes)) << what;
  EXPECT_EQ(as_vec(a.extra_segments), as_vec(b.extra_segments)) << what;
}

}  // namespace

// One cached SizeFreeSchedule entry must resolve, for EVERY vector size, to
// the exact CompiledSchedule a fresh generate+lower produces -- the
// size-independence invariant the cache is built on.
TEST(SizeFreeSchedule, ResolvesToFreshLoweringAtEverySize) {
  const struct {
    sched::Collective coll;
    const char* name;
  } cases[] = {
      {sched::Collective::allreduce, "recursive_doubling"},
      {sched::Collective::allreduce, "rabenseifner"},
      {sched::Collective::allreduce, "bine_two_trans"},
      {sched::Collective::allreduce, "bine_permute"},
      {sched::Collective::allreduce, "bine_send"},
      {sched::Collective::allreduce, "ring"},
      {sched::Collective::bcast, "binomial"},
      {sched::Collective::bcast, "bine"},
      {sched::Collective::bcast, "bine_scatter_allgather"},
      {sched::Collective::reduce, "bine_rs_gather"},
      {sched::Collective::reduce_scatter, "bine_block"},
      {sched::Collective::allgather, "bruck"},
      {sched::Collective::gather, "bine"},
      {sched::Collective::scatter, "binomial"},
      {sched::Collective::alltoall, "bruck"},
      {sched::Collective::alltoall, "bine"},
      {sched::Collective::alltoall, "pairwise"},
  };
  for (const i64 p : {16, 24}) {  // pow2 and non-pow2
    for (const auto& c : cases) {
      const auto& entry = coll::find_algorithm(c.coll, c.name);
      if (entry.pow2_only && !is_pow2(p)) continue;
      SCOPED_TRACE(std::string(c.name) + " p=" + std::to_string(p));

      coll::Config build_cfg;
      build_cfg.p = p;
      build_cfg.elem_count = 3 * p + 1;  // canonical size != any probed size
      const auto sf = std::make_shared<const sched::SizeFreeSchedule>(
          sched::SizeFreeSchedule::from(entry.make(build_cfg)));
      ASSERT_TRUE(sf->size_independent);

      sched::CompiledSchedule resolved;
      for (const i64 elem_count : {p, 2 * p, 7 * p + 3, i64{262144}}) {
        coll::Config cfg = build_cfg;
        cfg.elem_count = elem_count;
        const sched::CompiledSchedule fresh =
            sched::CompiledSchedule::lower(entry.make(cfg));
        sched::SizeFreeSchedule::resolve_into(sf, cfg.elem_count, cfg.elem_size,
                                              resolved);
        expect_same_ir(resolved, fresh, "elem_count=" + std::to_string(elem_count));
        // The size-invariant columns must be shared, not copied: that is the
        // point of the span-based resolve (O(bytes column) per cell).
        EXPECT_EQ(resolved.kind.data(), sf->kind.data());
        EXPECT_EQ(resolved.step_begin.data(), sf->step_begin.data());
      }
    }
  }
}

// A schedule whose bytes can't be re-derived from blocks (here: a local op
// moving half the vector) must be demoted, never mis-resolved.
TEST(SizeFreeSchedule, SizeDependentSchedulesAreDemoted) {
  sched::Schedule sch;
  sch.coll = sched::Collective::allreduce;
  sch.algorithm = "half_vector_local";
  sch.p = 2;
  sch.nblocks = 2;
  sch.elem_count = 64;
  sch.elem_size = 4;
  sch.steps.assign(2, {});
  sch.add_exchange(0, 0, 1, sched::BlockSet::all(2), true);
  sch.add_local(1, 0, /*bytes_moved=*/sch.elem_count * sch.elem_size / 2, 1);
  sch.normalize_steps();
  EXPECT_FALSE(sched::SizeFreeSchedule::from(sch).size_independent);

  // The full-vector pattern every generator actually uses stays cacheable.
  sched::Schedule ok = sch;
  ok.steps.assign(2, {});
  ok.add_exchange(0, 0, 1, sched::BlockSet::all(2), true);
  ok.add_local(1, 0, ok.elem_count * ok.elem_size, 1);
  ok.normalize_steps();
  EXPECT_TRUE(sched::SizeFreeSchedule::from(ok).size_independent);
}

// A generator whose *structure* (not just bytes) branches on elem_count is
// internally byte-consistent at any one size, so only the cache's two-probe
// structural cross-check can catch it. It must come back demoted.
TEST(ScheduleCache, StructureBranchingOnElemCountIsDemoted) {
  sched::ScheduleCache cache;
  sched::ScheduleKey key;
  key.coll = sched::Collective::allreduce;
  key.algorithm = "size_branching_fake";
  key.p = 8;

  const auto build = [&](i64 elem_count) {
    coll::Config cfg;
    cfg.p = key.p;
    cfg.elem_count = elem_count;
    // A size-threshold algorithm switch, the classic real-world offender.
    const char* name = elem_count * cfg.elem_size > (i64{1} << 20) ? "ring"
                                                                   : "recursive_doubling";
    return coll::find_algorithm(sched::Collective::allreduce, name).make(cfg);
  };
  EXPECT_FALSE(cache.get(key, build)->size_independent);

  // An honest generator through the same two-probe path stays cacheable and
  // hits on re-request.
  sched::ScheduleKey honest = key;
  honest.algorithm = "recursive_doubling";
  const auto honest_build = [&](i64 elem_count) {
    coll::Config cfg;
    cfg.p = honest.p;
    cfg.elem_count = elem_count;
    return coll::find_algorithm(sched::Collective::allreduce, "recursive_doubling")
        .make(cfg);
  };
  EXPECT_TRUE(cache.get(honest, honest_build)->size_independent);
  EXPECT_EQ(cache.get(honest, honest_build), cache.get(honest, honest_build));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 2u);
}

// Cache-hit cells must be bit-exact with fresh generation on every topology
// family: dragonfly (lumi), dragonfly+ (leonardo), torus (fugaku), and
// multi-GPU -- TrafficStats integer-equal, seconds within 1e-12 relative
// (they are in fact the same arithmetic, so we assert exact equality).
TEST(ScheduleCache, CachedRunsMatchUncachedAcrossTopologyFamilies) {
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
    harness::Runner cached(profile);
    harness::Runner uncached(profile);
    cached.set_schedule_cache(true);
    cached.use_private_schedule_cache();  // per-profile stats for the assert below
    uncached.set_schedule_cache(false);
    for (const sched::Collective coll : colls) {
      for (const auto& entry : coll::algorithms_for(coll)) {
        if (entry.specialized) continue;
        if (entry.pow2_only && !is_pow2(64)) continue;
        for (const i64 size : sizes) {
          SCOPED_TRACE(profile.name + "/" + entry.name + "/" +
                       harness::size_label(size));
          const harness::RunResult a = cached.run(coll, entry, 64, size);
          const harness::RunResult b = uncached.run(coll, entry, 64, size);
          EXPECT_EQ(a.seconds, b.seconds);  // bitwise: same arithmetic must run
          EXPECT_EQ(a.global_bytes, b.global_bytes);
          EXPECT_EQ(a.total_bytes, b.total_bytes);
          EXPECT_EQ(a.steps, b.steps);
        }
      }
    }
    // The whole point: one entry per (algorithm, p), hit for every extra size.
    const auto stats = cached.schedule_cache_stats();
    EXPECT_GT(stats.hits, stats.misses) << profile.name;
  }
}

// The scoped route build used by the Schedule-level conveniences must agree
// with an eager cache on every pair the schedule touches, and skip the bulk
// of the route work (the point of the ROADMAP's laziness item).
TEST(ScopedRouteCache, MatchesEagerOnSchedulePairs) {
  const net::Torus topo({4, 4, 4}, 6.8e9);
  const net::Placement pl = net::Placement::identity(topo.num_nodes());
  const net::CostParams cp;

  coll::Config cfg;
  cfg.p = topo.num_nodes();
  cfg.elem_count = 3 * cfg.p;
  for (const char* name : {"recursive_doubling", "bine_two_trans", "ring"}) {
    SCOPED_TRACE(name);
    const sched::Schedule sch =
        coll::find_algorithm(sched::Collective::allreduce, name).make(cfg);
    const sched::CompiledSchedule cs = sched::CompiledSchedule::lower(sch);

    const net::RouteCache eager(topo, pl);
    std::vector<std::pair<Rank, Rank>> pairs;
    for (size_t i = 0; i < cs.num_ops(); ++i)
      if (cs.kind[i] == sched::OpKind::send) pairs.emplace_back(cs.rank[i], cs.peer[i]);
    const net::RouteCache scoped(topo, pl, pairs);

    i64 scoped_links = 0;
    for (const auto& [s, d] : pairs) {
      ASSERT_TRUE(scoped.routed(s, d));
      const auto a = eager.path(s, d);
      const auto b = scoped.path(s, d);
      ASSERT_EQ(std::vector<i64>(b.begin(), b.end()), std::vector<i64>(a.begin(), a.end()));
      EXPECT_EQ(scoped.hops(s, d).local, eager.hops(s, d).local);
      EXPECT_EQ(scoped.hops(s, d).global, eager.hops(s, d).global);
      EXPECT_EQ(scoped.hops(s, d).intra_node, eager.hops(s, d).intra_node);
      scoped_links += static_cast<i64>(b.size());
    }

    // Full simulation parity: the convenience overload (which routes scoped)
    // against the compiled engine on the eager cache.
    const net::SimResult conv = net::simulate(sch, topo, pl, cp);
    const net::SimResult fast = net::simulate(cs, eager, cp);
    EXPECT_EQ(conv.seconds, fast.seconds);
    EXPECT_EQ(conv.traffic.local_bytes, fast.traffic.local_bytes);
    EXPECT_EQ(conv.traffic.global_bytes, fast.traffic.global_bytes);
    EXPECT_EQ(conv.traffic.intra_node_bytes, fast.traffic.intra_node_bytes);
    EXPECT_EQ(conv.traffic.messages, fast.traffic.messages);
  }
}
