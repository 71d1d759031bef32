// Simulation engine tests: route-cache vs virtual route() equivalence,
// size-free stream order invariants, scalar-oracle-vs-reference parity of
// TrafficStats/SimResult across all four topology families, placement
// validation in the Schedule-level conveniences, idle-rank step counting, and
// sweep determinism across thread counts against a direct argmin over the
// scalar oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "argmin_oracle.hpp"
#include "coll/registry.hpp"
#include "exp/sweep.hpp"
#include "harness/parallel.hpp"
#include "harness/runner.hpp"
#include "net/profiles.hpp"
#include "net/route_cache.hpp"
#include "net/simulate.hpp"
#include "net/topology.hpp"
#include "sched/schedule_cache.hpp"
#include "sim_oracle.hpp"

using namespace bine;
using namespace bine::test_util;

// route() answers each rank pair straight from Topology::route between the
// nodes the placement assigns, with per-class hop counts over that path.
TEST(RouteCache, MatchesVirtualRouteForAllPairs) {
  for (const auto& topo : four_families()) {
    for (const bool scramble : {false, true}) {
      const i64 n = topo->num_nodes();
      const net::Placement pl =
          scramble ? scrambled_placement(n, n) : net::Placement::identity(n);
      const net::RouteCache rc(*topo, pl);
      ASSERT_EQ(rc.num_ranks(), topo->num_nodes());
      ASSERT_EQ(rc.num_links(), static_cast<i64>(topo->links().size()));
      std::vector<i64> path, scratch;
      for (Rank s = 0; s < rc.num_ranks(); ++s)
        for (Rank d = 0; d < rc.num_ranks(); ++d) {
          path.clear();
          topo->route(pl.node_of_rank[static_cast<size_t>(s)],
                      pl.node_of_rank[static_cast<size_t>(d)], path);
          const net::RouteCache::Route route = rc.route(s, d, scratch);
          ASSERT_EQ(std::vector<i64>(route.links.begin(), route.links.end()), path)
              << topo->name() << " pair " << s << "->" << d;
          net::RouteCache::ClassHops expect;
          for (const i64 link : path) {
            switch (topo->links()[static_cast<size_t>(link)].cls) {
              case net::LinkClass::local: ++expect.local; break;
              case net::LinkClass::global: ++expect.global; break;
              case net::LinkClass::intra_node: ++expect.intra_node; break;
            }
          }
          EXPECT_EQ(route.hops.local, expect.local);
          EXPECT_EQ(route.hops.global, expect.global);
          EXPECT_EQ(route.hops.intra_node, expect.intra_node);
        }
      for (size_t l = 0; l < topo->links().size(); ++l)
        EXPECT_DOUBLE_EQ(rc.inv_bandwidth()[l], 1.0 / topo->links()[l].bandwidth);
    }
  }
}

TEST(SizeFreeSchedule, LoweringPreservesOpsInStepRankOrder) {
  coll::Config cfg;
  cfg.p = 16;
  cfg.elem_count = 1024;
  const sched::Schedule sch =
      coll::find_algorithm(sched::Collective::allreduce, "rabenseifner").make(cfg);
  const sched::SizeFreeSchedule sf = sched::SizeFreeSchedule::from(sch);

  using Entry = sched::SizeFreeSchedule;
  EXPECT_EQ(sf.p, sch.p);
  EXPECT_EQ(sf.steps, sch.num_steps());
  ASSERT_EQ(sf.step_begin.size(), sf.steps + 1);
  EXPECT_EQ(sf.step_begin.front(), 0u);
  EXPECT_EQ(sf.step_begin.back(), sf.num_ops());

  // Plain recvs are cost-free in the model and dropped from the simulation
  // stream; everything else must survive. Each rank's costed ops per step,
  // in call order, read straight off the log (rabenseifner logs no local
  // op): a send at `from` and, for a reducing exchange, a recv_reduce at `to`.
  ASSERT_TRUE(sch.locals().empty());
  std::vector<std::vector<std::vector<sched::Op>>> costed(
      sch.num_steps(), std::vector<std::vector<sched::Op>>(static_cast<size_t>(sch.p)));
  size_t total_costed_ops = 0;
  for (std::uint32_t e = 0; e < sch.exchanges().size(); ++e) {
    const sched::Exchange& x = sch.exchanges()[e];
    costed[x.step][static_cast<size_t>(x.from)].push_back(
        {sched::OpKind::send, e, x.to, x.blocks, x.segments});
    ++total_costed_ops;
    if (!x.reduce) continue;
    costed[x.step][static_cast<size_t>(x.to)].push_back(
        {sched::OpKind::recv_reduce, e, x.from, x.blocks, x.segments});
    ++total_costed_ops;
  }
  EXPECT_EQ(sf.num_ops(), total_costed_ops);

  // Within each step, ops must be grouped by non-decreasing rank, flag each
  // rank group's first op, and mirror the original per-rank op order (the
  // engines' overhead accumulators and float-parity with the reference
  // depend on this). An op's rank and peer come from its exchange's pair:
  // a send is sent by it, a recv_reduce received. Each op's byte row must
  // size to exactly the bytes the Schedule derives for it.
  for (size_t t = 0; t < sf.steps; ++t) {
    ASSERT_LE(sf.step_begin[t], sf.step_begin[t + 1]);
    Rank prev_rank = -1;
    size_t op_in_rank = 0;
    for (std::uint32_t i = sf.step_begin[t]; i < sf.step_begin[t + 1]; ++i) {
      const Entry::StreamOp& o = sf.ops[i];
      const sched::OpKind kind = o.kind();
      ASSERT_TRUE(kind == sched::OpKind::send || kind == sched::OpKind::recv_reduce);
      ASSERT_LT(o.pair, sf.pair_keys.size());
      const bool send = kind == sched::OpKind::send;
      const Rank rank = send ? sf.pair_from(o.pair) : sf.pair_to(o.pair);
      const Rank peer = send ? sf.pair_to(o.pair) : sf.pair_from(o.pair);
      ASSERT_GE(rank, prev_rank);
      EXPECT_EQ((o.flags & Entry::StreamOp::kBoundary) != 0, rank != prev_rank);
      const auto& rank_ops = costed[t][static_cast<size_t>(rank)];
      if (rank != prev_rank) op_in_rank = 0;
      ASSERT_LT(op_in_rank, rank_ops.size());
      const sched::Op& op = rank_ops[op_in_rank];
      EXPECT_EQ(kind, op.kind);
      EXPECT_EQ(peer, op.peer);
      EXPECT_EQ(o.extra, std::max<i64>(0, op.segments - 1));
      ASSERT_LT(o.row, sf.num_rows());
      const i64 bytes =
          sched::ranges_elem_count(sf.row_ranges(o.row), sch.total_elems(), sf.nblocks) *
          sch.elem_size;
      EXPECT_EQ(bytes, sch.op_bytes(op));
      prev_rank = rank;
      ++op_in_rank;
    }
  }
}

TEST(SimEngine, ScalarOracleMatchesReferenceAcrossTopologies) {
  const struct {
    sched::Collective coll;
    const char* name;
  } cases[] = {
      {sched::Collective::allreduce, "recursive_doubling"},
      {sched::Collective::allreduce, "rabenseifner"},
      {sched::Collective::allreduce, "ring"},
      {sched::Collective::bcast, "binomial"},
      {sched::Collective::bcast, "bine"},
      {sched::Collective::reduce_scatter, "recursive_halving"},
      {sched::Collective::allgather, "bruck"},
      {sched::Collective::alltoall, "bruck"},
      {sched::Collective::alltoall, "pairwise"},
  };
  net::CostParams cp;
  for (const auto& topo : four_families()) {
    for (const bool scramble : {false, true}) {
      const i64 n = topo->num_nodes();
      const net::Placement pl =
          scramble ? scrambled_placement(n, n) : net::Placement::identity(n);
      const net::RouteCache rc(*topo, pl);
      for (const auto& c : cases) {
        coll::Config cfg;
        cfg.p = topo->num_nodes();
        cfg.elem_count = 3 * cfg.p;  // non-divisible block sizes included
        const sched::Schedule sch = coll::find_algorithm(c.coll, c.name).make(cfg);
        SCOPED_TRACE(std::string(topo->name()) + "/" + c.name +
                     (scramble ? "/scrambled" : "/identity"));

        const net::TrafficStats ref_traffic = net::measure_traffic_reference(sch, *topo, pl);
        const net::TrafficStats conv_traffic = net::measure_traffic(sch, *topo, pl);
        EXPECT_EQ(conv_traffic.local_bytes, ref_traffic.local_bytes);
        EXPECT_EQ(conv_traffic.global_bytes, ref_traffic.global_bytes);
        EXPECT_EQ(conv_traffic.intra_node_bytes, ref_traffic.intra_node_bytes);
        EXPECT_EQ(conv_traffic.messages, ref_traffic.messages);

        const net::SimResult ref = net::simulate_reference(sch, *topo, pl, cp);
        const net::SimResult fast = net::simulate(sch, rc, cp);
        EXPECT_EQ(fast.steps, ref.steps);
        EXPECT_EQ(fast.traffic.local_bytes, ref.traffic.local_bytes);
        EXPECT_EQ(fast.traffic.global_bytes, ref.traffic.global_bytes);
        EXPECT_EQ(fast.traffic.intra_node_bytes, ref.traffic.intra_node_bytes);
        EXPECT_EQ(fast.traffic.messages, ref.traffic.messages);
        EXPECT_NEAR(fast.seconds, ref.seconds, std::abs(ref.seconds) * 1e-12);

        // The Schedule-level conveniences are the scalar oracle.
        const net::SimResult conv = net::simulate(sch, *topo, pl, cp);
        expect_bitwise_eq(conv, fast, "convenience");
      }
    }
  }
}

// The Schedule-level conveniences index the placement by rank and the
// topology by node id, so a placement shorter than the schedule or one naming
// a node off the topology must be rejected rather than read out of bounds.
TEST(SimEngine, ConveniencesRejectMismatchedPlacement) {
  coll::Config cfg;
  cfg.p = 8;
  cfg.elem_count = 64;
  const sched::Schedule sch =
      coll::find_algorithm(sched::Collective::allreduce, "recursive_doubling").make(cfg);
  const net::Torus topo({2, 2, 2}, 10e9);
  const net::CostParams cp;

  const net::Placement short_pl = net::Placement::identity(7);
  EXPECT_THROW((void)net::simulate(sch, topo, short_pl, cp), std::invalid_argument);
  EXPECT_THROW((void)net::measure_traffic(sch, topo, short_pl), std::invalid_argument);

  for (const i64 bad_node : {i64{8}, i64{1000}, i64{-1}}) {
    net::Placement off_pl = net::Placement::identity(8);
    off_pl.node_of_rank[5] = bad_node;
    EXPECT_THROW((void)net::simulate(sch, topo, off_pl, cp), std::invalid_argument)
        << bad_node;
    EXPECT_THROW((void)net::measure_traffic(sch, topo, off_pl), std::invalid_argument)
        << bad_node;
  }

  // A valid placement still simulates, and agrees with the reference.
  const net::Placement pl = net::Placement::identity(8);
  EXPECT_EQ(net::measure_traffic(sch, topo, pl).global_bytes,
            net::measure_traffic_reference(sch, topo, pl).global_bytes);
  EXPECT_EQ(net::simulate(sch, topo, pl, cp).traffic.messages,
            net::simulate_reference(sch, topo, pl, cp).traffic.messages);
}

TEST(SimEngine, EveryEngineWalksEveryStep) {
  // Rank 0 sends in steps 0 and 1; rank 1 is idle in step 1 and rank 2 in
  // step 0...
  sched::Schedule sch;
  sch.coll = sched::Collective::bcast;
  sch.algorithm = "two_step_test";
  sch.p = 3;
  sch.nblocks = 3;
  sch.elem_count = 300;
  sch.add_exchange(0, 0, 1, sched::BlockSet::all(3), false);
  sch.add_exchange(1, 0, 2, sched::BlockSet::all(3), false);

  // ...num_steps() must see both steps, and every engine must count both
  // sends.
  EXPECT_EQ(sch.num_steps(), 2u);
  net::Torus topo({3}, 10e9);
  const net::Placement pl = net::Placement::identity(3);
  const net::CostParams cp;
  const net::SimResult ref = net::simulate_reference(sch, topo, pl, cp);
  const net::SimResult fast = net::simulate(sch, net::RouteCache(topo, pl), cp);
  EXPECT_EQ(ref.traffic.messages, 2);
  EXPECT_EQ(fast.traffic.messages, 2);
  EXPECT_EQ(fast.steps, 2u);
  EXPECT_NEAR(fast.seconds, ref.seconds, std::abs(ref.seconds) * 1e-12);

  // The batched engine walks the same steps.
  const sched::SizeFreeSchedule sf = sched::SizeFreeSchedule::from(sch);
  const i64 counts[] = {sch.elem_count};
  net::PairRouteMemo memo;
  const auto batched =
      net::simulate(sf, counts, sch.elem_size, net::RouteCache(topo, pl), cp, memo);
  expect_bitwise_eq(batched[0], fast, "two steps");
}

// Sweeps through the batched engine, each from a cold schedule cache, must be
// byte-identical across worker counts and agree with a direct argmin over
// the scalar oracle (ScalarCell: fresh generation, identity placement) in
// each series' own order -- on a pow2 torus cell and on ragged non-pow2
// dragonfly cells (where the rank-count gate drops pool slots).
TEST(SweepRunner, ResultsAreBitIdenticalAcrossThreadCounts) {
  struct Case {
    net::SystemProfile profile;
    std::vector<i64> nodes;
    std::vector<sched::Collective> colls;
  };
  const std::vector<Case> cases = {
      {net::fugaku_profile({4, 4, 4}),
       {64},
       {sched::Collective::allreduce, sched::Collective::bcast,
        sched::Collective::alltoall}},
      {net::lumi_profile(),
       {18, 27},
       {sched::Collective::allreduce, sched::Collective::bcast,
        sched::Collective::allgather}},
  };
  const std::vector<i64> sizes = {256, 16384, 1048576};
  for (const Case& c : cases) {
    // Golden rows in result order (coll, nodes, size, series), computed once.
    const harness::Runner golden_runner(c.profile, /*spread_placement=*/false);
    std::vector<std::pair<std::string, harness::RunResult>> golden;
    for (const sched::Collective coll : c.colls) {
      const std::vector<std::vector<std::string>> families = {
          golden_runner.bine_names(coll, true), golden_runner.binomial_names(coll),
          golden_runner.sota_names(coll)};
      for (const i64 nodes : c.nodes) {
        const ScalarCell oracle(golden_runner, nodes);
        for (const i64 size : sizes)
          for (const auto& names : families)
            golden.push_back(argmin_of(golden_runner, coll, names, nodes,
                                       [&](const coll::AlgorithmEntry& entry) {
                                         return oracle.run(entry, size);
                                       }));
      }
    }
    for (const i64 threads : {1, 2, 5}) {
      exp::SweepPlan plan;
      plan.name = "sweep_determinism";
      plan.systems = {exp::SystemSpec{c.profile}};
      plan.systems[0].spread_placement = false;
      plan.colls = c.colls;
      plan.series = {exp::Series::best_bine(/*contiguous_only=*/true),
                     exp::Series::binomial_baseline(), exp::Series::best_sota()};
      plan.nodes.counts = c.nodes;
      plan.sizes = sizes;
      plan.threads = threads;
      sched::process_schedule_cache().clear();
      const exp::SweepResult result = exp::run(plan);
      size_t g = 0;
      for (size_t ci = 0; ci < c.colls.size(); ++ci)
        for (size_t ni = 0; ni < c.nodes.size(); ++ni)
          for (size_t si = 0; si < sizes.size(); ++si)
            for (size_t k = 0; k < plan.series.size(); ++k) {
              const auto& [name, expect] = golden[g++];
              const exp::Metrics& m = result.at(0, ci, ni, si, k);
              const std::string what =
                  c.profile.name + "/" + to_string(c.colls[ci]) +
                  " p=" + std::to_string(c.nodes[ni]) +
                  " size=" + std::to_string(sizes[si]) + " series=" + std::to_string(k) +
                  " threads=" + std::to_string(threads);
              EXPECT_EQ(m.algorithm, name) << what;
              EXPECT_EQ(std::bit_cast<std::uint64_t>(m.seconds),
                        std::bit_cast<std::uint64_t>(expect.seconds))
                  << what;
              EXPECT_EQ(m.global_bytes, expect.global_bytes) << what;
              EXPECT_EQ(m.total_bytes, expect.total_bytes) << what;
              EXPECT_EQ(m.messages, expect.messages) << what;
              EXPECT_EQ(m.steps, expect.steps) << what;
            }
      EXPECT_EQ(g, golden.size());
    }
  }
}

TEST(ParallelFor, CoversEveryIndexOnceAndPropagatesExceptions) {
  std::vector<std::atomic<int>> hits(257);
  harness::parallel_for(257, [&](i64 i) { ++hits[static_cast<size_t>(i)]; }, 4);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);

  EXPECT_THROW(
      harness::parallel_for(
          64, [&](i64 i) { if (i == 13) throw std::runtime_error("boom"); }, 4),
      std::runtime_error);
}
