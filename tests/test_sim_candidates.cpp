// Size-batched simulation parity: the size-free net::simulate overload,
// looped over every schedule of a candidate pool, must be bit-identical to
// the per-size scalar oracle (net::simulate over the schedule generated at
// that size) -- through a fresh private PairRouteMemo, a cold one and a warm
// one -- across the full algorithm registry, all four topology families,
// ragged/non-pow2 rank counts and fault epochs. Concurrent Runners sharing
// the process-wide route memo must stay bit-identical, fault-epoch memo
// scoping must never leak degraded rows into healthy runs, topologies that
// differ only in shape must get separate memo scopes, a scope's pair index
// must be sized to the pairs it routed, and an outsized schedule's scratch
// must be released.
// "Bit-identical" is literal: seconds compare by bit pattern, not tolerance.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "coll/registry.hpp"
#include "fault/fault.hpp"
#include "harness/runner.hpp"
#include "net/pair_route_memo.hpp"
#include "net/profiles.hpp"
#include "net/route_cache.hpp"
#include "net/simulate.hpp"
#include "net/topology.hpp"
#include "sched/schedule_cache.hpp"
#include "sim_oracle.hpp"

using namespace bine;
using namespace bine::test_util;

// Full registry x 4 topology families x {ragged non-pow2, pow2} rank counts
// x {healthy, degraded} fault epochs on a ragged size axis: each schedule of
// the pool simulated across the whole axis in one call -- three ways (a
// fresh private memo, so every pair is routed through the RouteCache; the
// shared memo cold; and warm) -- vs the per-size scalar oracle on the
// schedule freshly generated at each size, all bit-identical.
TEST(SimCandidates, BitIdenticalToPerSizeScalarOracle) {
  const net::CostParams cp;  // defaults: distinct alpha/seg/bw knobs
  const std::vector<i64> elem_counts = {8, 27, 64, 100, 512, 4096, 12345, 262144};
  fault::FaultSpec degraded;
  degraded.degrade_global = 0.5;
  degraded.degrade_local = 0.9;
  degraded.degrade_intra_node = 0.95;
  net::PairRouteMemo memo;  // one instance across every topology: scope keying
  size_t checked = 0;
  for (const auto& topo : four_families()) {
    for (const i64 p : {i64{27}, i64{32}}) {  // ragged non-pow2 + pow2
      const net::Placement pl = scrambled_placement(p, topo->num_nodes());
      for (const bool degrade : {false, true}) {
        net::RouteCache rc(*topo, pl);
        if (degrade) rc.degrade(degraded);
        for (const sched::Collective coll : coll::all_collectives()) {
          const Pool pool = registry_pool(coll, p);
          for (size_t k = 0; k < pool.own.size(); ++k) {
            const auto& sf = pool.own[k];
            net::PairRouteMemo fresh;
            const auto walked = net::simulate(*sf, elem_counts, 4, rc, cp, fresh);
            const auto cold = net::simulate(*sf, elem_counts, 4, rc, cp, memo);
            const auto warm = net::simulate(*sf, elem_counts, 4, rc, cp, memo);
            ASSERT_EQ(walked.size(), elem_counts.size());
            ASSERT_EQ(cold.size(), elem_counts.size());
            ASSERT_EQ(warm.size(), elem_counts.size());
            EXPECT_EQ(fresh.stats().hits, 0u);  // every pair walked, none reused
            const std::string what = topo->name() + "/" + to_string(coll) +
                                     " cand=" + std::to_string(k) + " p=" +
                                     std::to_string(p) + (degrade ? " degraded" : "");
            for (size_t s = 0; s < elem_counts.size(); ++s) {
              coll::Config cfg;
              cfg.p = p;
              cfg.elem_size = 4;
              cfg.elem_count = elem_counts[s];
              const net::SimResult oracle =
                  net::simulate(pool.algos[k]->make(cfg), rc, cp);
              const std::string at = what + " n=" + std::to_string(elem_counts[s]);
              expect_bitwise_eq(walked[s], oracle, at + " [fresh memo]");
              expect_bitwise_eq(cold[s], oracle, at + " [cold]");
              expect_bitwise_eq(warm[s], oracle, at + " [warm]");
            }
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 200u);  // the registry sweep actually ran
  // Degradation changes the route cache's signature, so each epoch gets its
  // own scope; the warm passes must have been served from the memo.
  const auto stats = memo.stats();
  EXPECT_EQ(stats.scopes, 16u);
  EXPECT_GT(stats.misses, 0u);
  EXPECT_GT(stats.hits, stats.misses);  // warm pass re-reads every cold miss
  EXPECT_GT(stats.bytes, 0u);
}

// Concurrent Runners hammering the SAME process-wide route memo -- worker
// counts {1, 4} -- must each reproduce the serial reference bit-for-bit.
// This is the memo's concurrency contract: slot numbering inside a scope is
// thread-schedule-dependent, results must never observe it.
TEST(SimCandidates, ConcurrentRunnersShareProcessMemoBitIdentically) {
  struct Cell {
    sched::Collective coll;
    i64 nodes;
  };
  std::vector<Cell> cells;
  for (const sched::Collective coll :
       {sched::Collective::allreduce, sched::Collective::bcast,
        sched::Collective::allgather})
    for (const i64 nodes : {i64{18}, i64{27}}) cells.push_back({coll, nodes});
  const std::vector<i64> sizes = {64, 4096, 65536};

  const auto pool_for = [](harness::Runner& r, const Cell& c) {
    std::vector<const coll::AlgorithmEntry*> algos;
    for (const auto& algo : coll::algorithms_for(c.coll)) {
      if (algo.specialized) continue;
      algos.push_back(r.applicable(algo, c.nodes) ? &algo : nullptr);
    }
    return algos;
  };

  // Serial reference.
  std::vector<std::vector<std::vector<harness::RunResult>>> expect;
  {
    harness::Runner ref(net::lumi_profile());
    for (const Cell& c : cells)
      expect.push_back(ref.run_candidates(c.coll, pool_for(ref, c), c.nodes, sizes));
  }

  for (const int threads : {1, 4}) {
    // Cold schedule cache: the workers also race on its misses.
    sched::process_schedule_cache().clear();
    std::atomic<int> mismatches{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t)
      workers.emplace_back([&] {
        harness::Runner runner(net::lumi_profile());
        for (size_t i = 0; i < cells.size(); ++i) {
          const auto got =
              runner.run_candidates(cells[i].coll, pool_for(runner, cells[i]),
                                    cells[i].nodes, sizes);
          if (got.size() != expect[i].size()) {
            mismatches.fetch_add(1);
            continue;
          }
          for (size_t k = 0; k < got.size(); ++k) {
            if (got[k].size() != expect[i][k].size()) {
              mismatches.fetch_add(1);
              continue;
            }
            for (size_t s = 0; s < got[k].size(); ++s)
              if (std::bit_cast<std::uint64_t>(got[k][s].seconds) !=
                      std::bit_cast<std::uint64_t>(expect[i][k][s].seconds) ||
                  got[k][s].total_bytes != expect[i][k][s].total_bytes ||
                  got[k][s].messages != expect[i][k][s].messages)
                mismatches.fetch_add(1);
          }
        }
      });
    for (auto& w : workers) w.join();
    EXPECT_EQ(mismatches.load(), 0) << "threads=" << threads;
  }
}

// Fault-epoch memo scoping: a degradation-only BINE_FAULT_SPEC Runner and a
// healthy Runner share the process memo, but their RouteCache signatures
// differ, so degraded rows live in their own scope. Healthy results after
// the faulted Runner ran must be bit-identical to the healthy reference
// taken before it -- the memo never contaminates across fault epochs.
TEST(SimCandidates, FaultEpochScopingNeverContaminatesHealthyRuns) {
  unsetenv("BINE_FAULT_SPEC");  // hygiene: an inherited CI spec would skew all runs
  const std::vector<i64> sizes = {256, 4096, 65536};
  const auto run_cell = [&](harness::Runner& r) {
    std::vector<const coll::AlgorithmEntry*> algos;
    for (const auto& algo : coll::algorithms_for(sched::Collective::allreduce)) {
      if (algo.specialized) continue;
      algos.push_back(r.applicable(algo, 24) ? &algo : nullptr);
    }
    return r.run_candidates(sched::Collective::allreduce, algos, 24, sizes);
  };

  harness::Runner healthy_before(net::lumi_profile());
  const auto reference = run_cell(healthy_before);

  // Degradation-only spec: every rank survives, global links lose bandwidth.
  setenv("BINE_FAULT_SPEC", "seed=7,degrade_global=0.5", 1);
  harness::Runner faulted(net::lumi_profile());
  ASSERT_NE(faulted.fault_spec(), nullptr);
  const auto degraded = run_cell(faulted);
  unsetenv("BINE_FAULT_SPEC");

  // The degraded machine must actually be different (else the scope-keying
  // claim below is vacuous)...
  bool any_diff = false;
  ASSERT_EQ(degraded.size(), reference.size());
  for (size_t k = 0; k < degraded.size() && !any_diff; ++k)
    for (size_t s = 0; s < degraded[k].size() && !any_diff; ++s)
      any_diff = std::bit_cast<std::uint64_t>(degraded[k][s].seconds) !=
                 std::bit_cast<std::uint64_t>(reference[k][s].seconds);
  EXPECT_TRUE(any_diff) << "degrade_global=0.5 changed nothing";

  // ...and a fresh healthy Runner, served from the (now warm, possibly
  // fault-adjacent) process memo, must reproduce the reference exactly.
  harness::Runner healthy_after(net::lumi_profile());
  const auto replay = run_cell(healthy_after);
  ASSERT_EQ(replay.size(), reference.size());
  for (size_t k = 0; k < replay.size(); ++k) {
    ASSERT_EQ(replay[k].size(), reference[k].size());
    for (size_t s = 0; s < replay[k].size(); ++s) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(replay[k][s].seconds),
                std::bit_cast<std::uint64_t>(reference[k][s].seconds))
          << "cand=" << k << " size=" << sizes[s];
      EXPECT_EQ(replay[k][s].total_bytes, reference[k][s].total_bytes);
      EXPECT_EQ(replay[k][s].messages, reference[k][s].messages);
    }
  }
}

// Scope keys must tell apart topologies whose link columns agree. Torus
// {4,4,2} and {2,4,4} have 32 nodes and 192 equal local links each;
// Dragonfly (2,6,3) and (3,4,1) have 12 nodes, 24 local and 6 global links
// each, in the same order and at the same bandwidths. Only their shapes
// differ, and so do their routes. On one shared memo each must get its own
// scope and match the scalar oracle bitwise: a shared scope would serve one
// twin the other's routes.
TEST(SimCandidates, ScopeKeySeparatesShapesWithEqualLinkColumns) {
  const net::CostParams cp;
  const std::vector<i64> elem_counts = {8, 4096, 262144};
  std::vector<std::unique_ptr<net::Topology>> twins;
  twins.push_back(std::make_unique<net::Torus>(std::vector<i64>{4, 4, 2}, 6.8e9));
  twins.push_back(std::make_unique<net::Torus>(std::vector<i64>{2, 4, 4}, 6.8e9));
  twins.push_back(std::make_unique<net::Dragonfly>(2, 6, 3, 25e9, 25e9));
  twins.push_back(std::make_unique<net::Dragonfly>(3, 4, 1, 25e9, 25e9));
  net::PairRouteMemo memo;
  for (size_t t = 0; t < twins.size(); ++t) {
    const net::Topology& topo = *twins[t];
    if (t % 2 == 1) {  // the premise: equal node counts and link columns
      const net::Topology& first = *twins[t - 1];
      ASSERT_EQ(topo.num_nodes(), first.num_nodes());
      ASSERT_EQ(topo.links().size(), first.links().size());
      for (size_t l = 0; l < topo.links().size(); ++l) {
        ASSERT_EQ(topo.links()[l].cls, first.links()[l].cls) << "link " << l;
        ASSERT_EQ(topo.links()[l].bandwidth, first.links()[l].bandwidth) << "link " << l;
      }
    }
    const i64 p = topo.num_nodes();
    const net::RouteCache rc(topo, net::Placement::identity(p));
    for (const sched::Collective coll : coll::all_collectives()) {
      const Pool pool = registry_pool(coll, p);
      for (size_t k = 0; k < pool.own.size(); ++k) {
        const auto got = net::simulate(*pool.own[k], elem_counts, 4, rc, cp, memo);
        ASSERT_EQ(got.size(), elem_counts.size());
        for (size_t s = 0; s < elem_counts.size(); ++s) {
          coll::Config cfg;
          cfg.p = p;
          cfg.elem_size = 4;
          cfg.elem_count = elem_counts[s];
          expect_bitwise_eq(got[s], net::simulate(pool.algos[k]->make(cfg), rc, cp),
                            topo.name() + " twin " + std::to_string(t) + " " +
                                to_string(coll) + "/" + pool.algos[k]->name +
                                " n=" + std::to_string(elem_counts[s]));
        }
      }
    }
  }
  EXPECT_EQ(memo.stats().scopes, twins.size());
}

// A scope's pair index is sized to the pairs routed, not to p^2: a fresh
// memo at p = 2048 that resolves a few hundred pairs stays under 1 MiB (a
// dense u32 index alone would take 16 MiB), resolving the same pairs again
// hits on every one, and each resolved row is the pair's route.
TEST(SimCandidates, MemoIndexScalesWithPairsRouted) {
  const net::Torus topo(std::vector<i64>{16, 16, 8}, 6.8e9);
  const i64 p = topo.num_nodes();
  ASSERT_EQ(p, 2048);
  const net::RouteCache rc(topo, net::Placement::identity(p));
  std::vector<u64> keys;
  for (i64 r = 0; r < 300; ++r)
    keys.push_back(static_cast<u64>(r * 7 % p) * static_cast<u64>(p) +
                   static_cast<u64>((r * 131 + 1) % p));
  net::PairRouteMemo memo;
  net::PairRouteMemo::Rows rows;
  memo.resolve(rc, keys, rows);
  const auto cold = memo.stats();
  EXPECT_EQ(cold.misses, keys.size());
  EXPECT_EQ(cold.hits, 0u);
  EXPECT_LT(cold.bytes, u64{1} << 20);
  memo.resolve(rc, keys, rows);
  const auto warm = memo.stats();
  EXPECT_EQ(warm.misses, keys.size());
  EXPECT_EQ(warm.hits, keys.size());
  EXPECT_EQ(warm.bytes, cold.bytes);
  std::vector<i64> scratch;
  for (size_t i = 0; i < keys.size(); ++i) {
    const auto route = rc.route(static_cast<Rank>(keys[i] / static_cast<u64>(p)),
                                static_cast<Rank>(keys[i] % static_cast<u64>(p)), scratch);
    ASSERT_EQ(rows.route_len[i], route.links.size()) << i;
    for (std::uint32_t k = 0; k < rows.route_len[i]; ++k)
      EXPECT_EQ(rows.slot_link[rows.route_slots[rows.route_off[i] + k]], route.links[k]);
    EXPECT_EQ(rows.hops[i].global, route.hops.global);
  }
}

// Capacity-cap trim: one outsized schedule (alltoall/pairwise at p=768,
// where every rank pair sends, so its route CSR alone exceeds the 8 MiB
// arena cap) may pin its scratch while hot, but the next small schedule on
// the same thread must release the spike.
TEST(SimCandidates, ScratchTrimReleasesOutsizedCell) {
  constexpr size_t kCapBytes = size_t{1} << 23;  // mirrors SimScratch::trim
  const net::CostParams cp;
  const std::vector<i64> elem_counts = {8, 27, 64, 100, 512, 4096, 12345, 262144};
  net::PairRouteMemo memo;

  net::Torus big_topo(std::vector<i64>{12, 8, 8}, 6.8e9);  // 768 nodes
  const i64 p = big_topo.num_nodes();
  const net::Placement big_pl = scrambled_placement(p, p);
  const auto& pairwise = coll::find_algorithm(sched::Collective::alltoall, "pairwise");
  coll::Config cfg;
  cfg.p = p;
  cfg.elem_size = 4;
  cfg.elem_count = 4096;
  const auto big_sf = std::make_shared<const sched::SizeFreeSchedule>(
      sched::SizeFreeSchedule::from(pairwise.make(cfg)));
  const net::RouteCache big_rc(big_topo, big_pl);
  // The spike premise: the schedule's route CSR (one 4 B slot id per link
  // of every distinct send pair's path) overflows the cap. If the cap ever
  // grows, pick a bigger p.
  std::vector<i64> scratch;
  size_t csr_slots = 0;
  for (std::uint32_t pair = 0; pair < big_sf->pair_keys.size(); ++pair)
    csr_slots +=
        big_rc.route(big_sf->pair_from(pair), big_sf->pair_to(pair), scratch).links.size();
  ASSERT_GT(csr_slots * sizeof(std::uint32_t), kCapBytes);
  const auto big_res = net::simulate(*big_sf, elem_counts, 4, big_rc, cp, memo);
  ASSERT_EQ(big_res.size(), elem_counts.size());
  const size_t after_huge = net::sim_scratch_resident_bytes();
  EXPECT_GT(after_huge, kCapBytes);  // hot scratch is kept while in use

  net::Torus small_topo(std::vector<i64>{4, 4, 2}, 6.8e9);
  const net::Placement small_pl = scrambled_placement(27, small_topo.num_nodes());
  const net::RouteCache small_rc(small_topo, small_pl);
  const Pool small_pool = registry_pool(sched::Collective::allreduce, 27);
  ASSERT_FALSE(small_pool.ptrs.empty());
  for (const sched::SizeFreeSchedule* sf : small_pool.ptrs)
    (void)net::simulate(*sf, elem_counts, 4, small_rc, cp, memo);
  const size_t after_small = net::sim_scratch_resident_bytes();
  EXPECT_LT(after_small, kCapBytes);  // the outsized arenas were released
  EXPECT_LT(after_small, after_huge);
}
