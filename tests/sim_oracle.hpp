#pragma once

// Shared fixtures for the simulator suites (test_sim_engine,
// test_sim_batched, test_sim_candidates): the four topology families, a
// scrambled placement, bitwise result comparison, registry candidate pools,
// and the per-size scalar oracle a Runner cell must match bit-for-bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "coll/registry.hpp"
#include "fault/fault.hpp"
#include "harness/runner.hpp"
#include "net/profiles.hpp"
#include "net/route_cache.hpp"
#include "net/simulate.hpp"
#include "net/topology.hpp"
#include "sched/schedule_cache.hpp"

namespace bine::test_util {

inline std::vector<std::unique_ptr<net::Topology>> four_families() {
  std::vector<std::unique_ptr<net::Topology>> topos;
  topos.push_back(std::make_unique<net::FatTree>(4, 8, 2, 25e9));
  topos.push_back(std::make_unique<net::Dragonfly>(4, 8, 2, 25e9, 25e9));
  topos.push_back(std::make_unique<net::Torus>(std::vector<i64>{4, 4, 2}, 6.8e9));
  topos.push_back(std::make_unique<net::MultiGpu>(8, 4, 150e9, 25e9));
  return topos;  // all 32 endpoints
}

/// Scrambles ranks over nodes so rank pair != node pair (multi-link routes).
inline net::Placement scrambled_placement(i64 p, i64 nodes) {
  net::Placement pl;
  pl.node_of_rank.resize(static_cast<size_t>(p));
  for (i64 r = 0; r < p; ++r)
    pl.node_of_rank[static_cast<size_t>(r)] = (r * 13 + 5) % nodes;  // 13 coprime
  return pl;
}

inline void expect_bitwise_eq(const net::SimResult& batched, const net::SimResult& oracle,
                              const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(batched.seconds),
            std::bit_cast<std::uint64_t>(oracle.seconds))
      << what << " seconds " << batched.seconds << " vs " << oracle.seconds;
  EXPECT_EQ(batched.traffic.local_bytes, oracle.traffic.local_bytes) << what;
  EXPECT_EQ(batched.traffic.global_bytes, oracle.traffic.global_bytes) << what;
  EXPECT_EQ(batched.traffic.intra_node_bytes, oracle.traffic.intra_node_bytes) << what;
  EXPECT_EQ(batched.traffic.messages, oracle.traffic.messages) << what;
  EXPECT_EQ(batched.steps, oracle.steps) << what;
}

inline void expect_bitwise_eq(const harness::RunResult& got,
                              const harness::RunResult& oracle, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.seconds),
            std::bit_cast<std::uint64_t>(oracle.seconds))
      << what << " seconds " << got.seconds << " vs " << oracle.seconds;
  EXPECT_EQ(got.global_bytes, oracle.global_bytes) << what;
  EXPECT_EQ(got.total_bytes, oracle.total_bytes) << what;
  EXPECT_EQ(got.messages, oracle.messages) << what;
  EXPECT_EQ(got.steps, oracle.steps) << what;
}

/// Every size-free schedule of the collective's registry at
/// rank count p -- the pool a tuner/sweep cell batches. `own` keeps the
/// shared entries alive behind the raw candidate span; `algos[k]` generated
/// `own[k]`, so an oracle can regenerate it at any size.
struct Pool {
  std::vector<std::shared_ptr<const sched::SizeFreeSchedule>> own;
  std::vector<const sched::SizeFreeSchedule*> ptrs;
  std::vector<const coll::AlgorithmEntry*> algos;
};

inline Pool registry_pool(sched::Collective coll, i64 p) {
  Pool pool;
  for (const auto& algo : coll::algorithms_for(coll)) {
    if (algo.pow2_only && !is_pow2(p)) continue;
    coll::Config cfg;
    cfg.p = p;
    cfg.elem_size = 4;
    cfg.elem_count = 4096;  // structure probe size; sizes vary per test
    pool.own.push_back(std::make_shared<const sched::SizeFreeSchedule>(
        sched::SizeFreeSchedule::from(algo.make(cfg))));
    pool.ptrs.push_back(pool.own.back().get());
    pool.algos.push_back(&algo);
  }
  return pool;
}

/// The scalar oracle a Runner(profile, /*spread_placement=*/false) cell must
/// match bitwise: the machine instance the Runner builds (identity placement,
/// failed ranks removed, degraded links), the freshly generated schedule at
/// each size, run through the scalar oracle.
class ScalarCell {
 public:
  ScalarCell(const harness::Runner& runner, i64 nodes)
      : topo_(runner.profile().build(nodes)),
        cost_(runner.profile().cost),
        p_(runner.effective_ranks(nodes)),
        torus_dims_(runner.torus_dims) {
    net::Placement pl = net::Placement::identity(nodes);
    const fault::FaultSpec* spec = runner.fault_spec();
    if (spec && spec->has_failed_ranks()) {
      std::vector<i64> surviving;
      for (Rank r = 0; r < nodes; ++r)
        if (!spec->rank_failed(r))
          surviving.push_back(pl.node_of_rank[static_cast<size_t>(r)]);
      pl.node_of_rank = std::move(surviving);
    }
    rc_ = std::make_unique<net::RouteCache>(*topo_, pl);
    if (spec && spec->degrades_links()) rc_->degrade(*spec);
  }

  [[nodiscard]] harness::RunResult run(const coll::AlgorithmEntry& algo,
                                       i64 size_bytes) const {
    coll::Config cfg;
    cfg.p = p_;
    cfg.elem_count = std::max<i64>(p_, size_bytes / cfg.elem_size);
    cfg.torus_dims = torus_dims_;
    const net::SimResult sim = net::simulate(algo.make(cfg), *rc_, cost_);
    return {sim.seconds, sim.traffic.global_bytes, sim.traffic.total(),
            sim.traffic.messages, sim.steps};
  }

 private:
  std::unique_ptr<net::Topology> topo_;
  std::unique_ptr<net::RouteCache> rc_;
  net::CostParams cost_;
  i64 p_;
  std::vector<i64> torus_dims_;
};

}  // namespace bine::test_util
