// Network substrate tests: routing validity, link classification, exact
// traffic accounting (Fig. 1), cost-model monotonicity, and the allocation
// model's traffic-bound behaviour.
#include <gtest/gtest.h>

#include <memory>

#include "alloc/allocation.hpp"
#include "coll/registry.hpp"
#include "coll/tree_colls.hpp"
#include "core/tree.hpp"
#include "fault/fault.hpp"
#include "harness/runner.hpp"
#include "net/profiles.hpp"
#include "net/simulate.hpp"
#include "net/topology.hpp"

using namespace bine;

namespace {

void expect_routes_valid(const net::Topology& topo) {
  std::vector<i64> path;
  for (i64 s = 0; s < std::min<i64>(topo.num_nodes(), 40); ++s)
    for (i64 d = 0; d < std::min<i64>(topo.num_nodes(), 40); ++d) {
      path.clear();
      topo.route(s, d, path);
      if (s == d) {
        EXPECT_TRUE(path.empty());
        continue;
      }
      EXPECT_FALSE(path.empty());
      for (const i64 link : path) {
        ASSERT_GE(link, 0);
        ASSERT_LT(link, static_cast<i64>(topo.links().size()));
      }
      // Intra-group routes must not touch global links; inter-group must.
      bool crosses_global = false;
      for (const i64 link : path)
        crosses_global |= topo.links()[static_cast<size_t>(link)].cls ==
                          net::LinkClass::global;
      if (topo.group_of(s) == topo.group_of(d)) {
        EXPECT_FALSE(crosses_global) << s << "->" << d;
      }
    }
}

}  // namespace

TEST(Topologies, FatTreeRoutes) {
  net::FatTree topo(4, 8, 2, 25e9);
  EXPECT_EQ(topo.num_nodes(), 32);
  expect_routes_valid(topo);
  // Inter-leaf routes must cross exactly one uplink and one downlink.
  std::vector<i64> path;
  topo.route(0, 31, path);
  i64 globals = 0;
  for (const i64 l : path)
    globals += topo.links()[static_cast<size_t>(l)].cls == net::LinkClass::global;
  EXPECT_EQ(globals, 2);
}

TEST(Topologies, DragonflyRoutes) {
  net::Dragonfly topo(6, 16, 2, 25e9, 25e9);
  EXPECT_EQ(topo.num_nodes(), 96);
  expect_routes_valid(topo);
}

TEST(Topologies, TorusRoutesAreMinimal) {
  net::Torus topo({4, 4, 4}, 6.8e9);
  EXPECT_EQ(topo.num_nodes(), 64);
  std::vector<i64> path;
  for (i64 s = 0; s < 64; ++s)
    for (i64 d = 0; d < 64; ++d) {
      path.clear();
      topo.route(s, d, path);
      // Minimal hop count = sum of per-dimension circular distances.
      const auto cs = topo.coords_of(s), cd = topo.coords_of(d);
      i64 hops = 0;
      for (size_t dim = 0; dim < 3; ++dim) {
        const i64 fwd = pmod(cd[dim] - cs[dim], 4);
        hops += std::min(fwd, 4 - fwd);
      }
      EXPECT_EQ(static_cast<i64>(path.size()), hops) << s << "->" << d;
    }
}

TEST(Topologies, TorusCoordsRoundTrip) {
  net::Torus topo({2, 3, 5}, 1e9);
  for (i64 n = 0; n < topo.num_nodes(); ++n)
    EXPECT_EQ(topo.node_at(topo.coords_of(n)), n);
}

TEST(Topologies, MultiGpuIntraNodeStaysLocal) {
  net::MultiGpu topo(4, 4, 150e9, 25e9);
  std::vector<i64> path;
  topo.route(0, 3, path);  // same node
  for (const i64 l : path)
    EXPECT_EQ(static_cast<int>(topo.links()[static_cast<size_t>(l)].cls),
              static_cast<int>(net::LinkClass::intra_node));
  path.clear();
  topo.route(0, 5, path);  // different nodes
  bool global = false;
  for (const i64 l : path)
    global |= topo.links()[static_cast<size_t>(l)].cls == net::LinkClass::global;
  EXPECT_TRUE(global);
}

TEST(Traffic, Fig1ExactCounts) {
  // The Fig. 1 example, as an exact regression: 8 nodes, 2 per leaf, 2:1.
  net::FatTree topo(4, 2, 2, 25e9);
  const net::Placement pl = net::Placement::identity(8);
  coll::Config cfg;
  cfg.p = 8;
  cfg.elem_count = 1024;
  cfg.elem_size = 4;
  const i64 n = cfg.elem_count * cfg.elem_size;
  const auto dd = net::measure_traffic(
      coll::bcast_tree(cfg, core::TreeVariant::binomial_dd), topo, pl);
  const auto dh = net::measure_traffic(
      coll::bcast_tree(cfg, core::TreeVariant::binomial_dh), topo, pl);
  const auto bine = net::measure_traffic(coll::bcast_tree(cfg, core::TreeVariant::bine_dh),
                                         topo, pl);
  EXPECT_EQ(dd.global_bytes, 2 * 6 * n);  // uplink + downlink per message
  EXPECT_EQ(dh.global_bytes, 2 * 3 * n);
  EXPECT_EQ(bine.global_bytes, 2 * 3 * n);
}

TEST(Traffic, InterGroupMatchesRoutedGlobalOnDragonflySingleLinkGroups) {
  // With one rank per node and minimal routing, inter-group bytes counted
  // group-wise must equal the routed global-link bytes.
  net::Dragonfly topo(5, 8, 1, 25e9, 25e9);
  const i64 p = 40;
  const net::Placement pl = net::Placement::identity(p);
  std::vector<i64> groups;
  for (i64 r = 0; r < p; ++r) groups.push_back(topo.group_of(r));
  coll::Config cfg;
  cfg.p = p;
  cfg.elem_count = 400;
  for (const char* algo : {"ring", "recursive_doubling"}) {
    const auto sch =
        coll::find_algorithm(sched::Collective::allreduce, std::string(algo)).make(cfg);
    EXPECT_EQ(net::measure_traffic(sch, topo, pl).global_bytes,
              net::inter_group_bytes(sch, groups))
        << algo;
  }
}

TEST(CostModel, TimeGrowsWithVectorSize) {
  const auto profile = net::lumi_profile();
  harness::Runner runner(profile);
  const auto& entry = coll::find_algorithm(sched::Collective::allreduce, "bine_send");
  double prev = 0;
  for (const i64 size : {1 << 10, 1 << 14, 1 << 18, 1 << 22}) {
    const double t = runner.run(sched::Collective::allreduce, entry, 64, size).seconds;
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(CostModel, RingBeatsButterflyOnHugeVectorsSmallScale) {
  // The classic crossover the paper leans on (Figs. 9a/10a): ring wins large
  // vectors at small node counts, butterflies win small vectors. The
  // crossover is a healthy-machine cost-model claim, so an explicit trivial
  // fault spec pins it against any ambient BINE_FAULT_SPEC (the CI
  // fault-injection job degrades links, which can legitimately flip it).
  net::SystemProfile profile = net::leonardo_profile();
  profile.faults = std::make_shared<fault::FaultSpec>();
  harness::Runner runner(std::move(profile));
  const auto ring = coll::find_algorithm(sched::Collective::allreduce, "ring");
  const auto rd = coll::find_algorithm(sched::Collective::allreduce, "recursive_doubling");
  const double t_ring_small =
      runner.run(sched::Collective::allreduce, ring, 32, 256).seconds;
  const double t_rd_small = runner.run(sched::Collective::allreduce, rd, 32, 256).seconds;
  EXPECT_LT(t_rd_small, t_ring_small);
}

TEST(Allocation, BlockDistributionSortedAndSized) {
  alloc::Machine m{8, 32};
  alloc::SyntheticScheduler sched_gen(m, 0.4, 123);
  for (const i64 size : {4, 16, 100, 200}) {
    const auto job = sched_gen.sample_job(size);
    ASSERT_EQ(static_cast<i64>(job.node_of_rank.size()), size);
    for (size_t k = 1; k < job.node_of_rank.size(); ++k)
      EXPECT_LT(job.node_of_rank[k - 1], job.node_of_rank[k]);
    for (const i64 n : job.node_of_rank) {
      EXPECT_GE(n, 0);
      EXPECT_LT(n, m.num_nodes());
    }
  }
}

TEST(Allocation, TreeAllreduceReductionRespects33PercentBound) {
  // Property over many random allocations: the tree-based estimate of Fig. 5
  // never exceeds the Eq. 2 bound.
  alloc::Machine m{12, 64};
  alloc::SyntheticScheduler sched_gen(m, 0.5, 99);
  for (int trial = 0; trial < 60; ++trial) {
    const i64 size = 16 << (trial % 5);
    const auto job = sched_gen.sample_job(size);
    const auto groups = job.groups_on(m);
    coll::Config cfg;
    cfg.p = size;
    cfg.elem_count = 256;
    const i64 bine =
        net::inter_group_bytes(coll::bcast_tree(cfg, core::TreeVariant::bine_dh), groups);
    const i64 binom = net::inter_group_bytes(
        coll::bcast_tree(cfg, core::TreeVariant::binomial_dh), groups);
    if (binom == 0) continue;
    const double reduction = 1.0 - static_cast<double>(bine) / static_cast<double>(binom);
    EXPECT_LE(reduction, 1.0 / 3.0 + 1e-9) << "trial " << trial << " size " << size;
  }
}

TEST(Harness, BineFamilySkipsSpecializedAlgorithms) {
  harness::Runner runner(net::lumi_profile());
  const std::vector<std::string> names =
      runner.bine_names(sched::Collective::allreduce, false);
  ASSERT_FALSE(names.empty());
  for (const std::string& name : names) {
    EXPECT_EQ(name.find("torus"), std::string::npos);
    EXPECT_EQ(name.find("hierarchical"), std::string::npos);
    const auto& entry = coll::find_algorithm(sched::Collective::allreduce, name);
    EXPECT_TRUE(entry.is_bine);
    EXPECT_FALSE(entry.specialized);
  }
}

TEST(Harness, SizesAndLabels) {
  EXPECT_EQ(harness::size_label(32), "32 B");
  EXPECT_EQ(harness::size_label(2048), "2 KiB");
  EXPECT_EQ(harness::size_label(1 << 20), "1 MiB");
  EXPECT_EQ(harness::size_label(i64{512} << 20), "512 MiB");
  EXPECT_EQ(harness::paper_vector_sizes(true).size(), 9u);
}
