#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "core/types.hpp"
#include "net/topology.hpp"

namespace bine::fault {
struct FaultSpec;
}

/// One machine instance's routing view: a (Topology, Placement) pair plus the
/// flat per-link columns the simulator reads.
///
/// A `RouteCache` stores no routes. `route()` answers one rank pair straight
/// from the virtual `Topology::route()`, the single source of truth for
/// minimal paths, and counts the path's links per class. Routes are stored in
/// one place only, `net::PairRouteMemo`, which calls `route()` once per pair
/// it has not seen (a schedule touches O(p log p) of the p^2 pairs); the
/// scalar oracle calls it once per send. What the cache keeps is O(links + p):
///
///   * flat per-link `LinkClass` and inverse-bandwidth columns, so the
///     simulator's inner loop multiplies instead of dividing and never
///     touches the `Link` structs through the topology. `degrade()` rewrites
///     the bandwidth column for a fault epoch;
///   * the placement, and a reference to the topology, which must outlive
///     the cache;
///   * `signature()`, the memo's scope key.
namespace bine::net {

/// Rank -> node placement. Identity (one rank per node, block order) unless
/// an allocation says otherwise.
struct Placement {
  std::vector<i64> node_of_rank;
  [[nodiscard]] static Placement identity(i64 p) {
    Placement pl;
    pl.node_of_rank.resize(static_cast<size_t>(p));
    for (i64 r = 0; r < p; ++r) pl.node_of_rank[static_cast<size_t>(r)] = r;
    return pl;
  }
};

class RouteCache {
 public:
  /// Number of links of each class on one rank pair's path.
  struct ClassHops {
    std::int32_t local = 0;
    std::int32_t global = 0;
    std::int32_t intra_node = 0;
  };

  /// One rank pair's minimal route.
  struct Route {
    std::span<const i64> links;  ///< link ids, a view of the caller's scratch
    ClassHops hops;
  };

  RouteCache(const Topology& topo, Placement pl);

  [[nodiscard]] i64 num_ranks() const noexcept {
    return static_cast<i64>(placement_.node_of_rank.size());
  }
  [[nodiscard]] i64 num_links() const noexcept {
    return static_cast<i64>(inv_bandwidth_.size());
  }

  /// Route between the nodes hosting `src` and `dst` (no links when they
  /// share a node). Overwrites `scratch`, which backs the returned links.
  [[nodiscard]] Route route(Rank src, Rank dst, std::vector<i64>& scratch) const;

  /// 1 / link bandwidth, indexed by link id (multiplying beats dividing in
  /// the per-step link-time reduction).
  [[nodiscard]] std::span<const double> inv_bandwidth() const noexcept {
    return inv_bandwidth_;
  }

  /// Apply a fault spec to the inverse-bandwidth column: each link's class
  /// degradation factor divides its bandwidth, and dead links (listed or
  /// seeded-sampled) drop to the spec's residual dead_link_bandwidth --
  /// simulated times over them become finite but enormous, so selection
  /// routes around the outage. Idempotence is NOT guaranteed; callers apply
  /// it exactly once, right after construction (harness::Runner does).
  /// Invalidates the cached signature() below.
  void degrade(const fault::FaultSpec& spec);

  /// Fingerprint of everything a route or a link time depends on: the
  /// topology's name() and shape(), the per-link class and bandwidth
  /// columns (degradation included) and the placement -- i.e. the
  /// (Topology, Placement, fault_epoch) triple. This is the scope key of
  /// net::PairRouteMemo, which lets every Runner built on the same machine
  /// state share one memoized route-row table. O(links + p), computed lazily
  /// on first use and cached; concurrent first calls race benignly to the
  /// same value. Never 0.
  [[nodiscard]] u64 signature() const noexcept;

 private:
  const Topology& topo_;
  Placement placement_;
  std::vector<double> inv_bandwidth_;  ///< per link id
  std::vector<LinkClass> link_class_;  ///< per link id
  /// Cached signature(); 0 = not yet computed (degrade() resets it).
  mutable std::atomic<u64> signature_{0};
};

}  // namespace bine::net
