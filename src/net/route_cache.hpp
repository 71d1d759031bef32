#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "net/topology.hpp"

namespace bine::fault {
struct FaultSpec;
}

/// Compiled routing tables: the hot-path replacement for per-message virtual
/// `Topology::route()` calls.
///
/// A `RouteCache` is built once per (Topology, Placement) and reused across
/// every schedule simulated on that pair -- exactly the access pattern of the
/// evaluation sweeps, where one machine instance hosts hundreds of
/// (algorithm, vector size) schedule simulations. The virtual `route()`
/// method remains the single source of truth for minimal paths; the cache
/// only materializes its answers:
///
///   * a CSR-packed table of link paths for every ordered rank pair, keyed by
///     the (src node, dst node) the placement assigns to the pair;
///   * per-pair link-class hop counts (local/global/intra-node), which make
///     exact traffic accounting O(1) per message instead of O(path);
///   * flat per-link `LinkClass` and inverse-bandwidth arrays, so the
///     simulator's inner loop multiplies instead of dividing and never
///     touches the `Link` structs through the topology.
///
/// Two build modes:
///
///   * *eager* (the 2-arg constructor): every ordered rank pair is routed up
///     front. The right choice for sweeps, where one cache serves hundreds
///     of schedules and the hot path must stay branch-free.
///   * *scoped* (the pair-list constructor): only the listed pairs are
///     routed and stored -- time AND memory are O(#pairs), with a sorted
///     pair table looked up by binary search on access (unlisted pairs
///     assert in debug builds). A schedule touches O(p log p) of the p^2
///     pairs, so the one-off `measure_traffic`/`simulate` conveniences
///     scope the build to the schedule's send pairs and skip almost the
///     entire eager cost -- including the quadratic table allocation -- on
///     large rank counts.
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

  /// Eager build: routes all p^2 ordered pairs.
  RouteCache(const Topology& topo, const Placement& pl);

  /// Scoped build: routes only the ordered (src, dst) pairs in `pairs`
  /// (duplicates tolerated). Accessing an unlisted pair is undefined
  /// (asserts in debug builds).
  RouteCache(const Topology& topo, const Placement& pl,
             std::span<const std::pair<Rank, Rank>> pairs);

  [[nodiscard]] i64 num_ranks() const noexcept { return p_; }
  [[nodiscard]] i64 num_links() const noexcept {
    return static_cast<i64>(inv_bandwidth_.size());
  }

  /// True when (src, dst) was routed at build time (always, for eager).
  [[nodiscard]] bool routed(Rank src, Rank dst) const noexcept {
    return !scoped_ || scoped_index(src, dst) != kNotRouted;
  }

  /// Link ids of the minimal route between the nodes hosting `src` and `dst`
  /// (empty when they share a node).
  [[nodiscard]] std::span<const i64> path(Rank src, Rank dst) const noexcept {
    const size_t k = pair(src, dst);
    return {links_.data() + offsets_[k], links_.data() + offsets_[k + 1]};
  }

  [[nodiscard]] const ClassHops& hops(Rank src, Rank dst) const noexcept {
    return hops_[pair(src, dst)];
  }

  [[nodiscard]] bool crosses_global(Rank src, Rank dst) const noexcept {
    return hops(src, dst).global > 0;
  }

  /// 1 / link bandwidth, indexed by link id (multiplying beats dividing in
  /// the per-step link-time reduction).
  [[nodiscard]] std::span<const double> inv_bandwidth() const noexcept {
    return inv_bandwidth_;
  }

  /// Apply a fault spec to the compiled inverse-bandwidth column: each link's
  /// class degradation factor divides its bandwidth, and dead links (listed
  /// or seeded-sampled) drop to the spec's residual dead_link_bandwidth --
  /// simulated times over them become finite but enormous, so selection
  /// routes around the outage. Idempotence is NOT guaranteed; callers apply
  /// it exactly once, right after the build (harness::Runner does).
  /// Invalidates the cached signature() below.
  void degrade(const fault::FaultSpec& spec);

  /// Content fingerprint of the compiled tables: two caches agree iff their
  /// routed pairs, per-pair paths/hops, and per-link class/bandwidth columns
  /// (degradation included) are identical -- i.e. they describe the same
  /// (Topology, Placement, fault_epoch). This is the scope key of
  /// net::PairRouteMemo, which lets every Runner built on the same machine
  /// state share one memoized route-row table. Computed lazily on first use
  /// (a word-wise FNV over the flat arrays, O(stored paths) once) and cached;
  /// concurrent first calls race benignly to the same value. Never 0.
  [[nodiscard]] u64 signature() const noexcept;

 private:
  static constexpr size_t kNotRouted = static_cast<size_t>(-1);

  /// Slot of (src, dst) in offsets_/hops_: direct src*p + dst for eager,
  /// binary search over the sorted pair table for scoped.
  [[nodiscard]] size_t pair(Rank src, Rank dst) const noexcept {
    assert(src >= 0 && src < p_ && dst >= 0 && dst < p_);
    if (!scoped_)
      return static_cast<size_t>(src) * static_cast<size_t>(p_) +
             static_cast<size_t>(dst);
    const size_t k = scoped_index(src, dst);
    assert(k != kNotRouted && "pair outside this scoped RouteCache's build");
    return k;
  }

  [[nodiscard]] size_t scoped_index(Rank src, Rank dst) const noexcept {
    const std::pair<Rank, Rank> key{src, dst};
    const auto it = std::lower_bound(scoped_keys_.begin(), scoped_keys_.end(), key);
    if (it == scoped_keys_.end() || *it != key) return kNotRouted;
    return static_cast<size_t>(it - scoped_keys_.begin());
  }

  void route_one(const Topology& topo, const Placement& pl, Rank s, Rank d,
                 std::vector<i64>& path_scratch);

  i64 p_ = 0;
  std::vector<size_t> offsets_;  ///< CSR offsets, one slot per stored pair + 1
  std::vector<i64> links_;       ///< concatenated per-pair link ids
  std::vector<ClassHops> hops_;  ///< per stored pair
  std::vector<double> inv_bandwidth_;  ///< per link id
  std::vector<LinkClass> link_class_;  ///< per link id
  /// Scoped build? (An explicit flag: a scoped build with an empty pair
  /// list -- a schedule with no sends -- must not masquerade as eager.)
  bool scoped_ = false;
  /// Sorted distinct pairs of a scoped build; slots follow this table.
  std::vector<std::pair<Rank, Rank>> scoped_keys_;
  /// Cached signature(); 0 = not yet computed (degrade() resets it).
  mutable std::atomic<u64> signature_{0};
};

}  // namespace bine::net
