#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <span>
#include <vector>

#include "core/types.hpp"
#include "net/route_cache.hpp"

/// Profile-scoped memoization of compiled per-(rank, peer) route rows: the
/// one place routes are stored, and the size-batched simulator's
/// cross-schedule structure cache.
///
/// The simulator resolves each schedule's own send pairs through the memo,
/// so a pair is routed (`RouteCache::route`, compact link-slot assignment)
/// once per scope, not once per schedule or cell. The candidates of one
/// collective overwhelmingly reuse the same pairs (every butterfly shares
/// the ring's neighbor pairs and the trees' ancestor pairs), so the memo
/// lifts routing to process scope the way `sched::process_schedule_cache()`
/// lifts schedule generation. No route table is built up front: a scope
/// holds only the pairs some schedule sent on.
///
/// Scoping: rows are only valid for the (Topology, Placement, fault_epoch)
/// they were routed under, so the memo partitions its table by
/// `RouteCache::signature()` -- a fingerprint of the topology's name and
/// shape, the per-link class and bandwidth columns (degradation included)
/// and the placement, which is exactly that triple (see route_cache.hpp). A
/// Runner whose fault spec degrades links gets a different scope than a
/// healthy Runner on the same profile, and two Runners built on identical
/// machine state (the table benches build one per profile, the tuner one per
/// build round) share one scope: the second starts hot.
///
/// Each scope owns a stable compact link-slot table (link id -> scope slot,
/// first-touch order, append-only), per-pair rows (the pair's path as
/// scope-slot ids (CSR), its per-class hop counts, and whether it crosses a
/// global link), and a sparse pair -> row index (open addressing, grown by
/// doubling) sized to the pairs routed, never to p^2. Unknown pairs are
/// routed under the scope's writer lock. Callers copy rows out under a
/// shared lock into call-local scratch (`Rows`) and remap scope slots to
/// their own dense per-schedule tables; nothing retains pointers into the
/// scope, so scopes never dangle and rows survive the RouteCache that seeded
/// them. Slot *numbering* depends on insertion order and is therefore
/// thread-schedule-dependent -- harmless, because the simulator's per-step
/// link reduction is a max over non-negative finite terms (order-independent
/// bitwise) and byte accumulation is exact i64: results never observe slot
/// order.
namespace bine::net {

class PairRouteMemo {
 public:
  /// Call-local copy of the resolved rows for one pair list, in list order.
  /// Slot ids are *scope* slots: dense in [0, num_scope_slots) but sparse for
  /// any one call (other cells' pairs own the gaps); `slot_link` maps them
  /// back to link ids for bandwidth/class lookups.
  struct Rows {
    std::vector<std::uint32_t> route_off, route_len;  ///< per pair, CSR
    std::vector<std::uint32_t> route_slots;           ///< scope-slot ids
    std::vector<RouteCache::ClassHops> hops;          ///< per pair
    std::vector<std::uint8_t> crosses_global;         ///< per pair
    std::vector<i64> slot_link;  ///< scope slot -> link id (full table copy)
    [[nodiscard]] size_t num_scope_slots() const noexcept { return slot_link.size(); }
  };

  /// Resolve rows for `pair_keys` (ordered-pair keys `src * p + dst`,
  /// deduplicated by the caller) against the scope of `rc`, copying them into
  /// `out` in key order. Unknown pairs are routed via `rc.route` under the
  /// scope's writer lock and memoized; known pairs are copied under a shared
  /// lock. Thread-safe; concurrent resolvers of one scope contend only when
  /// one of them is inserting.
  void resolve(const RouteCache& rc, std::span<const u64> pair_keys, Rows& out);

  struct Stats {
    u64 hits = 0;    ///< pairs served from a scope
    u64 misses = 0;  ///< pairs routed and inserted
    u64 scopes = 0;  ///< distinct (Topology, Placement, fault_epoch) seen
    u64 bytes = 0;   ///< approximate resident bytes of rows and pair indexes
  };
  [[nodiscard]] Stats stats() const;
  void clear();

 private:
  struct Scope;
  [[nodiscard]] std::shared_ptr<Scope> scope_for(const RouteCache& rc);

  mutable std::shared_mutex mutex_;
  std::map<u64, std::shared_ptr<Scope>> scopes_;
  std::atomic<u64> hits_{0};
  std::atomic<u64> misses_{0};
  std::atomic<u64> bytes_{0};
};

/// The process-wide memo instance. Rows are pure functions of the scope key,
/// so every Runner shares one table -- sweeps, tuner builds, and the service
/// daemon's tune-on-miss all warm each other. `harness::Runner`'s
/// simulation path uses this instance; `PairRouteMemo` itself stays
/// instantiable for isolation in tests.
[[nodiscard]] PairRouteMemo& process_route_memo();

}  // namespace bine::net
