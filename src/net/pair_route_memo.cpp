#include "net/pair_route_memo.hpp"

#include <cassert>
#include <mutex>

namespace bine::net {

namespace {

constexpr std::uint32_t kNone = 0xffffffffu;

/// Sparse pair -> row index: each row's key, plus an open-addressing table
/// of row ids grown by doubling at half load, so a scope costs O(pairs
/// routed) whatever p is. Rows are numbered in insertion order.
class PairIndex {
 public:
  /// Row of `key`, or kNone.
  [[nodiscard]] std::uint32_t find(u64 key) const noexcept {
    for (size_t i = slot(key);; i = (i + 1) & mask()) {
      if (table_[i] == 0) return kNone;
      if (key_[table_[i] - 1] == key) return table_[i] - 1;
    }
  }

  /// Give absent `key` the next row id; returns the bytes the index grew by.
  size_t insert(u64 key) {
    const size_t before = bytes();
    key_.push_back(key);
    if (2 * key_.size() > table_.size()) {
      table_.assign(2 * table_.size(), 0);
      for (std::uint32_t r = 0; r + 1 < key_.size(); ++r) place(r);
    }
    place(static_cast<std::uint32_t>(key_.size() - 1));
    return bytes() - before;
  }

  [[nodiscard]] size_t bytes() const noexcept {
    return key_.capacity() * sizeof(u64) + table_.size() * sizeof(std::uint32_t);
  }

 private:
  [[nodiscard]] size_t mask() const noexcept { return table_.size() - 1; }
  [[nodiscard]] size_t slot(u64 key) const noexcept {
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ull) >> 32) & mask();
  }
  void place(std::uint32_t row) {
    size_t i = slot(key_[row]);
    while (table_[i] != 0) i = (i + 1) & mask();
    table_[i] = row + 1;
  }

  std::vector<u64> key_;                                         ///< row -> key
  std::vector<std::uint32_t> table_ = std::vector<std::uint32_t>(64, 0);  ///< row + 1
};

}  // namespace

/// One (Topology, Placement, fault_epoch) partition: append-only row and
/// slot tables under a reader-writer lock. Readers copy; writers append --
/// existing rows and slot assignments never change, so a row copied under
/// any lock generation stays valid forever.
struct PairRouteMemo::Scope {
  std::shared_mutex mutex;
  i64 p = 0;
  PairIndex row_of_pair;  ///< src * p + dst -> row id
  std::vector<std::uint32_t> row_off, row_len;  ///< per row, CSR into row_slots
  std::vector<std::uint32_t> row_slots;
  std::vector<RouteCache::ClassHops> row_hops;
  std::vector<std::uint8_t> row_global;
  std::vector<std::uint32_t> slot_of_link;  ///< link id -> scope slot
  std::vector<i64> slot_link;               ///< scope slot -> link id
};

std::shared_ptr<PairRouteMemo::Scope> PairRouteMemo::scope_for(const RouteCache& rc) {
  const u64 key = rc.signature();
  {
    std::shared_lock lock(mutex_);
    if (const auto it = scopes_.find(key); it != scopes_.end()) return it->second;
  }
  std::unique_lock lock(mutex_);
  auto [it, inserted] = scopes_.try_emplace(key);
  if (inserted) {
    it->second = std::make_shared<Scope>();
    Scope& s = *it->second;
    s.p = rc.num_ranks();
    s.slot_of_link.assign(static_cast<size_t>(rc.num_links()), kNone);
    bytes_.fetch_add(s.row_of_pair.bytes() + s.slot_of_link.size() * sizeof(std::uint32_t),
                     std::memory_order_relaxed);
  }
  return it->second;
}

void PairRouteMemo::resolve(const RouteCache& rc, std::span<const u64> pair_keys,
                            Rows& out) {
  const std::shared_ptr<Scope> scope_ptr = scope_for(rc);
  Scope& scope = *scope_ptr;
  assert(scope.p == rc.num_ranks());
  const auto np = static_cast<u64>(scope.p);

  const size_t n = pair_keys.size();
  out.route_off.resize(n);
  out.route_len.resize(n);
  out.hops.resize(n);
  out.crosses_global.resize(n);
  out.route_slots.clear();

  // Pass 1 (shared): look every pair's row up once, parking it in
  // route_off, and note which pairs the scope lacks. The common steady
  // state -- every pair known -- inserts nothing, with zero writer
  // contention. Rows never move or change, so a row found here stays valid.
  size_t missing = 0;
  {
    std::shared_lock lock(scope.mutex);
    for (size_t i = 0; i < n; ++i) {
      out.route_off[i] = scope.row_of_pair.find(pair_keys[i]);
      if (out.route_off[i] == kNone) ++missing;
    }
  }

  // Pass 2 (exclusive, only when needed): route and append the unknown
  // pairs. Re-check under the writer lock -- another resolver may have
  // inserted them between passes.
  if (missing > 0) {
    u64 inserted = 0, added_bytes = 0;
    std::vector<i64> scratch;
    std::unique_lock lock(scope.mutex);
    for (size_t i = 0; i < n; ++i) {
      if (out.route_off[i] != kNone) continue;
      const u64 key = pair_keys[i];
      out.route_off[i] = scope.row_of_pair.find(key);
      if (out.route_off[i] != kNone) continue;
      out.route_off[i] = static_cast<std::uint32_t>(scope.row_off.size());
      const Rank src = static_cast<Rank>(key / np);
      const Rank dst = static_cast<Rank>(key % np);
      const RouteCache::Route route = rc.route(src, dst, scratch);
      added_bytes += scope.row_of_pair.insert(key);  // row id: row_off.size()
      scope.row_off.push_back(static_cast<std::uint32_t>(scope.row_slots.size()));
      scope.row_len.push_back(static_cast<std::uint32_t>(route.links.size()));
      for (const i64 link : route.links) {
        std::uint32_t& slot = scope.slot_of_link[static_cast<size_t>(link)];
        if (slot == kNone) {
          slot = static_cast<std::uint32_t>(scope.slot_link.size());
          scope.slot_link.push_back(link);
          added_bytes += sizeof(i64);
        }
        scope.row_slots.push_back(slot);
      }
      scope.row_hops.push_back(route.hops);
      scope.row_global.push_back(route.hops.global > 0 ? 1 : 0);
      ++inserted;
      added_bytes += route.links.size() * sizeof(std::uint32_t) + 2 * sizeof(std::uint32_t) +
                     sizeof(RouteCache::ClassHops) + 1;
    }
    misses_.fetch_add(inserted, std::memory_order_relaxed);
    bytes_.fetch_add(added_bytes, std::memory_order_relaxed);
    // `missing` counted under the shared lock; pairs another thread inserted
    // in between are hits after all.
    missing = static_cast<size_t>(inserted);
  }
  hits_.fetch_add(n - missing, std::memory_order_relaxed);

  // Pass 3 (shared): copy every row -- and the slot table, which may have
  // grown in pass 2 -- into the caller's scratch.
  {
    std::shared_lock lock(scope.mutex);
    for (size_t i = 0; i < n; ++i) {
      const std::uint32_t row = out.route_off[i];
      const std::uint32_t off = scope.row_off[row];
      const std::uint32_t len = scope.row_len[row];
      out.route_off[i] = static_cast<std::uint32_t>(out.route_slots.size());
      out.route_len[i] = len;
      out.route_slots.insert(out.route_slots.end(), scope.row_slots.begin() + off,
                             scope.row_slots.begin() + off + len);
      out.hops[i] = scope.row_hops[row];
      out.crosses_global[i] = scope.row_global[row];
    }
    out.slot_link.assign(scope.slot_link.begin(), scope.slot_link.end());
  }
}

PairRouteMemo::Stats PairRouteMemo::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.bytes = bytes_.load(std::memory_order_relaxed);
  std::shared_lock lock(mutex_);
  s.scopes = scopes_.size();
  return s;
}

void PairRouteMemo::clear() {
  std::unique_lock lock(mutex_);
  scopes_.clear();
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  bytes_.store(0, std::memory_order_relaxed);
}

PairRouteMemo& process_route_memo() {
  static PairRouteMemo memo;
  return memo;
}

}  // namespace bine::net
