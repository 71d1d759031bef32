#include "net/route_cache.hpp"

#include <cassert>
#include <utility>

#include "core/fnv.hpp"
#include "fault/fault.hpp"

namespace bine::net {

RouteCache::RouteCache(const Topology& topo, Placement pl)
    : topo_(topo), placement_(std::move(pl)) {
  const auto& links = topo.links();
  inv_bandwidth_.reserve(links.size());
  link_class_.reserve(links.size());
  for (const Link& l : links) {
    inv_bandwidth_.push_back(1.0 / l.bandwidth);
    link_class_.push_back(l.cls);
  }
}

RouteCache::Route RouteCache::route(Rank src, Rank dst, std::vector<i64>& scratch) const {
  assert(src >= 0 && src < num_ranks() && dst >= 0 && dst < num_ranks());
  scratch.clear();
  topo_.route(placement_.node_of_rank[static_cast<size_t>(src)],
              placement_.node_of_rank[static_cast<size_t>(dst)], scratch);
  Route r{scratch, {}};
  for (const i64 link : scratch) {
    switch (link_class_[static_cast<size_t>(link)]) {
      case LinkClass::local: ++r.hops.local; break;
      case LinkClass::global: ++r.hops.global; break;
      case LinkClass::intra_node: ++r.hops.intra_node; break;
    }
  }
  return r;
}

void RouteCache::degrade(const fault::FaultSpec& spec) {
  for (size_t l = 0; l < inv_bandwidth_.size(); ++l) {
    if (spec.link_dead(static_cast<i64>(l))) {
      inv_bandwidth_[l] = 1.0 / spec.dead_link_bandwidth;
      continue;
    }
    double factor = 1.0;
    switch (link_class_[l]) {
      case LinkClass::local: factor = spec.degrade_local; break;
      case LinkClass::global: factor = spec.degrade_global; break;
      case LinkClass::intra_node: factor = spec.degrade_intra_node; break;
    }
    // bw' = bw * factor, stored inverted: inv' = inv / factor.
    if (factor != 1.0) inv_bandwidth_[l] /= factor;
  }
  signature_.store(0, std::memory_order_relaxed);
}

u64 RouteCache::signature() const noexcept {
  if (const u64 cached = signature_.load(std::memory_order_relaxed); cached != 0)
    return cached;
  // Routes are a pure function of the topology family, its shape and the
  // placement; link times add the bandwidth column. Link counts alone do not
  // tell shapes apart (a 4x4x2 and a 2x4x4 torus agree on both columns), so
  // the shape is part of the key.
  u64 h = core::kFnvOffset;
  core::fnv_mix_string(h, "bine.route_cache.v2");
  core::fnv_mix_string(h, topo_.name());
  const auto mix = [&h](const auto& v) {
    const u64 n = v.size();
    core::fnv_mix_words(h, &n, sizeof(n));
    core::fnv_mix_words(h, v.data(), v.size() * sizeof(v[0]));
  };
  mix(topo_.shape());
  mix(inv_bandwidth_);
  mix(link_class_);
  mix(placement_.node_of_rank);
  if (h == 0) h = 1;  // 0 is the not-yet-computed sentinel
  // Concurrent first calls compute the same value; whichever store lands
  // last is identical.
  signature_.store(h, std::memory_order_relaxed);
  return h;
}

}  // namespace bine::net
