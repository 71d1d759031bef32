#include "net/topology.hpp"

#include <cassert>

namespace bine::net {

// --- FatTree -------------------------------------------------------------------

FatTree::FatTree(i64 num_leaves, i64 nodes_per_leaf, i64 oversub, double link_bw)
    : Topology(num_leaves * nodes_per_leaf, {num_leaves, nodes_per_leaf, oversub}),
      nodes_per_leaf_(nodes_per_leaf),
      uplinks_per_leaf_(std::max<i64>(1, nodes_per_leaf / oversub)) {
  access_up_.resize(static_cast<size_t>(num_nodes()));
  access_down_.resize(static_cast<size_t>(num_nodes()));
  for (i64 n = 0; n < num_nodes(); ++n) {
    access_up_[static_cast<size_t>(n)] = add_link(LinkClass::local, link_bw);
    access_down_[static_cast<size_t>(n)] = add_link(LinkClass::local, link_bw);
  }
  up_.resize(static_cast<size_t>(num_leaves));
  down_.resize(static_cast<size_t>(num_leaves));
  for (i64 l = 0; l < num_leaves; ++l)
    for (i64 k = 0; k < uplinks_per_leaf_; ++k) {
      up_[static_cast<size_t>(l)].push_back(add_link(LinkClass::global, link_bw));
      down_[static_cast<size_t>(l)].push_back(add_link(LinkClass::global, link_bw));
    }
}

void FatTree::route(i64 src, i64 dst, std::vector<i64>& out) const {
  if (src == dst) return;
  out.push_back(access_up_[static_cast<size_t>(src)]);
  const i64 src_leaf = src / nodes_per_leaf_, dst_leaf = dst / nodes_per_leaf_;
  if (src_leaf != dst_leaf) {
    // Spread flows over the parallel uplinks deterministically by flow hash.
    const i64 h = (src * 31 + dst) % uplinks_per_leaf_;
    out.push_back(up_[static_cast<size_t>(src_leaf)][static_cast<size_t>(h)]);
    out.push_back(down_[static_cast<size_t>(dst_leaf)][static_cast<size_t>(h)]);
  }
  out.push_back(access_down_[static_cast<size_t>(dst)]);
}

// --- Dragonfly -----------------------------------------------------------------

Dragonfly::Dragonfly(i64 num_groups, i64 nodes_per_group, i64 links_per_pair,
                     double local_bw, double global_bw, std::string flavour)
    : Topology(num_groups * nodes_per_group, {num_groups, nodes_per_group, links_per_pair}),
      num_groups_(num_groups),
      nodes_per_group_(nodes_per_group),
      links_per_pair_(links_per_pair),
      flavour_(std::move(flavour)) {
  inject_.resize(static_cast<size_t>(num_nodes()));
  eject_.resize(static_cast<size_t>(num_nodes()));
  for (i64 n = 0; n < num_nodes(); ++n) {
    inject_[static_cast<size_t>(n)] = add_link(LinkClass::local, local_bw);
    eject_[static_cast<size_t>(n)] = add_link(LinkClass::local, local_bw);
  }
  const i64 pairs = num_groups_ * (num_groups_ - 1) / 2;
  global_.resize(static_cast<size_t>(2 * pairs));  // directed: 2 per pair
  for (i64 pr = 0; pr < 2 * pairs; ++pr)
    for (i64 k = 0; k < links_per_pair_; ++k)
      global_[static_cast<size_t>(pr)].push_back(add_link(LinkClass::global, global_bw));
}

i64 Dragonfly::bundle_of(i64 ga, i64 gb) const {
  assert(ga != gb);
  const i64 a = std::min(ga, gb), b = std::max(ga, gb);
  const i64 undirected = a * num_groups_ - a * (a + 1) / 2 + (b - a - 1);
  return 2 * undirected + (ga < gb ? 0 : 1);
}

void Dragonfly::route(i64 src, i64 dst, std::vector<i64>& out) const {
  if (src == dst) return;
  out.push_back(inject_[static_cast<size_t>(src)]);
  const i64 gs = group_of(src), gd = group_of(dst);
  if (gs != gd) {
    const auto& bundle = global_[static_cast<size_t>(bundle_of(gs, gd))];
    out.push_back(bundle[static_cast<size_t>((src * 31 + dst) % links_per_pair_)]);
  }
  out.push_back(eject_[static_cast<size_t>(dst)]);
}

// --- Torus ---------------------------------------------------------------------

Torus::Torus(std::vector<i64> dims, double link_bw)
    : Topology(
          [&dims] {
            i64 n = 1;
            for (const i64 d : dims) n *= d;
            return n;
          }(),
          dims),
      links_per_node_(static_cast<i64>(2 * dims.size())) {
  for (i64 n = 0; n < num_nodes(); ++n)
    for (i64 l = 0; l < links_per_node_; ++l) add_link(LinkClass::local, link_bw);
}

std::vector<i64> Torus::coords_of(i64 node) const {
  std::vector<i64> c(dims().size());
  for (size_t d = 0; d < dims().size(); ++d) {
    c[d] = node % dims()[d];
    node /= dims()[d];
  }
  return c;
}

i64 Torus::node_at(const std::vector<i64>& coords) const {
  i64 node = 0;
  for (size_t d = dims().size(); d-- > 0;) node = node * dims()[d] + coords[d];
  return node;
}

i64 Torus::link_id(i64 node, size_t dim, int dir) const {
  return node * links_per_node_ + static_cast<i64>(2 * dim) + (dir > 0 ? 0 : 1);
}

void Torus::route(i64 src, i64 dst, std::vector<i64>& out) const {
  // Dimension-ordered minimal routing with wrap-around.
  std::vector<i64> cur = coords_of(src);
  const std::vector<i64> goal = coords_of(dst);
  for (size_t d = 0; d < dims().size(); ++d) {
    const i64 size = dims()[d];
    i64 fwd = pmod(goal[d] - cur[d], size);
    const i64 bwd = size - fwd;
    const int dir = (fwd != 0 && fwd <= bwd) ? +1 : -1;
    i64 hops = std::min(fwd, bwd);
    while (hops-- > 0) {
      out.push_back(link_id(node_at(cur), d, dir));
      cur[d] = pmod(cur[d] + dir, size);
    }
  }
  assert(cur == goal);
}

// --- MultiGpu ------------------------------------------------------------------

MultiGpu::MultiGpu(i64 nodes, i64 gpus_per_node, double nvlink_bw, double nic_bw)
    : Topology(nodes * gpus_per_node, {nodes, gpus_per_node}),
      gpus_per_node_(gpus_per_node) {
  for (i64 g = 0; g < num_nodes(); ++g) {
    nvlink_out_.push_back(add_link(LinkClass::intra_node, nvlink_bw));
    nic_up_.push_back(add_link(LinkClass::global, nic_bw));
    nic_down_.push_back(add_link(LinkClass::global, nic_bw));
  }
}

void MultiGpu::route(i64 src, i64 dst, std::vector<i64>& out) const {
  if (src == dst) return;
  if (group_of(src) == group_of(dst)) {
    out.push_back(nvlink_out_[static_cast<size_t>(src)]);
    return;
  }
  out.push_back(nic_up_[static_cast<size_t>(src)]);
  out.push_back(nic_down_[static_cast<size_t>(dst)]);
}

}  // namespace bine::net
