#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/types.hpp"

/// Link-level network models for the four system classes of the paper's
/// evaluation (Table 2): oversubscribed fat tree, Dragonfly, Dragonfly+,
/// and N-dimensional torus, plus a multi-GPU node fabric (Sec. 6.2).
///
/// Links are *directed* (full duplex cables become two links); every link has
/// a class used for the paper's headline metric (bytes over global links) and
/// a bandwidth used by the cost model. Routing is minimal, as assumed in
/// Sec. 5.1.1.
namespace bine::net {

enum class LinkClass {
  local,       ///< intra-group / intra-subtree / torus mesh links
  global,      ///< inter-group, uplink, or otherwise oversubscribed links
  intra_node,  ///< GPU-to-GPU links inside one node
};

struct Link {
  LinkClass cls = LinkClass::local;
  double bandwidth = 0;  ///< bytes per second
};

/// A network topology over `num_nodes` endpoints.
class Topology {
 public:
  virtual ~Topology() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] i64 num_nodes() const { return num_nodes_; }
  [[nodiscard]] const std::vector<Link>& links() const { return links_; }
  /// The constructor's shape parameters (see each family). With name() and
  /// the link columns they determine every route, so two topologies that
  /// agree on all three route every node pair identically.
  [[nodiscard]] const std::vector<i64>& shape() const { return shape_; }

  /// Append the link ids of the minimal route from node `src` to node `dst`
  /// (empty when src == dst).
  virtual void route(i64 src, i64 dst, std::vector<i64>& out) const = 0;

  /// Group/locality domain of a node: ranks in different groups communicate
  /// over global links. Used for the inter-group traffic metric and Fig. 5.
  [[nodiscard]] virtual i64 group_of(i64 node) const = 0;

 protected:
  Topology(i64 nodes, std::vector<i64> shape)
      : num_nodes_(nodes), shape_(std::move(shape)) {}
  i64 add_link(LinkClass cls, double bandwidth) {
    links_.push_back(Link{cls, bandwidth});
    return static_cast<i64>(links_.size()) - 1;
  }

 private:
  i64 num_nodes_ = 0;
  std::vector<i64> shape_;
  std::vector<Link> links_;
};

/// Two-level fat tree with `nodes_per_leaf` nodes under each leaf switch and
/// an `oversub`:1 taper: each leaf has nodes_per_leaf/oversub uplinks into a
/// non-blocking core (MareNostrum 5 style, Fig. 1's 2:1 example).
/// Shape: {num_leaves, nodes_per_leaf, oversub}.
class FatTree final : public Topology {
 public:
  FatTree(i64 num_leaves, i64 nodes_per_leaf, i64 oversub, double link_bw);
  [[nodiscard]] std::string name() const override { return "fat_tree"; }
  void route(i64 src, i64 dst, std::vector<i64>& out) const override;
  [[nodiscard]] i64 group_of(i64 node) const override { return node / nodes_per_leaf_; }

 private:
  i64 nodes_per_leaf_, uplinks_per_leaf_;
  std::vector<i64> access_up_, access_down_;  // node <-> leaf switch
  std::vector<std::vector<i64>> up_, down_;   // [leaf][k] uplink / downlink ids
};

/// Dragonfly: fully connected groups of `nodes_per_group`, every pair of
/// groups joined by `links_per_pair` parallel global links (LUMI style).
/// Dragonfly+ (Leonardo) uses the same inter-group structure with a fat-tree
/// group fabric; we model the group fabric as non-blocking in both cases and
/// differentiate via parameters (see DESIGN.md substitutions).
/// Shape: {num_groups, nodes_per_group, links_per_pair}.
class Dragonfly final : public Topology {
 public:
  Dragonfly(i64 num_groups, i64 nodes_per_group, i64 links_per_pair, double local_bw,
            double global_bw, std::string flavour = "dragonfly");
  [[nodiscard]] std::string name() const override { return flavour_; }
  void route(i64 src, i64 dst, std::vector<i64>& out) const override;
  [[nodiscard]] i64 group_of(i64 node) const override { return node / nodes_per_group_; }

 private:
  [[nodiscard]] i64 bundle_of(i64 ga, i64 gb) const;
  i64 num_groups_, nodes_per_group_, links_per_pair_;
  std::string flavour_;
  std::vector<i64> inject_, eject_;             // per-node access links (local)
  std::vector<std::vector<i64>> global_;        // [unordered group pair][k] directed pairs
};

/// N-dimensional torus with one directed link per node per direction
/// (Fugaku style; each direction maps to its own NIC, Appendix D.4).
/// Dimension-ordered minimal routing. Shape: the dims.
class Torus final : public Topology {
 public:
  Torus(std::vector<i64> dims, double link_bw);
  [[nodiscard]] std::string name() const override { return "torus"; }
  void route(i64 src, i64 dst, std::vector<i64>& out) const override;
  /// Torus has no oversubscribed "global" tier; every link is a mesh link
  /// (the paper: "on a torus, all links can be considered oversubscribed").
  [[nodiscard]] i64 group_of(i64 node) const override { return node; }

  [[nodiscard]] const std::vector<i64>& dims() const { return shape(); }
  [[nodiscard]] std::vector<i64> coords_of(i64 node) const;
  [[nodiscard]] i64 node_at(const std::vector<i64>& coords) const;

 private:
  [[nodiscard]] i64 link_id(i64 node, size_t dim, int dir) const;
  i64 links_per_node_ = 0;
};

/// Multi-GPU fabric: `gpus_per_node` all-to-all connected GPUs per node
/// (NVLink-like), nodes joined through per-GPU NICs into a non-blocking
/// inter-node network with per-pair shared capacity (Sec. 6.2).
/// Shape: {num_nodes, gpus_per_node}.
class MultiGpu final : public Topology {
 public:
  MultiGpu(i64 num_nodes, i64 gpus_per_node, double nvlink_bw, double nic_bw);
  [[nodiscard]] std::string name() const override { return "multigpu"; }
  void route(i64 src, i64 dst, std::vector<i64>& out) const override;
  [[nodiscard]] i64 group_of(i64 gpu) const override { return gpu / gpus_per_node_; }

 private:
  i64 gpus_per_node_;
  std::vector<i64> nvlink_out_, nic_up_, nic_down_;  // per-GPU
};

}  // namespace bine::net
