#include "net/profiles.hpp"

#include <stdexcept>

namespace bine::net {

namespace {
constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;

/// Production machines are much larger than the jobs we simulate; a job is
/// scattered across the whole machine by the scheduler (paper: 16-1024 node
/// jobs spanned 1-21 groups on LUMI). Build at least the production group
/// count, growing only when a job would not fit.
i64 groups_for(i64 nodes, i64 per_group, i64 production_groups) {
  return std::max(production_groups, ceil_div(nodes, per_group));
}
}  // namespace

SystemProfile lumi_profile() {
  SystemProfile p;
  p.name = "lumi";
  p.description = "Dragonfly (Slingshot 11), 124 nodes/group, 25 GB/s NIC, "
                  "2x25 GB/s global links per group pair";
  p.cost = CostParams{};
  p.cost.alpha_local = 1.8e-6;
  p.cost.alpha_global = 4.0e-6;
  p.build = [](i64 nodes) {
    const i64 per_group = 124;
    return std::make_unique<Dragonfly>(groups_for(nodes, per_group, 24), per_group,
                                       /*links_per_pair=*/2, 25 * kGiB, 25 * kGiB,
                                       "dragonfly");
  };
  return p;
}

SystemProfile leonardo_profile() {
  SystemProfile p;
  p.name = "leonardo";
  p.description = "Dragonfly+ (InfiniBand HDR), 180 nodes/group, 2x25 GB/s NIC, "
                  "4x25 GB/s global links per group pair";
  p.cost = CostParams{};
  p.cost.alpha_local = 1.5e-6;
  p.cost.alpha_global = 3.5e-6;
  p.build = [](i64 nodes) {
    const i64 per_group = 180;
    return std::make_unique<Dragonfly>(groups_for(nodes, per_group, 23), per_group,
                                       /*links_per_pair=*/4, 25 * kGiB, 25 * kGiB,
                                       "dragonfly_plus");
  };
  return p;
}

SystemProfile mn5_profile() {
  SystemProfile p;
  p.name = "mn5";
  p.description = "2:1 oversubscribed fat tree (InfiniBand NDR200), "
                  "160-node subtrees, 25 GB/s links";
  p.cost = CostParams{};
  p.cost.alpha_local = 1.5e-6;
  p.cost.alpha_global = 3.0e-6;
  p.build = [](i64 nodes) {
    // Jobs up to 64 nodes spanned as many as 8 subtrees on the real system,
    // so give the scheduler a wide machine to scatter over.
    const i64 per_leaf = 160;
    return std::make_unique<FatTree>(groups_for(nodes, per_leaf, 8), per_leaf,
                                     /*oversub=*/2, 25 * kGiB);
  };
  return p;
}

SystemProfile fugaku_profile(std::vector<i64> dims) {
  SystemProfile p;
  p.name = "fugaku";
  p.dims = dims;
  std::string d;
  for (size_t i = 0; i < dims.size(); ++i) {
    if (i) d += 'x';
    d += std::to_string(dims[i]);
  }
  p.description = "Tofu-D torus " + d + ", 6.8 GB/s per directed link, one NIC "
                  "per direction";
  p.cost = CostParams{};
  p.cost.alpha_local = 1.0e-6;
  p.cost.alpha_global = 1.0e-6;  // no separate global tier on a torus
  p.build = [dims](i64 nodes) {
    i64 capacity = 1;
    for (const i64 x : dims) capacity *= x;
    assert(capacity >= nodes && "requested sub-torus smaller than the job");
    (void)nodes;
    return std::make_unique<Torus>(dims, 6.8e9);
  };
  return p;
}

SystemProfile multigpu_profile() {
  SystemProfile p;
  p.name = "multigpu";
  p.description = "4 GPUs/node, 150 GB/s all-to-all NVLink intra-node, "
                  "25 GB/s NIC per GPU inter-node";
  p.cost = CostParams{};
  p.cost.alpha_local = 5.0e-6;  // GPU launch overheads dominate small messages
  p.cost.alpha_global = 7.0e-6;
  p.cost.reduce_bandwidth = 300e9;  // on-GPU reductions are fast
  p.cost.mem_bandwidth = 900e9;
  p.build = [](i64 gpus) {
    const i64 per_node = 4;
    return std::make_unique<MultiGpu>(ceil_div(gpus, per_node), per_node, 150 * kGiB,
                                      25 * kGiB);
  };
  return p;
}

std::vector<SystemProfile> main_profiles() {
  return {lumi_profile(), leonardo_profile(), mn5_profile()};
}

SystemProfile profile_by_name(std::string_view name,
                              const std::vector<i64>& fugaku_dims) {
  if (name == "fugaku") {
    if (fugaku_dims.empty())
      throw std::invalid_argument("net: profile \"fugaku\" requires sub-torus dims");
    for (const i64 d : fugaku_dims)
      if (d < 1)
        throw std::invalid_argument("net: fugaku sub-torus dims must be >= 1");
    return fugaku_profile(fugaku_dims);
  }
  if (!fugaku_dims.empty())
    throw std::invalid_argument("net: only \"fugaku\" takes sub-torus dims, not \"" +
                                std::string(name) + "\"");
  if (name == "lumi") return lumi_profile();
  if (name == "leonardo") return leonardo_profile();
  if (name == "mn5") return mn5_profile();
  if (name == "multigpu") return multigpu_profile();
  throw std::invalid_argument("net: unknown profile name \"" + std::string(name) +
                              "\"");
}

}  // namespace bine::net
