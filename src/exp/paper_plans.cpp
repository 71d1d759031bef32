#include "exp/paper_plans.hpp"

#include "coll/registry.hpp"

namespace bine::exp::paper {

SweepPlan binomial_table(net::SystemProfile profile, std::vector<i64> node_counts,
                         std::vector<i64> sizes,
                         std::vector<i64> large_counts_allreduce_ag) {
  SweepPlan plan;
  plan.name = "binomial_table_" + profile.name;
  plan.systems = {SystemSpec{std::move(profile)}};
  plan.colls = coll::all_collectives();
  plan.series = {Series::best_bine(/*contiguous_only=*/true), Series::binomial_baseline()};
  plan.nodes.counts = std::move(node_counts);
  plan.nodes.extra_counts = std::move(large_counts_allreduce_ag);
  plan.nodes.extra_colls = {Collective::allreduce, Collective::allgather};
  plan.sizes = std::move(sizes);
  plan.backend = Backend::simulate;
  return plan;
}

SweepPlan sota_heatmap(net::SystemProfile profile, Collective coll,
                       std::vector<i64> node_counts, std::vector<i64> sizes) {
  SweepPlan plan;
  plan.name = "sota_heatmap_" + std::string(to_string(coll)) + "_" + profile.name;
  plan.systems = {SystemSpec{std::move(profile)}};
  plan.colls = {coll};
  plan.series = {Series::best_bine(/*contiguous_only=*/false), Series::best_sota()};
  plan.nodes.counts = std::move(node_counts);
  plan.sizes = std::move(sizes);
  plan.backend = Backend::simulate;
  return plan;
}

SweepPlan sota_boxplots(net::SystemProfile profile, std::vector<i64> node_counts,
                        std::vector<i64> sizes, std::vector<Collective> colls) {
  SweepPlan plan;
  plan.name = "sota_boxplots_" + profile.name;
  plan.systems = {SystemSpec{std::move(profile)}};
  plan.colls = std::move(colls);
  plan.series = {Series::best_bine(/*contiguous_only=*/false), Series::best_sota()};
  plan.nodes.counts = std::move(node_counts);
  plan.sizes = std::move(sizes);
  plan.backend = Backend::simulate;
  return plan;
}

}  // namespace bine::exp::paper
