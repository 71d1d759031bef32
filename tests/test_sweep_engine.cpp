// Sweep-engine tests: golden parity between the declarative plans the ported
// bench drivers run and direct per-cell references (an argmin over
// Runner::run in each series' own order, select()+run dispatch), asserted
// bit-identically across shard widths {1, 4} from a cold schedule cache; the
// planner's cell dedup; canonical row ordering and JSON stability; the
// custom-backend placeholder axes; NodeAxis per-collective extension; and
// the verified-execution backend's digest parity with Runner::run_verified
// across element types, reduce ops and shard widths.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "coll/registry.hpp"
#include "exp/paper_plans.hpp"
#include "exp/report.hpp"
#include "exp/sweep.hpp"
#include "harness/runner.hpp"
#include "net/profiles.hpp"
#include "sched/schedule_cache.hpp"
#include "tune/tuner.hpp"
#include "argmin_oracle.hpp"

using namespace bine;
using sched::Collective;
using test_util::argmin_run;

namespace {

// Small grid shared by the golden tests: fast, but still spanning two node
// counts (one non-pow2 would reject some candidates -- covered separately),
// two sizes and several collectives.
const std::vector<i64> kNodes = {8, 16};
const std::vector<i64> kSizes = {256, 16384};
const std::vector<Collective> kColls = {Collective::allreduce, Collective::bcast,
                                        Collective::allgather};

void expect_metrics_eq(const exp::Metrics& m, const std::string& name,
                       const harness::RunResult& r) {
  EXPECT_EQ(m.algorithm, name);
  EXPECT_EQ(m.seconds, r.seconds);  // bitwise
  EXPECT_EQ(m.global_bytes, r.global_bytes);
  EXPECT_EQ(m.total_bytes, r.total_bytes);
  EXPECT_EQ(m.messages, r.messages);
  EXPECT_EQ(m.steps, r.steps);
}

}  // namespace

// The binomial table (paired bine/binomial series) vs a direct argmin over
// Runner::run per cell: bit-identical metrics for every cell, across shard
// widths, each sweep starting from a cold schedule cache.
TEST(SweepEngine, GoldenParityBinomialTable) {
  harness::Runner runner(net::lumi_profile());
  for (const i64 threads : {i64{1}, i64{4}}) {
    exp::SweepPlan plan = exp::paper::binomial_table(net::lumi_profile(), kNodes, kSizes);
    plan.threads = threads;
    sched::process_schedule_cache().clear();
    const exp::SweepResult result = exp::run(plan);
    ASSERT_EQ(result.colls.size(), coll::all_collectives().size());
    for (size_t ci = 0; ci < result.colls.size(); ++ci) {
      const Collective coll = result.colls[ci];
      for (size_t ni = 0; ni < kNodes.size(); ++ni)
        for (size_t si = 0; si < kSizes.size(); ++si) {
          const auto bine = argmin_run(runner, coll, runner.bine_names(coll, true),
                                       kNodes[ni], kSizes[si]);
          const auto binomial = argmin_run(runner, coll, runner.binomial_names(coll),
                                           kNodes[ni], kSizes[si]);
          expect_metrics_eq(result.at(0, ci, ni, si, 0), bine.first, bine.second);
          expect_metrics_eq(result.at(0, ci, ni, si, 1), binomial.first,
                            binomial.second);
        }
    }
  }
}

// The heatmap/boxplot series (bine vs sota) vs a direct argmin per cell.
TEST(SweepEngine, GoldenParitySotaSeries) {
  exp::SweepPlan plan =
      exp::paper::sota_boxplots(net::lumi_profile(), kNodes, kSizes, kColls);
  const exp::SweepResult result = exp::run(plan);

  harness::Runner runner(net::lumi_profile());
  for (size_t ci = 0; ci < kColls.size(); ++ci)
    for (size_t ni = 0; ni < kNodes.size(); ++ni)
      for (size_t si = 0; si < kSizes.size(); ++si) {
        const Collective coll = kColls[ci];
        const auto bine = argmin_run(runner, coll, runner.bine_names(coll, false),
                                     kNodes[ni], kSizes[si]);
        const auto sota = argmin_run(runner, coll, runner.sota_names(coll), kNodes[ni],
                                     kSizes[si]);
        expect_metrics_eq(result.at(0, ci, ni, si, 0), bine.first, bine.second);
        expect_metrics_eq(result.at(0, ci, ni, si, 1), sota.first, sota.second);
      }
}

// Explicit-list series (the fig11b/fig14/sec6 shape: singles + best-of) vs
// direct Runner::run calls and an argmin over them, including the pow2 skip.
TEST(SweepEngine, GoldenParityExplicitSeries) {
  exp::SweepPlan plan;
  plan.name = "golden_explicit";
  plan.systems = {exp::SystemSpec{net::mn5_profile()}};
  plan.colls = {Collective::allgather};
  plan.series = {exp::Series::single("ring"),
                 exp::Series::single("bine_permute"),  // pow2-only
                 exp::Series::best_of("flat", {"recursive_doubling", "ring"})};
  plan.nodes.counts = {12, 16};  // 12: non-pow2, bine_permute must skip
  plan.sizes = kSizes;
  const exp::SweepResult result = exp::run(plan);

  harness::Runner runner(net::mn5_profile());
  for (size_t ni = 0; ni < plan.nodes.counts.size(); ++ni) {
    const i64 p = plan.nodes.counts[ni];
    for (size_t si = 0; si < kSizes.size(); ++si) {
      const i64 size = kSizes[si];
      expect_metrics_eq(
          result.at(0, 0, ni, si, 0), "ring",
          runner.run(Collective::allgather,
                     coll::find_algorithm(Collective::allgather, "ring"), p, size));
      if (is_pow2(p)) {
        EXPECT_FALSE(result.at(0, 0, ni, si, 1).skipped);
      } else {
        EXPECT_TRUE(result.at(0, 0, ni, si, 1).skipped);
      }
      const auto best =
          argmin_run(runner, Collective::allgather, {"recursive_doubling", "ring"}, p, size);
      expect_metrics_eq(result.at(0, 0, ni, si, 2), best.first, best.second);
    }
  }
}

// Tuned-dispatch backend vs by-hand select() + Runner::run.
TEST(SweepEngine, GoldenParityTunedDispatch) {
  tune::TunerOptions opts;
  opts.size_grid = {256, 65536};
  const tune::DecisionTable table =
      tune::Tuner(opts).build({net::lumi_profile()}, {Collective::allreduce}, kNodes);

  exp::SweepPlan plan;
  plan.name = "golden_tuned";
  plan.systems = {exp::SystemSpec{net::lumi_profile()}};
  plan.colls = {Collective::allreduce};
  plan.series = {exp::Series::tuned()};
  plan.nodes.counts = kNodes;
  plan.sizes = {256, 1024, 65536};
  plan.backend = exp::Backend::tuned_dispatch;
  plan.table = &table;
  const exp::SweepResult result = exp::run(plan);

  harness::Runner runner(net::lumi_profile());
  for (size_t ni = 0; ni < kNodes.size(); ++ni)
    for (size_t si = 0; si < plan.sizes.size(); ++si) {
      const tune::Selection sel = tune::select(table, net::lumi_profile(),
                                               Collective::allreduce, kNodes[ni],
                                               plan.sizes[si]);
      const exp::Metrics& m = result.at(0, 0, ni, si, 0);
      EXPECT_TRUE(m.from_table);
      expect_metrics_eq(m, sel.entry->name,
                        runner.run(Collective::allreduce, *sel.entry, kNodes[ni],
                                   plan.sizes[si]));
    }
}

// Verified-execution backend vs Runner::run_verified -- digests included --
// for every element type x {sum, min, max}, bit-identical across shard
// widths {1, 4}. ring and recursive_doubling
// compute the same allreduce, so each (p, size) has one digest per
// (elem, op).
TEST(SweepEngine, GoldenParityExecuteVerified) {
  const std::vector<i64> nodes = {8, 16};  // two cells, so shard width 4 fans out
  const std::vector<i64> sizes = {1024, 8192};
  harness::Runner runner(net::lumi_profile());
  std::vector<std::set<u64>> digests(nodes.size() * sizes.size());
  for (const runtime::ElemType elem :
       {runtime::ElemType::u32, runtime::ElemType::u64, runtime::ElemType::f32,
        runtime::ElemType::f64})
    for (const runtime::ReduceOp op :
         {runtime::ReduceOp::sum, runtime::ReduceOp::min, runtime::ReduceOp::max}) {
      std::optional<exp::SweepResult> first;
      for (const i64 threads : {i64{1}, i64{4}}) {
        SCOPED_TRACE(std::string(runtime::to_string(elem)) + "/" +
                     runtime::to_string(op) + " threads=" + std::to_string(threads));
        exp::SweepPlan plan;
        plan.name = "golden_verified";
        plan.systems = {exp::SystemSpec{net::lumi_profile()}};
        plan.colls = {Collective::allreduce};
        plan.series = {exp::Series::single("recursive_doubling"),
                       exp::Series::single("ring")};
        plan.nodes.counts = nodes;
        plan.sizes = sizes;
        plan.backend = exp::Backend::execute_verified;
        plan.elem = elem;
        plan.op = op;
        plan.threads = threads;
        exp::SweepResult result = exp::run(plan);
        for (size_t ni = 0; ni < nodes.size(); ++ni)
          for (size_t k = 0; k < plan.series.size(); ++k)
            for (size_t si = 0; si < sizes.size(); ++si) {
              const exp::Metrics& m = result.at(0, 0, ni, si, k);
              EXPECT_TRUE(m.ok) << m.error;
              EXPECT_NE(m.digest, 0u);
              if (first) {
                const exp::Metrics& f = first->at(0, 0, ni, si, k);
                EXPECT_EQ(m.digest, f.digest);
                EXPECT_EQ(m.messages, f.messages);
                EXPECT_EQ(m.wire_bytes, f.wire_bytes);
                continue;
              }
              const harness::VerifiedRun v = runner.run_verified(
                  Collective::allreduce,
                  coll::find_algorithm(Collective::allreduce,
                                       plan.series[k].algorithms[0]),
                  nodes[ni], sizes[si], /*threads=*/0, elem, op);
              EXPECT_EQ(m.ok, v.ok);
              EXPECT_EQ(m.digest, v.digest);
              EXPECT_EQ(m.messages, v.messages);
              EXPECT_EQ(m.wire_bytes, v.wire_bytes);
              digests[ni * sizes.size() + si].insert(m.digest);
            }
        if (!first) first = std::move(result);
      }
    }
  for (const std::set<u64>& per_cell : digests) EXPECT_EQ(per_cell.size(), 12u);
}

// Rows -- and the serialized JSON -- are byte-identical for any shard width,
// each sweep starting from a cold schedule cache.
TEST(SweepEngine, ShardInvariance) {
  std::string reference;
  for (const i64 threads : {i64{1}, i64{4}}) {
    exp::SweepPlan plan =
        exp::paper::sota_boxplots(net::lumi_profile(), kNodes, kSizes, kColls);
    plan.threads = threads;
    sched::process_schedule_cache().clear();
    const std::string json = exp::run(plan).to_json();
    if (reference.empty()) reference = json;
    EXPECT_EQ(json, reference) << "threads=" << threads;
  }
}

// Duplicate (system, coll, p) coordinates dedup to one work item but still
// produce one row block per occurrence, identical in content.
TEST(SweepEngine, PlannerDedupsCells) {
  exp::SweepPlan plan;
  plan.name = "dedup";
  plan.systems = {exp::SystemSpec{net::lumi_profile()}};
  plan.colls = {Collective::allreduce};
  plan.series = {exp::Series::best_bine(false)};
  plan.nodes.counts = {16, 16};  // duplicate on purpose
  plan.sizes = kSizes;
  EXPECT_EQ(exp::enumerate_cells(plan).size(), 1u);
  const exp::SweepResult result = exp::run(plan);
  ASSERT_EQ(result.rows.size(), 2 * kSizes.size());
  for (size_t si = 0; si < kSizes.size(); ++si) {
    const exp::Metrics& a = result.at(0, 0, 0, si, 0);
    const exp::Metrics& b = result.at(0, 0, 1, si, 0);
    EXPECT_EQ(a.algorithm, b.algorithm);
    EXPECT_EQ(a.seconds, b.seconds);
  }
}

// NodeAxis::extra_counts extends only the named collectives (the Leonardo
// methodology), and the canonical row order reflects it.
TEST(SweepEngine, NodeAxisExtension) {
  exp::SweepPlan plan = exp::paper::binomial_table(net::lumi_profile(), {8}, {256},
                                                   /*large:*/ {16});
  const exp::SweepResult result = exp::run(plan);
  for (size_t ci = 0; ci < result.colls.size(); ++ci) {
    const Collective coll = result.colls[ci];
    const bool extended =
        coll == Collective::allreduce || coll == Collective::allgather;
    EXPECT_EQ(result.coll_nodes[ci].size(), extended ? 2u : 1u) << to_string(coll);
  }
  const std::vector<exp::CellRef> cells = exp::enumerate_cells(plan);
  EXPECT_EQ(cells.size(), coll::all_collectives().size() + 2);
}

// Custom backend: empty axes collapse to placeholders, the metric sees the
// plan coordinates, Runner* is null without systems.
TEST(SweepEngine, CustomBackendPlaceholders) {
  exp::SweepPlan plan;
  plan.name = "custom";
  plan.backend = exp::Backend::custom;
  plan.sizes = {3, 5};
  plan.metric = [](const exp::CellCtx& ctx) {
    EXPECT_EQ(ctx.runner, nullptr);
    exp::Metrics m;
    m.value = static_cast<double>(ctx.size_bytes * 2);
    return m;
  };
  const exp::SweepResult result = exp::run(plan);
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.at(0, 0, 0, 0, 0).value, 6.0);
  EXPECT_EQ(result.at(0, 0, 0, 1, 0).value, 10.0);
  EXPECT_TRUE(result.colls.empty());
}

// Malformed plans are rejected up front, not discovered mid-sweep.
TEST(SweepEngine, ValidatesPlans) {
  exp::SweepPlan plan;
  plan.name = "bad";
  EXPECT_THROW((void)exp::run(plan), std::invalid_argument);  // empty axes

  plan.systems = {exp::SystemSpec{net::lumi_profile()}};
  plan.colls = {Collective::allreduce};
  plan.series = {exp::Series::tuned()};
  plan.nodes.counts = {16};
  plan.sizes = {256};
  EXPECT_THROW((void)exp::run(plan), std::invalid_argument);  // tuned w/o backend

  plan.series = {exp::Series::best_of("empty", {})};
  EXPECT_THROW((void)exp::run(plan), std::invalid_argument);  // no candidates
}

// The formatters only read the result table; a smoke check that they accept
// engine output (stdout content is covered by the bench golden runs).
TEST(SweepEngine, FormattersAcceptResults) {
  const exp::SweepResult table =
      exp::run(exp::paper::binomial_table(net::lumi_profile(), {8}, {256}));
  exp::print_binomial_table(table);
  const exp::SweepResult heat = exp::run(exp::paper::sota_heatmap(
      net::lumi_profile(), Collective::allreduce, {8, 16}, {256}));
  exp::print_sota_heatmap(heat);
  exp::print_sota_boxplots(
      exp::run(exp::paper::sota_boxplots(net::lumi_profile(), {8}, {256}, kColls)));
}
