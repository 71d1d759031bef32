// Micro-benchmarks of the core primitives: the negabinary conversions,
// partner computations, schedule generation, simulation, and the in-process
// executors.
//
// Plan: a Backend::custom sweep -- series are the primitives, the node axis
// is the argument grid, the metric times one (primitive, arg) cell with a
// fixed budget and reports ns/op. This replaces the google-benchmark
// registration loops (and the optional libbenchmark dependency) with the
// same declarative engine every other bench runs on; timing runs on one
// shard (plan.threads = 1) so cells never contend.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "coll/registry.hpp"
#include "core/butterfly.hpp"
#include "core/negabinary.hpp"
#include "core/nu.hpp"
#include "core/tree.hpp"
#include "exp/sweep.hpp"
#include "net/pair_route_memo.hpp"
#include "net/profiles.hpp"
#include "net/simulate.hpp"
#include "runtime/compiled_executor.hpp"
#include "runtime/executor.hpp"
#include "sched/schedule_cache.hpp"

using namespace bine;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Best-of-3 rounds of a fixed time budget; returns ns per body() call.
double time_ns_per_op(const std::function<void()>& body) {
  const double budget = 0.005;
  double best = std::numeric_limits<double>::infinity();
  for (int round = 0; round < 3; ++round) {
    i64 n = 0;
    const auto t0 = Clock::now();
    while (seconds_since(t0) < budget) {
      body();
      ++n;
    }
    best = std::min(best, seconds_since(t0) / static_cast<double>(n));
  }
  return 1e9 * best;
}

struct Micro {
  const char* name;
  std::vector<i64> args;
  /// Returns the per-op body for one argument (setup hoisted, as the
  /// google-benchmark fixtures did).
  std::function<std::function<void()>(i64)> make;
};

volatile u64 sink;  ///< keeps the measured work observable

std::vector<Micro> micro_benches() {
  std::vector<Micro> list;
  list.push_back({"rank2nb", {64, 4096, i64{1} << 20}, [](i64 p) {
                    return [p, r = i64{1}]() mutable {
                      sink = core::rank2nb(r, p);
                      r = (r + 7) & (p - 1);
                    };
                  }});
  list.push_back({"nb2rank", {64, i64{1} << 20}, [](i64 p) {
                    return [p, nb = u64{1}]() mutable {
                      sink = static_cast<u64>(core::nb2rank(nb, p));
                      nb = (nb + 5) & static_cast<u64>(p - 1);
                    };
                  }});
  list.push_back({"nu_inverse", {4096}, [](i64 p) {
                    return [p, v = u64{1}]() mutable {
                      sink = core::nu_inverse(v, p);
                      v = (v + 3) & static_cast<u64>(p - 1);
                    };
                  }});
  list.push_back({"butterfly_partner", {4096}, [](i64 p) {
                    const int s = log2_exact(p);
                    return [p, s, r = Rank{0}, step = 0]() mutable {
                      sink = static_cast<u64>(core::butterfly_partner(
                          core::ButterflyVariant::bine_dd, r, step, p));
                      r = (r + 1) & (p - 1);
                      step = (step + 1) % s;
                    };
                  }});
  list.push_back({"build_tree", {256, 4096}, [](i64 p) {
                    return [p] { sink = core::build_tree(core::TreeVariant::bine_dh, p, 0).parent.size(); };
                  }});
  list.push_back({"generate_allreduce", {64, 512}, [](i64 p) {
                    coll::Config cfg;
                    cfg.p = p;
                    cfg.elem_count = 1 << 16;
                    const auto& entry =
                        coll::find_algorithm(sched::Collective::allreduce, "bine_send");
                    return [cfg, &entry] { sink = entry.make(cfg).num_steps(); };
                  }});
  list.push_back({"simulate_allreduce", {64, 512}, [](i64 p) {
                    coll::Config cfg;
                    cfg.p = p;
                    cfg.elem_count = 1 << 16;
                    auto sf = std::make_shared<const sched::SizeFreeSchedule>(
                        sched::SizeFreeSchedule::from(
                            coll::find_algorithm(sched::Collective::allreduce, "bine_send")
                                .make(cfg)));
                    const auto profile = net::lumi_profile();
                    auto topo = std::shared_ptr<net::Topology>(profile.build(p));
                    const auto pl = net::Placement::identity(p);
                    // Route cache, schedule compile and route memo are
                    // hoisted, as in the harness hot loop; this times the
                    // production engine itself at one size.
                    auto rc = std::make_shared<net::RouteCache>(*topo, pl);
                    auto memo = std::make_shared<net::PairRouteMemo>();
                    const net::CostParams cost = profile.cost;
                    return [topo, rc, sf, memo, cost, n = cfg.elem_count,
                            elem_size = cfg.elem_size] {
                      sink = static_cast<u64>(
                          net::simulate(*sf, std::span<const i64>(&n, 1), elem_size, *rc,
                                        cost, *memo)
                              .front()
                              .steps);
                    };
                  }});
  list.push_back({"execute_allreduce", {16, 64}, [](i64 p) {
                    coll::Config cfg;
                    cfg.p = p;
                    cfg.elem_count = 4 * p;
                    cfg.elem_size = 8;
                    auto sch = std::make_shared<sched::Schedule>(
                        coll::find_algorithm(sched::Collective::allreduce, "bine_send")
                            .make(cfg));
                    auto inputs = std::make_shared<std::vector<std::vector<u64>>>(
                        static_cast<size_t>(p));
                    for (i64 r = 0; r < p; ++r)
                      (*inputs)[static_cast<size_t>(r)].assign(
                          static_cast<size_t>(cfg.elem_count), static_cast<u64>(r));
                    return [sch, inputs] {
                      sink = static_cast<u64>(
                          runtime::execute_reference<u64>(*sch, runtime::ReduceOp::sum,
                                                          *inputs)
                              .messages);
                    };
                  }});
  list.push_back({"execute_allreduce_compiled", {16, 64}, [](i64 p) {
                    coll::Config cfg;
                    cfg.p = p;
                    cfg.elem_count = 4 * p;
                    cfg.elem_size = 8;
                    const auto sch =
                        coll::find_algorithm(sched::Collective::allreduce, "bine_send")
                            .make(cfg);
                    auto plan = std::make_shared<runtime::ExecPlan>(
                        runtime::ExecPlan::lower(sch));
                    auto inputs = std::make_shared<std::vector<std::vector<u64>>>(
                        static_cast<size_t>(p));
                    for (i64 r = 0; r < p; ++r)
                      (*inputs)[static_cast<size_t>(r)].assign(
                          static_cast<size_t>(cfg.elem_count), static_cast<u64>(r));
                    return [plan, inputs] {
                      sink = static_cast<u64>(
                          runtime::execute<u64>(*plan, runtime::ReduceOp::sum, *inputs)
                              .messages);
                    };
                  }});
  return list;
}

}  // namespace

int main() {
  const std::vector<Micro> micros = micro_benches();

  exp::SweepPlan plan;
  plan.name = "micro_core";
  plan.backend = exp::Backend::custom;
  plan.threads = 1;  // timing: one shard, no contention
  std::vector<i64> args;
  for (const Micro& m : micros) {
    plan.series.push_back(exp::Series::best_of(m.name, {}));
    for (const i64 a : m.args)
      if (std::find(args.begin(), args.end(), a) == args.end()) args.push_back(a);
  }
  std::sort(args.begin(), args.end());
  plan.nodes.counts = args;
  plan.metric = [&](const exp::CellCtx& ctx) {
    const Micro& micro = micros[ctx.series];
    exp::Metrics m;
    if (std::find(micro.args.begin(), micro.args.end(), ctx.nodes) ==
        micro.args.end()) {
      m.skipped = true;  // this primitive has no such argument
      return m;
    }
    m.value = time_ns_per_op(micro.make(ctx.nodes));
    return m;
  };
  const exp::SweepResult result = exp::run(plan);

  std::printf("=== core primitive micro-benchmarks (ns/op, best of 3 rounds) ===\n");
  std::printf("%-28s %12s %14s\n", "primitive", "arg", "ns/op");
  for (const exp::Row& row : result.rows) {
    if (row.m.skipped) continue;
    std::printf("%-28s %12lld %14.1f\n", result.series_labels[row.series].c_str(),
                static_cast<long long>(row.nodes), row.m.value);
  }
  return 0;
}
