// Simulation engine benchmark, in two sections.
//
// Section 1 checks the scalar oracle (net::simulate over a Schedule and a
// prebuilt RouteCache) against the naive reference (virtual route() per
// message, hash-map link accumulators) on every non-specialized allreduce
// schedule at the paper's vector sizes on a Torus(4x4x4): traffic exact,
// seconds within 1e-12. It is a Backend::custom sweep with plan.threads = 1
// and times nothing; a divergence exits 1.
//
// Section 2 times size batching: the production size-free net::simulate
// over one schedule (one structural pass across the whole size axis, routes
// through a warm PairRouteMemo) against the same engine called once per
// size, so the ratio measures batching alone. Output is checked bitwise
// against the scalar oracle over the schedule generated at each size, on the
// torus AND on a 1320-link Dragonfly. Exit code gates bitwise parity and
// >= 2.0x size batching on both topologies. The gate is calibrated for a
// Release build (RelWithDebInfo measures 1.6-1.9x); the bench prints its
// build type and records it, with the hardware thread count, in
// BENCH_sim.json.
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "coll/registry.hpp"
#include "exp/sweep.hpp"
#include "fault/fault.hpp"
#include "net/pair_route_memo.hpp"
#include "net/route_cache.hpp"
#include "net/simulate.hpp"
#include "net/topology.hpp"
#include "sched/schedule_cache.hpp"

using namespace bine;
using Clock = std::chrono::steady_clock;

#ifndef BINE_BUILD_TYPE
#define BINE_BUILD_TYPE "unknown"
#endif
constexpr const char* kGateNote =
    "the >= 2.0x size-batching gate is calibrated for a Release build";

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool bitwise_eq(const net::SimResult& a, const net::SimResult& b) {
  return std::bit_cast<u64>(a.seconds) == std::bit_cast<u64>(b.seconds) &&
         a.traffic.total() == b.traffic.total() &&
         a.traffic.messages == b.traffic.messages;
}

/// Batched-vs-per-size comparison on one topology: every non-specialized
/// allreduce schedule, the paper size axis, the production engine called
/// once per size vs ONE size-batched call through a warm route memo (the
/// production shape: the process memo persists across cells). Output must
/// match the scalar oracle bitwise; rates are per (schedule, size) cell.
struct BatchedReport {
  size_t cells = 0;
  double single_call_rate = 0;  ///< one production call per size, schedules/sec
  double batched_rate = 0;      ///< one production call per size axis, schedules/sec
  double speedup = 0;
  bool bit_identical = true;
  i64 num_links = 0;
};

BatchedReport bench_batched(const net::Topology& topo, const net::CostParams& cp,
                            const std::vector<i64>& sizes, double per_cell_budget) {
  const net::Placement pl = net::Placement::identity(topo.num_nodes());
  const net::RouteCache rc(topo, pl);
  BatchedReport rep;
  rep.num_links = rc.num_links();

  coll::Config cfg;
  cfg.p = topo.num_nodes();
  std::vector<i64> elem_counts(sizes.size());
  for (size_t s = 0; s < sizes.size(); ++s)
    elem_counts[s] = std::max<i64>(cfg.p, sizes[s] / cfg.elem_size);

  double single_total = 0, batched_total = 0;
  net::PairRouteMemo memo;
  for (const auto& entry : coll::algorithms_for(sched::Collective::allreduce)) {
    if (entry.specialized) continue;
    if (entry.pow2_only && !is_pow2(cfg.p)) continue;
    cfg.elem_count = elem_counts.back();
    const sched::SizeFreeSchedule sf = sched::SizeFreeSchedule::from(entry.make(cfg));

    const auto batched_pass = [&] {
      return net::simulate(sf, elem_counts, cfg.elem_size, rc, cp, memo);
    };
    const auto single_call = [&](size_t s) {
      return net::simulate(sf, std::span<const i64>(&elem_counts[s], 1), cfg.elem_size,
                           rc, cp, memo)
          .front();
    };

    // Parity gate, bitwise: timing means nothing if the engines diverge.
    const auto batched = batched_pass();
    for (size_t s = 0; s < elem_counts.size(); ++s) {
      cfg.elem_count = elem_counts[s];
      const net::SimResult oracle = net::simulate(entry.make(cfg), rc, cp);
      if (!bitwise_eq(batched[s], oracle) || !bitwise_eq(single_call(s), oracle)) {
        std::fprintf(stderr, "FAIL: production engine diverges on %s/%s n=%lld\n",
                     topo.name().c_str(), entry.name.c_str(),
                     static_cast<long long>(elem_counts[s]));
        rep.bit_identical = false;
      }
    }

    // Best of three rounds per engine; the budget covers the whole size axis.
    double checksum = 0;
    auto time_engine = [&](auto&& body) {
      double best = std::numeric_limits<double>::infinity();
      for (int round = 0; round < 3; ++round) {
        i64 n = 0;
        const auto t0 = Clock::now();
        while (seconds_since(t0) < per_cell_budget) {
          body();
          ++n;
        }
        best = std::min(best, seconds_since(t0) / static_cast<double>(n));
      }
      return best;
    };
    single_total += time_engine([&] {
      for (size_t s = 0; s < elem_counts.size(); ++s) checksum += single_call(s).seconds;
    });
    batched_total += time_engine([&] { checksum += batched_pass().back().seconds; });
    (void)checksum;
    rep.cells += elem_counts.size();
  }
  rep.single_call_rate = static_cast<double>(rep.cells) / single_total;
  rep.batched_rate = static_cast<double>(rep.cells) / batched_total;
  rep.speedup = rep.batched_rate / rep.single_call_rate;
  return rep;
}

}  // namespace

int main() {
  const unsigned hardware_threads = std::thread::hardware_concurrency();
  std::printf("build: %s, %u hardware threads (%s)\n", BINE_BUILD_TYPE, hardware_threads,
              kGateNote);
  const net::Torus topo({4, 4, 4}, 6.8e9);
  const net::Placement pl = net::Placement::identity(topo.num_nodes());
  net::CostParams cp;
  cp.alpha_local = cp.alpha_global = 1.0e-6;  // torus: no separate global tier

  exp::SweepPlan plan;
  plan.name = "sim_engine";
  plan.backend = exp::Backend::custom;
  plan.threads = 1;
  plan.nodes.counts = {topo.num_nodes()};
  plan.sizes = {32, 256, 2048, 16384, 131072, 1048576, 8388608};
  for (const auto& entry : coll::algorithms_for(sched::Collective::allreduce)) {
    if (entry.specialized) continue;
    if (entry.pow2_only && !is_pow2(topo.num_nodes())) continue;
    plan.series.push_back(exp::Series::best_of(entry.name, {}));
  }
  std::printf("sweep: %zu allreduce schedules on torus 4x4x4 (%lld ranks)\n",
              plan.series.size() * plan.sizes.size(),
              static_cast<long long>(topo.num_nodes()));

  const net::RouteCache rc(topo, pl);
  bool parity_failed = false;

  plan.metric = [&](const exp::CellCtx& ctx) -> exp::Metrics {
    if (parity_failed) return {};  // fail fast: skip the remaining cells
    coll::Config cfg;
    cfg.p = topo.num_nodes();
    cfg.elem_count = std::max<i64>(cfg.p, ctx.size_bytes / cfg.elem_size);
    const std::string& algorithm = ctx.plan->series[ctx.series].label;
    const sched::Schedule sch =
        coll::find_algorithm(sched::Collective::allreduce, algorithm).make(cfg);

    exp::Metrics m;
    m.algorithm = algorithm;
    const net::SimResult ref = net::simulate_reference(sch, topo, pl, cp);
    const net::SimResult fast = net::simulate(sch, rc, cp);
    if (ref.traffic.local_bytes != fast.traffic.local_bytes ||
        ref.traffic.global_bytes != fast.traffic.global_bytes ||
        ref.traffic.intra_node_bytes != fast.traffic.intra_node_bytes ||
        ref.traffic.messages != fast.traffic.messages) {
      std::fprintf(stderr, "FAIL: traffic mismatch on %s\n", algorithm.c_str());
      parity_failed = true;
      return m;
    }
    const double rel = std::abs(fast.seconds - ref.seconds) / std::abs(ref.seconds);
    if (rel > 1e-12) {
      std::fprintf(stderr, "FAIL: seconds diverge on %s (rel err %.3g > 1e-12)\n",
                   algorithm.c_str(), rel);
      parity_failed = true;
      return m;
    }
    m.extra = {rel};
    return m;
  };

  const exp::SweepResult result = exp::run(plan);
  if (parity_failed) return 1;

  double max_rel_err = 0;
  for (const exp::Row& row : result.rows) max_rel_err = std::max(max_rel_err, row.m.extra[0]);
  const size_t cells = result.rows.size();
  std::printf("scalar oracle vs reference: %zu schedules agree (max rel err %.3g)\n", cells,
              max_rel_err);

  // Size batching (the production engine over one schedule, one pass across
  // the whole size axis) vs the same engine called once per size, on the
  // torus and on a dragonfly. 384 ranks, 1320 links; the larger budget keeps
  // several reps inside each round even for the ring schedule at 384 ranks.
  const BatchedReport torus_batched = bench_batched(topo, cp, plan.sizes, 0.01);
  const net::Dragonfly dragonfly(24, 16, 1, 25e9, 25e9);
  const net::CostParams dragonfly_cp;  // default alphas: a real global tier
  const BatchedReport dragonfly_batched =
      bench_batched(dragonfly, dragonfly_cp, plan.sizes, 0.05);
  std::printf("batched (torus, %lld links):     %10.1f schedules/sec  "
              "(%.2fx vs per-size calls, %s)\n",
              static_cast<long long>(torus_batched.num_links),
              torus_batched.batched_rate, torus_batched.speedup,
              torus_batched.bit_identical ? "bit-identical" : "DIVERGED");
  std::printf("batched (dragonfly, %lld links): %10.1f schedules/sec  "
              "(%.2fx vs per-size calls, %s)\n",
              static_cast<long long>(dragonfly_batched.num_links),
              dragonfly_batched.batched_rate, dragonfly_batched.speedup,
              dragonfly_batched.bit_identical ? "bit-identical" : "DIVERGED");
  if (!torus_batched.bit_identical || !dragonfly_batched.bit_identical) return 1;

  const bool batched_gate = torus_batched.speedup >= 2.0 &&
                            dragonfly_batched.speedup >= 2.0;
  if (!batched_gate)
    std::fprintf(stderr, "FAIL: size-batched gate (>= 2.0x vs per-size calls) not "
                         "met: torus %.2fx, dragonfly %.2fx (%s build; %s)\n",
                 torus_batched.speedup, dragonfly_batched.speedup, BINE_BUILD_TYPE,
                 kGateNote);

  if (fault::AtomicFile out("BENCH_sim.json"); std::FILE* f = out.handle()) {
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"sim_engine\",\n"
                 "  \"topology\": \"torus_4x4x4\",\n"
                 "  \"collective\": \"allreduce\",\n"
                 "  \"num_schedules\": %zu,\n"
                 "  \"parity_max_rel_err\": %.3g,\n"
                 "  \"per_size_call_schedules_per_sec\": %.1f,\n"
                 "  \"per_schedule_rate_batched\": %.1f,\n"
                 "  \"batched_speedup\": %.2f,\n"
                 "  \"batched_bit_identical\": %s,\n"
                 "  \"dragonfly_num_links\": %lld,\n"
                 "  \"dragonfly_per_size_call_schedules_per_sec\": %.1f,\n"
                 "  \"dragonfly_per_schedule_rate_batched\": %.1f,\n"
                 "  \"dragonfly_batched_speedup\": %.2f,\n"
                 "  \"dragonfly_batched_bit_identical\": %s,\n"
                 "  \"build_type\": \"%s\",\n"
                 "  \"gate_note\": \"%s\",\n"
                 "  \"hardware_threads\": %u\n"
                 "}\n",
                 cells, max_rel_err, torus_batched.single_call_rate,
                 torus_batched.batched_rate,
                 torus_batched.speedup, torus_batched.bit_identical ? "true" : "false",
                 static_cast<long long>(dragonfly_batched.num_links),
                 dragonfly_batched.single_call_rate, dragonfly_batched.batched_rate,
                 dragonfly_batched.speedup,
                 dragonfly_batched.bit_identical ? "true" : "false", BINE_BUILD_TYPE,
                 kGateNote, hardware_threads);
    if (out.commit()) std::printf("wrote BENCH_sim.json\n");
  }
  return batched_gate ? 0 : 1;
}
