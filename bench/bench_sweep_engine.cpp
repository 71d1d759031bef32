// Sweep-engine benchmark: the sharded-vs-serial payoff of running the paper
// benches through exp::run. Times one table bench plan (Table 3), one
// figure bench plan (Fig. 9a) and a cross-system plan (the boxplot series
// over all three main systems -- the fan-out axis the table/figure benches
// never had before the engine) at 1 worker vs 4 workers, with a prewarm
// pass so the process-wide schedule cache is shared state and the timing
// isolates the sharding axis, exactly as BENCH_tune.json does.
//
// Determinism gate: the sharded rows must be byte-identical to the serial
// rows for every plan. Emits BENCH_sweep.json with hardware_threads
// recorded. The shard unit is a whole cell and one cell is each plan's
// critical path, so even 4 hardware threads give these plans 0.79-1.09x,
// not a multiple.
#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "coll/registry.hpp"
#include "exp/paper_plans.hpp"
#include "fault/fault.hpp"
#include "net/profiles.hpp"

using namespace bine;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool identical(const exp::SweepResult& a, const exp::SweepResult& b) {
  if (a.rows.size() != b.rows.size()) return false;
  for (size_t i = 0; i < a.rows.size(); ++i) {
    const exp::Metrics& x = a.rows[i].m;
    const exp::Metrics& y = b.rows[i].m;
    if (x.algorithm != y.algorithm || x.seconds != y.seconds ||
        x.global_bytes != y.global_bytes || x.total_bytes != y.total_bytes ||
        x.messages != y.messages || x.steps != y.steps)
      return false;
  }
  return a.to_json() == b.to_json();
}

/// The cross-system fan-out plan: every main system's bine-vs-sota series in
/// ONE sweep, cells of different systems running concurrently.
exp::SweepPlan cross_system_plan() {
  exp::SweepPlan plan;
  plan.name = "cross_system_boxplots";
  for (const auto& profile : net::main_profiles())
    plan.systems.push_back(exp::SystemSpec{profile});
  plan.colls = {sched::Collective::allreduce, sched::Collective::allgather,
                sched::Collective::bcast};
  plan.series = {exp::Series::best_bine(false), exp::Series::best_sota()};
  plan.nodes.counts = {16, 64};
  plan.sizes = harness::paper_vector_sizes(false);
  return plan;
}

struct PlanTiming {
  std::string name;
  size_t cells = 0;
  size_t rows = 0;
  double serial_ms = 0;
  double sharded_ms = 0;
  bool sharded_equals_serial = false;
  [[nodiscard]] double speedup() const { return serial_ms / sharded_ms; }
};

PlanTiming time_plan(exp::SweepPlan plan) {
  PlanTiming t;
  t.name = plan.name;
  t.cells = exp::enumerate_cells(plan).size();

  // Prewarm: populate the shared schedule cache so the timed rounds isolate
  // the sharding axis, not cold-cache generation.
  plan.threads = 1;
  const exp::SweepResult serial = exp::run(plan);
  t.rows = serial.rows.size();

  const auto time_mode = [&](i64 threads) {
    plan.threads = threads;
    double best = std::numeric_limits<double>::infinity();
    for (int round = 0; round < 3; ++round) {
      const auto t0 = Clock::now();
      const exp::SweepResult r = exp::run(plan);
      best = std::min(best, seconds_since(t0));
      if (r.rows.size() != t.rows) std::abort();
    }
    return 1e3 * best;
  };
  t.serial_ms = time_mode(1);
  t.sharded_ms = time_mode(4);

  plan.threads = 4;
  t.sharded_equals_serial = identical(serial, exp::run(plan));
  return t;
}

}  // namespace

int main() {
  std::vector<PlanTiming> timings;
  timings.push_back(time_plan(exp::paper::binomial_table(
      net::lumi_profile(), {16, 64, 256, 1024}, harness::paper_vector_sizes(false))));
  timings.push_back(time_plan(exp::paper::sota_heatmap(
      net::lumi_profile(), sched::Collective::allreduce,
      {16, 32, 64, 128, 256, 512, 1024}, harness::paper_vector_sizes(false))));
  timings.push_back(time_plan(cross_system_plan()));

  const unsigned cores = std::thread::hardware_concurrency();
  bool all_equal = true;
  for (const PlanTiming& t : timings) {
    all_equal &= t.sharded_equals_serial;
    std::printf("%-28s %4zu cells %5zu rows   serial %8.2f ms   sharded(4) %8.2f ms"
                "   %.2fx   (%s)\n",
                t.name.c_str(), t.cells, t.rows, t.serial_ms, t.sharded_ms, t.speedup(),
                t.sharded_equals_serial ? "bit-exact" : "DIVERGED");
  }
  std::printf("(%u hardware threads; the sharded speedup is only meaningful on "
              "multi-core runners)\n",
              cores);

  if (fault::AtomicFile out("BENCH_sweep.json"); std::FILE* f = out.handle()) {
    std::string plans_json;
    for (size_t i = 0; i < timings.size(); ++i) {
      const PlanTiming& t = timings[i];
      char buf[320];
      std::snprintf(buf, sizeof(buf),
                    "%s    {\"plan\": \"%s\", \"cells\": %zu, \"rows\": %zu, "
                    "\"serial_ms\": %.3f, \"sharded_ms\": %.3f, \"speedup\": %.2f, "
                    "\"sharded_equals_serial\": %s}",
                    i ? ",\n" : "", t.name.c_str(), t.cells, t.rows, t.serial_ms,
                    t.sharded_ms, t.speedup(),
                    t.sharded_equals_serial ? "true" : "false");
      plans_json += buf;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"sweep_engine\",\n"
                 "  \"sharded_threads\": 4,\n"
                 "  \"plans\": [\n%s\n  ],\n"
                 "  \"hardware_threads\": %u\n"
                 "}\n",
                 plans_json.c_str(), cores);
    if (out.commit()) std::printf("wrote BENCH_sweep.json\n");
  }
  return all_equal ? 0 : 1;
}
