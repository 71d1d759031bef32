// Tuned-dispatch quickstart: build a decision table for two systems, persist
// it, reload it, and dispatch allreduce through tune::select + Runner::run.
//
//   build/tuned_allreduce
//
// The flow mirrors a production deployment: an offline tuning run produces a
// versioned *.tune.json artifact; services load it at startup and every
// (collective, nodes, bytes) query resolves to the winning algorithm in
// O(log intervals), falling back to the paper's heuristic rules for cells
// the table never tuned.
#include <cstdio>
#include <vector>

#include "harness/runner.hpp"
#include "net/profiles.hpp"
#include "tune/decision_table.hpp"
#include "tune/tuner.hpp"

using namespace bine;
using sched::Collective;

int main() {
  // 1. Tune: rank every registry candidate per (system, collective, p) cell
  // across a size grid, sharded over the available cores.
  tune::TunerOptions opts;
  opts.size_grid = {256, 4096, 65536, 1048576, 16777216};
  opts.refine_top_k = 2;  // gate the top simulated candidates through
                          // verified execution (compiled executor + verify)
  const std::vector<net::SystemProfile> profiles = {net::lumi_profile(),
                                                    net::fugaku_profile({4, 4, 4})};
  const tune::DecisionTable built = tune::Tuner(opts).build(
      profiles, {Collective::allreduce}, {16, 32, 64});

  // 2. Persist + reload the artifact (versioned, fingerprinted JSON).
  built.save("allreduce.tune.json");
  const tune::DecisionTable table = tune::DecisionTable::load("allreduce.tune.json");
  std::printf("tuned %zu cells for %zu profiles -> allreduce.tune.json\n\n",
              table.cells().size(), table.profiles().size());

  // 3. Dispatch: table hits in O(log intervals), heuristic default on miss.
  for (const auto& profile : profiles) {
    harness::Runner runner(profile, opts.spread_placement, opts.seed);
    unsigned long long hits = 0, misses = 0;
    const auto dispatch = [&](i64 nodes, i64 bytes) -> const coll::AlgorithmEntry& {
      const tune::Selection sel =
          tune::select(table, profile, Collective::allreduce, nodes, bytes);
      ++(sel.from_table ? hits : misses);
      return *sel.entry;
    };
    std::printf("%s:\n", profile.name.c_str());
    for (const i64 bytes : {i64{1024}, i64{262144}, i64{33554432}}) {
      const coll::AlgorithmEntry& algo = dispatch(64, bytes);
      const harness::RunResult r = runner.run(Collective::allreduce, algo, 64, bytes);
      std::printf("  allreduce %9lld B on 64 nodes -> %-18s %.3f ms simulated\n",
                  static_cast<long long>(bytes), algo.name.c_str(), 1e3 * r.seconds);
    }
    // p=20 was never tuned: select serves the paper's heuristic.
    const coll::AlgorithmEntry& fallback = dispatch(20, 65536);
    std::printf("  allreduce untuned p=20          -> %-18s (heuristic fallback; "
                "%llu hits, %llu misses)\n\n",
                fallback.name.c_str(), hits, misses);
  }
  return 0;
}
