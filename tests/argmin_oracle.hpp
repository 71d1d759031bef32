#pragma once

// Test-side golden for best-of series: a direct argmin in the series' own
// candidate order with a strict < (ties keep the earliest candidate),
// skipping candidates the rank-count gate rejects -- the selection exp::run
// performs, recomputed one (cell, size) at a time.
//
// argmin_run prices with Runner::run, a pool-of-one run_candidates call, the
// same engine exp::run prices with: it checks selection and sharding only.
// argmin_of takes any pricing, e.g. the independent scalar oracle
// (sim_oracle.hpp's ScalarCell), to check values as well.

#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "coll/registry.hpp"
#include "harness/runner.hpp"

namespace bine::test_util {

template <class Price>
std::pair<std::string, harness::RunResult> argmin_of(const harness::Runner& runner,
                                                     sched::Collective coll,
                                                     const std::vector<std::string>& names,
                                                     i64 nodes, Price price) {
  std::pair<std::string, harness::RunResult> best{"", {}};
  best.second.seconds = std::numeric_limits<double>::infinity();
  for (const std::string& name : names) {
    const auto& entry = coll::find_algorithm(coll, name);
    if (!runner.applicable(entry, nodes)) continue;
    const harness::RunResult r = price(entry);
    if (r.seconds < best.second.seconds) best = {name, r};
  }
  if (best.first.empty()) throw std::runtime_error("no applicable algorithm");
  return best;
}

inline std::pair<std::string, harness::RunResult> argmin_run(
    harness::Runner& runner, sched::Collective coll, const std::vector<std::string>& names,
    i64 nodes, i64 size_bytes) {
  return argmin_of(runner, coll, names, nodes, [&](const coll::AlgorithmEntry& entry) {
    return runner.run(coll, entry, nodes, size_bytes);
  });
}

}  // namespace bine::test_util
