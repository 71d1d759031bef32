// Size-axis batching at the Runner level: Runner::run_candidates (and its
// one-cell delegate run) must be bit-identical to the per-size scalar oracle
// (the freshly generated schedule run through the scalar net::simulate on
// the Runner's own machine instance) from a cold and a warm schedule cache,
// including pools whose fault demotion resolves different algorithms at
// different sizes. "Bit-identical" is literal: seconds compare by bit
// pattern, not tolerance.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "coll/registry.hpp"
#include "fault/fault.hpp"
#include "harness/runner.hpp"
#include "net/profiles.hpp"
#include "net/simulate.hpp"
#include "sched/schedule_cache.hpp"
#include "sim_oracle.hpp"

using namespace bine;
using namespace bine::test_util;

// Runner level: run_candidates (and its one-cell delegate run) vs the scalar
// oracle over freshly generated schedules, cold cache (run_candidates) then
// warm (run), null slots marking inapplicable candidates. Two machines: LUMI
// at 24 nodes (non-power-of-two, generic algorithms) and a Fugaku 4x4x4
// sub-torus at 64 nodes, where the torus-specialized generators join the
// pool with the Runner's torus_dims.
TEST(SimCandidates, RunnerMatchesPerSizeScalarOracle) {
  struct Machine {
    net::SystemProfile profile;
    i64 nodes;
    std::vector<i64> torus_dims;
  };
  const std::vector<Machine> machines = {
      {net::lumi_profile(), 24, {}},
      {net::fugaku_profile({4, 4, 4}), 64, {4, 4, 4}},
  };
  // 32 B and 64 B both clamp to p elements.
  const std::vector<i64> sizes = {32, 64, 1024, 12345, 65536, 1 << 20};
  for (const Machine& m : machines) {
    const bool with_specialized = !m.torus_dims.empty();
    sched::process_schedule_cache().clear();
    harness::Runner runner(m.profile, /*spread_placement=*/false);
    runner.torus_dims = m.torus_dims;
    const ScalarCell oracle(runner, m.nodes);
    for (const sched::Collective coll : coll::all_collectives()) {
      std::vector<const coll::AlgorithmEntry*> algos;
      for (const auto& algo : coll::algorithms_for(coll)) {
        if (algo.specialized && !with_specialized) continue;
        algos.push_back(runner.applicable(algo, m.nodes) ? &algo : nullptr);
      }
      const auto batched = runner.run_candidates(coll, algos, m.nodes, sizes);
      ASSERT_EQ(batched.size(), algos.size());
      for (size_t k = 0; k < algos.size(); ++k) {
        if (algos[k] == nullptr) {
          EXPECT_TRUE(batched[k].empty());
          continue;
        }
        ASSERT_EQ(batched[k].size(), sizes.size());
        for (size_t s = 0; s < sizes.size(); ++s) {
          const std::string what = m.profile.name + " " + to_string(coll) + "/" +
                                   algos[k]->name + " size=" + std::to_string(sizes[s]);
          const harness::RunResult expect = oracle.run(*algos[k], sizes[s]);
          expect_bitwise_eq(batched[k][s], expect, what);
          expect_bitwise_eq(runner.run(coll, *algos[k], m.nodes, sizes[s]), expect,
                            what + " [run]");
        }
      }
    }
  }
}

// Fault demotion keys on size: 16 nodes with one failed rank leave 15
// survivors, so a pow2-only allreduce is demoted to the heuristic
// recommendation -- which switches algorithm at 64 KiB. An axis straddling
// the switch must resolve per size, match the scalar oracle on the degraded
// machine bitwise, and record each distinct demotion note exactly once.
TEST(SimCandidates, SizeDependentFaultResolutionMatchesScalarOracle) {
  const coll::AlgorithmEntry* pow2_algo = nullptr;
  for (const auto& entry : coll::algorithms_for(sched::Collective::allreduce))
    if (entry.pow2_only && !entry.specialized) {
      pow2_algo = &entry;
      break;
    }
  ASSERT_NE(pow2_algo, nullptr);
  const std::vector<i64> sizes = {4096, 1 << 20};
  using sched::Collective;
  const auto& small = coll::recommended_algorithm(Collective::allreduce, 15, sizes[0]);
  const auto& large = coll::recommended_algorithm(Collective::allreduce, 15, sizes[1]);
  ASSERT_NE(&small, &large) << "axis no longer straddles the heuristic's switch";
  ASSERT_FALSE(large.pow2_only);

  auto spec = std::make_shared<fault::FaultSpec>();
  spec->failed_ranks = {0};
  net::SystemProfile profile = net::lumi_profile();
  profile.faults = spec;
  sched::process_schedule_cache().clear();  // round 0 cold, round 1 warm
  harness::Runner runner(profile, /*spread_placement=*/false);
  ASSERT_EQ(runner.effective_ranks(16), 15);
  const ScalarCell oracle(runner, 16);
  // The demoted slot, a dead slot, and the large-size fallback itself
  // (which the demoted slot shares at 1 MiB).
  const std::vector<const coll::AlgorithmEntry*> pool = {pow2_algo, nullptr, &large};
  for (int round = 0; round < 2; ++round) {
    const auto got = runner.run_candidates(sched::Collective::allreduce, pool, 16, sizes);
    ASSERT_EQ(got.size(), pool.size());
    EXPECT_TRUE(got[1].empty());
    ASSERT_EQ(got[0].size(), sizes.size());
    ASSERT_EQ(got[2].size(), sizes.size());
    const std::string what = "round=" + std::to_string(round);
    expect_bitwise_eq(got[0][0], oracle.run(small, sizes[0]), what + " demoted@4KiB");
    expect_bitwise_eq(got[0][1], oracle.run(large, sizes[1]), what + " demoted@1MiB");
    for (size_t s = 0; s < sizes.size(); ++s)
      expect_bitwise_eq(got[2][s], oracle.run(large, sizes[s]), what + " fallback");
    // One note per distinct demotion, never repeated across sizes or calls.
    const std::vector<std::string> notes = runner.degrade_notes();
    ASSERT_EQ(notes.size(), 2u) << what;
    EXPECT_NE(notes[0].find(small.name), std::string::npos) << notes[0];
    EXPECT_NE(notes[1].find(large.name), std::string::npos) << notes[1];
  }
}
