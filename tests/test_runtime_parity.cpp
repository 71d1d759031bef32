// Threaded compiled execution vs the sequential reference executor
// (the one executor oracle; test_exec_engine.cpp checks the sequential
// compiled path against it registry-wide), and the closed-form gather buffer
// ranges of paper Sec. 4.1/4.2.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "coll/registry.hpp"
#include "core/tree.hpp"
#include "runtime/compiled_executor.hpp"
#include "runtime/exec_plan.hpp"
#include "runtime/executor.hpp"
#include "runtime/verify.hpp"

using namespace bine;

namespace {

std::vector<std::vector<u64>> make_inputs(i64 p, i64 elems) {
  std::vector<std::vector<u64>> in(static_cast<size_t>(p));
  for (i64 r = 0; r < p; ++r) {
    in[static_cast<size_t>(r)].resize(static_cast<size_t>(elems));
    for (i64 e = 0; e < elems; ++e)
      in[static_cast<size_t>(r)][static_cast<size_t>(e)] =
          static_cast<u64>(r) * 7919u + static_cast<u64>(e);
  }
  return in;
}

}  // namespace

TEST(ThreadedExecutor, MatchesSequentialAcrossAlgorithms) {
  // A representative algorithm per collective, run by the compiled executor
  // with 4 threads and by the sequential reference; the resulting buffers,
  // contributor sets and message accounting must be identical.
  const std::vector<std::pair<sched::Collective, const char*>> cases = {
      {sched::Collective::bcast, "bine"},
      {sched::Collective::reduce, "bine_rs_gather"},
      {sched::Collective::gather, "bine"},
      {sched::Collective::scatter, "bine"},
      {sched::Collective::allgather, "bine_send"},
      {sched::Collective::reduce_scatter, "bine_permute"},
      {sched::Collective::allreduce, "bine_two_trans"},
      {sched::Collective::alltoall, "bine"},
  };
  for (const auto& [coll, algo] : cases) {
    // 53 elements stays below the executor's parallel grain (sequential
    // fallback); 8192 crosses it, so the phase fan-out genuinely runs.
    for (const i64 elems : {i64{53}, i64{8192}}) {
      const std::string what = std::string(algo) + " elems=" + std::to_string(elems);
      coll::Config cfg;
      cfg.p = 16;
      cfg.elem_count = elems;
      cfg.elem_size = 8;
      const sched::Schedule sch = coll::find_algorithm(coll, algo).make(cfg);
      const auto inputs = make_inputs(cfg.p, cfg.elem_count);
      const auto seq = runtime::execute_reference<u64>(sch, runtime::ReduceOp::sum, inputs);
      const runtime::ExecPlan plan = runtime::ExecPlan::lower(sch);
      const auto thr = runtime::execute<u64>(plan, runtime::ReduceOp::sum, inputs, 4);
      EXPECT_EQ(seq.messages, thr.messages) << what;
      EXPECT_EQ(seq.wire_bytes, thr.wire_bytes) << what;
      for (Rank r = 0; r < cfg.p; ++r)
        for (i64 b = 0; b < plan.nblocks; ++b) {
          const auto& slot =
              seq.ranks[static_cast<size_t>(r)].slots[static_cast<size_t>(b)];
          ASSERT_EQ(thr.is_valid(r, b), slot.valid)
              << what << " rank " << r << " block " << b;
          if (!slot.valid) continue;
          const auto data = thr.block(r, b);
          EXPECT_EQ(std::vector<u64>(data.begin(), data.end()), slot.data)
              << what << " rank " << r << " block " << b;
          EXPECT_TRUE(thr.contributors(r, b) == slot.contributors)
              << what << " rank " << r << " block " << b;
        }
      EXPECT_EQ(runtime::verify<u64>(plan, runtime::ReduceOp::sum, inputs, thr), "")
          << what;
    }
  }
}

TEST(ThreadedExecutor, DetectsDuplicateContribution) {
  // Step 1 holds two receiver runs moving kParallelGrainElems elements each,
  // so a threads=4 run applies it through parallel_for. The broken variant
  // folds rank 1's contribution into rank 0 a second time there; the valid
  // one sends 0 -> 3 instead and must match the sequential run.
  coll::Config cfg;
  cfg.p = 4;
  cfg.elem_count = runtime::kParallelGrainElems;
  const auto in = make_inputs(cfg.p, cfg.elem_count);
  for (const bool broken : {false, true}) {
    SCOPED_TRACE(broken ? "broken" : "valid");
    sched::Schedule sch = coll::make_base(sched::Collective::reduce, cfg, "broken",
                                          sched::BlockSpace::per_vector);
    sch.add_exchange(0, 1, 0, sched::BlockSet::all(4), true);
    sch.add_exchange(0, 3, 2, sched::BlockSet::all(4), true);
    sch.add_exchange(1, broken ? 1 : 0, broken ? 0 : 3, sched::BlockSet::all(4), true);
    sch.add_exchange(1, 2, 1, sched::BlockSet::all(4), true);
    const runtime::ExecPlan plan = runtime::ExecPlan::lower(sch);
    ASSERT_TRUE(runtime::step_fans_out(plan, 1));
    ASSERT_EQ(plan.step_run_begin[2] - plan.step_run_begin[1], 2u);
    if (broken) {
      EXPECT_THROW((void)runtime::execute<u64>(plan, runtime::ReduceOp::sum, in, 4),
                   std::runtime_error);
      continue;
    }
    const auto one = runtime::execute<u64>(plan, runtime::ReduceOp::sum, in, 1);
    const auto thr = runtime::execute<u64>(plan, runtime::ReduceOp::sum, in, 4);
    EXPECT_EQ(one.data, thr.data);
    EXPECT_EQ(one.contrib, thr.contrib);
    EXPECT_EQ(one.valid, thr.valid);
  }
}

// --- Sec. 4.1/4.2 closed-form gather ranges -----------------------------------

TEST(GatherRanges, ClosedFormMatchesSubtreeIntervals) {
  // Sec. 4.2: even ranks end the gather having added 2^0+2^2+... to b and
  // subtracted 2^1+2^3+... from a; odd ranks the opposite. E.g. rank 0 on
  // p=8 ends with [a, b] = [6, 5] (the whole circular buffer).
  for (const i64 p : {4, 8, 16, 32, 64, 128}) {
    const int s = log2_exact(p);
    i64 even_up = 0, even_down = 0;
    for (int k = 0; k < s; ++k) {
      if (k % 2 == 0)
        even_up += i64{1} << k;
      else
        even_down += i64{1} << k;
    }
    for (Rank r = 0; r < p; ++r) {
      // Closed form of the final circular range [a, b] for rank r.
      const bool even = r % 2 == 0;
      const i64 a = pmod(r - (even ? even_down : even_up), p);
      const i64 b = pmod(r + (even ? even_up : even_down), p);
      EXPECT_EQ(pmod(b - a, p), p - 1) << "range must cover the whole buffer";
      // The root's full-gather interval from the tree machinery must agree:
      // the subtree of the root (= everything) anchored the same way.
      const core::CircularInterval iv =
          core::subtree_interval(core::TreeVariant::bine_dh, 0, p);
      EXPECT_EQ(iv.length, p);
    }
  }
  // The paper's concrete example: rank 0, p = 8 -> [a, b] = [6, 5].
  EXPECT_EQ(pmod(0 - (2), 8), 6);       // a = -(2^1) = -2 -> 6
  EXPECT_EQ(pmod(0 + (1 + 4), 8), 5);   // b = +(2^0 + 2^2) = +5 -> 5
}

TEST(GatherRanges, PerStepGrowthAlternatesDirection) {
  // Sec. 4.1: even ranks extend upward at even gather steps and downward at
  // odd steps (odd ranks mirrored). Verify against the actual tree: the
  // subtree interval gained at each gather step sits on the predicted side.
  const i64 p = 32;
  const int s = log2_exact(p);
  for (Rank r = 0; r < p; ++r) {
    const int joined = r == 0 ? -1 : core::join_step(core::TreeVariant::bine_dh, r, p);
    for (int st = joined + 1; st < s; ++st) {
      const Rank child = core::tree_partner(core::TreeVariant::bine_dh, r, st, p);
      const core::CircularInterval sub =
          core::subtree_interval(core::TreeVariant::bine_dh, child, p);
      // Gather step index g counts from the leaves: g = s - 1 - st.
      const int g = s - 1 - st;
      const bool even_rank = r % 2 == 0;
      const bool upward = even_rank ? (g % 2 == 0) : (g % 2 == 1);
      const i64 disp = core::modular_displacement(r, child, p);
      EXPECT_EQ(disp > 0, upward)
          << "rank " << r << " gather step " << g << " child " << child;
      (void)sub;
    }
  }
}
