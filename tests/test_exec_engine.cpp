// Compiled execution engine tests: compiled-vs-reference parity
// across the whole registry (buffers, contributor sets, message accounting),
// cached-plan/direct-lowering equivalence, duplicate-contribution detection
// parity, threaded-executor determinism, Runner's verified-execution path on
// all four topology-family profiles against the simulator and the fresh
// schedule, shared-process-cache hits across Runner instances, and the
// held-cell state layout (every rank holds exactly the cells an independent
// walk of the exchange log reaches; sends of never-held blocks fail like the
// reference), and the postcondition checker's first-failure diagnostics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "coll/registry.hpp"
#include "harness/runner.hpp"
#include "net/profiles.hpp"
#include "runtime/compiled_executor.hpp"
#include "runtime/exec_plan.hpp"
#include "runtime/executor.hpp"
#include "runtime/verify.hpp"
#include "sched/schedule_cache.hpp"

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

/// Bit-exact comparison of a compiled result against the reference executor:
/// validity, data, contributor sets, and message accounting.
void expect_matches_reference(const runtime::ExecResult<u64>& ref,
                              const runtime::CompiledExecResult<u64>& got,
                              i64 p, i64 nblocks, const std::string& what) {
  EXPECT_EQ(got.messages, ref.messages) << what;
  EXPECT_EQ(got.wire_bytes, ref.wire_bytes) << what;
  for (Rank r = 0; r < p; ++r)
    for (i64 b = 0; b < nblocks; ++b) {
      const auto& slot = ref.ranks[static_cast<size_t>(r)].slots[static_cast<size_t>(b)];
      ASSERT_EQ(got.is_valid(r, b), slot.valid)
          << what << " rank " << r << " block " << b;
      if (!slot.valid) continue;
      const auto data = got.block(r, b);
      ASSERT_EQ(std::vector<u64>(data.begin(), data.end()), slot.data)
          << what << " rank " << r << " block " << b;
      EXPECT_TRUE(got.contributors(r, b) == slot.contributors)
          << what << " rank " << r << " block " << b;
    }
}

/// Roots a rooted collective's tests cover: 0 and an interior rank.
std::vector<Rank> roots_for(sched::Collective coll, i64 p) {
  using sched::Collective;
  const bool rooted = coll == Collective::bcast || coll == Collective::reduce ||
                      coll == Collective::gather || coll == Collective::scatter;
  if (rooted && p / 3 != 0) return {0, p / 3};
  return {0};
}

/// Element length of block `id` in `sch`'s block space.
i64 block_len(const sched::Schedule& sch, i64 id) {
  return sch.space == sched::BlockSpace::pairwise
             ? sched::block_elems(id % sch.p, sch.elem_count, sch.p)
             : sched::block_elems(id, sch.elem_count, sch.nblocks);
}

/// Checks `plan`'s held cells against an independent walk of `sch`: each
/// rank's initial holdings (spelled out here, not taken from the library)
/// plus every block id `Schedule::exchanges()` delivers to it. Also checks
/// that the plan's deliveries are the log's exchanges and that every
/// delivered block reads from its sender's cell and lands in its receiver's.
/// Returns the number of held cells.
i64 expect_held_cells_match_walk(const sched::Schedule& sch, const runtime::ExecPlan& plan) {
  using sched::Collective;
  const i64 p = sch.p;
  std::vector<std::set<i64>> held(static_cast<size_t>(p));
  const auto hold_all = [&](Rank r) {
    for (i64 b = 0; b < sch.nblocks; ++b) held[static_cast<size_t>(r)].insert(b);
  };
  for (Rank r = 0; r < p; ++r) switch (sch.coll) {
      case Collective::bcast:
      case Collective::scatter:
        if (r == sch.root) hold_all(r);
        break;
      case Collective::reduce:
      case Collective::allreduce:
      case Collective::reduce_scatter:
        hold_all(r);
        break;
      case Collective::gather:
      case Collective::allgather:
        held[static_cast<size_t>(r)].insert(r);
        break;
      case Collective::alltoall:
        for (i64 d = 0; d < p; ++d) held[static_cast<size_t>(r)].insert(r * p + d);
        break;
    }
  using Delivery = std::tuple<Rank, Rank, std::vector<i64>>;
  std::vector<Delivery> want_deliveries;
  for (const sched::Exchange& ex : sch.exchanges()) {
    std::vector<i64> ids = ex.blocks.expand(sch.nblocks);
    for (const i64 id : ids) held[static_cast<size_t>(ex.to)].insert(id);
    want_deliveries.emplace_back(ex.to, ex.from, std::move(ids));
  }

  i64 cells = 0;
  i64 elems = 0;
  for (Rank r = 0; r < p; ++r) {
    const auto& want = held[static_cast<size_t>(r)];
    const std::vector<i64> got(plan.cell_block.begin() + plan.cell_begin[static_cast<size_t>(r)],
                               plan.cell_block.begin() +
                                   plan.cell_begin[static_cast<size_t>(r) + 1]);
    EXPECT_EQ(got, std::vector<i64>(want.begin(), want.end())) << "rank " << r;
    cells += static_cast<i64>(want.size());
    for (const i64 id : want) elems += block_len(sch, id);
  }
  // Held cells plus the one sentinel.
  EXPECT_EQ(plan.ncells, cells + 1);
  EXPECT_EQ(plan.state_elems, elems);

  std::vector<Delivery> got_deliveries;
  for (size_t j = 0; j < plan.num_ops(); ++j) {
    std::vector<i64> ids;
    for (std::uint32_t k = plan.block_begin[j]; k < plan.block_begin[j + 1]; ++k) {
      const i64 id = plan.block_id(k);
      ids.push_back(id);
      EXPECT_EQ(plan.write_cell[k], plan.cell(plan.to[j], id)) << "delivered block " << k;
      EXPECT_EQ(plan.read_cell[k], plan.cell(plan.from[j], id)) << "delivered block " << k;
    }
    got_deliveries.emplace_back(plan.to[j], plan.from[j], std::move(ids));
  }
  std::sort(want_deliveries.begin(), want_deliveries.end());
  std::sort(got_deliveries.begin(), got_deliveries.end());
  EXPECT_TRUE(got_deliveries == want_deliveries);
  return cells;
}

}  // namespace

// The tentpole invariant: for EVERY registered algorithm of every collective
// (topology-specialized torus/hierarchical generators included), the compiled
// executor must be bit-exact with the reference executor -- and must satisfy
// the collective's postcondition through the compiled verify overload.
TEST(ExecEngine, CompiledMatchesReferenceAcrossRegistry) {
  for (const sched::Collective coll : coll::all_collectives()) {
    for (const auto& entry : coll::algorithms_for(coll)) {
      for (const i64 p : {16, 24}) {
        if (entry.pow2_only && !is_pow2(p)) continue;
        SCOPED_TRACE(std::string(to_string(coll)) + "/" + entry.name +
                     " p=" + std::to_string(p));
        coll::Config cfg;
        cfg.p = p;
        cfg.elem_count = 3 * p + 5;  // non-divisible block sizes included
        cfg.elem_size = 8;
        const sched::Schedule sch = entry.make(cfg);
        const auto inputs = make_inputs(p, cfg.elem_count);

        const auto ref = runtime::execute_reference<u64>(sch, runtime::ReduceOp::sum, inputs);
        const runtime::ExecPlan plan = runtime::ExecPlan::lower(sch);
        const auto got = runtime::execute<u64>(plan, runtime::ReduceOp::sum, inputs);
        expect_matches_reference(ref, got, sch.p, sch.nblocks, entry.name);
        EXPECT_EQ(runtime::verify<u64>(plan, runtime::ReduceOp::sum, inputs, got), "");
      }
    }
  }
}

// A plan re-materialized from the cache's execution overlay must be
// indistinguishable from one lowered directly off the fresh schedule, at
// any vector size -- the execution analogue of
// SizeFreeSchedule.MatchesFreshGenerationAtEverySize.
TEST(ExecEngine, PlanFromSizeFreeMatchesDirectLowering) {
  const struct {
    sched::Collective coll;
    const char* name;
  } cases[] = {
      {sched::Collective::allreduce, "recursive_doubling"},
      {sched::Collective::allreduce, "rabenseifner"},
      {sched::Collective::allreduce, "bine_two_trans"},
      {sched::Collective::allreduce, "ring"},
      {sched::Collective::bcast, "bine_scatter_allgather"},
      {sched::Collective::reduce, "bine_rs_gather"},
      {sched::Collective::reduce_scatter, "bine_block"},
      {sched::Collective::allgather, "bruck"},
      {sched::Collective::gather, "bine"},
      {sched::Collective::alltoall, "bruck"},
  };
  const struct {
    i64 p, elem_size;
  } shapes[] = {{16, 8}, {24, 8}, {16, 4}, {24, 4}};
  for (const auto& [p, elem_size] : shapes) {
    for (const auto& c : cases) {
      const auto& entry = coll::find_algorithm(c.coll, c.name);
      if (entry.pow2_only && !is_pow2(p)) continue;
      SCOPED_TRACE(std::string(c.name) + " p=" + std::to_string(p) +
                   " elem_size=" + std::to_string(elem_size));

      coll::Config build_cfg;
      build_cfg.p = p;
      build_cfg.elem_count = 5 * p + 1;  // build size != any resolved size
      build_cfg.elem_size = elem_size;
      const auto sf = std::make_shared<const sched::SizeFreeSchedule>(
          sched::SizeFreeSchedule::from(entry.make(build_cfg)));

      const runtime::ExecSkeleton* skeleton = nullptr;
      for (const i64 elem_count : {p, 3 * p + 5, i64{8192}}) {
        coll::Config cfg = build_cfg;
        cfg.elem_count = elem_count;
        const runtime::ExecPlan direct = runtime::ExecPlan::lower(entry.make(cfg));
        const runtime::ExecPlan cached = runtime::ExecPlan::from_size_free(
            sf, c.coll, cfg.root, cfg.elem_count, cfg.elem_size);
        const auto eq = [](const auto& a, const auto& b) {
          return std::equal(a.begin(), a.end(), b.begin(), b.end());
        };
        EXPECT_TRUE(eq(cached.step_begin, direct.step_begin));
        EXPECT_TRUE(eq(cached.to, direct.to));
        EXPECT_TRUE(eq(cached.from, direct.from));
        EXPECT_TRUE(eq(cached.reduce, direct.reduce));
        EXPECT_EQ(cached.op_bytes, direct.op_bytes);
        EXPECT_TRUE(eq(cached.block_begin, direct.block_begin));
        EXPECT_TRUE(eq(cached.cell_begin, direct.cell_begin));
        EXPECT_TRUE(eq(cached.cell_block, direct.cell_block));
        EXPECT_TRUE(eq(cached.read_cell, direct.read_cell));
        EXPECT_TRUE(eq(cached.write_cell, direct.write_cell));
        EXPECT_EQ(cached.cell_off, direct.cell_off);
        EXPECT_TRUE(eq(cached.run_begin, direct.run_begin));
        EXPECT_TRUE(eq(cached.direct, direct.direct));
        EXPECT_TRUE(eq(cached.fused, direct.fused));
        EXPECT_EQ(cached.stage_elem_off, direct.stage_elem_off);
        EXPECT_EQ(cached.total_wire_bytes, direct.total_wire_bytes);
        // The finalized skeleton is built once on the entry and shared by
        // every later re-materialization (the ~13%-per-cell finalize() cost
        // the cache entry now absorbs).
        ASSERT_TRUE(cached.skeleton);
        if (!skeleton) skeleton = cached.skeleton.get();
        EXPECT_EQ(cached.skeleton.get(), skeleton);
        // The held cells depend on the root, which the entry's cache key
        // fixes: re-materializing it for another root is a caller error.
        EXPECT_THROW((void)runtime::ExecPlan::from_size_free(sf, c.coll, cfg.root + 1,
                                                             cfg.elem_count, cfg.elem_size),
                     std::invalid_argument);

        const auto inputs = make_inputs(p, elem_count);
        const auto a = runtime::execute<u64>(direct, runtime::ReduceOp::sum, inputs);
        const auto b = runtime::execute<u64>(cached, runtime::ReduceOp::sum, inputs);
        EXPECT_EQ(a.data, b.data);
        EXPECT_EQ(a.contrib, b.contrib);
        EXPECT_EQ(a.valid, b.valid);
        EXPECT_EQ(a.messages, b.messages);
        EXPECT_EQ(a.wire_bytes, b.wire_bytes);
      }
    }
  }
}

// The data-dependent correctness hazard (Appendix C): a schedule that folds
// the same contributor twice must throw in the compiled engine -- sequential
// and threaded -- exactly as it does in the reference executor.
TEST(ExecEngine, DuplicateContributionDetectionParity) {
  // Step 1 folds rank 1's contribution into rank 0 a second time, next to a
  // valid 2 -> 1 delivery: two receiver runs of kParallelGrainElems elements
  // each, so the threads=4 run detects it inside parallel_for.
  coll::Config cfg;
  cfg.p = 4;
  cfg.elem_count = runtime::kParallelGrainElems;
  sched::Schedule sch = coll::make_base(sched::Collective::reduce, cfg, "broken",
                                        sched::BlockSpace::per_vector);
  sch.add_exchange(0, 1, 0, sched::BlockSet::all(4), true);
  sch.add_exchange(0, 3, 2, sched::BlockSet::all(4), true);
  sch.add_exchange(1, 1, 0, sched::BlockSet::all(4), true);
  sch.add_exchange(1, 2, 1, sched::BlockSet::all(4), true);
  const auto in = make_inputs(cfg.p, cfg.elem_count);
  EXPECT_THROW(runtime::execute_reference<u64>(sch, runtime::ReduceOp::sum, in),
               std::runtime_error);
  const runtime::ExecPlan plan = runtime::ExecPlan::lower(sch);
  ASSERT_TRUE(runtime::step_fans_out(plan, 1));
  ASSERT_EQ(plan.step_run_begin[2] - plan.step_run_begin[1], 2u);
  EXPECT_THROW((void)runtime::execute<u64>(plan, runtime::ReduceOp::sum, in, 1),
               std::runtime_error);
  EXPECT_THROW((void)runtime::execute<u64>(plan, runtime::ReduceOp::sum, in, 4),
               std::runtime_error);
}

// Structurally broken schedules must be rejected at plan-lowering time (the
// compiled analogue of the reference's runtime validate-and-throw).
TEST(ExecEngine, LoweringRejectsInvalidSchedules) {
  coll::Config cfg;
  cfg.p = 4;
  cfg.elem_count = 8;
  sched::Schedule sch = coll::make_base(sched::Collective::bcast, cfg, "out_of_range",
                                        sched::BlockSpace::per_vector);
  // Block 4 lies outside the 4-block space.
  sch.add_exchange(0, 0, 1, sched::BlockSet::single(4), false);
  EXPECT_THROW((void)runtime::ExecPlan::lower(sch), std::runtime_error);
  const auto in = make_inputs(cfg.p, cfg.elem_count);
  EXPECT_THROW(runtime::execute_reference<u64>(sch, runtime::ReduceOp::sum, in),
               std::runtime_error);
}

// Alltoall runs in pairwise space (p^2 blocks), but a rank only ever holds
// its own send blocks plus the blocks delivered to it. The executor's state
// must hold exactly those cells -- checked against an independent walk of
// the exchange log -- and nothing else: at 128 ranks that is at most 5% of
// the p * nblocks (rank, block) pairs a dense layout would allocate.
TEST(ExecEngine, AlltoallStateHoldsOnlyReachableCells) {
  for (const auto& entry : coll::algorithms_for(sched::Collective::alltoall)) {
    for (const i64 p : {5, 12, 33, 64, 128}) {
      if (entry.pow2_only && !is_pow2(p)) continue;
      SCOPED_TRACE(entry.name + " p=" + std::to_string(p));
      coll::Config cfg;
      cfg.p = p;
      cfg.elem_count = 2 * p + 3;  // non-divisible block sizes included
      cfg.elem_size = 8;
      const sched::Schedule sch = entry.make(cfg);
      const runtime::ExecPlan plan = runtime::ExecPlan::lower(sch);
      const i64 cells = expect_held_cells_match_walk(sch, plan);
      if (p == 128) {
        EXPECT_LE(cells * 20, p * sch.nblocks);
      }

      const auto inputs = make_inputs(p, cfg.elem_count);
      const auto got = runtime::execute<u64>(plan, runtime::ReduceOp::sum, inputs);
      EXPECT_EQ(static_cast<i64>(got.data.size()), plan.state_elems);
      EXPECT_EQ(static_cast<i64>(got.valid.size()), cells + 1);
      EXPECT_EQ(static_cast<i64>(got.contrib.size()), (cells + 1) * plan.words);
      EXPECT_EQ(runtime::verify<u64>(plan, runtime::ReduceOp::sum, inputs, got), "");
      if (p <= 33)
        expect_matches_reference(
            runtime::execute_reference<u64>(sch, runtime::ReduceOp::sum, inputs), got, p,
            sch.nblocks, entry.name);
    }
  }
}

// Every collective's held cells, not only alltoall's: for each generic
// registry algorithm, each rank's held ids are its initial holdings plus the
// ids the exchange log delivers to it, and every delivered block resolves to
// its sender's and receiver's cells.
TEST(ExecEngine, HeldCellsMatchIndependentWalk) {
  for (const sched::Collective coll : coll::all_collectives()) {
    for (const auto& entry : coll::algorithms_for(coll)) {
      if (entry.specialized) continue;
      for (const i64 p : {5, 12, 33, 64}) {
        if (entry.pow2_only && !is_pow2(p)) continue;
        for (const Rank root : roots_for(coll, p)) {
          SCOPED_TRACE(std::string(to_string(coll)) + "/" + entry.name +
                       " p=" + std::to_string(p) + " root=" + std::to_string(root));
          coll::Config cfg;
          cfg.p = p;
          cfg.elem_count = 2 * p + 3;  // non-divisible block sizes included
          cfg.elem_size = 8;
          cfg.root = root;
          const sched::Schedule sch = entry.make(cfg);
          (void)expect_held_cells_match_walk(sch, runtime::ExecPlan::lower(sch));
        }
      }
    }
  }
}

namespace {

/// The (holder, block) slots each collective's postcondition pins, in the
/// order verify checks them.
std::vector<std::pair<Rank, i64>> verify_order(const sched::Schedule& sch) {
  using sched::Collective;
  std::vector<std::pair<Rank, i64>> order;
  const i64 p = sch.p;
  switch (sch.coll) {
    case Collective::bcast:
    case Collective::allgather:
    case Collective::allreduce:
      for (Rank r = 0; r < p; ++r)
        for (i64 b = 0; b < sch.nblocks; ++b) order.emplace_back(r, b);
      break;
    case Collective::reduce:
    case Collective::gather:
      for (i64 b = 0; b < sch.nblocks; ++b) order.emplace_back(sch.root, b);
      break;
    case Collective::scatter:
    case Collective::reduce_scatter:
      for (Rank r = 0; r < p; ++r) order.emplace_back(r, r);
      break;
    case Collective::alltoall:
      for (Rank r = 0; r < p; ++r)
        for (Rank src = 0; src < p; ++src) order.emplace_back(r, src * p + r);
      break;
  }
  return order;
}

enum class Damage { data, validity, contributor };

}  // namespace

// The postcondition check reports the FIRST failing slot in a fixed order,
// with a fixed wording. Damage two pinned slots -- one mid-order, the last
// one -- of a correct run, one kind of damage at a time, identically in the
// compiled and the reference result: both verify overloads must name the
// mid-order slot with the exact message.
TEST(Verify, FirstFailingSlotIsReportedUnchanged) {
  const auto op = runtime::ReduceOp::sum;
  for (const sched::Collective coll : coll::all_collectives()) {
    const auto& entries = coll::algorithms_for(coll);
    const auto entry = std::find_if(entries.begin(), entries.end(), [](const auto& e) {
      return !e.specialized && !e.pow2_only;
    });
    ASSERT_NE(entry, entries.end()) << to_string(coll);
    for (const i64 p : {5, 16}) {
      for (const Rank root : roots_for(coll, p)) {
        SCOPED_TRACE(std::string(to_string(coll)) + "/" + entry->name +
                     " p=" + std::to_string(p) + " root=" + std::to_string(root));
        coll::Config cfg;
        cfg.p = p;
        cfg.elem_count = 3 * p + 5;  // every block non-empty
        cfg.elem_size = 8;
        cfg.root = root;
        const sched::Schedule sch = entry->make(cfg);
        const auto inputs = make_inputs(p, cfg.elem_count);
        const runtime::ExecPlan plan = runtime::ExecPlan::lower(sch);
        const auto good = runtime::execute<u64>(plan, op, inputs);
        const auto good_ref = runtime::execute_reference<u64>(sch, op, inputs);
        ASSERT_EQ(runtime::verify<u64>(plan, op, inputs, good), "");
        ASSERT_EQ(runtime::verify<u64>(sch, op, inputs, good_ref), "");

        const auto order = verify_order(sch);
        const auto [mid_rank, mid_block] = order[order.size() / 2];
        for (const Damage damage : {Damage::data, Damage::validity, Damage::contributor}) {
          auto got = good;
          auto ref = good_ref;
          for (const auto& [r, b] : {order[order.size() / 2], order.back()}) {
            const std::uint32_t c = plan.cell(r, b);
            auto& slot = ref.ranks[static_cast<size_t>(r)].slots[static_cast<size_t>(b)];
            switch (damage) {
              case Damage::data:
                got.data[static_cast<size_t>(plan.cell_off[c])] ^= 1;
                slot.data[0] ^= 1;
                break;
              case Damage::validity:
                got.valid[c] = 0;
                slot.valid = false;
                break;
              case Damage::contributor: {
                // The first rank bit the correct set lacks: a bit past p-1
                // when every rank contributes.
                const std::span<const u64> words = good.cell_words(c);
                Rank bit = 0;
                while (words[static_cast<size_t>(bit) / 64] >> (bit % 64) & 1) ++bit;
                got.contrib[static_cast<size_t>(c) * static_cast<size_t>(plan.words) +
                            static_cast<size_t>(bit) / 64] |= u64{1} << (bit % 64);
                slot.contributors.add(bit);
                break;
              }
            }
          }
          const char* what = damage == Damage::data       ? "has wrong data"
                             : damage == Damage::validity ? "missing"
                                                          : "has wrong contributor set";
          const std::string want = "rank " + std::to_string(mid_rank) + " block " +
                                   std::to_string(mid_block) + " " + what;
          EXPECT_EQ(runtime::verify<u64>(plan, op, inputs, got), want);
          EXPECT_EQ(runtime::verify<u64>(sch, op, inputs, ref), want);
        }
      }
    }
  }
}

// A rank that forwards a block before holding it throws "rank S sends
// invalid block B" at that step -- whether the block reaches it later (a
// held cell, still invalid) or never does (the read resolves to the
// sentinel cell) -- with the reference executor's message, sequential and
// threaded.
TEST(ExecEngine, ForwardingAnUnheldBlockThrowsAtItsStep) {
  for (const bool delivered_later : {false, true}) {
    SCOPED_TRACE(delivered_later ? "delivered later" : "never held");
    coll::Config cfg;
    cfg.p = 4;
    cfg.elem_count = 8;
    sched::Schedule sch = coll::make_base(sched::Collective::alltoall, cfg, "forwards_unheld",
                                          sched::BlockSpace::pairwise);
    // Block 1 is (0 -> 1): rank 0 starts with it and hands it to rank 1.
    sch.add_exchange(0, 0, 1, sched::BlockSet::single(1), false);
    // Rank 2 forwards block 1 at step 1 without holding it.
    sch.add_exchange(1, 2, 3, sched::BlockSet::single(1), false);
    if (delivered_later) sch.add_exchange(2, 1, 2, sched::BlockSet::single(1), false);
    const runtime::ExecPlan plan = runtime::ExecPlan::lower(sch);
    const std::uint32_t rank2_cell = plan.cell(2, 1);
    EXPECT_EQ(rank2_cell == plan.sentinel_cell(), !delivered_later);
    EXPECT_EQ(plan.read_cell[plan.block_begin[1]], rank2_cell);

    const std::string want = "step 1: rank 2 sends invalid block 1";
    const auto in = make_inputs(cfg.p, cfg.elem_count);
    const auto message = [](auto&& run) -> std::string {
      try {
        run();
      } catch (const std::runtime_error& e) {
        return e.what();
      }
      return "no error";
    };
    EXPECT_EQ(message([&] {
                (void)runtime::execute_reference<u64>(sch, runtime::ReduceOp::sum, in);
              }),
              want);
    for (const i64 threads : {i64{1}, i64{4}})
      EXPECT_EQ(message([&] {
                  (void)runtime::execute<u64>(plan, runtime::ReduceOp::sum, in, threads);
                }),
                want)
          << "threads=" << threads;
  }
}

// Threaded phase fan-out must be bit-identical to the sequential reference
// (the one executor oracle) and to the sequential compiled pass, for the
// BINE_THREADS values CI pins (1 and 4).
TEST(ExecEngine, ThreadedExecutionIsDeterministic) {
  const std::vector<std::pair<sched::Collective, const char*>> cases = {
      {sched::Collective::allreduce, "bine_two_trans"},
      {sched::Collective::allreduce, "recursive_doubling"},
      {sched::Collective::reduce_scatter, "bine_permute"},
      {sched::Collective::allgather, "bine_send"},
      {sched::Collective::alltoall, "bine"},
      {sched::Collective::bcast, "bine"},
  };
  for (const auto& [coll, name] : cases) {
    // 53 elements stays below the executor's parallel grain (sequential
    // fallback under threads=4); 8192 crosses it, so the parallel_for fan-out
    // genuinely runs.
    for (const i64 elems : {i64{53}, i64{8192}}) {
      SCOPED_TRACE(std::string(name) + " elems=" + std::to_string(elems));
      coll::Config cfg;
      cfg.p = 16;
      cfg.elem_count = elems;
      cfg.elem_size = 8;
      const sched::Schedule sch = coll::find_algorithm(coll, name).make(cfg);
      const runtime::ExecPlan plan = runtime::ExecPlan::lower(sch);
      const auto inputs = make_inputs(cfg.p, cfg.elem_count);
      const auto seq = runtime::execute<u64>(plan, runtime::ReduceOp::sum, inputs, 1);
      const auto thr = runtime::execute<u64>(plan, runtime::ReduceOp::sum, inputs, 4);
      expect_matches_reference(
          runtime::execute_reference<u64>(sch, runtime::ReduceOp::sum, inputs), thr, cfg.p,
          plan.nblocks, std::string(name) + " threads=4");
      EXPECT_EQ(seq.data, thr.data);
      EXPECT_EQ(seq.contrib, thr.contrib);
      EXPECT_EQ(seq.valid, thr.valid);
      EXPECT_EQ(seq.messages, thr.messages);
      EXPECT_EQ(seq.wire_bytes, thr.wire_bytes);
      EXPECT_EQ(runtime::verify<u64>(plan, runtime::ReduceOp::sum, inputs, thr), "");
    }
  }
}

// Floating-point min/max are not bit-commutative (+/-0.0 ties resolve to
// the FIRST operand), so the fused symmetric-exchange kernel must evaluate
// each direction with its own operand order. Signed zeros compare equal
// under ==, hence the bitwise comparison.
TEST(ExecEngine, FusedSymmetricExchangeIsBitExactForFloatMinMax) {
  coll::Config cfg;
  cfg.p = 8;
  cfg.elem_count = 64;
  cfg.elem_size = 8;
  const sched::Schedule sch =
      coll::find_algorithm(sched::Collective::allreduce, "recursive_doubling").make(cfg);
  const runtime::ExecPlan plan = runtime::ExecPlan::lower(sch);
  ASSERT_TRUE(std::find(plan.fused.begin(), plan.fused.end(), 1) != plan.fused.end())
      << "recursive doubling exchanges should fuse";

  std::vector<std::vector<double>> in(8);
  for (i64 r = 0; r < 8; ++r) {
    in[static_cast<size_t>(r)].resize(64);
    for (i64 e = 0; e < 64; ++e)  // alternating +0.0 / -0.0 tie patterns
      in[static_cast<size_t>(r)][static_cast<size_t>(e)] = ((r + e) % 2 == 0) ? 0.0 : -0.0;
  }
  for (const runtime::ReduceOp op : {runtime::ReduceOp::min, runtime::ReduceOp::max}) {
    SCOPED_TRACE(to_string(op));
    const auto ref = runtime::execute_reference<double>(sch, op, in);
    const auto got = runtime::execute<double>(plan, op, in);
    for (Rank r = 0; r < 8; ++r)
      for (i64 b = 0; b < 8; ++b) {
        const auto& slot = ref.ranks[static_cast<size_t>(r)].slots[static_cast<size_t>(b)];
        ASSERT_TRUE(slot.valid);
        const auto data = got.block(r, b);
        ASSERT_EQ(data.size(), slot.data.size());
        EXPECT_EQ(std::memcmp(data.data(), slot.data.data(), data.size() * sizeof(double)),
                  0)
            << "rank " << r << " block " << b;
      }
  }
}

// Runner::run_verified against independent engines, on every
// topology-family profile: each non-specialized algorithm applicable at
// p in {24, 64}, at 32 B, 16 KiB and 1 MiB, must verify, count the messages
// every profile's simulator (run_candidates) counts, and put on the wire
// exactly the bytes of the freshly generated schedule
// (Schedule::total_wire_bytes). RunResult::total_bytes is not comparable: it
// weights bytes by hop count. On a healthy machine execution depends on the
// cell alone, so each cell executes once, on the profiles in turn.
TEST(ExecEngine, RunnerVerifiedExecutionMatchesIndependentEnginesAcrossProfiles) {
  std::vector<std::unique_ptr<harness::Runner>> runners;
  for (net::SystemProfile profile :
       {net::lumi_profile(), net::leonardo_profile(), net::fugaku_profile({4, 4, 4}),
        net::multigpu_profile()})
    runners.push_back(std::make_unique<harness::Runner>(std::move(profile)));
  const std::vector<i64> sizes = {32, 16384, 1 << 20};

  size_t cell = 0;
  for (const sched::Collective coll : coll::all_collectives())
    for (const i64 p : {24, 64}) {
      std::vector<const coll::AlgorithmEntry*> algos;
      for (const auto& entry : coll::algorithms_for(coll))
        if (!entry.specialized && runners[0]->applicable(entry, p)) algos.push_back(&entry);
      std::vector<std::vector<std::vector<harness::RunResult>>> sims;
      for (const auto& runner : runners)
        sims.push_back(runner->run_candidates(coll, algos, p, sizes));
      for (size_t k = 0; k < algos.size(); ++k)
        for (size_t s = 0; s < sizes.size(); ++s) {
          harness::Runner& runner = *runners[cell++ % runners.size()];
          SCOPED_TRACE(runner.profile().name + "/" + to_string(coll) + "/" +
                       algos[k]->name + " p=" + std::to_string(p) + " " +
                       harness::size_label(sizes[s]));
          const harness::VerifiedRun v = runner.run_verified(coll, *algos[k], p, sizes[s]);
          EXPECT_TRUE(v.ok) << v.error;
          for (const auto& sim : sims) EXPECT_EQ(v.messages, sim[k][s].messages);
          coll::Config cfg;
          cfg.p = p;
          cfg.elem_count = std::max<i64>(p, sizes[s] / cfg.elem_size);
          EXPECT_EQ(v.wire_bytes, algos[k]->make(cfg).total_wire_bytes());
        }
    }
}

// The acceptance criterion for the process-wide cache: a second Runner in
// the same process -- even on a different system profile -- gets pure hits
// for cells a first Runner already built.
TEST(ExecEngine, SecondRunnerHitsProcessWideScheduleCache) {
  const auto& entry =
      coll::find_algorithm(sched::Collective::allreduce, "bine_two_trans");

  harness::Runner first(net::lumi_profile());
  (void)first.run(sched::Collective::allreduce, entry, 64, 16384);

  const auto before = sched::process_schedule_cache().stats();
  harness::Runner second(net::leonardo_profile());  // different profile, same cache
  (void)second.run(sched::Collective::allreduce, entry, 64, 16384);
  const harness::VerifiedRun v =
      second.run_verified(sched::Collective::allreduce, entry, 64, 16384);
  EXPECT_TRUE(v.ok) << v.error;
  const auto after = sched::process_schedule_cache().stats();
  EXPECT_EQ(after.misses, before.misses);     // nothing regenerated...
  EXPECT_GE(after.hits, before.hits + 2u);    // ...simulate AND execute both hit
}

// Pair-tiling: a delivery whose read cells only PARTIALLY overlap the cells
// written at its sender this step must stage exactly the overlapping tile --
// the rest reads the sender's live buffer in place -- while staying bit-exact
// with the reference executor.
TEST(ExecEngine, PairTilingStagesOnlyOverlappingTiles) {
  coll::Config cfg;
  cfg.p = 4;
  cfg.elem_count = 8;  // nblocks = 4 -> 2 elems per block
  cfg.elem_size = 8;
  sched::Schedule sch = coll::make_base(sched::Collective::allreduce, cfg, "tiled",
                                        sched::BlockSpace::per_vector);
  // One step, hand-built for partial overlap:
  //   0 -> 1 reduce {0,1,2,3}: read cells (0, 0..3); only (0, 2) is written
  //                            below -> middle tile stages, the rest in place
  //   1 -> 0 reduce {2}      : rank 1 is fully written above -> stages
  //   2 -> 3 reduce {1,2}    : rank 2 only has block 0 written -> direct
  //   3 -> 2 reduce {0}      : rank 3 only has blocks 1,2 written -> direct
  sch.add_exchange(0, 0, 1, sched::BlockSet::all(4), true);
  sch.add_exchange(0, 1, 0, sched::BlockSet::single(2), true);
  sch.add_exchange(0, 2, 3, sched::BlockSet::run(1, 2), true);
  sch.add_exchange(0, 3, 2, sched::BlockSet::single(0), true);

  const runtime::ExecPlan plan = runtime::ExecPlan::lower(sch);
  ASSERT_EQ(plan.num_ops(), 4u);
  for (size_t j = 0; j < 4; ++j) {
    SCOPED_TRACE("delivery to " + std::to_string(plan.to[j]));
    std::vector<int> mask;
    for (auto k = plan.block_begin[j]; k < plan.block_begin[j + 1]; ++k)
      mask.push_back(plan.staged_id[k]);
    if (plan.to[j] == 1) {  // 0 -> 1: only id 2 overlaps
      EXPECT_FALSE(plan.direct[j]);
      EXPECT_EQ(mask, (std::vector<int>{0, 0, 1, 0}));
    } else if (plan.to[j] == 0) {  // 1 -> 0: fully overlapping
      EXPECT_FALSE(plan.direct[j]);
      EXPECT_EQ(mask, (std::vector<int>{1}));
    } else {  // 2 -> 3 and 3 -> 2: no overlap at all
      EXPECT_TRUE(plan.direct[j]);
      EXPECT_EQ(std::count(mask.begin(), mask.end(), 1), 0);
    }
    EXPECT_FALSE(plan.fused[j]);  // id lists differ: no symmetric fusion
  }
  // 2 staged blocks x 2 elems x 8 bytes; without tiling all 5 non-direct
  // blocks would copy (80 bytes).
  EXPECT_EQ(plan.stage_bytes, 32);

  const auto inputs = make_inputs(cfg.p, cfg.elem_count);
  const auto ref = runtime::execute_reference<u64>(sch, runtime::ReduceOp::sum, inputs);
  for (const i64 threads : {i64{1}, i64{4}}) {
    const auto got = runtime::execute<u64>(plan, runtime::ReduceOp::sum, inputs, threads);
    expect_matches_reference(ref, got, sch.p, sch.nblocks,
                             "tiled threads=" + std::to_string(threads));
    EXPECT_EQ(got.stage_bytes, plan.stage_bytes);
  }
}

// Every registered algorithm's plan executes fully zero-copy: the direct /
// fused / pair-tiling analysis leaves nothing for the stage buffers. This is
// the ROADMAP's "stage-copy bytes ~= 0" target, promoted to an invariant.
TEST(ExecEngine, RegistryPlansExecuteZeroCopy) {
  for (const sched::Collective coll : coll::all_collectives()) {
    for (const auto& entry : coll::algorithms_for(coll)) {
      for (const i64 p : {16, 24}) {
        if (entry.pow2_only && !is_pow2(p)) continue;
        coll::Config cfg;
        cfg.p = p;
        cfg.elem_count = 3 * p + 5;
        cfg.elem_size = 8;
        const runtime::ExecPlan plan = runtime::ExecPlan::lower(entry.make(cfg));
        EXPECT_EQ(plan.stage_bytes, 0)
            << to_string(coll) << "/" << entry.name << " p=" << p;
      }
    }
  }
}
