// Tuning subsystem tests: decision-table serialization round-trip
// (bit-identical reload), interval compression covering the full size axis
// with no gaps/overlaps, sharded-vs-serial tuning determinism, tuned
// select() parity with an exhaustive argmin over the same sweep data,
// version/fingerprint mismatch rejection, unknown-algorithm demotion,
// select()'s miss policies and negative-size clamp, and the build's
// verified-run memo: its premise (a verified run ignores system, placement
// and executor threads) and its exactness against memo-free tuning.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "coll/registry.hpp"
#include "harness/runner.hpp"
#include "net/profiles.hpp"
#include "tune/decision_table.hpp"
#include "tune/json.hpp"
#include "tune/tuner.hpp"

using namespace bine;
using sched::Collective;

namespace {

/// Small, fast tuning workload shared by most tests: one or two systems, two
/// collectives, two node counts, a 4-point size grid.
tune::TunerOptions small_options(i64 threads = 1) {
  tune::TunerOptions opts;
  opts.size_grid = {256, 8192, 131072, 2097152};
  opts.threads = threads;
  return opts;
}

const std::vector<Collective> kColls = {Collective::allreduce, Collective::allgather};
const std::vector<i64> kNodes = {16, 24};

tune::DecisionTable small_table(i64 threads = 1) {
  return tune::Tuner(small_options(threads))
      .build({net::lumi_profile(), net::mn5_profile()}, kColls, kNodes);
}

}  // namespace

TEST(DecisionTable, RoundTripIsBitIdentical) {
  const tune::DecisionTable table = small_table();
  const std::string dumped = table.dump();
  tune::LoadReport report;
  const tune::DecisionTable reloaded = tune::DecisionTable::parse(dumped, &report);
  EXPECT_EQ(report.demoted_intervals, 0);
  EXPECT_EQ(reloaded, table);
  EXPECT_EQ(reloaded.dump(), dumped);  // canonical form is a fixed point
}

TEST(DecisionTable, SaveLoadRoundTrip) {
  const tune::DecisionTable table = small_table();
  const std::string path = ::testing::TempDir() + "/roundtrip.tune.json";
  table.save(path);
  const tune::DecisionTable loaded = tune::DecisionTable::load(path);
  EXPECT_EQ(loaded, table);
}

TEST(Tuner, IntervalsPartitionTheFullSizeAxis) {
  const tune::DecisionTable table = small_table();
  ASSERT_EQ(table.cells().size(), 2u * kColls.size() * kNodes.size());
  for (const auto& [key, intervals] : table.cells()) {
    ASSERT_FALSE(intervals.empty());
    EXPECT_EQ(intervals.front().lo_bytes, 0);
    EXPECT_EQ(intervals.back().hi_bytes, tune::kNoUpperBound);
    for (size_t i = 0; i < intervals.size(); ++i) {
      EXPECT_LT(intervals[i].lo_bytes, intervals[i].hi_bytes);
      if (i + 1 < intervals.size()) {
        EXPECT_EQ(intervals[i].hi_bytes, intervals[i + 1].lo_bytes);  // no gap/overlap
        EXPECT_NE(intervals[i].algorithm, intervals[i + 1].algorithm);  // compressed
      }
      EXPECT_TRUE(coll::has_algorithm(key.coll, intervals[i].algorithm));
    }
  }
}

// One work item per (system, coll, p) cell: the table must be byte-identical
// whether those cells run serially or sharded over 4 workers (CI additionally
// reruns this whole binary with BINE_THREADS=4).
TEST(Tuner, ShardedBuildMatchesSerialBuild) {
  const tune::DecisionTable serial = small_table(/*threads=*/1);
  const tune::DecisionTable sharded = small_table(/*threads=*/4);
  EXPECT_EQ(serial, sharded);
  EXPECT_EQ(serial.dump(), sharded.dump());
}

// The dispatch contract: select() must agree with an exhaustive argmin over
// the same candidates at every grid point -- the table is compression, not
// approximation.
TEST(Tuner, SelectMatchesExhaustiveArgmin) {
  const tune::TunerOptions opts = small_options();
  const net::SystemProfile profile = net::lumi_profile();
  const tune::DecisionTable table =
      tune::Tuner(opts).build({profile}, kColls, kNodes);

  harness::Runner runner(profile);
  for (const Collective coll : kColls)
    for (const i64 p : kNodes)
      for (const i64 size : opts.size_grid) {
        double best = std::numeric_limits<double>::infinity();
        std::string best_name;
        for (const coll::AlgorithmEntry* cand : tune::Tuner::candidates(coll, p)) {
          const double s = runner.run(coll, *cand, p, size).seconds;
          if (s < best) {
            best = s;
            best_name = cand->name;
          }
        }
        const tune::Selection sel = tune::select(table, profile, coll, p, size);
        EXPECT_TRUE(sel.from_table);
        ASSERT_NE(sel.entry, nullptr);
        EXPECT_EQ(sel.entry->name, best_name)
            << to_string(coll) << " p=" << p << " size=" << size;
      }
}

TEST(DecisionTable, VersionMismatchIsRejected) {
  const tune::DecisionTable table = small_table();
  std::string dumped = table.dump();
  const std::string needle = "\"version\": 1";
  const size_t pos = dumped.find(needle);
  ASSERT_NE(pos, std::string::npos);
  dumped.replace(pos, needle.size(), "\"version\": 2");
  EXPECT_THROW(
      {
        try {
          (void)tune::DecisionTable::parse(dumped);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("version mismatch"), std::string::npos);
          throw;
        }
      },
      std::runtime_error);
}

TEST(DecisionTable, UnknownFormatIsRejected) {
  EXPECT_THROW((void)tune::DecisionTable::parse(
                   R"({"format": "not-a-table", "version": 1, "profiles": {}, "cells": []})"),
               std::runtime_error);
}

TEST(DecisionTable, FingerprintMismatchIsRejectedAtSelect) {
  const net::SystemProfile profile = net::lumi_profile();
  tune::DecisionTable stale = small_table();
  stale.set_profile(profile.name, 0xdeadbeefu);  // wrong machine model
  EXPECT_THROW((void)tune::select(stale, profile, Collective::allreduce, 16, 1024),
               std::runtime_error);

  // An untouched table serves the same query fine.
  const tune::DecisionTable fresh = small_table();
  EXPECT_NO_THROW((void)tune::select(fresh, profile, Collective::allreduce, 16, 1024));
}

// Registry drift: algorithms a table names but this build no longer
// registers must be demoted to the heuristic default at load -- never served,
// never a dispatch-time throw.
TEST(DecisionTable, UnknownAlgorithmIsDemotedToDefault) {
  const tune::DecisionTable table = small_table();
  std::string dumped = table.dump();
  // Rename every occurrence of one real winner to something unregistered.
  const auto& cell =
      *table.cell(net::lumi_profile().name, Collective::allreduce, 16);
  const std::string victim = "\"" + cell.front().algorithm + "\"";
  for (size_t pos = dumped.find(victim); pos != std::string::npos;
       pos = dumped.find(victim, pos))
    dumped.replace(pos, victim.size(), "\"retired_algo\"");

  tune::LoadReport report;
  const tune::DecisionTable loaded = tune::DecisionTable::parse(dumped, &report);
  EXPECT_GT(report.demoted_intervals, 0);
  EXPECT_FALSE(report.notes.empty());
  for (const auto& [key, intervals] : loaded.cells())
    for (const tune::SizeInterval& iv : intervals) {
      EXPECT_NE(iv.algorithm, "retired_algo");
      EXPECT_TRUE(coll::has_algorithm(key.coll, iv.algorithm));
    }
}

TEST(DecisionTable, StructuralDamageIsRejected) {
  tune::DecisionTable table;
  // Gap between intervals.
  EXPECT_THROW(table.set_cell({"x", Collective::allreduce, 8},
                              {{0, 100, "ring"}, {200, tune::kNoUpperBound, "swing"}}),
               std::invalid_argument);
  // Not open-ended.
  EXPECT_THROW(table.set_cell({"x", Collective::allreduce, 8}, {{0, 100, "ring"}}),
               std::invalid_argument);
  // Doesn't start at zero.
  EXPECT_THROW(
      table.set_cell({"x", Collective::allreduce, 8},
                     {{1, tune::kNoUpperBound, "ring"}}),
      std::invalid_argument);
  // Empty cell.
  EXPECT_THROW(table.set_cell({"x", Collective::allreduce, 8}, {}),
               std::invalid_argument);
}

TEST(TunedSelect, MissPoliciesAndCounters) {
  const net::SystemProfile profile = net::lumi_profile();
  const tune::DecisionTable table =
      tune::Tuner(small_options()).build({profile}, kColls, {16});

  {  // heuristic_default: untuned p falls back to the paper's rules.
    u64 hits = 0, misses = 0;
    const auto dispatch = [&](i64 p, i64 bytes) {
      const tune::Selection sel =
          tune::select(table, profile, Collective::allreduce, p, bytes);
      ++(sel.from_table ? hits : misses);
      return sel.entry;
    };
    const coll::AlgorithmEntry* hit = dispatch(16, 8192);
    ASSERT_NE(hit, nullptr);
    EXPECT_TRUE(coll::has_algorithm(Collective::allreduce, hit->name));
    const coll::AlgorithmEntry* miss = dispatch(20, 8192);
    ASSERT_NE(miss, nullptr);
    EXPECT_EQ(miss->name,
              coll::recommended_algorithm(Collective::allreduce, 20, 8192).name);
    EXPECT_EQ(hits, 1u);
    EXPECT_EQ(misses, 1u);
    // The selection executes through the Runner's own paths.
    harness::Runner runner(profile);
    const harness::RunResult r = runner.run(Collective::allreduce, *hit, 16, 8192);
    EXPECT_GT(r.seconds, 0.0);
    const harness::VerifiedRun v = runner.run_verified(Collective::allreduce, *hit, 16, 8192);
    EXPECT_TRUE(v.ok) << v.error;
    EXPECT_NE(v.digest, 0u);
  }
  {  // error: a miss throws, a hit does not.
    const auto policy = tune::MissPolicy::error;
    EXPECT_NO_THROW(
        (void)tune::select(table, profile, Collective::allreduce, 16, 8192, policy));
    EXPECT_THROW(
        (void)tune::select(table, profile, Collective::allreduce, 20, 8192, policy),
        std::runtime_error);
  }
}

// Refinement must not change winners when every candidate verifies (the
// common case): the correctness gate only disqualifies broken algorithms.
TEST(Tuner, RefinementPreservesWinnersWhenAllCandidatesVerify) {
  tune::TunerOptions plain = small_options();
  tune::TunerOptions refined = small_options();
  refined.refine_top_k = 3;
  refined.refine_elem = runtime::ElemType::f64;
  refined.refine_op = runtime::ReduceOp::min;

  harness::Runner a(net::lumi_profile());
  harness::Runner b(net::lumi_profile());
  for (const Collective coll : kColls) {
    EXPECT_EQ(tune::Tuner(plain).tune_cell(a, coll, 16),
              tune::Tuner(refined).tune_cell(b, coll, 16))
        << to_string(coll);
  }
}

// Float x prod has no order-independent input domain, and bitwise ops are
// undefined on floats: the verified path must reject both with an actionable
// error naming the op, never fail a correct algorithm with a spurious data
// mismatch -- and a refinement configured that way must be rejected at Tuner
// construction, before it disqualifies every candidate.
TEST(Runner, FloatProductVerificationIsRejectedUpFront) {
  harness::Runner runner(net::lumi_profile());
  const auto& entry = coll::find_algorithm(Collective::allreduce, "recursive_doubling");
  for (const runtime::ReduceOp op : {runtime::ReduceOp::prod, runtime::ReduceOp::band,
                                     runtime::ReduceOp::bor, runtime::ReduceOp::bxor}) {
    const std::string name = runtime::to_string(op);
    for (const runtime::ElemType elem : {runtime::ElemType::f32, runtime::ElemType::f64}) {
      const harness::VerifiedRun v =
          runner.run_verified(Collective::allreduce, entry, 16, 4096, 1, elem, op);
      EXPECT_FALSE(v.ok) << name;
      EXPECT_NE(v.error.find("ReduceOp::" + name + " over floating-point"),
                std::string::npos)
          << v.error;
    }
    // Integral elements stay supported (wrapping and bitwise arithmetic
    // are exact).
    const harness::VerifiedRun ok = runner.run_verified(
        Collective::allreduce, entry, 16, 4096, 1, runtime::ElemType::u64, op);
    EXPECT_TRUE(ok.ok) << name << ": " << ok.error;

    tune::TunerOptions bad = small_options();
    bad.refine_top_k = 2;
    bad.refine_elem = runtime::ElemType::f32;
    bad.refine_op = op;
    try {
      (void)tune::Tuner{bad};
      ADD_FAILURE() << "Tuner accepted refinement with " << name << " over f32";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("ReduceOp::" + name), std::string::npos)
          << e.what();
    }
  }
  // Order-independent ops over floats stay verifiable.
  for (const runtime::ReduceOp op :
       {runtime::ReduceOp::sum, runtime::ReduceOp::min, runtime::ReduceOp::max}) {
    const harness::VerifiedRun v = runner.run_verified(
        Collective::allreduce, entry, 16, 4096, 1, runtime::ElemType::f64, op);
    EXPECT_TRUE(v.ok) << runtime::to_string(op) << ": " << v.error;
  }
}

// A cell naming a profile absent from the fingerprint map could never be
// checked against the consumer's machine model -- the load must reject it
// rather than serve it unguarded.
TEST(DecisionTable, CellWithoutFingerprintedProfileIsRejected) {
  EXPECT_THROW(
      {
        try {
          (void)tune::DecisionTable::parse(
              R"({"format": "bine-decision-table", "version": 1, "profiles": {},
                  "cells": [{"profile": "ghost", "collective": "allreduce", "p": 8,
                             "intervals": [{"lo": 0, "hi": -1, "algorithm": "ring"}]}]})");
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("fingerprint map"), std::string::npos);
          throw;
        }
      },
      std::runtime_error);
}

// Negative byte counts clamp to 0: a tuned cell serves its first interval
// (under either policy), an untuned one the heuristic default.
TEST(TunedSelect, NegativeBytesClampToFirstInterval) {
  const net::SystemProfile profile = net::lumi_profile();
  const tune::DecisionTable table =
      tune::Tuner(small_options()).build({profile}, {Collective::allreduce}, {16});
  const std::string& first =
      table.cell(profile.name, Collective::allreduce, 16)->front().algorithm;
  for (const tune::MissPolicy policy :
       {tune::MissPolicy::heuristic_default, tune::MissPolicy::error}) {
    const tune::Selection hit =
        tune::select(table, profile, Collective::allreduce, 16, -5, policy);
    EXPECT_TRUE(hit.from_table);
    ASSERT_NE(hit.entry, nullptr);
    EXPECT_EQ(hit.entry->name, first);
  }
  const tune::Selection miss = tune::select(table, profile, Collective::allreduce, 20, -5);
  EXPECT_FALSE(miss.from_table);
  ASSERT_NE(miss.entry, nullptr);
  EXPECT_EQ(miss.entry->name,
            coll::recommended_algorithm(Collective::allreduce, 20, 1).name);
}

TEST(TuneJson, ParserRejectsMalformedDocuments) {
  EXPECT_THROW((void)tune::json::Value::parse("{"), std::runtime_error);
  EXPECT_THROW((void)tune::json::Value::parse("{} garbage"), std::runtime_error);
  EXPECT_THROW((void)tune::json::Value::parse(R"({"a": 01x})"), std::runtime_error);
  EXPECT_THROW((void)tune::json::Value::parse(R"("unterminated)"), std::runtime_error);
  // Truncations at every structural boundary.
  EXPECT_THROW((void)tune::json::Value::parse(R"({"a")"), std::runtime_error);
  EXPECT_THROW((void)tune::json::Value::parse(R"({"a":)"), std::runtime_error);
  EXPECT_THROW((void)tune::json::Value::parse(R"({"a": [1,)"), std::runtime_error);
  EXPECT_THROW((void)tune::json::Value::parse(R"({"a": "x\)"), std::runtime_error);
  EXPECT_THROW((void)tune::json::Value::parse(R"({"a": "\u00)"), std::runtime_error);
  EXPECT_THROW((void)tune::json::Value::parse("tru"), std::runtime_error);
  // Duplicate keys would make find() order-dependent; rejected outright.
  EXPECT_THROW((void)tune::json::Value::parse(R"({"a": 1, "a": 2})"),
               std::runtime_error);
  // Overflowing literals saturate to infinity in strtod; non-finite numbers
  // are damage, not data.
  EXPECT_THROW((void)tune::json::Value::parse(R"({"a": 1e999})"), std::runtime_error);
  EXPECT_THROW((void)tune::json::Value::parse(R"({"a": -1.5e999})"),
               std::runtime_error);
  // Failures carry the byte position (the "position-bearing" contract).
  try {
    (void)tune::json::Value::parse(R"({"k": 1, "k": 2})");
    FAIL() << "duplicate key accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("at byte"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos) << e.what();
  }
  const tune::json::Value v =
      tune::json::Value::parse(R"({"a": [1, -2.5, "x\n", true, null]})");
  const auto& arr = v.at("a", "doc").as_array("a");
  ASSERT_EQ(arr.size(), 5u);
  EXPECT_EQ(arr[0].as_i64("n"), 1);
  EXPECT_DOUBLE_EQ(arr[1].as_double("d"), -2.5);
  EXPECT_EQ(arr[2].as_string("s"), "x\n");
  EXPECT_TRUE(arr[3].as_bool("b"));
}

// --- adaptive grid refinement (crossover bisection) -------------------------

// Bisection is a no-op when the grid has no crossover to bracket: a
// single-point grid has no adjacent pairs, so any depth must emit exactly
// the depth-0 table (the refinement loop may not perturb grid or winners
// when it inserts nothing).
TEST(TunerBisect, NoOpWithoutCrossovers) {
  tune::TunerOptions base = small_options();
  base.size_grid = {8192};
  tune::TunerOptions deep = base;
  deep.bisect_depth = 5;
  EXPECT_EQ(tune::Tuner(base).build({net::lumi_profile()}, kColls, kNodes).dump(),
            tune::Tuner(deep).build({net::lumi_profile()}, kColls, kNodes).dump());
}

// Bisection only moves interval boundaries INTO the bracket between the base
// grid points whose winners differ: every refined boundary lies strictly
// inside some base bracket or on a base grid point, the partition stays
// valid (set_cell enforces that), and the winner at every base grid point
// is unchanged.
TEST(TunerBisect, TightensCrossoversWithinBrackets) {
  tune::TunerOptions coarse = small_options();
  coarse.size_grid = {32, 8388608};  // one huge bracket: crossovers likely inside
  tune::TunerOptions refined_opts = coarse;
  refined_opts.bisect_depth = 3;

  const tune::DecisionTable base =
      tune::Tuner(coarse).build({net::lumi_profile()}, kColls, kNodes);
  const tune::DecisionTable refined =
      tune::Tuner(refined_opts).build({net::lumi_profile()}, kColls, kNodes);

  for (const auto& [key, intervals] : refined.cells()) {
    const auto* base_cell = base.cell(key.profile, key.coll, key.p);
    ASSERT_NE(base_cell, nullptr);
    // Boundaries (other than 0/open-end) must lie within the coarse grid's
    // span -- bisection never extrapolates.
    for (const tune::SizeInterval& iv : intervals) {
      if (iv.lo_bytes == 0) continue;
      EXPECT_GE(iv.lo_bytes, coarse.size_grid.front());
      EXPECT_LE(iv.lo_bytes, coarse.size_grid.back());
    }
    // Winners at the base grid points never change: refinement adds
    // resolution between them, it does not re-rank them.
    for (const i64 size : coarse.size_grid) {
      const std::string* w_base = base.lookup(key.profile, key.coll, key.p, size);
      const std::string* w_ref = refined.lookup(key.profile, key.coll, key.p, size);
      ASSERT_NE(w_base, nullptr);
      ASSERT_NE(w_ref, nullptr);
      EXPECT_EQ(*w_base, *w_ref);
    }
    // At least as many crossovers resolved as the coarse table knew about.
    EXPECT_GE(intervals.size(), base_cell->size());
  }
}

// Refined boundaries are exact at every size the bisection evaluated: probe
// the refined table's own boundaries against a direct argmin.
TEST(TunerBisect, BoundaryWinnersMatchArgmin) {
  tune::TunerOptions opts = small_options();
  opts.size_grid = {256, 2097152};
  opts.bisect_depth = 4;
  const tune::DecisionTable table =
      tune::Tuner(opts).build({net::lumi_profile()}, {Collective::allreduce}, {16});

  harness::Runner runner(net::lumi_profile());
  const auto* cell = table.cell("lumi", Collective::allreduce, 16);
  ASSERT_NE(cell, nullptr);
  for (const tune::SizeInterval& iv : *cell) {
    if (iv.lo_bytes == 0) continue;
    // The interval's lower bound was an evaluated grid point, so the stored
    // winner there must equal the exhaustive argmin.
    double best = std::numeric_limits<double>::infinity();
    std::string best_name;
    for (const auto* cand : tune::Tuner::candidates(Collective::allreduce, 16)) {
      const double s =
          runner.run(Collective::allreduce, *cand, 16, iv.lo_bytes).seconds;
      if (s < best) {
        best = s;
        best_name = cand->name;
      }
    }
    EXPECT_EQ(iv.algorithm, best_name) << "at " << iv.lo_bytes;
  }
}

// Sharded and serial builds stay byte-identical with bisection enabled.
TEST(TunerBisect, ShardedBuildIsDeterministic) {
  tune::TunerOptions a = small_options(1);
  a.bisect_depth = 2;
  tune::TunerOptions b = small_options(4);
  b.bisect_depth = 2;
  EXPECT_EQ(
      tune::Tuner(a).build({net::lumi_profile(), net::mn5_profile()}, kColls, kNodes)
          .dump(),
      tune::Tuner(b).build({net::lumi_profile(), net::mn5_profile()}, kColls, kNodes)
          .dump());
}

// The premise of the build's verified-run memo: with its key fixed, a
// verified run is the same on every system, with spread or identity
// placement, at any executor thread count. The key holds elem_count, not the
// byte size, so 32 B and 64 B at p=16 (16 elements each) must agree too.
// One memo shared by all of those requests executes once per distinct
// (collective, algorithm, p, elem_count) and answers every request with the
// memo-free outcome.
TEST(VerifyMemo, VerifiedRunIgnoresSystemPlacementAndThreads) {
  std::vector<std::unique_ptr<harness::Runner>> runners;
  for (const bool spread : {true, false})
    for (net::SystemProfile profile :
         {net::lumi_profile(), net::leonardo_profile(), net::mn5_profile()})
      runners.push_back(std::make_unique<harness::Runner>(std::move(profile), spread));
  const harness::Runner& first = *runners.front();
  harness::VerifyMemo memo;
  i64 distinct = 0;

  const auto expect_same = [](const harness::VerifiedRun& a,
                              const harness::VerifiedRun& b) {
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.wire_bytes, b.wire_bytes);
    EXPECT_EQ(a.stage_bytes, b.stage_bytes);
  };
  for (const Collective coll : coll::all_collectives())
    for (const i64 p : {16, 48})
      for (const auto& algo : coll::algorithms_for(coll)) {
        if (algo.specialized || !first.applicable(algo, p)) continue;
        harness::VerifiedRun at_32b;
        std::set<i64> elem_counts;
        for (const i64 size : {32, 64, 16384}) {
          elem_counts.insert(std::max<i64>(p, size / 4));
          SCOPED_TRACE(std::string(to_string(coll)) + "/" + algo.name + " p=" +
                       std::to_string(p) + " " + harness::size_label(size));
          const harness::VerifiedRun ref = runners[0]->run_verified(coll, algo, p, size, 1);
          EXPECT_TRUE(ref.ok) << ref.error;
          for (const auto& runner : runners)
            for (const i64 threads : {1, 4}) {
              SCOPED_TRACE(runner->profile().name + " threads=" + std::to_string(threads));
              expect_same(runner->run_verified(coll, algo, p, size, threads), ref);
              expect_same(runner->run_verified(coll, algo, p, size, threads,
                                               runtime::ElemType::u32,
                                               runtime::ReduceOp::sum, &memo),
                          ref);
            }
          if (size == 32) at_32b = ref;
          if (size == 64 && p == 16) expect_same(ref, at_32b);
        }
        distinct += static_cast<i64>(elem_counts.size());
      }
  EXPECT_EQ(memo.runs(), distinct);
  EXPECT_GT(memo.hits(), 0);
}

// Memo exactness: a build whose systems and sizes share verified runs
// through the memo tunes every cell exactly as a fresh memo-free Runner does,
// serial or sharded, and the memo answers part of its requests.
TEST(VerifyMemo, BuildMatchesMemoFreeTuningSerialAndSharded) {
  tune::TunerOptions opts;
  opts.size_grid = {32, 64, 256, 2048, 16384};
  opts.refine_top_k = 2;
  opts.bisect_depth = 1;
  opts.threads = 1;
  const std::vector<net::SystemProfile> profiles = {
      net::lumi_profile(), net::leonardo_profile(), net::mn5_profile()};
  const std::vector<i64> nodes = {16, 48};

  tune::BuildReport serial_report;
  const tune::DecisionTable serial =
      tune::Tuner(opts).build(profiles, coll::all_collectives(), nodes, &serial_report);
  EXPECT_EQ(serial_report.cells, static_cast<i64>(profiles.size() *
                                                  coll::all_collectives().size() *
                                                  nodes.size()));
  EXPECT_GT(serial_report.verify_memo_hits, 0);
  EXPECT_GT(serial_report.verified_runs, 0);

  // The oracle: every cell tuned on a fresh Runner with no memo.
  const tune::Tuner oracle(opts);
  for (const net::SystemProfile& profile : profiles)
    for (const Collective coll : coll::all_collectives())
      for (const i64 p : nodes) {
        SCOPED_TRACE(profile.name + "/" + to_string(coll) + " p=" + std::to_string(p));
        harness::Runner fresh(profile, opts.spread_placement, opts.seed);
        const std::vector<tune::SizeInterval>* cell = serial.cell(profile.name, coll, p);
        ASSERT_NE(cell, nullptr);
        EXPECT_EQ(*cell, oracle.tune_cell(fresh, coll, p));
      }

  opts.threads = 4;
  tune::BuildReport sharded_report;
  const tune::DecisionTable sharded =
      tune::Tuner(opts).build(profiles, coll::all_collectives(), nodes, &sharded_report);
  EXPECT_EQ(sharded.dump(), serial.dump());
  EXPECT_GT(sharded_report.verify_memo_hits, 0);
  // The requests are a function of the build, not of its shard width; only
  // their split into runs and hits may move when workers race on a key.
  EXPECT_EQ(sharded_report.verified_runs + sharded_report.verify_memo_hits,
            serial_report.verified_runs + serial_report.verify_memo_hits);
}
