// Fault-injection & graceful-degradation layer tests: the zero-fault
// bit-identity contract, link degradation, failed-rank shrinkage with
// algorithm demotion, executor injection provably caught by verification,
// self-healing sweeps (isolation, transient retries, partial results),
// fault-tolerant tuner builds (verified-run memo isolation included),
// crash-safe artifact emission, quarantine on
// load, spec parsing, and the parallel_for exception regression.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "coll/registry.hpp"
#include "exp/sweep.hpp"
#include "fault/fault.hpp"
#include "harness/parallel.hpp"
#include "harness/runner.hpp"
#include "net/profiles.hpp"
#include "tune/decision_table.hpp"
#include "tune/tuner.hpp"

using namespace bine;
using sched::Collective;

namespace {

// Every Runner consults BINE_FAULT_SPEC at construction; an inherited CI
// spec would degrade the "healthy" halves of the parity tests.
const bool env_cleared = [] {
  unsetenv("BINE_FAULT_SPEC");
  return true;
}();

std::shared_ptr<fault::FaultSpec> make_spec() {
  return std::make_shared<fault::FaultSpec>();
}

net::SystemProfile profile_with(std::shared_ptr<const fault::FaultSpec> spec) {
  net::SystemProfile p = net::lumi_profile();
  p.faults = std::move(spec);
  return p;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool file_exists(const std::string& path) {
  std::ifstream in(path);
  return in.good();
}

}  // namespace

// --- spec basics ------------------------------------------------------------

TEST(FaultSpec, TrivialityAndFingerprint) {
  ASSERT_TRUE(env_cleared);
  fault::FaultSpec spec;
  EXPECT_TRUE(spec.trivial());
  EXPECT_EQ(spec.fingerprint(), 0u);  // 0 is reserved for "healthy"

  spec.degrade_global = 0.5;
  EXPECT_FALSE(spec.trivial());
  EXPECT_NE(spec.fingerprint(), 0u);

  fault::FaultSpec other = spec;
  EXPECT_EQ(other.fingerprint(), spec.fingerprint());
  other.seed = 1;
  EXPECT_NE(other.fingerprint(), spec.fingerprint());

  // A seed alone changes nothing observable -- still trivial.
  fault::FaultSpec seeded;
  seeded.seed = 99;
  EXPECT_TRUE(seeded.trivial());
}

TEST(FaultSpec, DeterministicSampling) {
  fault::FaultSpec spec;
  spec.seed = 7;
  spec.link_outage_fraction = 0.3;
  spec.drop_fraction = 0.25;
  i64 dead = 0;
  for (i64 l = 0; l < 1000; ++l) {
    EXPECT_EQ(spec.link_dead(l), spec.link_dead(l));  // pure function
    dead += spec.link_dead(l) ? 1 : 0;
  }
  // The seeded hash should land near the fraction (law of large numbers
  // with a wide deterministic margin).
  EXPECT_GT(dead, 200);
  EXPECT_LT(dead, 400);

  i64 dropped = 0;
  for (u64 d = 0; d < 1000; ++d) {
    EXPECT_EQ(spec.drop_delivery(3, d), spec.drop_delivery(3, d));
    dropped += spec.drop_delivery(3, d) ? 1 : 0;
  }
  EXPECT_GT(dropped, 150);
  EXPECT_LT(dropped, 350);
  // Zero fractions never fire.
  fault::FaultSpec clean;
  for (u64 d = 0; d < 100; ++d) {
    EXPECT_FALSE(clean.drop_delivery(0, d));
    EXPECT_FALSE(clean.corrupt_delivery(0, d));
  }
  for (i64 l = 0; l < 100; ++l) EXPECT_FALSE(clean.link_dead(l));
}

TEST(FaultSpec, SurvivorRanks) {
  fault::FaultSpec spec;
  spec.failed_ranks = {3, 5, 5, 99};  // duplicates and out-of-range ids allowed
  EXPECT_TRUE(spec.rank_failed(3));
  EXPECT_FALSE(spec.rank_failed(4));
  EXPECT_EQ(spec.survivor_count(8), 6);
  EXPECT_EQ(spec.survivor_ranks(8), (std::vector<Rank>{0, 1, 2, 4, 6, 7}));
}

TEST(FaultSpec, ValidateRejectsOutOfDomain) {
  fault::FaultSpec spec;
  spec.degrade_global = 0.0;  // factors live in (0, 1]
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = {};
  spec.degrade_local = 1.5;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = {};
  spec.drop_fraction = -0.1;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = {};
  spec.failed_ranks = {-1};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = {};
  spec.link_outage_fraction = 1.5;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(FaultSpec, ParseSpecRoundTrip) {
  const auto spec = fault::parse_spec(
      "seed=7,degrade_global=0.5,degrade_local=0.9,degrade_intra=0.95,"
      "outage=0.02,dead_bw=2,drop=0.01,corrupt=0.02,failed=0:3:5,dead_links=1:4");
  ASSERT_NE(spec, nullptr);
  EXPECT_EQ(spec->seed, 7u);
  EXPECT_DOUBLE_EQ(spec->degrade_global, 0.5);
  EXPECT_DOUBLE_EQ(spec->degrade_local, 0.9);
  EXPECT_DOUBLE_EQ(spec->degrade_intra_node, 0.95);
  EXPECT_DOUBLE_EQ(spec->link_outage_fraction, 0.02);
  EXPECT_DOUBLE_EQ(spec->dead_link_bandwidth, 2.0);
  EXPECT_DOUBLE_EQ(spec->drop_fraction, 0.01);
  EXPECT_DOUBLE_EQ(spec->corrupt_fraction, 0.02);
  EXPECT_EQ(spec->failed_ranks, (std::vector<Rank>{0, 3, 5}));
  EXPECT_EQ(spec->dead_links, (std::vector<i64>{1, 4}));

  EXPECT_EQ(fault::parse_spec(""), nullptr);
  EXPECT_THROW((void)fault::parse_spec("nonsense"), std::invalid_argument);
  EXPECT_THROW((void)fault::parse_spec("seed"), std::invalid_argument);
  EXPECT_THROW((void)fault::parse_spec("unknown_key=1"), std::invalid_argument);
  EXPECT_THROW((void)fault::parse_spec("drop=abc"), std::invalid_argument);
  EXPECT_THROW((void)fault::parse_spec("failed=1:x"), std::invalid_argument);
}

// Strict parsing with positions: every rejection names the offending byte
// offset (the tune/json error style), and trailing garbage never passes.
TEST(FaultSpec, ParseSpecReportsBytePositions) {
  const auto fails_at = [](const std::string& spec, const std::string& what,
                           const std::string& at) {
    try {
      (void)fault::parse_spec(spec);
      ADD_FAILURE() << "accepted: " << spec;
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(what), std::string::npos) << spec << " -> " << msg;
      EXPECT_NE(msg.find("at byte " + at), std::string::npos)
          << spec << " -> " << msg;
    }
  };
  fails_at("drop=0.5junk", "trailing garbage", "8");  // after "drop=0.5"
  fails_at("seed=7,drop=0.5 ", "bad number", "12");   // embedded whitespace
  fails_at("seed= 7", "bad integer", "5");
  fails_at("seed=7,", "trailing ','", "7");
  fails_at("seed=7,,drop=0.1", "empty key=value pair", "7");
  fails_at("=7", "empty key", "0");
  fails_at("seed=", "empty value", "5");
  fails_at("seed=7,seed=9", "duplicate key", "7");
  fails_at("seed=7,unknown_key=1", "unknown key", "7");
  fails_at("seed=0x7", "trailing garbage", "6");
  fails_at("failed=1::3", "empty list entry", "9");
  fails_at("drop", "expected key=value", "0");

  // The strict parser still accepts everything the round-trip test feeds it
  // (covered above); spot-check that values at non-zero offsets parse.
  const auto ok = fault::parse_spec("seed=7,drop=0.25");
  ASSERT_NE(ok, nullptr);
  EXPECT_DOUBLE_EQ(ok->drop_fraction, 0.25);
}

TEST(FaultSpec, Classification) {
  const fault::TransientError t("link flap");
  const std::runtime_error p("broken invariant");
  EXPECT_EQ(fault::classify(t), fault::FaultClass::transient);
  EXPECT_EQ(fault::classify(p), fault::FaultClass::permanent);
  EXPECT_STREQ(fault::to_string(fault::FaultClass::transient), "transient");
  try {
    throw fault::TransientError("flap");
  } catch (...) {
    EXPECT_EQ(fault::classify_current_exception(), fault::FaultClass::transient);
    EXPECT_EQ(fault::describe_current_exception(), "flap");
  }
}

// --- zero-fault bit-identity ------------------------------------------------

// A trivial spec must be indistinguishable from no spec at all: every
// registered algorithm, threads 1 and 4, compared bitwise.
TEST(FaultParity, ZeroFaultSpecIsBitIdenticalAcrossRegistry) {
  harness::Runner healthy(net::lumi_profile());
  harness::Runner zero(profile_with(make_spec()));
  ASSERT_EQ(zero.fault_spec(), nullptr);  // trivial -> dropped at construction

  std::vector<std::string> names;
  for (const Collective coll : coll::all_collectives())
    for (const auto& entry : coll::algorithms_for(coll)) {
      if (entry.specialized || !healthy.applicable(entry, 16)) continue;
      for (const i64 size : {4096LL, 65536LL}) {
        names.push_back(entry.name);
        const harness::RunResult a = healthy.run(coll, entry, 16, size);
        const harness::RunResult b = zero.run(coll, entry, 16, size);
        EXPECT_EQ(a.seconds, b.seconds) << entry.name << " size " << size;
        EXPECT_EQ(a.global_bytes, b.global_bytes) << entry.name;
        EXPECT_EQ(a.total_bytes, b.total_bytes) << entry.name;
        EXPECT_EQ(a.messages, b.messages) << entry.name;
        EXPECT_EQ(a.steps, b.steps) << entry.name;
      }
    }
  ASSERT_FALSE(names.empty());

  // Threaded sweep over the same cells, healthy and zero-spec systems side
  // by side: byte-identical too.
  exp::SweepPlan plan;
  plan.systems = {exp::SystemSpec{net::lumi_profile()},
                  exp::SystemSpec{profile_with(make_spec())}};
  plan.colls = {Collective::allreduce, Collective::bcast};
  plan.series = {exp::Series::best_bine(false)};
  plan.nodes.counts = {16};
  plan.sizes = {65536};
  for (const i64 threads : {1LL, 4LL}) {
    plan.threads = threads;
    const exp::SweepResult r = exp::run(plan);
    for (size_t ci = 0; ci < plan.colls.size(); ++ci) {
      EXPECT_EQ(r.at(0, ci, 0, 0, 0).algorithm, r.at(1, ci, 0, 0, 0).algorithm);
      EXPECT_EQ(r.at(0, ci, 0, 0, 0).seconds, r.at(1, ci, 0, 0, 0).seconds);
    }
  }
  EXPECT_TRUE(healthy.degrade_notes().empty());
  EXPECT_TRUE(zero.degrade_notes().empty());
}

// Degraded and healthy runners share the process-wide schedule cache; the
// fault epoch in the key must keep their entries apart -- running one must
// not change what the other computes.
TEST(FaultParity, DegradedRunnerDoesNotContaminateHealthyCache) {
  harness::Runner healthy(net::lumi_profile());
  const auto& algo = coll::recommended_algorithm(Collective::allreduce, 16, 65536);
  const double before = healthy.run(Collective::allreduce, algo, 16, 65536).seconds;

  auto spec = make_spec();
  spec->seed = 11;
  spec->degrade_global = 0.25;
  spec->link_outage_fraction = 0.1;
  harness::Runner degraded(profile_with(spec));
  ASSERT_NE(degraded.fault_spec(), nullptr);
  const double hurt = degraded.run(Collective::allreduce, algo, 16, 65536).seconds;
  EXPECT_GT(hurt, before);  // strictly slower: global links at quarter speed

  const double after = healthy.run(Collective::allreduce, algo, 16, 65536).seconds;
  EXPECT_EQ(before, after);
}

// --- link degradation -------------------------------------------------------

TEST(FaultDegrade, BandwidthDegradationSlowsEveryCell) {
  harness::Runner healthy(net::lumi_profile());
  auto spec = make_spec();
  spec->degrade_global = 0.5;
  spec->degrade_local = 0.9;
  harness::Runner degraded(profile_with(spec));

  for (const i64 size : {4096LL, 1048576LL}) {
    const auto& algo = coll::recommended_algorithm(Collective::allreduce, 32, size);
    const double h = healthy.run(Collective::allreduce, algo, 32, size).seconds;
    const double d = degraded.run(Collective::allreduce, algo, 32, size).seconds;
    EXPECT_GT(d, h) << "size " << size;
  }
}

TEST(FaultDegrade, ExplicitDeadLinksAreSevered) {
  auto spec = make_spec();
  spec->dead_links = {0};
  spec->dead_link_bandwidth = 1.0;  // ~1 B/s residual: enormous but finite
  harness::Runner degraded(profile_with(spec));
  const auto& algo = coll::recommended_algorithm(Collective::allreduce, 16, 4096);
  const harness::RunResult r = degraded.run(Collective::allreduce, algo, 16, 4096);
  EXPECT_TRUE(std::isfinite(r.seconds));

  harness::Runner healthy(net::lumi_profile());
  const harness::RunResult h = healthy.run(Collective::allreduce, algo, 16, 4096);
  EXPECT_GE(r.seconds, h.seconds);
}

// --- failed ranks & graceful degradation ------------------------------------

TEST(FaultRanks, CollectivesRebuildOverSurvivors) {
  auto spec = make_spec();
  spec->failed_ranks = {3, 5};
  harness::Runner r(profile_with(spec));
  EXPECT_EQ(r.effective_ranks(16), 14);

  // The communicator shrank to 14: verified execution must still pass --
  // the collective runs over the survivors, not the original 16.
  const auto& algo = coll::recommended_algorithm(Collective::allreduce, 14, 4096);
  const harness::VerifiedRun v =
      r.run_verified(Collective::allreduce, algo, 16, 4096, 1);
  EXPECT_TRUE(v.ok) << v.error;
}

TEST(FaultRanks, NonShrinkableAlgorithmIsDemotedWithNote) {
  const coll::AlgorithmEntry* pow2_algo = nullptr;
  for (const auto& entry : coll::algorithms_for(Collective::allreduce))
    if (entry.pow2_only && !entry.specialized) { pow2_algo = &entry; break; }
  ASSERT_NE(pow2_algo, nullptr) << "registry lost all pow2-only allreduces?";

  auto spec = make_spec();
  spec->failed_ranks = {0};  // 16 -> 15 survivors: not a power of two
  harness::Runner r(profile_with(spec));
  EXPECT_EQ(r.effective_ranks(16), 15);
  EXPECT_FALSE(r.applicable(*pow2_algo, 16));

  // Asking for the pow2-only algorithm anyway must degrade gracefully: the
  // cell runs the heuristic recommendation and records a clear note.
  const harness::RunResult res = r.run(Collective::allreduce, *pow2_algo, 16, 4096);
  EXPECT_GT(res.seconds, 0.0);
  const std::vector<std::string> notes = r.degrade_notes();
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_NE(notes[0].find(pow2_algo->name), std::string::npos) << notes[0];
  EXPECT_NE(notes[0].find("demoted"), std::string::npos) << notes[0];

  // Same demotion again: the note stays deduplicated.
  (void)r.run(Collective::allreduce, *pow2_algo, 16, 8192);
  EXPECT_EQ(r.degrade_notes().size(), 1u);
}

TEST(FaultRanks, FewerThanTwoSurvivorsThrows) {
  auto spec = make_spec();
  for (Rank i = 0; i < 15; ++i) spec->failed_ranks.push_back(i);
  harness::Runner r(profile_with(spec));
  EXPECT_THROW((void)r.effective_ranks(16), std::runtime_error);
}

// --- executor injection -----------------------------------------------------

TEST(FaultInject, DroppedDeliveriesAreCaughtByVerification) {
  auto spec = make_spec();
  spec->seed = 3;
  spec->drop_fraction = 0.9;
  harness::Runner r(profile_with(spec));
  const auto& algo = coll::recommended_algorithm(Collective::allreduce, 16, 65536);
  const harness::VerifiedRun v =
      r.run_verified(Collective::allreduce, algo, 16, 65536, 1);
  EXPECT_FALSE(v.ok);  // 90% of deliveries discarded: provably detected
}

TEST(FaultInject, CorruptedDeliveriesAreCaughtByVerification) {
  auto spec = make_spec();
  spec->seed = 3;
  spec->corrupt_fraction = 1.0;
  harness::Runner r(profile_with(spec));
  const auto& algo = coll::recommended_algorithm(Collective::allreduce, 16, 65536);
  const harness::VerifiedRun v =
      r.run_verified(Collective::allreduce, algo, 16, 65536, 1);
  EXPECT_FALSE(v.ok);
}

TEST(FaultInject, InjectionIsThreadCountInvariant) {
  auto spec = make_spec();
  spec->seed = 5;
  spec->drop_fraction = 0.05;
  harness::Runner r(profile_with(spec));
  const auto& algo = coll::recommended_algorithm(Collective::allreduce, 16, 262144);
  const harness::VerifiedRun v1 =
      r.run_verified(Collective::allreduce, algo, 16, 262144, 1);
  const harness::VerifiedRun v4 =
      r.run_verified(Collective::allreduce, algo, 16, 262144, 4);
  // The (step, delivery) hash decides injection, not scheduling: both thread
  // counts see the same faults and reach the same verdict.
  EXPECT_EQ(v1.ok, v4.ok);
  EXPECT_EQ(v1.error, v4.error);
}

// --- self-healing sweeps ----------------------------------------------------

namespace {

exp::SweepPlan failing_plan(std::atomic<int>* attempts, int fail_nodes) {
  exp::SweepPlan plan;
  plan.name = "fault_isolation";
  plan.backend = exp::Backend::custom;
  plan.systems.emplace_back(net::lumi_profile());
  plan.colls = {Collective::allreduce};
  plan.series.push_back(exp::Series::best_of("probe", {}));
  plan.nodes.counts = {8, fail_nodes, 32};
  plan.sizes = {1024};
  plan.threads = 1;
  plan.metric = [attempts, fail_nodes](const exp::CellCtx& ctx) -> exp::Metrics {
    if (ctx.nodes == fail_nodes) {
      ++*attempts;
      throw std::runtime_error("injected permanent failure");
    }
    exp::Metrics m;
    m.value = static_cast<double>(ctx.nodes);
    return m;
  };
  return plan;
}

}  // namespace

TEST(FaultSweep, PropagateIsTheDefaultContract) {
  std::atomic<int> attempts{0};
  const exp::SweepPlan plan = failing_plan(&attempts, 16);
  EXPECT_EQ(plan.on_error, exp::SweepPlan::OnError::propagate);
  EXPECT_THROW((void)exp::run(plan), std::runtime_error);
  EXPECT_EQ(attempts.load(), 1);  // permanent: never retried
}

TEST(FaultSweep, IsolateYieldsPartialResultWithStructuredErrors) {
  std::atomic<int> attempts{0};
  exp::SweepPlan plan = failing_plan(&attempts, 16);
  plan.on_error = exp::SweepPlan::OnError::isolate;
  const exp::SweepResult res = exp::run(plan);

  ASSERT_EQ(res.errors.size(), 1u);
  EXPECT_EQ(res.errors[0].nodes, 16);
  EXPECT_EQ(res.errors[0].system, "lumi");
  EXPECT_EQ(res.errors[0].coll, Collective::allreduce);
  EXPECT_EQ(res.errors[0].attempts, 1);
  EXPECT_FALSE(res.errors[0].transient);
  EXPECT_NE(res.errors[0].message.find("injected permanent failure"),
            std::string::npos);

  // The healthy cells completed; the failed cell's rows are flagged.
  int failed_rows = 0, ok_rows = 0;
  for (const exp::Row& row : res.rows) {
    if (row.m.failed) {
      ++failed_rows;
      EXPECT_EQ(row.nodes, 16);
      EXPECT_FALSE(row.m.error.empty());
    } else {
      ++ok_rows;
      EXPECT_EQ(row.m.value, static_cast<double>(row.nodes));
    }
  }
  EXPECT_EQ(failed_rows, 1);
  EXPECT_EQ(ok_rows, 2);

  // The JSON carries both the flagged rows and the errors array.
  const std::string json = res.to_json();
  EXPECT_NE(json.find("\"failed\": true"), std::string::npos);
  EXPECT_NE(json.find("\"errors\": ["), std::string::npos);
  EXPECT_NE(json.find("injected permanent failure"), std::string::npos);
}

TEST(FaultSweep, TransientFailuresRetryDeterministically) {
  std::atomic<int> attempts{0};
  exp::SweepPlan plan;
  plan.name = "transient_retry";
  plan.backend = exp::Backend::custom;
  plan.systems.emplace_back(net::lumi_profile());
  plan.colls = {Collective::allreduce};
  plan.series.push_back(exp::Series::best_of("probe", {}));
  plan.nodes.counts = {8};
  plan.sizes = {1024};
  plan.threads = 1;
  plan.on_error = exp::SweepPlan::OnError::isolate;
  plan.transient_retries = 3;
  plan.metric = [&attempts](const exp::CellCtx&) -> exp::Metrics {
    if (++attempts <= 2) throw fault::TransientError("link flap");
    return {};
  };

  const exp::SweepResult res = exp::run(plan);
  EXPECT_TRUE(res.errors.empty());  // healed within the retry budget
  EXPECT_EQ(attempts.load(), 3);    // 2 flaps + 1 success

  // Exhausted budget: the error row records every attempt and the class.
  attempts = 0;
  plan.transient_retries = 1;
  plan.metric = [&attempts](const exp::CellCtx&) -> exp::Metrics {
    ++attempts;
    throw fault::TransientError("link flap");
  };
  const exp::SweepResult worn = exp::run(plan);
  ASSERT_EQ(worn.errors.size(), 1u);
  EXPECT_EQ(worn.errors[0].attempts, 2);  // initial try + 1 retry
  EXPECT_TRUE(worn.errors[0].transient);
  EXPECT_EQ(attempts.load(), 2);
}

// Retry accounting is deterministic across shard widths: with a doubling
// backoff configured, serial and 4-way sharded runs of the same
// always-transient plan record identical attempt counts, error rows and
// serialized JSON.
TEST(FaultSweep, RetryAccountingIsShardInvariant) {
  std::string reference_json;
  std::vector<i64> reference_attempts;
  for (const i64 threads : {i64{1}, i64{4}}) {
    std::atomic<int> calls{0};
    exp::SweepPlan plan;
    plan.name = "retry_determinism";
    plan.backend = exp::Backend::custom;
    plan.systems.emplace_back(net::lumi_profile());
    plan.colls = {Collective::allreduce};
    plan.series.push_back(exp::Series::best_of("probe", {}));
    plan.nodes.counts = {8, 16, 32};
    plan.sizes = {1024};
    plan.threads = threads;
    plan.on_error = exp::SweepPlan::OnError::isolate;
    plan.transient_retries = 2;
    plan.retry_backoff_ms = 1;  // doubling backoff may not perturb accounting
    plan.metric = [&calls](const exp::CellCtx& ctx) -> exp::Metrics {
      ++calls;
      if (ctx.nodes != 8) throw fault::TransientError("flap");
      return {};
    };

    const exp::SweepResult res = exp::run(plan);
    ASSERT_EQ(res.errors.size(), 2u) << "threads=" << threads;
    std::vector<i64> attempts;
    for (const exp::CellError& e : res.errors) {
      EXPECT_TRUE(e.transient);
      attempts.push_back(e.attempts);
    }
    EXPECT_EQ(calls.load(), 1 + 2 * 3);  // 1 clean + 2 cells x (1 try + 2 retries)
    int failed_rows = 0;
    for (const exp::Row& row : res.rows)
      if (row.m.failed) ++failed_rows;
    EXPECT_EQ(failed_rows, 2);

    const std::string json = res.to_json();
    if (reference_json.empty()) {
      reference_json = json;
      reference_attempts = attempts;
    } else {
      EXPECT_EQ(json, reference_json) << "threads=" << threads;
      EXPECT_EQ(attempts, reference_attempts) << "threads=" << threads;
    }
  }
  EXPECT_EQ(reference_attempts, (std::vector<i64>{3, 3}));
}

// A clean isolate-mode run must serialize byte-identically to a propagate
// run: the fault machinery may not perturb fault-free output.
TEST(FaultSweep, CleanIsolateRunMatchesPropagateByteForByte) {
  exp::SweepPlan plan;
  plan.name = "clean";
  plan.systems.emplace_back(net::lumi_profile());
  plan.colls = {Collective::allreduce};
  plan.series.push_back(exp::Series::binomial_baseline());
  plan.nodes.counts = {8, 16};
  plan.sizes = {1024, 65536};
  plan.threads = 1;

  const std::string propagate_json = exp::run(plan).to_json();
  plan.on_error = exp::SweepPlan::OnError::isolate;
  plan.transient_retries = 2;
  const std::string isolate_json = exp::run(plan).to_json();
  EXPECT_EQ(propagate_json, isolate_json);
  EXPECT_EQ(propagate_json.find("\"errors\""), std::string::npos);
}

// --- fault-tolerant tuner builds --------------------------------------------

TEST(FaultTuner, BuildSurvivesFailedCellsWithReport) {
  // The degraded profile's 16-node cells die permanently: only one rank
  // survives. The healthy profile's cells must still be tuned.
  auto spec = make_spec();
  for (Rank i = 0; i < 15; ++i) spec->failed_ranks.push_back(i);
  net::SystemProfile broken = profile_with(std::move(spec));
  broken.name = "lumi_broken";

  tune::TunerOptions opts;
  opts.size_grid = {1024, 65536};
  opts.threads = 1;
  opts.tolerate_failed_cells = true;

  tune::BuildReport report;
  const tune::DecisionTable table =
      tune::Tuner(opts).build({net::lumi_profile(), broken},
                              {Collective::allreduce}, {16}, &report);
  EXPECT_EQ(report.cells, 1);
  EXPECT_EQ(report.failed_cells, 1);
  ASSERT_EQ(report.notes.size(), 1u);
  EXPECT_NE(report.notes[0].find("lumi_broken"), std::string::npos);
  EXPECT_NE(report.notes[0].find("excluded cell"), std::string::npos);
  EXPECT_NE(table.cell("lumi", Collective::allreduce, 16), nullptr);
  EXPECT_EQ(table.cell("lumi_broken", Collective::allreduce, 16), nullptr);

  // Default discipline: the same build propagates instead.
  opts.tolerate_failed_cells = false;
  EXPECT_THROW((void)tune::Tuner(opts).build({net::lumi_profile(), broken},
                                             {Collective::allreduce}, {16}),
               std::runtime_error);

  // All cells failing is never a usable table, tolerant or not.
  opts.tolerate_failed_cells = true;
  EXPECT_THROW(
      (void)tune::Tuner(opts).build({broken}, {Collective::allreduce}, {16}),
      std::runtime_error);
}

// The build's verified-run memo never crosses machine states. A twin with
// executor drop/corrupt injection bypasses it, so built beside a healthy
// profile the twin tunes, fails and reports exactly as it does alone, and the
// healthy profile's memo hits are the build's only ones.
TEST(FaultTuner, InjectedTwinBypassesVerifyMemo) {
  auto spec = make_spec();
  spec->seed = 11;
  spec->drop_fraction = 0.002;
  spec->corrupt_fraction = 0.002;
  net::SystemProfile twin = profile_with(std::move(spec));
  twin.name = "lumi_injected";

  tune::TunerOptions opts;
  opts.size_grid = {32, 64, 2048, 16384};
  opts.refine_top_k = 2;
  opts.threads = 1;
  opts.tolerate_failed_cells = true;
  const std::vector<Collective> colls = {Collective::allreduce, Collective::allgather,
                                         Collective::alltoall};
  const std::vector<i64> nodes = {16, 32};
  const tune::Tuner tuner(opts);

  tune::BuildReport both_report, twin_report, healthy_report;
  const tune::DecisionTable both =
      tuner.build({net::lumi_profile(), twin}, colls, nodes, &both_report);
  const tune::DecisionTable solo = tuner.build({twin}, colls, nodes, &twin_report);
  const tune::DecisionTable healthy =
      tuner.build({net::lumi_profile()}, colls, nodes, &healthy_report);
  for (const Collective coll : colls)
    for (const i64 p : nodes) {
      SCOPED_TRACE(std::string(to_string(coll)) + " p=" + std::to_string(p));
      const auto* got = both.cell(twin.name, coll, p);
      const auto* want = solo.cell(twin.name, coll, p);
      ASSERT_EQ(got == nullptr, want == nullptr);
      if (got != nullptr) {
        EXPECT_EQ(*got, *want);
      }
      ASSERT_NE(both.cell("lumi", coll, p), nullptr);
      EXPECT_EQ(*both.cell("lumi", coll, p), *healthy.cell("lumi", coll, p));
    }
  EXPECT_GT(twin_report.failed_cells, 0) << "injection too weak to fail any cell";
  EXPECT_EQ(both_report.failed_cells, twin_report.failed_cells);
  EXPECT_EQ(both_report.notes, twin_report.notes);
  EXPECT_EQ(twin_report.verify_memo_hits, 0);
  EXPECT_EQ(both_report.verify_memo_hits, healthy_report.verify_memo_hits);
}

// Fault demotion keys on the byte size, not on elem_count: at 15 survivors a
// pow2-only allreduce is demoted to bine_small at 64 KiB and to
// bine_two_trans one byte above, and both sizes execute 16384 elements. The
// memo keys on the demoted algorithm, so it never serves one for the other.
TEST(FaultTuner, VerifyMemoKeysOnDemotedAlgorithm) {
  auto spec = make_spec();
  spec->failed_ranks = {0};  // 16 -> 15 survivors: not a power of two
  net::SystemProfile shrunk = profile_with(std::move(spec));
  shrunk.name = "lumi_shrunk";
  const coll::AlgorithmEntry* pow2_algo = nullptr;
  for (const auto& entry : coll::algorithms_for(Collective::allreduce))
    if (entry.pow2_only && !entry.specialized) { pow2_algo = &entry; break; }
  ASSERT_NE(pow2_algo, nullptr);
  const i64 small = 65536, large = 65537;

  harness::Runner fresh(shrunk);
  const harness::VerifiedRun want_small =
      fresh.run_verified(Collective::allreduce, *pow2_algo, 16, small, 1);
  const harness::VerifiedRun want_large =
      fresh.run_verified(Collective::allreduce, *pow2_algo, 16, large, 1);
  ASSERT_TRUE(want_small.ok) << want_small.error;
  ASSERT_TRUE(want_large.ok) << want_large.error;
  ASSERT_TRUE(want_small.messages != want_large.messages ||
              want_small.wire_bytes != want_large.wire_bytes)
      << "the two demotions no longer differ; pick sizes that tell them apart";

  harness::VerifyMemo memo;
  harness::Runner shared(shrunk);
  for (const i64 size : {small, large, small, large}) {
    const harness::VerifiedRun got = shared.run_verified(
        Collective::allreduce, *pow2_algo, 16, size, 1, runtime::ElemType::u32,
        runtime::ReduceOp::sum, &memo);
    const harness::VerifiedRun& want = size == small ? want_small : want_large;
    EXPECT_EQ(got.messages, want.messages);
    EXPECT_EQ(got.wire_bytes, want.wire_bytes);
    EXPECT_EQ(got.digest, want.digest);
  }
  EXPECT_EQ(memo.runs(), 2);
  EXPECT_EQ(memo.hits(), 2);

  // The same holds for whole cells: built beside the healthy machine, the
  // shrunk profile's table equals its solo build's.
  tune::TunerOptions opts;
  opts.size_grid = {32, 4096, small, large, 1 << 20};
  opts.refine_top_k = 2;
  opts.threads = 1;
  const tune::Tuner tuner(opts);
  const std::vector<Collective> colls = {Collective::allreduce, Collective::reduce_scatter};
  const tune::DecisionTable both = tuner.build({net::lumi_profile(), shrunk}, colls, {16});
  const tune::DecisionTable solo = tuner.build({shrunk}, colls, {16});
  for (const Collective coll : colls) {
    ASSERT_NE(solo.cell(shrunk.name, coll, 16), nullptr);
    ASSERT_NE(both.cell(shrunk.name, coll, 16), nullptr);
    EXPECT_EQ(*both.cell(shrunk.name, coll, 16), *solo.cell(shrunk.name, coll, 16))
        << to_string(coll);
  }
}

TEST(FaultTuner, ProfileFingerprintIsFaultAware) {
  const net::SystemProfile healthy = net::lumi_profile();
  const u64 base = tune::profile_fingerprint(healthy);

  // Trivial spec: fingerprint unchanged (fault-free identity).
  EXPECT_EQ(tune::profile_fingerprint(profile_with(make_spec())), base);

  auto spec = make_spec();
  spec->degrade_global = 0.5;
  EXPECT_NE(tune::profile_fingerprint(profile_with(spec)), base);
}

// --- crash-safe artifacts ---------------------------------------------------

TEST(FaultAtomic, UncommittedWriteLeavesTargetIntact) {
  const std::string path = "fault_atomic_test.json";
  fault::write_file_atomic(path, "original content\n");
  ASSERT_EQ(read_file(path), "original content\n");

  std::string temp;
  {
    // Simulated crash: write without commit, then destroy.
    fault::AtomicFile f(path);
    ASSERT_TRUE(static_cast<bool>(f));
    temp = f.temp_path();
    std::fputs("torn half-wri", f.handle());
  }
  EXPECT_EQ(read_file(path), "original content\n");  // target untouched
  EXPECT_FALSE(file_exists(temp));                   // temp discarded

  // Committed write atomically replaces.
  {
    fault::AtomicFile f(path);
    ASSERT_TRUE(static_cast<bool>(f));
    std::fputs("new content\n", f.handle());
    EXPECT_TRUE(f.commit());
    EXPECT_FALSE(file_exists(f.temp_path()));
  }
  EXPECT_EQ(read_file(path), "new content\n");
  std::remove(path.c_str());
}

TEST(FaultAtomic, OpenFailureIsFalsy) {
  fault::AtomicFile f("no_such_dir_xyz/artifact.json");
  EXPECT_FALSE(static_cast<bool>(f));
  EXPECT_EQ(f.handle(), nullptr);
  EXPECT_THROW(fault::write_file_atomic("no_such_dir_xyz/artifact.json", "x"),
               std::runtime_error);
}

TEST(FaultAtomic, DecisionTableSaveLoadRoundTrip) {
  tune::DecisionTable table;
  table.set_profile("lumi", 0x1234u);
  // A registered algorithm name, so the load path round-trips instead of
  // demoting an unknown one.
  const std::string algo =
      coll::recommended_algorithm(Collective::allreduce, 16, 1024).name;
  table.set_cell(tune::CellKey{"lumi", Collective::allreduce, 16},
                 {{0, tune::kNoUpperBound, algo}});
  const std::string path = "fault_table_roundtrip.json";
  table.save(path);
  EXPECT_EQ(tune::DecisionTable::load(path), table);

  // load_or_quarantine on the good file: same table, no quarantine.
  tune::LoadReport rep;
  const auto loaded = tune::DecisionTable::load_or_quarantine(path, &rep);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, table);
  EXPECT_FALSE(file_exists(path + ".corrupt"));
  std::remove(path.c_str());
}

TEST(FaultAtomic, CorruptTableIsQuarantinedOnLoad) {
  const std::string path = "fault_table_corrupt.json";
  fault::write_file_atomic(path, "{\"format\": \"bine-decision-table\", tor");

  tune::LoadReport rep;
  const auto loaded = tune::DecisionTable::load_or_quarantine(path, &rep);
  EXPECT_FALSE(loaded.has_value());
  EXPECT_FALSE(file_exists(path));                 // damage moved aside...
  EXPECT_TRUE(file_exists(path + ".corrupt"));     // ...not deleted: evidence
  ASSERT_FALSE(rep.notes.empty());
  EXPECT_NE(rep.notes.back().find("quarantined"), std::string::npos);

  // Hard load still throws (the strict path is unchanged).
  EXPECT_THROW((void)tune::DecisionTable::load(path), std::runtime_error);

  // Missing file: nullopt with a note, nothing quarantined.
  tune::LoadReport rep2;
  const auto missing =
      tune::DecisionTable::load_or_quarantine("absent_table.json", &rep2);
  EXPECT_FALSE(missing.has_value());
  ASSERT_FALSE(rep2.notes.empty());
  EXPECT_NE(rep2.notes.back().find("no decision table"), std::string::npos);
  EXPECT_FALSE(file_exists("absent_table.json.corrupt"));
  std::remove((path + ".corrupt").c_str());
}

// --- env spec ---------------------------------------------------------------

TEST(FaultEnv, RunnerPicksUpSpecFromEnvironment) {
  setenv("BINE_FAULT_SPEC", "seed=7,degrade_global=0.5", 1);
  harness::Runner r(net::lumi_profile());
  unsetenv("BINE_FAULT_SPEC");
  ASSERT_NE(r.fault_spec(), nullptr);
  EXPECT_EQ(r.fault_spec()->seed, 7u);
  EXPECT_DOUBLE_EQ(r.fault_spec()->degrade_global, 0.5);

  // A trivial env spec is dropped exactly like a trivial profile spec.
  setenv("BINE_FAULT_SPEC", "seed=9,degrade_global=1.0", 1);
  harness::Runner r2(net::lumi_profile());
  unsetenv("BINE_FAULT_SPEC");
  EXPECT_EQ(r2.fault_spec(), nullptr);

  // The profile's own spec wins over the environment.
  setenv("BINE_FAULT_SPEC", "seed=7,degrade_global=0.5", 1);
  auto spec = make_spec();
  spec->degrade_local = 0.75;
  harness::Runner r3(profile_with(spec));
  unsetenv("BINE_FAULT_SPEC");
  ASSERT_NE(r3.fault_spec(), nullptr);
  EXPECT_DOUBLE_EQ(r3.fault_spec()->degrade_local, 0.75);
  EXPECT_DOUBLE_EQ(r3.fault_spec()->degrade_global, 1.0);
}

// --- parallel_for regression ------------------------------------------------

// The sweep layers' isolation guarantees sit on parallel_for's exception
// contract: exactly one failure propagates, workers stop taking new work,
// and the serial path behaves identically.
TEST(FaultParallelFor, ExceptionContract) {
  // Serial path (threads=1) propagates too.
  EXPECT_THROW(
      harness::parallel_for(8, [](i64 i) {
        if (i == 3) throw std::runtime_error("serial boom");
      }, 1),
      std::runtime_error);

  // Every index throwing concurrently: exactly one exception surfaces, the
  // rest are swallowed without crashing or deadlocking.
  std::atomic<int> thrown{0};
  try {
    harness::parallel_for(
        128,
        [&](i64 i) {
          ++thrown;
          throw std::runtime_error("boom " + std::to_string(i));
        },
        8);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
  }
  EXPECT_GE(thrown.load(), 1);

  // Non-std payloads propagate as-is.
  EXPECT_THROW(harness::parallel_for(4, [](i64) { throw 42; }, 2), int);

  // After a failure the pool stops handing out work: far fewer than n
  // indices run when the first one throws immediately.
  std::atomic<int> ran{0};
  try {
    harness::parallel_for(
        1 << 20,
        [&](i64) {
          ++ran;
          throw std::runtime_error("early");
        },
        4);
  } catch (const std::runtime_error&) {
  }
  EXPECT_LT(ran.load(), 1 << 20);
}
