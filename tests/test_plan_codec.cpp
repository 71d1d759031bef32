// Plan-codec tests: the canonical JSON wire schema of exp::SweepPlan -- the
// request format of the selection service's sweep jobs. Covered: byte-stable
// round-trips (dump -> parse -> dump identical) across every serializable
// knob, plan_fingerprint survival, the non-serializable subset (custom
// backends, hand-tweaked profiles) rejected at serialize time, and a fuzz
// battery of malformed documents that must all fail strict parsing rather
// than silently run a different experiment.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "exp/plan_codec.hpp"
#include "exp/sweep.hpp"
#include "fault/fault.hpp"
#include "net/profiles.hpp"
#include "tune/decision_table.hpp"

using namespace bine;
using sched::Collective;

namespace {

exp::SweepPlan minimal_plan() {
  exp::SweepPlan plan;
  plan.name = "minimal";
  plan.systems = {exp::SystemSpec{net::lumi_profile()}};
  plan.colls = {Collective::allreduce};
  plan.series = {exp::Series::best_bine(false)};
  plan.nodes.counts = {16};
  plan.sizes = {1024};
  return plan;
}

/// Every serializable knob set away from its default.
exp::SweepPlan full_plan() {
  exp::SweepPlan plan;
  plan.name = "full \"quoted\" plan";

  exp::SystemSpec lumi{net::lumi_profile()};
  lumi.spread_placement = false;
  lumi.seed = 7;

  exp::SystemSpec fugaku{net::profile_by_name("fugaku", {4, 4, 8})};
  fugaku.torus_dims = {4, 4, 8};

  exp::SystemSpec degraded{net::leonardo_profile()};
  {
    auto parsed = fault::parse_spec("seed=9,degrade_global=0.5");
    degraded.profile.faults = parsed;
  }

  plan.systems = {lumi, fugaku, degraded};
  plan.colls = {Collective::allreduce, Collective::allgather,
                Collective::reduce_scatter};
  plan.series = {exp::Series::best_bine(true, "bine_contig"),
                 exp::Series::best_sota(),
                 exp::Series::single("ring"),
                 exp::Series::tuned(),
                 exp::Series::best_of("pair", {"ring", "rabenseifner"})};
  plan.nodes.counts = {16, 64};
  plan.nodes.extra_counts = {256};
  plan.nodes.extra_colls = {Collective::allreduce};
  plan.sizes = {1024, 1 << 20};
  plan.backend = exp::Backend::execute_verified;
  plan.elem = runtime::ElemType::f64;
  plan.op = runtime::ReduceOp::max;
  plan.exec_threads = 2;
  plan.miss_policy = tune::MissPolicy::error;
  plan.threads = 3;
  plan.on_error = exp::SweepPlan::OnError::isolate;
  plan.transient_retries = 2;
  plan.retry_backoff_ms = 5;
  plan.journal_salt = 0xdeadbeefcafe1234ull;
  plan.cell_deadline_ms = 60000;
  return plan;
}

void expect_plans_equal(const exp::SweepPlan& a, const exp::SweepPlan& b) {
  // Field-by-field equality through the canonical emission: two plans whose
  // dumps match are equal on every serialized knob by construction.
  EXPECT_EQ(exp::plan_to_json(a), exp::plan_to_json(b));
}

}  // namespace

TEST(PlanCodec, MinimalRoundTrip) {
  const exp::SweepPlan plan = minimal_plan();
  const std::string json = exp::plan_to_json(plan);
  const exp::SweepPlan back = exp::plan_from_json(json);
  EXPECT_EQ(exp::plan_to_json(back), json);
  expect_plans_equal(plan, back);
}

TEST(PlanCodec, FullRoundTripIsByteStable) {
  const exp::SweepPlan plan = full_plan();
  const std::string json = exp::plan_to_json(plan);
  const exp::SweepPlan back = exp::plan_from_json(json);
  EXPECT_EQ(exp::plan_to_json(back), json);

  // Spot-check the knobs that travel through non-trivial encodings.
  ASSERT_EQ(back.systems.size(), 3u);
  EXPECT_EQ(back.systems[0].profile.name, "lumi");
  EXPECT_FALSE(back.systems[0].spread_placement);
  EXPECT_EQ(back.systems[0].seed, 7u);
  EXPECT_EQ(back.systems[1].profile.dims, (std::vector<i64>{4, 4, 8}));
  EXPECT_EQ(back.systems[1].torus_dims, (std::vector<i64>{4, 4, 8}));
  ASSERT_TRUE(back.systems[2].profile.faults != nullptr);
  EXPECT_EQ(fault::spec_to_string(*back.systems[2].profile.faults),
            "seed=9,degrade_global=0.5");
  ASSERT_EQ(back.series.size(), 5u);
  EXPECT_TRUE(back.series[0].contiguous_only);
  EXPECT_EQ(back.series[2].pick, exp::Series::Pick::single);
  EXPECT_EQ(back.series[2].algorithms, (std::vector<std::string>{"ring"}));
  EXPECT_EQ(back.series[3].pick, exp::Series::Pick::tuned);
  EXPECT_EQ(back.nodes.extra_colls, (std::vector<Collective>{Collective::allreduce}));
  EXPECT_EQ(back.backend, exp::Backend::execute_verified);
  EXPECT_EQ(back.elem, runtime::ElemType::f64);
  EXPECT_EQ(back.op, runtime::ReduceOp::max);
  EXPECT_EQ(back.miss_policy, tune::MissPolicy::error);
  EXPECT_EQ(back.journal_salt, 0xdeadbeefcafe1234ull);
  EXPECT_EQ(back.cell_deadline_ms, 60000);

  // Seeds travel as hex strings, so the whole u64 range round-trips.
  for (const u64 seed : {u64{0}, u64{42}, u64{1} << 63, ~u64{0}}) {
    exp::SweepPlan seeded = full_plan();
    seeded.systems[0].seed = seed;
    const std::string text = exp::plan_to_json(seeded);
    const exp::SweepPlan again = exp::plan_from_json(text);
    EXPECT_EQ(again.systems[0].seed, seed);
    EXPECT_EQ(exp::plan_to_json(again), text);
  }
}

// Tuning a missed cell is the service's job, not a plan policy: the retired
// "tune_on_miss" name is rejected like any unknown one.
TEST(PlanCodec, TuneOnMissPolicyIsRejected) {
  std::string doc = exp::plan_to_json(minimal_plan());
  const std::string from = "\"heuristic_default\"";
  const size_t at = doc.find(from);
  ASSERT_NE(at, std::string::npos);
  doc.replace(at, from.size(), "\"tune_on_miss\"");
  EXPECT_THROW((void)exp::plan_from_json(doc), std::invalid_argument);
}

TEST(PlanCodec, FingerprintSurvivesRoundTrip) {
  for (const exp::SweepPlan& plan : {minimal_plan(), full_plan()}) {
    const exp::SweepPlan back = exp::plan_from_json(exp::plan_to_json(plan));
    EXPECT_EQ(exp::plan_fingerprint(back), exp::plan_fingerprint(plan));
  }
}

TEST(PlanCodec, EqualPlansSerializeIdentically) {
  EXPECT_EQ(exp::plan_to_json(full_plan()), exp::plan_to_json(full_plan()));
}

TEST(PlanCodec, ExcludedFieldsDoNotTravel) {
  exp::SweepPlan plan = minimal_plan();
  tune::DecisionTable table;
  harness::CancelToken cancel;
  plan.table = &table;
  plan.cancel = &cancel;
  plan.journal_path = "somewhere.bj";
  plan.progress = [](size_t, size_t) {};

  const exp::SweepPlan back = exp::plan_from_json(exp::plan_to_json(plan));
  EXPECT_EQ(back.table, nullptr);
  EXPECT_EQ(back.cancel, nullptr);
  EXPECT_TRUE(back.journal_path.empty());
  EXPECT_FALSE(back.progress);
  EXPECT_FALSE(back.metric);
}

TEST(PlanCodec, CustomBackendRefusesToSerialize) {
  exp::SweepPlan plan = minimal_plan();
  plan.backend = exp::Backend::custom;
  EXPECT_THROW(exp::plan_to_json(plan), std::invalid_argument);

  exp::SweepPlan with_metric = minimal_plan();
  with_metric.metric = [](const exp::CellCtx&) { return exp::Metrics{}; };
  EXPECT_THROW(exp::plan_to_json(with_metric), std::invalid_argument);
}

TEST(PlanCodec, TweakedProfileRefusesToSerialize) {
  // A hand-modified cost model must not serialize by name: the receiver
  // would rebuild a different machine and silently compute different cells.
  exp::SweepPlan plan = minimal_plan();
  plan.systems[0].profile.cost.alpha_global *= 2.0;
  EXPECT_THROW(exp::plan_to_json(plan), std::invalid_argument);
}

TEST(PlanCodec, FaultyProfileRoundTripsByFingerprint) {
  exp::SweepPlan plan = minimal_plan();
  plan.systems[0].profile.faults = fault::parse_spec("seed=3,drop=0.25");
  const exp::SweepPlan back = exp::plan_from_json(exp::plan_to_json(plan));
  EXPECT_EQ(tune::profile_fingerprint(back.systems[0].profile),
            tune::profile_fingerprint(plan.systems[0].profile));
}

// --- fuzz negatives ---------------------------------------------------------

namespace {

/// One malformed document per failure mode; every one must throw.
std::vector<std::pair<std::string, std::string>> bad_documents() {
  const std::string good = exp::plan_to_json(minimal_plan());
  const auto replaced = [&good](const std::string& from, const std::string& to) {
    std::string out = good;
    const size_t at = out.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    out.replace(at, from.size(), to);
    return out;
  };
  std::vector<std::pair<std::string, std::string>> docs;
  docs.emplace_back("not json", "{nope");
  docs.emplace_back("not an object", "[1, 2]");
  docs.emplace_back("trailing garbage", good + "x");
  docs.emplace_back("wrong format",
                    replaced("\"bine-sweep-plan\"", "\"bine-sweep-plot\""));
  docs.emplace_back("wrong version", replaced("\"version\": 2", "\"version\": 99"));
  docs.emplace_back("v1 document", replaced("\"version\": 2", "\"version\": 1"));
  docs.emplace_back("unknown top-level key",
                    replaced("\"name\":", "\"nmae\":"));
  docs.emplace_back("duplicate key",
                    replaced("\"sizes\": [1024],",
                             "\"sizes\": [1024],\n  \"sizes\": [2048],"));
  docs.emplace_back("unknown collective",
                    replaced("\"allreduce\"", "\"allretuce\""));
  docs.emplace_back("unknown profile", replaced("\"lumi\"", "\"lumo\""));
  docs.emplace_back("unknown series pick", replaced("\"best\"", "\"bestest\""));
  docs.emplace_back("unknown series family",
                    replaced("\"family\": \"bine\"", "\"family\": \"vine\""));
  docs.emplace_back("unknown backend",
                    replaced("\"simulate\"", "\"stimulate\""));
  docs.emplace_back("custom backend", replaced("\"simulate\"", "\"custom\""));
  docs.emplace_back("unknown elem", replaced("\"u32\"", "\"u33\""));
  docs.emplace_back("unknown miss_policy",
                    replaced("\"heuristic_default\"", "\"guess\""));
  docs.emplace_back("unknown on_error", replaced("\"propagate\"", "\"explode\""));
  docs.emplace_back("journal_salt not hex",
                    replaced("\"0x0000000000000000\"", "\"42\""));
  docs.emplace_back("journal_salt bad digit",
                    replaced("\"0x0000000000000000\"", "\"0x000000000000000g\""));
  docs.emplace_back("wrong type for sizes", replaced("[1024]", "\"1024\""));
  const std::string seed = "\"seed\": \"0x000000000000002a\"";
  docs.emplace_back("bare-integer seed", replaced(seed, "\"seed\": 42"));
  docs.emplace_back("negative seed", replaced(seed, "\"seed\": -1"));
  docs.emplace_back("seed not hex", replaced(seed, "\"seed\": \"42\""));
  docs.emplace_back("leftover schedule_cache key",
                    replaced(seed, seed + ", \"schedule_cache\": \"default\""));
  docs.emplace_back("unknown system key",
                    replaced("\"spread_placement\"", "\"spread_placemen\""));
  docs.emplace_back("unknown series key", replaced("\"label\"", "\"lable\""));
  docs.emplace_back("non-canonical fault spec: order",
                    replaced(seed, seed + ", \"faults\": \"degrade_global=0.5,seed=9\""));
  docs.emplace_back("non-canonical fault spec: empty",
                    replaced(seed, seed + ", \"faults\": \"\""));
  docs.emplace_back("contiguous_only false never serialized",
                    replaced("\"family\": \"bine\"",
                             "\"family\": \"bine\", \"contiguous_only\": false"));
  docs.emplace_back("empty algorithms never serialized",
                    replaced("\"family\": \"bine\"",
                             "\"family\": \"bine\", \"algorithms\": []"));
  docs.emplace_back("extra_counts without extra_colls",
                    replaced("\"counts\": [16]",
                             "\"counts\": [16], \"extra_counts\": [64]"));
  return docs;
}

}  // namespace

TEST(PlanCodec, FuzzNegativesAllRejected) {
  for (const auto& [what, doc] : bad_documents()) {
    bool threw = false;
    try {
      (void)exp::plan_from_json(doc);
    } catch (const std::exception&) {
      threw = true;
    }
    EXPECT_TRUE(threw) << "malformed document accepted: " << what;
  }
}

TEST(PlanCodec, MissingRequiredKeyRejected) {
  // Strip each required key in turn; the parse must name the gap.
  const std::string good = exp::plan_to_json(minimal_plan());
  for (const std::string key :
       {"\"format\"", "\"version\"", "\"name\"", "\"systems\"", "\"colls\"",
        "\"series\"", "\"nodes\"", "\"sizes\"", "\"backend\"", "\"elem\"",
        "\"op\"", "\"miss_policy\"", "\"on_error\"", "\"journal_salt\""}) {
    std::string doc = good;
    const size_t at = doc.find(key);
    ASSERT_NE(at, std::string::npos) << key;
    // Comment the key out by renaming it -- but renamed keys hit the
    // unknown-key check, which is equally a rejection; both paths throw.
    doc.replace(at, 1, "\"x");
    EXPECT_THROW((void)exp::plan_from_json(doc), std::exception) << key;
  }
}
