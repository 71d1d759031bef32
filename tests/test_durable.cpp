// Durable-execution tests: the journal's on-disk damage discipline (torn
// tails, checksum flips, foreign fingerprints), plan fingerprint
// sensitivity/invariance, kill-resume byte-identity for sweeps and tuner
// builds, per-cell deadlines, cooperative cancellation drain semantics, and
// the stale-temp reclamation AtomicFile artifacts rely on.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exp/journal.hpp"
#include "exp/sweep.hpp"
#include "fault/fault.hpp"
#include "harness/cancel.hpp"
#include "harness/parallel.hpp"
#include "net/profiles.hpp"
#include "tune/tuner.hpp"

using namespace bine;
using sched::Collective;

namespace {

// Runner consults BINE_FAULT_SPEC at construction; an inherited CI spec
// would perturb the byte-identity references.
const bool env_cleared = [] {
  unsetenv("BINE_FAULT_SPEC");
  return true;
}();

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

bool file_exists(const std::string& path) {
  std::ifstream in(path);
  return in.good();
}

void remove_journal(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".corrupt").c_str());
}

// Small simulate-backend plan with three cells (one per node count), so a
// cancel-after-one run leaves real resume work behind.
exp::SweepPlan small_plan(const std::string& journal = "") {
  exp::SweepPlan plan;
  plan.name = "durable_small";
  plan.systems = {exp::SystemSpec{net::lumi_profile()}};
  plan.colls = {Collective::allreduce};
  plan.series = {exp::Series::binomial_baseline()};
  plan.nodes.counts = {8, 16, 32};
  plan.sizes = {1024, 65536};
  plan.threads = 1;
  plan.journal_path = journal;
  return plan;
}

}  // namespace

// --- journal on-disk discipline ---------------------------------------------

TEST(Journal, RoundTripAcrossReopen) {
  ASSERT_TRUE(env_cleared);
  const std::string path = "durable_roundtrip.journal";
  remove_journal(path);

  {
    exp::Journal::OpenReport rep;
    auto j = exp::Journal::open(path, 0xabcdu, &rep);
    ASSERT_NE(j, nullptr);
    EXPECT_EQ(rep.replayable, 0);
    EXPECT_FALSE(rep.quarantined);
    EXPECT_TRUE(j->append("s0.allreduce.p8", "payload one\nwith a newline"));
    EXPECT_TRUE(j->append("s0.allreduce.p16", ""));  // empty payloads are legal
  }
  exp::Journal::OpenReport rep;
  auto j = exp::Journal::open(path, 0xabcdu, &rep);
  ASSERT_NE(j, nullptr);
  EXPECT_EQ(rep.replayable, 2);
  EXPECT_EQ(rep.dropped, 0);
  EXPECT_FALSE(rep.quarantined);
  EXPECT_EQ(j->records(), 2u);
  ASSERT_NE(j->lookup("s0.allreduce.p8"), nullptr);
  EXPECT_EQ(*j->lookup("s0.allreduce.p8"), "payload one\nwith a newline");
  ASSERT_NE(j->lookup("s0.allreduce.p16"), nullptr);
  EXPECT_EQ(*j->lookup("s0.allreduce.p16"), "");
  EXPECT_EQ(j->lookup("s0.allreduce.p32"), nullptr);
  remove_journal(path);
}

TEST(Journal, TornTailIsDroppedAndQuarantined) {
  const std::string path = "durable_torn.journal";
  remove_journal(path);
  {
    auto j = exp::Journal::open(path, 0x1u);
    ASSERT_NE(j, nullptr);
    ASSERT_TRUE(j->append("a", "first payload"));
    ASSERT_TRUE(j->append("b", "second payload"));
  }
  // SIGKILL mid-append: the file ends inside the last record.
  std::string bytes = read_file(path);
  write_file(path, bytes.substr(0, bytes.size() - 5));

  exp::Journal::OpenReport rep;
  auto j = exp::Journal::open(path, 0x1u, &rep);
  ASSERT_NE(j, nullptr);
  EXPECT_EQ(rep.replayable, 1);  // the intact prefix survives
  EXPECT_EQ(rep.dropped, 1);
  EXPECT_TRUE(rep.quarantined);
  EXPECT_TRUE(file_exists(path + ".corrupt"));  // damage kept as evidence
  ASSERT_FALSE(rep.notes.empty());
  EXPECT_NE(rep.notes.front().find("torn journal tail at byte"), std::string::npos);
  ASSERT_NE(j->lookup("a"), nullptr);
  EXPECT_EQ(j->lookup("b"), nullptr);

  // The rewrite healed the file: a third open sees a clean journal.
  j.reset();
  exp::Journal::OpenReport rep2;
  auto j2 = exp::Journal::open(path, 0x1u, &rep2);
  ASSERT_NE(j2, nullptr);
  EXPECT_EQ(rep2.replayable, 1);
  EXPECT_EQ(rep2.dropped, 0);
  EXPECT_FALSE(rep2.quarantined);
  remove_journal(path);
}

TEST(Journal, ChecksumFlipDropsOnlyThatRecord) {
  const std::string path = "durable_flip.journal";
  remove_journal(path);
  {
    auto j = exp::Journal::open(path, 0x2u);
    ASSERT_NE(j, nullptr);
    ASSERT_TRUE(j->append("a", "alpha payload"));
    ASSERT_TRUE(j->append("b", "bravo payload"));
    ASSERT_TRUE(j->append("c", "charlie payload"));
  }
  // Flip one payload byte of the MIDDLE record; framing stays intact, so
  // only that record may be lost.
  std::string bytes = read_file(path);
  const size_t at = bytes.find("bravo");
  ASSERT_NE(at, std::string::npos);
  bytes[at] = 'B';
  write_file(path, bytes);

  exp::Journal::OpenReport rep;
  auto j = exp::Journal::open(path, 0x2u, &rep);
  ASSERT_NE(j, nullptr);
  EXPECT_EQ(rep.replayable, 2);
  EXPECT_EQ(rep.dropped, 1);
  EXPECT_TRUE(rep.quarantined);
  ASSERT_FALSE(rep.notes.empty());
  EXPECT_NE(rep.notes.front().find("checksum mismatch"), std::string::npos);
  EXPECT_NE(j->lookup("a"), nullptr);
  EXPECT_EQ(j->lookup("b"), nullptr);
  EXPECT_NE(j->lookup("c"), nullptr);  // records AFTER the flip survive
  remove_journal(path);
}

TEST(Journal, ForeignFingerprintIsQuarantinedWhole) {
  const std::string path = "durable_foreign.journal";
  remove_journal(path);
  {
    auto j = exp::Journal::open(path, 0x1111u);
    ASSERT_NE(j, nullptr);
    ASSERT_TRUE(j->append("a", "stale cell"));
  }
  exp::Journal::OpenReport rep;
  auto j = exp::Journal::open(path, 0x2222u, &rep);
  ASSERT_NE(j, nullptr);
  EXPECT_EQ(rep.replayable, 0);  // nothing replays across plans
  EXPECT_TRUE(rep.quarantined);
  EXPECT_TRUE(file_exists(path + ".corrupt"));
  ASSERT_FALSE(rep.notes.empty());
  EXPECT_NE(rep.notes.front().find("belongs to plan fingerprint"), std::string::npos);
  EXPECT_EQ(j->lookup("a"), nullptr);
  remove_journal(path);
}

// A record's meaning can change between format versions (version 2
// redefined the verified-run digest), so a journal of another version is
// quarantined whole even when its fingerprint matches: nothing replays.
TEST(Journal, OtherVersionIsQuarantinedWhole) {
  const std::string path = "durable_version.journal";
  remove_journal(path);
  {
    auto j = exp::Journal::open(path, 0x4u);
    ASSERT_NE(j, nullptr);
    ASSERT_TRUE(j->append("a", "digest under the old definition"));
  }
  std::string bytes = read_file(path);
  ASSERT_EQ(bytes.rfind("binejournal 2 ", 0), 0u);
  bytes[std::string("binejournal ").size()] = '1';
  write_file(path, bytes);

  exp::Journal::OpenReport rep;
  auto j = exp::Journal::open(path, 0x4u, &rep);
  ASSERT_NE(j, nullptr);
  EXPECT_EQ(rep.replayable, 0);
  EXPECT_TRUE(rep.quarantined);
  EXPECT_TRUE(file_exists(path + ".corrupt"));
  ASSERT_FALSE(rep.notes.empty());
  EXPECT_NE(rep.notes.front().find("unrecognized journal header"), std::string::npos);
  EXPECT_EQ(j->lookup("a"), nullptr);
  EXPECT_TRUE(j->append("a", "fresh"));
  remove_journal(path);
}

TEST(Journal, GarbageFileIsQuarantinedAndAdopted) {
  const std::string path = "durable_garbage.journal";
  remove_journal(path);
  write_file(path, "this is not a journal\n");
  exp::Journal::OpenReport rep;
  auto j = exp::Journal::open(path, 0x3u, &rep);
  ASSERT_NE(j, nullptr);
  EXPECT_EQ(rep.replayable, 0);
  EXPECT_TRUE(rep.quarantined);
  EXPECT_TRUE(j->append("a", "fresh"));
  remove_journal(path);
}

// --- plan fingerprint --------------------------------------------------------

TEST(PlanFingerprint, SensitiveToResultsInvariantToExecution) {
  const exp::SweepPlan base = small_plan();
  const u64 fp = exp::plan_fingerprint(base);

  // Anything that changes cell RESULTS changes the key.
  exp::SweepPlan p = base;
  p.sizes.push_back(262144);
  EXPECT_NE(exp::plan_fingerprint(p), fp);
  p = base;
  p.nodes.counts = {8, 16};
  EXPECT_NE(exp::plan_fingerprint(p), fp);
  p = base;
  p.series.push_back(exp::Series::best_sota());
  EXPECT_NE(exp::plan_fingerprint(p), fp);
  p = base;
  p.systems[0].seed = 7;
  EXPECT_NE(exp::plan_fingerprint(p), fp);
  p = base;
  p.journal_salt = 99;
  EXPECT_NE(exp::plan_fingerprint(p), fp);

  // Anything that only changes HOW results are computed does not: the whole
  // point is that a journal written serially resumes a sharded run.
  p = base;
  p.threads = 4;
  p.on_error = exp::SweepPlan::OnError::isolate;
  p.transient_retries = 3;
  p.retry_backoff_ms = 10;
  p.cell_deadline_ms = 60000;
  p.journal_path = "elsewhere.journal";
  EXPECT_EQ(exp::plan_fingerprint(p), fp);
}

// --- sweep resume ------------------------------------------------------------

// The tentpole contract: a journaled sweep cancelled mid-run, resumed with
// the same plan and journal, serializes byte-identically to an
// uninterrupted journal-off run.
TEST(DurableSweep, CancelledRunResumesByteIdentical) {
  const std::string path = "durable_sweep.journal";
  remove_journal(path);

  const std::string reference = exp::run(small_plan()).to_json();

  // Journaled run, cancelled after the first completed cell.
  harness::CancelToken token;
  exp::SweepPlan plan = small_plan(path);
  plan.cancel = &token;
  plan.progress = [&token](size_t done, size_t) {
    if (done >= 1) token.cancel();
  };
  const exp::SweepResult partial = exp::run(plan);
  EXPECT_TRUE(partial.cancelled);
  EXPECT_EQ(partial.journal.executed, 1);
  EXPECT_EQ(partial.journal.replayed, 0);
  EXPECT_NE(partial.to_json(), reference);  // genuinely partial
  EXPECT_NE(partial.to_json().find("\"cancelled\": true"), std::string::npos);

  // Resume: journaled cells replay, the rest execute, output is identical.
  const exp::SweepResult resumed = exp::run(small_plan(path));
  EXPECT_FALSE(resumed.cancelled);
  EXPECT_EQ(resumed.journal.replayed, 1);
  EXPECT_EQ(resumed.journal.executed, 2);
  EXPECT_EQ(resumed.to_json(), reference);

  // A third run is answered from the journal alone -- still identical,
  // across shard widths (the fingerprint ignores plan.threads).
  exp::SweepPlan replay = small_plan(path);
  replay.threads = 4;
  const exp::SweepResult full = exp::run(replay);
  EXPECT_EQ(full.journal.replayed, 3);
  EXPECT_EQ(full.journal.executed, 0);
  EXPECT_EQ(full.to_json(), reference);
  remove_journal(path);
}

// Journaled failure rows replay byte-identically too: a deterministic
// failure under OnError::isolate costs one execution per journal lifetime.
TEST(DurableSweep, JournaledFailureReplaysByteIdentical) {
  const std::string path = "durable_fail.journal";
  remove_journal(path);

  // bine_permute rejects non-pow2 rank counts, so a best_of over just it
  // fails deterministically at p=12 ("no applicable algorithm").
  exp::SweepPlan plan;
  plan.name = "durable_fail";
  plan.systems = {exp::SystemSpec{net::lumi_profile()}};
  plan.colls = {Collective::allgather};
  plan.series = {exp::Series::best_of("probe", {"bine_permute", "ring"}),
                 exp::Series::best_of("broken", {"bine_permute"})};
  plan.nodes.counts = {12, 16};
  plan.sizes = {1024};
  plan.threads = 1;
  plan.on_error = exp::SweepPlan::OnError::isolate;

  const exp::SweepResult fresh = exp::run(plan);
  ASSERT_EQ(fresh.errors.size(), 1u);
  EXPECT_EQ(fresh.errors[0].nodes, 12);
  const std::string reference = fresh.to_json();

  plan.journal_path = path;
  EXPECT_EQ(exp::run(plan).to_json(), reference);  // journaled fresh run
  const exp::SweepResult replayed = exp::run(plan);
  EXPECT_EQ(replayed.journal.replayed, 2);
  EXPECT_EQ(replayed.journal.executed, 0);
  EXPECT_EQ(replayed.to_json(), reference);  // errors array included
  remove_journal(path);
}

// Journal-off plans must not notice the durable layer at all, and custom
// backends may not journal (an opaque metric cannot be fingerprinted).
TEST(DurableSweep, JournalOffAndCustomRejection) {
  exp::SweepPlan plan = small_plan();
  const exp::SweepResult r = exp::run(plan);
  EXPECT_EQ(r.journal.replayed, 0);
  EXPECT_EQ(r.journal.executed, 0);
  EXPECT_EQ(r.to_json().find("\"cancelled\""), std::string::npos);

  exp::SweepPlan custom;
  custom.name = "custom_journal";
  custom.backend = exp::Backend::custom;
  custom.sizes = {1};
  custom.metric = [](const exp::CellCtx&) { return exp::Metrics{}; };
  custom.journal_path = "never_written.journal";
  EXPECT_THROW((void)exp::run(custom), std::invalid_argument);
  EXPECT_FALSE(file_exists("never_written.journal"));
}

// --- per-cell deadlines ------------------------------------------------------

TEST(DurableDeadline, OverrunningCellFailsPermanently) {
  std::atomic<int> attempts{0};
  exp::SweepPlan plan;
  plan.name = "deadline";
  plan.backend = exp::Backend::custom;
  plan.systems.emplace_back(net::lumi_profile());
  plan.colls = {Collective::allreduce};
  plan.series.push_back(exp::Series::best_of("probe", {}));
  plan.nodes.counts = {8, 16};
  plan.sizes = {1024};
  plan.threads = 1;
  plan.on_error = exp::SweepPlan::OnError::isolate;
  plan.transient_retries = 3;  // must NOT apply: deadlines are permanent
  plan.cell_deadline_ms = 20;
  plan.metric = [&attempts](const exp::CellCtx& ctx) -> exp::Metrics {
    if (ctx.nodes == 16) {
      ++attempts;
      std::this_thread::sleep_for(std::chrono::milliseconds(60));
      ctx.guard->checkpoint("slow metric");  // cooperative boundary
    }
    exp::Metrics m;
    m.value = static_cast<double>(ctx.nodes);
    return m;
  };

  const exp::SweepResult res = exp::run(plan);
  ASSERT_EQ(res.errors.size(), 1u);
  EXPECT_TRUE(res.errors[0].deadline_exceeded);
  EXPECT_FALSE(res.errors[0].transient);
  EXPECT_EQ(res.errors[0].attempts, 1);  // never retried
  EXPECT_EQ(attempts.load(), 1);
  EXPECT_NE(res.errors[0].message.find("deadline"), std::string::npos);
  EXPECT_NE(res.to_json().find("\"deadline\": true"), std::string::npos);

  // A generous budget lets the same plan pass: the guard is cooperative,
  // not a watchdog.
  attempts = 0;
  plan.cell_deadline_ms = 60000;
  EXPECT_TRUE(exp::run(plan).errors.empty());
}

TEST(DurableDeadline, GuardPrimitives) {
  EXPECT_FALSE(harness::Deadline::after_ms(0).armed());  // 0 = no deadline
  const harness::Deadline d = harness::Deadline::after_ms(60000);
  EXPECT_TRUE(d.armed());
  EXPECT_FALSE(d.expired());
  const harness::CellGuard relaxed{harness::Deadline::after_ms(0)};
  relaxed.checkpoint("anywhere");  // unarmed: never throws

  const harness::CellGuard tight{harness::Deadline::after_ms(1)};
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_THROW(tight.checkpoint("here"), fault::DeadlineExceeded);
  try {
    tight.checkpoint("somewhere");
  } catch (...) {
    EXPECT_TRUE(fault::current_exception_is_deadline());
    EXPECT_EQ(fault::classify_current_exception(), fault::FaultClass::permanent);
  }
}

// --- cooperative cancellation ------------------------------------------------

TEST(DurableCancel, ParallelForDrainsInFlightWork) {
  // Pre-fired token: nothing runs, serial or threaded.
  harness::CancelToken fired;
  fired.cancel();
  std::atomic<int> ran{0};
  harness::parallel_for(64, [&](i64) { ++ran; }, 1, &fired);
  harness::parallel_for(64, [&](i64) { ++ran; }, 4, &fired);
  EXPECT_EQ(ran.load(), 0);

  // Cancelling from inside: the in-flight call finishes (drain), no new
  // index is handed out afterwards on the serial path.
  harness::CancelToken token;
  ran = 0;
  harness::parallel_for(
      64,
      [&](i64) {
        ++ran;
        token.cancel();
      },
      1, &token);
  EXPECT_EQ(ran.load(), 1);

  // Threaded: at most one in-flight index per worker after the fire.
  harness::CancelToken token4;
  ran = 0;
  harness::parallel_for(
      1 << 16,
      [&](i64) {
        ++ran;
        token4.cancel();
      },
      4, &token4);
  EXPECT_LE(ran.load(), 4 + 3);  // in-flight drain, not a hard stop
  EXPECT_GE(ran.load(), 1);
}

TEST(DurableCancel, CancelledRowsAreMarked) {
  harness::CancelToken token;
  exp::SweepPlan plan = small_plan();
  plan.cancel = &token;
  plan.progress = [&token](size_t done, size_t) {
    if (done >= 1) token.cancel();
  };
  const exp::SweepResult res = exp::run(plan);
  EXPECT_TRUE(res.cancelled);
  int ok_rows = 0, cancelled_rows = 0;
  for (const exp::Row& row : res.rows) {
    if (row.m.cancelled) {
      ++cancelled_rows;
      EXPECT_TRUE(row.m.algorithm.empty());
    } else {
      ++ok_rows;
    }
  }
  EXPECT_EQ(ok_rows, 2);         // one cell = two sizes
  EXPECT_EQ(cancelled_rows, 4);  // two cells never ran
  EXPECT_NE(res.to_json().find("\"cancelled\": true"), std::string::npos);
}

// --- durable tuner builds ----------------------------------------------------

TEST(DurableTuner, CancelledBuildResumesByteIdentical) {
  const std::string path = "durable_tuner.journal";
  remove_journal(path);

  tune::TunerOptions opts;
  opts.size_grid = {1024, 65536};
  opts.threads = 1;
  const std::vector<net::SystemProfile> profiles = {net::lumi_profile()};
  const std::vector<Collective> colls = {Collective::allreduce,
                                         Collective::allgather};
  const std::vector<i64> nodes = {16};
  const std::string reference = tune::Tuner(opts).build(profiles, colls, nodes).dump();

  // Durable build, cancelled after the first tuned cell.
  harness::CancelToken token;
  opts.journal_path = path;
  opts.cancel = &token;
  opts.progress = [&token](size_t done, size_t) {
    if (done >= 1) token.cancel();
  };
  tune::BuildReport partial;
  const tune::DecisionTable half =
      tune::Tuner(opts).build(profiles, colls, nodes, &partial);
  EXPECT_EQ(partial.cells, 1);
  EXPECT_EQ(partial.cancelled_cells, 1);
  EXPECT_EQ(partial.replayed_cells, 0);
  ASSERT_FALSE(partial.notes.empty());
  EXPECT_NE(partial.notes.back().find("resumable from the journal"),
            std::string::npos);
  EXPECT_NE(half.dump(), reference);

  // Resume without the token: the finished cell replays, the rest tune.
  opts.cancel = nullptr;
  opts.progress = nullptr;
  tune::BuildReport resumed;
  const tune::DecisionTable full =
      tune::Tuner(opts).build(profiles, colls, nodes, &resumed);
  EXPECT_EQ(resumed.replayed_cells, 1);
  EXPECT_EQ(resumed.cancelled_cells, 0);
  EXPECT_EQ(resumed.cells, 2);
  EXPECT_EQ(full.dump(), reference);

  // A differently-configured tuner must NOT replay this journal: its salt
  // changes the plan fingerprint and the stale journal is quarantined.
  tune::TunerOptions other = opts;
  other.size_grid = {1024, 65536, 262144};
  tune::BuildReport fresh;
  (void)tune::Tuner(other).build(profiles, colls, nodes, &fresh);
  EXPECT_EQ(fresh.replayed_cells, 0);
  EXPECT_TRUE(file_exists(path + ".corrupt"));
  remove_journal(path);
}

// --- stale temp reclamation --------------------------------------------------

TEST(DurableTemps, StaleAtomicFileTempsAreReclaimed) {
  const std::string path = "durable_artifact.json";
  // A dead writer's temp (PID far above any live process on a test box), a
  // live writer's temp (our own PID), and an unrelated file that merely
  // shares the prefix: only the first may be removed.
  const std::string dead = path + ".tmp.999999999.3";
  const std::string live = path + ".tmp." + std::to_string(getpid()) + ".1";
  const std::string odd = path + ".tmp.not-a-pid";
  write_file(dead, "torn");
  write_file(live, "in flight");
  write_file(odd, "unrelated");

  EXPECT_EQ(fault::clean_stale_temps(path), 1);
  EXPECT_FALSE(file_exists(dead));
  EXPECT_TRUE(file_exists(live));
  EXPECT_TRUE(file_exists(odd));

  // save_json sweeps its own artifact's garbage before writing.
  write_file(dead, "torn again");
  exp::run(small_plan()).save_json(path);
  EXPECT_FALSE(file_exists(dead));
  EXPECT_TRUE(file_exists(path));
  std::remove(path.c_str());
  std::remove(live.c_str());
  std::remove(odd.c_str());
}
