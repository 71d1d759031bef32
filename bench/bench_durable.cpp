// Durable-execution overhead and kill-resume benchmark.
//
// The journal's contract is "pay only for what you keep": per completed cell
// it costs one encode + one fsync'd append, amortized over cells that each
// simulate a full candidate sweep -- so a journaled run must stay within 3%
// of the journal-off run on the same plan, and the journal-off path must stay
// BYTE-identical to the pre-journal engine output.
//
// Overhead is measured as two separately-robust components rather than one
// wall-clock ratio: identical back-to-back sweeps on a shared CI box jitter
// by +-10% wall (measured), which would drown a 3% gate in noise no matter
// the protocol. Instead:
//   * compute overhead -- process-CPU time of journal-on vs journal-off
//     sweeps (cleanest paired round). CPU time is blind to preemption and
//     neighbour noise, and captures everything the journal burns cycles on
//     (fingerprinting, encoding, record framing, syscall entry).
//   * sync-wall share -- the blocking fdatasync/open cost the CPU clock
//     cannot see, timed directly against a real journal with the run's own
//     record count and payload sizes, as a fraction of the sweep's wall floor.
// The gate is their sum; both components are snapshotted.
//
// Default mode measures and gates exactly that, then proves the resume
// machinery in-process (cancel mid-sweep, resume, compare bytes) and
// snapshots everything to BENCH_durable.json. Exit 1 on identity breach,
// overhead >= 3%, or a resume hit rate below 100%.
//
// Two extra modes drive the CI kill-and-resume job, which needs a REAL
// SIGKILL across process boundaries rather than a cooperative token:
//
//   bench_durable --reference <out.json>
//       journal-off run of the canonical plan; writes the golden artifact.
//   bench_durable --journaled <out.json> <journal> [--stall-after K]
//       journaled run of the same plan (threads=1). With --stall-after K it
//       touches <journal>.stalled once K cells are journaled and then sleeps
//       forever -- a deterministic SIGKILL window. Re-run without the flag to
//       resume; the artifact must compare equal to the reference.
#include <ctime>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "exp/journal.hpp"
#include "exp/sweep.hpp"
#include "fault/fault.hpp"
#include "harness/cancel.hpp"
#include "harness/runner.hpp"
#include "net/profiles.hpp"
#include "sched/schedule_cache.hpp"

using namespace bine;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Process-CPU seconds: immune to preemption and neighbour noise, which on a
/// shared box swamp sub-3% wall-clock differences.
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// The canonical plan: two systems x two collectives x three node counts =
// 12 cells, every cell a full three-series candidate sweep over the paper's
// reduced size vector. Every timed run starts from a cleared (cold)
// process-wide schedule cache: the workload a durable sweep actually protects is first-run
// generation + simulation, and it is that per-cell cost the fsync'd append
// must amortize against -- a warm-cache replay of microsecond cells is not
// the scenario anyone journals.
exp::SweepPlan canonical_plan() {
  exp::SweepPlan plan;
  plan.name = "durable_canonical";
  plan.systems = {exp::SystemSpec{net::lumi_profile()},
                  exp::SystemSpec{net::leonardo_profile()}};
  plan.colls = {sched::Collective::allreduce, sched::Collective::allgather};
  plan.series = {exp::Series::best_bine(false), exp::Series::binomial_baseline(),
                 exp::Series::best_sota()};
  plan.nodes.counts = {64, 128, 256};
  plan.sizes = harness::paper_vector_sizes(false);
  plan.threads = 1;
  return plan;
}

void remove_journal(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".corrupt").c_str());
}

int run_reference(const std::string& out_path) {
  exp::run(canonical_plan()).save_json(out_path);
  std::printf("wrote reference %s\n", out_path.c_str());
  return 0;
}

int run_journaled(const std::string& out_path, const std::string& journal,
                  i64 stall_after) {
  exp::SweepPlan plan = canonical_plan();
  plan.journal_path = journal;
  if (stall_after > 0) {
    // Deterministic SIGKILL window for the CI job: once `stall_after` cells
    // are durably journaled, signal readiness via a marker file and wedge.
    // The kill is the point -- this process never finishes.
    plan.progress = [&journal, stall_after](size_t done, size_t) {
      if (static_cast<i64>(done) < stall_after) return;
      if (std::FILE* marker = std::fopen((journal + ".stalled").c_str(), "wb"))
        std::fclose(marker);
      for (;;) std::this_thread::sleep_for(std::chrono::seconds(3600));
    };
  }
  const exp::SweepResult res = exp::run(plan);
  std::printf("journaled run: %lld replayed, %lld executed, %lld dropped\n",
              static_cast<long long>(res.journal.replayed),
              static_cast<long long>(res.journal.executed),
              static_cast<long long>(res.journal.dropped_records));
  res.save_json(out_path);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

int run_default() {
  const std::string journal = "BENCH_durable.journal";
  const exp::SweepPlan base = canonical_plan();
  const size_t cells = exp::enumerate_cells(base).size();

  const exp::SweepResult first = exp::run(base);
  const std::string reference = first.to_json();
  std::printf("workload: %zu cells, %zu rows\n", cells, first.rows.size());

  // Compute overhead: paired journal-off/journal-on rounds on the CPU clock,
  // median ratio. Order alternates per round so neither variant always sits
  // in the cooler first slot.
  bool identical = true;
  double off_s = std::numeric_limits<double>::infinity();
  double on_s = std::numeric_limits<double>::infinity();
  std::vector<double> ratios;
  const auto run_off = [&]() -> double {
    sched::process_schedule_cache().clear();
    const auto w0 = Clock::now();
    const double c0 = cpu_seconds();
    const exp::SweepResult r = exp::run(base);
    const double c = cpu_seconds() - c0;
    if (!r.rows.empty()) off_s = std::min(off_s, seconds_since(w0));
    return c;
  };
  const auto run_on = [&]() -> double {
    remove_journal(journal);  // fresh journal each round: every cell appends
    exp::SweepPlan plan = base;
    plan.journal_path = journal;
    sched::process_schedule_cache().clear();
    const auto w0 = Clock::now();
    const double c0 = cpu_seconds();
    const exp::SweepResult r = exp::run(plan);
    const double c = cpu_seconds() - c0;
    on_s = std::min(on_s, seconds_since(w0));
    identical = identical && r.to_json() == reference &&
                r.journal.executed == static_cast<i64>(cells);
    return c;
  };
  for (int round = 0; round < 5; ++round) {
    double off_cpu = 0, on_cpu = 0;
    if (round % 2 == 0) {
      off_cpu = run_off();
      on_cpu = run_on();
    } else {
      on_cpu = run_on();
      off_cpu = run_off();
    }
    ratios.push_back(on_cpu / off_cpu);
  }
  // Min, not median: the compute delta is deterministic, while CPU-clock
  // noise (frequency scaling mid-round) is one-sided per sample and several
  // times larger -- the cleanest paired round is the measurement. The
  // blocking I/O cost the minimum could hide is exactly what the sync-wall
  // component measures independently below.
  const double cpu_overhead_pct = std::max(
      0.0, 100.0 * (*std::min_element(ratios.begin(), ratios.end()) - 1.0));

  // Sync-wall share: the blocking open + fdatasync-per-append cost the CPU
  // clock cannot see, timed directly against a real journal with this run's
  // own record count and payload sizes (min of rounds: I/O noise only adds).
  std::vector<std::string> payloads;
  {
    remove_journal(journal);
    exp::SweepPlan plan = base;
    plan.journal_path = journal;
    (void)exp::run(plan);
    const auto j = exp::Journal::open(journal, exp::plan_fingerprint(plan));
    for (size_t i = 0; i < cells; ++i) {
      const std::string* p = j ? j->lookup(exp::cell_key(
                                     exp::enumerate_cells(plan)[i]))
                               : nullptr;
      payloads.push_back(p ? *p : std::string(2048, 'x'));
    }
  }
  double sync_s = std::numeric_limits<double>::infinity();
  for (int round = 0; round < 5; ++round) {
    remove_journal(journal);
    const auto t0 = Clock::now();
    const auto j = exp::Journal::open(journal, 0xbe11c4);
    bool ok = j != nullptr;
    for (size_t i = 0; ok && i < payloads.size(); ++i)
      ok = j->append("s0.bench.p" + std::to_string(i), payloads[i]);
    if (ok) sync_s = std::min(sync_s, seconds_since(t0));
  }
  const double sync_share_pct = 100.0 * sync_s / off_s;
  const double overhead_pct = cpu_overhead_pct + sync_share_pct;
  remove_journal(journal);

  // Kill-resume in process: cancel after 4 cells, resume, compare bytes.
  remove_journal(journal);
  harness::CancelToken token;
  exp::SweepPlan interrupted = base;
  interrupted.journal_path = journal;
  interrupted.cancel = &token;
  interrupted.progress = [&token](size_t done, size_t) {
    if (done >= 4) token.cancel();
  };
  sched::process_schedule_cache().clear();
  const exp::SweepResult partial = exp::run(interrupted);

  exp::SweepPlan resume = base;
  resume.journal_path = journal;
  sched::process_schedule_cache().clear();
  const auto t0 = Clock::now();
  const exp::SweepResult resumed = exp::run(resume);
  const double resume_s = seconds_since(t0);
  const bool resume_identical =
      partial.cancelled && resumed.to_json() == reference;

  // Replay-only pass: every cell must now be answered from the journal.
  sched::process_schedule_cache().clear();
  const exp::SweepResult replay = exp::run(resume);
  const double hit_rate =
      100.0 * static_cast<double>(replay.journal.replayed) /
      static_cast<double>(cells);
  const bool replay_identical = replay.to_json() == reference;
  remove_journal(journal);

  std::printf("journal off: %8.3f s/sweep\n", off_s);
  std::printf("journal on:  %8.3f s/sweep\n", on_s);
  std::printf("overhead:    cpu %.2f%% + sync-wall %.2f%% = %.2f%%\n",
              cpu_overhead_pct, sync_share_pct, overhead_pct);
  std::printf("resume:      %8.3f s (cancelled at %lld cells, hit rate %.0f%%)\n",
              resume_s, static_cast<long long>(partial.journal.executed), hit_rate);
  std::printf("byte-identity: journal-on %s, resumed %s, replay %s\n",
              identical ? "ok" : "FAILED", resume_identical ? "ok" : "FAILED",
              replay_identical ? "ok" : "FAILED");

  const bool overhead_ok = overhead_pct < 3.0;
  const bool hit_ok = replay.journal.replayed == static_cast<i64>(cells);
  if (!overhead_ok)
    std::fprintf(stderr, "FAIL: journal overhead %.2f%% >= 3%%\n", overhead_pct);
  if (!hit_ok)
    std::fprintf(stderr, "FAIL: replay hit rate %.0f%% != 100%%\n", hit_rate);

  if (fault::AtomicFile out("BENCH_durable.json"); std::FILE* f = out.handle()) {
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"durable\",\n"
                 "  \"cells\": %zu,\n"
                 "  \"rows\": %zu,\n"
                 "  \"journal_off_ms\": %.2f,\n"
                 "  \"journal_on_ms\": %.2f,\n"
                 "  \"cpu_overhead_pct\": %.2f,\n"
                 "  \"sync_wall_share_pct\": %.2f,\n"
                 "  \"overhead_pct\": %.2f,\n"
                 "  \"resume_ms\": %.2f,\n"
                 "  \"resume_hit_rate_pct\": %.1f,\n"
                 "  \"journal_on_byte_identical\": %s,\n"
                 "  \"cancel_resume_byte_identical\": %s,\n"
                 "  \"hardware_threads\": %u\n"
                 "}\n",
                 cells, first.rows.size(), off_s * 1e3, on_s * 1e3,
                 cpu_overhead_pct, sync_share_pct, overhead_pct, resume_s * 1e3,
                 hit_rate, identical ? "true" : "false",
                 (resume_identical && replay_identical) ? "true" : "false",
                 std::thread::hardware_concurrency());
    if (out.commit()) std::printf("wrote BENCH_durable.json\n");
  }
  return (identical && resume_identical && replay_identical && overhead_ok && hit_ok)
             ? 0
             : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // The byte-identity gates need a healthy baseline; an inherited CI fault
  // spec would perturb every simulated time.
  unsetenv("BINE_FAULT_SPEC");

  if (argc >= 3 && std::strcmp(argv[1], "--reference") == 0)
    return run_reference(argv[2]);
  if (argc >= 4 && std::strcmp(argv[1], "--journaled") == 0) {
    i64 stall_after = 0;
    for (int i = 4; i + 1 < argc; ++i)
      if (std::strcmp(argv[i], "--stall-after") == 0)
        stall_after = std::atoll(argv[i + 1]);
    return run_journaled(argv[2], argv[3], stall_after);
  }
  if (argc != 1) {
    std::fprintf(stderr,
                 "usage: %s [--reference out.json | --journaled out.json journal "
                 "[--stall-after K]]\n",
                 argv[0]);
    return 2;
  }
  return run_default();
}
