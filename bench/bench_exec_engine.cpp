// Before/after benchmark of the compiled execution engine on a verify-heavy
// allreduce sweep: the reference executor (per-op schedule walk,
// per-message BlockSlot copies, one heap-allocated vector per block slot)
// vs the compiled path (flat ExecPlan pulled from the schedule cache, flat
// per-cell state and contributor bitsets -- runtime/compiled_executor.hpp).
// Each sweep is timed as the median of 15 rounds of process CPU time, with
// its quartiles printed and recorded.
//
// Plan: the compiled sweep is a Backend::execute_verified SweepPlan (one
// single-algorithm series per applicable allreduce algorithm); the
// reference loop is kept verbatim as the pre-engine oracle being timed
// against. Also profiles the executor's threaded crossover -- the vector
// size beyond which threads > 1 beats sequential -- and records it next to
// the auto-gate threshold (runtime::kExecAutoThreadBytes) in
// BENCH_exec.json, plus the shared-process-cache demonstration (a second
// system's plan resolving the same cells without a single new generation)
// and the sweep's summed stage-copy bytes (0 = the direct/fused/pair-tiling
// analysis left every delivery zero-copy).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "coll/registry.hpp"
#include "exp/sweep.hpp"
#include "fault/fault.hpp"
#include "harness/runner.hpp"
#include "net/profiles.hpp"
#include "runtime/compiled_executor.hpp"
#include "runtime/executor.hpp"
#include "runtime/verify.hpp"
#include "sched/schedule_cache.hpp"

using namespace bine;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds (user + system) this process has used so far. The sweeps run
/// on one thread, so a round's CPU time is its own work: unlike wall time it
/// does not grow while other processes hold the cores.
double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// First quartile, median and third quartile of a sample (linear
/// interpolation between order statistics).
struct Quartiles {
  double q1 = 0, median = 0, q3 = 0;
};

Quartiles quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto at = [&](double q) {
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
  };
  return {at(0.25), at(0.5), at(0.75)};
}

struct Cell {
  const coll::AlgorithmEntry* entry;
  i64 size_bytes;
};

std::vector<Cell> build_cells() {
  // Schedule structure is size-independent (the ScheduleCache invariant), so
  // verification sweeps run at small-to-medium representative sizes -- the
  // regime where per-op overheads (the reference's per-block allocations and
  // hash-map matching) dominate and an IR-level executor pays off most.
  std::vector<Cell> cells;
  for (const auto& entry : coll::algorithms_for(sched::Collective::allreduce)) {
    if (entry.specialized) continue;
    if (entry.pow2_only && !is_pow2(64)) continue;
    for (const i64 size : {i64{1024}, i64{8192}, i64{32768}})
      cells.push_back({&entry, size});
  }
  return cells;
}

std::vector<std::vector<std::uint32_t>> make_inputs(i64 p, i64 elems) {
  std::vector<std::vector<std::uint32_t>> in(static_cast<size_t>(p));
  for (i64 r = 0; r < p; ++r) {
    in[static_cast<size_t>(r)].resize(static_cast<size_t>(elems));
    for (i64 e = 0; e < elems; ++e)
      in[static_cast<size_t>(r)][static_cast<size_t>(e)] =
          static_cast<std::uint32_t>(r) * 2654435761u + static_cast<std::uint32_t>(e);
  }
  return in;
}

constexpr i64 kNodes = 64;

/// The pre-engine behaviour: generate the schedule, walk it with the
/// reference executor, verify.
bool run_sweep_reference(const std::vector<Cell>& cells) {
  bool all_ok = true;
  for (const Cell& c : cells) {
    coll::Config cfg;
    cfg.p = kNodes;
    cfg.elem_size = 4;
    cfg.elem_count = std::max<i64>(kNodes, c.size_bytes / cfg.elem_size);
    const sched::Schedule sch = c.entry->make(cfg);
    const auto inputs = make_inputs(cfg.p, cfg.elem_count);
    const auto res =
        runtime::execute_reference<std::uint32_t>(sch, runtime::ReduceOp::sum, inputs);
    all_ok &=
        runtime::verify<std::uint32_t>(sch, runtime::ReduceOp::sum, inputs, res).empty();
  }
  return all_ok;
}

/// The compiled path as a declarative plan: every cell executed over real
/// buffers by the compiled executor (ExecPlan from the schedule cache) and
/// checked against its MPI postcondition.
exp::SweepPlan compiled_plan(net::SystemProfile profile) {
  exp::SweepPlan plan;
  plan.name = "exec_engine_verify_sweep";
  plan.systems = {exp::SystemSpec{std::move(profile)}};
  plan.colls = {sched::Collective::allreduce};
  for (const auto& entry : coll::algorithms_for(sched::Collective::allreduce)) {
    if (entry.specialized) continue;
    if (entry.pow2_only && !is_pow2(kNodes)) continue;
    plan.series.push_back(exp::Series::single(entry.name));
  }
  plan.nodes.counts = {kNodes};
  plan.sizes = {1024, 8192, 32768};
  plan.backend = exp::Backend::execute_verified;
  plan.exec_threads = 1;  // small vectors: below the auto-gate threshold anyway
  plan.threads = 1;       // timing: the engine invocation is the artifact
  return plan;
}

bool run_sweep_compiled(i64* stage_bytes_out = nullptr) {
  const exp::SweepResult r = exp::run(compiled_plan(net::fugaku_profile({4, 4, 4})));
  bool all_ok = true;
  i64 stage_bytes = 0;
  for (const exp::Row& row : r.rows) {
    all_ok &= row.m.ok;
    stage_bytes += row.m.stage_bytes;
  }
  if (stage_bytes_out) *stage_bytes_out = stage_bytes;
  return all_ok;
}

/// Bit-exactness gate: compiled result vs reference on every cell.
bool parity_gate(harness::Runner& runner, const std::vector<Cell>& cells) {
  for (const Cell& c : cells) {
    coll::Config cfg;
    cfg.p = kNodes;
    cfg.elem_size = 4;
    cfg.elem_count = std::max<i64>(kNodes, c.size_bytes / cfg.elem_size);
    const sched::Schedule sch = c.entry->make(cfg);
    const auto inputs = make_inputs(cfg.p, cfg.elem_count);
    const auto ref =
        runtime::execute_reference<std::uint32_t>(sch, runtime::ReduceOp::sum, inputs);
    const runtime::ExecPlan plan = runner.exec_plan(sched::Collective::allreduce,
                                                    *c.entry, kNodes, c.size_bytes);
    const auto got =
        runtime::execute<std::uint32_t>(plan, runtime::ReduceOp::sum, inputs);
    if (got.messages != ref.messages || got.wire_bytes != ref.wire_bytes) return false;
    for (Rank r = 0; r < sch.p; ++r)
      for (i64 b = 0; b < sch.nblocks; ++b) {
        const auto& slot =
            ref.ranks[static_cast<size_t>(r)].slots[static_cast<size_t>(b)];
        if (got.is_valid(r, b) != slot.valid) return false;
        if (!slot.valid) continue;
        const auto data = got.block(r, b);
        if (!std::equal(data.begin(), data.end(), slot.data.begin(), slot.data.end()))
          return false;
        if (!(got.contributors(r, b) == slot.contributors)) return false;
      }
  }
  return true;
}

/// Satellite: profile the executor's threaded crossover. Times the compiled
/// executor at threads = 1 vs threads = 4 across vector sizes bracketing
/// the ~1 MiB gate the ROADMAP names, and reports the smallest profiled
/// size where threading wins (or -1 when it never does -- expected on
/// 1-core containers; the JSON records hardware_threads alongside).
struct ThreadProfilePoint {
  i64 bytes;
  double sequential_ms;
  double threaded_ms;
};

std::vector<ThreadProfilePoint> profile_threaded_crossover(harness::Runner& runner) {
  std::vector<ThreadProfilePoint> points;
  const auto& entry =
      coll::find_algorithm(sched::Collective::allreduce, "recursive_doubling");
  for (const i64 bytes : {i64{1} << 16, i64{1} << 18, i64{1} << 20, i64{1} << 22,
                          i64{1} << 23}) {
    const runtime::ExecPlan plan =
        runner.exec_plan(sched::Collective::allreduce, entry, kNodes, bytes);
    const auto inputs = make_inputs(plan.p, plan.elem_count);
    auto time_exec = [&](i64 threads) {
      double best = std::numeric_limits<double>::infinity();
      for (int round = 0; round < 3; ++round) {
        const auto t0 = Clock::now();
        const auto res =
            runtime::execute<std::uint32_t>(plan, runtime::ReduceOp::sum, inputs,
                                            threads);
        best = std::min(best, seconds_since(t0));
        if (res.messages == 0) std::abort();  // keep the work observable
      }
      return 1e3 * best;
    };
    points.push_back({bytes, time_exec(1), time_exec(4)});
  }
  return points;
}

}  // namespace

int main() {
  const auto cells = build_cells();
  std::printf("sweep: %zu verify-heavy allreduce cells (%zu algorithms x 3 sizes) "
              "at 64 ranks\n",
              cells.size(), cells.size() / 3);

  harness::Runner runner(net::fugaku_profile({4, 4, 4}));

  const bool parity = parity_gate(runner, cells);
  if (!parity) {
    std::fprintf(stderr, "FAIL: compiled executor diverges from the reference\n");
    return 1;
  }

  // Median of kTimingRounds rounds per mode, each timed as process CPU time;
  // the quartiles around it say how far one round can be trusted.
  constexpr int kTimingRounds = 15;
  auto time_mode = [&](auto&& sweep) {
    std::vector<double> rounds;
    for (int round = 0; round < kTimingRounds; ++round) {
      const double t0 = process_cpu_seconds();
      if (!sweep()) std::abort();  // a failed verification voids the timing
      rounds.push_back(1e3 * (process_cpu_seconds() - t0));
    }
    return quartiles(std::move(rounds));
  };
  const Quartiles reference_ms = time_mode([&] { return run_sweep_reference(cells); });
  // Stage-copy accounting rides along: with direct + fused + pair-tiling
  // analysis, every registry plan executes fully zero-copy, so the sweep's
  // summed ExecPlan::stage_bytes must come back 0.
  i64 sweep_stage_bytes = -1;
  const Quartiles compiled_ms =
      time_mode([&] { return run_sweep_compiled(&sweep_stage_bytes); });
  const double speedup = reference_ms.median / compiled_ms.median;

  // Shared-cache demonstration: a second system's plan in this process
  // resolves the same cells purely from hits (zero new generations).
  const auto before = sched::process_schedule_cache().stats();
  const exp::SweepResult second = exp::run(compiled_plan(net::lumi_profile()));
  bool second_ok = true;
  for (const exp::Row& row : second.rows) second_ok &= row.m.ok;
  const auto after = sched::process_schedule_cache().stats();
  const u64 second_hits = after.hits - before.hits;
  const u64 second_misses = after.misses - before.misses;

  // Threaded-crossover profile (drives the auto-gate default's sanity). The
  // crossover is only derivable when the machine can actually run threads in
  // parallel: on a single-core runner every threaded point loses by
  // construction, so the JSON says so explicitly instead of emitting a bare
  // -1 with no explanation.
  const std::vector<ThreadProfilePoint> profile = profile_threaded_crossover(runner);
  const unsigned cores = std::thread::hardware_concurrency();
  const bool crossover_unmeasurable = cores <= 1;
  i64 crossover = -1;
  if (!crossover_unmeasurable)
    for (const ThreadProfilePoint& pt : profile)
      if (pt.threaded_ms < pt.sequential_ms) {
        crossover = pt.bytes;
        break;
      }

  std::printf("CPU ms per sweep, median [quartiles] of %d rounds:\n", kTimingRounds);
  std::printf("reference: %8.2f [%.2f-%.2f] (schedule walk + per-slot copies)\n",
              reference_ms.median, reference_ms.q1, reference_ms.q3);
  std::printf("compiled:  %8.2f [%.2f-%.2f] (cached ExecPlan + flat state)\n",
              compiled_ms.median, compiled_ms.q1, compiled_ms.q3);
  std::printf("speedup:   %8.2fx   (parity: bit-exact)\n", speedup);
  std::printf("stage copies: %lld bytes across the sweep (zero-copy: direct + fused "
              "+ pair tiling)\n",
              static_cast<long long>(sweep_stage_bytes));
  std::printf("second runner: %llu cache hits, %llu misses (%s)\n",
              static_cast<unsigned long long>(second_hits),
              static_cast<unsigned long long>(second_misses),
              second_ok ? "all verified" : "VERIFY FAILED");
  std::printf("threaded crossover: ");
  for (const ThreadProfilePoint& pt : profile)
    std::printf("%lldKiB %.2f/%.2fms  ", static_cast<long long>(pt.bytes >> 10),
                pt.sequential_ms, pt.threaded_ms);
  const std::string crossover_label =
      crossover_unmeasurable ? "unmeasurable (single-core runner)"
      : crossover < 0        ? "never (threading loses at every profiled size)"
                             : std::to_string(crossover) + " bytes";
  std::printf("\n  -> threads>1 wins from %s (auto gate: %lld bytes, %u hardware "
              "threads)\n",
              crossover_label.c_str(),
              static_cast<long long>(runtime::kExecAutoThreadBytes), cores);

  if (fault::AtomicFile out("BENCH_exec.json"); std::FILE* f = out.handle()) {
    std::string profile_json;
    for (size_t i = 0; i < profile.size(); ++i) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"bytes\": %lld, \"sequential_ms\": %.3f, "
                    "\"threads4_ms\": %.3f}",
                    i ? ", " : "", static_cast<long long>(profile[i].bytes),
                    profile[i].sequential_ms, profile[i].threaded_ms);
      profile_json += buf;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"exec_engine\",\n"
                 "  \"workload\": \"allreduce_verify_sweep_64_ranks\",\n"
                 "  \"num_cells\": %zu,\n"
                 "  \"sweep_timing\": \"median of %d rounds, process CPU time\",\n"
                 "  \"reference_sweep_ms\": %.3f,\n"
                 "  \"reference_sweep_ms_quartiles\": [%.3f, %.3f],\n"
                 "  \"compiled_sweep_ms\": %.3f,\n"
                 "  \"compiled_sweep_ms_quartiles\": [%.3f, %.3f],\n"
                 "  \"speedup\": %.2f,\n"
                 "  \"parity_bit_exact\": %s,\n"
                 "  \"stage_bytes\": %lld,\n"
                 "  \"second_runner_cache_hits\": %llu,\n"
                 "  \"second_runner_cache_misses\": %llu,\n"
                 "  \"exec_thread_profile\": [%s],\n"
                 "  \"threaded_crossover_bytes_measured\": %lld,\n"
                 "  \"crossover_unmeasurable_single_core\": %s,\n"
                 "  \"threads_auto_gate_bytes\": %lld,\n"
                 "  \"hardware_threads\": %u\n"
                 "}\n",
                 cells.size(), kTimingRounds, reference_ms.median, reference_ms.q1,
                 reference_ms.q3, compiled_ms.median, compiled_ms.q1, compiled_ms.q3, speedup,
                 parity ? "true" : "false",
                 static_cast<long long>(sweep_stage_bytes),
                 static_cast<unsigned long long>(second_hits),
                 static_cast<unsigned long long>(second_misses), profile_json.c_str(),
                 static_cast<long long>(crossover),
                 crossover_unmeasurable ? "true" : "false",
                 static_cast<long long>(runtime::kExecAutoThreadBytes), cores);
    if (out.commit()) std::printf("wrote BENCH_exec.json\n");
  }
  return (parity && second_ok && second_misses == 0 && sweep_stage_bytes == 0) ? 0 : 1;
}
