#include "tune/tuner.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/fnv.hpp"
#include "exp/sweep.hpp"

namespace bine::tune {

using sched::Collective;

Tuner::Tuner(TunerOptions options) : options_(std::move(options)) {
  grid_ = options_.size_grid.empty() ? harness::paper_vector_sizes(false)
                                     : options_.size_grid;
  std::sort(grid_.begin(), grid_.end());
  grid_.erase(std::unique(grid_.begin(), grid_.end()), grid_.end());
  if (grid_.empty() || grid_.front() <= 0)
    throw std::invalid_argument("tuner: size grid must be positive");
  const bool float_elem = options_.refine_elem == runtime::ElemType::f32 ||
                          options_.refine_elem == runtime::ElemType::f64;
  if (options_.refine_top_k > 0 && float_elem &&
      !runtime::verifiable_over_floats(options_.refine_op)) {
    std::string what = "tuner: refinement cannot verify ReduceOp::";
    what += runtime::to_string(options_.refine_op);
    what += " over floating-point elements (order-dependent or undefined); "
            "pick an integral refine_elem";
    throw std::invalid_argument(what);
  }
}

std::vector<const coll::AlgorithmEntry*> Tuner::candidates(Collective coll, i64 p) {
  std::vector<const coll::AlgorithmEntry*> out;
  for (const auto& entry : coll::algorithms_for(coll)) {
    if (entry.specialized) continue;
    if (entry.pow2_only && !is_pow2(p)) continue;
    out.push_back(&entry);
  }
  return out;
}

const coll::AlgorithmEntry* Tuner::winner_at(
    harness::Runner& runner, Collective coll, i64 p, i64 size,
    const std::vector<const coll::AlgorithmEntry*>& cands,
    const harness::CellGuard* guard, harness::VerifyMemo* memo) const {
  // One run_candidates call for the whole pool at this size (bisection
  // midpoints land here; the initial grid batches sizes too, in tune_cell).
  if (guard != nullptr) guard->checkpoint("candidate ranking");
  const std::vector<std::vector<harness::RunResult>> evaluated =
      runner.run_candidates(coll, cands, p, std::span<const i64>(&size, 1));
  std::vector<double> seconds(cands.size());
  for (size_t k = 0; k < cands.size(); ++k) seconds[k] = evaluated[k][0].seconds;
  return pick_winner(runner, coll, p, size, cands, seconds, guard, memo);
}

const coll::AlgorithmEntry* Tuner::pick_winner(
    harness::Runner& runner, Collective coll, i64 p, i64 size,
    const std::vector<const coll::AlgorithmEntry*>& cands,
    const std::vector<double>& seconds, const harness::CellGuard* guard,
    harness::VerifyMemo* memo) const {
  // Rank every candidate by simulated time. Pure function of the cell, so
  // sharding cannot reorder anything observable.
  std::vector<std::pair<double, size_t>> ranked(cands.size());
  for (size_t k = 0; k < cands.size(); ++k) ranked[k] = {seconds[k], k};
  // stable_sort keeps registry order on ties -- the same tie-break the
  // sweep engine's best-of series performs with its strict <.
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  if (options_.refine_top_k <= 0) return cands[ranked.front().second];

  // Correctness gate: the best simulated candidate that also executes and
  // verifies over real buffers wins. Verification outcomes are
  // deterministic, so this stays shard-invariant.
  const size_t k_max =
      std::min<size_t>(static_cast<size_t>(options_.refine_top_k), ranked.size());
  // Executor threads: cells are already fanned out across shard workers, so
  // nesting the executor's thread pool inside a sharded build would
  // oversubscribe (shard_width x exec_threads threads); only an explicitly
  // serial build lets the executor's size-gated auto default engage.
  const i64 exec_threads = options_.threads == 1 ? 0 : 1;
  for (size_t k = 0; k < k_max; ++k) {
    if (guard != nullptr) guard->checkpoint("verified refinement");
    const coll::AlgorithmEntry* cand = cands[ranked[k].second];
    const harness::VerifiedRun v =
        runner.run_verified(coll, *cand, p, size, exec_threads, options_.refine_elem,
                            options_.refine_op, memo);
    if (v.ok) return cand;
  }
  throw std::runtime_error(std::string("tuner: all top-") + std::to_string(k_max) +
                           " candidates failed verified execution for " +
                           to_string(coll) + " p=" + std::to_string(p) +
                           " size=" + std::to_string(size));
}

std::vector<SizeInterval> Tuner::tune_cell(harness::Runner& runner, Collective coll,
                                           i64 p, const harness::CellGuard* guard,
                                           harness::VerifyMemo* memo) const {
  const std::vector<const coll::AlgorithmEntry*> cands = candidates(coll, p);
  if (cands.empty())
    throw std::runtime_error(std::string("tuner: no applicable algorithm for ") +
                             to_string(coll) + " p=" + std::to_string(p));

  std::vector<i64> grid = grid_;
  // The initial grid is the tuner's bulk work: ONE run_candidates call
  // evaluates the whole (candidates x grid) matrix -- each candidate in one
  // size-batched pass across the grid -- then each grid size is ranked from
  // its matrix column. Bit-identical seconds, identical winners.
  if (guard != nullptr) guard->checkpoint("candidate ranking");
  const std::vector<std::vector<harness::RunResult>> evaluated =
      runner.run_candidates(coll, cands, p, grid);
  std::vector<const coll::AlgorithmEntry*> winners;
  winners.reserve(grid.size());
  std::vector<double> seconds(cands.size());
  for (size_t gi = 0; gi < grid.size(); ++gi) {
    for (size_t k = 0; k < cands.size(); ++k) seconds[k] = evaluated[k][gi].seconds;
    winners.push_back(
        pick_winner(runner, coll, p, grid[gi], cands, seconds, guard, memo));
  }

  // Adaptive refinement (bounded depth): each pass ranks the geometric
  // midpoint of every adjacent pair whose winners differ and inserts it, so
  // the crossover boundary tightens by ~sqrt per pass. Midpoint winners that
  // match neither neighbour (a third algorithm surfacing between grid
  // points) simply become new grid points, and the next pass brackets both
  // of the new crossings.
  for (i64 depth = 0; depth < options_.bisect_depth; ++depth) {
    std::vector<i64> refined_grid;
    std::vector<const coll::AlgorithmEntry*> refined_winners;
    bool inserted = false;
    for (size_t i = 0; i < grid.size(); ++i) {
      refined_grid.push_back(grid[i]);
      refined_winners.push_back(winners[i]);
      if (i + 1 >= grid.size() || winners[i] == winners[i + 1]) continue;
      const i64 mid = static_cast<i64>(std::llround(
          std::sqrt(static_cast<double>(grid[i]) * static_cast<double>(grid[i + 1]))));
      if (mid <= grid[i] || mid >= grid[i + 1]) continue;  // bracket exhausted
      refined_grid.push_back(mid);
      refined_winners.push_back(winner_at(runner, coll, p, mid, cands, guard, memo));
      inserted = true;
    }
    grid = std::move(refined_grid);
    winners = std::move(refined_winners);
    if (!inserted) break;
  }

  // Compress per-size winners into the piecewise crossover structure: the
  // winner at grid size s governs [s, next grid size); the first interval
  // extends down to 0 and the last is open-ended.
  std::vector<SizeInterval> intervals;
  for (size_t i = 0; i < grid.size(); ++i) {
    if (intervals.empty() || intervals.back().algorithm != winners[i]->name) {
      if (!intervals.empty()) intervals.back().hi_bytes = grid[i];
      intervals.push_back({intervals.empty() ? 0 : grid[i], kNoUpperBound,
                           winners[i]->name});
    }
  }
  return intervals;
}

u64 Tuner::options_salt() const {
  u64 h = core::kFnvOffset;
  const auto mix = [&h](u64 v) { core::fnv_mix_bytes(h, &v, sizeof(v)); };
  core::fnv_mix_string(h, "bine.tuner.options.v1");
  mix(grid_.size());
  for (const i64 s : grid_) mix(static_cast<u64>(s));
  mix(static_cast<u64>(options_.refine_top_k));
  mix(static_cast<u64>(options_.bisect_depth));
  mix(static_cast<u64>(static_cast<int>(options_.refine_elem)));
  mix(static_cast<u64>(static_cast<int>(options_.refine_op)));
  return h;
}

namespace {

/// Journal payload codec for a tuned cell: one "lo<TAB>hi<TAB>algorithm"
/// line per SizeInterval. Lossless -- bounds are integers and algorithm
/// names are registry identifiers (no tabs or newlines) -- so a replayed
/// cell reproduces its intervals byte-for-byte.
std::string encode_intervals(const std::vector<SizeInterval>& intervals) {
  std::string out;
  for (const SizeInterval& iv : intervals)
    out += std::to_string(iv.lo_bytes) + "\t" + std::to_string(iv.hi_bytes) + "\t" +
           iv.algorithm + "\n";
  return out;
}

std::vector<SizeInterval> decode_intervals(std::string_view payload) {
  std::vector<SizeInterval> out;
  size_t pos = 0;
  while (pos < payload.size()) {
    const size_t line_end = payload.find('\n', pos);
    if (line_end == std::string_view::npos)
      throw std::runtime_error("tuner journal codec: unterminated line");
    const std::string_view line = payload.substr(pos, line_end - pos);
    pos = line_end + 1;
    const size_t t1 = line.find('\t');
    const size_t t2 = t1 == std::string_view::npos ? t1 : line.find('\t', t1 + 1);
    if (t2 == std::string_view::npos || t2 + 1 >= line.size())
      throw std::runtime_error("tuner journal codec: bad interval line");
    const auto parse_bound = [&](std::string_view s) {
      i64 v = 0;
      const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
      if (ec != std::errc{} || ptr != s.data() + s.size())
        throw std::runtime_error("tuner journal codec: bad interval bound");
      return v;
    };
    out.push_back({parse_bound(line.substr(0, t1)),
                   parse_bound(line.substr(t1 + 1, t2 - t1 - 1)),
                   std::string(line.substr(t2 + 1))});
  }
  if (out.empty()) throw std::runtime_error("tuner journal codec: empty cell");
  return out;
}

}  // namespace

DecisionTable Tuner::build(const std::vector<net::SystemProfile>& profiles,
                           const std::vector<Collective>& colls,
                           const std::vector<i64>& node_counts,
                           BuildReport* report) const {
  DecisionTable table;
  for (const net::SystemProfile& profile : profiles) {
    const u64 fp = profile_fingerprint(profile);
    const auto it = table.profiles().find(profile.name);
    if (it != table.profiles().end() && it->second != fp)
      throw std::invalid_argument("tuner: duplicate profile name '" + profile.name +
                                  "' with different parameters");
    table.set_profile(profile.name, fp);
  }

  // The cell enumeration and cross-system sharding now live in the sweep
  // engine's planner: a tuning run is just a plan over (systems, colls,
  // node counts) whose deduplicated (system, coll, p) work items we measure
  // with tune_cell instead of a metric backend. One Runner per profile,
  // shared by all that profile's cells and ALL worker threads (Runner is
  // sweep-grade thread-safe); every Runner shares the process-wide schedule
  // cache, so a (coll, p) pair generates once no matter how many systems
  // rank it.
  exp::SweepPlan plan;
  plan.name = "tuner_build";
  plan.systems.reserve(profiles.size());
  for (const net::SystemProfile& profile : profiles) {
    exp::SystemSpec spec;
    spec.profile = profile;
    spec.spread_placement = options_.spread_placement;
    spec.seed = options_.seed;
    plan.systems.push_back(std::move(spec));
  }
  plan.colls = colls;
  plan.nodes.counts = node_counts;
  plan.threads = options_.threads;
  // Failure discipline: tolerate_failed_cells -> isolate-and-exclude (the
  // self-healing build), else the pre-fault-layer propagate contract.
  plan.on_error = options_.tolerate_failed_cells ? exp::SweepPlan::OnError::isolate
                                                 : exp::SweepPlan::OnError::propagate;
  plan.transient_retries = options_.transient_retries;
  plan.retry_backoff_ms = options_.retry_backoff_ms;
  // Durable builds: the journal key is the build plan's fingerprint with the
  // tuner's own result-shaping knobs (grid, refinement) salted in, so a
  // differently-configured tuner -- or a changed profile set -- never
  // replays stale cells.
  plan.journal_path = options_.journal_path;
  plan.journal_salt = options_salt();
  plan.cell_deadline_ms = options_.cell_deadline_ms;
  plan.cancel = options_.cancel;
  plan.progress = options_.progress;

  const std::vector<exp::CellRef> cells = exp::enumerate_cells(plan);
  std::vector<std::vector<SizeInterval>> results(cells.size());
  exp::CellCodec codec;
  codec.encode = [&](size_t i, const exp::CellError* err) -> std::string {
    // Only finished cells journal; a failed cell re-runs fresh on resume
    // (its failure may have been environmental, and the retry costs what the
    // original attempt cost).
    return err != nullptr ? std::string() : encode_intervals(results[i]);
  };
  codec.decode = [&](size_t i, std::string_view payload) -> std::optional<exp::CellError> {
    results[i] = decode_intervals(payload);
    return std::nullopt;
  };
  exp::RunCellsReport cell_report;
  // Verified runs never read placement or link costs, so every system's
  // Runner and every shard worker shares one memo; it dies with this call.
  harness::VerifyMemo memo;
  const std::vector<exp::CellFailure> failures = exp::run_cells(
      plan,
      [&](size_t i, const exp::CellRef& cell, harness::Runner& runner,
          const harness::CellGuard& guard) {
        results[i] = tune_cell(runner, cell.coll, cell.p, &guard, &memo);
      },
      &codec, &cell_report);
  if (!failures.empty() && failures.size() == cells.size())
    throw std::runtime_error("tuner: every cell failed; first: " +
                             failures.front().error.message);

  // Failed cells are excluded with a note (LoadReport-style): the table
  // simply has no entry, so consumers fall through to their MissPolicy.
  // Cancelled cells are likewise absent, but reported separately -- they are
  // not failures, and a journaled re-run picks them up.
  std::vector<bool> skip(cells.size(), false);
  for (const exp::CellFailure& f : failures) skip[f.index] = true;
  BuildReport local;
  BuildReport& rep = report ? *report : local;
  rep.replayed_cells = cell_report.replayed;
  rep.verified_runs = memo.runs();
  rep.verify_memo_hits = memo.hits();
  for (std::string& note : cell_report.notes) rep.notes.push_back(std::move(note));
  for (const exp::CellFailure& f : failures) {
    ++rep.failed_cells;
    rep.notes.push_back(
        "excluded cell " + profiles[f.cell.system].name + "/" +
        std::string(to_string(f.cell.coll)) + " p=" + std::to_string(f.cell.p) +
        " after " + std::to_string(f.error.attempts) + " attempt(s): " +
        f.error.message);
  }
  for (const size_t i : cell_report.cancelled) {
    skip[i] = true;
    ++rep.cancelled_cells;
    rep.notes.push_back("cancelled cell " + profiles[cells[i].system].name + "/" +
                        std::string(to_string(cells[i].coll)) +
                        " p=" + std::to_string(cells[i].p) +
                        " (not tuned; resumable from the journal)");
  }
  for (size_t i = 0; i < cells.size(); ++i) {
    if (skip[i]) continue;
    table.set_cell(CellKey{profiles[cells[i].system].name, cells[i].coll, cells[i].p},
                   std::move(results[i]));
    ++rep.cells;
  }
  return table;
}

}  // namespace bine::tune
