#pragma once

#include <functional>
#include <string>
#include <vector>

#include "harness/cancel.hpp"
#include "harness/runner.hpp"
#include "tune/decision_table.hpp"

/// The tuning engine: turns the one-off candidate sweeps the table/figure
/// benches run -- and then throw away -- into persisted decision tables.
///
/// A *cell* is one (system profile, collective, p): the unit the classic
/// collective-tuning literature keys selection by, the sweep-engine
/// planner's work-item unit, and the unit this engine shards. `build`
/// declares a plan over (profiles, collectives, node counts) and lets
/// exp::run_cells enumerate, deduplicate and fan the cells out -- one
/// Runner per profile, cells of different systems running concurrently, all
/// sharing the process-wide schedule cache (generation for a (coll, p) pair
/// happens once no matter how many systems rank it). Inside a cell, every
/// candidate algorithm from coll::registry is ranked at every grid size by
/// the compiled simulator; the per-size winners are then compressed into the
/// piecewise size intervals a DecisionTable stores.
///
/// Ranking is a pure function of (profile, collective, p, grid), so tables
/// are byte-identical for any shard width -- the determinism tests assert
/// serial vs sharded equality. The optional refinement stage keeps that
/// property: it re-checks the top-K simulated candidates per size through
/// the *verified execution* path (compiled executor + postcondition verify,
/// Runner::run_verified with the configured element type / reduce op) and
/// disqualifies any that fail -- a correctness gate over real buffer
/// movement, not a wall-clock re-ranking.
namespace bine::tune {

struct TunerOptions {
  /// Message-size grid (bytes) to rank candidates on; empty = the paper's
  /// sweep sizes (harness::paper_vector_sizes(false)). Sorted + deduped at
  /// use.
  std::vector<i64> size_grid;
  /// > 0: per grid size, re-check the top-K simulated candidates through
  /// verified execution and disqualify failures. 0 = simulation ranking only.
  i64 refine_top_k = 0;
  /// Adaptive grid refinement: up to this many bisection passes between
  /// adjacent grid points whose winners differ. Each pass ranks the
  /// geometric midpoint of every crossover bracket (the same ranking --
  /// including the verified-execution gate -- the base grid uses) and
  /// inserts it into the grid, so DecisionTable crossover boundaries tighten
  /// without a denser global grid. 0 = base grid only. Deterministic: the
  /// refined grid is a pure function of the cell.
  i64 bisect_depth = 0;
  runtime::ElemType refine_elem = runtime::ElemType::u32;
  runtime::ReduceOp refine_op = runtime::ReduceOp::sum;
  /// Shard width for build(); <= 0 = harness::default_thread_count().
  i64 threads = 0;
  /// Runner knobs (must match the consumer's Runner for the table to be
  /// faithful; svc::Server builds its tune-on-miss Runners from them).
  bool spread_placement = true;
  u64 seed = 42;
  /// Self-healing builds: a cell whose work item still throws after retries
  /// is *excluded* from the table with a BuildReport note (LoadReport-style)
  /// instead of aborting the whole build; consumers then treat the cell as
  /// never tuned (MissPolicy applies). A build where EVERY cell fails still
  /// throws. Default off: build() propagates the first failure, exactly the
  /// pre-fault-layer contract.
  bool tolerate_failed_cells = false;
  /// Bounded deterministic retry for failures classified transient
  /// (fault::TransientError), with doubling backoff (0 ms = no sleep).
  i64 transient_retries = 0;
  i64 retry_backoff_ms = 0;

  // --- durable builds --------------------------------------------------------
  /// When non-empty, build() journals every tuned cell here (exp::Journal,
  /// keyed by the build plan's fingerprint with the tuner's own grid and
  /// refinement knobs mixed in): a killed build, re-run with the same
  /// inputs, replays finished cells from the journal and produces a
  /// byte-identical DecisionTable. Failed cells are never journaled -- a
  /// resumed build retries them fresh.
  std::string journal_path;
  /// Per-cell wall-clock budget in milliseconds (0 = none), enforced
  /// cooperatively between candidate evaluations; an overrunning cell fails
  /// with fault::DeadlineExceeded under the usual failure discipline.
  i64 cell_deadline_ms = 0;
  /// Cooperative cancellation for build(): in-flight cells drain (and are
  /// journaled), unstarted cells are skipped and counted in
  /// BuildReport::cancelled_cells -- the partial table is resumable via the
  /// journal.
  const harness::CancelToken* cancel = nullptr;
  /// Progress hook: (cells done or replayed so far, total cells).
  std::function<void(size_t done, size_t total)> progress;
};

/// What build() did: cell counts plus one note per excluded cell (only ever
/// non-empty under TunerOptions::tolerate_failed_cells).
struct BuildReport {
  i64 cells = 0;          ///< cells tuned into the table
  i64 failed_cells = 0;   ///< cells excluded after exhausting retries
  i64 replayed_cells = 0; ///< cells answered from the journal (durable builds)
  i64 cancelled_cells = 0;///< cells skipped because the CancelToken fired
  /// Verified refinement through the build's harness::VerifyMemo: executions
  /// performed / requests answered from the memo. Their sum is the number of
  /// verification requests the build made.
  i64 verified_runs = 0;
  i64 verify_memo_hits = 0;
  std::vector<std::string> notes;
};

class Tuner {
 public:
  explicit Tuner(TunerOptions options = {});

  [[nodiscard]] const TunerOptions& options() const { return options_; }

  /// Tune every (profile, collective, p) cell and assemble the table
  /// (profiles fingerprinted, cells interval-compressed). Profile names must
  /// be unique. Cell enumeration and sharding delegate to the sweep
  /// engine's planner (exp::enumerate_cells / exp::run_cells): one work item
  /// per deduplicated cell, sharded across `options().threads`, every
  /// Runner sharing the process-wide schedule cache. One harness::VerifyMemo,
  /// alive for this call only, serves every Runner and shard worker, so an
  /// execution that several systems or sizes verify runs once. `report`,
  /// when given, receives cell counts, verification counts and the exclusion
  /// notes of any failed cells (see TunerOptions::tolerate_failed_cells).
  [[nodiscard]] DecisionTable build(const std::vector<net::SystemProfile>& profiles,
                                    const std::vector<sched::Collective>& colls,
                                    const std::vector<i64>& node_counts,
                                    BuildReport* report = nullptr) const;

  /// Tune one cell with a caller-provided Runner (the tune-on-miss path and
  /// build()'s per-cell work item). Deterministic; throws if no candidate
  /// applies or every refined candidate fails verification. `guard`, when
  /// given, is checkpointed between candidate evaluations so a per-cell
  /// deadline can interrupt a wedged cell. `memo`, when given, answers
  /// verified refinement requests it already holds (build() passes its own).
  [[nodiscard]] std::vector<SizeInterval> tune_cell(
      harness::Runner& runner, sched::Collective coll, i64 p,
      const harness::CellGuard* guard = nullptr,
      harness::VerifyMemo* memo = nullptr) const;

  /// The registry candidates a cell ranks: every non-topology-specialized
  /// algorithm whose rank-count gate admits p, in registry order.
  [[nodiscard]] static std::vector<const coll::AlgorithmEntry*> candidates(
      sched::Collective coll, i64 p);

 private:
  /// Rank every candidate at one size and return the winner (simulated
  /// argmin, refined through verified execution when configured). The whole
  /// pool is evaluated in one harness::Runner::run_candidates call.
  [[nodiscard]] const coll::AlgorithmEntry* winner_at(
      harness::Runner& runner, sched::Collective coll, i64 p, i64 size,
      const std::vector<const coll::AlgorithmEntry*>& cands,
      const harness::CellGuard* guard, harness::VerifyMemo* memo) const;

  /// Selection given each candidate's already-simulated seconds at one size:
  /// the stable-sort ranking and verified refinement winner_at performs,
  /// factored out so tune_cell can rank every grid size from ONE batched
  /// (candidates x grid) evaluation.
  [[nodiscard]] const coll::AlgorithmEntry* pick_winner(
      harness::Runner& runner, sched::Collective coll, i64 p, i64 size,
      const std::vector<const coll::AlgorithmEntry*>& cands,
      const std::vector<double>& seconds, const harness::CellGuard* guard,
      harness::VerifyMemo* memo) const;

  /// The tuner knobs that shape cell results, hashed into the build plan's
  /// journal_salt: a journal written by a differently-configured tuner must
  /// never replay into this one.
  [[nodiscard]] u64 options_salt() const;

  TunerOptions options_;
  std::vector<i64> grid_;  ///< normalized size_grid
};

}  // namespace bine::tune
