#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "harness/cancel.hpp"
#include "harness/runner.hpp"
#include "tune/decision_table.hpp"

/// The declarative sweep engine: the single execution substrate behind every
/// table/figure/micro bench and the tuner (the separation of experiment
/// *plan* from measurement *backend* that classic collective-tuning systems
/// and cross-system benchmark harnesses converge on).
///
/// A SweepPlan names the paper's evaluation axes -- systems x collectives x
/// series (algorithm selectors, including `tuned`) x node counts x message
/// sizes -- and a metric backend. The planner compiles the plan into
/// deduplicated work items, one per (system, collective, p) cell: the same
/// shard unit tune::Tuner keys by, so cells of different systems run
/// concurrently over harness::parallel_for with every Runner sharing the
/// process-wide schedule cache. Inside a cell, the union of all series'
/// candidate algorithms is evaluated exactly once per message size (the
/// PR 2 sweep batching), and every series is answered from those shared
/// evaluations.
///
/// Every cell is a pure function of its plan coordinates, so the resulting
/// SweepResult table -- rows in canonical system > collective > nodes >
/// size > series order -- is byte-identical for any shard width and for a
/// cold or warm schedule cache. The golden parity suite asserts the ported
/// bench drivers emit bit-identical metrics to the pre-refactor loops.
namespace bine::exp {

using sched::Collective;

/// One system under evaluation: the machine model plus the Runner knobs the
/// old drivers set by hand (fragmented vs identity placement, torus shape).
/// Every system resolves schedules through the one process-wide cache.
struct SystemSpec {
  SystemSpec() = default;
  explicit SystemSpec(net::SystemProfile p) : profile(std::move(p)) {}

  net::SystemProfile profile;
  bool spread_placement = true;  ///< synthetic fragmented scheduler (Sec. 2.2)
  u64 seed = 42;
  std::vector<i64> torus_dims;   ///< Runner::torus_dims (Appendix D generators)
};

/// One output series per cell: which algorithm(s) it evaluates and how the
/// row's winner is picked. The family selectors mirror the paper's framing
/// (best Bine variant / binomial-family baseline / best non-Bine algorithm);
/// explicit lists cover the specialized drivers; `tuned` dispatches through
/// a tune::DecisionTable.
struct Series {
  enum class Pick {
    best,    ///< min simulated seconds over the candidates (strict <, list order)
    single,  ///< exactly one algorithm; skipped when inapplicable at p
    tuned,   ///< tune::select() through the plan's decision table
  };
  enum class Family {
    list,      ///< the explicit `algorithms` vector
    bine,      ///< Runner::bine_names (honours contiguous_only)
    binomial,  ///< Runner::binomial_names
    sota,      ///< Runner::sota_names (all non-Bine)
  };
  std::string label;
  Pick pick = Pick::best;
  Family family = Family::list;
  bool contiguous_only = false;         ///< Family::bine only
  std::vector<std::string> algorithms;  ///< Family::list candidates

  [[nodiscard]] static Series best_bine(bool contiguous_only, std::string label = "bine");
  [[nodiscard]] static Series binomial_baseline(std::string label = "binomial");
  [[nodiscard]] static Series best_sota(std::string label = "sota");
  [[nodiscard]] static Series best_of(std::string label, std::vector<std::string> names);
  [[nodiscard]] static Series single(std::string algorithm);
  [[nodiscard]] static Series tuned(std::string label = "tuned");
};

/// Node-count axis. `extra_counts` extends the base list for the collectives
/// in `extra_colls` only -- the paper's Leonardo methodology, where node
/// counts beyond the user cap were measured for allreduce/allgather alone.
struct NodeAxis {
  std::vector<i64> counts;
  std::vector<i64> extra_counts;
  std::vector<Collective> extra_colls;
  [[nodiscard]] std::vector<i64> counts_for(Collective coll) const;
};

/// Metric backend a plan's cells are measured under.
enum class Backend {
  simulate,          ///< compiled simulator (Runner::run): seconds + traffic
  traffic,           ///< traffic accounting only (same engine; semantic marker)
  execute_verified,  ///< compiled executor over real buffers + postcondition verify
  tuned_dispatch,    ///< tune::select() per cell, winner simulated
  custom,            ///< plan.metric() -- pluggable backend for the oddball axes
};
[[nodiscard]] const char* to_string(Backend b);
/// Inverse of to_string(Backend); throws std::invalid_argument on unknown
/// names (the plan codec's wire schema).
[[nodiscard]] Backend backend_from_string(std::string_view name);

/// One row's measurements. Which fields are meaningful depends on the
/// backend; `skipped` marks a single-algorithm series whose algorithm
/// rejects the cell's rank count (e.g. pow2-only strategies at non-pow2 p).
struct Metrics {
  std::string algorithm;  ///< winning / selected / evaluated algorithm
  double seconds = 0;
  i64 global_bytes = 0;
  i64 total_bytes = 0;
  i64 messages = 0;
  size_t steps = 0;
  bool skipped = false;
  /// The cell's work item threw and the plan isolates failures
  /// (SweepPlan::OnError::isolate): every row of the cell's block carries
  /// failed=true plus the message in `error`, and the result stays partial
  /// instead of the whole sweep aborting.
  bool failed = false;
  /// The cell never ran: the plan's CancelToken fired before this cell was
  /// handed out. A journaled plan re-run with the same journal fills these
  /// rows in (resume).
  bool cancelled = false;
  // Backend::execute_verified
  bool ok = false;
  std::string error;
  i64 wire_bytes = 0;
  /// Bytes copied through the executor's stage buffers (0 = fully zero-copy:
  /// every delivery landed direct, fused, or through in-place tiles).
  i64 stage_bytes = 0;
  u64 digest = 0;
  // Backend::tuned_dispatch
  bool from_table = false;
  // Backend::custom
  double value = 0;
  std::vector<double> extra;
};

struct Row {
  size_t system = 0;
  Collective coll{};
  i64 nodes = 0;
  i64 size_bytes = 0;
  size_t series = 0;
  Metrics m;
};

struct SweepPlan;

/// Context handed to a Backend::custom metric: the plan coordinates plus the
/// cell's Runner (nullptr when the plan declares no systems -- pure-math
/// sweeps like the Eq. 2 distance-bound table).
struct CellCtx {
  const SweepPlan* plan = nullptr;
  harness::Runner* runner = nullptr;
  size_t system = 0;
  Collective coll{};
  i64 nodes = 0;
  i64 size_bytes = 0;
  size_t series = 0;
  /// The work item's deadline guard (never null inside a metric call): a
  /// long-running custom metric should checkpoint() at its own internal
  /// boundaries so SweepPlan::cell_deadline_ms can interrupt it.
  const harness::CellGuard* guard = nullptr;
};

struct SweepPlan {
  std::string name;
  std::vector<SystemSpec> systems;
  std::vector<Collective> colls;
  std::vector<Series> series;
  NodeAxis nodes;
  std::vector<i64> sizes;
  Backend backend = Backend::simulate;

  /// Backend::custom measurement. For custom plans, empty systems / colls /
  /// series / nodes / sizes axes are each treated as a single placeholder
  /// slot (the metric interprets the coordinates); the built-in backends
  /// require every axis to be populated.
  std::function<Metrics(const CellCtx&)> metric;

  // Backend::execute_verified knobs.
  runtime::ElemType elem = runtime::ElemType::u32;
  runtime::ReduceOp op = runtime::ReduceOp::sum;
  i64 exec_threads = 0;  ///< 0 = the executor's size-gated auto default

  // Backend::tuned_dispatch knobs.
  const tune::DecisionTable* table = nullptr;
  tune::MissPolicy miss_policy = tune::MissPolicy::heuristic_default;

  i64 threads = 0;  ///< shard width; <= 0 = harness::default_thread_count()

  /// What an exception escaping one work item does to the sweep.
  enum class OnError {
    propagate,  ///< rethrow after join (the pre-fault-layer behavior)
    isolate,    ///< structured error rows: the cell's block marks failed,
                ///< the rest of the sweep completes, SweepResult::errors
                ///< records the ErrorReport
  };
  OnError on_error = OnError::propagate;
  /// Bounded deterministic retry for failures classified transient
  /// (fault::TransientError): up to this many re-runs of the work item
  /// before the failure counts. Permanent failures never retry.
  i64 transient_retries = 0;
  /// Backoff base (milliseconds) between transient retries, doubling per
  /// attempt (fault::retry_backoff). 0 = no sleeping -- the default, so
  /// deterministic-output plans stay time-independent.
  i64 retry_backoff_ms = 0;

  // --- durable execution -----------------------------------------------------
  /// When non-empty, the engine journals every completed work item to this
  /// append-only, fsync'd, checksummed file (exp::Journal) keyed by
  /// plan_fingerprint(): a killed run, re-executed with the same plan and
  /// journal path, replays the journaled cells instead of re-measuring them,
  /// and the resumed SweepResult is byte-identical to an uninterrupted run.
  /// Damaged journal tails are dropped and quarantined on open. Empty =
  /// journaling off, bit-identical to the journal-free engine. Rejected
  /// (std::invalid_argument) for Backend::custom in run() -- an opaque
  /// metric cannot be fingerprinted, so replay safety cannot be proven
  /// (run_cells callers own that proof via journal_salt).
  std::string journal_path;
  /// Extra state mixed into plan_fingerprint(), for callers whose cell
  /// results depend on knobs outside the plan (tune::Tuner mixes its
  /// grid/refinement options so a changed tuner never replays stale cells).
  u64 journal_salt = 0;
  /// Per-cell wall-clock budget in milliseconds (0 = none), enforced
  /// cooperatively at evaluation boundaries (harness::CellGuard): an
  /// overrunning cell fails with fault::DeadlineExceeded -- classified
  /// permanent, folded into the OnError::isolate/retry machinery, and marked
  /// deadline_exceeded on its CellError. Each retry attempt re-arms the full
  /// budget.
  i64 cell_deadline_ms = 0;
  /// Cooperative cancellation: once fired, in-flight cells drain to
  /// completion (and are journaled), unstarted cells never run and their
  /// rows come back cancelled, and the result carries cancelled=true --
  /// partial but resumable via the journal.
  const harness::CancelToken* cancel = nullptr;
  /// Progress hook, called (serialized) as each work item completes or
  /// replays, with (items done so far, total items). The hook runs on worker
  /// threads -- keep it cheap and reentrancy-free.
  std::function<void(size_t done, size_t total)> progress;
};

/// Structured report of one isolated work-item failure: which (system, coll,
/// p) cell died, with what message, after how many attempts.
struct CellError {
  std::string system;
  Collective coll{};
  i64 nodes = 0;
  std::string message;
  i64 attempts = 1;       ///< total tries, transient retries included
  bool transient = false; ///< classification of the final failure
  /// The failure was the cell overrunning SweepPlan::cell_deadline_ms
  /// (fault::DeadlineExceeded) -- its own error kind, so operators can tell
  /// a stalled cell from a crashed one.
  bool deadline_exceeded = false;
};

/// The deterministic, stably-ordered result table: rows in canonical
/// system > collective > nodes > size > series order, plus the axis labels
/// the formatters print from.
struct SweepResult {
  std::string plan_name;
  Backend backend = Backend::simulate;
  std::vector<std::string> system_names;
  std::vector<Collective> colls;
  std::vector<std::string> series_labels;
  std::vector<std::vector<i64>> coll_nodes;  ///< per collective (NodeAxis applied)
  std::vector<i64> sizes;
  std::vector<Row> rows;
  /// Isolated work-item failures in deterministic work-item order; empty on
  /// a clean run (and always empty under OnError::propagate), so fault-free
  /// JSON output is byte-identical to the pre-fault-layer format.
  std::vector<CellError> errors;
  /// The plan's CancelToken fired before every cell ran: the result is
  /// partial (unstarted cells' rows carry Metrics::cancelled) but resumable
  /// when the plan journals.
  bool cancelled = false;
  /// What the durable-execution layer did (only ever non-zero for journaled
  /// plans). Never serialized: to_json() must stay byte-identical across
  /// fresh, resumed and journal-off runs.
  struct JournalStats {
    i64 replayed = 0;         ///< cells answered from the journal
    i64 executed = 0;         ///< cells measured by this run
    i64 dropped_records = 0;  ///< damaged journal records discarded on open
  };
  JournalStats journal;

  /// Index of a row by axis position (coll_nodes[coll_idx][node_idx]).
  [[nodiscard]] size_t row_index(size_t system, size_t coll_idx, size_t node_idx,
                                 size_t size_idx, size_t series_idx) const;
  [[nodiscard]] const Metrics& at(size_t system, size_t coll_idx, size_t node_idx,
                                  size_t size_idx, size_t series_idx) const;

  /// Canonical JSON emission (fixed field order, %.17g doubles): equal
  /// results serialize byte-identically for any shard width. Failed rows
  /// carry `"failed": true` plus the error; isolated failures add a
  /// top-level `"errors"` array (absent when the run was clean).
  [[nodiscard]] std::string to_json() const;
  /// Crash-safe emission: write-temp-then-rename (fault::write_file_atomic),
  /// so a kill mid-write never leaves a torn artifact.
  void save_json(const std::string& path) const;
};

/// Compile the plan, shard its work items, measure every cell. Throws
/// std::invalid_argument on a malformed plan (empty axis outside
/// Backend::custom, tuned series without a table, best-series with no
/// applicable candidate is a std::runtime_error at run time).
[[nodiscard]] SweepResult run(const SweepPlan& plan);

/// One deduplicated work item: the (system, collective, p) cell -- the unit
/// the planner shards and the unit tune::Tuner keys decision tables by.
struct CellRef {
  size_t system = 0;
  Collective coll{};
  i64 p = 0;
};

/// The plan's deduplicated cells in first-occurrence (system > collective >
/// nodes) order. Exposed so other engines (tune::Tuner) enumerate and shard
/// exactly like run() does.
[[nodiscard]] std::vector<CellRef> enumerate_cells(const SweepPlan& plan);

/// One Runner per SystemSpec, knobs applied, in axis order. All share the
/// process-wide schedule cache unless a spec opts out.
[[nodiscard]] std::vector<std::unique_ptr<harness::Runner>> make_runners(
    const SweepPlan& plan);

/// One failed work item of run_cells: the cell index (enumerate_cells
/// order), its coordinates, and the structured error.
struct CellFailure {
  size_t index = 0;
  CellRef cell;
  CellError error;
};

/// Stable fingerprint of everything that determines a plan's cell RESULTS --
/// systems (profile fingerprints + Runner knobs), collectives, series, node
/// axis, sizes, backend and its knobs, journal_salt -- and nothing that only
/// determines HOW they are computed (shard width, failure discipline,
/// deadlines, cancellation, journal path, progress hooks). This is the
/// exp::Journal key: a resumed run replays a journaled cell exactly when it
/// would have computed the same bytes. Backend::custom plans hash without
/// the opaque metric (which is why run() refuses to journal them).
[[nodiscard]] u64 plan_fingerprint(const SweepPlan& plan);

/// The journal key of one cell: "s<system>.<coll>.p<nodes>".
[[nodiscard]] std::string cell_key(const CellRef& cell);

/// Caller-supplied payload codec for journaled run_cells: `encode` turns
/// cell i's completed outcome (err != nullptr when the cell failed under
/// OnError::isolate) into a journal payload -- return an empty string to
/// journal nothing for that cell (e.g. failures that should re-run on
/// resume). `decode` replays a journaled payload into the caller's own
/// result slot for cell i and returns the journaled failure, if any; a
/// throw from decode marks the payload stale and the cell re-executes
/// fresh.
struct CellCodec {
  std::function<std::string(size_t, const CellError*)> encode;
  std::function<std::optional<CellError>(size_t, std::string_view)> decode;
};

/// What one run_cells invocation did (journal replay and cancellation are
/// invisible in the return value alone).
struct RunCellsReport {
  i64 executed = 0;               ///< cells measured by this run
  i64 replayed = 0;               ///< cells answered from the journal
  i64 journal_dropped = 0;        ///< damaged journal records discarded on open
  std::vector<size_t> cancelled;  ///< cell indices that never ran (ascending)
  std::vector<std::string> notes; ///< journal quarantine / degradation notes
};

/// Fan `fn` out over the plan's deduplicated cells with the planner's
/// sharding (one work item per cell, index-addressed, any thread count).
/// `fn(cell_index, cell, runner, guard)` must write results only to its own
/// index, and should guard.checkpoint() at its own evaluation boundaries so
/// plan.cell_deadline_ms can interrupt it. Failure discipline follows the
/// plan: transient failures retry up to plan.transient_retries; under
/// OnError::isolate surviving failures come back as the (deterministically
/// ordered) return value with the other cells completed, under
/// OnError::propagate the first one rethrows after join (and the returned
/// vector is always empty).
///
/// Durable execution: with plan.journal_path set (which requires `codec`),
/// journaled cells replay through codec->decode instead of running, and
/// completed cells are appended through codec->encode -- fsync'd before the
/// next cell can observe them. Cancellation (plan.cancel) drains in-flight
/// cells and reports unstarted ones in report->cancelled.
std::vector<CellFailure> run_cells(
    const SweepPlan& plan,
    const std::function<void(size_t, const CellRef&, harness::Runner&,
                             const harness::CellGuard&)>& fn,
    const CellCodec* codec = nullptr, RunCellsReport* report = nullptr);

}  // namespace bine::exp
