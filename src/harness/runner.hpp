#pragma once

#include <atomic>
#include <compare>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "alloc/allocation.hpp"
#include "coll/registry.hpp"
#include "fault/fault.hpp"
#include "net/profiles.hpp"
#include "net/route_cache.hpp"
#include "runtime/exec_plan.hpp"
#include "runtime/reduction.hpp"
#include "sched/schedule_cache.hpp"

/// Evaluation driver (the stand-in for the paper's PICO framework): runs a
/// (system, collective, algorithm, nodes, vector size) combination through
/// the simulator, caching topologies, placements, per-link columns AND
/// size-free compiled schedules across a sweep. Each cell is a pure function
/// of its inputs and a Runner is thread-safe, so the sweep engine (exp::run)
/// fans independent cells out over a thread pool with deterministic,
/// index-addressed results.
///
/// The schedule cache is the process-wide sched::process_schedule_cache(),
/// always on: every Runner (one per SystemProfile in the table benches) shares
/// entries, and both the simulation path (`run_candidates`) and the execution
/// path (`exec_plan`/`run_verified`) resolve from the same cached size-free
/// IR. A cold start is `process_schedule_cache().clear()`.
/// Batches of verified cells run as exp::run plans with
/// Backend::execute_verified, which fans cells out and keeps executor
/// thread pools from nesting.
namespace bine::harness {

struct RunResult {
  double seconds = 0;
  i64 global_bytes = 0;
  i64 total_bytes = 0;
  i64 messages = 0;
  size_t steps = 0;
};

/// Outcome of one verified execution (run_verified): the collective was run
/// over real buffers by the compiled executor and checked against its MPI
/// postcondition.
struct VerifiedRun {
  bool ok = false;
  std::string error;       ///< verify diagnostic or execution exception
  i64 messages = 0;
  i64 wire_bytes = 0;
  /// Bytes the execution copied through stage buffers (ExecPlan::stage_bytes):
  /// 0 means every delivery landed direct, fused, or through in-place tiles.
  i64 stage_bytes = 0;
  /// FNV-1a digest over the final execution state: p and nblocks, then
  /// every held (rank, block) cell in (rank, block) order -- its block id,
  /// validity byte, contributor words and element bit patterns. A pure
  /// function of the final state: deterministic for any thread count and
  /// identical to a run of ExecPlan::lower over the fresh schedule; 0 until
  /// the run verified ok. Sweep outputs and journals carry it so
  /// tuning/refinement stages can trust (and cross-check) verified cells.
  u64 digest = 0;
};

/// Verified-run outcomes shared by every Runner that is handed the memo, keyed
/// by everything a verified execution reads: the collective, the algorithm
/// after fault demotion, the effective communicator (p, root, torus_dims), the
/// fault fingerprint (0 = healthy), elem_count, element type and reduce op.
/// The system profile's topology, placement and cost model never reach the
/// executor, so LUMI, Leonardo and MareNostrum 5 share entries; executor
/// threads stay out of the key because results are bit-identical for any
/// thread count. Runners bypass the memo under executor drop/corrupt
/// injection. Thread-safe; two workers missing on one key both execute and
/// store the same outcome. A tune::Tuner::build owns one for its duration.
class VerifyMemo {
 public:
  /// Requests that executed (misses and bypasses) / that were answered from
  /// the memo. Their sum is the number of verification requests.
  [[nodiscard]] i64 runs() const { return runs_.load(std::memory_order_relaxed); }
  [[nodiscard]] i64 hits() const { return hits_.load(std::memory_order_relaxed); }

 private:
  friend class Runner;
  struct Key {
    sched::Collective coll;
    std::string algorithm;
    i64 p;
    Rank root;
    std::vector<i64> torus_dims;
    u64 fault_epoch;
    i64 elem_count;
    runtime::ElemType elem;
    runtime::ReduceOp op;
    auto operator<=>(const Key&) const = default;
  };
  [[nodiscard]] std::optional<VerifiedRun> find(const Key& key);
  /// Counts one executed request; stores its outcome under `key` if given.
  void record(const std::optional<Key>& key, const VerifiedRun& run);

  std::mutex mutex_;
  std::map<Key, VerifiedRun> entries_;
  std::atomic<i64> runs_{0};
  std::atomic<i64> hits_{0};
};

/// Vector sizes used throughout Sec. 5 (bytes): 32 B ... 512 MiB. The bench
/// binaries default to a subset for runtime reasons; pass `full` for all.
[[nodiscard]] std::vector<i64> paper_vector_sizes(bool full);

/// Human-readable size ("32 B", "2 KiB", "512 MiB").
[[nodiscard]] std::string size_label(i64 bytes);

class Runner {
 public:
  /// `spread_placement`: allocate nodes through the synthetic fragmented
  /// scheduler (jobs span many groups, as observed on the real systems);
  /// otherwise ranks map to consecutive nodes.
  Runner(net::SystemProfile profile, bool spread_placement = true, u64 seed = 42);

  [[nodiscard]] const net::SystemProfile& profile() const { return profile_; }

  /// The active fault model: the profile's spec, else one parsed from the
  /// BINE_FAULT_SPEC environment variable at construction. Null when absent
  /// OR trivial -- the fault-free path never consults the layer, which keeps
  /// it bit-identical to a build without one. Non-null implies validated.
  [[nodiscard]] const fault::FaultSpec* fault_spec() const { return fault_.get(); }

  /// Communicator size of a cell allocated `nodes` nodes: `nodes` on the
  /// healthy machine, the surviving-rank count when the fault spec marks
  /// ranks failed (graceful degradation: collectives rebuild over survivors
  /// via a dense rank remap). Throws when fewer than 2 ranks survive.
  [[nodiscard]] i64 effective_ranks(i64 nodes) const;

  /// Rank-count admission for one algorithm at `nodes` allocated nodes,
  /// evaluated against the *effective* communicator size. The gate sweeps
  /// use to mark inapplicable candidates as null pool slots.
  [[nodiscard]] bool applicable(const coll::AlgorithmEntry& algo, i64 nodes) const {
    return !algo.pow2_only || is_pow2(effective_ranks(nodes));
  }

  /// Degradation substitutions recorded so far: one deduplicated note per
  /// (algorithm, p) whose generator cannot shrink to the surviving rank
  /// count and was demoted to the heuristic recommendation -- the "clear
  /// report instead of a crash" contract. Empty on the healthy machine.
  [[nodiscard]] std::vector<std::string> degrade_notes() const;

  /// Simulate a whole candidate pool of one cell across the size axis: the
  /// Runner's one simulation entry. results[k][s] answers *algos[k] at
  /// sizes_bytes[s]; algos[k] == nullptr marks an inapplicable pool slot and
  /// yields an empty results[k]. Every result is bit-identical to the scalar
  /// oracle net::simulate over the cell's freshly generated schedule.
  ///
  /// Fault demotion keys on size, so the pool is first rewritten as the
  /// distinct algorithms its slots resolve to across the axis; every
  /// (slot, size) reads its resolved algorithm's lane. Each algorithm goes
  /// through one size-batched net::simulate call across the whole axis (via
  /// the process-wide net::process_route_memo()) over its cached size-free
  /// entry.
  [[nodiscard]] std::vector<std::vector<RunResult>> run_candidates(
      sched::Collective coll, std::span<const coll::AlgorithmEntry* const> algos,
      i64 nodes, std::span<const i64> sizes_bytes);

  /// Simulate one algorithm at one size: run_candidates with a pool of one
  /// and an axis of one. `size_bytes` is the collective's vector size.
  [[nodiscard]] RunResult run(sched::Collective coll, const coll::AlgorithmEntry& algo,
                              i64 nodes, i64 size_bytes) {
    const coll::AlgorithmEntry* const pool[] = {&algo};
    const i64 sizes[] = {size_bytes};
    return run_candidates(coll, pool, nodes, sizes)[0][0];
  }

  /// Compiled execution plan for one cell, pulled from the schedule cache
  /// (so verify-heavy runs skip generation on a hit, exactly like the
  /// simulation path). Callers hand the plan to runtime::execute.
  [[nodiscard]] runtime::ExecPlan exec_plan(sched::Collective coll,
                                            const coll::AlgorithmEntry& algo, i64 nodes,
                                            i64 size_bytes, i64 elem_size = 4);

  /// Execute one cell over deterministic synthetic inputs with the compiled
  /// executor and verify the collective's postcondition. `threads` drives the
  /// executor's phase fan-out (0 = the executor's size-gated auto default,
  /// 1 sequential). Never throws on semantic violations -- they come back as
  /// a not-ok VerifiedRun.
  /// `elem`/`op` choose the element type and reduction operator.
  /// Floating-point inputs are small exact integers, so f32/f64 sum/min/max
  /// are order-independent and bit-deterministic; float x prod has no such
  /// domain and comes back not-ok with an actionable error.
  /// `memo`, when given, answers a request whose key it already holds
  /// without executing and stores every outcome it did not hold.
  [[nodiscard]] VerifiedRun run_verified(sched::Collective coll,
                                         const coll::AlgorithmEntry& algo, i64 nodes,
                                         i64 size_bytes, i64 threads = 0,
                                         runtime::ElemType elem = runtime::ElemType::u32,
                                         runtime::ReduceOp op = runtime::ReduceOp::sum,
                                         VerifyMemo* memo = nullptr);

  /// Torus shape handed to the Appendix D generators (empty = near-cubic).
  std::vector<i64> torus_dims;

  /// Build (or touch) the machine instance for `nodes` now. The sweep engine
  /// warms every cell's topology and route cache serially before fanning work
  /// out, so workers only compete for cells, never for the build lock.
  void prewarm(i64 nodes) { (void)sized_for(nodes); }

  /// Candidate name lists of the sweep engine's bine / binomial / sota
  /// series families, in selection order. bine_names honours
  /// `contiguous_only`: only the strategies that send contiguous data, the
  /// fair-comparison setup of Sec. 5.1.1. binomial_names is the paper's
  /// baseline ("Comparison with Binomial Trees"): trees for rooted
  /// collectives, recursive doubling/halving butterflies for the rootless
  /// ones, Bruck for alltoall.
  [[nodiscard]] std::vector<std::string> bine_names(sched::Collective coll,
                                                    bool contiguous_only) const;
  [[nodiscard]] std::vector<std::string> binomial_names(sched::Collective coll) const;
  /// All non-Bine algorithms registered for the collective.
  [[nodiscard]] std::vector<std::string> sota_names(sched::Collective coll) const;

 private:
  struct Sized {
    std::unique_ptr<net::Topology> topo;
    std::unique_ptr<net::RouteCache> routes;  ///< over *topo and the placement
  };
  /// Thread-safe: builds (or returns) the machine instance for `nodes`. The
  /// returned reference is stable (map nodes never move).
  Sized& sized_for(i64 nodes);

  /// Simulation config for one cell (shared by simulation and execution).
  /// `elem_size` defaults to the paper's 32-bit integers; the typed verified
  /// path passes the element type's width instead.
  [[nodiscard]] coll::Config cell_config(i64 nodes, i64 size_bytes,
                                         i64 elem_size = 4) const;
  template <typename T>
  [[nodiscard]] VerifiedRun run_verified_impl(sched::Collective coll,
                                              const coll::AlgorithmEntry& algo,
                                              i64 nodes, i64 size_bytes, i64 threads,
                                              runtime::ElemType elem, runtime::ReduceOp op,
                                              VerifyMemo* memo);

  /// Size-free entry for one cell from the process-wide schedule cache.
  [[nodiscard]] std::shared_ptr<const sched::SizeFreeSchedule> cached_entry(
      sched::Collective coll, const coll::AlgorithmEntry& algo, const coll::Config& cfg);

  /// Graceful-degradation resolution: `algo` itself on the healthy machine
  /// or when it admits the surviving rank count; otherwise the heuristic
  /// recommendation for the cell, with a deduplicated note recorded.
  [[nodiscard]] const coll::AlgorithmEntry& resolve_algorithm(
      sched::Collective coll, const coll::AlgorithmEntry& algo, i64 p_effective,
      i64 size_bytes);

  net::SystemProfile profile_;
  bool spread_placement_;
  u64 seed_;
  std::shared_ptr<const fault::FaultSpec> fault_;  ///< null or non-trivial
  std::mutex cache_mutex_;
  std::map<i64, Sized> cache_;
  mutable std::mutex notes_mutex_;
  std::vector<std::string> degrade_notes_;
};

}  // namespace bine::harness
