#pragma once

#include <atomic>
#include <condition_variable>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "exp/sweep.hpp"
#include "harness/cancel.hpp"
#include "harness/runner.hpp"
#include "svc/proto.hpp"
#include "svc/socket.hpp"
#include "tune/live_table.hpp"
#include "tune/tuner.hpp"

/// The selection daemon: a long-lived process serving decision-table lookups
/// and sweep jobs over a socket, so tuned dispatch costs one round trip
/// instead of one artifact load per client process.
///
///   * select -- O(log intervals) lookup against an immutable table snapshot
///     (tune::LiveTable), lock-light: the per-batch cost is one shared_ptr
///     copy. Misses tune-on-miss through tune::Tuner with *single-flight*
///     coalescing (concurrent misses of one cell fund exactly one build),
///     merge into the live table, and persist crash-safely.
///   * sweep -- a serialized exp::SweepPlan executed on the sharded engine
///     with the journal armed, the result streamed back and cached at plan
///     granularity: resubmitting a plan is a cache hit returning the
///     identical byte stream; a killed job resumes from its journal on the
///     next submission. Concurrent submissions of one plan coalesce
///     (single-flight again).
///   * stats -- service counters as JSON (select/sweep/cache/journal/
///     schedule-cache), the observability satellite.
///
/// Shutdown is cooperative drain: stop() fires the CancelToken every running
/// job threads through exp::run, wakes every blocked accept/recv, answers
/// in-flight requests (jobs interrupted mid-run reply `shutting_down`; their
/// journals make the work resumable), and joins every thread before
/// returning.
namespace bine::svc {

struct ServerOptions {
  /// Unix-domain listener path; empty = none. At least one listener required.
  std::string unix_socket;
  /// Also listen on 127.0.0.1:<tcp_port>; 0 = kernel-assigned (tcp_port()
  /// reports it). nullopt = no TCP listener.
  std::optional<u16> tcp_port;

  /// Machine models served; select requests must name one of these AND match
  /// its fingerprint. Tables are keyed by profile name, so names must be
  /// unique.
  std::vector<net::SystemProfile> profiles;

  /// Decision-table artifact: loaded at startup (quarantined when damaged,
  /// missing = start empty) and re-persisted after every tune-on-miss merge.
  /// Empty = in-memory table only.
  std::string table_path;
  /// Directory for sweep-job journals (one `plan_<fp>.bj` per plan
  /// fingerprint). Empty = jobs run unjournaled (still cached in memory).
  std::string journal_dir;

  /// Tuner for tune-on-miss cell builds (grid/refinement knobs; its
  /// spread_placement/seed configure the per-profile Runners).
  tune::TunerOptions tuner;
  /// false = misses answer coll::recommended_algorithm instead of tuning.
  bool tune_on_miss = true;

  /// Shard width for sweep jobs; <= 0 = the plan's own `threads` knob.
  i64 job_threads = 0;

  /// Fault-injection hook for the kill-resume CI job: a sweep job stalls
  /// forever after this many cells complete, after touching
  /// `<journal>.stalled` -- a deterministic window for kill -9. 0 = off.
  i64 stall_after_cells = 0;
};

/// Monotonic service counters (stats_snapshot / the `stats` request).
struct ServerStats {
  u64 connections = 0;        ///< accepted over the server's lifetime
  u64 bad_frames = 0;         ///< connections dropped on unparseable bytes

  u64 select_requests = 0;
  u64 select_hits = 0;        ///< answered from the table
  u64 select_misses = 0;      ///< cell absent at request time
  u64 tune_builds = 0;        ///< tune-on-miss cells built (post-coalescing)
  u64 tune_failures = 0;      ///< builds that threw (heuristic served instead)
  u64 stale_rejected = 0;     ///< fingerprint-mismatch rejections
  u64 unknown_profile = 0;

  u64 sweep_jobs = 0;         ///< sweep requests accepted
  u64 plan_cache_hits = 0;
  u64 plan_cache_misses = 0;  ///< plans actually executed
  u64 coalesced_jobs = 0;     ///< submissions that waited on an identical in-flight plan

  // Journal activity of executed jobs, summed.
  i64 journal_replayed = 0;
  i64 journal_executed = 0;
  i64 journal_dropped = 0;

  i64 stale_temps_cleaned = 0;  ///< AtomicFile temps removed at startup
  u64 table_generation = 0;     ///< LiveTable generation at snapshot time
  i64 table_cells = 0;
  u64 schedule_cache_hits = 0;   ///< process-wide sched::ScheduleCache
  u64 schedule_cache_misses = 0;
  u64 schedule_cache_entries = 0;
  u64 schedule_cache_bytes = 0;  ///< resident bytes of the cached entries
  u64 route_memo_hits = 0;       ///< process-wide net::PairRouteMemo
  u64 route_memo_misses = 0;     ///< pair rows walked and memoized
  u64 route_memo_scopes = 0;     ///< distinct (Topology, Placement, fault_epoch)
  u64 route_memo_bytes = 0;      ///< approximate resident bytes of memoized rows
};

class Server {
 public:
  explicit Server(ServerOptions opts);
  ~Server();  ///< calls stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Clean stale temps, load the table artifact, bind listeners, spawn the
  /// accept threads. Throws std::runtime_error / std::invalid_argument on
  /// bad options or bind failure.
  void start();

  /// Graceful drain (idempotent): cancel running jobs, wake and join every
  /// thread. Safe from any thread except a connection thread.
  void stop();

  /// Block until stop() is called or a client sends `shutdown`. The caller
  /// (the daemon main) then runs stop().
  void wait();

  /// Make wait() return without draining (what a `shutdown` frame does; also
  /// the signal-watcher hook of the daemon binary). Async-signal-UNSAFE --
  /// call from a thread, not a handler.
  void request_stop();

  [[nodiscard]] bool stopping() const;

  /// The bound TCP port (after start(); 0 when no TCP listener).
  [[nodiscard]] u16 tcp_port() const { return tcp_port_; }
  [[nodiscard]] const std::string& unix_socket() const {
    return opts_.unix_socket;
  }

  [[nodiscard]] ServerStats stats_snapshot() const;
  /// The current served table (test access).
  [[nodiscard]] std::shared_ptr<const tune::DecisionTable> table() const {
    return live_.snapshot();
  }

  /// The stats request's JSON document (also what `stats_snapshot` prints):
  /// canonical field order, parseable with tune::json.
  [[nodiscard]] std::string stats_json() const;

 private:
  struct ProfileEntry {
    net::SystemProfile profile;
    u64 fingerprint = 0;
    std::mutex tune_mu;  ///< serializes the (rare) tune-on-miss Runner use
    std::unique_ptr<harness::Runner> runner;  ///< lazy; guarded by tune_mu
  };

  struct Connection {
    Fd fd;  ///< closed by its thread under conns_mu_
    std::thread thread;
  };

  void accept_loop(Fd* listener);
  void serve_connection(Connection* conn);
  /// Handle one request frame, appending response frame(s) to `out`.
  /// `batch_table` caches the LiveTable snapshot across one drained batch
  /// (fetched lazily on the first select), so a thousand pipelined lookups
  /// pay the snapshot mutex once. Returns false when the connection must
  /// close (bad_frame).
  bool handle_frame(const FrameView& frame,
                    std::shared_ptr<const tune::DecisionTable>& batch_table,
                    std::string& out);

  void handle_select(std::string_view payload,
                     std::shared_ptr<const tune::DecisionTable>& batch_table,
                     std::string& out);
  void handle_sweep(std::string_view payload, std::string& out);

  /// Tune-on-miss with single-flight coalescing; returns the winning
  /// algorithm (from the merged table, or the heuristic on build failure)
  /// and whether it came from the table.
  SelectReply tune_miss(ProfileEntry& entry, sched::Collective coll, i64 p,
                        i64 bytes);

  /// Run one sweep plan (journal armed, cancel threaded), cache + persist.
  /// Fills `begin`/`json`; returns false when the job was cancelled by
  /// shutdown (nothing cached).
  bool execute_plan(exp::SweepPlan plan, u64 fp, SweepBegin& begin,
                    std::string& json);

  void persist_table();
  i64 startup_clean_temps() const;

  ServerOptions opts_;
  tune::Tuner tuner_;
  tune::LiveTable live_;
  std::map<std::string, std::unique_ptr<ProfileEntry>> profiles_;

  Fd unix_listener_;
  Fd tcp_listener_;
  u16 tcp_port_ = 0;
  std::vector<std::thread> accept_threads_;

  mutable std::mutex conns_mu_;
  std::list<Connection> conns_;

  // Single-flight tune-on-miss.
  std::mutex miss_mu_;
  std::condition_variable miss_cv_;
  std::set<tune::CellKey> miss_inflight_;

  // Plan-level result cache + single-flight job coalescing.
  std::mutex plan_mu_;
  std::condition_variable plan_cv_;
  std::map<u64, std::shared_ptr<const std::string>> plan_cache_;
  std::set<u64> plan_inflight_;

  std::mutex table_io_mu_;  ///< serializes table artifact writes

  harness::CancelToken cancel_;
  mutable std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;  ///< wait() returns
  bool stopped_ = false;         ///< stop() ran to completion
  bool started_ = false;

  /// Lock-free counters: the select hot path must not serialize on a stats
  /// mutex. stats_snapshot() reads them relaxed (monotonic, approximate
  /// cross-field consistency is all the stats request promises).
  struct Counters {
    std::atomic<u64> connections{0}, bad_frames{0};
    std::atomic<u64> select_requests{0}, select_hits{0}, select_misses{0};
    std::atomic<u64> tune_builds{0}, tune_failures{0}, stale_rejected{0},
        unknown_profile{0};
    std::atomic<u64> sweep_jobs{0}, plan_cache_hits{0}, plan_cache_misses{0},
        coalesced_jobs{0};
    std::atomic<i64> journal_replayed{0}, journal_executed{0}, journal_dropped{0};
    std::atomic<i64> stale_temps_cleaned{0};
  };
  Counters counters_;
};

}  // namespace bine::svc
