#include "svc/server.hpp"

#include <dirent.h>

#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "coll/registry.hpp"
#include "exp/plan_codec.hpp"
#include "fault/fault.hpp"
#include "net/pair_route_memo.hpp"
#include "sched/schedule_cache.hpp"

namespace bine::svc {

namespace {

std::string hex16(u64 v) {
  static const char* digits = "0123456789abcdef";
  std::string s;
  for (int shift = 60; shift >= 0; shift -= 4)
    s += digits[(v >> shift) & 0xf];
  return s;
}

void touch_file(const std::string& path) {
  if (std::FILE* f = std::fopen(path.c_str(), "wb")) {
    std::fputs("stalled\n", f);
    std::fflush(f);
    std::fclose(f);
  }
}

/// Does the plan dispatch through a decision table (so the server must
/// inject its live snapshot before running/fingerprinting)?
bool plan_uses_table(const exp::SweepPlan& plan) {
  if (plan.backend == exp::Backend::tuned_dispatch) return true;
  for (const exp::Series& s : plan.series)
    if (s.pick == exp::Series::Pick::tuned) return true;
  return false;
}

/// Stream `data` as sweep_data frames of bounded size: a multi-megabyte
/// result JSON must not become one frame near kMaxFrameBytes.
void put_sweep_data(std::string& out, std::string_view data) {
  constexpr size_t kChunk = 256 * 1024;
  for (size_t off = 0; off < data.size(); off += kChunk)
    put_frame(out, MsgType::sweep_data, data.substr(off, kChunk));
  if (data.empty()) put_frame(out, MsgType::sweep_data, data);
}

}  // namespace

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)), tuner_(opts_.tuner) {}

Server::~Server() { stop(); }

bool Server::stopping() const {
  std::lock_guard<std::mutex> lock(stop_mu_);
  return stop_requested_;
}

i64 Server::startup_clean_temps() const {
  i64 removed = 0;
  if (!opts_.table_path.empty())
    removed += fault::clean_stale_temps(opts_.table_path);
  if (opts_.journal_dir.empty()) return removed;
  // Every "<name>.tmp.<pid>.<n>" in the journal directory is a potential
  // stranded AtomicFile temp; derive the artifact names and let
  // clean_stale_temps apply its live-writer probe per artifact.
  DIR* d = ::opendir(opts_.journal_dir.c_str());
  if (d == nullptr) return removed;
  std::set<std::string> targets;
  while (const dirent* e = ::readdir(d)) {
    const std::string_view name = e->d_name;
    const size_t tmp = name.rfind(".tmp.");
    if (tmp == std::string_view::npos || tmp == 0) continue;
    targets.insert(opts_.journal_dir + "/" + std::string(name.substr(0, tmp)));
  }
  ::closedir(d);
  for (const std::string& target : targets)
    removed += fault::clean_stale_temps(target);
  return removed;
}

void Server::start() {
  if (started_) throw std::runtime_error("svc: server already started");
  if (opts_.unix_socket.empty() && !opts_.tcp_port)
    throw std::invalid_argument("svc: no listener configured");
  if (opts_.profiles.empty())
    throw std::invalid_argument("svc: no profiles to serve");

  counters_.stale_temps_cleaned.store(startup_clean_temps(),
                                      std::memory_order_relaxed);

  for (net::SystemProfile& p : opts_.profiles) {
    auto entry = std::make_unique<ProfileEntry>();
    entry->fingerprint = tune::profile_fingerprint(p);
    entry->profile = p;
    if (!profiles_.emplace(p.name, std::move(entry)).second)
      throw std::invalid_argument("svc: duplicate profile name \"" + p.name + "\"");
  }

  if (!opts_.table_path.empty()) {
    tune::LoadReport report;
    if (std::optional<tune::DecisionTable> table =
            tune::DecisionTable::load_or_quarantine(opts_.table_path, &report)) {
      // A stale artifact must never silently serve: a same-named profile
      // tuned for a different machine model is a hard startup error, not a
      // quiet mis-selection.
      for (const auto& [name, fp] : table->profiles()) {
        const auto it = profiles_.find(name);
        if (it != profiles_.end() && it->second->fingerprint != fp)
          throw std::runtime_error(
              "svc: table artifact " + opts_.table_path + " was tuned for a "
              "different \"" + name + "\" (fingerprint mismatch)");
      }
      live_.install(*std::move(table));
    }
  }

  if (!opts_.unix_socket.empty()) unix_listener_ = listen_unix(opts_.unix_socket);
  if (opts_.tcp_port) tcp_listener_ = listen_tcp_loopback(*opts_.tcp_port, &tcp_port_);

  started_ = true;
  if (unix_listener_.valid())
    accept_threads_.emplace_back([this] { accept_loop(&unix_listener_); });
  if (tcp_listener_.valid())
    accept_threads_.emplace_back([this] { accept_loop(&tcp_listener_); });
}

void Server::accept_loop(Fd* listener) {
  for (;;) {
    Fd conn;
    try {
      conn = accept_one(*listener);
    } catch (...) {
      return;
    }
    if (!conn.valid()) return;
    counters_.connections.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.emplace_back();
    Connection* c = &conns_.back();
    c->fd = std::move(conn);
    c->thread = std::thread([this, c] { serve_connection(c); });
  }
}

void Server::serve_connection(Connection* conn) {
  std::string inbuf, out;
  for (;;) {
    size_t pos = 0;
    bool close = false;
    std::shared_ptr<const tune::DecisionTable> batch_table;
    for (;;) {
      size_t consumed = 0;
      std::optional<FrameView> frame;
      try {
        frame = peek_frame(std::string_view(inbuf).substr(pos), consumed);
      } catch (const ProtoError& e) {
        counters_.bad_frames.fetch_add(1, std::memory_order_relaxed);
        put_frame(out, MsgType::error,
                  encode_error(ErrorCode::bad_frame, e.what()));
        close = true;
        break;
      }
      if (!frame) break;
      pos += consumed;
      if (!handle_frame(*frame, batch_table, out)) {
        close = true;
        break;
      }
    }
    inbuf.erase(0, pos);
    // The whole drained batch answers with one gathered write: under
    // pipelined load this is what amortizes the syscall per lookup away.
    if (!out.empty()) {
      if (!send_all(conn->fd, out)) break;
      out.clear();
    }
    if (close) break;
    if (!recv_some(conn->fd, inbuf)) break;
  }
  // stop() shuts connections down under conns_mu_, so closing under it
  // keeps shutdown from reaching a closed, possibly reused descriptor.
  std::lock_guard<std::mutex> lock(conns_mu_);
  conn->fd.close();
}

bool Server::handle_frame(const FrameView& frame,
                          std::shared_ptr<const tune::DecisionTable>& batch_table,
                          std::string& out) {
  try {
    switch (frame.type) {
      case MsgType::select:
        handle_select(frame.payload, batch_table, out);
        return true;
      case MsgType::sweep:
        handle_sweep(frame.payload, out);
        return true;
      case MsgType::stats:
        if (stopping()) {
          put_frame(out, MsgType::error,
                    encode_error(ErrorCode::shutting_down, "server is draining"));
        } else {
          put_frame(out, MsgType::stats_ok, stats_json());
        }
        return true;
      case MsgType::shutdown:
        put_frame(out, MsgType::shutdown_ok, {});
        request_stop();
        return true;
      default:
        counters_.bad_frames.fetch_add(1, std::memory_order_relaxed);
        put_frame(out, MsgType::error,
                  encode_error(ErrorCode::bad_frame, "unexpected frame type"));
        return false;
    }
  } catch (const ProtoError& e) {
    counters_.bad_frames.fetch_add(1, std::memory_order_relaxed);
    put_frame(out, MsgType::error, encode_error(ErrorCode::bad_frame, e.what()));
    return false;
  } catch (const std::exception& e) {
    put_frame(out, MsgType::error, encode_error(ErrorCode::internal, e.what()));
    return true;
  }
}

void Server::handle_select(std::string_view payload,
                           std::shared_ptr<const tune::DecisionTable>& batch_table,
                           std::string& out) {
  counters_.select_requests.fetch_add(1, std::memory_order_relaxed);
  const SelectRequest req = decode_select(payload);

  const auto it = profiles_.find(req.profile);
  if (it == profiles_.end()) {
    counters_.unknown_profile.fetch_add(1, std::memory_order_relaxed);
    put_frame(out, MsgType::error,
              encode_error(ErrorCode::unknown_profile,
                           "profile \"" + req.profile + "\" is not served"));
    return;
  }
  ProfileEntry& entry = *it->second;
  if (req.fingerprint != entry.fingerprint) {
    counters_.stale_rejected.fetch_add(1, std::memory_order_relaxed);
    put_frame(out, MsgType::error,
              encode_error(ErrorCode::stale_fingerprint,
                           "profile \"" + req.profile +
                               "\" fingerprint mismatch: client has a stale "
                               "machine model"));
    return;
  }
  if (req.p < 1 || req.bytes < 0) {
    put_frame(out, MsgType::error,
              encode_error(ErrorCode::bad_frame, "select: p < 1 or bytes < 0"));
    return;
  }

  if (!batch_table) batch_table = live_.snapshot();
  if (const std::string* algo =
          batch_table->lookup(req.profile, req.coll, req.p, req.bytes)) {
    counters_.select_hits.fetch_add(1, std::memory_order_relaxed);
    put_select_ok_frame(out, *algo, true);
    return;
  }

  counters_.select_misses.fetch_add(1, std::memory_order_relaxed);
  const SelectReply rep = tune_miss(entry, req.coll, req.p, req.bytes);
  // The miss path may have merged a fresh cell; later selects in this batch
  // should see it.
  batch_table = live_.snapshot();
  put_frame(out, MsgType::select_ok, encode_select_ok(rep));
}

SelectReply Server::tune_miss(ProfileEntry& entry, sched::Collective coll, i64 p,
                              i64 bytes) {
  const std::string& name = entry.profile.name;
  if (opts_.tune_on_miss && !stopping()) {
    const tune::CellKey key{name, coll, p};
    std::unique_lock<std::mutex> lock(miss_mu_);
    bool winner = false;
    for (;;) {
      // Re-check under the lock each round: the in-flight build we waited on
      // (or one that finished between our snapshot and here) may have merged
      // our cell already.
      if (const std::string* algo =
              live_.snapshot()->lookup(name, coll, p, bytes))
        return SelectReply{*algo, true};
      if (stopping()) break;
      if (miss_inflight_.insert(key).second) {
        winner = true;
        break;
      }
      miss_cv_.wait(lock);
    }
    if (winner) {
      lock.unlock();
      bool built = false;
      try {
        std::lock_guard<std::mutex> tune_lock(entry.tune_mu);
        if (!entry.runner)
          entry.runner = std::make_unique<harness::Runner>(
              entry.profile, opts_.tuner.spread_placement, opts_.tuner.seed);
        std::vector<tune::SizeInterval> intervals =
            tuner_.tune_cell(*entry.runner, coll, p);
        tune::DecisionTable delta;
        delta.set_profile(name, entry.fingerprint);
        delta.set_cell(tune::CellKey{name, coll, p}, std::move(intervals));
        live_.merge(delta);
        built = true;
      } catch (...) {
        counters_.tune_failures.fetch_add(1, std::memory_order_relaxed);
      }
      if (built) {
        counters_.tune_builds.fetch_add(1, std::memory_order_relaxed);
        persist_table();
      }
      lock.lock();
      miss_inflight_.erase(key);
      miss_cv_.notify_all();
      if (built)
        if (const std::string* algo =
                live_.snapshot()->lookup(name, coll, p, bytes))
          return SelectReply{*algo, true};
    }
  }
  // Tuning off, draining, or the build failed: the paper's heuristic rules
  // still answer -- a selection service degrades, it does not refuse.
  return SelectReply{coll::recommended_algorithm(coll, p, bytes).name, false};
}

void Server::persist_table() {
  if (opts_.table_path.empty()) return;
  std::lock_guard<std::mutex> lock(table_io_mu_);
  live_.snapshot()->save(opts_.table_path);
}

void Server::handle_sweep(std::string_view payload, std::string& out) {
  counters_.sweep_jobs.fetch_add(1, std::memory_order_relaxed);
  if (stopping()) {
    put_frame(out, MsgType::error,
              encode_error(ErrorCode::shutting_down, "server is draining"));
    return;
  }

  exp::SweepPlan plan;
  try {
    plan = exp::plan_from_json(payload);
  } catch (const std::exception& e) {
    put_frame(out, MsgType::error, encode_error(ErrorCode::bad_plan, e.what()));
    return;
  }

  // Tuned plans dispatch through THIS server's table: inject the snapshot
  // before fingerprinting, so the cache key covers the exact table content
  // the job would run against (a later merge changes the fingerprint, and a
  // resubmission correctly re-executes instead of serving stale winners).
  std::shared_ptr<const tune::DecisionTable> table;
  if (plan_uses_table(plan)) {
    table = live_.snapshot();
    plan.table = table.get();
  }
  const u64 fp = exp::plan_fingerprint(plan);

  std::shared_ptr<const std::string> cached;
  {
    std::unique_lock<std::mutex> lock(plan_mu_);
    bool counted_wait = false;
    for (;;) {
      const auto it = plan_cache_.find(fp);
      if (it != plan_cache_.end()) {
        cached = it->second;
        break;
      }
      if (stopping()) {
        put_frame(out, MsgType::error,
                  encode_error(ErrorCode::shutting_down, "server is draining"));
        return;
      }
      if (plan_inflight_.insert(fp).second) break;
      if (!counted_wait) {
        counters_.coalesced_jobs.fetch_add(1, std::memory_order_relaxed);
        counted_wait = true;
      }
      plan_cv_.wait(lock);
    }
  }

  if (cached) {
    counters_.plan_cache_hits.fetch_add(1, std::memory_order_relaxed);
    SweepBegin begin;
    begin.cache_hit = true;
    put_frame(out, MsgType::sweep_begin, encode_sweep_begin(begin));
    put_sweep_data(out, *cached);
    put_frame(out, MsgType::sweep_end, encode_sweep_end(fp));
    return;
  }

  SweepBegin begin;
  std::string json;
  bool ok = false;
  std::string error;
  try {
    ok = execute_plan(std::move(plan), fp, begin, json);
  } catch (const std::exception& e) {
    error = e.what();
  }

  std::shared_ptr<const std::string> result;
  if (ok) result = std::make_shared<const std::string>(std::move(json));
  {
    std::lock_guard<std::mutex> lock(plan_mu_);
    if (ok) plan_cache_[fp] = result;
    plan_inflight_.erase(fp);
    plan_cv_.notify_all();
  }

  if (!ok) {
    put_frame(out, MsgType::error,
              error.empty()
                  ? encode_error(ErrorCode::shutting_down,
                                 "job cancelled by shutdown (journal keeps it "
                                 "resumable)")
                  : encode_error(ErrorCode::internal, error));
    return;
  }
  put_frame(out, MsgType::sweep_begin, encode_sweep_begin(begin));
  put_sweep_data(out, *result);
  put_frame(out, MsgType::sweep_end, encode_sweep_end(fp));
}

bool Server::execute_plan(exp::SweepPlan plan, u64 fp, SweepBegin& begin,
                          std::string& json) {
  plan.cancel = &cancel_;
  if (opts_.job_threads > 0) plan.threads = opts_.job_threads;
  if (!opts_.journal_dir.empty()) {
    plan.journal_path = opts_.journal_dir + "/plan_" + hex16(fp) + ".bj";
    if (opts_.stall_after_cells > 0) {
      const std::string marker = plan.journal_path + ".stalled";
      const i64 stall = opts_.stall_after_cells;
      plan.progress = [marker, stall](size_t done, size_t total) {
        if (static_cast<i64>(done) == stall && done < total) {
          touch_file(marker);
          for (;;) std::this_thread::sleep_for(std::chrono::hours(1));
        }
      };
    }
  }

  const size_t total_cells = exp::enumerate_cells(plan).size();
  exp::SweepResult result = exp::run(plan);
  if (result.cancelled) return false;

  begin.cache_hit = false;
  if (plan.journal_path.empty()) {
    begin.replayed = 0;
    begin.executed = static_cast<i64>(total_cells);
  } else {
    begin.replayed = result.journal.replayed;
    begin.executed = result.journal.executed;
  }
  counters_.journal_replayed.fetch_add(result.journal.replayed,
                                       std::memory_order_relaxed);
  counters_.journal_executed.fetch_add(result.journal.executed,
                                       std::memory_order_relaxed);
  counters_.journal_dropped.fetch_add(result.journal.dropped_records,
                                      std::memory_order_relaxed);
  counters_.plan_cache_misses.fetch_add(1, std::memory_order_relaxed);
  json = result.to_json();
  return true;
}

ServerStats Server::stats_snapshot() const {
  ServerStats s;
  s.connections = counters_.connections.load(std::memory_order_relaxed);
  s.bad_frames = counters_.bad_frames.load(std::memory_order_relaxed);
  s.select_requests = counters_.select_requests.load(std::memory_order_relaxed);
  s.select_hits = counters_.select_hits.load(std::memory_order_relaxed);
  s.select_misses = counters_.select_misses.load(std::memory_order_relaxed);
  s.tune_builds = counters_.tune_builds.load(std::memory_order_relaxed);
  s.tune_failures = counters_.tune_failures.load(std::memory_order_relaxed);
  s.stale_rejected = counters_.stale_rejected.load(std::memory_order_relaxed);
  s.unknown_profile = counters_.unknown_profile.load(std::memory_order_relaxed);
  s.sweep_jobs = counters_.sweep_jobs.load(std::memory_order_relaxed);
  s.plan_cache_hits = counters_.plan_cache_hits.load(std::memory_order_relaxed);
  s.plan_cache_misses =
      counters_.plan_cache_misses.load(std::memory_order_relaxed);
  s.coalesced_jobs = counters_.coalesced_jobs.load(std::memory_order_relaxed);
  s.journal_replayed = counters_.journal_replayed.load(std::memory_order_relaxed);
  s.journal_executed = counters_.journal_executed.load(std::memory_order_relaxed);
  s.journal_dropped = counters_.journal_dropped.load(std::memory_order_relaxed);
  s.stale_temps_cleaned =
      counters_.stale_temps_cleaned.load(std::memory_order_relaxed);
  s.table_generation = live_.generation();
  s.table_cells = static_cast<i64>(live_.snapshot()->cells().size());
  const sched::ScheduleCache::Stats cache = sched::process_schedule_cache().stats();
  s.schedule_cache_hits = cache.hits;
  s.schedule_cache_misses = cache.misses;
  s.schedule_cache_entries = cache.entries;
  s.schedule_cache_bytes = cache.bytes;
  const net::PairRouteMemo::Stats memo = net::process_route_memo().stats();
  s.route_memo_hits = memo.hits;
  s.route_memo_misses = memo.misses;
  s.route_memo_scopes = memo.scopes;
  s.route_memo_bytes = memo.bytes;
  return s;
}

std::string Server::stats_json() const {
  const ServerStats s = stats_snapshot();
  std::string out;
  out += "{\n";
  out += "  \"format\": \"bine-svc-stats\",\n";
  out += "  \"version\": 1,\n";
  out += "  \"connections\": " + std::to_string(s.connections) + ",\n";
  out += "  \"bad_frames\": " + std::to_string(s.bad_frames) + ",\n";
  out += "  \"select\": {\n";
  out += "    \"requests\": " + std::to_string(s.select_requests) + ",\n";
  out += "    \"hits\": " + std::to_string(s.select_hits) + ",\n";
  out += "    \"misses\": " + std::to_string(s.select_misses) + ",\n";
  out += "    \"tune_builds\": " + std::to_string(s.tune_builds) + ",\n";
  out += "    \"tune_failures\": " + std::to_string(s.tune_failures) + ",\n";
  out += "    \"stale_rejected\": " + std::to_string(s.stale_rejected) + ",\n";
  out += "    \"unknown_profile\": " + std::to_string(s.unknown_profile) + "\n";
  out += "  },\n";
  out += "  \"sweep\": {\n";
  out += "    \"jobs\": " + std::to_string(s.sweep_jobs) + ",\n";
  out += "    \"cache_hits\": " + std::to_string(s.plan_cache_hits) + ",\n";
  out += "    \"cache_misses\": " + std::to_string(s.plan_cache_misses) + ",\n";
  out += "    \"coalesced\": " + std::to_string(s.coalesced_jobs) + ",\n";
  out += "    \"journal_replayed\": " + std::to_string(s.journal_replayed) + ",\n";
  out += "    \"journal_executed\": " + std::to_string(s.journal_executed) + ",\n";
  out += "    \"journal_dropped\": " + std::to_string(s.journal_dropped) + "\n";
  out += "  },\n";
  out += "  \"table\": {\n";
  out += "    \"generation\": " + std::to_string(s.table_generation) + ",\n";
  out += "    \"cells\": " + std::to_string(s.table_cells) + "\n";
  out += "  },\n";
  out += "  \"schedule_cache\": {\n";
  out += "    \"hits\": " + std::to_string(s.schedule_cache_hits) + ",\n";
  out += "    \"misses\": " + std::to_string(s.schedule_cache_misses) + ",\n";
  out += "    \"entries\": " + std::to_string(s.schedule_cache_entries) + ",\n";
  out += "    \"bytes\": " + std::to_string(s.schedule_cache_bytes) + "\n";
  out += "  },\n";
  out += "  \"route_memo\": {\n";
  out += "    \"hits\": " + std::to_string(s.route_memo_hits) + ",\n";
  out += "    \"misses\": " + std::to_string(s.route_memo_misses) + ",\n";
  out += "    \"scopes\": " + std::to_string(s.route_memo_scopes) + ",\n";
  out += "    \"bytes\": " + std::to_string(s.route_memo_bytes) + "\n";
  out += "  },\n";
  out += "  \"stale_temps_cleaned\": " + std::to_string(s.stale_temps_cleaned) +
         "\n";
  out += "}\n";
  return out;
}

void Server::wait() {
  std::unique_lock<std::mutex> lock(stop_mu_);
  stop_cv_.wait(lock, [this] { return stop_requested_; });
}

void Server::request_stop() {
  std::lock_guard<std::mutex> lock(stop_mu_);
  stop_requested_ = true;
  stop_cv_.notify_all();
}

void Server::stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    if (stopped_) return;
    stop_requested_ = true;
    stopped_ = true;
    stop_cv_.notify_all();
  }
  // Drain order: cancel running jobs first (in-flight cells complete and
  // journal; unstarted ones never run), then wake every blocked accept and
  // recv, then join.
  cancel_.cancel();
  {
    std::lock_guard<std::mutex> lock(plan_mu_);
    plan_cv_.notify_all();
  }
  {
    std::lock_guard<std::mutex> lock(miss_mu_);
    miss_cv_.notify_all();
  }
  unix_listener_.shutdown_read();
  tcp_listener_.shutdown_read();
  for (std::thread& t : accept_threads_)
    if (t.joinable()) t.join();
  accept_threads_.clear();
  // Only now: the accept threads read the listeners until they exit.
  unix_listener_.close();
  tcp_listener_.close();
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (Connection& c : conns_) c.fd.shutdown_read();
  }
  for (;;) {
    Connection* conn = nullptr;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (conns_.empty()) break;
      conn = &conns_.front();
    }
    if (conn->thread.joinable()) conn->thread.join();
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.pop_front();
  }
  if (started_ && !opts_.unix_socket.empty())
    std::remove(opts_.unix_socket.c_str());
}

}  // namespace bine::svc
