// Selection-service tests: an in-process svc::Server on a Unix socket,
// exercised through svc::Client. Covered: select parity with local
// tune::select against the same table; the staleness handshake (fingerprint
// mismatch -> structured error, wrong profile -> structured error); explicit
// pipelining; single-flight tune-on-miss under concurrent clients (exactly
// one Tuner build per distinct missed cell, each filled cell equal to tuning
// it directly) with responses deterministic across client thread counts
// {1, 4}; sweep jobs matching a local exp::run
// byte-for-byte, with the plan-level cache turning resubmission into an
// identical replay; table persistence across server restarts; startup
// stale-temp hygiene; the stats document; protocol robustness (garbage
// frames close the connection without taking the server down); and stop()
// racing live clients on both listeners.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "coll/registry.hpp"
#include "exp/plan_codec.hpp"
#include "exp/sweep.hpp"
#include "harness/runner.hpp"
#include "net/profiles.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "tune/decision_table.hpp"
#include "tune/json.hpp"
#include "tune/tuner.hpp"

using namespace bine;
using sched::Collective;

namespace {

/// Per-test unique socket path (short: Unix socket paths cap near 100 bytes,
/// and ctest's cwd is already deep).
std::string test_socket(const char* tag) {
  return std::string("svc_") + tag + "_" + std::to_string(::getpid()) + ".sock";
}

/// A dense hand-built table: every collective, several node counts, two size
/// intervals, algorithm names straight from the registry.
tune::DecisionTable dense_table(const net::SystemProfile& profile) {
  tune::DecisionTable table;
  table.set_profile(profile.name, tune::profile_fingerprint(profile));
  for (const Collective coll : coll::all_collectives()) {
    const auto& algos = coll::algorithms_for(coll);
    for (const i64 p : {8, 16, 64}) {
      std::vector<tune::SizeInterval> intervals;
      intervals.push_back({0, 1 << 16, algos.front().name});
      intervals.push_back({1 << 16, tune::kNoUpperBound, algos.back().name});
      table.set_cell(tune::CellKey{profile.name, coll, p}, std::move(intervals));
    }
  }
  return table;
}

svc::SelectRequest make_request(const net::SystemProfile& profile,
                                Collective coll, i64 p, i64 bytes) {
  svc::SelectRequest req;
  req.profile = profile.name;
  req.fingerprint = tune::profile_fingerprint(profile);
  req.coll = coll;
  req.p = p;
  req.bytes = bytes;
  return req;
}

/// RAII server bound to a fresh socket, table installed in-memory.
struct TestServer {
  explicit TestServer(const char* tag, svc::ServerOptions opts = {})
      : socket_path(test_socket(tag)) {
    std::remove(socket_path.c_str());
    opts.unix_socket = socket_path;
    if (opts.profiles.empty()) opts.profiles = {net::lumi_profile()};
    server.emplace(std::move(opts));
  }
  ~TestServer() {
    server->stop();
    std::remove(socket_path.c_str());
  }
  svc::Client connect() { return svc::Client::connect_to_unix(socket_path); }

  std::string socket_path;
  std::optional<svc::Server> server;
};

exp::SweepPlan tiny_plan() {
  exp::SweepPlan plan;
  plan.name = "svc_test_plan";
  plan.systems = {exp::SystemSpec{net::lumi_profile()}};
  plan.colls = {Collective::allreduce};
  plan.series = {exp::Series::best_of("pair", {"ring", "rabenseifner"})};
  plan.nodes.counts = {8, 16};
  plan.sizes = {1024, 1 << 16};
  plan.threads = 1;
  return plan;
}

}  // namespace

TEST(Svc, SelectParityWithLocalTable) {
  const net::SystemProfile lumi = net::lumi_profile();
  const tune::DecisionTable table = dense_table(lumi);

  const std::string table_path = "svc_parity_table.json";
  table.save(table_path);
  svc::ServerOptions opts;
  opts.table_path = table_path;
  opts.tune_on_miss = false;
  TestServer ts("parity", std::move(opts));
  ts.server->start();
  svc::Client client = ts.connect();

  for (const Collective coll : coll::all_collectives())
    for (const i64 p : {8, 16, 64})
      for (const i64 bytes : {0, 1024, 1 << 16, 1 << 22}) {
        const svc::SelectReply reply =
            client.select(make_request(lumi, coll, p, bytes));
        const tune::Selection local = tune::select(table, lumi, coll, p, bytes);
        ASSERT_NE(local.entry, nullptr);
        EXPECT_EQ(reply.algorithm, local.entry->name);
        EXPECT_TRUE(reply.from_table);
        EXPECT_EQ(reply.from_table, local.from_table);
      }

  // A miss with tuning off serves the same heuristic tune::select serves.
  const svc::SelectReply miss =
      client.select(make_request(lumi, Collective::allreduce, 32, 1024));
  const tune::Selection local =
      tune::select(table, lumi, Collective::allreduce, 32, 1024);
  EXPECT_EQ(miss.algorithm, local.entry->name);
  EXPECT_FALSE(miss.from_table);
  std::remove(table_path.c_str());
}

TEST(Svc, StaleFingerprintAndUnknownProfileRejected) {
  TestServer ts("stale");
  ts.server->start();
  svc::Client client = ts.connect();

  svc::SelectRequest req =
      make_request(net::lumi_profile(), Collective::allreduce, 16, 1024);
  req.fingerprint ^= 1;  // a client built against a different machine model
  try {
    (void)client.select(req);
    FAIL() << "stale fingerprint accepted";
  } catch (const svc::ServiceError& e) {
    EXPECT_EQ(e.code(), svc::ErrorCode::stale_fingerprint);
  }

  svc::SelectRequest wrong =
      make_request(net::leonardo_profile(), Collective::allreduce, 16, 1024);
  try {
    (void)client.select(wrong);
    FAIL() << "unknown profile accepted";
  } catch (const svc::ServiceError& e) {
    EXPECT_EQ(e.code(), svc::ErrorCode::unknown_profile);
  }

  // The connection survives structured errors: a good request still answers.
  const svc::SelectReply ok = client.select(
      make_request(net::lumi_profile(), Collective::allreduce, 16, 1024));
  EXPECT_FALSE(ok.algorithm.empty());

  const svc::ServerStats stats = ts.server->stats_snapshot();
  EXPECT_EQ(stats.stale_rejected, 1u);
  EXPECT_EQ(stats.unknown_profile, 1u);
}

TEST(Svc, PipelinedBatchMatchesPerCallSelects) {
  const net::SystemProfile lumi = net::lumi_profile();
  const std::string table_path = "svc_batch_table.json";
  dense_table(lumi).save(table_path);
  svc::ServerOptions opts;
  opts.table_path = table_path;
  opts.tune_on_miss = false;
  TestServer ts("batch", std::move(opts));
  ts.server->start();
  svc::Client client = ts.connect();

  std::vector<svc::SelectRequest> batch;
  for (const Collective coll : coll::all_collectives())
    for (const i64 bytes : {1024, 1 << 20})
      batch.push_back(make_request(lumi, coll, 16, bytes));

  const std::vector<svc::SelectReply> replies = client.select_batch(batch);
  ASSERT_EQ(replies.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const svc::SelectReply one = client.select(batch[i]);
    EXPECT_EQ(replies[i].algorithm, one.algorithm) << i;
    EXPECT_EQ(replies[i].from_table, one.from_table) << i;
  }
  std::remove(table_path.c_str());
}

namespace {

/// Issue the same mixed hit/miss query set from `nthreads` clients; return
/// the (deterministic) query -> algorithm map and the server's build count.
std::pair<std::map<std::string, std::string>, u64> run_mixed_queries(
    const char* tag, i64 nthreads) {
  const net::SystemProfile lumi = net::lumi_profile();

  // Pre-seed exactly one cell so hits and misses interleave.
  tune::DecisionTable seeded;
  seeded.set_profile("lumi", tune::profile_fingerprint(lumi));
  seeded.set_cell(tune::CellKey{"lumi", Collective::allgather, 8},
                  {{0, tune::kNoUpperBound,
                    coll::algorithms_for(Collective::allgather).front().name}});
  const std::string table_path = std::string("svc_") + tag + "_table.json";
  seeded.save(table_path);

  svc::ServerOptions opts;
  opts.table_path = table_path;
  opts.tune_on_miss = true;
  opts.tuner.size_grid = {1024, 1 << 16};  // small grid: tests tune live
  const tune::TunerOptions tuner_opts = opts.tuner;
  TestServer ts(tag, std::move(opts));
  ts.server->start();

  // Two distinct missing cells + one seeded cell, several sizes each.
  const std::vector<std::pair<Collective, i64>> cells = {
      {Collective::allgather, 8},       // hit
      {Collective::allreduce, 8},       // miss -> one build
      {Collective::reduce_scatter, 8},  // miss -> one build
  };
  const std::vector<i64> sizes = {1024, 1 << 16};

  std::vector<std::map<std::string, std::string>> per_thread(
      static_cast<size_t>(nthreads));
  std::vector<std::thread> threads;
  for (i64 t = 0; t < nthreads; ++t)
    threads.emplace_back([&, t] {
      svc::Client client = ts.connect();
      for (int round = 0; round < 3; ++round)
        for (const auto& [coll, p] : cells)
          for (const i64 bytes : sizes) {
            const svc::SelectReply r =
                client.select(make_request(lumi, coll, p, bytes));
            const std::string key = std::string(sched::to_string(coll)) + "/p" +
                                    std::to_string(p) + "/" +
                                    std::to_string(bytes);
            per_thread[static_cast<size_t>(t)][key] = r.algorithm;
          }
    });
  for (std::thread& t : threads) t.join();

  // Every thread observed the same winner for every query.
  for (const auto& m : per_thread) EXPECT_EQ(m, per_thread[0]);

  // Each merged cell equals tuning that cell directly, on a Runner built
  // from the same tuner knobs the server builds its miss Runners from.
  const auto live = ts.server->table();
  for (const auto& [key, intervals] : live->cells()) {
    if (key.coll == Collective::allgather) continue;  // the seeded cell
    harness::Runner fresh(lumi, tuner_opts.spread_placement, tuner_opts.seed);
    EXPECT_EQ(intervals, tune::Tuner(tuner_opts).tune_cell(fresh, key.coll, key.p))
        << sched::to_string(key.coll) << " p=" << key.p;
  }
  EXPECT_EQ(live->cells().size(), 3u);

  // Another size of a filled cell is a table hit and funds no build.
  const u64 builds = ts.server->stats_snapshot().tune_builds;
  const svc::SelectReply other =
      ts.connect().select(make_request(lumi, Collective::allreduce, 8, 1 << 20));
  EXPECT_TRUE(other.from_table);
  EXPECT_EQ(ts.server->stats_snapshot().tune_builds, builds);
  std::remove(table_path.c_str());
  return {per_thread[0], builds};
}

}  // namespace

TEST(Svc, TuneOnMissIsSingleFlightAndDeterministic) {
  const auto [serial, serial_builds] = run_mixed_queries("miss1", 1);
  const auto [parallel, parallel_builds] = run_mixed_queries("miss4", 4);

  // Exactly one Tuner build per distinct missed cell, no matter how many
  // concurrent clients raced on the miss.
  EXPECT_EQ(serial_builds, 2u);
  EXPECT_EQ(parallel_builds, 2u);

  // And the answers are a pure function of the queries: thread counts
  // {1, 4} agree on every winner.
  EXPECT_EQ(serial, parallel);
}

TEST(Svc, SweepJobMatchesLocalRunAndCaches) {
  const std::string journal_dir = "svc_sweep_journal";
  ::mkdir(journal_dir.c_str(), 0755);
  svc::ServerOptions opts;
  opts.journal_dir = journal_dir;
  TestServer ts("sweep", std::move(opts));
  ts.server->start();
  svc::Client client = ts.connect();

  const exp::SweepPlan plan = tiny_plan();
  const std::string local_json = exp::run(plan).to_json();

  const svc::SweepReply first = client.sweep(plan);
  EXPECT_FALSE(first.begin.cache_hit);
  EXPECT_EQ(first.begin.executed, 2);  // two (system, coll, p) cells
  EXPECT_EQ(first.result_json, local_json);
  EXPECT_EQ(first.plan_fingerprint, exp::plan_fingerprint(plan));

  // Resubmission: cache hit, byte-identical, nothing re-executed.
  const svc::SweepReply second = client.sweep(plan);
  EXPECT_TRUE(second.begin.cache_hit);
  EXPECT_EQ(second.result_json, local_json);
  EXPECT_EQ(second.plan_fingerprint, first.plan_fingerprint);

  const svc::ServerStats stats = ts.server->stats_snapshot();
  EXPECT_EQ(stats.sweep_jobs, 2u);
  EXPECT_EQ(stats.plan_cache_misses, 1u);
  EXPECT_EQ(stats.plan_cache_hits, 1u);
  EXPECT_EQ(stats.journal_executed, 2);
  // The executed job ran its cells through the process-wide
  // route memo; the local exp::run above already warmed the scope, so the
  // job's pair resolutions were hits.
  EXPECT_GT(stats.route_memo_hits, 0u);
  EXPECT_GT(stats.route_memo_scopes, 0u);

  // The journal artifact exists, keyed by the plan fingerprint.
  char journal_name[64];
  std::snprintf(journal_name, sizeof(journal_name), "plan_%016llx.bj",
                static_cast<unsigned long long>(first.plan_fingerprint));
  const std::string journal_path = journal_dir + "/" + journal_name;
  struct stat st{};
  EXPECT_EQ(::stat(journal_path.c_str(), &st), 0) << journal_path;
  std::remove(journal_path.c_str());
  ::rmdir(journal_dir.c_str());
}

TEST(Svc, BadPlanAnswersStructuredError) {
  TestServer ts("badplan");
  ts.server->start();
  svc::Client client = ts.connect();
  try {
    (void)client.sweep_json("{\"format\": \"bine-sweep-plan\", \"version\": 1}");
    FAIL() << "malformed plan accepted";
  } catch (const svc::ServiceError& e) {
    EXPECT_EQ(e.code(), svc::ErrorCode::bad_plan);
  }
  // The connection survives; a select still answers.
  const svc::SelectReply ok = client.select(
      make_request(net::lumi_profile(), Collective::allreduce, 16, 1024));
  EXPECT_FALSE(ok.algorithm.empty());
}

TEST(Svc, TunedCellsPersistAcrossRestart) {
  const std::string table_path = "svc_persist_table.json";
  std::remove(table_path.c_str());
  const net::SystemProfile lumi = net::lumi_profile();
  const auto req = make_request(lumi, Collective::allreduce, 8, 1024);

  std::string tuned_algorithm;
  {
    svc::ServerOptions opts;
    opts.table_path = table_path;
    opts.tuner.size_grid = {1024};
    TestServer ts("persist1", std::move(opts));
    ts.server->start();
    svc::Client client = ts.connect();
    const svc::SelectReply reply = client.select(req);
    EXPECT_TRUE(reply.from_table);  // tuned on miss, then served from the merge
    tuned_algorithm = reply.algorithm;
    EXPECT_EQ(ts.server->stats_snapshot().tune_builds, 1u);
  }

  // A fresh server on the same artifact serves the tuned cell as a pure hit.
  {
    svc::ServerOptions opts;
    opts.table_path = table_path;
    TestServer ts("persist2", std::move(opts));
    ts.server->start();
    svc::Client client = ts.connect();
    const svc::SelectReply reply = client.select(req);
    EXPECT_TRUE(reply.from_table);
    EXPECT_EQ(reply.algorithm, tuned_algorithm);
    const svc::ServerStats stats = ts.server->stats_snapshot();
    EXPECT_EQ(stats.tune_builds, 0u);
    EXPECT_EQ(stats.select_hits, 1u);
  }
  std::remove(table_path.c_str());
}

TEST(Svc, StartupCleansStaleTemps) {
  const std::string journal_dir = "svc_clean_journal";
  ::mkdir(journal_dir.c_str(), 0755);
  // A stranded AtomicFile temp from a dead writer (pid 999999 is not ours
  // and -- in any sane test environment -- not alive).
  const std::string stale = journal_dir + "/plan_0000000000000001.bj.tmp.999999.3";
  {
    std::FILE* f = std::fopen(stale.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("torn", f);
    std::fclose(f);
  }

  svc::ServerOptions opts;
  opts.journal_dir = journal_dir;
  TestServer ts("clean", std::move(opts));
  ts.server->start();

  struct stat st{};
  EXPECT_NE(::stat(stale.c_str(), &st), 0) << "stale temp survived startup";
  EXPECT_GE(ts.server->stats_snapshot().stale_temps_cleaned, 1);
  ::rmdir(journal_dir.c_str());
}

TEST(Svc, StatsDocumentParses) {
  TestServer ts("stats");
  ts.server->start();
  svc::Client client = ts.connect();
  (void)client.select(
      make_request(net::lumi_profile(), Collective::allreduce, 16, 1024));

  const std::string doc = client.stats();
  const tune::json::Value v = tune::json::Value::parse(doc);
  EXPECT_EQ(v.at("format", "format").as_string("format"), "bine-svc-stats");
  EXPECT_EQ(v.at("version", "version").as_i64("version"), 1);
  const auto& select = v.at("select", "select");
  EXPECT_EQ(select.at("requests", "requests").as_i64("requests"), 1);
  EXPECT_GE(v.at("connections", "connections").as_i64("connections"), 1);
  // Nested groups all present.
  (void)v.at("sweep", "sweep");
  (void)v.at("table", "table");
  // Schedule-cache footprint: the tune-on-miss above cached its candidates.
  const auto& cache = v.at("schedule_cache", "schedule_cache");
  (void)cache.at("hits", "hits");
  (void)cache.at("misses", "misses");
  EXPECT_GT(cache.at("entries", "entries").as_i64("entries"), 0);
  EXPECT_GT(cache.at("bytes", "bytes").as_i64("bytes"), 0);
  // Route-memo counters: the tune-on-miss above ranked its candidate pool
  // batched, so the process memo has at least one scope with traffic.
  const auto& memo = v.at("route_memo", "route_memo");
  EXPECT_GT(memo.at("scopes", "scopes").as_i64("scopes"), 0);
  EXPECT_GT(memo.at("hits", "hits").as_i64("hits") +
                memo.at("misses", "misses").as_i64("misses"),
            0);
  EXPECT_GT(memo.at("bytes", "bytes").as_i64("bytes"), 0);
}

TEST(Svc, GarbageFramesCloseOnlyThatConnection) {
  TestServer ts("garbage");
  ts.server->start();

  {
    svc::Fd fd = svc::connect_unix(ts.socket_path);
    // Length prefix far past kMaxFrameBytes: the server must answer
    // bad_frame and close, not allocate 4 GiB.
    const char huge[5] = {'\xff', '\xff', '\xff', '\xff', '\x01'};
    ASSERT_TRUE(svc::send_all(fd, std::string_view(huge, sizeof(huge))));
    std::string drain;
    while (svc::recv_some(fd, drain)) {
    }  // server replies error then EOF
  }

  // The server is still healthy for other clients.
  svc::Client client = ts.connect();
  const svc::SelectReply ok = client.select(
      make_request(net::lumi_profile(), Collective::allreduce, 16, 1024));
  EXPECT_FALSE(ok.algorithm.empty());
  EXPECT_GE(ts.server->stats_snapshot().bad_frames, 1u);
}

TEST(Svc, ShutdownRequestDrainsGracefully) {
  TestServer ts("shutdown");
  ts.server->start();
  {
    svc::Client client = ts.connect();
    client.shutdown_server();  // acknowledged before the drain
  }
  ts.server->wait();  // returns: the shutdown frame requested the stop
  ts.server->stop();
  EXPECT_TRUE(ts.server->stopping());
  // The listener is gone: further connects fail.
  EXPECT_THROW((void)svc::Client::connect_to_unix(ts.socket_path),
               std::exception);
}

TEST(Svc, TcpLoopbackServesToo) {
  svc::ServerOptions opts;
  opts.tcp_port = 0;  // kernel-assigned
  TestServer ts("tcp", std::move(opts));
  ts.server->start();
  ASSERT_NE(ts.server->tcp_port(), 0);
  svc::Client client = svc::Client::connect_to_tcp(ts.server->tcp_port());
  const svc::SelectReply ok = client.select(
      make_request(net::lumi_profile(), Collective::allreduce, 16, 1024));
  EXPECT_FALSE(ok.algorithm.empty());
}

// stop() racing live traffic, a few dozen times: each round serves one
// client over the Unix socket and one over TCP loopback, both selecting in a
// loop, and stops the server while both are mid-stream. Every client ends
// with answers or a clean connection error, and stop() returns. Under
// ThreadSanitizer this is the check that listener and connection shutdown
// never race the threads still reading those descriptors.
TEST(Svc, StopDuringTrafficIsClean) {
  const svc::SelectRequest req =
      make_request(net::lumi_profile(), Collective::allreduce, 16, 1024);
  for (int round = 0; round < 30; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    svc::ServerOptions opts;
    opts.tcp_port = 0;
    opts.tune_on_miss = false;  // misses answer the heuristic: cheap rounds
    TestServer ts("stopstress", std::move(opts));
    ts.server->start();
    std::atomic<int> answered{0}, finished{0};
    std::vector<std::thread> clients;
    for (const bool tcp : {false, true})
      clients.emplace_back([&, tcp] {
        try {
          svc::Client client = tcp ? svc::Client::connect_to_tcp(ts.server->tcp_port())
                                   : ts.connect();
          for (;;) {
            (void)client.select(req);
            answered.fetch_add(1);
          }
        } catch (const std::exception&) {
          // The stop closed this connection.
        }
        finished.fetch_add(1);
      });
    while (answered.load() < 4 && finished.load() < 2) std::this_thread::yield();
    ts.server->stop();
    for (std::thread& t : clients) t.join();
    EXPECT_GE(answered.load(), 4);
  }
}
