// server_mixed: a closed loop of min(2, nproc / 2) clients (at least one)
// against one Server over SF 0.002. Half the vCPUs stay free: a closed loop
// with a client on every vCPU measures how much CPU the host's neighbours
// leave it, not the server (see README.md, "Why half the vCPUs"). Each
// client opens one session (dop=1 batch=1), calls Server::Handle directly
// and times every request. The conversation mix is
// the repository's mixed server load (MultiClientConfig as
// bench_server_scale runs it, declare_every = 2): every second conversation
// is a cursor conversation, the others are one QUERY drawn uniformly from
// the pool of query kinds:
//   agg     — one of three repeated-text lineitem aggregates (plan-cache
//             hits)
//   lookup  — an orders point lookup with a varying key (parse + plan every
//             time)
//   udf     — the Aggify-rewritten q2_mincostsupp over 20 parts
//   cursor  — DECLARE over one customer's orders, then FETCH 2 until DONE
// Every reply is checked against answers computed before serving, on a
// database of its own, row at a time and with the UDF interpreted
// (un-rewritten); no reply may be ERR, and no session or cursor may remain
// open after the run.
#include <algorithm>
#include <condition_variable>
#include <map>
#include <mutex>
#include <thread>

#include "common/random.h"
#include "layers.h"
#include "server/server.h"
#include "tpch/cursor_workload.h"
#include "tpch/tpch_gen.h"
#include "workloads.h"

namespace perfbench {

namespace {

using aggify::Row;

constexpr double kScaleFactor = 0.002;
constexpr int kSetupRepetitions = 100;
/// Every kPauseEveryMs of the closed loop the clients pause between
/// conversations while kRewritesPerPause rewrites are timed, so rewrite
/// samples are spread over the run instead of one burst at its end.
constexpr int64_t kPauseEveryMs = 500;
constexpr int kRewritesPerPause = 5;
constexpr int kUdfParts = 20;
constexpr int kFetchRows = 2;
constexpr int kReplaysPerKind = 40;

const char* const kAggQueries[] = {
    "SELECT COUNT(*), SUM(l_quantity) FROM lineitem WHERE l_quantity > 10",
    "SELECT l_returnflag, COUNT(*), SUM(l_extendedprice) FROM lineitem "
    "GROUP BY l_returnflag",
    "SELECT MAX(l_extendedprice), MIN(l_discount) FROM lineitem",
};

std::string RenderRow(const Row& row) {
  std::string out = "ROW";
  for (const Value& v : row) {
    out += '\t';
    out += v.ToString();
  }
  return out;
}

std::vector<std::string> Lines(const std::string& reply) {
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < reply.size()) {
    size_t end = reply.find('\n', pos);
    if (end == std::string::npos) end = reply.size();
    lines.push_back(reply.substr(pos, end - pos));
    pos = end + 1;
  }
  return lines;
}

std::vector<std::string> RowLines(const std::vector<std::string>& lines) {
  std::vector<std::string> rows;
  for (const auto& line : lines) {
    if (line.rfind("ROW", 0) == 0) rows.push_back(line);
  }
  return rows;
}

std::string Second(const std::string& line) {
  size_t sp = line.find(' ');
  return sp == std::string::npos ? "" : line.substr(sp + 1);
}

std::string LookupSql(int64_t key) {
  return "SELECT o_orderkey, o_totalprice, o_orderdate FROM orders "
         "WHERE o_orderkey = " + std::to_string(key);
}
std::string UdfSql(int64_t first) {
  return "SELECT p_partkey, q2_mincostsupp(p_partkey) AS minsupp FROM part "
         "WHERE p_partkey >= " + std::to_string(first) +
         " AND p_partkey < " + std::to_string(first + kUdfParts);
}
std::string CursorSql(int64_t customer) {
  return "SELECT o_orderkey, o_totalprice FROM orders WHERE o_custkey = " +
         std::to_string(customer) + " ORDER BY o_orderkey";
}

/// Answers every request must reproduce, computed before serving.
struct Reference {
  std::vector<int64_t> order_keys;
  std::map<int64_t, std::string> lookup_row;
  std::map<int64_t, std::vector<std::string>> customer_rows;
  std::map<int64_t, std::string> q2_row;  ///< interpreted UDF, per part
  std::vector<std::vector<std::string>> agg_rows;
  int64_t num_parts = 0;
  int64_t num_customers = 0;
};

struct Fixture {
  std::unique_ptr<Database> db;
  std::unique_ptr<aggify::EngineService> service;
  AggifyReport rewrite;  ///< the installed rewrite of q2_mincostsupp
};

aggify::TpchConfig Tpch(uint64_t seed) {
  aggify::TpchConfig tpch;
  tpch.scale_factor = kScaleFactor;
  tpch.seed = seed;
  return tpch;
}

/// What the timed set-up covers: data generation, UDF registration and the
/// rewrite, and the service the server runs on.
Result<std::unique_ptr<Fixture>> SetUp(uint64_t seed, int clients) {
  auto f = std::make_unique<Fixture>();
  f->db = std::make_unique<Database>();
  RETURN_NOT_OK(aggify::PopulateTpch(f->db.get(), Tpch(seed)));

  // Install the rewritten UDF the server calls.
  ASSIGN_OR_RETURN(aggify::TpchCursorQuery q2,
                   aggify::GetTpchCursorQuery("Q2"));
  ASSIGN_OR_RETURN(aggify::Script script, ParseScript(q2.udf_sql));
  auto session = MakeSession(f->db.get());
  RETURN_NOT_OK(RunScript(*session, script));
  aggify::Aggify aggify(f->db.get());
  ASSIGN_OR_RETURN(f->rewrite, RewriteFunction(aggify, "q2_mincostsupp"));

  EngineOptions options;
  options.limits.max_concurrent_queries = clients;
  options.limits.admission_timeout_ms = 10'000;
  f->service = std::make_unique<aggify::EngineService>(f->db.get(), options);
  return f;
}

/// The reference answers, on a database of its own generated from the same
/// seed: the UDF interpreted, and row-at-a-time execution where the server
/// sessions run vectorized. Built once, outside the timed set-up.
Result<Reference> BuildReference(uint64_t seed) {
  Reference ref;
  Database db;
  const aggify::TpchConfig tpch = Tpch(seed);
  RETURN_NOT_OK(aggify::PopulateTpch(&db, tpch));
  ref.num_parts = tpch.num_parts();
  ref.num_customers = tpch.num_customers();

  ASSIGN_OR_RETURN(aggify::TpchCursorQuery q2,
                   aggify::GetTpchCursorQuery("Q2"));
  EngineOptions row_options;
  row_options.execution.enable_batch = false;
  auto session = MakeSession(&db, row_options);
  ASSIGN_OR_RETURN(aggify::Script script, ParseScript(q2.udf_sql));
  RETURN_NOT_OK(RunScript(*session, script));
  ASSIGN_OR_RETURN(QueryResult parts,
                   session->Query("SELECT p_partkey, q2_mincostsupp(p_partkey) "
                                  "AS minsupp FROM part"));
  for (const Row& row : parts.rows) {
    ref.q2_row[row[0].int_value()] = RenderRow(row);
  }
  ASSIGN_OR_RETURN(QueryResult orders,
                   session->Query("SELECT o_orderkey, o_totalprice, "
                                  "o_orderdate, o_custkey FROM orders "
                                  "ORDER BY o_orderkey"));
  for (const Row& row : orders.rows) {
    const int64_t key = row[0].int_value();
    ref.order_keys.push_back(key);
    ref.lookup_row[key] = RenderRow({row[0], row[1], row[2]});
    ref.customer_rows[row[3].int_value()].push_back(
        RenderRow({row[0], row[1]}));
  }
  for (const char* sql : kAggQueries) {
    ASSIGN_OR_RETURN(QueryResult agg, session->Query(sql));
    std::vector<std::string> rows;
    for (const Row& row : agg.rows) rows.push_back(RenderRow(row));
    std::sort(rows.begin(), rows.end());
    ref.agg_rows.push_back(std::move(rows));
  }
  return ref;
}

/// Lets the main thread hold every client between two conversations.
class PauseGate {
 public:
  /// Client side: a client is counted from Enter to Leave.
  void Enter() {
    std::lock_guard<std::mutex> lock(mu_);
    ++running_;
  }
  void Leave() {
    std::lock_guard<std::mutex> lock(mu_);
    --running_;
    cv_.notify_all();
  }
  /// Client side, between conversations: blocks while a pause is held.
  void Checkpoint() {
    if (!held_.load(std::memory_order_acquire)) return;
    std::unique_lock<std::mutex> lock(mu_);
    ++parked_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return !held_.load(); });
    --parked_;
  }
  /// Main side: returns once every running client is parked.
  void Hold() {
    std::unique_lock<std::mutex> lock(mu_);
    held_ = true;
    cv_.wait(lock, [&] { return parked_ == running_; });
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      held_ = false;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<bool> held_{false};
  int running_ = 0;
  int parked_ = 0;
};

/// Rewrite latency of the served UDF: re-register q2_mincostsupp from
/// source and rewrite it, on a database of its own generated like the
/// served one, so the served catalog is never mutated.
class RewriteProbe {
 public:
  Status Init(uint64_t seed) {
    RETURN_NOT_OK(aggify::PopulateTpch(&db_, Tpch(seed)));
    session_ = MakeSession(&db_);
    ASSIGN_OR_RETURN(aggify::TpchCursorQuery q2,
                     aggify::GetTpchCursorQuery("Q2"));
    ASSIGN_OR_RETURN(script_, ParseScript(q2.udf_sql));
    return Status::OK();
  }

  Status Sample(KindSamples* samples) {
    OpScope op("rewrite");
    RETURN_NOT_OK(RunScript(*session_, script_));
    aggify::Aggify aggify(&db_);
    const int64_t t0 = NowNs();
    RETURN_NOT_OK(RewriteFunction(aggify, "q2_mincostsupp").status());
    (*samples)["q2_mincostsupp"].Add(NsToMs(NowNs() - t0));
    return Status::OK();
  }

 private:
  Database db_;
  std::unique_ptr<Session> session_;
  aggify::Script script_;
};

/// What one client measured and checked.
struct ClientLog {
  KindSamples untraced;  ///< by request kind
  KindSamples traced;
  Samples all;
  std::map<std::string, Samples> by_verb;
  int64_t requests = 0;
  int64_t errors = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;

  void Fail(const std::string& what) {
    ++failed;
    if (failures.size() < 10) failures.push_back(what);
  }
};

class Client {
 public:
  Client(aggify::Server* server, const Reference& ref, uint64_t seed, int index,
         ClientLog* log)
      : server_(server),
        ref_(ref),
        rng_(seed * 0x9E3779B97F4A7C15ull + index + 1),
        log_(log) {}

  /// Runs conversations until `stop` is set, then closes the session.
  /// With a `gate`, waits at it between conversations.
  void Run(const std::atomic<bool>& stop, PauseGate* gate = nullptr) {
    std::string reply = Send("OPEN", "OPEN dop=1 batch=1");
    if (reply.rfind("OK ", 0) != 0) {
      log_->Fail("OPEN: " + reply);
      return;
    }
    sid_ = Second(Lines(reply)[0]);
    while (!stop.load(std::memory_order_relaxed)) {
      if (gate != nullptr) gate->Checkpoint();
      Conversation();
    }
    reply = Send("CLOSE", "CLOSE " + sid_);
    if (reply != "OK\n") log_->Fail("CLOSE session: " + reply);
  }

 private:
  /// Sends one request and records its latency under `kind`.
  std::string Send(const std::string& kind, const std::string& request) {
    const bool traced = Tracer::Get().enabled();
    std::string reply;
    int64_t t0, t1;
    {
      OpScope op("request");
      Span span(Layer::kServer, "handle");
      t0 = NowNs();
      reply = server_->Handle(request);
      t1 = NowNs();
    }
    const double ms = NsToMs(t1 - t0);
    ++log_->requests;
    log_->all.Add(ms);
    const std::string verb = kind.substr(0, kind.find(' '));
    log_->by_verb[verb].Add(ms);
    if (kind != "OPEN" && kind != "CLOSE") {
      (traced ? log_->traced : log_->untraced)[kind].Add(ms);
    }
    if (reply.rfind("ERR", 0) == 0) ++log_->errors;
    return reply;
  }

  void CheckQuery(const std::string& what, const std::string& reply,
                  std::vector<std::string> expected) {
    std::vector<std::string> lines = Lines(reply);
    std::vector<std::string> rows = RowLines(lines);
    std::sort(rows.begin(), rows.end());
    std::sort(expected.begin(), expected.end());
    if (lines.empty() ||
        lines.back() != "OK " + std::to_string(expected.size()) ||
        rows != expected) {
      log_->Fail(what + ": unexpected reply " + reply.substr(0, 200));
    }
  }

  /// Every second conversation is a cursor conversation; the others are
  /// one QUERY of a kind drawn uniformly (MultiClientConfig's mix).
  void Conversation() {
    if (conversations_++ % 2 == 0) {
      CursorConversation();
      return;
    }
    switch (rng_.Uniform(3)) {
      case 0: {
        const size_t i = rng_.Uniform(std::size(kAggQueries));
        CheckQuery("agg",
                   Send("QUERY agg", "QUERY " + sid_ + " " + kAggQueries[i]),
                   ref_.agg_rows[i]);
        break;
      }
      case 1: {
        const int64_t key =
            ref_.order_keys[rng_.Uniform(ref_.order_keys.size())];
        CheckQuery("lookup",
                   Send("QUERY lookup", "QUERY " + sid_ + " " + LookupSql(key)),
                   {ref_.lookup_row.at(key)});
        break;
      }
      default: {
        const int64_t first =
            rng_.UniformRange(1, ref_.num_parts - kUdfParts + 1);
        std::vector<std::string> expected;
        for (int64_t p = first; p < first + kUdfParts; ++p) {
          auto it = ref_.q2_row.find(p);
          if (it != ref_.q2_row.end()) expected.push_back(it->second);
        }
        CheckQuery("udf",
                   Send("QUERY udf", "QUERY " + sid_ + " " + UdfSql(first)),
                   expected);
      }
    }
  }

  /// DECLARE, then FETCH until DONE, which closes the cursor server-side.
  void CursorConversation() {
    const int64_t customer = rng_.UniformRange(1, ref_.num_customers);
    std::string reply =
        Send("DECLARE", "DECLARE " + sid_ + " " + CursorSql(customer));
    if (reply.rfind("CURSOR ", 0) != 0) {
      log_->Fail("DECLARE: " + reply);
      return;
    }
    const std::string cid = Second(Lines(reply)[0]);
    auto it = ref_.customer_rows.find(customer);
    const std::vector<std::string> none;
    const std::vector<std::string>& expected =
        it == ref_.customer_rows.end() ? none : it->second;
    // A correct cursor is DONE within this many pages of kFetchRows rows.
    const size_t max_pages = expected.size() / kFetchRows + 2;
    std::vector<std::string> got;
    bool done = false;
    for (size_t page = 0; page < max_pages && !done; ++page) {
      reply = Send("FETCH", "FETCH " + sid_ + " " + cid + " " +
                                std::to_string(kFetchRows));
      std::vector<std::string> lines = Lines(reply);
      if (lines.empty() || reply.rfind("ERR", 0) == 0) {
        log_->Fail("FETCH: " + reply);
        return;
      }
      for (auto& row : RowLines(lines)) got.push_back(std::move(row));
      done = lines.back().rfind("DONE ", 0) == 0;
      if (!done && lines.back().rfind("MORE ", 0) != 0) {
        log_->Fail("FETCH: " + reply);
        return;
      }
    }
    if (got != expected) {
      log_->Fail("cursor over customer " + std::to_string(customer) +
                 ": fetched rows differ from the reference");
    }
    if (!done) {
      log_->Fail("cursor over customer " + std::to_string(customer) +
                 ": not DONE after " + std::to_string(max_pages) + " pages");
      reply = Send("CLOSE", "CLOSE " + sid_ + " " + cid);
      if (reply != "OK\n") log_->Fail("CLOSE cursor: " + reply);
    }
  }

  aggify::Server* server_;
  const Reference& ref_;
  aggify::Random rng_;
  ClientLog* log_;
  std::string sid_;
  int64_t conversations_ = 0;
};

/// What the replay measured: per request kind, the counters of one
/// execution and the plan root of its query.
struct ReplayLog {
  std::map<std::string, aggify::IoStats> io;
  std::map<std::string, int64_t> rows;
  std::map<std::string, std::string> plan_root;
};

/// Traced replay of each request kind outside the server, through the
/// layers the server calls: parse, plan, execute (UDF calls and nested
/// queries as children), and ClientSession::Query as a whole. Gives the
/// parser / plan / exec / procedural split of what Server::Handle does,
/// and the per-kind counters the server's private session counters hide.
Status Replay(aggify::EngineService* service, const Reference& ref,
              uint64_t seed, ReplayLog* log) {
  EngineOptions options = service->options();
  options.execution.degree_of_parallelism = 1;
  options.execution.enable_batch = true;
  aggify::ClientSession client(service, options);
  aggify::Random rng(seed ^ 0x5EED);
  for (int i = 0; i < kReplaysPerKind; ++i) {
    const std::pair<const char*, std::string> requests[] = {
        {"agg", kAggQueries[rng.Uniform(std::size(kAggQueries))]},
        {"lookup",
         LookupSql(ref.order_keys[rng.Uniform(ref.order_keys.size())])},
        {"udf", UdfSql(rng.UniformRange(1, ref.num_parts - kUdfParts + 1))},
    };
    for (const auto& [kind, sql] : requests) {
      {
        OpScope op("replay", &client.io_stats());
        const aggify::IoStats before = client.io_stats();
        ASSIGN_OR_RETURN(auto stmt, ParseSelect(sql));
        ExecContext ctx = client.MakeContext();
        TraceHooks(ctx);
        aggify::VariableEnv env;
        ctx.set_vars(&env);
        ASSIGN_OR_RETURN(std::string plan,
                         Explain(service->engine(), *stmt, ctx));
        ASSIGN_OR_RETURN(QueryResult result,
                         Execute(service->engine(), *stmt, ctx));
        log->io[kind] = Delta(client.io_stats(), before);
        log->rows[kind] = static_cast<int64_t>(result.rows.size());
        log->plan_root[kind] = PlanRoot(plan);
      }
      {
        OpScope op("replay_session", &client.io_stats());
        Span span(Layer::kProcedural, "client_query");
        RETURN_NOT_OK(client.Query(sql).status());
      }
    }
    OpScope op("replay_cursor", &client.io_stats());
    const aggify::IoStats before = client.io_stats();
    const std::string sql = CursorSql(rng.UniformRange(1, ref.num_customers));
    RETURN_NOT_OK(ParseSelect(sql).status());
    std::unique_ptr<aggify::QueryCursor> cursor;
    {
      Span span(Layer::kExec, "declare");
      ASSIGN_OR_RETURN(cursor, client.Declare(sql));
    }
    bool done = false;
    while (!done) {
      Span span(Layer::kExec, "fetch");
      ASSIGN_OR_RETURN(aggify::QueryPage page, cursor->Fetch(kFetchRows));
      done = page.done;
    }
    log->io["cursor"] = Delta(client.io_stats(), before);
    log->rows["cursor"] = cursor->rows_fetched();
  }
  return Status::OK();
}

}  // namespace

aggify::Status RunServerMixed(const RunConfig& config, Metrics* metrics,
                              Outcome* outcome) {
  const int clients = std::max(
      1,
      std::min(2, static_cast<int>(std::thread::hardware_concurrency()) / 2));
  EndToEnd e2e;
  std::unique_ptr<Fixture> f;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    f.reset();
    const int64_t t0 = NowNs();
    ASSIGN_OR_RETURN(f, SetUp(config.seed, clients));
    e2e.setup_s.Add(NsToMs(NowNs() - t0) / 1e3);
  }
  ASSIGN_OR_RETURN(const Reference ref, BuildReference(config.seed));

  aggify::Server::Config server_config;
  server_config.sessions.max_sessions = 64;
  server_config.cursors.max_cursors = 256;
  aggify::Server server(f->service.get(), server_config);

  // Warm-up: one client's worth of conversations, untimed.
  {
    ClientLog warm;
    Client client(&server, ref, config.seed + 7919, 0, &warm);
    std::atomic<bool> stop{false};
    std::thread t([&] { client.Run(stop); });
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    stop = true;
    t.join();
    outcome->attempted += warm.requests;
    outcome->failed += warm.failed;
    for (const auto& what : warm.failures) outcome->Note("warm-up: " + what);
  }
  const aggify::ServerStatsSnapshot warm_stats = server.Stats();

  RewriteProbe probe;
  RETURN_NOT_OK(probe.Init(config.seed));

  std::vector<ClientLog> logs(static_cast<size_t>(clients));
  std::atomic<bool> stop{false};
  PauseGate gate;
  Status probe_status;
  int64_t paused_ns = 0;
  const int64_t t0 = NowNs();
  {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(clients));
    for (int i = 0; i < clients; ++i) {
      gate.Enter();
      threads.emplace_back([&, i] {
        Client client(&server, ref, config.seed, i,
                      &logs[static_cast<size_t>(i)]);
        client.Run(stop, &gate);
        gate.Leave();
      });
    }
    // Traced runs alternate untraced and traced 250 ms windows; every
    // kPauseEveryMs the clients pause for a few timed rewrites.
    const int64_t end = t0 + static_cast<int64_t>(config.seconds * 1e9);
    int64_t next_pause = t0 + kPauseEveryMs * 1'000'000;
    bool traced = false;
    while (NowNs() < end && probe_status.ok()) {
      const int64_t left_ms = std::max<int64_t>(1, (end - NowNs()) / 1'000'000);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(std::min<int64_t>(250, left_ms)));
      if (NowNs() >= next_pause) {
        const int64_t p0 = NowNs();
        gate.Hold();
        for (int i = 0; i < kRewritesPerPause && probe_status.ok(); ++i) {
          probe_status = probe.Sample(&e2e.rewrite_ms);
        }
        gate.Release();
        paused_ns += NowNs() - p0;
        next_pause += kPauseEveryMs * 1'000'000;
      }
      if (config.trace) {
        traced = !traced;
        Tracer::Get().SetEnabled(traced);
      }
    }
    stop = true;
    for (auto& t : threads) t.join();
  }
  const double wall_s = NsToMs(NowNs() - t0 - paused_ns) / 1e3;
  Tracer::Get().SetEnabled(false);
  RETURN_NOT_OK(probe_status);

  // --- merge and check ---------------------------------------------------
  Samples all;
  std::map<std::string, Samples> by_verb;
  int64_t requests = 0, errors = 0;
  for (ClientLog& log : logs) {
    for (const auto& [kind, samples] : log.untraced.kinds()) {
      e2e.op_ms[kind].Append(samples);
    }
    for (const auto& [kind, samples] : log.traced.kinds()) {
      e2e.traced_op_ms[kind].Append(samples);
    }
    all.Append(log.all);
    for (const auto& [verb, samples] : log.by_verb) {
      by_verb[verb].Append(samples);
    }
    requests += log.requests;
    errors += log.errors;
    outcome->attempted += log.requests;
    outcome->failed += log.failed;
    for (const auto& what : log.failures) outcome->Note(what);
  }
  e2e.concurrency = clients;
  e2e.weight_by_mix = true;
  const int64_t open_sessions = server.sessions().open_sessions();
  const int64_t open_cursors = server.cursors().open_cursors();
  if (errors > 0) outcome->FailCheck(std::to_string(errors) + " ERR replies");
  if (open_sessions != 0 || open_cursors != 0) {
    outcome->FailCheck("leak: " + std::to_string(open_sessions) +
                       " sessions and " + std::to_string(open_cursors) +
                       " cursors open after the run");
  }

  // --- report ------------------------------------------------------------
  const aggify::ServerStatsSnapshot stats = server.Stats();
  ReportLine("server_mixed: seed %llu, SF %g, %d clients, %lld requests in "
             "%.2f s, %lld ERR replies, %lld sessions and %lld cursors open "
             "after the run",
             static_cast<unsigned long long>(config.seed), kScaleFactor,
             clients, static_cast<long long>(requests), wall_s,
             static_cast<long long>(errors),
             static_cast<long long>(open_sessions),
             static_cast<long long>(open_cursors));
  metrics->Set("server.requests_per_s", requests / wall_s, "1/s");
  metrics->Set("server.request_p50_ms", all.Percentile(0.5), "ms");
  metrics->Set("server.request_p90_ms", all.Percentile(0.9), "ms");
  metrics->Set("server.request_p99_ms", all.Percentile(0.99), "ms");
  metrics->Set("server.request_p999_ms", all.Percentile(0.999), "ms");
  metrics->Set("server.request_n", static_cast<double>(all.size()), "count");
  ReportLine("requests: %.1f/s, p50 %.4f ms, p90 %.4f ms, p99 %.4f ms, "
             "p99.9 %.4f ms over %zu requests",
             requests / wall_s, all.Percentile(0.5), all.Percentile(0.9),
             all.Percentile(0.99), all.Percentile(0.999), all.size());
  const std::pair<const char*, const char*> verbs[] = {
      {"OPEN", "server.open_ms"},       {"QUERY", "server.query_ms"},
      {"DECLARE", "server.declare_ms"}, {"FETCH", "server.fetch_ms"},
      {"CLOSE", "server.close_ms"}};
  for (const auto& [verb, name] : verbs) {
    metrics->SetTiming(name, by_verb[verb], "ms");
  }
  metrics->Set("server.errors", static_cast<double>(errors), "count");
  metrics->Set("server.open_cursors_after", static_cast<double>(open_cursors),
               "count");
  metrics->Set("server.open_sessions_after", static_cast<double>(open_sessions),
               "count");
  ReportPlanCache(stats.plan_cache_hits - warm_stats.plan_cache_hits,
                  stats.plan_cache_misses - warm_stats.plan_cache_misses,
                  metrics);
  ReportLine("cursors opened %lld, closed %lld",
             static_cast<long long>(stats.cursors_opened),
             static_cast<long long>(stats.cursors_closed));
  // The server parses the statement of every QUERY and DECLARE.
  metrics->Set("parser.statements",
               g_statements_parsed.load() + by_verb["QUERY"].size() +
                   by_verb["DECLARE"].size(),
               "count");
  ReportRewrites({f->rewrite}, metrics);
  ReportRobustness(f->db->robustness(), metrics);

  ReportEndToEnd(e2e, metrics);
  if (config.trace) {
    ReplayLog replay;
    Tracer::Get().SetEnabled(true);
    Status status = Replay(f->service.get(), ref, config.seed, &replay);
    Tracer::Get().SetEnabled(false);
    RETURN_NOT_OK(status);
    IoTotals io;
    std::vector<std::string> roots;
    for (const auto& [kind, delta] : replay.io) {
      io.Add(delta, replay.rows[kind]);
      const std::string& root = replay.plan_root[kind];
      if (!root.empty()) roots.push_back(root);
      ReportLine("replayed %-7s reads %lld, rows produced %lld, plan root %s",
                 kind.c_str(),
                 static_cast<long long>(delta.TotalLogicalReads()),
                 static_cast<long long>(delta.rows_produced),
                 root.empty() ? "n/a" : root.c_str());
    }
    ReportIo(io, 0, metrics);
    ReportPlanRoots(roots, metrics);
    ReportTrace(config, e2e, Tracer::Get().Collect(), metrics);
  }
  return Status::OK();
}

}  // namespace perfbench
