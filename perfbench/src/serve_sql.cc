// serve_sql: an open loop of SQL requests over TCP. Seeded Poisson arrivals
// at one fixed offered rate are spread over a few client connections to an
// in-process NetServer; each connection thread submits on schedule, polls
// its outstanding jobs and fetches every page. A request's latency runs from
// its due time to its last page, so a stall also charges the requests that
// queued behind it.
//
// The load sits on SQL compile, fingerprinting, optimizer compile, the
// admission queue, the plan and result caches and the wire; execution of a
// few-row answer is small. Fresh constants make most statements plan-cache
// misses, and far more distinct statements than the plan cache's 64 entries
// arrive, so memory reaches its steady state within a run.
#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "core/api/context.h"
#include "core/optimizer/fingerprint.h"
#include "core/service/job_server.h"
#include "core/service/net/client.h"
#include "core/service/net/server.h"
#include "core/sql/sql.h"

namespace perfbench {
namespace {

using rheem::Dataset;
using rheem::Record;

/// Smaller than batch_sql's table so that a 25 s run at half the sustained
/// rate yields over 1,000 latency samples (see RATIONALE.md).
constexpr std::size_t kOrderRows = 20000;
constexpr int kConnections = 3;
/// Offered rate, fixed once at about half of the ~120/s the library
/// sustained over this table on a 4-core host when this benchmark was
/// written (see RATIONALE.md).
constexpr double kOfferedQps = 60.0;
/// Poll cadence of a connection with outstanding jobs.
constexpr auto kPollInterval = std::chrono::microseconds(1000);
/// The wire protocol has no frame that releases a finished job: a session
/// keeps every job's result and compiled plan (with a copy of the scanned
/// table) until it closes. A connection therefore moves to a fresh session
/// after this many jobs and closes the old one once its jobs are
/// collected, as a pooled client recycling its connections would. Without
/// this, server memory grows by one table copy per request.
constexpr int kJobsPerSession = 8;
constexpr int kDashboards = 16;

enum class Kind { kRange, kDashboard, kJoin, kScan };

struct Request {
  Kind kind = Kind::kRange;
  double due = 0;  // seconds after the loop starts
  std::string sql;
  int64_t lo = 0, hi = 0;  // id range, day range, or dashboard bound
  int dashboard = 0;
};

/// The dashboard set: fixed statements repeated throughout the run, so they
/// hit the plan and result caches.
std::string DashboardSql(int i, int64_t* bound) {
  if (i < kDashboards / 2) {
    *bound = 45 * (i + 1);
    return "SELECT region, SUM(amount) AS total, COUNT(*) AS n FROM orders "
           "WHERE day < " + std::to_string(*bound) + " GROUP BY region";
  }
  *bound = 6 * (i - kDashboards / 2 + 1);
  return "SELECT qty, SUM(amount) AS total, COUNT(*) AS n FROM orders "
         "WHERE qty <= " + std::to_string(*bound) + " GROUP BY qty";
}

/// One statement of `kind` with fresh seeded constants. Each kind's
/// constants move a fixed-width window, so its requests do equal work.
Request MakeRequest(Kind kind, rheem::Rng* rng) {
  Request r;
  r.kind = kind;
  const auto n = static_cast<int64_t>(kOrderRows);
  switch (kind) {
    case Kind::kRange:  // narrow id range: a few rows, a fresh plan
      r.lo = static_cast<int64_t>(rng->NextBounded(kOrderRows - 64));
      r.hi = r.lo + 1 + static_cast<int64_t>(rng->NextBounded(64));
      r.sql = "SELECT id, amount FROM orders WHERE id >= " +
              std::to_string(r.lo) + " AND id < " + std::to_string(r.hi);
      break;
    case Kind::kDashboard:
      r.dashboard = static_cast<int>(rng->NextBounded(kDashboards));
      r.sql = DashboardSql(r.dashboard, &r.hi);
      break;
    case Kind::kJoin:
      r.lo = static_cast<int64_t>(rng->NextBounded(kDays - 15));
      r.hi = r.lo + 15;
      r.sql = "SELECT c.tier, SUM(o.amount) AS revenue, COUNT(*) AS n "
              "FROM orders AS o JOIN customers AS c ON o.customer = c.id "
              "WHERE o.day >= " + std::to_string(r.lo) + " AND o.day < " +
              std::to_string(r.hi) + " GROUP BY c.tier";
      break;
    case Kind::kScan:  // a quarter of the table: several result pages
      r.lo = static_cast<int64_t>(rng->NextBounded(static_cast<uint64_t>(n - n / 4)));
      r.hi = r.lo + n / 4;
      r.sql = "SELECT id, customer, region, amount FROM orders WHERE id >= " +
              std::to_string(r.lo) + " AND id < " + std::to_string(r.hi);
      break;
  }
  return r;
}

/// The kinds of `n` requests in seeded order, in the mix's exact shares:
/// 60% narrow range filters, 25% dashboard aggregates, 10% join + GROUP
/// BY, 5% multi-page scans.
std::vector<Kind> Mix(std::size_t n, rheem::Rng* rng) {
  std::vector<Kind> kinds;
  const std::pair<Kind, double> shares[] = {
      {Kind::kDashboard, 0.25}, {Kind::kJoin, 0.10}, {Kind::kScan, 0.05}};
  for (const auto& [kind, share] : shares) {
    kinds.insert(kinds.end(), static_cast<std::size_t>(std::llround(share * n)), kind);
  }
  kinds.resize(n, Kind::kRange);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(kinds[i - 1], kinds[rng->NextBounded(i)]);
  }
  return kinds;
}

/// Plain C++ reference for one request; "" when `got` matches.
std::string Check(const Request& r, const Orders& o,
                  const std::vector<int64_t>& tiers, const Dataset& got) {
  const int64_t n = static_cast<int64_t>(o.size());
  switch (r.kind) {
    case Kind::kRange:
    case Kind::kScan: {
      const int64_t hi = std::min(r.hi, n);
      const int64_t want_rows = std::max<int64_t>(0, hi - r.lo);
      int64_t id_sum = 0, want_id_sum = 0, customer_sum = 0, want_customer = 0;
      double amount = 0, want_amount = 0;
      for (int64_t i = r.lo; i < hi; ++i) {
        want_id_sum += i;
        want_customer += o.customer[i];
        want_amount += o.amount[i];
      }
      const std::size_t amount_col = r.kind == Kind::kRange ? 1 : 3;
      for (const Record& row : got.records()) {
        id_sum += row[0].ToInt64Or(-1);
        amount += row[amount_col].ToDoubleOr(0);
        if (r.kind == Kind::kScan) customer_sum += row[1].ToInt64Or(-1);
      }
      if (static_cast<int64_t>(got.size()) != want_rows || id_sum != want_id_sum ||
          (r.kind == Kind::kScan && customer_sum != want_customer) ||
          !Near(amount, want_amount)) {
        return "rows " + std::to_string(got.size()) + " vs " +
               std::to_string(want_rows);
      }
      return "";
    }
    case Kind::kDashboard: {
      Groups want;
      const bool by_region = r.dashboard < kDashboards / 2;
      for (std::size_t i = 0; i < o.size(); ++i) {
        if (by_region ? o.day[i] < r.hi : o.qty[i] <= r.hi) {
          Group& g = want[by_region ? o.region[i] : o.qty[i]];
          g.count += 1;
          g.sum += o.amount[i];
        }
      }
      return CheckGroups(got, want, by_region);
    }
    case Kind::kJoin: {
      Groups want;
      for (std::size_t i = 0; i < o.size(); ++i) {
        if (o.day[i] >= r.lo && o.day[i] < r.hi) {
          Group& g = want[tiers[o.customer[i]]];
          g.count += 1;
          g.sum += o.amount[i];
        }
      }
      return CheckGroups(got, want, false);
    }
  }
  return "unknown request kind";
}

/// One request's outcome as the generator saw it.
struct Outcome {
  bool refused = false;    // ResourceExhausted at submit
  bool failed = false;     // any other failure
  bool completed = false;  // all pages received
  double late_s = 0;       // submit time - due time
  double done_s = 0;       // last page received, seconds after start
  int64_t polls = 0;
  Dataset rows;
};

/// Client-side wire timings of a phase (benchmark-side, per round trip).
struct WireSamples {
  std::mutex mu;
  std::vector<double> submit_us, fetch_us;
};

struct Server {
  std::unique_ptr<rheem::RheemContext> ctx;
  std::unique_ptr<rheem::sql::InMemoryCatalog> catalog;
  std::unique_ptr<rheem::net::NetServer> net;
  int port = 0;
};

/// One session of a connection: the jobs it submitted and has not yet
/// collected.
struct Session {
  struct InFlight {
    std::size_t index;  // into the phase's requests
    uint64_t job;
  };
  rheem::net::Client client;
  std::vector<InFlight> outstanding;
  int submitted = 0;
};

/// Runs `conn`'s share of `requests` (sorted by due time): request i
/// belongs to connection i mod kConnections. Submissions go to the current
/// session; once it has taken kJobsPerSession jobs a fresh session takes
/// over, and the old one is closed as soon as its jobs are collected, so
/// recycling never holds up a due submission.
void RunConnection(int conn, int port, const std::vector<Request>& requests,
                   Clock::time_point start, std::vector<Outcome>* outcomes,
                   WireSamples* wire) {
  std::vector<std::unique_ptr<Session>> sessions;  // back() takes submissions
  auto open_session = [&] {
    sessions.push_back(std::make_unique<Session>());
    Expect(sessions.back()->client.Connect("127.0.0.1", port), "connect");
  };
  open_session();
  std::vector<double> submit_us, fetch_us;
  std::size_t next = static_cast<std::size_t>(conn);
  auto now_s = [&] { return SecondsSince(start); };
  auto busy = [&] {
    for (const auto& s : sessions) {
      if (!s->outstanding.empty()) return true;
    }
    return false;
  };

  while (next < requests.size() || busy()) {
    if (next < requests.size() && requests[next].due <= now_s()) {
      if (sessions.back()->submitted >= kJobsPerSession) open_session();
      Session& session = *sessions.back();
      const Request& r = requests[next];
      Outcome& out = (*outcomes)[next];
      out.late_s = now_s() - r.due;
      const auto t0 = Clock::now();
      auto job = session.client.SubmitSql(r.sql);
      submit_us.push_back(MicrosSince(t0));
      if (job.ok()) {
        session.outstanding.push_back({next, *job});
        session.submitted += 1;
      } else if (job.status().IsResourceExhausted()) {
        out.refused = true;
      } else {
        std::fprintf(stderr, "submit failed: %s\n",
                     job.status().ToString().c_str());
        out.failed = true;
      }
      next += kConnections;
      continue;
    }
    bool progressed = false;
    for (auto& session : sessions) {
      auto& outstanding = session->outstanding;
      for (std::size_t k = 0; k < outstanding.size();) {
        Outcome& out = (*outcomes)[outstanding[k].index];
        out.polls += 1;
        auto status = session->client.Poll(outstanding[k].job);
        if (!status.ok()) Die("poll: " + status.status().ToString());
        if (!status->done) {
          ++k;
          continue;
        }
        progressed = true;
        if (status->code != 0) {
          std::fprintf(stderr, "job failed: %s\n", status->message.c_str());
          out.failed = true;
        } else {
          for (uint64_t page = 0; page < status->pages; ++page) {
            const auto t0 = Clock::now();
            auto rows = session->client.FetchPage(outstanding[k].job, page);
            fetch_us.push_back(MicrosSince(t0));
            if (!rows.ok()) Die("fetch: " + rows.status().ToString());
            out.rows.AppendAll(std::move(*rows));
          }
          out.completed = true;
          out.done_s = now_s();
        }
        outstanding.erase(outstanding.begin() + static_cast<long>(k));
      }
    }
    // Close every retired session whose jobs are all collected.
    for (std::size_t i = 0; i + 1 < sessions.size();) {
      if (sessions[i]->outstanding.empty()) {
        Expect(sessions[i]->client.Bye(), "bye");
        sessions.erase(sessions.begin() + static_cast<long>(i));
      } else {
        ++i;
      }
    }
    if (progressed) continue;
    // Sleep until the next poll or the next arrival, whichever is first.
    double wake = busy() ? now_s() + std::chrono::duration<double>(kPollInterval).count()
                         : 1e300;
    if (next < requests.size()) wake = std::min(wake, requests[next].due);
    const double wait = wake - now_s();
    if (wait > 0 && wait < 1e6) {
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    }
  }
  for (auto& session : sessions) Expect(session->client.Bye(), "bye");
  std::lock_guard<std::mutex> lock(wire->mu);
  wire->submit_us.insert(wire->submit_us.end(), submit_us.begin(), submit_us.end());
  wire->fetch_us.insert(wire->fetch_us.end(), fetch_us.begin(), fetch_us.end());
}

/// Statement stream of one phase: Poisson arrivals over `seconds`,
/// conditioned on their count (kOfferedQps * seconds uniform arrival times,
/// sorted), so every run offers exactly the same number of requests.
std::vector<Request> Schedule(rheem::Rng* rng, double seconds) {
  const auto n = static_cast<std::size_t>(std::llround(kOfferedQps * seconds));
  std::vector<double> due(n);
  for (double& t : due) t = rng->NextDouble() * seconds;
  std::sort(due.begin(), due.end());
  const std::vector<Kind> kinds = Mix(n, rng);
  std::vector<Request> requests;
  for (std::size_t i = 0; i < n; ++i) {
    Request r = MakeRequest(kinds[i], rng);
    r.due = due[i];
    requests.push_back(std::move(r));
  }
  return requests;
}

struct PhaseResult {
  std::vector<double> latency_ms, late_ms;
  int64_t attempted = 0, refused = 0, failed = 0, succeeded = 0, polls = 0;
  int64_t completed_in_window = 0;
  int64_t rows_scanned = 0;  // by the requests completed inside the window
  double seconds = 0;

  void Add(const PhaseResult& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(), o.latency_ms.end());
    late_ms.insert(late_ms.end(), o.late_ms.begin(), o.late_ms.end());
    attempted += o.attempted;
    refused += o.refused;
    failed += o.failed;
    succeeded += o.succeeded;
    polls += o.polls;
    completed_in_window += o.completed_in_window;
    rows_scanned += o.rows_scanned;
    seconds += o.seconds;
  }
};

/// Runs one open-loop phase of `seconds`, checks every answer, reconciles
/// the generator's counts with the server's and adds the outcome to
/// `total`.
void RunPhase(Server* server, rheem::Rng* rng, double seconds,
              const Orders& orders, const std::vector<int64_t>& tiers,
              WireSamples* wire, PhaseResult* total, Report* report) {
  const std::vector<Request> requests = Schedule(rng, seconds);
  const rheem::JobServerStats js0 = server->ctx->job_server().stats();
  const rheem::net::NetServerStats ns0 = server->net->stats();
  std::vector<Outcome> outcomes(requests.size());
  // The schedule starts once every connection has had time to connect.
  const auto start = Clock::now() + std::chrono::milliseconds(100);
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back(RunConnection, c, server->port, std::cref(requests),
                           start, &outcomes, wire);
    }
    for (auto& t : threads) t.join();
  }
  const rheem::JobServerStats js1 = server->ctx->job_server().stats();
  const rheem::net::NetServerStats ns1 = server->net->stats();

  PhaseResult p;
  p.seconds = seconds;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Outcome& out = outcomes[i];
    p.attempted += 1;
    p.late_ms.push_back(out.late_s * 1e3);
    if (out.refused) {
      p.refused += 1;
      continue;
    }
    p.polls += out.polls;
    if (!out.completed) {
      p.failed += 1;
      continue;
    }
    p.succeeded += 1;
    p.latency_ms.push_back((out.done_s - requests[i].due) * 1e3);
    if (out.done_s <= seconds) {
      p.completed_in_window += 1;
      p.rows_scanned += static_cast<int64_t>(
          requests[i].kind == Kind::kJoin ? orders.size() + tiers.size()
                                          : orders.size());
    }
    const std::string diff = Check(requests[i], orders, tiers, out.rows);
    if (!diff.empty()) report->Mismatch("serve_sql: '" + requests[i].sql + "': " + diff);
  }

  const int64_t admitted = p.attempted - p.refused;
  auto reconcile = [&](const char* what, int64_t got, int64_t want) {
    if (got != want) {
      report->Mismatch(std::string("serve_sql reconciliation: ") + what + " " +
                       std::to_string(got) + " != generator " +
                       std::to_string(want));
    }
  };
  reconcile("JobServer submitted", js1.submitted - js0.submitted, admitted);
  reconcile("JobServer rejected + net quota refusals",
            (js1.rejected - js0.rejected) +
                (ns1.quota_rejections - ns0.quota_rejections),
            p.refused);
  reconcile("JobServer succeeded", js1.succeeded - js0.succeeded, p.succeeded);
  reconcile("JobServer failed + cancelled",
            (js1.failed - js0.failed) + (js1.cancelled - js0.cancelled),
            p.failed);
  reconcile("net submits", ns1.submits - ns0.submits, admitted);
  total->Add(p);
}

/// Tears down in dependency order: the server drains before the catalog
/// and context it borrows go away.
void StopServer(Server* s) {
  s->net.reset();
  s->catalog.reset();
  s->ctx.reset();
}

Server StartServer(const Dataset& orders, const Dataset& customers) {
  Server s;
  s.ctx = std::make_unique<rheem::RheemContext>();
  Expect(s.ctx->RegisterDefaultPlatforms(), "register platforms");
  s.catalog = std::make_unique<rheem::sql::InMemoryCatalog>();
  Expect(s.catalog->Register("orders", orders), "register orders");
  Expect(s.catalog->Register("customers", customers), "register customers");
  s.net = std::make_unique<rheem::net::NetServer>(s.ctx.get(), s.catalog.get());
  auto port = s.net->Start(0);
  if (!port.ok()) Die("server start: " + port.status().ToString());
  s.port = *port;
  return s;
}

/// One request of every kind through a fresh connection, then enough
/// distinct statements through the JobServer to fill the plan cache, so
/// the timed loop starts in the steady state it keeps for the whole run.
void WarmUp(Server* server, const Orders& orders,
            const std::vector<int64_t>& tiers, Report* report) {
  rheem::Rng rng(12345);
  std::vector<Request> warm;
  for (Kind kind : {Kind::kRange, Kind::kDashboard, Kind::kJoin, Kind::kScan}) {
    warm.push_back(MakeRequest(kind, &rng));
  }
  rheem::net::Client client;
  Expect(client.Connect("127.0.0.1", server->port), "connect");
  for (const Request& r : warm) {
    auto job = client.SubmitSql(r.sql);
    if (!job.ok()) Die("warm-up submit: " + job.status().ToString());
    auto rows = client.FetchAll(*job);
    if (!rows.ok()) Die("warm-up fetch: " + rows.status().ToString());
    const std::string diff = Check(r, orders, tiers, *rows);
    if (!diff.empty()) report->Mismatch("serve_sql warm-up: " + diff);
  }
  Expect(client.Bye(), "bye");

  const int capacity = static_cast<int>(
      server->ctx->job_server().plan_cache().stats().capacity);
  rheem::JobServer& jobs = server->ctx->job_server();
  for (int done = 0; done < capacity + kDashboards;) {
    std::vector<rheem::JobHandle> batch;
    for (int i = 0; i < 16; ++i, ++done) {
      const Request r = MakeRequest(Kind::kRange, &rng);
      auto handle = jobs.SubmitSql(r.sql, *server->catalog);
      if (!handle.ok()) Die("warm-up submit: " + handle.status().ToString());
      batch.push_back(*handle);
    }
    for (auto& h : batch) {
      if (auto result = h.Wait(); !result.ok()) {
        Die("warm-up job: " + result.status().ToString());
      }
    }
  }
}

}  // namespace

void RunServeSql(const Options& opt, Report* report) {
  const Orders orders = MakeOrders(kOrderRows, opt.seed);
  const std::vector<int64_t> tiers = MakeTiers(opt.seed);
  const Dataset orders_ds = OrdersDataset(orders);
  const Dataset customers_ds = CustomersDataset(tiers);

  // Set-up, timed several times; the last server stays up for the run.
  Server server;
  std::vector<double> setup_s;
  for (int rep = 0; rep < 3; ++rep) {
    StopServer(&server);
    Dataset o = orders_ds, c = customers_ds;  // benchmark-side copies
    const auto t0 = Clock::now();
    server = StartServer(o, c);
    WarmUp(&server, orders, tiers, report);
    setup_s.push_back(SecondsSince(t0));
  }

  rheem::Rng rng(opt.seed * 0xA24BAED4963EE407ull + 3);
  if (!opt.trace) {
    WireSamples wire;
    PhaseResult p;
    RunPhase(&server, &rng, opt.seconds, orders, tiers, &wire, &p, report);
    report->attempted = p.attempted;
    report->failed = p.refused + p.failed;
    const auto n = static_cast<int64_t>(p.latency_ms.size());
    ReportSetup(setup_s, report);
    report->Metric("latency_p50_ms", Median(p.latency_ms), "ms", n);
    report->Note("latency_p99_ms", Quantile(p.latency_ms, 0.99), "ms", n);
    report->Metric("throughput_qps",
                   static_cast<double>(p.completed_in_window) / p.seconds, "1/s",
                   p.completed_in_window);
    report->Metric("rows_per_s", static_cast<double>(p.rows_scanned) / p.seconds,
                   "rows/s", p.completed_in_window);
    report->Metric("peak_rss_mib", PeakRssMib(), "MiB", 1);
    StopServer(&server);
    return;
  }

  // Traced run: alternating untraced and traced blocks, then an in-process
  // replay that times, one by one, the calls the server makes for a SUBMIT.
  Profile prof;
  PhaseResult untraced, p;
  WireSamples plain_wire, traced_wire;
  AlternateBlocks(opt.seconds, &prof, [&](bool traced, double seconds) {
    RunPhase(&server, &rng, seconds, orders, tiers,
             traced ? &traced_wire : &plain_wire, traced ? &p : &untraced, report);
  });
  const int64_t admitted = p.attempted - p.refused;
  auto reconcile = [&](const char* counter, int64_t want) {
    if (prof.Counter(counter) != want) {
      report->Mismatch(std::string("serve_sql reconciliation: ") + counter +
                       " " + std::to_string(prof.Counter(counter)) +
                       " != generator " + std::to_string(want));
    }
  };
  reconcile("net.submits", admitted);
  reconcile("service.jobs_submitted", admitted);
  reconcile("service.jobs_succeeded", p.succeeded);
  reconcile("service.jobs_failed", p.failed);
  reconcile("service.jobs_rejected", p.refused - prof.Counter("net.quota_rejections"));
  reconcile("net.frames.poll", p.polls);
  report->attempted = untraced.attempted + p.attempted;
  report->failed = untraced.refused + untraced.failed + p.refused + p.failed;

  std::vector<double> parse_us, compile_us, fp_us, opt_us, job_us;
  const std::vector<Kind> replay = Mix(200, &rng);
  const auto replay_start = Clock::now();
  for (std::size_t i = 0;
       i < replay.size() && SecondsSince(replay_start) < opt.seconds * 0.1; ++i) {
    const Request r = MakeRequest(replay[i], &rng);
    auto ast = Timed("sql.parse", &parse_us,
                     [&] { return rheem::sql::ParseSelect(r.sql); });
    if (!ast.ok()) Die("parse: " + ast.status().ToString());
    auto stmt = Timed("sql.compile", &compile_us, [&] {
      return rheem::sql::Compile(server.ctx.get(), server.catalog.get(), r.sql);
    });
    if (!stmt.ok()) Die("compile: " + stmt.status().ToString());
    auto fp = Timed("optimizer.fingerprint", &fp_us, [&] {
      return rheem::PlanFingerprint::Compute(stmt->plan());
    });
    if (!fp.ok()) Die("fingerprint: " + fp.status().ToString());
    auto compiled = Timed("optimizer.compile", &opt_us,
                          [&] { return server.ctx->Compile(stmt->plan()); });
    if (!compiled.ok()) Die("optimizer: " + compiled.status().ToString());
    auto result = Timed("service.job", &job_us, [&] {
      auto handle = server.ctx->job_server().SubmitSql(r.sql, *server.catalog);
      if (!handle.ok()) return rheem::Result<rheem::ExecutionResult>(handle.status());
      return handle->Wait();
    });
    if (!result.ok()) Die("replay job: " + result.status().ToString());
    const std::string diff = Check(r, orders, tiers, result->output);
    if (!diff.empty()) report->Mismatch("serve_sql replay: " + diff);
  }

  Layers layers;
  layers.SetMedian("net.submit_us", traced_wire.submit_us);
  layers.SetMedian("net.fetch_us", traced_wire.fetch_us);
  layers.Set("net.polls_per_job",
             Ratio(static_cast<double>(prof.Counter("net.frames.poll")),
                   static_cast<double>(p.succeeded)),
             p.succeeded);
  const int64_t rows_streamed = prof.Counter("net.rows_streamed");
  layers.Set("net.bytes_per_row",
             Ratio(static_cast<double>(prof.Counter("net.bytes_written")),
                   static_cast<double>(rows_streamed)),
             rows_streamed);
  layers.Set("service.queue_wait_p50_us",
             prof.HistogramQuantile("service.queue_wait_us", 0.5), admitted);
  layers.Set("service.queue_wait_p99_us",
             prof.HistogramQuantile("service.queue_wait_us", 0.99), admitted);
  layers.SetMedian("service.job_us", job_us);
  const double plan_hits = static_cast<double>(prof.Counter("service.plan_cache_hits"));
  const double plan_misses = static_cast<double>(prof.Counter("service.plan_cache_misses"));
  layers.Set("service.plan_cache_hit_ratio",
             Ratio(plan_hits, plan_hits + plan_misses), admitted);
  const double result_hits = static_cast<double>(prof.Counter("result_cache.hits"));
  const double result_misses = static_cast<double>(prof.Counter("result_cache.misses"));
  layers.Set("service.result_cache_hit_ratio",
             Ratio(result_hits, result_hits + result_misses),
             static_cast<int64_t>(result_hits + result_misses));
  layers.Set("service.result_cache_mib",
             static_cast<double>(prof.Gauge("result_cache.resident_bytes")) /
                 (1 << 20),
             1);
  layers.Set("service.refused",
             static_cast<double>(prof.Counter("service.jobs_rejected") +
                                 prof.Counter("net.quota_rejections")),
             p.attempted);
  layers.SetMedian("sql.parse_us", parse_us);
  layers.SetMedian("sql.compile_us", compile_us);
  layers.SetMedian("optimizer.fingerprint_us", fp_us);
  layers.SetMedian("optimizer.compile_us", opt_us);
  FillProgramLayers(prof, p.succeeded, /*edges=*/0, &layers);
  // The executor runs inside the server here: its time is the program's
  // own `execute` span.
  layers.SetMedian("executor.execute_us", prof.Durations("executor:execute"));
  layers.Set("gen.late_p99_ms", Quantile(p.late_ms, 0.99),
             static_cast<int64_t>(p.late_ms.size()));
  const double base = Median(untraced.latency_ms);
  layers.Set("trace.overhead_frac", Ratio(Median(p.latency_ms) - base, base),
             static_cast<int64_t>(p.latency_ms.size()));
  layers.ReportTo(report);
  StopServer(&server);
}

}  // namespace perfbench
