// Multi-process soak of the network job service: N forked client processes
// (true processes, not threads — each speaks the wire protocol through its
// own socket like a real application would) hammer one NetServer with SQL
// submissions while the parent streams a result much larger than one page
// through bounded FETCHes. Gates:
//
//   1. p99 submit -> first-page latency across every client job;
//   2. peak server RSS (VmHWM), and — sharper — the RSS *growth* while
//      streaming a multi-page result must stay far below the result's
//      total encoded size, proving pages are re-encoded one at a time
//      rather than the whole result being buffered for the wire.
//
// `--smoke` shrinks the workload for CI. Results land in BENCH_soak.json
// (BENCH_soak.smoke.json with --smoke).

#include "bench/bench_common.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "core/service/net/client.h"
#include "core/service/net/server.h"
#include "core/sql/catalog.h"
#include "data/serialization.h"

namespace rheem {
namespace bench {
namespace {

/// Peak resident set of the calling process in KiB (VmHWM), or -1.
int64_t PeakRssKib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  int64_t kib = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtoll(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kib;
}

bool ReadFull(int fd, void* buf, std::size_t n) {
  auto* p = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r <= 0) {
      if (r < 0 && errno == EINTR) continue;
      return false;
    }
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

bool WriteFull(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t r = ::write(fd, p, n);
    if (r <= 0) {
      if (r < 0 && errno == EINTR) continue;
      return false;
    }
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

/// Client process body: submit `jobs` queries, each measured submit ->
/// first result page, and ship the latencies (u32 count, then u64 micros
/// each) up the result pipe. Exits non-zero on any protocol failure.
int RunClient(int index, int port_fd, int result_fd, int jobs, int64_t rows) {
  uint32_t port = 0;
  if (!ReadFull(port_fd, &port, sizeof(port))) return 2;
  ::close(port_fd);

  net::Client client;
  if (Status st = client.Connect("127.0.0.1", static_cast<int>(port));
      !st.ok()) {
    std::fprintf(stderr, "client %d: %s\n", index, st.ToString().c_str());
    return 3;
  }

  std::vector<uint64_t> latencies_us;
  latencies_us.reserve(static_cast<std::size_t>(jobs));
  for (int j = 0; j < jobs; ++j) {
    // Vary the constant so submissions exercise fresh compiles rather than
    // one result-cache entry; cap the per-job result so the storm measures
    // service latency, not bulk transfer.
    const int64_t limit =
        1 + (index * 131 + j * 17) % std::min<int64_t>(rows, 2000);
    const std::string query = "SELECT id, score FROM emp WHERE id < " +
                              std::to_string(limit);
    Stopwatch watch;
    auto job = client.SubmitSql(query);
    if (!job.ok()) {
      std::fprintf(stderr, "client %d submit: %s\n", index,
                   job.status().ToString().c_str());
      return 4;
    }
    auto status = client.WaitDone(*job);
    if (!status.ok() || status->code != 0) {
      std::fprintf(stderr, "client %d job: %s\n", index,
                   status.ok() ? status->message.c_str()
                               : status.status().ToString().c_str());
      return 5;
    }
    auto page = client.FetchPage(*job, 0);
    if (!page.ok()) {
      std::fprintf(stderr, "client %d fetch: %s\n", index,
                   page.status().ToString().c_str());
      return 6;
    }
    latencies_us.push_back(static_cast<uint64_t>(watch.ElapsedMicros()));
  }
  if (!client.Bye().ok()) return 7;

  const uint32_t count = static_cast<uint32_t>(latencies_us.size());
  if (!WriteFull(result_fd, &count, sizeof(count))) return 8;
  for (uint64_t us : latencies_us) {
    if (!WriteFull(result_fd, &us, sizeof(us))) return 8;
  }
  ::close(result_fd);
  return 0;
}

uint64_t Percentile(std::vector<uint64_t> sorted, double p) {
  if (sorted.empty()) return 0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

int Run(int argc, char** argv) {
  bool smoke = false;
  int clients = 6;
  int jobs_per_client = 20;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  if (smoke) {
    clients = 4;
    jobs_per_client = 6;
  }
  const int64_t rows = smoke ? 5000 : 20000;

  // Fork every client before the parent creates the context (and with it
  // any threads): a fork after thread creation would duplicate a process
  // whose locks may be held by threads that do not exist in the child.
  std::vector<pid_t> pids;
  std::vector<int> port_write_fds;
  std::vector<int> result_read_fds;
  for (int c = 0; c < clients; ++c) {
    int port_pipe[2];
    int result_pipe[2];
    if (::pipe(port_pipe) != 0 || ::pipe(result_pipe) != 0) {
      std::fprintf(stderr, "pipe() failed\n");
      return 1;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::fprintf(stderr, "fork() failed\n");
      return 1;
    }
    if (pid == 0) {
      ::close(port_pipe[1]);
      ::close(result_pipe[0]);
      for (int fd : port_write_fds) ::close(fd);
      for (int fd : result_read_fds) ::close(fd);
      ::_exit(RunClient(c, port_pipe[0], result_pipe[1], jobs_per_client,
                        rows));
    }
    ::close(port_pipe[0]);
    ::close(result_pipe[1]);
    pids.push_back(pid);
    port_write_fds.push_back(port_pipe[1]);
    result_read_fds.push_back(result_pipe[0]);
  }

  // --- server side (parent only from here) --------------------------------
  Config config = BenchConfig();
  config.SetInt("service.max_concurrent", 4);
  config.SetInt("service.queue_depth", 256);
  config.SetInt("service.net.page_bytes", 16 * 1024);
  auto ctx = std::make_unique<RheemContext>(config);
  if (Status st = ctx->RegisterDefaultPlatforms(); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  sql::InMemoryCatalog catalog;
  {
    std::vector<Record> records;
    records.reserve(static_cast<std::size_t>(rows));
    for (int64_t i = 0; i < rows; ++i) {
      records.push_back(Record({Value(i), Value("row-" + std::to_string(i)),
                                Value(static_cast<double>(i) * 0.25)}));
    }
    Dataset emp(std::move(records),
                Schema::Of({{"id", ValueType::kInt64},
                            {"name", ValueType::kString},
                            {"score", ValueType::kDouble}}));
    if (Status st = catalog.Register("emp", emp); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }
  net::NetServer server(ctx.get(), &catalog);
  auto port = server.Start(0);
  if (!port.ok()) {
    std::fprintf(stderr, "%s\n", port.status().ToString().c_str());
    return 1;
  }
  const uint32_t port_u32 = static_cast<uint32_t>(*port);
  for (int fd : port_write_fds) {
    if (!WriteFull(fd, &port_u32, sizeof(port_u32))) {
      std::fprintf(stderr, "port handoff failed\n");
      return 1;
    }
    ::close(fd);
  }

  // --- collect the clients -------------------------------------------------
  std::vector<uint64_t> latencies_us;
  for (int fd : result_read_fds) {
    uint32_t count = 0;
    if (ReadFull(fd, &count, sizeof(count))) {
      for (uint32_t i = 0; i < count; ++i) {
        uint64_t us = 0;
        if (!ReadFull(fd, &us, sizeof(us))) break;
        latencies_us.push_back(us);
      }
    }
    ::close(fd);
  }
  bool child_failed = false;
  for (pid_t pid : pids) {
    int wstatus = 0;
    ::waitpid(pid, &wstatus, 0);
    if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) child_failed = true;
  }

  // --- streaming RSS probe (quiescent server) ------------------------------
  // SELECT * over the whole table is far larger than one 16 KiB page; the
  // RSS high-water mark may move while the job materializes, but streaming
  // the pages themselves must not grow it by anywhere near the result's
  // encoded size. Runs after the storm so the delta measures paging, not
  // concurrent job materialization.
  net::Client streamer;
  if (Status st = streamer.Connect("127.0.0.1", *port); !st.ok()) {
    std::fprintf(stderr, "streamer: %s\n", st.ToString().c_str());
    return 1;
  }
  auto stream_job = streamer.SubmitSql("SELECT * FROM emp");
  if (!stream_job.ok()) {
    std::fprintf(stderr, "streamer submit: %s\n",
                 stream_job.status().ToString().c_str());
    return 1;
  }
  auto stream_status = streamer.WaitDone(*stream_job);
  if (!stream_status.ok() || stream_status->code != 0) {
    std::fprintf(stderr, "streamer job failed\n");
    return 1;
  }
  const int64_t rss_before_stream_kib = PeakRssKib();
  std::size_t streamed_rows = 0;
  int64_t streamed_bytes = 0;
  for (uint64_t p = 0; p < stream_status->pages; ++p) {
    auto chunk = streamer.FetchPage(*stream_job, p);
    if (!chunk.ok()) {
      std::fprintf(stderr, "streamer fetch: %s\n",
                   chunk.status().ToString().c_str());
      return 1;
    }
    streamed_rows += chunk->size();
    streamed_bytes += Serializer::EncodedSize(*chunk);
  }
  const int64_t rss_after_stream_kib = PeakRssKib();
  (void)streamer.Bye();
  if (streamed_rows != static_cast<std::size_t>(rows)) {
    std::fprintf(stderr, "streamed %zu rows, want %lld\n", streamed_rows,
                 static_cast<long long>(rows));
    return 1;
  }

  server.Shutdown(/*drain=*/true);

  std::sort(latencies_us.begin(), latencies_us.end());
  const uint64_t p50 = Percentile(latencies_us, 0.50);
  const uint64_t p95 = Percentile(latencies_us, 0.95);
  const uint64_t p99 = Percentile(latencies_us, 0.99);
  const int64_t peak_rss_kib = PeakRssKib();
  const int64_t stream_growth_kib =
      rss_after_stream_kib >= 0 && rss_before_stream_kib >= 0
          ? rss_after_stream_kib - rss_before_stream_kib
          : -1;

  ResultTable table({"metric", "value"});
  table.AddRow({"clients", std::to_string(clients)});
  table.AddRow({"jobs", std::to_string(latencies_us.size())});
  table.AddRow({"p50_ms", Ms(static_cast<double>(p50))});
  table.AddRow({"p95_ms", Ms(static_cast<double>(p95))});
  table.AddRow({"p99_ms", Ms(static_cast<double>(p99))});
  table.AddRow({"stream_pages", std::to_string(stream_status->pages)});
  table.AddRow({"stream_bytes", std::to_string(streamed_bytes)});
  table.AddRow({"stream_rss_growth_kib", std::to_string(stream_growth_kib)});
  table.AddRow({"peak_rss_kib", std::to_string(peak_rss_kib)});
  table.Print();

  JsonResults json("service_soak", "BENCH_soak.json", smoke);
  json.SetNote(
      "N forked client processes against one NetServer over loopback TCP; "
      "latency is submit to first fetched page per job; stream_rss_growth "
      "is the server-process VmHWM delta while FETCHing every page of a "
      "multi-page SELECT * and must stay well below the result's encoded "
      "size (pages are re-encoded one at a time)");
  char row[512];
  std::snprintf(
      row, sizeof(row),
      "{\"smoke\": %s, \"clients\": %d, \"jobs\": %zu, \"rows\": %lld, "
      "\"p50_us\": %llu, \"p95_us\": %llu, \"p99_us\": %llu, "
      "\"stream_pages\": %llu, \"stream_bytes\": %lld, "
      "\"stream_rss_growth_kib\": %lld, \"peak_rss_kib\": %lld}",
      smoke ? "true" : "false", clients, latencies_us.size(),
      static_cast<long long>(rows), static_cast<unsigned long long>(p50),
      static_cast<unsigned long long>(p95),
      static_cast<unsigned long long>(p99),
      static_cast<unsigned long long>(stream_status->pages),
      static_cast<long long>(streamed_bytes),
      static_cast<long long>(stream_growth_kib),
      static_cast<long long>(peak_rss_kib));
  json.Add(row);
  std::printf("\n");
  if (!json.Write()) return 1;

  // --- gates ---------------------------------------------------------------
  bool failed = child_failed;
  if (child_failed) std::fprintf(stderr, "FAIL: a client process failed\n");
  const std::size_t expected_jobs =
      static_cast<std::size_t>(clients) *
      static_cast<std::size_t>(jobs_per_client);
  if (latencies_us.size() != expected_jobs) {
    std::fprintf(stderr, "FAIL: collected %zu latencies, want %zu\n",
                 latencies_us.size(), expected_jobs);
    failed = true;
  }
  const uint64_t p99_gate_us = 2000 * 1000;  // 2s: generous for shared CI
  if (p99 > p99_gate_us) {
    std::fprintf(stderr, "FAIL: p99 submit->first-page = %.1f ms > %.1f ms\n",
                 static_cast<double>(p99) * 1e-3,
                 static_cast<double>(p99_gate_us) * 1e-3);
    failed = true;
  }
  if (stream_status->pages < 2) {
    std::fprintf(stderr, "FAIL: streaming probe produced %llu page(s); "
                         "the result must span multiple pages\n",
                 static_cast<unsigned long long>(stream_status->pages));
    failed = true;
  }
  // Streaming all pages re-encodes one page at a time: allow allocator
  // slack plus a handful of pages, never the whole encoded result.
  const int64_t growth_gate_kib =
      std::max<int64_t>(1024, streamed_bytes / 1024 / 4);
  if (stream_growth_kib < 0 || stream_growth_kib > growth_gate_kib) {
    std::fprintf(stderr,
                 "FAIL: RSS grew %lld KiB while streaming %lld KiB of "
                 "result (gate %lld KiB)\n",
                 static_cast<long long>(stream_growth_kib),
                 static_cast<long long>(streamed_bytes / 1024),
                 static_cast<long long>(growth_gate_kib));
    failed = true;
  }
  const int64_t rss_gate_kib = 768 * 1024;  // 768 MiB for the whole server
  if (peak_rss_kib < 0 || peak_rss_kib > rss_gate_kib) {
    std::fprintf(stderr, "FAIL: peak RSS %lld KiB > %lld KiB\n",
                 static_cast<long long>(peak_rss_kib),
                 static_cast<long long>(rss_gate_kib));
    failed = true;
  }
  if (failed) return 1;
  std::printf("PASS: p99 %.1f ms, stream growth %lld KiB over %llu pages, "
              "peak RSS %lld KiB\n",
              static_cast<double>(p99) * 1e-3,
              static_cast<long long>(stream_growth_kib),
              static_cast<unsigned long long>(stream_status->pages),
              static_cast<long long>(peak_rss_kib));
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace rheem

int main(int argc, char** argv) { return rheem::bench::Run(argc, argv); }
