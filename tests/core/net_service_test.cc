// End-to-end and adversarial coverage for the network job service: wire
// codec round trips, a decoder fuzz pass (random truncations and bit flips
// over valid frames must fail cleanly, never crash or over-read — run under
// ASan/TSan in CI), and live loopback sessions exercising auth, tenant
// quotas, paged result streaming, cancellation, deadlines, and the ways a
// malformed client poisons its own connection but never the server.

#include "core/service/net/server.h"

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/rng.h"
#include "core/api/context.h"
#include "core/service/net/client.h"
#include "core/sql/sql.h"
#include "data/serialization.h"

namespace rheem {
namespace net {
namespace {

// --- wire codec round trips -------------------------------------------------

TEST(WireCodecTest, HelloRoundTrip) {
  HelloFrame in;
  in.auth_token = "secret";
  in.tenant = "acme";
  std::string payload;
  in.Encode(&payload);
  auto out = HelloFrame::Decode(payload);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->version, kProtocolVersion);
  EXPECT_EQ(out->auth_token, "secret");
  EXPECT_EQ(out->tenant, "acme");
}

TEST(WireCodecTest, SubmitRoundTrip) {
  SubmitFrame in;
  in.deadline_ms = -7;
  in.use_plan_cache = false;
  in.use_result_cache = true;
  in.text = "SELECT * FROM emp";
  std::string payload;
  in.Encode(&payload);
  auto out = SubmitFrame::Decode(payload);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->kind, SubmitKind::kSql);
  EXPECT_EQ(out->deadline_ms, -7);
  EXPECT_FALSE(out->use_plan_cache);
  EXPECT_TRUE(out->use_result_cache);
  EXPECT_EQ(out->text, "SELECT * FROM emp");
}

TEST(WireCodecTest, SubmitOkCarriesSchema) {
  SubmitOkFrame in;
  in.job_id = 42;
  in.schema = Schema::Of({{"id", ValueType::kInt64},
                          {"name", ValueType::kString},
                          {"score", ValueType::kDouble}});
  std::string payload;
  in.Encode(&payload);
  auto out = SubmitOkFrame::Decode(payload);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->job_id, 42u);
  EXPECT_EQ(out->schema, in.schema);
}

TEST(WireCodecTest, StatusAndPageAndErrorRoundTrip) {
  StatusFrame st;
  st.job_id = 7;
  st.state = 2;
  st.done = true;
  st.code = 0;
  st.rows = 1000;
  st.pages = 3;
  std::string payload;
  st.Encode(&payload);
  auto st2 = StatusFrame::Decode(payload);
  ASSERT_TRUE(st2.ok());
  EXPECT_EQ(st2->rows, 1000u);
  EXPECT_EQ(st2->pages, 3u);
  EXPECT_TRUE(st2->done);

  PageFrame pg;
  pg.job_id = 7;
  pg.page = 2;
  pg.last = true;
  pg.dataset_bytes = Serializer::EncodeDataset(
      Dataset({Record({Value(int64_t{1}), Value("x")})}));
  payload.clear();
  pg.Encode(&payload);
  auto pg2 = PageFrame::Decode(payload, kDefaultMaxFrameBytes);
  ASSERT_TRUE(pg2.ok());
  EXPECT_TRUE(pg2->last);
  EXPECT_EQ(pg2->dataset_bytes, pg.dataset_bytes);

  const Status original = Status::ResourceExhausted("quota");
  ErrorFrame err = ErrorFrame::FromStatus(original);
  payload.clear();
  err.Encode(&payload);
  auto err2 = ErrorFrame::Decode(payload);
  ASSERT_TRUE(err2.ok());
  EXPECT_EQ(err2->ToStatus().code(), original.code());
  EXPECT_EQ(err2->ToStatus().message(), original.message());
}

TEST(WireCodecTest, TrailingBytesAreRejected) {
  JobIdFrame in;
  in.job_id = 9;
  std::string payload;
  in.Encode(&payload);
  payload.push_back('\0');
  EXPECT_FALSE(JobIdFrame::Decode(payload).ok());
}

TEST(WireCodecTest, OversizedStringIsRejectedBeforeAllocating) {
  // A HELLO claiming a ~4 GiB auth token must fail on the ceiling check,
  // not attempt the allocation.
  std::string payload;
  PutU32(kProtocolVersion, &payload);
  PutU32(0xfffffff0u, &payload);  // declared token length
  payload += "abc";
  EXPECT_FALSE(HelloFrame::Decode(payload).ok());
}

TEST(WireCodecTest, FuzzTruncationsAndBitFlipsNeverCrash) {
  Rng rng(20260808);
  std::vector<std::string> corpus;
  {
    std::string p;
    HelloFrame h;
    h.auth_token = "token-token";
    h.tenant = "tenant";
    h.Encode(&p);
    corpus.push_back(p);
    p.clear();
    SubmitFrame s;
    s.text = "SELECT a, b FROM t WHERE a > 10";
    s.deadline_ms = 1234;
    s.Encode(&p);
    corpus.push_back(p);
    p.clear();
    SubmitOkFrame ok;
    ok.job_id = 77;
    ok.schema = Schema::Of({{"a", ValueType::kInt64},
                            {"b", ValueType::kString}});
    ok.Encode(&p);
    corpus.push_back(p);
    p.clear();
    StatusFrame st;
    st.job_id = 77;
    st.done = true;
    st.code = 10;
    st.message = "resource exhausted";
    st.Encode(&p);
    corpus.push_back(p);
    p.clear();
    PageFrame pg;
    pg.job_id = 77;
    pg.page = 1;
    pg.dataset_bytes = Serializer::EncodeDataset(Dataset(
        {Record({Value(1.5), Value("abc")}), Record({Value(2.5), Value("d")})}));
    pg.Encode(&p);
    corpus.push_back(p);
    p.clear();
    FetchFrame f;
    f.job_id = 77;
    f.page = 3;
    f.Encode(&p);
    corpus.push_back(p);
  }

  auto decode_all = [](const std::string& p) {
    // Feed the mutated payload to every decoder; none may crash.
    (void)HelloFrame::Decode(p);
    (void)SubmitFrame::Decode(p);
    (void)JobIdFrame::Decode(p);
    (void)FetchFrame::Decode(p);
    (void)HelloOkFrame::Decode(p);
    (void)SubmitOkFrame::Decode(p);
    (void)StatusFrame::Decode(p);
    (void)PageFrame::Decode(p, kDefaultMaxFrameBytes);
    (void)ErrorFrame::Decode(p);
  };

  for (const std::string& valid : corpus) {
    // Every strict prefix must decode to an error, never crash.
    for (std::size_t len = 0; len < valid.size(); ++len) {
      decode_all(valid.substr(0, len));
    }
    // Random bit flips.
    for (int trial = 0; trial < 200; ++trial) {
      std::string mutated = valid;
      const int flips = 1 + static_cast<int>(rng.NextU64() % 4);
      for (int f = 0; f < flips; ++f) {
        const std::size_t pos = rng.NextU64() % mutated.size();
        mutated[pos] = static_cast<char>(
            mutated[pos] ^ static_cast<char>(1u << (rng.NextU64() % 8)));
      }
      decode_all(mutated);
    }
    // Random garbage of the same length.
    for (int trial = 0; trial < 50; ++trial) {
      std::string garbage(valid.size(), '\0');
      for (char& c : garbage) {
        c = static_cast<char>(rng.NextU64() & 0xff);
      }
      decode_all(garbage);
    }
  }
}

// --- live server fixture ----------------------------------------------------

class NetServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(ctx_.RegisterDefaultPlatforms().ok());
    std::vector<Record> rows;
    for (int64_t i = 0; i < 300; ++i) {
      rows.push_back(Record({Value(i), Value("row-" + std::to_string(i)),
                             Value(static_cast<double>(i) * 0.5)}));
    }
    Dataset emp(std::move(rows), Schema::Of({{"id", ValueType::kInt64},
                                             {"name", ValueType::kString},
                                             {"score", ValueType::kDouble}}));
    ASSERT_TRUE(catalog_.Register("emp", emp).ok());
  }

  void StartServer() {
    server_ = std::make_unique<NetServer>(&ctx_, &catalog_);
    auto port = server_->Start(0);
    ASSERT_TRUE(port.ok()) << port.status().ToString();
    port_ = *port;
    ASSERT_GT(port_, 0);
  }

  void TearDown() override {
    if (server_) server_->Shutdown(/*drain=*/true);
  }

  RheemContext ctx_;
  sql::InMemoryCatalog catalog_;
  std::unique_ptr<NetServer> server_;
  int port_ = 0;
};

TEST_F(NetServiceTest, SubmitPollFetchMatchesDirectExecution) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port_).ok());
  EXPECT_EQ(client.tenant(), "default");

  Schema schema;
  auto job = client.SubmitSql("SELECT id, score FROM emp WHERE id < 10",
                              /*deadline_ms=*/0, &schema);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  EXPECT_EQ(schema, Schema::Of({{"id", ValueType::kInt64},
                                {"score", ValueType::kDouble}}));

  auto over_wire = client.FetchAll(*job);
  ASSERT_TRUE(over_wire.ok()) << over_wire.status().ToString();

  auto stmt = ctx_.Sql("SELECT id, score FROM emp WHERE id < 10", catalog_);
  ASSERT_TRUE(stmt.ok());
  auto direct = stmt->Collect();
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(over_wire->size(), direct->size());
  for (std::size_t i = 0; i < direct->size(); ++i) {
    EXPECT_EQ(over_wire->at(i), direct->at(i)) << "row " << i;
  }
  EXPECT_TRUE(client.Bye().ok());
}

TEST_F(NetServiceTest, LargeResultStreamsAcrossManyBoundedPages) {
  // Tiny pages force SELECT * over 300 rows to span many FETCHes; the
  // server re-encodes one page at a time.
  ctx_.mutable_config().SetInt("service.net.page_bytes", 256);
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port_).ok());

  auto job = client.SubmitSql("SELECT * FROM emp");
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  auto status = client.WaitDone(*job);
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  EXPECT_EQ(status->code, 0) << status->message;
  EXPECT_EQ(status->rows, 300u);
  EXPECT_GT(status->pages, 10u) << "pages should be bounded by page_bytes";

  std::size_t rows_seen = 0;
  bool last = false;
  for (uint64_t page = 0; page < status->pages; ++page) {
    auto chunk = client.FetchPage(*job, page, &last);
    ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
    EXPECT_GT(chunk->size(), 0u);
    rows_seen += chunk->size();
    EXPECT_EQ(last, page + 1 == status->pages);
  }
  EXPECT_EQ(rows_seen, 300u);

  // One page past the end is OutOfRange, and the connection survives it.
  auto beyond = client.FetchPage(*job, status->pages);
  EXPECT_TRUE(beyond.status().IsOutOfRange()) << beyond.status().ToString();
  auto again = client.FetchPage(*job, 0);
  EXPECT_TRUE(again.ok()) << "connection should survive an OutOfRange fetch";
  EXPECT_TRUE(client.Bye().ok());
}

TEST_F(NetServiceTest, AuthTokenGatesSessionsAndResolvesTenant) {
  ctx_.mutable_config().Set("service.net.auth_tokens",
                            "sesame=acme,letmein=globex");
  StartServer();

  Client bad;
  Status st = bad.Connect("127.0.0.1", port_, "wrong-token");
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(bad.connected());

  // Claiming another token's tenant is refused too.
  Client liar;
  EXPECT_FALSE(liar.Connect("127.0.0.1", port_, "sesame", "globex").ok());

  Client good;
  ASSERT_TRUE(good.Connect("127.0.0.1", port_, "sesame").ok());
  EXPECT_EQ(good.tenant(), "acme");
  auto job = good.SubmitSql("SELECT id FROM emp WHERE id = 1");
  ASSERT_TRUE(job.ok());
  auto rows = good.FetchAll(*job);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
  EXPECT_TRUE(good.Bye().ok());

  EXPECT_GE(server_->stats().auth_failures, 2);
}

TEST_F(NetServiceTest, TenantQuotaRejectsWithResourceExhausted) {
  ctx_.mutable_config().SetInt("service.net.tenant_max_active_jobs", 0);
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port_).ok());
  auto job = client.SubmitSql("SELECT * FROM emp");
  EXPECT_TRUE(job.status().IsResourceExhausted()) << job.status().ToString();
  // The refusal was admission-time: nothing was compiled or submitted, and
  // the connection is still usable.
  EXPECT_EQ(server_->stats().submits, 0);
  EXPECT_EQ(server_->stats().quota_rejections, 1);
  auto poll = client.Poll(12345);
  EXPECT_TRUE(poll.status().IsNotFound()) << poll.status().ToString();
  EXPECT_TRUE(client.Bye().ok());
}

TEST_F(NetServiceTest, BadSqlFailsButConnectionSurvives) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port_).ok());
  auto bad = client.SubmitSql("SELEKT * FROM emp");
  EXPECT_TRUE(bad.status().IsInvalidArgument()) << bad.status().ToString();
  auto good = client.SubmitSql("SELECT id FROM emp WHERE id < 3");
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  auto rows = client.FetchAll(*good);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);
  EXPECT_TRUE(client.Bye().ok());
}

TEST_F(NetServiceTest, DeeplyNestedSqlFailsButServerSurvives) {
  // Hostile nesting far past the parser's depth limit, well inside the
  // SUBMIT size limit: the compile fails with a positioned error instead of
  // overflowing the connection thread's stack.
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port_).ok());
  constexpr int kDepth = 100000;
  std::string parens = "SELECT ";
  parens.append(kDepth, '(');
  parens += "id";
  parens.append(kDepth, ')');
  parens += " FROM emp";
  std::string chain = "SELECT id";
  for (int i = 0; i < kDepth; ++i) chain += "+id";
  chain += " FROM emp";
  for (const std::string& query : {parens, chain}) {
    auto bad = client.SubmitSql(query);
    ASSERT_FALSE(bad.ok());
    EXPECT_TRUE(bad.status().IsInvalidArgument()) << bad.status().ToString();
    EXPECT_NE(bad.status().message().find("nested too deeply"),
              std::string::npos)
        << bad.status().ToString();
  }
  // The same connection, and a new one, still serve queries.
  auto good = client.SubmitSql("SELECT id FROM emp WHERE id < 3");
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  auto rows = client.FetchAll(*good);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 3u);
  EXPECT_TRUE(client.Bye().ok());
  Client second;
  ASSERT_TRUE(second.Connect("127.0.0.1", port_).ok());
  auto again = second.SubmitSql("SELECT id FROM emp WHERE id < 2");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  auto more = second.FetchAll(*again);
  ASSERT_TRUE(more.ok()) << more.status().ToString();
  EXPECT_EQ(more->size(), 2u);
  EXPECT_TRUE(second.Bye().ok());
}

TEST_F(NetServiceTest, ExpiredDeadlineResolvesDeadlineExceededOverTheWire) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port_).ok());
  auto job = client.SubmitSql("SELECT * FROM emp", /*deadline_ms=*/-5);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  auto status = client.WaitDone(*job);
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  EXPECT_EQ(status->code,
            static_cast<uint8_t>(StatusCode::kDeadlineExceeded))
      << status->message;
  // Fetching a failed job surfaces its terminal status, not a page.
  auto fetch = client.FetchAll(*job);
  EXPECT_EQ(fetch.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(client.Bye().ok());
}

TEST_F(NetServiceTest, CancelIsAcknowledged) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port_).ok());
  auto job = client.SubmitSql("SELECT * FROM emp");
  ASSERT_TRUE(job.ok());
  EXPECT_TRUE(client.Cancel(*job).ok());
  auto status = client.WaitDone(*job);
  ASSERT_TRUE(status.ok());
  // The job either finished before the cancel landed or was cancelled;
  // both are terminal.
  EXPECT_TRUE(status->done);
  EXPECT_TRUE(client.Cancel(12345).IsNotFound());
  EXPECT_TRUE(client.Bye().ok());
}

TEST_F(NetServiceTest, FrameBeforeHelloPoisonsOnlyThatConnection) {
  StartServer();
  // Speak the wire format by hand: POLL before HELLO.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port_));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  JobIdFrame poll;
  poll.job_id = 1;
  std::string payload;
  poll.Encode(&payload);
  ASSERT_TRUE(WriteFrame(fd, FrameType::kPoll, payload).ok());
  auto reply = ReadFrame(fd);
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->type, FrameType::kError);
  auto err = ErrorFrame::Decode(reply->payload);
  ASSERT_TRUE(err.ok());
  EXPECT_TRUE(err->ToStatus().IsIoError());
  // The server hung up on us...
  auto eof = ReadFrame(fd);
  EXPECT_FALSE(eof.ok());
  ::close(fd);

  // ...but keeps serving everyone else.
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port_).ok());
  auto job = client.SubmitSql("SELECT id FROM emp WHERE id = 0");
  ASSERT_TRUE(job.ok());
  EXPECT_TRUE(client.FetchAll(*job).ok());
  EXPECT_TRUE(client.Bye().ok());
  EXPECT_GE(server_->stats().protocol_errors, 1);
}

TEST_F(NetServiceTest, OversizedFrameHeaderClosesTheConnection) {
  StartServer();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port_));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  // Header declaring a 1 GiB payload: the server must refuse to buffer it
  // and close, long before 1 GiB of anything is allocated.
  unsigned char header[5] = {0x00, 0x00, 0x00, 0x40,
                             static_cast<unsigned char>(FrameType::kHello)};
  ASSERT_EQ(::send(fd, header, sizeof(header), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(header)));
  auto eof = ReadFrame(fd);
  EXPECT_FALSE(eof.ok());
  ::close(fd);
}

TEST_F(NetServiceTest, DrainShutdownRejectsNewSubmitsButFinishesOldJobs) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port_).ok());
  auto job = client.SubmitSql("SELECT * FROM emp WHERE id < 50");
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE(client.WaitDone(*job).ok());

  std::thread shutdown([this]() { server_->Shutdown(/*drain=*/true); });
  shutdown.join();
  server_.reset();

  // New connections are refused once the listener is gone.
  Client late;
  EXPECT_FALSE(late.Connect("127.0.0.1", port_).ok());
}

TEST_F(NetServiceTest, StatsCountTheSessionLifecycle) {
  StartServer();
  {
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", port_).ok());
    auto job = client.SubmitSql("SELECT id FROM emp WHERE id < 5");
    ASSERT_TRUE(job.ok());
    ASSERT_TRUE(client.FetchAll(*job).ok());
    ASSERT_TRUE(client.Bye().ok());
  }
  // BYE is processed before the session unwinds; give teardown a moment.
  for (int i = 0; i < 200 && server_->stats().sessions_closed < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  NetServerStats s = server_->stats();
  EXPECT_EQ(s.sessions_opened, 1);
  EXPECT_EQ(s.sessions_closed, 1);
  EXPECT_EQ(s.sessions_active, 0u);
  EXPECT_EQ(s.submits, 1);
  EXPECT_GE(s.frames_received, 4);  // HELLO, SUBMIT, >=1 POLL/FETCH, BYE
  EXPECT_GE(s.pages_served, 1);
}

}  // namespace
}  // namespace net
}  // namespace rheem
