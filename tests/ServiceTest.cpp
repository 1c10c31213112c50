//===- ServiceTest.cpp - Service subsystem tests --------------------------===//
///
/// \file
/// Tests for src/service/: the JSON layer (strict parsing of untrusted
/// bytes), the frame codec's negative paths (truncation, oversized
/// lengths), address parsing, the JobQueue scheduling/admission semantics,
/// a multi-client integration pass against a real in-process daemon —
/// concurrent submits, cancels, typed errors, stats and drain, with the
/// invariant that no job is ever lost or double-reported —, and the
/// persistent store a `--cache disk` daemon keeps across a restart.
///
//===----------------------------------------------------------------------===//

#include "cache/CacheConfig.h"
#include "service/Client.h"
#include "service/JobQueue.h"
#include "service/Json.h"
#include "service/Protocol.h"
#include "service/Server.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <set>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

using namespace se2gis;

//===----------------------------------------------------------------------===//
// Json
//===----------------------------------------------------------------------===//

namespace {

JsonValue parseOk(const std::string &Text) {
  JsonValue V;
  std::string Error;
  EXPECT_TRUE(JsonValue::parse(Text, V, Error)) << Text << ": " << Error;
  return V;
}

void parseFails(const std::string &Text) {
  JsonValue V;
  std::string Error;
  EXPECT_FALSE(JsonValue::parse(Text, V, Error)) << Text;
  EXPECT_FALSE(Error.empty());
}

} // namespace

TEST(ServiceJson, RoundTrip) {
  JsonValue V = parseOk(
      R"({"method":"submit","timeout_ms":250,"deep":[1,2.5,null,true,"x"]})");
  EXPECT_EQ(V.getString("method"), "submit");
  EXPECT_EQ(V.getInt("timeout_ms"), 250);
  const JsonValue *Deep = V.get("deep");
  ASSERT_NE(Deep, nullptr);
  ASSERT_EQ(Deep->items().size(), 5u);
  EXPECT_EQ(Deep->items()[0].asInt(), 1);
  EXPECT_DOUBLE_EQ(Deep->items()[1].asDouble(), 2.5);
  EXPECT_TRUE(Deep->items()[2].isNull());
  EXPECT_TRUE(Deep->items()[3].asBool());
  EXPECT_EQ(Deep->items()[4].asString(), "x");
  // dump → parse is the identity on structure.
  JsonValue Again = parseOk(V.dump());
  EXPECT_EQ(Again.dump(), V.dump());
}

TEST(ServiceJson, StringEscapes) {
  JsonValue V = parseOk(R"({"s":"a\"b\\c\ndAé"})");
  EXPECT_EQ(V.getString("s"), "a\"b\\c\nd" "A" "\xc3\xa9");
  // Control characters must be escaped on output.
  JsonValue Out = JsonValue::object();
  Out.set("s", JsonValue::str(std::string("x\n\x01y")));
  EXPECT_EQ(Out.dump(), "{\"s\":\"x\\n\\u0001y\"}");
}

TEST(ServiceJson, SurrogatePairs) {
  // U+1F600 as a surrogate pair must decode to 4-byte UTF-8.
  JsonValue V = parseOk(R"("😀")");
  EXPECT_EQ(V.asString(), "\xf0\x9f\x98\x80");
  parseFails(R"("\ud83d")");        // lone high surrogate
  parseFails(R"("\ude00")");        // lone low surrogate
  parseFails(R"("\ud83dxx")");      // high surrogate w/o continuation
}

TEST(ServiceJson, RejectsMalformed) {
  parseFails("");
  parseFails("{");
  parseFails("{\"a\":}");
  parseFails("[1,]");
  parseFails("{\"a\":1,}");
  parseFails("01");          // leading zero
  parseFails("1 2");         // trailing bytes
  parseFails("nul");
  parseFails("\"unterminated");
  parseFails("{\"a\" 1}");
  // Depth bound: 100 nested arrays exceed the limit.
  parseFails(std::string(100, '[') + std::string(100, ']'));
}

TEST(ServiceJson, RejectsInvalidUtf8) {
  EXPECT_TRUE(isValidUtf8("plain ascii"));
  EXPECT_TRUE(isValidUtf8("\xc3\xa9"));             // é
  EXPECT_FALSE(isValidUtf8("\xc3"));                // truncated sequence
  EXPECT_FALSE(isValidUtf8("\xc0\xaf"));            // overlong
  EXPECT_FALSE(isValidUtf8("\xed\xa0\x80"));        // surrogate range
  EXPECT_FALSE(isValidUtf8("\xff\xfe"));            // not UTF-8 at all
  // A frame carrying invalid UTF-8 inside a string literal must not parse.
  parseFails(std::string("{\"s\":\"\xc3\x28\"}"));
}

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

namespace {

/// A connected local socket pair for codec tests.
struct SocketPair {
  int A = -1, B = -1;
  SocketPair() {
    int Fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
    A = Fds[0];
    B = Fds[1];
  }
  ~SocketPair() {
    closeFd(A);
    closeFd(B);
  }
};

} // namespace

TEST(ServiceFraming, RoundTrip) {
  SocketPair P;
  EXPECT_TRUE(writeFrame(P.A, "{\"ok\":true}"));
  std::string Payload;
  EXPECT_EQ(readFrame(P.B, Payload), FrameStatus::Ok);
  EXPECT_EQ(Payload, "{\"ok\":true}");
}

TEST(ServiceFraming, CleanEofBeforePrefix) {
  SocketPair P;
  closeFd(P.A);
  P.A = -1;
  std::string Payload;
  EXPECT_EQ(readFrame(P.B, Payload), FrameStatus::Eof);
}

TEST(ServiceFraming, TruncatedPrefix) {
  SocketPair P;
  // Two of the four length bytes, then hang up.
  unsigned char Half[2] = {0, 0};
  ASSERT_EQ(::write(P.A, Half, 2), 2);
  closeFd(P.A);
  P.A = -1;
  std::string Payload;
  EXPECT_EQ(readFrame(P.B, Payload), FrameStatus::Truncated);
}

TEST(ServiceFraming, TruncatedBody) {
  SocketPair P;
  // Announce 8 bytes, deliver 3.
  unsigned char Prefix[4] = {0, 0, 0, 8};
  ASSERT_EQ(::write(P.A, Prefix, 4), 4);
  ASSERT_EQ(::write(P.A, "abc", 3), 3);
  closeFd(P.A);
  P.A = -1;
  std::string Payload;
  EXPECT_EQ(readFrame(P.B, Payload), FrameStatus::Truncated);
}

TEST(ServiceFraming, OversizedLengthRejectedWithoutAllocation) {
  SocketPair P;
  // 0xFFFFFFFF bytes announced: must be refused from the prefix alone.
  unsigned char Prefix[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(::write(P.A, Prefix, 4), 4);
  std::string Payload;
  EXPECT_EQ(readFrame(P.B, Payload), FrameStatus::Oversized);
  // writeFrame refuses to emit an over-bound payload too.
  std::string Huge(kMaxFrameBytes + 1, 'x');
  EXPECT_FALSE(writeFrame(P.A, Huge));
}

TEST(ServiceFraming, ErrorResponseShape) {
  JsonValue E = makeErrorResponse(ErrorCode::Overloaded, "queue full");
  EXPECT_FALSE(E.getBool("ok", true));
  const JsonValue *Err = E.get("error");
  ASSERT_NE(Err, nullptr);
  EXPECT_EQ(Err->getString("code"), "overloaded");
  EXPECT_EQ(Err->getString("message"), "queue full");
}

//===----------------------------------------------------------------------===//
// Addresses
//===----------------------------------------------------------------------===//

TEST(ServiceAddrTest, Parsing) {
  ServiceAddr A;
  std::string Error;
  EXPECT_TRUE(parseServiceAddr("unix:/tmp/x.sock", A, Error));
  EXPECT_TRUE(A.IsUnix);
  EXPECT_EQ(A.Path, "/tmp/x.sock");

  EXPECT_TRUE(parseServiceAddr("./relative.sock", A, Error));
  EXPECT_TRUE(A.IsUnix);

  EXPECT_TRUE(parseServiceAddr("tcp:127.0.0.1:8441", A, Error));
  EXPECT_FALSE(A.IsUnix);
  EXPECT_EQ(A.Host, "127.0.0.1");
  EXPECT_EQ(A.Port, 8441);

  EXPECT_TRUE(parseServiceAddr("tcp::0", A, Error));
  EXPECT_EQ(A.Host, "127.0.0.1"); // empty host defaults to loopback
  EXPECT_EQ(A.Port, 0);

  EXPECT_FALSE(parseServiceAddr("tcp:127.0.0.1:notaport", A, Error));
  EXPECT_FALSE(parseServiceAddr("tcp:127.0.0.1:99999", A, Error));
  EXPECT_FALSE(parseServiceAddr("", A, Error));
}

//===----------------------------------------------------------------------===//
// JobQueue
//===----------------------------------------------------------------------===//

namespace {

JobSpec spec(int Priority = 0) {
  JobSpec S;
  S.Label = "test";
  S.Priority = Priority;
  return S;
}

} // namespace

TEST(JobQueueTest, PriorityThenFifo) {
  JobQueue Q(/*MaxQueued=*/16);
  std::string A, B, C, D;
  EXPECT_EQ(Q.submit(spec(0), A), AdmitStatus::Admitted);
  EXPECT_EQ(Q.submit(spec(5), B), AdmitStatus::Admitted);
  EXPECT_EQ(Q.submit(spec(0), C), AdmitStatus::Admitted);
  EXPECT_EQ(Q.submit(spec(5), D), AdmitStatus::Admitted);
  // Highest priority first; FIFO within a level.
  EXPECT_EQ(Q.pop()->Id, B);
  EXPECT_EQ(Q.pop()->Id, D);
  EXPECT_EQ(Q.pop()->Id, A);
  EXPECT_EQ(Q.pop()->Id, C);
}

TEST(JobQueueTest, BoundedAdmission) {
  JobQueue Q(/*MaxQueued=*/2);
  std::string Id;
  EXPECT_EQ(Q.submit(spec(), Id), AdmitStatus::Admitted);
  EXPECT_EQ(Q.submit(spec(), Id), AdmitStatus::Admitted);
  EXPECT_EQ(Q.submit(spec(), Id), AdmitStatus::QueueFull);
  // Popping (job starts running) frees a queue slot: bounded means bounded
  // *backlog*, not bounded throughput.
  ASSERT_NE(Q.pop(), nullptr);
  EXPECT_EQ(Q.submit(spec(), Id), AdmitStatus::Admitted);
}

TEST(JobQueueTest, DrainRefusesNewWork) {
  JobQueue Q(16);
  Q.beginDrain();
  std::string Id;
  EXPECT_EQ(Q.submit(spec(), Id), AdmitStatus::Draining);
  EXPECT_TRUE(Q.stats().Draining);
}

TEST(JobQueueTest, CancelQueuedIsImmediate) {
  JobQueue Q(16);
  std::string A, B;
  EXPECT_EQ(Q.submit(spec(), A), AdmitStatus::Admitted);
  EXPECT_EQ(Q.submit(spec(), B), AdmitStatus::Admitted);
  EXPECT_TRUE(Q.cancel(A));
  auto Snap = Q.query(A);
  ASSERT_NE(Snap, nullptr);
  EXPECT_EQ(Snap->State, JobState::Cancelled);
  // The cancelled job never reaches a worker.
  EXPECT_EQ(Q.pop()->Id, B);
  EXPECT_FALSE(Q.cancel("j999")); // unknown id
}

TEST(JobQueueTest, CancelRunningRidesTheToken) {
  JobQueue Q(16);
  std::string A;
  EXPECT_EQ(Q.submit(spec(), A), AdmitStatus::Admitted);
  std::shared_ptr<Job> J = Q.pop();
  ASSERT_NE(J, nullptr);
  EXPECT_EQ(J->State, JobState::Running);
  EXPECT_TRUE(Q.cancel(A));
  EXPECT_TRUE(J->Token.cancelRequested());
  // Terminalizes when the worker reports in, as Cancelled (not Done).
  Q.complete(J, Outcome{});
  EXPECT_EQ(Q.query(A)->State, JobState::Cancelled);
  QueueStats S = Q.stats();
  EXPECT_EQ(S.Cancelled, 1u);
  EXPECT_EQ(S.Completed, 0u);
  // Cancelling a finished job is a benign no-op.
  EXPECT_TRUE(Q.cancel(A));
  EXPECT_EQ(Q.query(A)->State, JobState::Cancelled);
}

TEST(JobQueueTest, ShutdownReleasesWorkers) {
  JobQueue Q(16);
  std::thread Worker([&] { EXPECT_EQ(Q.pop(), nullptr); });
  Q.shutdown();
  Worker.join();
  std::string Id;
  EXPECT_NE(Q.submit(spec(), Id), AdmitStatus::Admitted);
}

TEST(JobQueueTest, WaitIdleTracksInFlight) {
  JobQueue Q(16);
  EXPECT_TRUE(Q.waitIdle(10)); // empty queue is idle
  std::string A;
  EXPECT_EQ(Q.submit(spec(), A), AdmitStatus::Admitted);
  EXPECT_FALSE(Q.waitIdle(10)); // queued work pending
  std::shared_ptr<Job> J = Q.pop();
  EXPECT_FALSE(Q.waitIdle(10)); // running work pending
  Q.complete(J, Outcome{});
  EXPECT_TRUE(Q.waitIdle(10));
}

//===----------------------------------------------------------------------===//
// Integration: a real daemon, multiple concurrent clients
//===----------------------------------------------------------------------===//

namespace {

/// Starts a Server on an ephemeral loopback port and runs it on a
/// background thread; the destructor drains and joins.
struct DaemonFixture {
  std::unique_ptr<Server> S;
  std::thread Runner;
  std::string Addr;

  explicit DaemonFixture(ServiceConfig Config) {
    Config.Listen = "tcp:127.0.0.1:0";
    S = std::make_unique<Server>(std::move(Config));
    std::string Error;
    if (!S->start(Error)) {
      ADD_FAILURE() << "daemon start failed: " << Error;
      return;
    }
    Addr = S->addr().str();
    Runner = std::thread([this] { S->run(); });
  }

  ~DaemonFixture() {
    if (Runner.joinable()) {
      // Drain (idempotent: tests may already have drained via protocol).
      S->requestDrainAsync();
      Runner.join();
    }
  }

  std::unique_ptr<ServiceClient> client() {
    std::string Error;
    auto C = ServiceClient::connect(Addr, Error);
    EXPECT_NE(C, nullptr) << Error;
    return C;
  }
};

JsonValue submitReq(const char *Source, std::int64_t TimeoutMs,
                    const char *Label) {
  JsonValue Req = JsonValue::object();
  Req.set("method", JsonValue::str("submit"));
  Req.set("source", JsonValue::str(Source));
  Req.set("timeout_ms", JsonValue::number(TimeoutMs));
  Req.set("label", JsonValue::str(Label));
  return Req;
}

/// Polls `status` until \p JobId is terminal; returns the final state.
std::string awaitTerminal(ServiceClient &C, const std::string &JobId) {
  for (int Tries = 0; Tries < 3000; ++Tries) {
    JsonValue Req = JsonValue::object();
    Req.set("method", JsonValue::str("status"));
    Req.set("job", JsonValue::str(JobId));
    JsonValue Resp;
    std::string Error;
    if (!C.call(Req, Resp, Error)) {
      ADD_FAILURE() << "status call failed: " << Error;
      return "";
    }
    std::string State = Resp.getString("state");
    if (State == "done" || State == "cancelled")
      return State;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ADD_FAILURE() << "job " << JobId << " never terminalized";
  return "";
}

} // namespace

TEST(ServiceIntegration, TypedErrorsNeverCloseTheConnection) {
  ServiceConfig Config;
  DaemonFixture D(Config);
  auto C = D.client();
  ASSERT_NE(C, nullptr);

  JsonValue Resp;
  std::string Error;

  // Unknown method → typed error, connection stays usable.
  ASSERT_TRUE(C->call("frobnicate", Resp, Error)) << Error;
  EXPECT_FALSE(Resp.getBool("ok", true));
  EXPECT_EQ(Resp.get("error")->getString("code"), "unknown_method");

  // Bad submit (both benchmark and source missing) → bad_request.
  ASSERT_TRUE(C->call("submit", Resp, Error)) << Error;
  EXPECT_EQ(Resp.get("error")->getString("code"), "bad_request");

  // Unknown benchmark → not_found.
  JsonValue Req = JsonValue::object();
  Req.set("method", JsonValue::str("submit"));
  Req.set("benchmark", JsonValue::str("no/such/benchmark"));
  ASSERT_TRUE(C->call(Req, Resp, Error)) << Error;
  EXPECT_EQ(Resp.get("error")->getString("code"), "not_found");

  // Unknown job id → not_found.
  Req = JsonValue::object();
  Req.set("method", JsonValue::str("status"));
  Req.set("job", JsonValue::str("j999999"));
  ASSERT_TRUE(C->call(Req, Resp, Error)) << Error;
  EXPECT_EQ(Resp.get("error")->getString("code"), "not_found");

  // Malformed source that fails elaboration → bad_request, not a crash.
  ASSERT_TRUE(C->call(submitReq("this is not the DSL", 1000, "bad"), Resp,
                      Error))
      << Error;
  EXPECT_EQ(Resp.get("error")->getString("code"), "bad_request");

  // And the connection still answers pings after all of the above.
  ASSERT_TRUE(C->call("ping", Resp, Error)) << Error;
  EXPECT_TRUE(Resp.getBool("ok"));
}

TEST(ServiceIntegration, RawGarbageGetsTypedParseError) {
  ServiceConfig Config;
  DaemonFixture D(Config);

  ServiceAddr A;
  std::string Error;
  ASSERT_TRUE(parseServiceAddr(D.Addr, A, Error));
  int Fd = connectTo(A, Error);
  ASSERT_GE(Fd, 0) << Error;

  // Valid frame, invalid JSON → parse_error; connection survives.
  ASSERT_TRUE(writeFrame(Fd, "{{{not json"));
  std::string Payload;
  ASSERT_EQ(readFrame(Fd, Payload), FrameStatus::Ok);
  JsonValue Resp;
  ASSERT_TRUE(JsonValue::parse(Payload, Resp, Error)) << Error;
  EXPECT_EQ(Resp.get("error")->getString("code"), "parse_error");

  // Invalid UTF-8 inside the frame → also parse_error.
  ASSERT_TRUE(writeFrame(Fd, std::string("{\"method\":\"\xff\xfe\"}")));
  ASSERT_EQ(readFrame(Fd, Payload), FrameStatus::Ok);
  ASSERT_TRUE(JsonValue::parse(Payload, Resp, Error)) << Error;
  EXPECT_EQ(Resp.get("error")->getString("code"), "parse_error");

  // A non-object value → parse_error too (requests must be objects).
  ASSERT_TRUE(writeFrame(Fd, "[1,2,3]"));
  ASSERT_EQ(readFrame(Fd, Payload), FrameStatus::Ok);
  ASSERT_TRUE(JsonValue::parse(Payload, Resp, Error)) << Error;
  EXPECT_FALSE(Resp.getBool("ok", true));

  // Oversized announced length → typed error, then the daemon hangs up
  // (the stream cannot be resynchronized).
  unsigned char Prefix[4] = {0xff, 0x00, 0x00, 0x00};
  ASSERT_EQ(::write(Fd, Prefix, 4), 4);
  ASSERT_EQ(readFrame(Fd, Payload), FrameStatus::Ok);
  ASSERT_TRUE(JsonValue::parse(Payload, Resp, Error)) << Error;
  EXPECT_EQ(Resp.get("error")->getString("code"), "oversized_frame");
  EXPECT_EQ(readFrame(Fd, Payload), FrameStatus::Eof);
  closeFd(Fd);

  // Half a length prefix then hangup must not wedge the daemon.
  Fd = connectTo(A, Error);
  ASSERT_GE(Fd, 0) << Error;
  unsigned char Half[2] = {0, 0};
  ASSERT_EQ(::write(Fd, Half, 2), 2);
  closeFd(Fd);
  auto C = D.client();
  ASSERT_NE(C, nullptr);
  ASSERT_TRUE(C->call("ping", Resp, Error)) << Error;
  EXPECT_TRUE(Resp.getBool("ok"));
}

TEST(ServiceIntegration, VerdictParityAndSharedCache) {
  ServiceConfig Config;
  Config.Workers = 2;
  Config.Base.Cache.Mode = CacheMode::Mem;
  DaemonFixture D(Config);
  auto C = D.client();
  ASSERT_NE(C, nullptr);

  JsonValue Resp;
  std::string Error;

  // Realizable source → done/realizable.
  ASSERT_TRUE(C->call(submitReq(se2gis_tests::kMinSortedSrc, 20000, "min-s"),
                      Resp, Error))
      << Error;
  ASSERT_TRUE(Resp.getBool("ok")) << Resp.dump();
  std::string RealId = Resp.getString("job");
  ASSERT_FALSE(RealId.empty());

  // Unrealizable source → done/unrealizable.
  ASSERT_TRUE(C->call(submitReq(se2gis_tests::kMinUnsortedSrc, 20000, "min-u"),
                      Resp, Error))
      << Error;
  ASSERT_TRUE(Resp.getBool("ok")) << Resp.dump();
  std::string UnrealId = Resp.getString("job");

  EXPECT_EQ(awaitTerminal(*C, RealId), "done");
  EXPECT_EQ(awaitTerminal(*C, UnrealId), "done");

  JsonValue Req = JsonValue::object();
  Req.set("method", JsonValue::str("result"));
  Req.set("job", JsonValue::str(RealId));
  ASSERT_TRUE(C->call(Req, Resp, Error)) << Error;
  EXPECT_EQ(Resp.getString("verdict"), "realizable");
  EXPECT_FALSE(Resp.getString("solution").empty());

  Req.set("job", JsonValue::str(UnrealId));
  ASSERT_TRUE(C->call(Req, Resp, Error)) << Error;
  EXPECT_EQ(Resp.getString("verdict"), "unrealizable");

  // A repeated submission of the same problem hits the warm shared cache.
  ASSERT_TRUE(C->call(submitReq(se2gis_tests::kMinSortedSrc, 20000, "min-s2"),
                      Resp, Error))
      << Error;
  std::string RepeatId = Resp.getString("job");
  EXPECT_EQ(awaitTerminal(*C, RepeatId), "done");

  ASSERT_TRUE(C->call("stats", Resp, Error)) << Error;
  ASSERT_TRUE(Resp.getBool("ok"));
  const JsonValue *Cache = Resp.get("cache");
  ASSERT_NE(Cache, nullptr);
  EXPECT_GT(Cache->getInt("smt_hits", 0), 0) << Resp.dump();
  EXPECT_EQ(Resp.getInt("completed"), 3);
}

TEST(ServiceIntegration, TimeoutJobReportsTimeoutVerdict) {
  ServiceConfig Config;
  DaemonFixture D(Config);
  auto C = D.client();
  ASSERT_NE(C, nullptr);

  JsonValue Resp;
  std::string Error;
  // A 1 ms budget cannot complete the synthesis: the deadline fires inside
  // the run and surfaces as a verdict, never a hang.
  ASSERT_TRUE(C->call(submitReq(se2gis_tests::kMinSortedSrc, 1, "tmo"), Resp,
                      Error))
      << Error;
  ASSERT_TRUE(Resp.getBool("ok")) << Resp.dump();
  std::string Id = Resp.getString("job");
  EXPECT_EQ(awaitTerminal(*C, Id), "done");

  JsonValue Req = JsonValue::object();
  Req.set("method", JsonValue::str("result"));
  Req.set("job", JsonValue::str(Id));
  ASSERT_TRUE(C->call(Req, Resp, Error)) << Error;
  EXPECT_EQ(Resp.getString("verdict"), "timeout");
}

TEST(ServiceIntegration, AdmissionControlRejectsTyped) {
  ServiceConfig Config;
  Config.Workers = 1;
  Config.MaxQueue = 1;
  DaemonFixture D(Config);
  auto C = D.client();
  ASSERT_NE(C, nullptr);

  JsonValue Resp;
  std::string Error;
  // Flood: one job runs, one sits in the bounded queue, the rest must be
  // refused with a typed `overloaded` — not blocked, not dropped silently.
  int Overloaded = 0;
  std::vector<std::string> Admitted;
  for (int I = 0; I < 8; ++I) {
    ASSERT_TRUE(C->call(
        submitReq(se2gis_tests::kMinSortedSrc, 20000, "flood"), Resp, Error))
        << Error;
    if (Resp.getBool("ok"))
      Admitted.push_back(Resp.getString("job"));
    else {
      EXPECT_EQ(Resp.get("error")->getString("code"), "overloaded");
      ++Overloaded;
    }
  }
  EXPECT_GT(Overloaded, 0);
  ASSERT_TRUE(C->call("stats", Resp, Error)) << Error;
  EXPECT_EQ(Resp.getInt("rejected"), Overloaded);
  for (const std::string &Id : Admitted)
    EXPECT_EQ(awaitTerminal(*C, Id), "done");
}

TEST(ServiceIntegration, CancelQueuedJob) {
  ServiceConfig Config;
  Config.Workers = 1;
  DaemonFixture D(Config);
  auto C = D.client();
  ASSERT_NE(C, nullptr);

  JsonValue Resp;
  std::string Error;
  // First job occupies the single worker; the second is parked in the
  // queue and cancelled there.
  ASSERT_TRUE(C->call(submitReq(se2gis_tests::kMinSortedSrc, 20000, "run"),
                      Resp, Error))
      << Error;
  ASSERT_TRUE(Resp.getBool("ok"));
  std::string Running = Resp.getString("job");
  ASSERT_TRUE(C->call(submitReq(se2gis_tests::kMinSortedSrc, 20000, "park"),
                      Resp, Error))
      << Error;
  ASSERT_TRUE(Resp.getBool("ok"));
  std::string Parked = Resp.getString("job");

  JsonValue Req = JsonValue::object();
  Req.set("method", JsonValue::str("cancel"));
  Req.set("job", JsonValue::str(Parked));
  ASSERT_TRUE(C->call(Req, Resp, Error)) << Error;
  EXPECT_TRUE(Resp.getBool("ok")) << Resp.dump();

  // The running job still finishes; the parked one terminalizes without
  // ever having run (unless the first finished absurdly fast and the
  // parked job had already started — then cancel rode the token instead;
  // either way it must terminalize and nothing may hang).
  EXPECT_EQ(awaitTerminal(*C, Running), "done");
  std::string ParkedState = awaitTerminal(*C, Parked);
  EXPECT_TRUE(ParkedState == "cancelled" || ParkedState == "done")
      << ParkedState;
}

TEST(ServiceIntegration, ManyConcurrentClientsNoJobLost) {
  ServiceConfig Config;
  Config.Workers = 2;
  Config.MaxQueue = 64;
  Config.Base.Cache.Mode = CacheMode::Mem;
  DaemonFixture D(Config);

  // 8 clients, each its own connection and two submissions (one
  // realizable, one unrealizable), all concurrent.
  constexpr int kClients = 8;
  std::vector<std::thread> Threads;
  std::mutex IdsMutex;
  std::vector<std::string> AllIds;
  std::atomic<int> Failures{0};

  for (int T = 0; T < kClients; ++T) {
    Threads.emplace_back([&, T] {
      std::string Error;
      auto C = ServiceClient::connect(D.Addr, Error);
      if (!C) {
        ++Failures;
        return;
      }
      const char *Sources[2] = {se2gis_tests::kMinSortedSrc,
                                se2gis_tests::kMinUnsortedSrc};
      const char *Expect[2] = {"realizable", "unrealizable"};
      for (int K = 0; K < 2; ++K) {
        JsonValue Resp;
        std::string Label = "c" + std::to_string(T) + "-" + std::to_string(K);
        if (!C->call(submitReq(Sources[K], 30000, Label.c_str()), Resp,
                     Error) ||
            !Resp.getBool("ok")) {
          ++Failures;
          continue;
        }
        std::string Id = Resp.getString("job");
        {
          std::lock_guard<std::mutex> Lock(IdsMutex);
          AllIds.push_back(Id);
        }
        if (awaitTerminal(*C, Id) != "done") {
          ++Failures;
          continue;
        }
        JsonValue Req = JsonValue::object();
        Req.set("method", JsonValue::str("result"));
        Req.set("job", JsonValue::str(Id));
        if (!C->call(Req, Resp, Error) ||
            Resp.getString("verdict") != Expect[K])
          ++Failures;
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Failures.load(), 0);
  // No job lost, none double-reported: every id unique, and the stats
  // account for exactly the submissions made.
  std::set<std::string> Unique(AllIds.begin(), AllIds.end());
  EXPECT_EQ(Unique.size(), AllIds.size());
  EXPECT_EQ(AllIds.size(), static_cast<std::size_t>(2 * kClients));

  auto C = D.client();
  ASSERT_NE(C, nullptr);
  JsonValue Resp;
  std::string Error;
  ASSERT_TRUE(C->call("stats", Resp, Error)) << Error;
  EXPECT_EQ(Resp.getInt("submitted"), 2 * kClients);
  EXPECT_EQ(Resp.getInt("completed"), 2 * kClients);
  EXPECT_EQ(Resp.getInt("queue_depth"), 0);
  EXPECT_EQ(Resp.getInt("in_flight"), 0);
}

TEST(ServiceIntegration, GracefulDrainViaProtocol) {
  ServiceConfig Config;
  Config.Workers = 1;
  DaemonFixture D(Config);
  auto C = D.client();
  ASSERT_NE(C, nullptr);

  JsonValue Resp;
  std::string Error;
  ASSERT_TRUE(C->call(submitReq(se2gis_tests::kMinSortedSrc, 20000, "last"),
                      Resp, Error))
      << Error;
  ASSERT_TRUE(Resp.getBool("ok"));

  // Drain: the in-flight job finishes under the drain budget, then the
  // daemon reports and shuts down.
  JsonValue Req = JsonValue::object();
  Req.set("method", JsonValue::str("drain"));
  Req.set("deadline_ms", JsonValue::number(static_cast<std::int64_t>(30000)));
  ASSERT_TRUE(C->call(Req, Resp, Error)) << Error;
  EXPECT_TRUE(Resp.getBool("ok")) << Resp.dump();
  EXPECT_TRUE(Resp.getBool("drained"));
  EXPECT_EQ(Resp.getInt("completed"), 1);

  // The run loop exits; afterwards new connections are refused.
  D.Runner.join();
  auto After = ServiceClient::connect(D.Addr, Error);
  EXPECT_EQ(After, nullptr);
}

TEST(ServiceIntegration, DiskCacheEntriesSurviveRestart) {
  // A --cache disk daemon persists what its jobs learn: `stats` and the
  // exposition count the entries, and a restart on the same directory
  // reloads exactly as many.
  namespace fs = std::filesystem;
  const std::string Dir = (fs::temp_directory_path() /
                           ("se2gis-served-disk-" + std::to_string(::getpid())))
                              .string();
  fs::remove_all(Dir);
  shutdownCache();
  ServiceConfig Config;
  Config.Workers = 1;
  Config.Base.Cache.Mode = CacheMode::Disk;
  Config.Base.Cache.Dir = Dir;

  std::int64_t Entries = 0;
  {
    DaemonFixture D(Config);
    auto C = D.client();
    ASSERT_NE(C, nullptr);
    JsonValue Resp;
    std::string Error;
    ASSERT_TRUE(C->call(submitReq(se2gis_tests::kMinSortedSrc, 20000, "min-s"),
                        Resp, Error))
        << Error;
    ASSERT_TRUE(Resp.getBool("ok")) << Resp.dump();
    EXPECT_EQ(awaitTerminal(*C, Resp.getString("job")), "done");
    ASSERT_TRUE(C->call("stats", Resp, Error)) << Error;
    const JsonValue *Cache = Resp.get("cache");
    ASSERT_NE(Cache, nullptr) << Resp.dump();
    EXPECT_EQ(Cache->getString("mode"), "disk");
    Entries = Cache->getInt("entries", 0);
    EXPECT_GT(Entries, 0) << Resp.dump();
    EXPECT_NE(D.S->renderMetrics().find("\nse2gis_cache_entries " +
                                        std::to_string(Entries) + "\n"),
              std::string::npos);
  } // the fixture drains: the store is fsync'd before the daemon exits

  // Drop the in-memory segments so the restart really reads the directory.
  shutdownCache();
  {
    DaemonFixture D(Config);
    auto C = D.client();
    ASSERT_NE(C, nullptr);
    JsonValue Resp;
    std::string Error;
    ASSERT_TRUE(C->call("stats", Resp, Error)) << Error;
    const JsonValue *Cache = Resp.get("cache");
    ASSERT_NE(Cache, nullptr) << Resp.dump();
    EXPECT_EQ(Cache->getInt("entries", 0), Entries) << Resp.dump();
  }
  shutdownCache();
  fs::remove_all(Dir);
}
