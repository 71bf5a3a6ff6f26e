// vnet tests: HTTP parser (including property-style malformed-input sweeps),
// the static server in all three modes, the echo guest, the serverless
// platform, and the bursty-load simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "src/base/rng.h"
#include "src/vjs/vjs.h"
#include "src/vnet/http.h"
#include "src/vnet/loadgen.h"
#include "src/vnet/server.h"
#include "src/vcc/vcc.h"
#include "src/vnet/serverless.h"
#include "src/vrt/samples.h"
#include "src/vrt/vlibc.h"
#include "src/wasp/runtime.h"

namespace {

TEST(Http, ParsesRequestLineAndHeaders) {
  auto req = vnet::FrameRequest(
      "GET /index.html HTTP/1.1\r\nHost: tinker\r\nX-Thing:  padded \r\n\r\n");
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req->request.method, "GET");
  EXPECT_EQ(req->request.target, "/index.html");
  EXPECT_EQ(req->request.version, "HTTP/1.1");
  EXPECT_EQ(req->request.Header("host"), "tinker");
  EXPECT_EQ(req->request.Header("X-THING"), "padded");
  EXPECT_EQ(req->request.Header("absent"), "");
}

TEST(Http, ParsesBodyWithContentLength) {
  auto req = vnet::FrameRequest(
      "POST /fn HTTP/1.0\r\nContent-Length: 5\r\n\r\nhello-extra-ignored");
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req->request.body, "hello");
}

TEST(Http, IncompleteRequestsAskForMore) {
  auto r1 = vnet::FrameRequest("GET / HTTP/1.0\r\nHost: x\r\n");
  EXPECT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), vbase::Code::kFailedPrecondition);
  auto r2 = vnet::FrameRequest("POST / HTTP/1.0\r\nContent-Length: 10\r\n\r\nabc");
  EXPECT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), vbase::Code::kFailedPrecondition);
}

TEST(Http, MalformedRequestsAreRejected) {
  for (const char* bad : {
           "GARBAGE\r\n\r\n",
           "GET /\r\n\r\n",                       // missing version
           "GET / FTP/1.0\r\n\r\n",               // bad version
           "GET / HTTP/1.0\r\nNoColonHere\r\n\r\n",
           "POST / HTTP/1.0\r\nContent-Length: 1x\r\n\r\nz",
       }) {
    auto r = vnet::FrameRequest(bad);
    EXPECT_FALSE(r.ok()) << "accepted malformed request: " << bad;
    EXPECT_EQ(r.status().code(), vbase::Code::kInvalidArgument) << bad;
  }
}

TEST(Http, FuzzedInputNeverCrashesParser) {
  vbase::Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    std::string junk;
    const int len = static_cast<int>(rng.Below(200));
    for (int j = 0; j < len; ++j) {
      junk += static_cast<char>(rng.Below(256));
    }
    (void)vnet::FrameRequest(junk);  // must not crash or hang
  }
  SUCCEED();
}

TEST(Http, BuildResponseRoundTrips) {
  const std::string resp = vnet::BuildResponse(200, "body", {{"X-A", "1"}});
  EXPECT_NE(resp.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(resp.find("Content-Length: 4\r\n"), std::string::npos);
  EXPECT_NE(resp.find("X-A: 1\r\n"), std::string::npos);
  EXPECT_EQ(resp.substr(resp.size() - 4), "body");
  EXPECT_EQ(std::string(vnet::ReasonPhrase(404)), "Not Found");
}

// Regression: a reason phrase from an untrusted detail string (a fault
// message) must not be able to split the status line.  An embedded CR/LF
// would otherwise terminate the line and smuggle the remainder in as a
// response header.
TEST(Http, BuildResponseSanitizesReasonPhrase) {
  const std::string resp = vnet::BuildResponseWithReason(
      500, "bad\r\nX-Injected: 1\r\n", "", {});
  EXPECT_EQ(resp.rfind("HTTP/1.1 500 badX-Injected: 1\r\n", 0), 0u) << resp;
  EXPECT_EQ(resp.find("\r\nX-Injected"), std::string::npos) << resp;
  // Other control bytes are stripped too; printable text survives.
  const std::string ctl = vnet::BuildResponseWithReason(500, "a\x01\x7f\tb", "", {});
  EXPECT_EQ(ctl.rfind("HTTP/1.1 500 ab\r\n", 0), 0u) << ctl;
}

// --- Keep-alive framing: pipelined splits and smuggling rejection -------------

TEST(Http, FrameRequestSplitsPipelinedStream) {
  const std::string stream =
      "POST /a HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbodyGET /b HTTP/1.1\r\nHost: "
      "x\r\n\r\n";
  auto first = vnet::FrameRequest(stream);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->request.target, "/a");
  EXPECT_EQ(first->request.body, "body");
  auto second = vnet::FrameRequest(stream.substr(first->consumed));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->request.target, "/b");
  EXPECT_EQ(second->consumed, stream.size() - first->consumed);
}

TEST(Http, RequestBytesNeededCountsHeadPlusBody) {
  const std::string head = "POST /a HTTP/1.0\r\nContent-Length: 10\r\n\r\n";
  auto need = vnet::RequestBytesNeeded(head + "12345");
  ASSERT_TRUE(need.ok());
  EXPECT_EQ(*need, head.size() + 10);
  // Incomplete head: cannot know yet.
  EXPECT_EQ(vnet::RequestBytesNeeded("GET / HT").status().code(),
            vbase::Code::kFailedPrecondition);
}

TEST(Http, SmugglingShapedRequestsAreRejected) {
  for (const char* bad : {
           // Conflicting Content-Length values: two framings of one stream.
           "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\nContent-Length: 5\r\n\r\nbody!",
           // Even equal duplicates are rejected rather than collapsed.
           "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nbody",
           // Transfer-Encoding is unimplemented: accepting it while framing
           // by Content-Length is the TE.CL desync.
           "POST / HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
           // A bare LF line ending inside the head.
           "GET / HTTP/1.1\nHost: x\r\n\r\n",
           // Obsolete header folding.
           "GET / HTTP/1.1\r\nHost: x\r\n folded\r\n\r\n",
           // Signed/overflowing/non-canonical Content-Length.
           "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: +4\r\n\r\nbody",
           "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 99999999999999999999\r\n\r\n",
       }) {
    auto r = vnet::FrameRequest(bad);
    ASSERT_FALSE(r.ok()) << "accepted smuggling-shaped request: " << bad;
    EXPECT_EQ(r.status().code(), vbase::Code::kInvalidArgument) << bad;
  }
  // A bare CR inside the head (not part of CRLF) is likewise rejected; built
  // with string concatenation so the embedded NUL-free CR is explicit.
  std::string bare_cr = "GET / HTTP/1.1\rHost: x\r\n\r\n";
  EXPECT_EQ(vnet::FrameRequest(bare_cr).status().code(), vbase::Code::kInvalidArgument);
}

TEST(Http, WantKeepAliveFollowsVersionAndConnectionHeader) {
  const auto parse = [](const std::string& text) {
    auto req = vnet::FrameRequest(text);
    EXPECT_TRUE(req.ok()) << req.status().ToString();
    return req->request;
  };
  // HTTP/1.1 defaults to persistent; explicit close wins.
  EXPECT_TRUE(vnet::WantKeepAlive(parse("GET / HTTP/1.1\r\nHost: x\r\n\r\n")));
  EXPECT_FALSE(
      vnet::WantKeepAlive(parse("GET / HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")));
  EXPECT_FALSE(vnet::WantKeepAlive(
      parse("GET / HTTP/1.1\r\nHost: x\r\nConnection: keep-alive, CLOSE\r\n\r\n")));
  // HTTP/1.0 defaults to close; explicit keep-alive opts in.
  EXPECT_FALSE(vnet::WantKeepAlive(parse("GET / HTTP/1.0\r\n\r\n")));
  EXPECT_TRUE(
      vnet::WantKeepAlive(parse("GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n")));
}

TEST(Http, FrameResponseHeadReportsLengthAndStatus) {
  const std::string resp = "HTTP/1.1 200 OK\r\nContent-Length: 5\r\nX-A: 1\r\n\r\nhello";
  auto head = vnet::FrameResponseHead(resp);
  ASSERT_TRUE(head.ok()) << head.status().ToString();
  EXPECT_EQ(head->status, 200);
  EXPECT_EQ(head->content_length, 5u);
  EXPECT_EQ(head->head_bytes + head->content_length, resp.size());
  // Incomplete head asks for more; a malformed status line is rejected.
  EXPECT_EQ(vnet::FrameResponseHead("HTTP/1.1 200 OK\r\n").status().code(),
            vbase::Code::kFailedPrecondition);
  EXPECT_EQ(vnet::FrameResponseHead("HTTP/1.1 abc\r\n\r\n").status().code(),
            vbase::Code::kInvalidArgument);
}

// --- Static server in all modes -----------------------------------------------

class ServerModeTest : public ::testing::TestWithParam<vnet::ServeMode> {};

TEST_P(ServerModeTest, ServesFileAnd404) {
  wasp::Runtime runtime;
  wasp::HostEnv files;
  files.PutFile("/f.txt", std::string(100, 'z'));
  vnet::StaticHttpServer server(&runtime, &files);

  {
    wasp::ByteChannel channel;
    channel.host().WriteString("GET /f.txt HTTP/1.0\r\n\r\n");
    auto stats = server.HandleConnection(channel, GetParam());
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->status, 200);
    auto resp = channel.host().Drain();
    const std::string text(resp.begin(), resp.end());
    EXPECT_NE(text.find("200 OK"), std::string::npos);
    EXPECT_NE(text.find("Content-Length: 100"), std::string::npos);
    EXPECT_NE(text.find(std::string(100, 'z')), std::string::npos);
  }
  {
    wasp::ByteChannel channel;
    channel.host().WriteString("GET /nope HTTP/1.0\r\n\r\n");
    auto stats = server.HandleConnection(channel, GetParam());
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->status, 404);
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, ServerModeTest,
                         ::testing::Values(vnet::ServeMode::kNative,
                                           vnet::ServeMode::kVirtine,
                                           vnet::ServeMode::kVirtineSnapshot),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case vnet::ServeMode::kNative: return "native";
                             case vnet::ServeMode::kVirtine: return "virtine";
                             default: return "virtine_snapshot";
                           }
                         });

// --- Robustness: malformed connections must never crash or hang ---------------
// Every case holds in all three modes: the native handler validates via the
// host parser, the virtine handler validates inside the guest (complete
// header block, Host on HTTP/1.1) before touching any file.

TEST_P(ServerModeTest, TruncatedRequestLineGets400) {
  wasp::Runtime runtime;
  wasp::HostEnv files;
  files.PutFile("/f.txt", std::string(100, 'z'));
  vnet::StaticHttpServer server(&runtime, &files);
  wasp::ByteChannel channel;
  channel.host().WriteString("GET /f.t");  // no CRLF, no header block
  // The request loop (correctly) waits for more bytes on an incomplete head;
  // closing the write end is the client giving up mid-request.
  channel.host().CloseWrite();
  auto stats = server.HandleConnection(channel, GetParam());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->status, 400);
  const auto resp = channel.host().Drain();
  EXPECT_EQ(std::string(resp.begin(), resp.end()).rfind("HTTP/1.1 400", 0), 0u);
}

TEST_P(ServerModeTest, EmptyConnectionGets400) {
  wasp::Runtime runtime;
  wasp::HostEnv files;
  vnet::StaticHttpServer server(&runtime, &files);
  for (const bool keep_alive : {false, true}) {
    vnet::ConnectionOptions conn;
    conn.keep_alive = keep_alive;
    wasp::ByteChannel channel;
    channel.host().CloseWrite();  // the client hangs up before sending a byte
    auto stats = server.HandleConnection(channel, GetParam(), conn);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->status, 400) << "keep_alive=" << keep_alive;
    EXPECT_EQ(stats->r4xx, 1u) << "keep_alive=" << keep_alive;
    const auto resp = channel.host().Drain();
    EXPECT_EQ(std::string(resp.begin(), resp.end()).rfind("HTTP/1.1 400", 0), 0u);
  }
}

TEST_P(ServerModeTest, OversizedHeaderGets413) {
  wasp::Runtime runtime;
  wasp::HostEnv files;
  files.PutFile("/f.txt", std::string(100, 'z'));
  vnet::StaticHttpServer server(&runtime, &files);
  wasp::ByteChannel channel;
  // The header block exceeds the 2 KB head window, so its terminator is
  // never seen inside the cap: every mode sheds it with 413, not a
  // half-parse (and not an unbounded buffer).
  channel.host().WriteString("GET /f.txt HTTP/1.0\r\nX-Big: " + std::string(4000, 'a') +
                             "\r\n\r\n");
  auto stats = server.HandleConnection(channel, GetParam());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->status, 413);
}

TEST_P(ServerModeTest, MissingHostOnHttp11Gets400) {
  wasp::Runtime runtime;
  wasp::HostEnv files;
  files.PutFile("/f.txt", std::string(100, 'z'));
  vnet::StaticHttpServer server(&runtime, &files);
  {
    wasp::ByteChannel channel;
    channel.host().WriteString("GET /f.txt HTTP/1.1\r\n\r\n");
    auto stats = server.HandleConnection(channel, GetParam());
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->status, 400);
  }
  {
    // With a Host header the same HTTP/1.1 request serves normally.
    wasp::ByteChannel channel;
    channel.host().WriteString("GET /f.txt HTTP/1.1\r\nHost: tinker\r\n\r\n");
    auto stats = server.HandleConnection(channel, GetParam());
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->status, 200);
  }
  // Parity regressions: the guest scanner and the host parser must answer
  // the same bytes with the same status in every mode.
  for (const char* present : {
           "GET /f.txt HTTP/1.1\r\nHost:\r\n\r\n",          // empty value counts as present
           "GET /f.txt HTTP/1.1\r\nHost : tinker\r\n\r\n",  // obsolete space before colon
       }) {
    wasp::ByteChannel channel;
    channel.host().WriteString(present);
    auto stats = server.HandleConnection(channel, GetParam());
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->status, 200) << present;
  }
  {
    // "HTTP/1.1" inside the path must not make an HTTP/1.0 request 1.1:
    // the version check anchors to the end of the request line.
    wasp::ByteChannel channel;
    channel.host().WriteString("GET /HTTP/1.1 HTTP/1.0\r\n\r\n");
    auto stats = server.HandleConnection(channel, GetParam());
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->status, 404);  // no such file — not a Host-less 400
  }
  {
    // A Host token in the *body* must not satisfy the header requirement:
    // the guest scan is bounded to the header block, like the host parser.
    wasp::ByteChannel channel;
    channel.host().WriteString("GET /f.txt HTTP/1.1\r\n\r\nHost: smuggled");
    auto stats = server.HandleConnection(channel, GetParam());
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->status, 400);
  }
  // Trailing whitespace after the version tokenizes away on both sides:
  // still HTTP/1.1, still Host-less, still 400 in every mode.
  for (const char* trailing : {"GET /f.txt HTTP/1.1 \r\n\r\n", "GET /f.txt HTTP/1.1\t\r\n\r\n"}) {
    wasp::ByteChannel channel;
    channel.host().WriteString(trailing);
    auto stats = server.HandleConnection(channel, GetParam());
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->status, 400) << trailing;
  }
}

TEST_P(ServerModeTest, StructurallyMalformedHeadGets400InEveryMode) {
  // Structural rules the guest validator shares with the host parser: an
  // HTTP/ version token on the request line and a colon in every header
  // line.  All modes must answer these with the same 400.
  wasp::Runtime runtime;
  wasp::HostEnv files;
  files.PutFile("/f.txt", std::string(100, 'z'));
  vnet::StaticHttpServer server(&runtime, &files);
  for (const char* bad : {
           "GET /f.txt XTTP/1.0\r\n\r\n",              // not an HTTP/ version
           "GARBAGE\r\n\r\n",                          // no version token at all
           "GET /f.txt HTTP/1.0\r\nNoColonHere\r\n\r\n",  // header without colon
           "GET /a b HTTP/1.1\r\nHost: x\r\n\r\n",  // 4 tokens: version is 'b'
       }) {
    wasp::ByteChannel channel;
    channel.host().WriteString(bad);
    auto stats = server.HandleConnection(channel, GetParam());
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->status, 400) << bad;
  }
}

TEST_P(ServerModeTest, PipelinedGarbageAfterRequestIsServedCleanly) {
  wasp::Runtime runtime;
  wasp::HostEnv files;
  files.PutFile("/f.txt", std::string(100, 'z'));
  vnet::StaticHttpServer server(&runtime, &files);
  wasp::ByteChannel channel;
  // A valid request followed by pipelined garbage: the one-request-per-
  // connection server serves the valid head and ignores the tail — exactly
  // one well-formed response, no crash, no hang.
  channel.host().WriteString(std::string("GET /f.txt HTTP/1.0\r\n\r\n") + "\x01\x02\x7f" +
                             "GARBAGE\r\nmore\r\n\r\n");
  auto stats = server.HandleConnection(channel, GetParam());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->status, 200);
  const auto resp = channel.host().Drain();
  const std::string text(resp.begin(), resp.end());
  EXPECT_EQ(text.rfind("HTTP/1.1 200", 0), 0u);
  EXPECT_NE(text.find(std::string(100, 'z')), std::string::npos);
}

// --- Keep-alive connections: one acquired shell serves many requests ----------

TEST_P(ServerModeTest, KeepAliveServesManyRequestsOnOneConnection) {
  wasp::Runtime runtime;
  wasp::HostEnv files;
  files.PutFile("/f.txt", std::string(64, 'z'));
  vnet::StaticHttpServer server(&runtime, &files);
  vnet::ConnectionOptions conn;
  conn.keep_alive = true;
  wasp::ByteChannel channel;
  for (int i = 0; i < 3; ++i) {
    channel.host().WriteString("GET /f.txt HTTP/1.1\r\nHost: x\r\n\r\n");
  }
  channel.host().CloseWrite();  // client hangs up after the third request
  auto stats = server.HandleConnection(channel, GetParam(), conn);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->requests, 3u);
  EXPECT_EQ(stats->r2xx, 3u);
  const auto resp = channel.host().Drain();
  const std::string text(resp.begin(), resp.end());
  size_t count = 0;
  for (size_t pos = text.find("HTTP/1.1 200"); pos != std::string::npos;
       pos = text.find("HTTP/1.1 200", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 3u);
}

TEST_P(ServerModeTest, KeepAliveHonorsConnectionClose) {
  wasp::Runtime runtime;
  wasp::HostEnv files;
  files.PutFile("/f.txt", std::string(64, 'z'));
  vnet::StaticHttpServer server(&runtime, &files);
  vnet::ConnectionOptions conn;
  conn.keep_alive = true;
  wasp::ByteChannel channel;
  // Second request says close: the third pipelined request must not be served.
  channel.host().WriteString("GET /f.txt HTTP/1.1\r\nHost: x\r\n\r\n");
  channel.host().WriteString(
      "GET /f.txt HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
  channel.host().WriteString("GET /f.txt HTTP/1.1\r\nHost: x\r\n\r\n");
  auto stats = server.HandleConnection(channel, GetParam(), conn);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->requests, 2u);
  EXPECT_EQ(stats->r2xx, 2u);
}

TEST_P(ServerModeTest, KeepAliveStreamsContentLengthBodies) {
  wasp::Runtime runtime;
  wasp::HostEnv files;
  files.PutFile("/f.txt", std::string(64, 'z'));
  vnet::StaticHttpServer server(&runtime, &files);
  vnet::ConnectionOptions conn;
  conn.keep_alive = true;
  wasp::ByteChannel channel;
  // A body larger than any single read window, pipelined ahead of a second
  // request: the server must stream-drain exactly Content-Length bytes and
  // then frame the next request at the right boundary.
  const std::string body(5000, 'b');
  channel.host().WriteString("POST /f.txt HTTP/1.1\r\nHost: x\r\nContent-Length: " +
                             std::to_string(body.size()) + "\r\n\r\n" + body);
  channel.host().WriteString("GET /f.txt HTTP/1.0\r\n\r\n");  // 1.0: closes after
  auto stats = server.HandleConnection(channel, GetParam(), conn);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->requests, 2u);
  EXPECT_EQ(stats->r2xx, 2u);
}

TEST_P(ServerModeTest, KeepAliveHttp10DefaultsToClose) {
  wasp::Runtime runtime;
  wasp::HostEnv files;
  files.PutFile("/f.txt", std::string(64, 'z'));
  vnet::StaticHttpServer server(&runtime, &files);
  vnet::ConnectionOptions conn;
  conn.keep_alive = true;
  wasp::ByteChannel channel;
  channel.host().WriteString("GET /f.txt HTTP/1.0\r\n\r\n");
  channel.host().WriteString("GET /f.txt HTTP/1.0\r\n\r\n");  // never reached
  auto stats = server.HandleConnection(channel, GetParam(), conn);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->requests, 1u);
}

TEST(Server, KeepAliveNativeEnforcesMaxRequests) {
  wasp::Runtime runtime;
  wasp::HostEnv files;
  files.PutFile("/f.txt", std::string(8, 'z'));
  vnet::StaticHttpServer server(&runtime, &files);
  vnet::ConnectionOptions conn;
  conn.keep_alive = true;
  conn.max_requests = 2;
  wasp::ByteChannel channel;
  for (int i = 0; i < 4; ++i) {
    channel.host().WriteString("GET /f.txt HTTP/1.1\r\nHost: x\r\n\r\n");
  }
  auto stats = server.HandleConnection(channel, vnet::ServeMode::kNative, conn);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->requests, 2u);
}

TEST(Server, VirtineHandlerUsesExactlySevenHypercalls) {
  wasp::Runtime runtime;
  wasp::HostEnv files;
  files.PutFile("/x", std::string("content"));
  vnet::StaticHttpServer server(&runtime, &files);
  wasp::ByteChannel channel;
  channel.host().WriteString("GET /x HTTP/1.0\r\n\r\n");
  auto stats = server.HandleConnection(channel, vnet::ServeMode::kVirtine);
  ASSERT_TRUE(stats.ok());
  // Section 6.3: recv, stat, open, read, send, close, exit.
  EXPECT_EQ(stats->io_exits, 7u);
}

// The one guest program serves single-shot and keep-alive connections: a
// one-request connection costs the paper's seven hypercalls either way,
// also when a warm snapshot restore replays the capturing run's state.
TEST(Server, OneRequestConnectionCostsSevenHypercallsInEveryVirtineMode) {
  wasp::Runtime runtime;
  wasp::HostEnv files;
  files.PutFile("/index.html", std::string(512, 'k'));
  vnet::StaticHttpServer server(&runtime, &files);
  const std::string request =
      "GET /index.html HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
  const size_t response_bytes =
      std::string("HTTP/1.1 200 OK\r\nContent-Length: 512\r\n\r\n").size() + 512;
  {
    // The first snapshot-mode connection also takes the snapshot exit.
    wasp::ByteChannel channel;
    channel.host().WriteString(request);
    ASSERT_TRUE(server.HandleConnection(channel, vnet::ServeMode::kVirtineSnapshot).ok());
  }
  for (const vnet::ServeMode mode :
       {vnet::ServeMode::kVirtine, vnet::ServeMode::kVirtineSnapshot}) {
    for (const bool keep_alive : {false, true}) {
      vnet::ConnectionOptions conn;
      conn.keep_alive = keep_alive;
      wasp::ByteChannel channel;
      channel.host().WriteString(request);
      auto stats = server.HandleConnection(channel, mode, conn);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      const std::string label =
          std::string(vnet::ServeModeName(mode)) + (keep_alive ? ", keep-alive" : ", single-shot");
      EXPECT_EQ(stats->status, 200) << label;
      EXPECT_EQ(stats->requests, 1u) << label;
      EXPECT_EQ(channel.host().Drain().size(), response_bytes) << label;
      // recv, stat, open, read, send (head and body), close, exit.
      EXPECT_EQ(stats->io_exits, 7u) << label;
    }
  }
}

TEST(Server, KeepAliveVirtineEnforcesMaxRequests) {
  wasp::Runtime runtime;
  wasp::HostEnv files;
  files.PutFile("/f.txt", std::string(8, 'z'));
  vnet::StaticHttpServer server(&runtime, &files);
  vnet::ConnectionOptions conn;
  conn.keep_alive = true;
  conn.max_requests = 2;
  for (const vnet::ServeMode mode :
       {vnet::ServeMode::kVirtine, vnet::ServeMode::kVirtineSnapshot}) {
    wasp::ByteChannel channel;
    for (int i = 0; i < 4; ++i) {
      channel.host().WriteString("GET /f.txt HTTP/1.1\r\nHost: x\r\n\r\n");
    }
    channel.host().CloseWrite();  // a handler that ignores the cap serves all 4
    auto stats = server.HandleConnection(channel, mode, conn);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->requests, 2u) << vnet::ServeModeName(mode);
    EXPECT_EQ(stats->r2xx, 2u) << vnet::ServeModeName(mode);
  }
}

TEST_P(ServerModeTest, SingleShotServesOnceWithTheWriteEndOpen) {
  wasp::Runtime runtime;
  wasp::HostEnv files;
  files.PutFile("/f.txt", std::string(8, 'z'));
  vnet::StaticHttpServer server(&runtime, &files);
  wasp::ByteChannel channel;
  // HTTP/1.1 defaults to keep-alive, but the connection is single-shot: the
  // handler must return after one request instead of waiting for more.
  channel.host().WriteString("GET /f.txt HTTP/1.1\r\nHost: x\r\n\r\n");
  channel.host().WriteString("GET /f.txt HTTP/1.1\r\nHost: x\r\n\r\n");
  auto stats = server.HandleConnection(channel, GetParam());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->requests, 1u);
  EXPECT_EQ(stats->status, 200);
}

TEST_P(ServerModeTest, StatusReportsTheLastRequest) {
  wasp::Runtime runtime;
  wasp::HostEnv files;
  files.PutFile("/f.txt", std::string(8, 'z'));
  vnet::StaticHttpServer server(&runtime, &files);
  struct Case {
    bool keep_alive;
    std::vector<const char*> targets;
    int status;
  };
  const Case cases[] = {
      {false, {"/nope"}, 404},
      {true, {"/nope"}, 404},
      {true, {"/f.txt", "/nope"}, 404},
      {true, {"/nope", "/f.txt"}, 200},
  };
  for (const Case& c : cases) {
    vnet::ConnectionOptions conn;
    conn.keep_alive = c.keep_alive;
    wasp::ByteChannel channel;
    for (const char* target : c.targets) {
      channel.host().WriteString(std::string("GET ") + target + " HTTP/1.1\r\nHost: x\r\n\r\n");
    }
    channel.host().CloseWrite();
    auto stats = server.HandleConnection(channel, GetParam(), conn);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    const std::string label = std::string(c.targets.back()) + " last of " +
                              std::to_string(c.targets.size()) +
                              (c.keep_alive ? ", keep-alive" : ", single-shot");
    EXPECT_EQ(stats->status, c.status) << label;
    EXPECT_EQ(stats->requests, c.targets.size()) << label;
    EXPECT_EQ(stats->r2xx + stats->r4xx, c.targets.size()) << label;
    EXPECT_EQ(stats->r5xx, 0u) << label;
  }
}

// A file read that fails after the stat (the file changed under it) is a
// server error: the guest answers 500, counts it as 5xx, ends the
// connection and exits with the 500 verdict.
TEST(Server, FailedFileReadCountsAsServerError) {
  wasp::Runtime runtime;
  wasp::HostEnv files;
  files.PutFile("/f.txt", std::string(8, 'z'));
  vnet::StaticHttpServer server(&runtime, &files);
  wasp::ByteChannel channel;
  channel.host().WriteString("GET /f.txt HTTP/1.1\r\nHost: x\r\n\r\n");
  channel.host().WriteString("GET /f.txt HTTP/1.1\r\nHost: x\r\n\r\n");  // never served
  channel.host().CloseWrite();
  wasp::VirtineSpec spec;
  spec.image = &server.keepalive_image();
  spec.policy = wasp::kPolicyStream | wasp::kPolicyFileIo;
  spec.env = &files;
  spec.channel = &channel.guest();
  spec.handlers[wasp::kHcRead] = [](wasp::HypercallFrame&) -> vbase::Result<int64_t> {
    return -1;
  };
  const wasp::RunOutcome outcome = runtime.Invoke(spec);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.exit_code, 4u);
  EXPECT_EQ(outcome.result_word, 1ULL << 42);  // one 5xx, no 2xx or 4xx
  const auto resp = channel.host().Drain();
  EXPECT_EQ(std::string(resp.begin(), resp.end()),
            vnet::BuildResponseWithReason(500, "Internal Server Error", ""));
}

// The guest consumes pipelined requests in place: its per-request cost must
// not grow with the bytes still buffered behind the request.
TEST(Server, PipelinedRequestsCostTheSameGuestInstructionsEach) {
  wasp::Runtime runtime;
  wasp::HostEnv files;
  files.PutFile("/index.html", std::string(512, 'k'));
  vnet::StaticHttpServer server(&runtime, &files);
  const std::string request = "GET /index.html HTTP/1.1\r\nHost: pb\r\n\r\n";
  const auto insns_per_request = [&](int pipelined) {
    wasp::VirtineSpec spec;
    spec.image = &server.keepalive_image();
    spec.key = "pipelined-" + std::to_string(pipelined);
    spec.policy = wasp::kPolicyStream | wasp::kPolicyFileIo;
    spec.use_snapshot = true;
    spec.env = &files;
    double per_request = 0;
    for (int round = 0; round < 2; ++round) {  // cold capture, then warm restore
      wasp::ByteChannel channel;
      for (int i = 0; i < pipelined; ++i) {
        channel.host().WriteString(request);
      }
      channel.host().CloseWrite();
      spec.channel = &channel.guest();
      const wasp::RunOutcome outcome = runtime.Invoke(spec);
      EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
      EXPECT_EQ(outcome.result_word, static_cast<uint64_t>(pipelined));  // all 200
      per_request = static_cast<double>(outcome.stats.insns) / pipelined;
    }
    return per_request;
  };
  const double at8 = insns_per_request(8);
  const double at64 = insns_per_request(64);
  EXPECT_LE(at64, 1.25 * at8) << "8 pipelined: " << at8 << " insns/request, 64: " << at64;
}

TEST(Loadgen, ClosedLoopCollectsAllLatencies) {
  std::atomic<int> calls{0};
  auto result = vnet::RunClosedLoop(4, 25, [&]() -> double {
    calls.fetch_add(1);
    return 10.0;
  });
  EXPECT_EQ(calls.load(), 100);
  EXPECT_EQ(result.latencies_us.size(), 100u);
  EXPECT_EQ(result.failures, 0u);
  EXPECT_NEAR(result.harmonic_mean_rps, 1e5, 1.0);
}

TEST(Loadgen, FailuresAreCounted) {
  auto result = vnet::RunClosedLoop(2, 10, []() -> double { return -1.0; });
  EXPECT_EQ(result.failures, 20u);
  EXPECT_TRUE(result.latencies_us.empty());
}

// --- Serverless (Vespid + simulator) --------------------------------------------

TEST(Vespid, RegistersAndInvokesBase64) {
  wasp::Runtime runtime;
  vnet::Vespid platform(&runtime);
  ASSERT_TRUE(platform.Register("b64", vjs::Base64ScriptSource()).ok());
  const std::vector<uint8_t> payload = {'a', 'b', 'c', 'd'};
  auto first = platform.Invoke("b64", payload);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(first->cold);
  EXPECT_EQ(std::string(first->output.begin(), first->output.end()),
            vjs::HostBase64(payload));
  auto second = platform.Invoke("b64", payload);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->cold);
  EXPECT_LT(second->modeled_cycles, first->modeled_cycles);
}

TEST(Vespid, UnknownFunctionIsAnError) {
  wasp::Runtime runtime;
  vnet::Vespid platform(&runtime);
  EXPECT_FALSE(platform.Invoke("missing", {}).ok());
}

TEST(Vespid, BadScriptFailsRegistration) {
  wasp::Runtime runtime;
  vnet::Vespid platform(&runtime);
  EXPECT_FALSE(platform.Register("bad", "var = while").ok());
}

TEST(BurstSim, ColdStartsSpikeOnBurstsForSlowColdExecutors) {
  const std::vector<vnet::LoadPhase> pattern = {{5, 2}, {100, 2}, {5, 2}};
  vnet::ExecutorModel slow{"containers", 20000.0, 400000.0, 16, 1.0};
  vnet::ExecutorModel fast{"virtines", 2000.0, 200.0, 64, 600.0};
  const auto slow_result = vnet::SimulateBurstyLoad(pattern, slow);
  const auto fast_result = vnet::SimulateBurstyLoad(pattern, fast);
  EXPECT_EQ(slow_result.total_requests, fast_result.total_requests);
  EXPECT_GT(slow_result.total_cold_starts, 1u);
  EXPECT_GT(slow_result.latency_us.p99, 10.0 * fast_result.latency_us.p99);
}

TEST(BurstSim, DeterministicForSeed) {
  const std::vector<vnet::LoadPhase> pattern = {{10, 1}, {50, 1}};
  vnet::ExecutorModel model{"m", 1000.0, 10000.0, 8, 2.0};
  const auto a = vnet::SimulateBurstyLoad(pattern, model, 5);
  const auto b = vnet::SimulateBurstyLoad(pattern, model, 5);
  EXPECT_EQ(a.latency_us.mean, b.latency_us.mean);
  EXPECT_EQ(a.total_cold_starts, b.total_cold_starts);
}

TEST(Loadgen, ArrivalTraceIsDeterministicAndPhaseShaped) {
  const std::vector<vnet::LoadPhase> phases = {{10, 1}, {50, 1}};
  const auto a = vnet::GenerateArrivalTrace(phases, 5);
  const auto b = vnet::GenerateArrivalTrace(phases, 5);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 60u);  // 10 + 50 arrivals
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  const auto c = vnet::GenerateArrivalTrace(phases, 6);
  EXPECT_NE(a, c);  // jitter depends on the seed
}

TEST(Loadgen, VirtualClosedLoopScalesWithLanes) {
  // 8 clients, constant 100 us service: 1 lane queues 8 deep, 8 lanes don't.
  const std::vector<double> services(64, 100.0);
  const auto one = vnet::ClosedLoopVirtualTime(8, 1, services);
  const auto eight = vnet::ClosedLoopVirtualTime(8, 8, services);
  EXPECT_EQ(one.latencies_us.size(), services.size());
  EXPECT_EQ(eight.latencies_us.size(), services.size());
  EXPECT_NEAR(eight.latency.mean, 100.0, 1.0);
  // Steady state queues 8 deep (800 us); the first round ramps 100..800, so
  // the mean sits just under the steady-state plateau.
  EXPECT_NEAR(one.latency.p99, 800.0, 1.0);
  EXPECT_GT(one.latency.mean, 700.0);
  EXPECT_LE(one.latency.mean, 800.0);
  EXPECT_GT(eight.harmonic_mean_rps, 7.0 * one.harmonic_mean_rps);
  // Negative services count as failures and take no lane time.
  const auto failed = vnet::ClosedLoopVirtualTime(2, 2, {100.0, -1.0, 100.0});
  EXPECT_EQ(failed.failures, 1u);
  EXPECT_EQ(failed.latencies_us.size(), 2u);
}

// --- Differential: executor replay vs the analytic simulator -----------------

// On a small trace with one serving lane, ReplayBurstyLoad (real executor
// invocations) and SimulateBurstyLoad (analytic model calibrated to the
// replay's own measured service times) must agree exactly on the request
// count and the cold-start count, and bucket for bucket on completions.
//
// Tolerance note: the two sides price requests in different currencies —
// the replay uses each real invocation's measured modeled cycles (which
// vary by a few percent across requests), the model a single constant warm
// cost — so a request completing within ~a service time of a bucket
// boundary can land one bucket apart.  With services (~2-5 ms) four orders
// of magnitude below the 1 s buckets this affects at most edge requests;
// per-bucket completions get a +/-2 band while the totals must be exact.
TEST(BurstReplay, MatchesCalibratedSimulatorOnSmallTrace) {
  wasp::Runtime runtime;
  vnet::Vespid platform(&runtime);
  ASSERT_TRUE(platform.Register("b64", vjs::Base64ScriptSource()).ok());
  const std::vector<uint8_t> payload = {'d', 'i', 'f', 'f'};
  const std::vector<vnet::LoadPhase> trace = {{8, 1}, {25, 1}};
  constexpr uint64_t kSeed = 7;

  vnet::ReplayOptions options;
  options.concurrency = 1;  // one lane <=> one model instance
  options.seed = kSeed;
  auto replay = platform.ReplayBurstyLoad("b64", trace, payload, options);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_GT(replay->measured_warm_us, 0.0);

  // Calibrate the model from the replay's own measurements; a single
  // instance that never idles out spawns exactly once, like the replay's
  // single cold first touch.
  vnet::ExecutorModel model{"calibrated", replay->measured_warm_us,
                            std::max(0.0, replay->measured_cold_us - replay->measured_warm_us),
                            1, 600.0};
  const vnet::SimResult sim = vnet::SimulateBurstyLoad(trace, model, kSeed);

  EXPECT_EQ(replay->sim.total_requests, sim.total_requests);
  EXPECT_EQ(replay->sim.total_requests, 33u);  // 8 + 25 arrivals, shared trace
  EXPECT_EQ(replay->sim.total_cold_starts, sim.total_cold_starts);
  EXPECT_EQ(replay->sim.total_cold_starts, 1u);

  // Bucket completion totals: exact in aggregate, +/-2 per bucket.
  std::map<int64_t, double> replay_completed;
  std::map<int64_t, double> sim_completed;
  double replay_total = 0;
  double sim_total = 0;
  for (const auto& point : replay->sim.timeline) {
    replay_completed[static_cast<int64_t>(point.t_s)] = point.completed_rps;
    replay_total += point.completed_rps;
  }
  for (const auto& point : sim.timeline) {
    sim_completed[static_cast<int64_t>(point.t_s)] = point.completed_rps;
    sim_total += point.completed_rps;
  }
  EXPECT_EQ(replay_total, sim_total);
  EXPECT_EQ(replay_total, static_cast<double>(sim.total_requests));
  for (const auto& [bucket, completed] : sim_completed) {
    const auto it = replay_completed.find(bucket);
    const double replayed = it != replay_completed.end() ? it->second : 0;
    EXPECT_NEAR(replayed, completed, 2.0) << "bucket " << bucket;
  }
}

// --- Echo guest (Figure 4 workload) -----------------------------------------------

TEST(Echo, GuestEchoesAndReportsMilestones) {
  auto image = vcc::CompileProgram(vrt::VlibcSource() + vrt::EchoMilestonesSource(), "main",
                                   vrt::Env::kProt32);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  wasp::Runtime runtime;
  wasp::ByteChannel channel;
  channel.host().WriteString("ping!");
  wasp::VirtineSpec spec;
  spec.image = &image.value();
  spec.word_bytes = 4;
  spec.policy = wasp::kPolicyStream | wasp::MaskOf(wasp::kHcReturnData);
  spec.channel = &channel.guest();
  auto outcome = runtime.Invoke(spec);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  auto echoed = channel.host().Drain();
  EXPECT_EQ(std::string(echoed.begin(), echoed.end()), "ping!");
  ASSERT_EQ(outcome.output.size(), 12u);
  uint32_t mb[3];
  memcpy(mb, outcome.output.data(), sizeof(mb));
  EXPECT_LT(mb[0], mb[1]);  // entry < after-recv
  EXPECT_LT(mb[1], mb[2]);  // after-recv < after-send
}

}  // namespace
