// Listener tests: the real TCP front end (epoll accept/read loop, HTTP
// keep-alive, streamed bodies, edge rejection) against real loopback
// sockets in every serve mode, including the concurrency paths TSan watches.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/vnet/http.h"
#include "src/vnet/listener.h"
#include "src/vnet/loadgen.h"
#include "src/vnet/server.h"
#include "src/wasp/runtime.h"

namespace {

int ConnectTo(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0 && errno != EINTR) {
      return false;
    }
    if (n > 0) {
      off += static_cast<size_t>(n);
    }
  }
  return true;
}

// Reads one full Content-Length-framed response off `fd` (leftover bytes
// stay in *stream); returns its status or -1 on EOF/error mid-response.
int ReadResponse(int fd, std::string* stream) {
  char buf[4096];
  while (true) {
    auto head = vnet::FrameResponseHead(*stream);
    if (head.ok()) {
      const size_t total = head->head_bytes + head->content_length;
      if (stream->size() >= total) {
        stream->erase(0, total);
        return head->status;
      }
    } else if (head.status().code() != vbase::Code::kFailedPrecondition) {
      return -1;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      stream->append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return -1;
  }
}

// Blocks until the peer closes (returns true) or ~2s pass (false).
bool WaitForEof(int fd) {
  char buf[256];
  for (int i = 0; i < 400; ++i) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n == 0) {
      return true;
    }
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return true;  // reset counts as closed
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

struct Stack {
  wasp::Runtime runtime;
  wasp::HostEnv files;
  std::unique_ptr<vnet::ConcurrentHttpServer> server;
  std::unique_ptr<vnet::Listener> listener;

  explicit Stack(vnet::ServeMode mode, vnet::ConcurrentServerOptions sopts = {},
                 vnet::ListenerOptions lopts = {}) {
    files.PutFile("/static.html", std::string(512, 'x'));
    sopts.block_when_full = false;  // never block the listener's event loop
    server = std::make_unique<vnet::ConcurrentHttpServer>(&runtime, &files, sopts);
    lopts.mode = mode;
    listener = std::make_unique<vnet::Listener>(server.get(), lopts);
    auto st = listener->Start();
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
};

class ListenerModeTest : public ::testing::TestWithParam<vnet::ServeMode> {};

INSTANTIATE_TEST_SUITE_P(Modes, ListenerModeTest,
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

TEST_P(ListenerModeTest, RoundTripsOverRealSockets) {
  Stack stack(GetParam());
  const int fd = ConnectTo(stack.listener->port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd, "GET /static.html HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"));
  std::string stream;
  EXPECT_EQ(ReadResponse(fd, &stream), 200);
  EXPECT_TRUE(WaitForEof(fd));  // close was honored
  ::close(fd);
  const auto counters = stack.server->counters(GetParam());
  EXPECT_EQ(counters.requests, 1u);
  EXPECT_EQ(counters.status_2xx, 1u);
}

TEST_P(ListenerModeTest, KeepAliveReusesOneConnectionForManyRequests) {
  Stack stack(GetParam());
  const int fd = ConnectTo(stack.listener->port());
  ASSERT_GE(fd, 0);
  std::string stream;
  for (int i = 0; i < 5; ++i) {
    const bool last = i == 4;
    ASSERT_TRUE(SendAll(fd, std::string("GET /static.html HTTP/1.1\r\nHost: t\r\n") +
                                (last ? "Connection: close\r\n" : "") + "\r\n"));
    EXPECT_EQ(ReadResponse(fd, &stream), 200) << "request " << i;
  }
  EXPECT_TRUE(WaitForEof(fd));
  ::close(fd);
  const auto counters = stack.server->counters(GetParam());
  EXPECT_EQ(counters.requests, 5u);
  EXPECT_EQ(counters.keepalive_reused, 4u);  // 4 of 5 reused the shell
  EXPECT_EQ(counters.accepted, 1u);          // one connection, one dispatch
  EXPECT_EQ(stack.listener->stats().requests_forwarded, 5u);
}

TEST_P(ListenerModeTest, RequestCapAnswersExactlyMaxRequestsThenCloses) {
  // A client pipelining max_requests + 2 requests gets exactly max_requests
  // 200s and then a close, in every mode: the listener stops forwarding at
  // the cap and closes the channel's forward direction, so a virtine guest
  // sees EOF at a request boundary just as the native loop stops on its own.
  constexpr int kCap = 3;
  vnet::ListenerOptions lopts;
  lopts.connection.max_requests = kCap;
  Stack stack(GetParam(), {}, lopts);
  const int fd = ConnectTo(stack.listener->port());
  ASSERT_GE(fd, 0);
  std::string burst;
  for (int i = 0; i < kCap + 2; ++i) {
    burst += "GET /static.html HTTP/1.1\r\nHost: t\r\n\r\n";
  }
  ASSERT_TRUE(SendAll(fd, burst));
  std::string stream;
  for (int i = 0; i < kCap; ++i) {
    EXPECT_EQ(ReadResponse(fd, &stream), 200) << "request " << i;
  }
  EXPECT_EQ(ReadResponse(fd, &stream), -1);  // closed instead of a 4th answer
  EXPECT_TRUE(stream.empty());
  ::close(fd);
  // Stop() joins the event loop, so the close is fully accounted.
  stack.listener->Stop();
  const auto counters = stack.server->counters(GetParam());
  EXPECT_EQ(counters.accepted, 1u);
  EXPECT_EQ(counters.errors, 0u);
  EXPECT_EQ(counters.requests, static_cast<uint64_t>(kCap));
  EXPECT_EQ(counters.status_2xx, static_cast<uint64_t>(kCap));
  const vnet::ListenerStats stats = stack.listener->stats();
  EXPECT_EQ(stats.requests_forwarded, static_cast<uint64_t>(kCap));
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.closed, 1u);
}

TEST_P(ListenerModeTest, OversizedHeadIsRejectedAtTheEdgeWith413) {
  Stack stack(GetParam());
  const int fd = ConnectTo(stack.listener->port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd, "GET /static.html HTTP/1.1\r\nX-Big: " + std::string(4000, 'a') +
                              "\r\n\r\n"));
  std::string stream;
  EXPECT_EQ(ReadResponse(fd, &stream), 413);
  EXPECT_TRUE(WaitForEof(fd));
  ::close(fd);
  // Rejected at the edge: no lane ever saw the connection.
  EXPECT_EQ(stack.listener->stats().edge_413, 1u);
  EXPECT_EQ(stack.server->counters(GetParam()).accepted, 0u);
}

TEST_P(ListenerModeTest, OversizedDeclaredBodyIsRejectedBeforeItIsRead) {
  Stack stack(GetParam());
  const int fd = ConnectTo(stack.listener->port());
  ASSERT_GE(fd, 0);
  // Declares far beyond max_body_bytes; the body itself is never sent — the
  // 413 must come from the declaration alone.
  ASSERT_TRUE(SendAll(
      fd, "POST /static.html HTTP/1.1\r\nHost: t\r\nContent-Length: 999999999\r\n\r\n"));
  std::string stream;
  EXPECT_EQ(ReadResponse(fd, &stream), 413);
  EXPECT_TRUE(WaitForEof(fd));
  ::close(fd);
  EXPECT_EQ(stack.listener->stats().edge_413, 1u);
}

TEST_P(ListenerModeTest, SmugglingShapedRequestIsRejectedAtTheEdgeWith400) {
  Stack stack(GetParam());
  const int fd = ConnectTo(stack.listener->port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd,
                      "POST /static.html HTTP/1.1\r\nHost: t\r\nContent-Length: 4\r\n"
                      "Content-Length: 5\r\n\r\nbody!"));
  std::string stream;
  EXPECT_EQ(ReadResponse(fd, &stream), 400);
  EXPECT_TRUE(WaitForEof(fd));
  ::close(fd);
  EXPECT_EQ(stack.listener->stats().edge_400, 1u);
  EXPECT_EQ(stack.server->counters(GetParam()).accepted, 0u);
}

TEST(Listener, IdleConnectionIsClosedByTheTimeout) {
  vnet::ListenerOptions lopts;
  lopts.idle_timeout_ms = 60;
  lopts.tick_ms = 5;
  Stack stack(vnet::ServeMode::kNative, {}, lopts);
  const int fd = ConnectTo(stack.listener->port());
  ASSERT_GE(fd, 0);
  // Send nothing: the listener must hang up on its own.
  EXPECT_TRUE(WaitForEof(fd));
  ::close(fd);
  EXPECT_EQ(stack.listener->stats().idle_closed, 1u);
  // Never dispatched: an idle socket costs no lane.
  EXPECT_EQ(stack.server->counters(vnet::ServeMode::kNative).accepted, 0u);
}

TEST(Listener, SlowWriterGets408AfterTheIdleTimeout) {
  vnet::ListenerOptions lopts;
  lopts.idle_timeout_ms = 60;
  lopts.tick_ms = 5;
  Stack stack(vnet::ServeMode::kNative, {}, lopts);
  const int fd = ConnectTo(stack.listener->port());
  ASSERT_GE(fd, 0);
  // A slowloris half-request: head never terminates.
  ASSERT_TRUE(SendAll(fd, "GET /static.html HTTP/1.1\r\nHost: t\r\n"));
  std::string stream;
  EXPECT_EQ(ReadResponse(fd, &stream), 408);
  EXPECT_TRUE(WaitForEof(fd));
  ::close(fd);
  EXPECT_EQ(stack.listener->stats().idle_closed, 1u);
}

TEST(Listener, TruncatedRequestGets400AtTheEdge) {
  Stack stack(vnet::ServeMode::kNative);
  const int fd = ConnectTo(stack.listener->port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd, "GET /static.ht"));
  ::shutdown(fd, SHUT_WR);  // EOF inside an incomplete head
  std::string stream;
  EXPECT_EQ(ReadResponse(fd, &stream), 400);
  EXPECT_TRUE(WaitForEof(fd));
  ::close(fd);
  EXPECT_EQ(stack.listener->stats().edge_400, 1u);
}

TEST(Listener, KeepAliveConnectionHoldsLaneAndOverflowSheds) {
  // lanes=1, queue=1: connection A holds the lane (parked mid keep-alive),
  // B occupies the queue slot, C must shed with 503 — overload stays a
  // first-class, protocol-visible behavior through the socket front end.
  vnet::ConcurrentServerOptions sopts;
  sopts.lanes = 1;
  sopts.max_queue_depth = 1;
  Stack stack(vnet::ServeMode::kNative, sopts);
  const int a = ConnectTo(stack.listener->port());
  ASSERT_GE(a, 0);
  std::string sa;
  ASSERT_TRUE(SendAll(a, "GET /static.html HTTP/1.1\r\nHost: t\r\n\r\n"));
  ASSERT_EQ(ReadResponse(a, &sa), 200);  // A now owns the lane, parked
  const int b = ConnectTo(stack.listener->port());
  ASSERT_GE(b, 0);
  ASSERT_TRUE(SendAll(b, "GET /static.html HTTP/1.1\r\nHost: t\r\n\r\n"));
  // B is queued behind A; give the listener a moment to dispatch it before C.
  for (int i = 0; i < 200 && stack.server->queue_depth() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(stack.server->queue_depth(), 1u);
  const int c = ConnectTo(stack.listener->port());
  ASSERT_GE(c, 0);
  std::string sc;
  ASSERT_TRUE(SendAll(c, "GET /static.html HTTP/1.1\r\nHost: t\r\n\r\n"));
  EXPECT_EQ(ReadResponse(c, &sc), 503);  // shed immediately, well-formed
  // Closing A frees the lane; B then serves normally.
  ::close(a);
  std::string sb;
  EXPECT_EQ(ReadResponse(b, &sb), 200);
  ::close(b);
  ::close(c);
}

TEST_P(ListenerModeTest, ConcurrentSocketClientsAllSucceed) {
  vnet::ConcurrentServerOptions sopts;
  sopts.lanes = 4;
  Stack stack(GetParam(), sopts);
  vnet::SocketLoadOptions load;
  load.port = stack.listener->port();
  load.clients = 4;
  load.requests_per_client = 24;
  load.requests_per_connection = 8;
  const auto result = vnet::RunSocketClosedLoop(load);
  EXPECT_EQ(result.failures, 0u);
  EXPECT_EQ(result.latencies_us.size(), 4u * 24u);
  // Clients close as soon as they read their last response; they never wait
  // for the server's FIN, so the final connection jobs may still be settling.
  // Stop() drains every in-flight job (and counters update before each job's
  // future resolves), making the counter reads deterministic.
  stack.listener->Stop();
  const auto counters = stack.server->counters(GetParam());
  EXPECT_EQ(counters.requests, 4u * 24u);
  EXPECT_GT(counters.keepalive_reused, 0u);
  EXPECT_EQ(counters.status_2xx, 4u * 24u);
}

TEST(Listener, StopDrainsInFlightConnections) {
  Stack stack(vnet::ServeMode::kNative);
  const int fd = ConnectTo(stack.listener->port());
  ASSERT_GE(fd, 0);
  std::string stream;
  ASSERT_TRUE(SendAll(fd, "GET /static.html HTTP/1.1\r\nHost: t\r\n\r\n"));
  ASSERT_EQ(ReadResponse(fd, &stream), 200);
  // Stop with the keep-alive connection still open: must not hang or crash.
  stack.listener->Stop();
  EXPECT_FALSE(stack.listener->running());
  ::close(fd);
}

TEST(Listener, StopCountsStillOpenConnectionsAsClosed) {
  Stack stack(vnet::ServeMode::kNative);
  const int fd = ConnectTo(stack.listener->port());
  ASSERT_GE(fd, 0);
  std::string stream;
  ASSERT_TRUE(SendAll(fd, "GET /static.html HTTP/1.1\r\nHost: t\r\n\r\n"));
  ASSERT_EQ(ReadResponse(fd, &stream), 200);
  // The keep-alive connection is still open when the listener stops; Stop()
  // closes it, and the ledger must say so.
  stack.listener->Stop();
  const vnet::ListenerStats stats = stack.listener->stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.closed, stats.accepted);
  EXPECT_TRUE(WaitForEof(fd));
  ::close(fd);
}

}  // namespace
