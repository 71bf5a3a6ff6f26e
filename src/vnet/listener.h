// Real TCP front end for the concurrent HTTP server: a non-blocking
// socket/bind/listen + level-triggered epoll accept/read loop that frames
// complete HTTP requests off real sockets and feeds them through
// ConcurrentHttpServer::SubmitConnection.
//
// Division of labor:
//
// * The listener is the trust boundary at the edge.  It frames the byte
//   stream with the host parser (RequestBytesNeeded), so oversized heads
//   (413), declared bodies beyond the cap (413), malformed or
//   smuggling-shaped requests (400), and streams that end mid-request (400)
//   are answered at the edge — in EVERY serve mode, before a single byte
//   reaches a lane.  Only validated, correctly framed request bytes are
//   forwarded into the connection's ByteChannel (bodies stream through in
//   bounded chunks as they arrive; nothing buffers a whole request beyond
//   the configured caps).
//
// * The server job serves the whole connection: with keep-alive enabled one
//   SubmitConnection dispatch (= one acquired, snapshot-affine shell in the
//   virtine modes) serves every request of the connection until EOF,
//   "Connection: close", or the max-requests cap.  The listener enforces the
//   cap for every mode: after forwarding the last allowed request it closes
//   the channel's forward direction, so the job sees EOF at a request
//   boundary.
//
// * Lazy dispatch starves slowloris: a connection occupies no executor lane
//   until its first complete request has been framed; a half-sent head only
//   ever holds listener-side buffer bytes, and the idle timeout reclaims it
//   with a 408.
//
// Responses flow back through a BytePipe read observer that signals an
// eventfd (the channel becomes an epoll readiness source like any fd), and
// partial socket writes are finished under EPOLLOUT.
#ifndef SRC_VNET_LISTENER_H_
#define SRC_VNET_LISTENER_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/base/status.h"
#include "src/vnet/server.h"
#include "src/wasp/channel.h"

namespace vnet {

struct ListenerOptions {
  // Port to bind on 127.0.0.1; 0 picks an ephemeral port (read it back from
  // port() after Start()).
  uint16_t port = 0;
  ServeMode mode = ServeMode::kNative;
  // Route key for SubmitConnection (per-route quotas / key classes apply).
  std::string route = "listener";
  // Per-connection serving policy forwarded to the server; the listener
  // additionally enforces max_head_bytes / max_body_bytes at the edge.
  ConnectionOptions connection = MakeKeepAliveDefaults();
  // Socket read window (the unit of incremental forwarding, not a cap).
  size_t read_chunk = 4096;
  // A connection with no inbound progress for this long is reclaimed: 408 if
  // a request is half-sent, silent close at a clean request boundary.
  // <= 0 disables the idle timeout.
  int idle_timeout_ms = 5000;
  // Event-loop timer granularity (idle scan, finished-job reaping).
  int tick_ms = 5;
  int backlog = 128;

  static ConnectionOptions MakeKeepAliveDefaults() {
    ConnectionOptions conn;
    conn.keep_alive = true;
    return conn;
  }
};

// Monotone counters over everything a listener accepted.
struct ListenerStats {
  uint64_t accepted = 0;          // connections accepted
  uint64_t closed = 0;            // connections fully closed
  uint64_t idle_closed = 0;       // reclaimed by the idle timeout
  uint64_t edge_413 = 0;          // oversized head/body answered at the edge
  uint64_t edge_400 = 0;          // malformed/truncated answered at the edge
  uint64_t requests_forwarded = 0;  // complete requests handed to the server
};

// One TCP listener bound to 127.0.0.1, serving through a ConcurrentHttpServer.
// The server must be configured with block_when_full = false: admission
// rejections must answer 503/429 immediately rather than block the event
// loop.  Start() spawns the event-loop thread; Stop() (or the destructor)
// drains every in-flight connection job before returning.
class Listener {
 public:
  explicit Listener(ConcurrentHttpServer* server, ListenerOptions options = {});
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  vbase::Status Start();
  void Stop();

  // The bound port (valid after a successful Start()).
  uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }
  ListenerStats stats() const;

 private:
  struct Conn {
    int fd = -1;
    std::unique_ptr<wasp::ByteChannel> channel;
    std::string inbuf;   // socket bytes not yet validated/forwarded
    std::string outbuf;  // response bytes not yet written to the socket
    // Bytes of the current framed request (head+declared body) still to be
    // forwarded into the channel; body streaming in bounded chunks.
    size_t forward_remaining = 0;
    // Requests framed so far; forwarding stops at connection.max_requests.
    uint64_t requests = 0;
    bool submitted = false;   // SubmitConnection has been called
    bool job_done = false;    // the server job's future has resolved
    bool peer_eof = false;    // the client closed its write half
    bool closing = false;     // no more forwarding; flush + reap
    bool want_epollout = false;
    bool channel_write_closed = false;
    std::future<vbase::Result<ServeStats>> job;
    int64_t last_activity_ms = 0;  // steady-clock ms of last inbound progress
  };

  void Loop();
  void AcceptReady();
  void ConnReadable(Conn* conn);
  void ConnWritable(Conn* conn);
  // Validates + forwards framed request bytes from conn->inbuf.
  void ProcessInbuf(Conn* conn);
  // Answers `status` directly from the edge and begins closing.
  void EdgeReject(Conn* conn, int status);
  void EnsureSubmitted(Conn* conn);
  void HandlePeerEof(Conn* conn);
  // Moves channel bytes to outbuf and flushes as much as the socket takes.
  void RelayChannel(Conn* conn);
  void FlushOut(Conn* conn);
  void UpdateEpollOut(Conn* conn);
  void CloseChannelWrite(Conn* conn);
  // Closes the socket; the Conn lingers in conns_ until its job resolves.
  void CloseConn(int fd);
  void Tick(int64_t now_ms);
  static int64_t NowMs();

  ConcurrentHttpServer* server_;
  ListenerOptions options_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int event_fd_ = -1;  // channel-readiness + stop wakeups
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::thread loop_;

  // Owned by the event-loop thread; keyed by socket fd.  A Conn whose socket
  // is closed but whose job is unresolved moves to zombies_ (the channel
  // must outlive the job).
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;
  std::vector<std::unique_ptr<Conn>> zombies_;

  // Connections whose channel got response bytes since the last drain (fed
  // by BytePipe observers under the pipe lock; only ever push + signal).
  std::mutex ready_mu_;
  std::vector<int> ready_fds_;

  mutable std::mutex stats_mu_;
  ListenerStats stats_;
};

}  // namespace vnet

#endif  // SRC_VNET_LISTENER_H_
