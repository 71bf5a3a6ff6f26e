#include "src/vnet/listener.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "src/base/log.h"
#include "src/vnet/http.h"

namespace vnet {
namespace {

constexpr int kMaxEpollEvents = 64;
// Per-readable-event read budget: level-triggered epoll re-arms anything
// left, so a firehose connection cannot starve its neighbors.
constexpr int kReadsPerEvent = 16;

}  // namespace

Listener::Listener(ConcurrentHttpServer* server, ListenerOptions options)
    : server_(server), options_(std::move(options)) {}

Listener::~Listener() { Stop(); }

int64_t Listener::NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

vbase::Status Listener::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return vbase::FailedPrecondition("listener already running");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return vbase::Internal(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return vbase::Internal("bind: " + err);
  }
  if (::listen(listen_fd_, options_.backlog) < 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return vbase::Internal("listen: " + err);
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  event_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || event_fd_ < 0) {
    const std::string err = std::strerror(errno);
    Stop();
    return vbase::Internal("epoll/eventfd: " + err);
  }
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = event_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev);
  stop_requested_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  loop_ = std::thread([this] { Loop(); });
  return vbase::Status::Ok();
}

void Listener::Stop() {
  if (loop_.joinable()) {
    stop_requested_.store(true, std::memory_order_release);
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(event_fd_, &one, sizeof(one));
    loop_.join();
  }
  // Event loop is gone: drain every in-flight job before tearing down the
  // channels they reference.
  for (auto& [fd, conn] : conns_) {
    if (conn->submitted && !conn->job_done) {
      CloseChannelWrite(conn.get());
      conn->job.wait();
    }
    ::close(fd);
  }
  {
    // Connections still open at Stop() are closed here, not by CloseConn:
    // count them so the ledger keeps accepted == closed.
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.closed += conns_.size();
  }
  conns_.clear();
  for (auto& conn : zombies_) {
    if (!conn->job_done) {
      conn->job.wait();
    }
  }
  zombies_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  if (event_fd_ >= 0) {
    ::close(event_fd_);
    event_fd_ = -1;
  }
  running_.store(false, std::memory_order_release);
}

ListenerStats Listener::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void Listener::Loop() {
  epoll_event events[kMaxEpollEvents];
  while (!stop_requested_.load(std::memory_order_acquire)) {
    const int timeout =
        conns_.empty() && zombies_.empty() ? -1 : std::max(1, options_.tick_ms);
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEpollEvents, timeout);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        AcceptReady();
        continue;
      }
      if (fd == event_fd_) {
        uint64_t drained = 0;
        [[maybe_unused]] ssize_t r = ::read(event_fd_, &drained, sizeof(drained));
        std::vector<int> ready;
        {
          std::lock_guard<std::mutex> lock(ready_mu_);
          ready.swap(ready_fds_);
        }
        for (const int rfd : ready) {
          auto it = conns_.find(rfd);
          if (it != conns_.end()) {
            RelayChannel(it->second.get());
          }
        }
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) {
        continue;  // already closed this iteration
      }
      Conn* conn = it->second.get();
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        // Read anything pending (a RST'd peer may still have queued bytes),
        // then treat it as EOF.
        ConnReadable(conn);
        if (conns_.count(fd) != 0 && !conn->peer_eof) {
          conn->peer_eof = true;
          HandlePeerEof(conn);
        }
        continue;
      }
      if (events[i].events & EPOLLIN) {
        ConnReadable(conn);
      }
      if (conns_.count(fd) != 0 && (events[i].events & EPOLLOUT)) {
        ConnWritable(conn);
      }
    }
    Tick(NowMs());
  }
}

void Listener::AcceptReady() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      return;  // EAGAIN (or transient error): nothing more to accept now
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->channel = std::make_unique<wasp::ByteChannel>();
    conn->last_activity_ms = NowMs();
    epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    conns_.emplace(fd, std::move(conn));
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.accepted;
    }
  }
}

void Listener::ConnReadable(Conn* conn) {
  if (conn->closing) {
    return;
  }
  const int fd = conn->fd;
  std::vector<char> buf(options_.read_chunk);
  for (int round = 0; round < kReadsPerEvent; ++round) {
    const ssize_t n = ::recv(fd, buf.data(), buf.size(), 0);
    if (n > 0) {
      conn->inbuf.append(buf.data(), static_cast<size_t>(n));
      conn->last_activity_ms = NowMs();
      ProcessInbuf(conn);
      if (conns_.count(fd) == 0 || conn->closing) {
        return;
      }
      continue;
    }
    if (n == 0) {
      conn->peer_eof = true;
      HandlePeerEof(conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return;
    }
    if (errno == EINTR) {
      continue;
    }
    CloseConn(fd);  // hard socket error
    return;
  }
}

void Listener::ProcessInbuf(Conn* conn) {
  const ConnectionOptions& copts = options_.connection;
  while (!conn->closing) {
    if (conn->forward_remaining == 0 && copts.max_requests > 0 &&
        conn->requests >= static_cast<uint64_t>(copts.max_requests)) {
      // The request cap is reached at a request boundary.  Closing the
      // forward direction ends the server job the way a client EOF would
      // (the guest's recv returns 0, the native loop stops) in every serve
      // mode; bytes pipelined past the cap are dropped unread.
      conn->closing = true;
      conn->inbuf.clear();
      CloseChannelWrite(conn);
      FlushOut(conn);
      return;
    }
    if (conn->forward_remaining > 0) {
      // Stream the current request's bytes (head already validated; body in
      // bounded chunks as it arrives) into the channel.
      const size_t take = std::min(conn->inbuf.size(), conn->forward_remaining);
      if (take == 0) {
        return;  // need more socket bytes
      }
      conn->channel->host().Write(conn->inbuf.data(), take);
      conn->inbuf.erase(0, take);
      conn->forward_remaining -= take;
      continue;
    }
    if (conn->inbuf.empty()) {
      return;
    }
    auto need = RequestBytesNeeded(conn->inbuf);
    if (!need.ok()) {
      if (need.status().code() == vbase::Code::kInvalidArgument) {
        EdgeReject(conn, 400);  // malformed or smuggling-shaped head
        return;
      }
      if (conn->inbuf.size() >= copts.max_head_bytes) {
        EdgeReject(conn, 413);  // head did not terminate within the cap
        return;
      }
      return;  // incomplete head: wait for more bytes
    }
    if (*need > copts.max_head_bytes + copts.max_body_bytes) {
      EdgeReject(conn, 413);  // declared body beyond the cap: never read it
      return;
    }
    // The head terminated, but may still exceed the head cap (a fast sender
    // can land the whole oversized head in one read).
    const size_t head_bytes = conn->inbuf.find("\r\n\r\n") + 4;
    if (head_bytes > copts.max_head_bytes) {
      EdgeReject(conn, 413);
      return;
    }
    // A complete, validated head within the caps: dispatch the connection on
    // its first request (lazy — slow clients hold no lane) and start
    // forwarding this request's exact byte count.
    EnsureSubmitted(conn);
    conn->forward_remaining = *need;
    ++conn->requests;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.requests_forwarded;
    }
  }
}

void Listener::EnsureSubmitted(Conn* conn) {
  if (conn->submitted) {
    return;
  }
  conn->submitted = true;
  const int fd = conn->fd;
  // Readiness bridge: server response bytes (written from a lane thread)
  // signal the eventfd, turning the in-process channel into an epoll source.
  // The observer only records the fd and signals — never touches the pipe.
  conn->channel->host().SetReadObserver([this, fd] {
    {
      std::lock_guard<std::mutex> lock(ready_mu_);
      ready_fds_.push_back(fd);
    }
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(event_fd_, &one, sizeof(one));
  });
  conn->job = server_->SubmitConnection(*conn->channel, options_.mode, options_.route,
                                        options_.connection);
}

void Listener::EdgeReject(Conn* conn, int status) {
  conn->outbuf += BuildResponse(status, "");
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (status == 413) {
      ++stats_.edge_413;
    } else {
      ++stats_.edge_400;
    }
  }
  conn->closing = true;
  conn->inbuf.clear();
  // If a server job is serving this connection it is parked at a request
  // boundary (the edge only rejects between fully forwarded requests):
  // closing the forward direction lets it exit cleanly.
  CloseChannelWrite(conn);
  FlushOut(conn);
}

void Listener::HandlePeerEof(Conn* conn) {
  if (conn->closing) {
    return;
  }
  if (conn->forward_remaining > 0) {
    // The stream died mid-request: the server sees EOF mid-frame and answers
    // 400 itself; just stop forwarding.
    conn->closing = true;
    CloseChannelWrite(conn);
    FlushOut(conn);
    return;
  }
  if (!conn->inbuf.empty()) {
    // EOF inside an incomplete head that never reached the server: the edge
    // answers the 400.
    EdgeReject(conn, 400);
    return;
  }
  // Clean boundary.
  conn->closing = true;
  if (conn->submitted) {
    CloseChannelWrite(conn);  // server request loop exits cleanly
    FlushOut(conn);
  } else {
    CloseConn(conn->fd);  // never dispatched: nothing to wait for
  }
}

void Listener::RelayChannel(Conn* conn) {
  const std::vector<uint8_t> bytes = conn->channel->host().Drain();
  if (!bytes.empty()) {
    conn->outbuf.append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  }
  FlushOut(conn);
}

void Listener::FlushOut(Conn* conn) {
  const int fd = conn->fd;
  while (!conn->outbuf.empty()) {
    const ssize_t n = ::send(fd, conn->outbuf.data(), conn->outbuf.size(), MSG_NOSIGNAL);
    if (n > 0) {
      conn->outbuf.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn->want_epollout) {
        conn->want_epollout = true;
        UpdateEpollOut(conn);
      }
      return;  // EPOLLOUT finishes the partial write
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    CloseConn(fd);  // peer reset under us
    return;
  }
  if (conn->want_epollout) {
    conn->want_epollout = false;
    UpdateEpollOut(conn);
  }
}

void Listener::ConnWritable(Conn* conn) { FlushOut(conn); }

void Listener::UpdateEpollOut(Conn* conn) {
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = (conn->closing ? 0u : static_cast<uint32_t>(EPOLLIN)) |
              (conn->want_epollout ? static_cast<uint32_t>(EPOLLOUT) : 0u);
  ev.data.fd = conn->fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void Listener::CloseChannelWrite(Conn* conn) {
  if (conn->submitted && !conn->channel_write_closed) {
    conn->channel_write_closed = true;
    conn->channel->host().CloseWrite();
  }
  if (conn->closing) {
    UpdateEpollOut(conn);  // drop EPOLLIN so pending bytes cannot spin LT
  }
}

void Listener::CloseConn(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) {
    return;
  }
  std::unique_ptr<Conn> conn = std::move(it->second);
  conns_.erase(it);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.closed;
  }
  if (conn->submitted && !conn->job_done) {
    // The job still references the channel: unblock it and let Tick reap the
    // zombie once its future resolves.
    if (!conn->channel_write_closed) {
      conn->channel_write_closed = true;
      conn->channel->host().CloseWrite();
    }
    zombies_.push_back(std::move(conn));
  }
}

void Listener::Tick(int64_t now_ms) {
  // Reap zombies whose job resolved (channel no longer referenced).
  for (size_t i = 0; i < zombies_.size();) {
    Conn* conn = zombies_[i].get();
    if (!conn->job_done &&
        conn->job.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      conn->job_done = true;
    }
    if (conn->job_done) {
      zombies_[i] = std::move(zombies_.back());
      zombies_.pop_back();
    } else {
      ++i;
    }
  }
  // Snapshot the fds: every step below can erase from conns_ (CloseConn via
  // a socket error inside FlushOut), so iterate by lookup, never by a live
  // map iterator.
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) {
    fds.push_back(fd);
  }
  for (const int fd : fds) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) {
      continue;
    }
    Conn* conn = it->second.get();
    if (conn->submitted && !conn->job_done &&
        conn->job.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      // Server finished the connection (clean close, "Connection: close",
      // max-requests, or a shed): relay the tail and start closing.
      conn->job_done = true;
      if (!conn->closing) {
        conn->closing = true;
        UpdateEpollOut(conn);
      }
      RelayChannel(conn);
      if (conns_.count(fd) == 0) {
        continue;  // RelayChannel closed it on a socket error
      }
    }
    if (!conn->closing && options_.idle_timeout_ms > 0 &&
        now_ms - conn->last_activity_ms > options_.idle_timeout_ms) {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.idle_closed;
      }
      if (conn->forward_remaining > 0 || !conn->inbuf.empty()) {
        EdgeReject(conn, 408);  // half-sent request: tell the client
      } else {
        conn->closing = true;
        CloseChannelWrite(conn);
        if (!conn->submitted) {
          CloseConn(fd);
          continue;
        }
      }
      if (conns_.count(fd) == 0) {
        continue;
      }
    }
    if (conn->closing && conn->outbuf.empty()) {
      const bool drained = !conn->submitted ||
                           (conn->job_done && conn->channel->host().bytes_readable() == 0);
      if (drained) {
        CloseConn(fd);
      }
    }
  }
}

}  // namespace vnet
