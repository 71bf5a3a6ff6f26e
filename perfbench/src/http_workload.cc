// The HTTP workloads: real loopback sockets through vnet::Listener into a
// ConcurrentHttpServer serving a 512 B static file in snapshot mode on two
// lanes, loaded by four closed-loop client connections (one thread each).
//
//   http_keepalive  64 requests per connection (the server's max_requests
//                   cap), so the per-request path dominates.
//   http_connect    one request per connection ("Connection: close"), so
//                   accept, dispatch, acquire and restore dominate.
//
// The untraced run measures the end-to-end metrics over the socket path.
// The traced run attributes the same requests to layers:
//   1. socket segments, alternately untraced and traced (tracing overhead,
//      listener/server/executor/pool counters, request spans);
//   2. one in-process thread serving prewritten connections three ways in
//      turn: StaticHttpServer::HandleConnection in snapshot mode, the same
//      in native mode (the de-isolated floor), and Runtime::Invoke of the
//      server's keep-alive image (InvokeStats: acquire, restore, guest run);
//   3. four closed-loop clients driving ConcurrentHttpServer::SubmitConnection
//      over ByteChannels (executor queue wait; listener self time is the
//      socket round trip minus this one).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/base/rng.h"
#include "src/bench.h"
#include "src/layers.h"
#include "src/trace.h"
#include "src/vcc/vcc.h"
#include "src/vnet/listener.h"
#include "src/vnet/server.h"
#include "src/vrt/vlibc.h"
#include "src/wasp/abi.h"
#include "src/wasp/channel.h"
#include "src/wasp/runtime.h"

namespace perfbench {
namespace {

constexpr int kLanes = 2;
constexpr int kClients = 4;
constexpr int kRequestsPerConn = 64;  // the server's max_requests cap
constexpr size_t kFileBytes = 512;
constexpr int kSetups = 5;            // set-ups per untraced run; setup_s is their median
// The untraced timed phase is cut into this many segments by completion
// time; rate, median latency and CPU are reported as the median over
// segments.
constexpr int kSegments = 10;
// Warm-up connections per client: captures the handler snapshot and parks
// an affine shell on every lane.  A fixed amount of work (not time), so a
// faster stack also sets up faster.
constexpr int kWarmupConnsKeepAlive = 64;
constexpr int kWarmupConnsConnect = 2000;
constexpr int kSocketTimeoutS = 10;
const char kRoute[] = "listener";     // the listener's default route
// The server's snapshot key for its keep-alive image (src/vnet/server.cc).
// The direct-runtime phase invokes that image under the same key, so it
// restores the same snapshot the served connections restore.
const char kKeepAliveKey[] = "http-keepalive-handler";

std::string MakeFile(uint64_t seed) {
  vbase::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  std::string file(kFileBytes, ' ');
  for (char& c : file) {
    c = static_cast<char>(' ' + rng.Below(95));
  }
  return file;
}

int RequestsPerConn(bool keepalive) { return keepalive ? kRequestsPerConn : 1; }

// Request `index` of a connection.  The last one carries "Connection:
// close", so the server ends the connection (in the virtine modes nothing
// else enforces max_requests) and is the side left in TIME_WAIT.
std::string RequestBytes(bool keepalive, int index) {
  const bool last = index + 1 == RequestsPerConn(keepalive);
  return std::string("GET /index.html HTTP/1.1\r\nHost: perfbench\r\n") +
         (last ? "Connection: close\r\n" : "") + "\r\n";
}

// Takes one complete response off the front of *buf.  Returns 1 when one
// was consumed, 0 when more bytes are needed, -1 when it is malformed.  The
// benchmark's own framing, independent of the server's HTTP code.
int TakeResponse(std::string* buf, int* status, std::string* body) {
  const size_t head_end = buf->find("\r\n\r\n");
  if (head_end == std::string::npos) {
    return buf->size() > 8192 ? -1 : 0;
  }
  if (buf->compare(0, 9, "HTTP/1.1 ") != 0 || head_end < 12) {
    return -1;
  }
  *status = std::atoi(buf->substr(9, 3).c_str());
  size_t length = 0;
  bool have_length = false;
  size_t line = buf->find("\r\n") + 2;
  while (line < head_end) {
    const size_t eol = buf->find("\r\n", line);
    std::string header = buf->substr(line, eol - line);
    std::transform(header.begin(), header.end(), header.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    if (header.rfind("content-length:", 0) == 0) {
      length = std::strtoull(header.c_str() + 15, nullptr, 10);
      have_length = true;
    }
    line = eol + 2;
  }
  if (!have_length) {
    return -1;
  }
  if (buf->size() < head_end + 4 + length) {
    return 0;
  }
  body->assign(*buf, head_end + 4, length);
  buf->erase(0, head_end + 4 + length);
  return 1;
}

// Reads one response through `read` (returns bytes read, <= 0 on EOF or
// error).  Returns the status code, or -1 on a transport or framing failure.
template <typename ReadFn>
int ReadResponse(std::string* buf, std::string* body, ReadFn read) {
  char chunk[4096];
  while (true) {
    int status = 0;
    const int r = TakeResponse(buf, &status, body);
    if (r == 1) {
      return status;
    }
    if (r < 0) {
      return -1;
    }
    const long n = read(chunk, sizeof(chunk));
    if (n <= 0) {
      return -1;
    }
    buf->append(chunk, static_cast<size_t>(n));
  }
}

int Connect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return -1;
  }
  timeval timeout{kSocketTimeoutS, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
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
    if (n > 0) {
      off += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

long RecvSome(int fd, char* dst, size_t len) {
  while (true) {
    const ssize_t n = ::recv(fd, dst, len, 0);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return static_cast<long>(n);
  }
}

// Client-side accounting of one phase.
struct ClientTally {
  uint64_t attempted = 0;       // requests attempted
  uint64_t ok = 0;              // 200 carrying exactly the served file
  uint64_t failed = 0;          // transport error, non-200, shed, or wrong body
  uint64_t connections = 0;     // connections opened
  uint64_t connect_errors = 0;  // connect() failures (each also a failed request)
  uint64_t unclosed = 0;        // connections the server did not close when done
  // Latency of successful requests per segment of the phase, by completion
  // time (empty when the phase is not segmented).
  std::vector<Histogram> lat;

  void Merge(const ClientTally& o) {
    attempted += o.attempted;
    ok += o.ok;
    failed += o.failed;
    connections += o.connections;
    connect_errors += o.connect_errors;
    unclosed += o.unclosed;
    lat.resize(std::max(lat.size(), o.lat.size()));
    for (size_t k = 0; k < o.lat.size(); ++k) {
      lat[k].Merge(o.lat[k]);
    }
  }
};

struct Phase {
  ClientTally tally;
  double wall_s = 0;
  std::vector<double> cpu_marks;  // process CPU seconds at segment boundaries

  void Merge(const Phase& o) {
    tally.Merge(o.tally);
    wall_s += o.wall_s;
  }
};

// One socket connection: its requests in a closed loop, each response
// checked, then the server's close awaited (a server that leaves the
// connection open fails the run).
void SocketConnection(uint16_t port, bool keepalive, const std::string& file, Tracer* tracer,
                      uint64_t phase_start, uint64_t segment_ns, ClientTally* t) {
  const uint64_t conn_id = tracer->NewId();
  const uint64_t c0 = NowNs();
  const int fd = Connect(port);
  const uint64_t c1 = NowNs();
  if (fd < 0) {
    ++t->attempted;
    ++t->failed;
    ++t->connect_errors;
    return;
  }
  ++t->connections;
  tracer->Record("socket.connect", conn_id, conn_id, c0, c1);
  std::string buf;
  std::string body;
  bool healthy = true;
  const auto read = [fd](char* dst, size_t len) { return RecvSome(fd, dst, len); };
  for (int i = 0; i < RequestsPerConn(keepalive) && healthy; ++i) {
    ++t->attempted;
    const uint64_t r0 = NowNs();
    const int status =
        SendAll(fd, RequestBytes(keepalive, i)) ? ReadResponse(&buf, &body, read) : -1;
    const uint64_t r1 = NowNs();
    healthy = status == 200 && body == file;
    if (healthy) {
      ++t->ok;
      const uint64_t k = segment_ns == 0 ? t->lat.size() : (r1 - phase_start) / segment_ns;
      if (k < t->lat.size()) {
        t->lat[k].Add(static_cast<double>(r1 - r0) / 1e3);
      }
      tracer->Record("socket.request", conn_id, conn_id, r0, r1);
    } else {
      ++t->failed;
    }
  }
  if (healthy) {
    char tail[256];
    if (RecvSome(fd, tail, sizeof(tail)) != 0) {
      ++t->unclosed;
    }
  }
  // The server closed first and waits in FIN_WAIT_2; answering with a reset
  // ends both sides without TIME_WAIT.  Otherwise back-to-back runs of
  // hundreds of thousands of loopback connections fill the TIME_WAIT table,
  // and new SYNs that land on a TIME_WAIT tuple slow every later run.
  const linger reset{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &reset, sizeof(reset));
  ::close(fd);
  tracer->Record("socket.conn", conn_id, 0, c0, NowNs(), conn_id);
}

// kClients closed-loop clients, each running whole connections until
// `seconds` have passed and it has run at least `min_conns` (a connection is
// never cut short, so each serves the same request count).  With
// `segments`, process CPU time is also sampled at each segment boundary.
Phase RunSocketPhase(uint16_t port, bool keepalive, const std::string& file, double seconds,
                     Tracer* tracer, int min_conns = 1, int segments = 0) {
  Phase phase;
  std::vector<ClientTally> tallies(kClients);
  std::vector<std::thread> threads;
  const uint64_t start = NowNs();
  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  const uint64_t segment_ns = segments > 0 ? (end - start) / static_cast<uint64_t>(segments) : 0;
  for (ClientTally& t : tallies) {
    t.lat.resize(static_cast<size_t>(segments));
  }
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (int n = 1;; ++n) {
        SocketConnection(port, keepalive, file, tracer, start, segment_ns, &tallies[c]);
        if (n >= min_conns && NowNs() >= end) {
          break;
        }
      }
    });
  }
  for (int k = 0; segments > 0 && k <= segments; ++k) {
    const uint64_t at = start + (end - start) * static_cast<uint64_t>(k) /
                                    static_cast<uint64_t>(segments);
    const uint64_t now = NowNs();
    if (at > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(at - now));
    }
    phase.cpu_marks.push_back(CpuSeconds());
  }
  for (auto& t : threads) {
    t.join();
  }
  phase.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  for (const auto& t : tallies) {
    phase.tally.Merge(t);
  }
  return phase;
}

vnet::ConnectionOptions ConnOptions() {
  vnet::ConnectionOptions conn;
  conn.keep_alive = true;
  conn.max_requests = kRequestsPerConn;
  return conn;
}

vnet::ConcurrentServerOptions ServerOptions() {
  vnet::ConcurrentServerOptions options;
  options.lanes = kLanes;
  options.max_queue_depth = 64;
  options.block_when_full = false;  // the listener requires it
  options.connection = ConnOptions();
  return options;
}

vnet::ListenerOptions ListenerOpts() {
  vnet::ListenerOptions options;
  options.port = 0;  // ephemeral: back-to-back runs never collide on a port
  options.mode = vnet::ServeMode::kVirtineSnapshot;
  options.connection = ConnOptions();
  return options;
}

// The served stack.  Destruction runs listener, server, runtime: each
// drains before what it uses goes away.
struct HttpStack {
  explicit HttpStack(const std::string& file)
      : server(&runtime, &runtime.env(), ServerOptions()), listener(&server, ListenerOpts()) {
    runtime.env().PutFile("/index.html", file);
  }

  wasp::Runtime runtime;
  vnet::ConcurrentHttpServer server;
  vnet::Listener listener;
};

struct HttpCounters {
  vnet::ListenerStats listener;
  vnet::ServerCounters server;
  wasp::ExecutorStats executor;
  wasp::PoolStats pool;
};

HttpCounters Snapshot(HttpStack& s) {
  return HttpCounters{s.listener.stats(), s.server.counters(vnet::ServeMode::kVirtineSnapshot),
                      s.server.executor_stats(), s.runtime.pool().stats()};
}

// Waits until every connection job has finished and every accepted socket is
// closed, so counters read afterwards are complete.
bool WaitQuiescent(HttpStack& s) {
  const uint64_t deadline = NowNs() + 10'000'000'000ULL;
  while (NowNs() < deadline) {
    const wasp::ExecutorStats e = s.server.executor_stats();
    const vnet::ListenerStats l = s.listener.stats();
    if (e.queued == 0 && e.in_flight == 0 && l.closed == l.accepted) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return false;
}

// Drives one connection over `channel` the way a socket client would:
// request 0 must already be written; each response is read and checked
// before the next request goes out; the write side is closed at the end.
// Records one `name` span per good request under span `conn`, the first
// timed from `start_ns`.  Returns the number of good responses.
int ClosedLoopOverChannel(wasp::ByteChannel& channel, bool keepalive, const std::string& file,
                          uint64_t start_ns, Tracer* tracer, const char* name, uint64_t conn) {
  std::string buf;
  std::string body;
  const auto read = [&channel](char* dst, size_t len) {
    return static_cast<long>(channel.host().Read(dst, len));
  };
  int good = 0;
  uint64_t r0 = start_ns;
  for (int i = 0; i < RequestsPerConn(keepalive); ++i) {
    const int status = ReadResponse(&buf, &body, read);
    const uint64_t r1 = NowNs();
    if (status != 200 || body != file) {
      break;
    }
    ++good;
    tracer->Record(name, conn, conn, r0, r1);
    if (i + 1 < RequestsPerConn(keepalive)) {
      r0 = NowNs();
      channel.host().WriteString(RequestBytes(keepalive, i + 1));
    }
  }
  channel.host().CloseWrite();
  return good;
}

// Runs one call at a time on its own thread, so the calling thread can be
// the client of a synchronous server call.
class CallThread {
 public:
  CallThread() : thread_([this] { Loop(); }) {}
  ~CallThread() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  CallThread(const CallThread&) = delete;
  CallThread& operator=(const CallThread&) = delete;

  void Start(std::function<void()> fn) {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = std::move(fn);
    cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !fn_ && !running_; });
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      cv_.wait(lock, [this] { return stop_ || fn_; });
      if (!fn_) {
        return;
      }
      std::function<void()> fn = std::move(fn_);
      fn_ = nullptr;
      running_ = true;
      lock.unlock();
      fn();
      lock.lock();
      running_ = false;
      cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::function<void()> fn_;
  bool running_ = false;
  bool stop_ = false;
  std::thread thread_;  // declared last: it reads the members above
};

// Requests and failures of the in-process phases.
struct InprocTally {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  void Count(int expected, int good) {
    attempted += static_cast<uint64_t>(expected);
    ok += static_cast<uint64_t>(std::min(expected, good));
  }
};

// Median wall time of compiling the two handler programs the server
// compiles when it is constructed.
double MedianCompileMs(Report* report) {
  std::vector<double> ms;
  for (int i = 0; i < 3; ++i) {
    const uint64_t t0 = NowNs();
    auto single = vcc::CompileProgram(vrt::VlibcSource() + vnet::StaticHandlerSource(), "main",
                                      vrt::Env::kLong64);
    auto keepalive = vcc::CompileProgram(vrt::VlibcSource() + vnet::KeepAliveHandlerSource(),
                                         "main", vrt::Env::kLong64);
    if (!single.ok() || !keepalive.ok()) {
      report->Fail("handler compile failed");
    }
    ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
  }
  return Quantile(ms, 0.5);
}

// The traced run's layer attribution (see the file comment).  Returns the
// requests the server served through SubmitConnection outside the socket path.
uint64_t TraceHttp(HttpStack& stack, bool keepalive, const std::string& file, double seconds,
                   Tracer* tracer, ClientTally* socket_total, Report* report) {
  const uint16_t port = stack.listener.port();
  // 1. Socket segments, alternating so drift hits both sides alike.
  Phase untraced;
  Phase traced;
  const HttpCounters before = Snapshot(stack);
  for (int i = 0; i < 4; ++i) {
    const bool on = i % 2 == 1;
    tracer->set_enabled(on);
    const Phase seg = RunSocketPhase(port, keepalive, file, 0.125 * seconds, tracer);
    if (!WaitQuiescent(stack)) {
      report->Fail("server did not go idle after a socket segment");
    }
    (on ? traced : untraced).Merge(seg);
  }
  tracer->set_enabled(true);
  const HttpCounters after = Snapshot(stack);
  socket_total->Merge(untraced.tally);
  socket_total->Merge(traced.tally);

  const double forwarded =
      static_cast<double>(after.listener.requests_forwarded - before.listener.requests_forwarded);
  const double served = static_cast<double>(after.server.requests - before.server.requests);
  report->Add("listener.accepts_per_req",
              Ratio(static_cast<double>(after.listener.accepted - before.listener.accepted),
                    forwarded));
  report->Add("listener.edge_rejects",
              static_cast<double>(after.listener.edge_400 + after.listener.edge_413));
  report->Add("server.reuse_frac",
              Ratio(static_cast<double>(after.server.keepalive_reused -
                                        before.server.keepalive_reused),
                    served));
  const auto shed = [](const vnet::ServerCounters& c) {
    return c.rejected + c.quota_rejected + c.breaker_rejected;
  };
  report->Add("server.shed", static_cast<double>(shed(after.server) - shed(before.server)));
  report->Add("executor.peak_queue_depth", static_cast<double>(after.executor.peak_queue_depth));
  const auto refused = [](const wasp::ExecutorStats& e) {
    return e.rejected + e.quota_rejected + e.breaker_rejected;
  };
  report->Add("executor.rejected",
              static_cast<double>(refused(after.executor) - refused(before.executor)));
  report->Add("runtime.exits_per_req",
              Ratio(static_cast<double>(after.server.io_exits - before.server.io_exits), served));
  AddPoolMetrics(before.pool, after.pool, served, report);
  const double rps_untraced = Ratio(static_cast<double>(untraced.tally.ok), untraced.wall_s);
  const double rps_traced = Ratio(static_cast<double>(traced.tally.ok), traced.wall_s);
  report->Add("trace.overhead_frac", 1.0 - Ratio(rps_traced, rps_untraced));

  // 2. In process, one connection at a time: HandleConnection (snapshot),
  // Runtime::Invoke of the same image, HandleConnection (native), in turn.
  // The server call runs on `server_thread`; this thread is its client.
  vnet::StaticHttpServer handler(&stack.runtime, &stack.runtime.env());
  const vnet::ConnectionOptions conn = ConnOptions();
  const int per_conn = RequestsPerConn(keepalive);
  InprocTally inproc;
  uint64_t handle_ns = 0;
  uint64_t native_ns = 0;
  uint64_t handled = 0;
  uint64_t natively_handled = 0;
  std::vector<wasp::InvokeStats> invokes;
  CallThread server_thread;
  enum class Path { kHandle, kInvoke, kNative };
  const uint64_t inproc_end = NowNs() + static_cast<uint64_t>(0.2 * seconds * 1e9);
  do {
    for (const Path path : {Path::kHandle, Path::kInvoke, Path::kNative}) {
      wasp::ByteChannel channel;
      channel.host().WriteString(RequestBytes(keepalive, 0));
      const uint64_t id = tracer->NewId();
      uint64_t t0 = 0;
      uint64_t t1 = 0;
      vbase::Result<vnet::ServeStats> result = vnet::ServeStats{};
      wasp::RunOutcome outcome;
      server_thread.Start([&] {
        t0 = NowNs();
        if (path == Path::kInvoke) {
          wasp::VirtineSpec spec;  // built the way the server builds it for this image
          spec.image = &handler.keepalive_image();
          spec.key = kKeepAliveKey;
          spec.mem_size = 1ULL << 20;
          spec.policy = wasp::kPolicyStream | wasp::kPolicyFileIo |
                        wasp::MaskOf(wasp::kHcSnapshot) | wasp::MaskOf(wasp::kHcReturnData);
          spec.use_snapshot = true;
          spec.env = &stack.runtime.env();
          spec.channel = &channel.guest();
          outcome = stack.runtime.Invoke(spec);
        } else {
          result = handler.HandleConnection(channel,
                                            path == Path::kNative ? vnet::ServeMode::kNative
                                                                  : vnet::ServeMode::kVirtineSnapshot,
                                            conn);
        }
        t1 = NowNs();
      });
      const int good = ClosedLoopOverChannel(channel, keepalive, file, NowNs(), tracer,
                                             "inproc.request", id);
      server_thread.Wait();
      if (path == Path::kInvoke) {
        const bool clean = outcome.status.ok() && outcome.fault == wasp::FaultKind::kNone &&
                           outcome.exit_code == 0;
        inproc.Count(per_conn, clean ? good : 0);
        if (clean) {
          RecordInvokeSpans(tracer, id, id, t0, outcome.stats);
          tracer->Record("inproc.invoke", id, 0, t0, t1, id);
          invokes.push_back(outcome.stats);
        }
        continue;
      }
      const bool native = path == Path::kNative;
      inproc.Count(per_conn, result.ok() ? good : 0);
      tracer->Record(native ? "inproc.native" : "inproc.handle", id, 0, t0, t1, id);
      (native ? native_ns : handle_ns) += t1 - t0;
      (native ? natively_handled : handled) += result.ok() ? result->requests : 0;
    }
  } while (NowNs() < inproc_end);
  report->Add("server.handle_us",
              Ratio(static_cast<double>(handle_ns) / 1e3, static_cast<double>(handled)));
  report->Add("server.native_handle_us",
              Ratio(static_cast<double>(native_ns) / 1e3, static_cast<double>(natively_handled)));

  // 3. Closed-loop clients through SubmitConnection over ByteChannels.  A
  // connection's dispatch span runs from the submit to its future resolving;
  // its child is the server's own HandleConnection time (ServeStats.wall_ns),
  // laid back from the resolve, so the dispatch span's self time is the
  // executor queue wait.
  std::vector<InprocTally> submit(kClients);
  std::vector<std::thread> threads;
  const uint64_t submit_end = NowNs() + static_cast<uint64_t>(0.3 * seconds * 1e9);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      do {
        wasp::ByteChannel channel;
        const uint64_t id = tracer->NewId();
        channel.host().WriteString(RequestBytes(keepalive, 0));
        const uint64_t t_submit = NowNs();
        auto done = stack.server.SubmitConnection(channel, vnet::ServeMode::kVirtineSnapshot,
                                                  kRoute, conn);
        const int good = ClosedLoopOverChannel(channel, keepalive, file, t_submit, tracer,
                                               "submit.request", id);
        auto stats = done.get();
        const uint64_t t_done = NowNs();
        const uint64_t dispatch = tracer->NewId();
        if (stats.ok()) {
          tracer->Record("handle", id, dispatch,
                         t_done - std::min(stats->wall_ns, t_done - t_submit), t_done);
        }
        tracer->Record("dispatch", id, id, t_submit, t_done, dispatch);
        tracer->Record("submit.conn", id, 0, t_submit, t_done, id);
        submit[c].Count(per_conn, stats.ok() ? good : 0);
      } while (NowNs() < submit_end);
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  uint64_t submitted_ok = 0;
  for (const InprocTally& t : submit) {
    inproc.attempted += t.attempted;
    inproc.ok += t.ok;
    submitted_ok += t.ok;
  }

  const std::vector<Span> spans = tracer->spans();
  const std::vector<double> queue_us = SelfTimesUs(spans, "dispatch");
  report->Add("executor.queue_wait_us_p50", Quantile(queue_us, 0.5));
  report->Add("executor.queue_wait_us_p99", Quantile(queue_us, 0.99));
  const std::vector<double> socket_us = DurationsUs(spans, "socket.request");
  report->Add("client.lat_p99_us", Quantile(socket_us, 0.99));
  report->Add("listener.self_us",
              Quantile(socket_us, 0.5) - Quantile(DurationsUs(spans, "submit.request"), 0.5));

  AddInvokeMetrics(invokes, static_cast<double>(invokes.size()) * per_conn, report);
  report->Add("snapshot.restore_us_p50", Quantile(DurationsUs(spans, "restore"), 0.5));
  report->Add("snapshot.resident_mb",
              static_cast<double>(stack.runtime.pool().stats().affine_resident_bytes) / 1048576.0);
  report->Add("vcc.compile_ms", MedianCompileMs(report));

  report->attempted += inproc.attempted;
  report->failed += inproc.attempted - inproc.ok;
  return submitted_ok;
}

}  // namespace

void RunHttp(const Args& args, bool keepalive, Report* report) {
  const std::string file = MakeFile(args.seed);
  Tracer tracer;
  const int setups = args.trace ? 1 : kSetups;
  std::unique_ptr<HttpStack> stack;
  std::vector<double> setup_s;
  ClientTally socket_total;  // every socket request the live stack served
  for (int s = 0; s < setups; ++s) {
    stack.reset();
    const uint64_t t0 = NowNs();
    stack = std::make_unique<HttpStack>(file);
    const vbase::Status started = stack->listener.Start();
    if (!started.ok()) {
      report->Fail("listener start: " + started.ToString());
      return;
    }
    const Phase warm =
        RunSocketPhase(stack->listener.port(), keepalive, file, 0, &tracer,
                       keepalive ? kWarmupConnsKeepAlive : kWarmupConnsConnect);
    if (!WaitQuiescent(*stack)) {
      report->Fail("server did not go idle after warm-up");
    }
    const uint64_t t1 = NowNs();
    setup_s.push_back(s == 0 ? SinceProcessStart(t1) : static_cast<double>(t1 - t0) / 1e9);
    if (warm.tally.failed != 0) {
      report->Fail("warm-up requests failed: " + std::to_string(warm.tally.failed));
    }
    socket_total = warm.tally;
  }

  uint64_t submitted_ok = 0;  // served through SubmitConnection, not the listener
  if (!args.trace) {
    const HttpCounters before = Snapshot(*stack);
    const Phase p = RunSocketPhase(stack->listener.port(), keepalive, file, args.seconds, &tracer,
                                   1, kSegments);
    if (!WaitQuiescent(*stack)) {
      report->Fail("server did not go idle after the timed phase");
    }
    const HttpCounters after = Snapshot(*stack);
    socket_total.Merge(p.tally);
    const ClientTally& t = p.tally;
    report->attempted = t.attempted;
    report->failed = t.failed;
    const double served = static_cast<double>(after.server.requests - before.server.requests);
    // Rate, median latency and CPU per segment of the timed phase (by
    // completion time), reported as the median over segments so one
    // disturbed stretch does not move a run.
    const double segment_s = args.seconds / kSegments;
    std::vector<double> rps;
    std::vector<double> p50s;
    std::vector<double> cpu_per_req;
    Histogram all;
    for (int k = 0; k < kSegments; ++k) {
      const Histogram& h = t.lat[static_cast<size_t>(k)];
      const double count = static_cast<double>(h.count());
      all.Merge(h);
      rps.push_back(count / segment_s);
      p50s.push_back(h.Quantile(0.5));
      cpu_per_req.push_back(Ratio((p.cpu_marks[k + 1] - p.cpu_marks[k]) * 1e6, count));
      std::fprintf(stderr, "  segment %d: %llu samples, p50 %.1f us, p99 %.1f us, cpu %.1f us/req\n",
                   k, static_cast<unsigned long long>(h.count()), p50s.back(), h.Quantile(0.99),
                   cpu_per_req.back());
    }
    report->Add("setup_s", Quantile(setup_s, 0.5));
    report->Add("rps", Quantile(rps, 0.5));
    report->Add("lat_p50_us", Quantile(p50s, 0.5));
    report->Add("ok_frac", Ratio(static_cast<double>(t.ok), static_cast<double>(t.attempted)));
    report->Add("modeled_cycles_per_req",
                Ratio(static_cast<double>(after.server.modeled_cycles -
                                          before.server.modeled_cycles),
                      served));
    report->Add("cpu_us_per_req", Quantile(cpu_per_req, 0.5));
    report->Add("peak_rss_mb", PeakRssMb());
    std::fprintf(stderr,
                 "%s: %llu requests ok of %llu over %llu connections in %.2f s "
                 "(p50 %.1f us, p99 %.1f us over %llu samples), set-up median %.3f s\n",
                 args.workload.c_str(), static_cast<unsigned long long>(t.ok),
                 static_cast<unsigned long long>(t.attempted),
                 static_cast<unsigned long long>(t.connections), p.wall_s, all.Quantile(0.5),
                 all.Quantile(0.99), static_cast<unsigned long long>(all.count()),
                 Quantile(setup_s, 0.5));
  } else {
    const uint64_t attempted_before = socket_total.attempted;
    const uint64_t failed_before = socket_total.failed;
    submitted_ok = TraceHttp(*stack, keepalive, file, args.seconds, &tracer, &socket_total, report);
    report->attempted += socket_total.attempted - attempted_before;
    report->failed += socket_total.failed - failed_before;
    if (!args.span_file.empty() && !tracer.WriteCsv(args.span_file)) {
      report->Fail("could not write span file " + args.span_file);
    }
  }

  // Drain before the final counters are read.
  stack->listener.Stop();
  const vnet::ListenerStats l = stack->listener.stats();
  const vnet::ServerCounters sc = stack->server.counters(vnet::ServeMode::kVirtineSnapshot);
  const wasp::ExecutorStats e = stack->server.executor_stats();
  const wasp::PoolStats pool = stack->runtime.pool().stats();
  if (socket_total.unclosed != 0) {
    report->Fail("connections left open by the server: " + std::to_string(socket_total.unclosed));
  }
  if (socket_total.connect_errors != 0) {
    report->Fail("connect errors: " + std::to_string(socket_total.connect_errors));
  }
  report->Expect("client successes == listener requests_forwarded", socket_total.ok,
                 l.requests_forwarded);
  report->Expect("listener accepted == client connections", l.accepted, socket_total.connections);
  report->Expect("listener requests_forwarded + in-process submits == server requests",
                 l.requests_forwarded + submitted_ok, sc.requests);
  report->Expect("server requests == status_2xx", sc.requests, sc.status_2xx);
  report->Expect("executor submitted == completed + faulted + queued + in_flight", e.submitted,
                 e.completed + e.faulted + e.queued + e.in_flight);
  report->Expect("pool acquires == lane_cache_hits + freelist_hits + slow_path_acquires",
                 pool.acquires, pool.lane_cache_hits + pool.freelist_hits + pool.slow_path_acquires);
}

}  // namespace perfbench
