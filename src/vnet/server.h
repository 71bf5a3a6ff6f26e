// The HTTP servers of Sections 4.2 and 6.3.
//
// * KeepAliveHandlerSource(): the one static-file guest handler (Figure
//   13).  It serves a connection's requests up to a cap passed as its
//   virtine argument, so a single-shot connection is the same program with
//   a cap of one, and that one request costs exactly the paper's seven host
//   interactions: recv, stat, open, read, send, close, exit.  It validates
//   each request (complete header block, Host on HTTP/1.1) before touching
//   any file.
// * StaticHttpServer: serves a connection either natively (host C++
//   handler, the baseline) or in a virtine (with or without snapshotting).
//   Every mode enforces ConnectionOptions::max_requests.
// * ConcurrentHttpServer: the executor-backed front end — every connection
//   is dispatched as a job on a wasp::Executor, so N lanes serve N
//   connections concurrently and bounded admission (reject mode answers
//   overflow connections with an immediate 503) makes burst overload a
//   first-class behavior.  This is the serving path Figure 13's lane sweep
//   measures.
//
// Key-scoped governance (the routed SubmitConnection overload): the front
// end maps each route onto a key class (latency-sensitive vs batch) and a
// per-route admission key, so one hot route can neither monopolize the
// executor queue (per-key quota -> HTTP 429, "this tenant backs off") nor
// starve interactive routes behind its backlog (weighted class dequeue).
// Global overload still sheds with 503 ("the server is full"), keeping the
// two failure modes distinguishable at the protocol level.
#ifndef SRC_VNET_SERVER_H_
#define SRC_VNET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <string>

#include "src/base/status.h"
#include "src/isa/image.h"
#include "src/wasp/channel.h"
#include "src/wasp/executor.h"
#include "src/wasp/host_env.h"
#include "src/wasp/runtime.h"

namespace vnet {

// Guest source (vcc dialect; concatenate after vlibc).  One invocation
// serves every request of a connection (recv -> frame -> serve loop until
// EOF, "Connection: close", a 400 or the cap in argument word 2, when argc
// is nonzero), streaming request bodies through the channel in bounded
// chunks.  It exits with the last request's verdict (0 = 200, 1 = 400,
// 2 = 404, 3 = 413, 4 = 500) and leaves its tally in argument-page word 0.
std::string KeepAliveHandlerSource();
// The same program under its older name.
std::string StaticHandlerSource();

enum class ServeMode {
  kNative,           // host C++ handler, no isolation
  kVirtine,          // fresh virtine per connection
  kVirtineSnapshot,  // virtine per connection, snapshot fast path
};

const char* ServeModeName(ServeMode mode);

// Per-connection serving policy.  The default (keep_alive=false) preserves
// the one-request-per-connection contract of the original benchmarks; the
// listener front end turns keep-alive on so one acquired shell serves many
// requests before release.
struct ConnectionOptions {
  // Serve requests in a loop until EOF, "Connection: close", or
  // max_requests; off, exactly one request is served.
  bool keep_alive = false;
  // Keep-alive request cap per connection, enforced in every mode: the
  // native loop stops serving, the virtine guest gets it as its argument,
  // and the listener closes the stream; 0 = unlimited.
  int max_requests = 64;
  // A request head that has not terminated within this many bytes is
  // answered 413 (matches the guest handler's receive window, so every
  // ServeMode rejects the same oversized head).
  size_t max_head_bytes = 2048;
  // Native-mode Content-Length cap: a declared body beyond it is answered
  // 413 before the bytes are read.  Virtine guests stream-and-discard
  // bodies in bounded chunks instead, so the socket front end enforces this
  // cap for every mode at the edge (ListenerOptions.max_body_bytes).
  size_t max_body_bytes = 1ULL << 20;
  // Bounded per-read window for the growable request read loop and for
  // response-body streaming (replaces the old fixed 2 KB stack buffers as
  // the unit of incremental I/O, not as a size cap).
  size_t read_chunk = 2048;
};

struct ServeStats {
  int status = 0;               // HTTP status of the last request served
  // Per-connection request accounting (keep-alive serves many requests per
  // connection; a single-shot connection reports at most one).
  uint64_t requests = 0;
  uint64_t r2xx = 0;
  uint64_t r4xx = 0;
  uint64_t r5xx = 0;
  // Non-kNone when the guest faulted mid-request: the connection was
  // answered 500 with the fault kind as the reason phrase, the shell was
  // quarantined, and the front end counts the request as faulted rather
  // than errored (the server itself is healthy — one invocation died).
  wasp::FaultKind fault = wasp::FaultKind::kNone;
  uint64_t modeled_cycles = 0;  // end-to-end modeled cost of handling
  uint64_t guest_cycles = 0;
  uint64_t io_exits = 0;
  uint64_t wall_ns = 0;
  // Modeled cost of the same handler logic with no virtualization at all
  // (guest cycles minus VM-exit charges): the native-equivalent cost used
  // as the Figure 13 baseline denominator.
  uint64_t deisolated_cycles = 0;
};

// A single-threaded static-content HTTP server over loopback channels.
class StaticHttpServer {
 public:
  // `env` holds the served files; must outlive the server.
  StaticHttpServer(wasp::Runtime* runtime, wasp::HostEnv* env);

  // Serves one connection whose bytes arrive on `channel.host()`.  With the
  // default options exactly one request is handled (the request must already
  // be written, or at least started, on the channel); with keep_alive the
  // connection is served as a request loop until the peer closes its write
  // end, sends "Connection: close", or max_requests is reached — in the
  // virtine modes one acquired (affine) shell spans the whole loop.
  // Thread-safe: concurrent connections share only the runtime (sharded
  // pool + read-mostly snapshot store) and the mutex-guarded HostEnv.
  vbase::Result<ServeStats> HandleConnection(wasp::ByteChannel& channel, ServeMode mode,
                                             const ConnectionOptions& conn = {});

  const visa::Image& keepalive_image() const { return keepalive_image_; }

 private:
  vbase::Result<ServeStats> HandleNative(wasp::ByteChannel& channel,
                                         const ConnectionOptions& conn);
  vbase::Result<ServeStats> HandleVirtine(wasp::ByteChannel& channel, bool snapshot,
                                          const ConnectionOptions& conn);

  wasp::Runtime* runtime_;
  wasp::HostEnv* env_;
  visa::Image keepalive_image_;
};

struct ConcurrentServerOptions {
  int lanes = 4;                // executor workers serving connections
  size_t max_queue_depth = 0;   // bounded admission; 0 = unbounded
  // Full-queue policy: block the submitter until a lane frees (closed-loop
  // clients) or answer the connection with an immediate 503 (load shedding).
  bool block_when_full = true;
  // Per-key admission quota (jobs queued + in flight under one key); 0 =
  // unlimited.  Exceeding it answers the connection with 429 instead of
  // 503.  Routed submissions are keyed per route; unrouted snapshot-mode
  // submissions all share the handler's affinity key and therefore one
  // quota pool — leave this 0 if that path should only ever shed 503.
  size_t key_quota = 0;
  // Per-key overrides of key_quota for routed submissions (keys are route
  // names); forwarded to ExecutorOptions::key_quota_overrides.  A listed
  // route uses its override (0 = unlimited); unlisted routes use key_quota.
  std::map<std::string, size_t> key_quota_overrides = {};
  // Route -> scheduling class for routed submissions; unlisted routes are
  // latency-sensitive.  Weighted dequeue (ExecutorOptions::batch_weight)
  // keeps batch routes from starving interactive ones and vice versa.
  std::map<std::string, wasp::KeyClass> route_classes;
  int batch_weight = 4;  // forwarded to ExecutorOptions::batch_weight
  // Fault-recovery policy forwarded to ExecutorOptions::recovery.  With the
  // breaker enabled, a route whose sustained fault rate trips its breaker is
  // shed with a fast 429 carrying a Retry-After header — no shell is burned
  // probing a key that is currently killing every invocation.
  wasp::RecoveryOptions recovery = {};
  // Default per-connection policy for SubmitConnection (overridable per
  // submission); the listener passes its own.
  ConnectionOptions connection = {};
};

// Monotone per-mode aggregates over everything a server instance served.
struct ServerCounters {
  uint64_t accepted = 0;       // connections admitted to the executor queue
  uint64_t rejected = 0;       // connections shed with a 503 at admission
  uint64_t quota_rejected = 0; // connections shed with a 429 (route quota)
  uint64_t breaker_rejected = 0;  // connections shed with a 429 (open breaker)
  uint64_t completed = 0;      // handler ran to completion (any status)
  uint64_t errors = 0;         // handler returned a non-OK status
  uint64_t faulted = 0;        // guest faulted; answered 500-with-reason
  uint64_t requests = 0;       // requests served across all connections
  // Requests beyond the first on their connection: each one reused the
  // connection's acquired shell instead of paying a fresh dispatch+restore.
  uint64_t keepalive_reused = 0;
  uint64_t status_2xx = 0;
  uint64_t status_4xx = 0;
  uint64_t status_5xx = 0;
  uint64_t modeled_cycles = 0;  // summed modeled service cost
  uint64_t io_exits = 0;        // summed hypercall exits (virtine modes)
};

// The concurrent serving stack: StaticHttpServer's per-connection logic
// dispatched through a dedicated wasp::Executor.
class ConcurrentHttpServer {
 public:
  // `env` holds the served files; must outlive the server.  The destructor
  // drains every accepted connection before returning.
  ConcurrentHttpServer(wasp::Runtime* runtime, wasp::HostEnv* env,
                       ConcurrentServerOptions options = {});

  // Dispatches one connection (request already written to `channel.host()`)
  // through the executor; the future resolves with the connection's
  // ServeStats once a lane has served it.  The caller keeps `channel` alive
  // until the future resolves.  When bounded admission rejects the
  // connection, a 503 response is written to the channel immediately and
  // the returned future is already resolved with status 503.
  std::future<vbase::Result<ServeStats>> SubmitConnection(wasp::ByteChannel& channel,
                                                          ServeMode mode);

  // Routed variant: `route` names the request's target as the front end
  // knows it (the dispatch key — e.g. from the listener's vhost/path map).
  // It selects the connection's key class (options().route_classes) and its
  // admission key, so per-route quotas and class weighting apply.  A
  // quota-shed connection is answered 429; global overload stays 503.
  std::future<vbase::Result<ServeStats>> SubmitConnection(wasp::ByteChannel& channel,
                                                          ServeMode mode,
                                                          const std::string& route);

  // Per-submission connection policy (the listener submits with its own
  // keep-alive/caps); the overloads above use options().connection.
  std::future<vbase::Result<ServeStats>> SubmitConnection(wasp::ByteChannel& channel,
                                                          ServeMode mode,
                                                          const std::string& route,
                                                          const ConnectionOptions& conn);

  ServerCounters counters(ServeMode mode) const;
  wasp::ExecutorStats executor_stats() const { return executor_.stats(); }
  size_t queue_depth() const { return executor_.queue_depth(); }
  const ConcurrentServerOptions& options() const { return options_; }
  int lanes() const { return static_cast<int>(executor_.workers()); }

 private:
  // Shared dispatch path: `key` is the executor affinity/quota key, `klass`
  // the scheduling class.
  std::future<vbase::Result<ServeStats>> Dispatch(wasp::ByteChannel& channel, ServeMode mode,
                                                  std::string key, wasp::KeyClass klass,
                                                  const ConnectionOptions& conn);

  struct AtomicCounters {
    std::atomic<uint64_t> accepted{0};
    std::atomic<uint64_t> rejected{0};
    std::atomic<uint64_t> quota_rejected{0};
    std::atomic<uint64_t> breaker_rejected{0};
    std::atomic<uint64_t> completed{0};
    std::atomic<uint64_t> errors{0};
    std::atomic<uint64_t> faulted{0};
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> keepalive_reused{0};
    std::atomic<uint64_t> status_2xx{0};
    std::atomic<uint64_t> status_4xx{0};
    std::atomic<uint64_t> status_5xx{0};
    std::atomic<uint64_t> modeled_cycles{0};
    std::atomic<uint64_t> io_exits{0};
  };

  ConcurrentServerOptions options_;
  StaticHttpServer inner_;
  AtomicCounters counters_[3];  // indexed by ServeMode
  // Declared last: its destructor drains queued connection jobs, which still
  // touch inner_ and counters_, so it must be destroyed first.
  wasp::Executor executor_;
};

}  // namespace vnet

#endif  // SRC_VNET_SERVER_H_
