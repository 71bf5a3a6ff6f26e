// Load generation: a Locust-like workload driver (the paper generates its
// Figure 13/15 load with Locust and a custom request generator).
//
// Closed-loop mode: N worker threads issue requests back to back (Figure
// 13's localhost generator).  Results aggregate per-request latencies and
// the harmonic-mean throughput the paper reports.
//
// Open-loop mode: ReplayTrace drives one dispatch per arrival of a
// deterministic arrival trace (uniform spacing with ±12.5% jitter inside each
// phase — the paper's bursty Locust profile) without ever waiting for a
// completion, so bursts land on the server at full width and admission
// control / queueing is what absorbs them.  The same generator feeds the
// Figure 15 simulator and replay, so modeled and measured platforms see an
// identical request stream.
#ifndef SRC_VNET_LOADGEN_H_
#define SRC_VNET_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <future>
#include <vector>

#include "src/base/stats.h"

namespace vnet {

// Issues one request; returns its latency in microseconds (modeled or wall,
// the caller decides the currency) or a negative value on failure.
using RequestFn = std::function<double()>;

// One phase of an open-loop arrival pattern (e.g. ramp, burst, ramp).
struct LoadPhase {
  double rps;         // arrival rate during the phase
  double duration_s;  // phase length
};

struct LoadResult {
  std::vector<double> latencies_us;
  uint64_t failures = 0;
  double wall_seconds = 0;
  // Requests per second computed from the latency samples as the paper does
  // for Figure 13b: harmonic mean of per-request throughput (1e6/latency).
  double harmonic_mean_rps = 0;
  vbase::Summary latency;
};

// Runs `requests_per_worker` sequential requests on each of `workers`
// threads.  RequestFn must be thread-safe.
LoadResult RunClosedLoop(int workers, int requests_per_worker, const RequestFn& fn);

// Real-socket closed loop against a vnet::Listener on 127.0.0.1.
struct SocketLoadOptions {
  uint16_t port = 0;
  int clients = 4;               // concurrent client threads
  int requests_per_client = 64;  // per-thread request budget (fixed-count mode)
  // The connection-reuse axis: requests issued per TCP connection before
  // reconnecting.  1 = connection-per-request; the last request of each
  // connection carries "Connection: close".
  int requests_per_connection = 1;
  std::string target = "/static.html";
  // > 0: wall-clock-paced soak — every client loops until the deadline
  // instead of counting to requests_per_client.
  double duration_s = 0;
};

// Each client thread connects, issues requests_per_connection keep-alive
// requests per connection (framing responses with FrameResponseHead), and
// reconnects until its budget (or the soak deadline) is spent.  Latencies
// are wall microseconds per request; a transport or framing error counts as
// a failure and forces a reconnect.  wall_seconds spans the whole loop, so
// latencies_us.size() / wall_seconds is the measured socket RPS.
LoadResult RunSocketClosedLoop(const SocketLoadOptions& options);

// Virtual-time lane scheduler: each placed request starts on the
// earliest-free of N serving lanes, no earlier than its own earliest-start
// time, and occupies the lane for its service time.  It is the one lane
// placement of the virtual-time paths: fig13's closed loop below and
// GovernTrace (serverless.h), which also replays Figure 15 and the fig16/
// fig17 governance runs.  One implementation, so their currencies cannot
// drift.
class LaneSchedule {
 public:
  explicit LaneSchedule(int lanes);
  // Returns the request's completion time (start + service).
  double Place(double earliest_start_us, double service_us);
  // When the lane the next Place would use frees up.
  double EarliestFree() const;

 private:
  std::vector<double> lane_free_us_;
};

// Deterministic virtual-time closed loop: `clients` logical clients issue
// requests back to back over `lanes` serving lanes; request i consumes
// services_us[i] of lane time (measured service costs — e.g. the modeled
// cycles of real invocations — consumed in order; negative entries count as
// failures and occupy no lane time).  Per-request latency is virtual queue
// wait plus service, so the result scales with the lane count even on an
// oversubscribed host where wall time cannot express lane parallelism.
// This is the deterministic currency of the Figure 13 lane sweep, the
// closed-loop sibling of fig9's modeled makespan.
LoadResult ClosedLoopVirtualTime(int clients, int lanes,
                                 const std::vector<double>& services_us);

// Deterministic arrival offsets (microseconds, ascending) for the open-loop
// phases: uniform spacing within each phase with ±12.5% jitter (a
// quarter-gap uniform window) so bursts are not perfectly synchronized.
// Shared by the Figure 15 simulator and the
// executor-driven replay so both see the same trace for a given seed.
std::vector<double> GenerateArrivalTrace(const std::vector<LoadPhase>& phases,
                                         uint64_t seed = 42);

// Dispatches request `index` of the trace (e.g. submits a connection to the
// ConcurrentHttpServer) and returns a future resolving to its service
// latency in microseconds, negative on failure.
using AsyncRequestFn = std::function<std::future<double>(size_t index)>;

struct TraceResult {
  std::vector<double> arrivals_us;  // the virtual timeline of the trace
  std::vector<double> service_us;   // per-request measured service (neg = failure)
  uint64_t failures = 0;
  double wall_seconds = 0;          // real elapsed time of the replay
  vbase::Summary service;           // over successful requests
};

// Open-loop trace replay: dispatches fn(i) for every arrival in trace order
// without waiting on completions (the submitted-to executor's admission
// policy provides the backpressure), then harvests every future.  Arrivals
// define the virtual timeline reported alongside the measured services;
// dispatch itself is immediate, so the trace's burst width is preserved.
TraceResult ReplayTrace(const std::vector<LoadPhase>& phases, const AsyncRequestFn& fn,
                        uint64_t seed = 42);

}  // namespace vnet

#endif  // SRC_VNET_LOADGEN_H_
