// Vespid — the prototype serverless platform of Section 7.1 (Figure 15) —
// plus the simulated container platform it is compared against.
//
// Vespid registers JavaScript (microjs) functions and runs each invocation
// in a distinct virtine through the Wasp runtime (pool + snapshot).  The
// comparison platform models a container-per-invocation OpenWhisk-style
// deployment.  Because this reproduction has no Docker/OpenWhisk, the
// container platform is an explicit analytic model (DESIGN.md §2):
// cold-start and warm-start service costs are constants calibrated to
// published container cold-start measurements.
//
// The *virtine* platform is measured, not modeled, in two steps shared by
// every measured figure.  Vespid::MeasureMultiTenant drives an arrival
// trace through the real wasp::Executor, one virtine invocation per
// arrival, and records each one's modeled service, cold flag and fault
// flag.  GovernTrace then places those services on virtual lanes
// (LaneSchedule) under an optional admission policy.  ReplayBurstyLoad is
// Figure 15's pairing of the two: the paper's bursty open-loop pattern
// (ramp up, two bursts, ramp down — the Locust profile) as one tenant,
// replayed ungoverned.  Both platforms emit the same SimResult currency
// over the same arrival trace (vnet::GenerateArrivalTrace with the same
// seed), so Figure 15 compares a measured virtine platform against the
// calibrated container baseline bucket for bucket.
#ifndef SRC_VNET_SERVERLESS_H_
#define SRC_VNET_SERVERLESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/stats.h"
#include "src/base/status.h"
#include "src/isa/image.h"
#include "src/vnet/loadgen.h"
#include "src/wasp/executor.h"
#include "src/wasp/runtime.h"

namespace vnet {

// --- Bursty-load timeline (Figure 15) ---------------------------------------

struct SimPoint {
  double t_s;            // timeline bucket
  double offered_rps;    // arrivals in the bucket
  double completed_rps;  // completions in the bucket
  double mean_latency_us;
  double p99_latency_us;
  uint64_t cold_starts;
};

struct SimResult {
  std::vector<SimPoint> timeline;  // 1-second buckets
  vbase::Summary latency_us;
  uint64_t total_requests = 0;
  uint64_t total_cold_starts = 0;
};

// An executor model: how long one invocation occupies a worker, and what a
// cold start costs.
struct ExecutorModel {
  std::string name;
  double warm_service_us;   // service time with a warm instance
  double cold_extra_us;     // additional first-use cost of a new instance
  int max_instances;        // concurrency cap
  double idle_timeout_s;    // instance reclaim after idleness
};

// Runs the open-loop pattern against an executor model in virtual time
// (the container baseline; the virtine side uses Vespid::ReplayBurstyLoad).
// It keeps its own loop: its instances spawn cold under a cap and are
// reclaimed when idle, which lane placement does not model.
SimResult SimulateBurstyLoad(const std::vector<LoadPhase>& phases, const ExecutorModel& model,
                             uint64_t seed = 42);

// --- Multi-tenant governance (key-scoped quotas over mixed traces) ----------

// One tenant of a multi-function trace: a registered function, its own
// arrival pattern, a scheduling class, and the payload its invocations get.
struct TenantSpec {
  std::string name;
  std::vector<LoadPhase> phases;
  wasp::KeyClass klass = wasp::KeyClass::kLatency;
  std::vector<uint8_t> payload;
};

// A merged multi-tenant arrival trace with the *measured* modeled service
// cost of one real executor invocation per arrival (mixed snapshot keys
// contending for pool shells and affine generations).  Produced once by
// Vespid::MeasureMultiTenant; governance disciplines are then evaluated
// deterministically over it by GovernTrace, so governed and ungoverned
// runs compare on identical measured services.
struct MeasuredTrace {
  std::vector<std::string> names;          // per tenant
  std::vector<wasp::KeyClass> classes;     // per tenant
  std::vector<double> arrivals_us;         // merged, ascending
  std::vector<int> tenant;                 // arrival -> tenant index
  std::vector<double> service_us;          // measured modeled service cost
  std::vector<bool> cold;                  // arrival booted instead of restored
  // Arrival's invocation died with a FaultKind (chaos injection or a real
  // guest fault).  A faulted arrival consumed real service — it occupied a
  // lane and its quota slot until it died — so GovernTrace replays it as
  // load, but counts it per tenant instead of as a completion.  May be
  // empty (hand-built traces): treated as all-false.
  std::vector<bool> faulted;
  uint64_t wall_ns = 0;                    // real elapsed time of the measuring run
};

// Per-tenant outcome of a governed replay.
struct TenantOutcome {
  std::string name;
  uint64_t offered = 0;        // arrivals in the trace
  uint64_t completed = 0;      // admitted and served fault-free
  uint64_t faulted = 0;        // admitted, occupied a lane, died with a fault
  double fault_rate = 0;       // faulted / offered
  uint64_t shed_quota = 0;     // rejected by the per-key quota
  uint64_t shed_overload = 0;  // rejected by the global queue bound
  uint64_t shed_breaker = 0;   // rejected by the tenant's open circuit breaker
  uint64_t breaker_opens = 0;  // times the tenant's breaker tripped open
  double shed_rate = 0;        // (shed_quota + shed_overload + shed_breaker) / offered
  double mean_queue_wait_us = 0;
  double p99_queue_wait_us = 0;  // the governance claim's currency
  double mean_latency_us = 0;    // queue wait + service
  uint64_t cold_starts = 0;
};

struct GovernedReplay {
  std::vector<TenantOutcome> tenants;  // in MeasuredTrace tenant order
  SimResult sim;                       // merged timeline over served requests
  // Jain's fairness index over per-tenant admitted fractions: 1.0 = every
  // tenant got the same share of its offered load through admission.
  double fairness_index = 0;
  double aggregate_rps = 0;  // completed requests / virtual makespan
  double makespan_s = 0;     // first arrival to last completion
};

// Replays the measured trace under the executor's admission discipline in
// virtual time, deterministically for a given trace.  Each tenant name is
// an executor key, and one wasp::AdmissionPolicy built from `options` makes
// the key decisions the live executor makes: breaker, then quota, at each
// arrival; load, fault-rate EWMA and breaker at each completion; the
// weighted (or FIFO) class pick at each dequeue onto `options.workers`
// serving lanes.  The global bound (max_queue_depth) sheds as overload.
// Only the open-loop reject policy is replayed: a bounded queue with
// block_when_full set is a checked error.  Retry is not replayed either —
// it changes the measured services, so it belongs to the measuring run.
// Lanes dequeue FIFO within a class onto the earliest-free lane
// (LaneSchedule).  That is exactly a one-worker executor's order (a single
// worker skips the keyed affinity scan); with more lanes the scan is not
// modeled.  With no governance set (the ExecutorOptions defaults: no quota,
// unbounded queue, breaker off) and one class, this is plain FIFO lane
// placement in arrival order.
GovernedReplay GovernTrace(const MeasuredTrace& trace, const wasp::ExecutorOptions& options);

// --- Vespid: virtine-backed function platform -------------------------------

struct ReplayOptions {
  int concurrency = 8;  // executor lanes = the platform's serving width
  uint64_t seed = 42;   // must match the simulator's to share the trace
  // Passed to MeasureMultiTenant: pace submissions on the real clock.
  bool pace_wall_clock = false;
};

class Vespid {
 public:
  explicit Vespid(wasp::Runtime* runtime);

  // Registers a microjs function under `name`.
  vbase::Status Register(const std::string& name, const std::string& microjs_source);

  struct Invocation {
    std::vector<uint8_t> output;
    uint64_t modeled_cycles = 0;
    uint64_t wall_ns = 0;
    bool cold = false;    // no snapshot existed yet
    bool affine = false;  // warm start served by a snapshot-affine delta restore
    uint64_t restored_bytes = 0;  // restore copy volume (full image vs delta)
  };

  // Invokes `name` with `payload` in a fresh virtine.
  vbase::Result<Invocation> Invoke(const std::string& name,
                                   const std::vector<uint8_t>& payload);

  struct ReplayResult {
    // Same timeline currency as SimulateBurstyLoad: per-request latency is
    // virtual queue wait plus the *measured* modeled service cost of that
    // request's real invocation, with cold starts flagged from the real
    // snapshot path (a request is cold iff its invocation found no snapshot
    // and booted from the image).  GovernTrace's rule for faults holds: a
    // faulted arrival occupies its lane but is not in `sim`, so
    // sim.total_requests + faulted_invocations is the arrival count.
    SimResult sim;
    // Means over fault-free invocations only, so fault-shortened runs
    // cannot skew them.
    double measured_warm_us = 0;       // mean measured service of warm invocations
    double measured_cold_us = 0;       // mean measured service of cold invocations
    uint64_t cold_invocations = 0;     // fault-free invocations that booted
    uint64_t faulted_invocations = 0;  // died with a FaultKind (e.g. chaos)
    uint64_t wall_ns = 0;              // real elapsed time of the measuring run
  };

  // Figure 15's replay: MeasureMultiTenant over one latency-class tenant
  // (`name`, `phases`, `payload`) with `concurrency` executor workers, then
  // GovernTrace with no governance over `concurrency` virtual lanes.
  vbase::Result<ReplayResult> ReplayBurstyLoad(const std::string& name,
                                               const std::vector<LoadPhase>& phases,
                                               const std::vector<uint8_t>& payload,
                                               const ReplayOptions& options = {});

  // Merges every tenant's arrival trace (tenant i uses seed + i) and drives
  // one real invocation per arrival in merged order through a
  // wasp::Executor with `concurrency` workers — mixed snapshot keys
  // contending for shells and affine generations — recording each
  // arrival's measured modeled service cost, cold/warm outcome and fault.
  // This is the only measuring loop; GovernTrace evaluates lane placement
  // and admission over its result deterministically.  `pace_wall_clock`
  // sleeps until each arrival's trace offset before submitting it instead
  // of dispatching the whole trace up front.  Soak-style runs only: wall
  // pacing makes the measured contention timing-dependent.
  vbase::Result<MeasuredTrace> MeasureMultiTenant(const std::vector<TenantSpec>& tenants,
                                                  int concurrency, uint64_t seed = 42,
                                                  bool pace_wall_clock = false);

 private:
  struct Fn {
    std::string name;
    visa::Image image;
  };
  const Fn* FindFunction(const std::string& name) const;

  wasp::Runtime* runtime_;
  std::vector<Fn> functions_;
};

}  // namespace vnet

#endif  // SRC_VNET_SERVERLESS_H_
