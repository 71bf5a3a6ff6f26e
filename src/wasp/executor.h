// wasp::Executor — the multicore invocation driver.
//
// The paper's serving case studies (the Figure 13 HTTP server, the Figure 15
// Vespid burst pattern) live or die on sustaining *bursts* of concurrent
// invocations; a single-lane Invoke() cannot express that.  The executor
// adds concurrent entry points on top of Runtime::Invoke:
//
//   * Submit(spec) — enqueue one invocation on a fixed worker pool and get
//     a std::future<RunOutcome> back (the Runtime::InvokeAsync path),
//   * TrySubmit(spec, &future) — same, but subject to the configured
//     bounded-admission policy (see ExecutorOptions below),
//   * SubmitTask(fn) / TrySubmitTask(fn, &future) — enqueue an arbitrary
//     serving task on the same queue and workers (the ConcurrentHttpServer
//     dispatches whole HTTP connections this way, so admission control and
//     lane accounting cover native and virtine handlers alike), and
//   * Run(runtime, specs, concurrency) — run a batch of invocations across
//     `concurrency` transient worker threads (striped static assignment, so
//     lane loads are deterministic) and return outcomes in submission order.
//
// Bounded admission makes burst overload a first-class, testable behavior
// instead of an unbounded queue: with max_queue_depth set, a full queue
// either blocks the submitter (block_when_full, closed-loop clients) or
// rejects the job so the caller can shed load (an HTTP 503, an open-loop
// generator dropping requests).  ExecutorStats counts accepts, rejections,
// completions, and the peak queue depth so tests can assert the policy.
//
// Key-scoped governance sits on top of bounded admission.  A job's affinity
// key is not just a locality hint any more — it is the unit the executor
// accounts and polices:
//
//   * key_quota caps one key's jobs in the system (queued + in flight), so a
//     hot snapshot key cannot monopolize the whole queue.  A quota rejection
//     is classified separately from a global-full rejection (Admission /
//     ExecutorStats.quota_rejected) so a serving front end can answer 429
//     (per-tenant back off) instead of 503 (server overloaded).  The cap is
//     hard: a submission over quota rejects immediately (never parks — a
//     blocked hot-key submitter would keep dominating; shedding is the
//     point), and a block_when_full waiter whose key filled while it was
//     parked for global space is quota-rejected at wake instead of
//     overshooting the cap.
//   * Every job carries a KeyClass: latency-sensitive or batch.  Workers
//     dequeue latency jobs first, but with a weighted escape hatch — under
//     contention one batch job is taken per `batch_weight` dequeues — so
//     priority never becomes batch starvation.  batch_weight <= 0 disables
//     the classes entirely (strict cross-class FIFO by submission order):
//     the ungoverned baseline the governance benchmarks compare against.
//
// The key-scoped decisions (breaker, quota, load, class pick) are one
// wasp::AdmissionPolicy (admission.h), which vnet::GovernTrace also runs to
// replay a trace in virtual time.
//
// Fault recovery rides the same key ledger.  Every completed attempt feeds a
// per-key fault-rate EWMA; a recoverable fault (kWorkerDeath /
// kPoisonedSnapshot — the guest never observably ran) on a key declared
// idempotent is retried exactly once on a fresh, non-affine shell while the
// job stays in flight (counted once in `submitted`, key-quota slot held
// across the retry); and a sustained fault rate trips a per-key circuit
// breaker that sheds admission-checked submissions (Admission::kCircuitOpen —
// a fast 429 upstream) until a half-open probe proves the key healthy again.
//
// Invocations are independent by construction (each owns its shell, its
// hypercall frame, and its fd table), so the only shared state a worker
// touches is the sharded Pool and the read-mostly SnapshotStore — both
// designed to scale with the worker count.
//
// BatchStats reports per-worker-lane modeled busy cycles.  Max over lanes
// is the batch's modeled makespan: the deterministic, machine-independent
// currency the scaling benchmark uses to compare 1/2/4/8-lane throughput.
//
// Lifetime: specs hold non-owning pointers (image, input, channel); the
// caller keeps those alive until the future resolves / Run returns.  The
// destructor drains the queue — every accepted job runs to completion and
// resolves its future — before joining the workers.
#ifndef SRC_WASP_EXECUTOR_H_
#define SRC_WASP_EXECUTOR_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/wasp/admission.h"
#include "src/wasp/runtime.h"

namespace wasp {

// Bounded-admission knobs (the backpressure half of the scale-out engine).
// The same struct configures vnet::GovernTrace's virtual-time replay of this
// policy, with `workers` as its serving lanes.
struct ExecutorOptions {
  int workers = 2;
  // Maximum queued (not yet running) jobs; 0 = unbounded.
  size_t max_queue_depth = 0;
  // Full-queue policy for TrySubmit / TrySubmitTask: block until a slot
  // frees (never reject — closed-loop semantics) or refuse the job so the
  // caller sheds load (open-loop semantics).  Blocking Submit/SubmitTask
  // always wait for space regardless of this flag.
  bool block_when_full = true;
  // Per-key cap on jobs in the system (queued + in flight) for keyed
  // admission-checked submissions; 0 = unlimited.  The cap is hard in every
  // full-queue policy: a submission over it rejects immediately at entry
  // (kQuotaExceeded), and a block_when_full waiter whose key filled up
  // while it was parked for global space is rejected at wake.
  size_t key_quota = 0;
  // Tiered governance: per-key overrides of key_quota.  A key present here
  // uses its override (0 = explicitly unlimited — a premium tier can opt a
  // key out of the default cap); absent keys fall back to key_quota.  With a
  // few tier-default entries (premium/standard/free) this turns the single
  // global cap into a three-tier discipline (the fig16 setup).
  std::map<std::string, size_t> key_quota_overrides = {};

  // Effective quota for `key` (0 = unlimited) after override resolution.
  size_t QuotaFor(const std::string& key) const {
    auto it = key_quota_overrides.find(key);
    return it != key_quota_overrides.end() ? it->second : key_quota;
  }
  // Weighted dequeue: under contention (both classes queued), one batch job
  // is dequeued per `batch_weight` dequeues; the rest are latency-class.
  // <= 0 disables class priority: strict FIFO by submission order.  Values
  // above 0 are clamped to at least 2 (a weight of 1 would pick batch on
  // every contended dequeue — priority inversion, not weighting).
  int batch_weight = 4;
  // Fault-recovery policy: retry-once eligibility (idempotent_keys) and the
  // per-key circuit breaker.  See RecoveryOptions in fault.h.
  RecoveryOptions recovery = {};
};

// Monotone admission/progress counters (BatchStats' sibling for the
// long-lived submission path), plus two gauges snapshotted under the same
// lock so accounting invariants are checkable at any observation point:
//   submitted == completed + faulted + queued + in_flight
// A faulted completion still releases its key-quota slot (queued +
// in-flight), so a fault storm on one key can never wedge that key's quota.
struct ExecutorStats {
  uint64_t submitted = 0;         // jobs accepted into the queue
  uint64_t rejected = 0;          // jobs refused: global queue full or shutdown
  uint64_t quota_rejected = 0;    // jobs refused: per-key quota (never enqueued)
  uint64_t breaker_rejected = 0;  // jobs refused: key's circuit breaker open
  uint64_t completed = 0;         // jobs run to a fault-free completion
  uint64_t faulted = 0;           // jobs whose invocation died with a FaultKind
  uint64_t retries = 0;           // retry attempts launched (recoverable faults)
  uint64_t retry_successes = 0;   // retried jobs that completed fault-free
  uint64_t breaker_opens = 0;     // breaker transitions into the open state
  uint64_t peak_queue_depth = 0;  // high-water mark of the queue (both classes)
  uint64_t dequeued_latency = 0;  // jobs dequeued from the latency class
  uint64_t dequeued_batch = 0;    // jobs dequeued from the batch class
  uint64_t queued = 0;            // gauge: jobs waiting right now
  uint64_t in_flight = 0;         // gauge: jobs running right now
};

class Executor {
 public:
  // Per-lane accounting for a batch run.
  struct BatchStats {
    std::vector<uint64_t> worker_cycles;  // modeled busy cycles per lane
    uint64_t wall_ns = 0;                 // real elapsed time of the batch

    // The batch's modeled completion time: the busiest lane bounds it.
    uint64_t MakespanCycles() const {
      uint64_t makespan = 0;
      for (uint64_t c : worker_cycles) {
        makespan = std::max(makespan, c);
      }
      return makespan;
    }
  };

  // An arbitrary serving task run on an executor worker.  The returned
  // RunOutcome resolves the job's future (tasks that track their results
  // elsewhere may return a default outcome).
  using Task = std::function<RunOutcome()>;

  Executor(Runtime* runtime, int workers);  // unbounded queue, blocking
  Executor(Runtime* runtime, ExecutorOptions options);
  ~Executor();  // drains the queue (all accepted futures resolve), then joins

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  // Enqueues one invocation; the future resolves with its RunOutcome.
  // Waits for queue space when bounded admission is full.  If the executor
  // is (or starts) shutting down while the submitter waits, the returned
  // future resolves with an Aborted outcome instead of running.  Blocking
  // submissions bypass the per-key quota (trusted closed-loop path).
  std::future<RunOutcome> Submit(VirtineSpec spec, KeyClass klass = KeyClass::kLatency);

  // Admission-checked enqueue.  Returns false — and does not enqueue — when
  // the queue is at max_queue_depth and the policy is reject, when the
  // job's key is at its quota, or when the submission races executor
  // shutdown; otherwise (including blocking until space in block_when_full
  // mode) stores the outcome future in `*future` and returns true.
  // `admission` (optional) receives the classified decision, so callers can
  // distinguish per-key shedding (429) from global overload (503).
  bool TrySubmit(VirtineSpec spec, std::future<RunOutcome>* future,
                 KeyClass klass = KeyClass::kLatency, Admission* admission = nullptr);

  // Task variants of the same two entry points.  `affinity_key` feeds the
  // workers' keyed-dequeue affinity scan and the per-key quota accounting
  // (empty = no affinity, no quota).
  std::future<RunOutcome> SubmitTask(Task task, std::string affinity_key = {},
                                     KeyClass klass = KeyClass::kLatency);
  bool TrySubmitTask(Task task, std::future<RunOutcome>* future,
                     std::string affinity_key = {}, KeyClass klass = KeyClass::kLatency,
                     Admission* admission = nullptr);

  size_t workers() const { return workers_.size(); }
  size_t queue_depth() const;
  ExecutorStats stats() const;
  // Jobs in the system (queued + in flight) under `key` right now.
  size_t KeyLoad(const std::string& key) const;
  // Recovery view of `key`: fault-rate EWMA and breaker position.  It
  // persists after the key's jobs drain — a storm's evidence must outlive
  // the storm.
  KeyRecoverySnapshot KeyRecoveryState(const std::string& key) const;
  // Convenience: KeyRecoveryState(key).fault_rate.
  double KeyFaultRate(const std::string& key) const;
  const ExecutorOptions& options() const { return options_; }

  // Runs `specs` to completion over `concurrency` transient worker threads;
  // outcomes are returned in spec order.  `stats` (optional) receives the
  // per-lane modeled-cycle accounting.
  static std::vector<RunOutcome> Run(Runtime* runtime, const std::vector<VirtineSpec>& specs,
                                     int concurrency, BatchStats* stats = nullptr);

 private:
  struct Job {
    std::string key;  // snapshot-affinity hint + quota accounting unit
    KeyClass klass = KeyClass::kLatency;
    uint64_t seq = 0;  // submission order (cross-class FIFO when ungoverned)
    Task work;         // the serving task (empty for invocation jobs)
    // Invocation jobs (Submit/TrySubmit) carry their spec so a recoverable
    // fault can be retried once on a fresh shell.  Generic tasks never carry
    // one — their side effects are opaque, so they are never retried.
    VirtineSpec spec;
    bool retryable = false;  // spec is valid; eligible for retry-once
    bool probe = false;      // this job is its key's half-open breaker probe
    std::promise<RunOutcome> promise;
  };

  // Shared enqueue path.  `may_reject` selects TrySubmit semantics (honor
  // the breaker, the quota, and the configured full-queue policy) over
  // Submit semantics (always block for space, no breaker, no quota).
  Admission Enqueue(Job job, bool may_reject, std::future<RunOutcome>* future);
  // Runs a job's work — the stored task, or an invocation of its spec — and
  // applies the retry-once policy for recoverable faults on idempotent keys.
  RunOutcome RunJob(Job& job);
  void WorkerLoop(uint32_t worker_index);

  size_t TotalQueuedLocked() const { return queues_[0].size() + queues_[1].size(); }

  Runtime* runtime_;
  ExecutorOptions options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;        // queue became non-empty / stopping
  std::condition_variable cv_space_;  // queue slot freed
  std::deque<Job> queues_[2];         // indexed by KeyClass
  uint64_t next_seq_ = 0;
  size_t in_flight_ = 0;
  // Per-key load, quota, breaker and class-pick state (mu_ held).
  AdmissionPolicy policy_;
  ExecutorStats stats_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace wasp

#endif  // SRC_WASP_EXECUTOR_H_
