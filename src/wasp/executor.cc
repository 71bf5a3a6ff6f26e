#include "src/wasp/executor.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <utility>

#include "src/base/clock.h"
#include "src/base/log.h"

namespace wasp {

Executor::Executor(Runtime* runtime, int workers)
    : Executor(runtime, ExecutorOptions{workers, 0, true}) {}

Executor::Executor(Runtime* runtime, ExecutorOptions options)
    : runtime_(runtime), options_(std::move(options)), policy_(options_) {
  VB_CHECK(runtime_ != nullptr, "Executor requires a runtime");
  const int n = std::max(options_.workers, 1);
  options_.workers = n;
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(static_cast<uint32_t>(i)); });
  }
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  cv_space_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) {
      worker.join();
    }
  }
}

Admission Executor::Enqueue(Job job, bool may_reject, std::future<RunOutcome>* future) {
  std::future<RunOutcome> resolved = job.promise.get_future();
  Admission admission = Admission::kAccepted;
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Key admission — breaker, then quota — before the global bound: an
    // open breaker is the cheapest shed, and a hot key must be told to back
    // off (429), not that the server is full.  Blocking Submit/SubmitTask
    // bypasses both (trusted closed-loop path).
    if (may_reject && !stop_) {
      admission = policy_.Admit(job.key, &job.probe);
      if (admission != Admission::kAccepted) {
        ++(admission == Admission::kCircuitOpen ? stats_.breaker_rejected
                                                : stats_.quota_rejected);
        return admission;  // job (and its promise) dropped
      }
    }
    if (!stop_ && options_.max_queue_depth > 0) {
      if (may_reject && !options_.block_when_full &&
          TotalQueuedLocked() >= options_.max_queue_depth) {
        ++stats_.rejected;
        policy_.Withdraw(job.key, job.probe);
        return Admission::kQueueFull;  // caller sheds load
      }
      cv_space_.wait(lock, [this] {
        return stop_ || TotalQueuedLocked() < options_.max_queue_depth;
      });
      // Re-check the quota after a blocking park: sibling submitters of the
      // same key passed the entry check while this one waited for global
      // space, so enqueueing blindly here would overshoot the cap.  The
      // quota is a hard invariant; a woken waiter that would break it is
      // rejected at wake instead.
      if (may_reject && !stop_ && policy_.OverQuota(job.key)) {
        ++stats_.quota_rejected;
        policy_.Withdraw(job.key, job.probe);
        // This reject consumed a dequeue's notify_one without taking the
        // freed slot; pass the wakeup on or another parked submitter
        // could sleep forever beside an open slot.
        cv_space_.notify_one();
        return Admission::kQuotaExceeded;
      }
    }
    if (stop_) {
      // Teardown raced the submission (blocking admission makes long parks
      // inside Enqueue routine): fail it recoverably instead of aborting.
      ++stats_.rejected;
      policy_.Withdraw(job.key, job.probe);
      admission = Admission::kStopped;
    } else {
      job.seq = next_seq_++;
      policy_.OnEnqueue(job.key);
      queues_[static_cast<size_t>(job.klass)].push_back(std::move(job));
      ++stats_.submitted;
      stats_.peak_queue_depth =
          std::max<uint64_t>(stats_.peak_queue_depth, TotalQueuedLocked());
    }
  }
  if (admission == Admission::kStopped) {
    RunOutcome outcome;
    outcome.status = vbase::Aborted("executor stopped during submit");
    job.promise.set_value(std::move(outcome));
    if (future != nullptr) {
      *future = std::move(resolved);  // already resolved with the error
    }
    return admission;
  }
  cv_.notify_one();
  if (future != nullptr) {
    *future = std::move(resolved);
  }
  return admission;
}

std::future<RunOutcome> Executor::Submit(VirtineSpec spec, KeyClass klass) {
  Job job;
  job.key = spec.use_snapshot ? spec.key : std::string();
  job.klass = klass;
  job.spec = std::move(spec);
  job.retryable = true;
  std::future<RunOutcome> future;
  Enqueue(std::move(job), /*may_reject=*/false, &future);
  return future;
}

bool Executor::TrySubmit(VirtineSpec spec, std::future<RunOutcome>* future, KeyClass klass,
                         Admission* admission) {
  Job job;
  job.key = spec.use_snapshot ? spec.key : std::string();
  job.klass = klass;
  job.spec = std::move(spec);
  job.retryable = true;
  const Admission result = Enqueue(std::move(job), /*may_reject=*/true, future);
  if (admission != nullptr) {
    *admission = result;
  }
  return result == Admission::kAccepted;
}

std::future<RunOutcome> Executor::SubmitTask(Task task, std::string affinity_key,
                                             KeyClass klass) {
  Job job;
  job.key = std::move(affinity_key);
  job.klass = klass;
  job.work = std::move(task);
  std::future<RunOutcome> future;
  Enqueue(std::move(job), /*may_reject=*/false, &future);
  return future;
}

bool Executor::TrySubmitTask(Task task, std::future<RunOutcome>* future,
                             std::string affinity_key, KeyClass klass,
                             Admission* admission) {
  Job job;
  job.key = std::move(affinity_key);
  job.klass = klass;
  job.work = std::move(task);
  const Admission result = Enqueue(std::move(job), /*may_reject=*/true, future);
  if (admission != nullptr) {
    *admission = result;
  }
  return result == Admission::kAccepted;
}

size_t Executor::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return TotalQueuedLocked();
}

ExecutorStats Executor::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ExecutorStats out = stats_;
  out.queued = TotalQueuedLocked();
  out.in_flight = in_flight_;
  // Debug-build audit of the conservation law at *every* snapshot, not just
  // test quiesce points.  The retry path keeps a retried job in `in_flight`
  // across both attempts, so no observation may catch a job outside all four
  // buckets.  (assert, not VB_CHECK: VB_CHECK aborts in release builds too,
  // and a stats snapshot must stay cheap there.)
  assert(out.submitted == out.completed + out.faulted + out.queued + out.in_flight);
  return out;
}

size_t Executor::KeyLoad(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return policy_.Load(key);
}

KeyRecoverySnapshot Executor::KeyRecoveryState(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return policy_.Recovery(key);
}

double Executor::KeyFaultRate(const std::string& key) const {
  return KeyRecoveryState(key).fault_rate;
}

void Executor::WorkerLoop(uint32_t worker_index) {
  // Register this worker as a pool lane: its acquires and releases hit a
  // dedicated single-slot shell cache before any shared structure, and its
  // stable lane id keeps it mapped to the same pool shard (and modeled NUMA
  // node) across the executor's lifetime.
  Pool::BindLane(worker_index);
  // Keyed submit hint: a worker that just ran snapshot key K parked K's
  // shell snapshot-affine in its home pool shard, so a queued job with the
  // same key is cheapest to run *here* (delta restore instead of a full
  // image copy).  The scan is bounded and fairness-capped: after a few
  // consecutive out-of-order picks the worker must take the queue head, so
  // no job can starve behind a stream of matching keys.  The scan stays
  // within the class the policy chose, so affinity can never invert the
  // latency-vs-batch weighting.  A single worker skips the scan: every job
  // runs on its lane and restores from its home shard anyway, so the scan
  // would only reorder the queue — and one worker then dequeues exactly as
  // GovernTrace's one virtual lane does.
  constexpr size_t kAffinityScan = 8;
  constexpr int kMaxConsecutiveSkips = 4;
  const bool steer = options_.workers > 1;
  auto head = [](const std::deque<Job>& q) {
    return q.empty() ? AdmissionPolicy::kNoHead : q.front().seq;
  };
  std::string last_key;
  int skips = 0;
  while (true) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || TotalQueuedLocked() > 0; });
      if (TotalQueuedLocked() == 0) {
        return;  // stop requested and nothing left to drain
      }
      const size_t cls = policy_.PickClass(head(queues_[0]), head(queues_[1]));
      std::deque<Job>& queue = queues_[cls];
      size_t pick = 0;
      if (steer && !last_key.empty() && skips < kMaxConsecutiveSkips) {
        const size_t scan = std::min(queue.size(), kAffinityScan);
        for (size_t i = 0; i < scan; ++i) {
          if (!queue[i].key.empty() && queue[i].key == last_key) {
            pick = i;
            break;
          }
        }
      }
      skips = pick == 0 ? 0 : skips + 1;
      job = std::move(queue[pick]);
      queue.erase(queue.begin() + static_cast<ptrdiff_t>(pick));
      ++in_flight_;
      if (cls == 0) {
        ++stats_.dequeued_latency;
      } else {
        ++stats_.dequeued_batch;
      }
    }
    cv_space_.notify_one();
    last_key = job.key;
    RunOutcome outcome = RunJob(job);
    // Settle ALL accounting — completed/faulted, the recovery ledger, and
    // the key-quota slot — before resolving the future.  A caller that sees
    // the future ready may immediately resubmit on the same key; its slot
    // must already be free (a fault must never wedge a key's quota, not
    // even for the resolve-to-release window).
    const bool faulted = outcome.fault != FaultKind::kNone;
    const bool retried = outcome.retried;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (faulted) {
        ++stats_.faulted;
      } else {
        ++stats_.completed;
        if (retried) {
          ++stats_.retry_successes;
        }
      }
      // The final attempt's outcome resolves the key's probe (if this job
      // was one) and feeds the fault-rate EWMA.
      if (policy_.RecordAttempt(job.key, faulted, job.probe)) {
        ++stats_.breaker_opens;
      }
      --in_flight_;
      policy_.OnFinish(job.key);
    }
    job.promise.set_value(std::move(outcome));
  }
}

RunOutcome Executor::RunJob(Job& job) {
  RunOutcome outcome = job.retryable ? runtime_->Invoke(job.spec) : job.work();
  if (outcome.fault == FaultKind::kNone || !job.retryable ||
      !IsRecoverableFault(outcome.fault) || !options_.recovery.IsIdempotent(job.key)) {
    return outcome;
  }
  // Retry-once: the fault kinds above guarantee the guest never observably
  // ran, and the key is declared side-effect free, so a second attempt is
  // safe.  The job stays in_flight and keeps its key-quota slot across both
  // attempts — `submitted` counted it once and exactly one of
  // completed/faulted will count its end, so the conservation law holds at
  // every observation in between.  The first attempt still feeds the EWMA:
  // a retry-masked storm must trip the breaker just like a visible one.
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.retries;
    if (policy_.RecordAttempt(job.key, /*faulted=*/true, /*probe=*/false)) {
      ++stats_.breaker_opens;
    }
  }
  const FaultKind first = outcome.fault;
  VirtineSpec retry_spec = job.spec;
  // A fresh, non-affine shell: the first attempt's shell is already
  // quarantined, and an affine sibling could share whatever poisoned state
  // killed it (a bad snapshot delta, a dying lane).
  retry_spec.fresh_shell = true;
  outcome = runtime_->Invoke(retry_spec);
  outcome.retried = true;
  outcome.first_fault = first;
  return outcome;
}

std::vector<RunOutcome> Executor::Run(Runtime* runtime, const std::vector<VirtineSpec>& specs,
                                      int concurrency, BatchStats* stats) {
  VB_CHECK(runtime != nullptr, "Executor::Run requires a runtime");
  const size_t lanes = static_cast<size_t>(
      std::max(1, std::min<int>(concurrency, static_cast<int>(std::max<size_t>(specs.size(), 1)))));
  std::vector<RunOutcome> outcomes(specs.size());
  std::vector<uint64_t> lane_cycles(lanes, 0);
  vbase::WallTimer timer;
  // Striped static assignment (lane i runs specs i, i+lanes, ...): the lane
  // loads — and therefore the modeled makespan — are deterministic even on
  // an oversubscribed host where the OS schedules lanes unevenly.
  auto lane_body = [&](size_t lane) {
    Pool::BindLane(static_cast<uint32_t>(lane));
    uint64_t busy = 0;
    for (size_t i = lane; i < specs.size(); i += lanes) {
      outcomes[i] = runtime->Invoke(specs[i]);
      busy += outcomes[i].stats.total_cycles;
    }
    lane_cycles[lane] = busy;
  };
  std::vector<std::thread> threads;
  threads.reserve(lanes - 1);
  for (size_t lane = 1; lane < lanes; ++lane) {
    threads.emplace_back(lane_body, lane);
  }
  lane_body(0);  // the calling thread is lane 0
  for (std::thread& t : threads) {
    t.join();
  }
  if (stats != nullptr) {
    stats->worker_cycles = std::move(lane_cycles);
    stats->wall_ns = timer.ElapsedNanos();
  }
  return outcomes;
}

}  // namespace wasp
