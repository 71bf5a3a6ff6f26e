// wasp::AdmissionPolicy — the one key-scoped admission policy.
//
// The live wasp::Executor and the deterministic vnet::GovernTrace replay
// both govern jobs by key through this class, so the replay cannot drift
// from the executor.  It keeps one entry per key (load, fault-rate EWMA,
// breaker) and makes every decision that reads it: breaker then quota at
// admission, probe hand-back, load accounting, the breaker state machine,
// and the weighted class pick.  It is clock-free (every transition is
// driven by counts) and single-threaded: the caller serializes access.
// The empty key is ungoverned: it always admits and keeps no entry.
#ifndef SRC_WASP_ADMISSION_H_
#define SRC_WASP_ADMISSION_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <string>

#include "src/wasp/fault.h"

namespace wasp {

struct ExecutorOptions;

// Scheduling class of a submitted job.  Latency-sensitive jobs are dequeued
// preferentially; batch jobs fill the remaining capacity (weighted so they
// cannot be starved either).
enum class KeyClass {
  kLatency = 0,  // interactive / latency-sensitive (the default)
  kBatch = 1,    // throughput-oriented background work
};

// Why an admission-checked submission was (or was not) accepted.
enum class Admission {
  kAccepted,       // enqueued; the future resolves with the job's outcome
  kQueueFull,      // global max_queue_depth reached under the reject policy
  kQuotaExceeded,  // the job's key is at its per-key quota
  kCircuitOpen,    // the job's key's circuit breaker is open (fast shed)
  kStopped,        // the submission raced executor shutdown
};

// Point-in-time recovery view of one key: its fault-rate EWMA (over
// attempts, including retry attempts) and its breaker position.  A key with
// no attempt recorded yet reads as all-zero / closed.
struct KeyRecoverySnapshot {
  double fault_rate = 0.0;                     // EWMA over attempts
  uint64_t samples = 0;                        // attempts observed
  BreakerState state = BreakerState::kClosed;  // breaker position
  uint64_t opens = 0;                          // times this key's breaker opened
};

class AdmissionPolicy {
 public:
  // Marks an empty class queue for PickClass.
  static constexpr uint64_t kNoHead = std::numeric_limits<uint64_t>::max();

  // `options` must outlive the policy.  Reads key_quota,
  // key_quota_overrides, batch_weight and recovery.
  explicit AdmissionPolicy(const ExecutorOptions& options);

  // Entry admission for one job of `key`: the breaker (when enabled), then
  // the quota.  Returns kAccepted, kCircuitOpen or kQuotaExceeded.  On
  // kAccepted, *probe says whether this job is the key's half-open probe; a
  // probe the quota rejects has already handed its reservation back.
  Admission Admit(const std::string& key, bool* probe);
  // Quota re-check after the caller parked for global queue space: true
  // when `key` filled to its quota meanwhile (reject the job).
  bool OverQuota(const std::string& key) const;
  // A job Admit accepted was rejected by a later stage: hand back its probe
  // reservation, or the breaker would wait forever on a probe that never ran.
  void Withdraw(const std::string& key, bool probe);

  // Load accounting: a job of `key` entered the queue / left the system.
  void OnEnqueue(const std::string& key);
  void OnFinish(const std::string& key);

  // Feeds one attempt outcome into `key`'s fault-rate EWMA and drives the
  // breaker.  `probe` marks the resolution of a half-open probe: clean
  // closes the breaker (EWMA reset — re-tripping needs fresh evidence),
  // faulted re-opens it.  Returns true when this attempt opened the breaker.
  bool RecordAttempt(const std::string& key, bool faulted, bool probe);

  // Picks the class queue (indexed by KeyClass) the next dequeue serves,
  // given the submission order of each queue's head (kNoHead = empty; at
  // least one queue is non-empty).  Under contention, one batch job per
  // batch_weight dequeues; batch_weight <= 0 is strict FIFO by submission
  // order.  Positive weights are clamped to at least 2: a weight of 1 would
  // pick batch on every contended dequeue (priority inversion).
  size_t PickClass(uint64_t latency_head, uint64_t batch_head);

  // Jobs of `key` in the system (queued + running).
  size_t Load(const std::string& key) const;
  KeyRecoverySnapshot Recovery(const std::string& key) const;

 private:
  // Everything the policy knows about one key.  Entries persist at zero
  // load: the EWMA and breaker position are evidence that must outlive the
  // storm that produced them.
  struct KeyState {
    size_t load = 0;               // jobs queued + running
    KeyRecoverySnapshot recovery;  // EWMA, samples, breaker position, opens
    uint64_t sheds = 0;            // requests shed since the breaker last opened
    bool probe_in_flight = false;  // a half-open probe is queued or running
  };

  const ExecutorOptions& options_;
  const int batch_weight_;  // clamped (see PickClass)
  int batch_credit_ = 0;    // latency picks since the last forced batch pick
  std::map<std::string, KeyState> keys_;
};

}  // namespace wasp

#endif  // SRC_WASP_ADMISSION_H_
