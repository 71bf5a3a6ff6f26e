#include "src/wasp/admission.h"

#include <algorithm>

#include "src/wasp/executor.h"

namespace wasp {

AdmissionPolicy::AdmissionPolicy(const ExecutorOptions& options)
    : options_(options),
      batch_weight_(options.batch_weight > 0 ? std::max(options.batch_weight, 2)
                                             : options.batch_weight) {}

Admission AdmissionPolicy::Admit(const std::string& key, bool* probe) {
  *probe = false;
  const RecoveryOptions& ro = options_.recovery;
  const size_t quota = key.empty() ? 0 : options_.QuotaFor(key);
  if (key.empty() || (!ro.breaker_enabled && quota == 0)) {
    return Admission::kAccepted;
  }
  KeyState& k = keys_[key];
  if (ro.breaker_enabled) {
    switch (k.recovery.state) {
      case BreakerState::kClosed:
        break;
      case BreakerState::kOpen:
        // Count-based cooldown: after breaker_open_sheds requests have been
        // shed, the next one is admitted as the half-open probe.  Counting
        // requests instead of wall time keeps replays deterministic and makes
        // the cooldown proportional to the key's own arrival rate.
        if (k.sheds < ro.breaker_open_sheds) {
          ++k.sheds;
          return Admission::kCircuitOpen;
        }
        k.recovery.state = BreakerState::kHalfOpen;
        k.probe_in_flight = true;
        *probe = true;
        break;
      case BreakerState::kHalfOpen:
        if (k.probe_in_flight) {
          return Admission::kCircuitOpen;  // one probe at a time
        }
        k.probe_in_flight = true;
        *probe = true;
        break;
    }
  }
  // Quota after the breaker, and always immediate: a hot key must shed, not
  // park its submitters.
  if (quota > 0 && k.load >= quota) {
    if (*probe) {
      k.probe_in_flight = false;
      *probe = false;
    }
    return Admission::kQuotaExceeded;
  }
  return Admission::kAccepted;
}

bool AdmissionPolicy::OverQuota(const std::string& key) const {
  const size_t quota = options_.QuotaFor(key);  // the empty key has load 0
  return quota > 0 && Load(key) >= quota;
}

void AdmissionPolicy::Withdraw(const std::string& key, bool probe) {
  if (probe) {
    keys_[key].probe_in_flight = false;
  }
}

void AdmissionPolicy::OnEnqueue(const std::string& key) {
  if (!key.empty()) {
    ++keys_[key].load;
  }
}

void AdmissionPolicy::OnFinish(const std::string& key) {
  if (!key.empty()) {
    --keys_[key].load;
  }
}

bool AdmissionPolicy::RecordAttempt(const std::string& key, bool faulted, bool probe) {
  if (key.empty()) {
    return false;
  }
  const RecoveryOptions& ro = options_.recovery;
  KeyState& k = keys_[key];
  KeyRecoverySnapshot& r = k.recovery;
  r.fault_rate =
      ro.breaker_alpha * (faulted ? 1.0 : 0.0) + (1.0 - ro.breaker_alpha) * r.fault_rate;
  ++r.samples;
  if (!ro.breaker_enabled) {
    return false;  // EWMA tracking is unconditional; the state machine is opt-in
  }
  if (probe) {
    k.probe_in_flight = false;
    if (!faulted) {
      // Clean probe: close and forget.  The EWMA resets so re-tripping needs
      // fresh consecutive evidence, not the tail of the old storm.
      r.state = BreakerState::kClosed;
      r.fault_rate = 0.0;
      return false;
    }
  } else if (r.state != BreakerState::kClosed || r.samples < ro.breaker_min_samples ||
             r.fault_rate < ro.breaker_open_threshold) {
    return false;
  }
  r.state = BreakerState::kOpen;
  k.sheds = 0;
  ++r.opens;
  return true;
}

size_t AdmissionPolicy::PickClass(uint64_t latency_head, uint64_t batch_head) {
  if (latency_head == kNoHead || batch_head == kNoHead) {
    return latency_head == kNoHead ? 1 : 0;  // no contention
  }
  if (batch_weight_ <= 0) {
    return latency_head < batch_head ? 0 : 1;  // ungoverned: FIFO across classes
  }
  // Weighted priority: latency first, but one batch job per batch_weight
  // dequeues under contention, so batch cannot starve.
  if (batch_credit_ >= batch_weight_ - 1) {
    batch_credit_ = 0;
    return 1;
  }
  ++batch_credit_;
  return 0;
}

size_t AdmissionPolicy::Load(const std::string& key) const {
  auto it = keys_.find(key);
  return it == keys_.end() ? 0 : it->second.load;
}

KeyRecoverySnapshot AdmissionPolicy::Recovery(const std::string& key) const {
  auto it = keys_.find(key);
  return it == keys_.end() ? KeyRecoverySnapshot{} : it->second.recovery;
}

}  // namespace wasp
