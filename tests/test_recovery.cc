// Fault-recovery tests: retry-once on a fresh shell for idempotent keys,
// per-key fault-rate EWMA tracking, and the circuit breaker state machine
// (closed -> open -> half-open -> closed) — all deterministic under
// FaultPlan schedules — plus a concurrent storm + probe race suite that the
// TSan lane runs against the executor's recovery bookkeeping.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "src/vnet/serverless.h"
#include "src/vrt/env.h"
#include "src/vrt/samples.h"
#include "src/wasp/executor.h"
#include "src/wasp/fault.h"
#include "src/wasp/runtime.h"
#include "src/wasp/vfunc.h"

namespace {

visa::Image FibImage() {
  auto image = vrt::BuildImage(vrt::Env::kLong64, vrt::FibSource());
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  return std::move(*image);
}

// A snapshot-enabled fib(12) spec; a clean run returns result_word 144.
wasp::VirtineSpec FibSpec(const visa::Image* image, const std::string& key) {
  wasp::VirtineSpec spec;
  spec.image = image;
  spec.key = key;
  spec.word_bytes = 8;
  spec.mem_size = 2ULL << 20;
  spec.policy = wasp::kPolicyManaged;
  spec.use_snapshot = true;
  wasp::ArgPacker packer(8);
  packer.AddWord(12);
  spec.args_page = packer.Finish();
  return spec;
}

wasp::RuntimeOptions PlanOptions(wasp::FaultPlan plan) {
  wasp::RuntimeOptions options;
  options.fault_plan = std::move(plan);
  return options;
}

// Polls until the executor records `completions` finished jobs.  The worker
// settles completed/faulted, the recovery ledger, and the key-quota slot
// *before* resolving the job's future, so this is belt-and-braces — it keeps
// the assertions honest even if that ordering ever loosens.
void WaitForFinished(const wasp::Executor& executor, uint64_t completions) {
  for (int i = 0; i < 5000; ++i) {
    const wasp::ExecutorStats stats = executor.stats();
    if (stats.completed + stats.faulted >= completions) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void ExpectConservation(const wasp::ExecutorStats& stats) {
  EXPECT_EQ(stats.submitted,
            stats.completed + stats.faulted + stats.queued + stats.in_flight);
}

// --- Retry-once -------------------------------------------------------------

TEST(Recovery, RetryExactlyOnceUnderWorkerDeath) {
  auto image = FibImage();
  wasp::FaultPlan plan;
  plan.rules.push_back(wasp::FaultPlan::At(wasp::FaultKind::kWorkerDeath, 0));
  wasp::Runtime runtime(PlanOptions(std::move(plan)));
  wasp::ExecutorOptions options;
  options.workers = 1;
  options.recovery.idempotent_keys = {"fib"};
  wasp::Executor executor(&runtime, options);

  std::future<wasp::RunOutcome> future;
  ASSERT_TRUE(executor.TrySubmit(FibSpec(&image, "fib"), &future));
  const wasp::RunOutcome outcome = future.get();
  // The retry masked the fault: the caller sees a clean result that admits
  // it was a second attempt.
  EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.fault, wasp::FaultKind::kNone);
  EXPECT_TRUE(outcome.retried);
  EXPECT_EQ(outcome.first_fault, wasp::FaultKind::kWorkerDeath);
  EXPECT_EQ(outcome.result_word, 144u);

  WaitForFinished(executor, 1);
  const wasp::ExecutorStats stats = executor.stats();
  EXPECT_EQ(stats.submitted, 1u);  // counted once across both attempts
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.faulted, 0u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.retry_successes, 1u);
  ExpectConservation(stats);
  // Both attempts fed the EWMA: one fault, one success.
  const wasp::KeyRecoverySnapshot rec = executor.KeyRecoveryState("fib");
  EXPECT_EQ(rec.samples, 2u);
  EXPECT_GT(rec.fault_rate, 0.0);
  // The first attempt's shell was quarantined even though the job succeeded.
  EXPECT_EQ(runtime.pool().stats().quarantined, 1u);
}

TEST(Recovery, RetryThatFaultsAgainCountsOnce) {
  auto image = FibImage();
  wasp::FaultPlan plan;
  plan.rules.push_back(wasp::FaultPlan::At(wasp::FaultKind::kWorkerDeath, 0));
  plan.rules.push_back(wasp::FaultPlan::At(wasp::FaultKind::kWorkerDeath, 1));
  wasp::Runtime runtime(PlanOptions(std::move(plan)));
  wasp::ExecutorOptions options;
  options.workers = 1;
  options.recovery.idempotent_keys = {"fib"};
  wasp::Executor executor(&runtime, options);

  std::future<wasp::RunOutcome> future;
  ASSERT_TRUE(executor.TrySubmit(FibSpec(&image, "fib"), &future));
  const wasp::RunOutcome outcome = future.get();
  EXPECT_EQ(outcome.fault, wasp::FaultKind::kWorkerDeath);
  EXPECT_TRUE(outcome.retried);  // a retry happened; it just also died

  WaitForFinished(executor, 1);
  const wasp::ExecutorStats stats = executor.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.faulted, 1u);  // the job died once, not twice
  EXPECT_EQ(stats.retries, 1u);  // and was retried exactly once, not forever
  EXPECT_EQ(stats.retry_successes, 0u);
  ExpectConservation(stats);
}

TEST(Recovery, NonIdempotentKeyIsNeverRetried) {
  auto image = FibImage();
  wasp::FaultPlan plan;
  plan.rules.push_back(wasp::FaultPlan::At(wasp::FaultKind::kWorkerDeath, 0));
  wasp::Runtime runtime(PlanOptions(std::move(plan)));
  wasp::Executor executor(&runtime, 1);  // default options: no idempotent keys

  std::future<wasp::RunOutcome> future;
  ASSERT_TRUE(executor.TrySubmit(FibSpec(&image, "fib"), &future));
  const wasp::RunOutcome outcome = future.get();
  EXPECT_EQ(outcome.fault, wasp::FaultKind::kWorkerDeath);
  EXPECT_FALSE(outcome.retried);
  WaitForFinished(executor, 1);
  EXPECT_EQ(executor.stats().retries, 0u);
}

TEST(Recovery, NonRecoverableFaultIsNeverRetried) {
  // A guest trap may have fired halfway through the guest's side effects, so
  // even an idempotent key must not retry it.
  auto image = FibImage();
  wasp::FaultPlan plan;
  plan.rules.push_back(wasp::FaultPlan::At(wasp::FaultKind::kGuestTrap, 0));
  wasp::Runtime runtime(PlanOptions(std::move(plan)));
  wasp::ExecutorOptions options;
  options.workers = 1;
  options.recovery.idempotent_keys = {"fib"};
  wasp::Executor executor(&runtime, options);

  std::future<wasp::RunOutcome> future;
  ASSERT_TRUE(executor.TrySubmit(FibSpec(&image, "fib"), &future));
  const wasp::RunOutcome outcome = future.get();
  EXPECT_EQ(outcome.fault, wasp::FaultKind::kGuestTrap);
  EXPECT_FALSE(outcome.retried);
  WaitForFinished(executor, 1);
  EXPECT_EQ(executor.stats().retries, 0u);
  EXPECT_EQ(executor.stats().faulted, 1u);
}

TEST(Recovery, RetryRunsOnFreshNonAffineShell) {
  // Invocation 0 runs clean and parks a snapshot-affine shell; invocation 1
  // worker-deaths.  The retry must *not* take the parked affine sibling: a
  // fresh shell COW-maps the snapshot instead of delta-restoring in place.
  auto image = FibImage();
  wasp::FaultPlan plan;
  plan.rules.push_back(wasp::FaultPlan::At(wasp::FaultKind::kWorkerDeath, 1));
  wasp::Runtime runtime(PlanOptions(std::move(plan)));
  wasp::ExecutorOptions options;
  options.workers = 1;
  options.recovery.idempotent_keys = {"fib"};
  wasp::Executor executor(&runtime, options);

  std::future<wasp::RunOutcome> warm;
  ASSERT_TRUE(executor.TrySubmit(FibSpec(&image, "fib"), &warm));
  ASSERT_EQ(warm.get().fault, wasp::FaultKind::kNone);

  std::future<wasp::RunOutcome> future;
  ASSERT_TRUE(executor.TrySubmit(FibSpec(&image, "fib"), &future));
  const wasp::RunOutcome outcome = future.get();
  EXPECT_TRUE(outcome.retried);
  EXPECT_EQ(outcome.fault, wasp::FaultKind::kNone);
  EXPECT_EQ(outcome.result_word, 144u);
  // COW map = the non-affine snapshot restore path: proof the retry took a
  // fresh shell even though an affine one was parked and eligible.
  EXPECT_TRUE(outcome.stats.mapped_cow);
  EXPECT_EQ(outcome.stats.restored_bytes, 0u);
}

// --- Breaker state machine --------------------------------------------------

TEST(Recovery, BreakerOpensShedsProbesAndCloses) {
  // Deterministic storm: invocations 0..3 guest-trap, everything after runs
  // clean.  With alpha 0.2 the EWMA after four all-fault attempts is
  // 1 - 0.8^4 = 0.59 >= 0.5, so the breaker opens at the 4th completion.
  auto image = FibImage();
  wasp::FaultPlan plan;
  for (uint64_t i = 0; i < 4; ++i) {
    plan.rules.push_back(wasp::FaultPlan::At(wasp::FaultKind::kGuestTrap, i));
  }
  wasp::Runtime runtime(PlanOptions(std::move(plan)));
  wasp::ExecutorOptions options;
  options.workers = 1;
  options.recovery.breaker_enabled = true;
  options.recovery.breaker_min_samples = 4;
  options.recovery.breaker_open_sheds = 2;
  wasp::Executor executor(&runtime, options);

  for (int i = 0; i < 4; ++i) {
    std::future<wasp::RunOutcome> future;
    wasp::Admission admission = wasp::Admission::kAccepted;
    ASSERT_TRUE(executor.TrySubmit(FibSpec(&image, "fib"), &future, wasp::KeyClass::kLatency,
                                   &admission));
    EXPECT_EQ(future.get().fault, wasp::FaultKind::kGuestTrap);
    WaitForFinished(executor, static_cast<uint64_t>(i) + 1);
  }
  wasp::KeyRecoverySnapshot rec = executor.KeyRecoveryState("fib");
  EXPECT_EQ(rec.state, wasp::BreakerState::kOpen);
  EXPECT_EQ(rec.opens, 1u);
  EXPECT_EQ(rec.samples, 4u);
  EXPECT_GE(rec.fault_rate, 0.5);

  // Open: the next breaker_open_sheds submissions shed without enqueueing.
  for (int i = 0; i < 2; ++i) {
    std::future<wasp::RunOutcome> future;
    wasp::Admission admission = wasp::Admission::kAccepted;
    EXPECT_FALSE(executor.TrySubmit(FibSpec(&image, "fib"), &future,
                                    wasp::KeyClass::kLatency, &admission));
    EXPECT_EQ(admission, wasp::Admission::kCircuitOpen);
  }
  EXPECT_EQ(executor.stats().breaker_rejected, 2u);

  // Cooldown elapsed: the next submission is admitted as the half-open
  // probe.  Invocation index 4 has no rule, so it runs clean and closes the
  // breaker with a reset EWMA.
  std::future<wasp::RunOutcome> probe;
  wasp::Admission admission = wasp::Admission::kAccepted;
  ASSERT_TRUE(executor.TrySubmit(FibSpec(&image, "fib"), &probe, wasp::KeyClass::kLatency,
                                 &admission));
  EXPECT_EQ(admission, wasp::Admission::kAccepted);
  EXPECT_EQ(probe.get().fault, wasp::FaultKind::kNone);
  WaitForFinished(executor, 5);
  rec = executor.KeyRecoveryState("fib");
  EXPECT_EQ(rec.state, wasp::BreakerState::kClosed);
  EXPECT_EQ(rec.fault_rate, 0.0);  // clean slate after a clean probe
  EXPECT_EQ(rec.opens, 1u);

  // Closed again: submissions flow normally.
  std::future<wasp::RunOutcome> after;
  ASSERT_TRUE(executor.TrySubmit(FibSpec(&image, "fib"), &after));
  EXPECT_EQ(after.get().fault, wasp::FaultKind::kNone);
  WaitForFinished(executor, 6);
  const wasp::ExecutorStats stats = executor.stats();
  EXPECT_EQ(stats.submitted, 6u);  // 4 storm + probe + 1 clean; sheds never entered
  EXPECT_EQ(stats.breaker_opens, 1u);
  ExpectConservation(stats);
}

TEST(Recovery, FaultedProbeReopensBreaker) {
  // Invocations 0..3 and 4 (the probe) all guest-trap: the probe must send
  // the breaker straight back to open, and the next submission sheds.
  auto image = FibImage();
  wasp::FaultPlan plan;
  for (uint64_t i = 0; i < 5; ++i) {
    plan.rules.push_back(wasp::FaultPlan::At(wasp::FaultKind::kGuestTrap, i));
  }
  wasp::Runtime runtime(PlanOptions(std::move(plan)));
  wasp::ExecutorOptions options;
  options.workers = 1;
  options.recovery.breaker_enabled = true;
  options.recovery.breaker_min_samples = 4;
  options.recovery.breaker_open_sheds = 1;
  wasp::Executor executor(&runtime, options);

  for (int i = 0; i < 4; ++i) {
    std::future<wasp::RunOutcome> future;
    ASSERT_TRUE(executor.TrySubmit(FibSpec(&image, "fib"), &future));
    future.get();
    WaitForFinished(executor, static_cast<uint64_t>(i) + 1);
  }
  ASSERT_EQ(executor.KeyRecoveryState("fib").state, wasp::BreakerState::kOpen);

  // One shed, then the probe — which faults.
  std::future<wasp::RunOutcome> shed;
  EXPECT_FALSE(executor.TrySubmit(FibSpec(&image, "fib"), &shed));
  std::future<wasp::RunOutcome> probe;
  ASSERT_TRUE(executor.TrySubmit(FibSpec(&image, "fib"), &probe));
  EXPECT_EQ(probe.get().fault, wasp::FaultKind::kGuestTrap);
  WaitForFinished(executor, 5);
  const wasp::KeyRecoverySnapshot rec = executor.KeyRecoveryState("fib");
  EXPECT_EQ(rec.state, wasp::BreakerState::kOpen);
  EXPECT_EQ(rec.opens, 2u);
  std::future<wasp::RunOutcome> next;
  wasp::Admission admission = wasp::Admission::kAccepted;
  EXPECT_FALSE(executor.TrySubmit(FibSpec(&image, "fib"), &next, wasp::KeyClass::kLatency,
                                  &admission));
  EXPECT_EQ(admission, wasp::Admission::kCircuitOpen);
}

TEST(Recovery, EwmaTracksFaultRateWithBreakerDisabled) {
  // Fault-rate tracking is unconditional; the breaker state machine is the
  // opt-in half.  Two faults must move the EWMA but never shed anything.
  auto image = FibImage();
  wasp::FaultPlan plan;
  plan.rules.push_back(wasp::FaultPlan::At(wasp::FaultKind::kGuestTrap, 0));
  plan.rules.push_back(wasp::FaultPlan::At(wasp::FaultKind::kGuestTrap, 1));
  wasp::Runtime runtime(PlanOptions(std::move(plan)));
  wasp::Executor executor(&runtime, 1);

  for (int i = 0; i < 3; ++i) {
    std::future<wasp::RunOutcome> future;
    ASSERT_TRUE(executor.TrySubmit(FibSpec(&image, "fib"), &future));
    future.get();
    WaitForFinished(executor, static_cast<uint64_t>(i) + 1);
  }
  const wasp::KeyRecoverySnapshot rec = executor.KeyRecoveryState("fib");
  EXPECT_EQ(rec.samples, 3u);
  EXPECT_GT(rec.fault_rate, 0.0);
  EXPECT_EQ(rec.state, wasp::BreakerState::kClosed);
  EXPECT_EQ(executor.stats().breaker_rejected, 0u);
}

// --- GovernTrace recovery discipline ----------------------------------------

// Hand-built two-tenant trace: the victim's invocations all fault, the
// co-tenant's all succeed, arrivals alternate with enough spacing that each
// completion is processed before the next arrival.
vnet::MeasuredTrace StormTrace(int per_tenant) {
  vnet::MeasuredTrace trace;
  trace.names = {"victim", "cotenant"};
  trace.classes = {wasp::KeyClass::kLatency, wasp::KeyClass::kLatency};
  double t = 0;
  for (int i = 0; i < per_tenant; ++i) {
    for (int tenant = 0; tenant < 2; ++tenant) {
      trace.arrivals_us.push_back(t);
      trace.tenant.push_back(tenant);
      trace.service_us.push_back(100.0);
      trace.cold.push_back(false);
      trace.faulted.push_back(tenant == 0);
      t += 200.0;
    }
  }
  return trace;
}

TEST(Recovery, GovernTraceBreakerShedsVictimOnly) {
  const vnet::MeasuredTrace trace = StormTrace(20);
  wasp::ExecutorOptions governed;
  governed.workers = 2;
  governed.recovery.breaker_enabled = true;
  governed.recovery.breaker_min_samples = 4;
  governed.recovery.breaker_open_sheds = 2;
  const vnet::GovernedReplay replay = vnet::GovernTrace(trace, governed);
  const vnet::TenantOutcome& victim = replay.tenants[0];
  const vnet::TenantOutcome& cotenant = replay.tenants[1];
  // The victim's breaker tripped and shed most of its storm; probes faulted
  // and re-opened it.
  EXPECT_GT(victim.shed_breaker, 0u);
  EXPECT_GE(victim.breaker_opens, 2u);
  EXPECT_GT(victim.shed_rate, 0.0);
  // The co-tenant never sheds and completes everything.
  EXPECT_EQ(cotenant.shed_breaker, 0u);
  EXPECT_EQ(cotenant.breaker_opens, 0u);
  EXPECT_EQ(cotenant.completed, cotenant.offered);

  // Deterministic: the same trace governs identically twice.
  const vnet::GovernedReplay again = vnet::GovernTrace(trace, governed);
  EXPECT_EQ(again.tenants[0].shed_breaker, victim.shed_breaker);
  EXPECT_EQ(again.tenants[0].breaker_opens, victim.breaker_opens);
  EXPECT_EQ(again.tenants[1].completed, cotenant.completed);

  // Disabled breaker: nothing sheds, every victim arrival burns a lane.
  wasp::ExecutorOptions ungoverned;
  ungoverned.workers = 2;
  const vnet::GovernedReplay off = vnet::GovernTrace(trace, ungoverned);
  EXPECT_EQ(off.tenants[0].shed_breaker, 0u);
  EXPECT_EQ(off.tenants[0].faulted, off.tenants[0].offered);
}

// --- Concurrent storm + probe races (the TSan lane's target) ----------------

TEST(Recovery, ConcurrentStormAndProbesKeepAccountingConserved) {
  auto image = FibImage();
  wasp::FaultPlan plan;
  plan.seed = 4242;
  // Invocation 0 is the lead-in storm call below, so at least one worker
  // death lands on an admitted idempotent invocation however the
  // submitters interleave.
  plan.rules.push_back(wasp::FaultPlan::At(wasp::FaultKind::kWorkerDeath, 0, "storm"));
  plan.rules.push_back(
      wasp::FaultPlan::Probability(wasp::FaultKind::kGuestTrap, 0.4, "storm"));
  plan.rules.push_back(
      wasp::FaultPlan::Probability(wasp::FaultKind::kWorkerDeath, 0.2, "storm"));
  wasp::Runtime runtime(PlanOptions(std::move(plan)));
  wasp::ExecutorOptions options;
  options.workers = 4;
  options.recovery.breaker_enabled = true;
  options.recovery.breaker_min_samples = 8;
  options.recovery.breaker_open_sheds = 4;
  options.recovery.idempotent_keys = {"storm", "calm"};
  wasp::Executor executor(&runtime, options);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 24;
  std::atomic<uint64_t> accepted{0};
  {
    std::future<wasp::RunOutcome> lead_in;
    ASSERT_TRUE(executor.TrySubmit(FibSpec(&image, "storm"), &lead_in));
    accepted.fetch_add(1);
    lead_in.get();
  }
  std::atomic<uint64_t> shed{0};
  std::atomic<uint64_t> calm_shed{0};
  std::atomic<bool> done{false};
  // A sampler hammers the stats snapshot (whose debug build asserts the
  // conservation law) and the recovery ledger while workers retry, trip,
  // and probe — the TSan lane checks this exact interleaving.
  std::thread sampler([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const wasp::ExecutorStats stats = executor.stats();
      EXPECT_EQ(stats.submitted,
                stats.completed + stats.faulted + stats.queued + stats.in_flight);
      (void)executor.KeyRecoveryState("storm");
      (void)executor.KeyFaultRate("calm");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const bool stormy = (i + t) % 2 == 0;
        const std::string key = stormy ? "storm" : "calm";
        std::future<wasp::RunOutcome> future;
        wasp::Admission admission = wasp::Admission::kAccepted;
        if (executor.TrySubmit(FibSpec(&image, key), &future, wasp::KeyClass::kLatency,
                               &admission)) {
          accepted.fetch_add(1);
          future.get();
        } else {
          ASSERT_EQ(admission, wasp::Admission::kCircuitOpen);
          shed.fetch_add(1);
          if (!stormy) {
            calm_shed.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  WaitForFinished(executor, accepted.load());
  done.store(true);
  sampler.join();

  const wasp::ExecutorStats stats = executor.stats();
  EXPECT_EQ(stats.submitted, accepted.load());
  EXPECT_EQ(stats.breaker_rejected, shed.load());
  EXPECT_EQ(stats.submitted + stats.breaker_rejected,
            static_cast<uint64_t>(kThreads) * kPerThread + 1);
  EXPECT_EQ(stats.completed + stats.faulted, stats.submitted);
  ExpectConservation(stats);
  // Only the storm key ever sheds: the calm key's breaker never trips.
  EXPECT_EQ(calm_shed.load(), 0u);
  EXPECT_EQ(executor.KeyRecoveryState("calm").fault_rate, 0.0);
  // Retries happened (worker deaths on an idempotent key) and some
  // succeeded; every retry is bounded at one attempt by construction.
  EXPECT_GT(stats.retries, 0u);
  EXPECT_LE(stats.retries, stats.submitted);
}

}  // namespace
