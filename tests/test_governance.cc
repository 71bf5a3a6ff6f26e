// Key-scoped resource governance tests: the pool's affine-shell eviction
// policy (generation-LRU under a resident-byte budget, reclaim via the
// cleaner crew), eager generation retirement (RetireGeneration /
// Runtime::RetireSnapshot), the deterministic governed-replay scheduler
// (GovernTrace: per-key quotas, weighted class dequeue, shed
// classification, fairness), a differential check that GovernTrace and a
// live one-worker Executor admit identically (both run the one
// wasp::AdmissionPolicy), and the wall-clock-paced replay mode.  The
// pool and Vespid tests run real shells/invocations; run under TSan
// (TSAN=1 ./ci.sh) to check the synchronization.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/base/rng.h"
#include "src/vjs/vjs.h"
#include "src/vnet/serverless.h"
#include "src/vrt/env.h"
#include "src/vrt/samples.h"
#include "src/wasp/pool.h"
#include "src/wasp/runtime.h"
#include "src/wasp/snapshot.h"
#include "src/wasp/vfunc.h"

namespace {

constexpr uint64_t kMb = 1ULL << 20;

// Creates a shell, dirties one page, and parks it affine under `gen`.
void ParkAffineShell(wasp::Pool& pool, uint64_t mem_size, uint64_t gen) {
  vkvm::VmConfig cfg;
  cfg.mem_size = mem_size;
  auto vm = vkvm::Vm::Create(cfg);
  uint8_t b = 1;
  ASSERT_TRUE(vm->memory().Write(0x4000, &b, 1).ok());
  pool.ReleaseAffine(std::move(vm), gen);
}

// --- Affine-shell eviction budget -------------------------------------------

TEST(AffineBudget, ParkOverBudgetEvictsLeastRecentlyUsedGeneration) {
  wasp::PoolOptions options;
  options.mode = wasp::CleanMode::kSync;
  options.shards = 1;
  options.affine_budget_bytes = 2 * kMb;
  wasp::Pool pool(options);

  // Three generations parked in order: the third park exceeds the 2 MB
  // budget, so the oldest generation (10) must be evicted.
  ParkAffineShell(pool, kMb, 10);
  ParkAffineShell(pool, kMb, 20);
  EXPECT_EQ(pool.stats().affine_resident_bytes, 2 * kMb);
  EXPECT_EQ(pool.stats().affine_evictions, 0u);
  ParkAffineShell(pool, kMb, 30);

  const wasp::PoolStats stats = pool.stats();
  EXPECT_EQ(stats.affine_resident_bytes, 2 * kMb);
  EXPECT_EQ(stats.affine_evictions, 1u);
  EXPECT_EQ(pool.AffineShells(10), 0u);  // LRU victim
  EXPECT_EQ(pool.AffineShells(20), 1u);
  EXPECT_EQ(pool.AffineShells(30), 1u);
  // Sync mode cleans the evicted shell inline; it is a free shell now.
  EXPECT_EQ(pool.TotalFreeShells(), 1u);
}

TEST(AffineBudget, RecentlyParkedGenerationSurvivesOlderOne) {
  wasp::PoolOptions options;
  options.mode = wasp::CleanMode::kSync;
  options.shards = 1;
  options.affine_budget_bytes = 2 * kMb;
  wasp::Pool pool(options);

  ParkAffineShell(pool, kMb, 10);
  ParkAffineShell(pool, kMb, 20);
  // Re-park generation 10 (acquire its shell affine and give it back):
  // park-time LRU now ranks 20 as the oldest.
  bool affine_hit = false;
  vkvm::VmConfig cfg;
  cfg.mem_size = kMb;
  auto vm = pool.AcquireAffine(cfg, 10, &affine_hit);
  ASSERT_TRUE(affine_hit);
  pool.ReleaseAffine(std::move(vm), 10);

  ParkAffineShell(pool, kMb, 30);
  EXPECT_EQ(pool.AffineShells(20), 0u);  // now the LRU victim
  EXPECT_EQ(pool.AffineShells(10), 1u);
  EXPECT_EQ(pool.AffineShells(30), 1u);
  EXPECT_EQ(pool.stats().affine_resident_bytes, 2 * kMb);
}

TEST(AffineBudget, EvictedShellsAreReclaimedByTheCleanerCrew) {
  wasp::PoolOptions options;
  options.mode = wasp::CleanMode::kAsync;
  options.shards = 1;
  options.cleaners = 1;
  options.affine_budget_bytes = kMb;
  wasp::Pool pool(options);

  ParkAffineShell(pool, kMb, 11);
  ParkAffineShell(pool, kMb, 22);  // over budget: 11 evicted to the crew

  const wasp::PoolStats stats = pool.stats();
  EXPECT_EQ(stats.affine_evictions, 1u);
  EXPECT_EQ(stats.affine_resident_bytes, kMb);
  EXPECT_EQ(pool.AffineShells(11), 0u);
  EXPECT_EQ(pool.AffineShells(22), 1u);
  pool.DrainCleaner();
  // The crew cleaned it off the critical path; it is a free shell now.
  EXPECT_EQ(pool.TotalFreeShells(), 1u);
  EXPECT_GE(pool.stats().cleans, 1u);
}

// --- Eager generation retirement --------------------------------------------

TEST(Retire, RetireGenerationEnqueuesParkedShellsToTheCleanerCrew) {
  wasp::PoolOptions options;
  options.mode = wasp::CleanMode::kAsync;
  options.shards = 2;
  options.cleaners = 1;
  wasp::Pool pool(options);

  ParkAffineShell(pool, kMb, 7);
  ParkAffineShell(pool, kMb, 7);
  ParkAffineShell(pool, kMb, 9);
  ASSERT_EQ(pool.AffineShells(7), 2u);

  pool.RetireGeneration(7);
  const wasp::PoolStats stats = pool.stats();
  EXPECT_EQ(pool.AffineShells(7), 0u);   // gone immediately, not on demand
  EXPECT_EQ(pool.AffineShells(9), 1u);   // other generations untouched
  EXPECT_EQ(stats.affine_retired, 2u);
  EXPECT_GE(stats.affine_reclaims, 2u);  // retirement counts as reclaim
  EXPECT_EQ(stats.affine_resident_bytes, kMb);

  pool.DrainCleaner();
  EXPECT_EQ(pool.TotalFreeShells(), 2u);
}

TEST(Retire, LateReleaseAfterRetireDivertsToCleaningInsteadOfParking) {
  // An invocation can still hold a shell of generation G when G is retired;
  // its eventual ReleaseAffine must not re-park under the dead generation
  // (nothing would ever reclaim it) — it goes through the cleaning path.
  wasp::PoolOptions options;
  options.mode = wasp::CleanMode::kSync;
  options.shards = 1;
  wasp::Pool pool(options);

  pool.RetireGeneration(77);     // G dies while the shell is "in flight"
  ParkAffineShell(pool, kMb, 77);  // the late release

  const wasp::PoolStats stats = pool.stats();
  EXPECT_EQ(pool.AffineShells(77), 0u);
  EXPECT_EQ(stats.affine_resident_bytes, 0u);
  EXPECT_EQ(stats.affine_parks, 0u);       // it was never parked
  EXPECT_EQ(stats.affine_retired, 1u);     // late retirement reclaim
  EXPECT_EQ(pool.TotalFreeShells(), 1u);   // cleaned into the free lists
}

TEST(Retire, RuntimeRetireSnapshotRecapturesUnderBudgetInALoop) {
  auto image = vrt::BuildImage(vrt::Env::kLong64, vrt::FibSource());
  ASSERT_TRUE(image.ok());
  wasp::RuntimeOptions options;
  options.pool.affine_budget_bytes = 4 * kMb;
  wasp::Runtime runtime(options);

  wasp::VirtineSpec spec;
  spec.image = &image.value();
  spec.key = "svc";
  spec.use_snapshot = true;
  wasp::VirtineFunc<int64_t(int64_t)> fib(&runtime, spec);

  constexpr int kRounds = 3;
  uint64_t last_generation = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < 3; ++i) {
      auto r = fib.Call(10);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(*r, 55);
    }
    // First call of the round re-captured (no snapshot existed).
    const wasp::SnapshotRef snap = runtime.snapshots().Find("svc");
    ASSERT_NE(snap, nullptr);
    EXPECT_NE(snap->generation, last_generation) << "round " << round;
    last_generation = snap->generation;
    EXPECT_LE(runtime.pool().stats().affine_resident_bytes,
              options.pool.affine_budget_bytes);

    // Retire: the store forgets the key and the parked shells are reclaimed
    // eagerly — nothing is left stranded under the dead generation.
    runtime.RetireSnapshot("svc");
    EXPECT_EQ(runtime.snapshots().Find("svc"), nullptr);
    EXPECT_EQ(runtime.pool().AffineShells(last_generation), 0u);
  }
  const wasp::PoolStats stats = runtime.pool().stats();
  EXPECT_GE(stats.affine_retired, static_cast<uint64_t>(kRounds));
  EXPECT_EQ(stats.affine_resident_bytes, 0u);  // every round fully reclaimed
}

// --- GovernTrace: the deterministic governed-replay scheduler ----------------

// A synthetic overload mix: a batch tenant flooding at 5x capacity and an
// interactive tenant at 1/8 of capacity.  No real invocations — the
// scheduler itself is under test, deterministically.
vnet::MeasuredTrace SyntheticHotBatchTrace() {
  vnet::MeasuredTrace trace;
  trace.names = {"interactive", "batch"};
  trace.classes = {wasp::KeyClass::kLatency, wasp::KeyClass::kBatch};
  std::vector<std::pair<double, int>> merged;
  for (int i = 0; i < 200; ++i) {  // batch: every 1 ms, 5 ms service
    merged.emplace_back(1000.0 * i, 1);
  }
  for (int i = 0; i < 50; ++i) {  // interactive: every 4 ms, 2 ms service
    merged.emplace_back(500.0 + 4000.0 * i, 0);
  }
  std::sort(merged.begin(), merged.end());
  for (const auto& [at, tenant] : merged) {
    trace.arrivals_us.push_back(at);
    trace.tenant.push_back(tenant);
    trace.service_us.push_back(tenant == 1 ? 5000.0 : 2000.0);
    trace.cold.push_back(false);
  }
  return trace;
}

TEST(GovernTrace, QuotaAndPriorityBoundInteractiveQueueWait) {
  const vnet::MeasuredTrace trace = SyntheticHotBatchTrace();

  wasp::ExecutorOptions ungoverned;
  ungoverned.workers = 1;
  ungoverned.batch_weight = 0;  // FIFO, no quota: the undifferentiated flood
  const vnet::GovernedReplay flood = vnet::GovernTrace(trace, ungoverned);

  // Quota sized to the interactive tenant's own worst-case backlog (~3: two
  // queued behind a 5 ms batch head-of-line service plus one running), so
  // only the flood sheds.
  wasp::ExecutorOptions governed = ungoverned;
  governed.key_quota = 4;
  governed.batch_weight = 4;
  const vnet::GovernedReplay fair = vnet::GovernTrace(trace, governed);

  // Conservation at every tenant: offered splits exactly.
  for (const auto& replay : {flood, fair}) {
    for (const vnet::TenantOutcome& tenant : replay.tenants) {
      EXPECT_EQ(tenant.offered,
                tenant.completed + tenant.shed_quota + tenant.shed_overload)
          << tenant.name;
    }
  }

  // Ungoverned: everything is admitted (unbounded queue) and the
  // interactive tenant drowns behind the batch backlog.
  EXPECT_EQ(flood.tenants[0].shed_quota + flood.tenants[0].shed_overload, 0u);
  EXPECT_EQ(flood.tenants[1].shed_quota + flood.tenants[1].shed_overload, 0u);
  EXPECT_DOUBLE_EQ(flood.fairness_index, 1.0);  // equally admitted, equally drowned

  // Governed: the batch key sheds at its quota, the interactive tenant
  // completes everything and its p99 queue wait collapses.
  EXPECT_EQ(fair.tenants[0].shed_quota, 0u);
  EXPECT_EQ(fair.tenants[0].completed, fair.tenants[0].offered);
  EXPECT_GT(fair.tenants[1].shed_quota, 0u);
  EXPECT_GT(fair.tenants[1].shed_rate, 0.5);  // the flood is mostly shed
  EXPECT_GT(flood.tenants[0].p99_queue_wait_us,
            10.0 * fair.tenants[0].p99_queue_wait_us);
  EXPECT_GT(fair.fairness_index, 0.0);
  EXPECT_LE(fair.fairness_index, 1.0);

  // Batch is not starved: it still completes work under governance.
  EXPECT_GT(fair.tenants[1].completed, 0u);

  // Deterministic: the same trace governs identically every time.
  const vnet::GovernedReplay again = vnet::GovernTrace(trace, governed);
  EXPECT_EQ(again.tenants[0].p99_queue_wait_us, fair.tenants[0].p99_queue_wait_us);
  EXPECT_EQ(again.tenants[1].shed_quota, fair.tenants[1].shed_quota);
  EXPECT_EQ(again.aggregate_rps, fair.aggregate_rps);
}

TEST(GovernTrace, GlobalBoundShedsAsOverloadNotQuota) {
  const vnet::MeasuredTrace trace = SyntheticHotBatchTrace();
  wasp::ExecutorOptions options;
  options.workers = 1;
  options.max_queue_depth = 4;
  options.block_when_full = false;
  options.batch_weight = 0;  // bound only: classification must say overload
  const vnet::GovernedReplay replay = vnet::GovernTrace(trace, options);
  uint64_t overload = 0;
  uint64_t quota = 0;
  for (const vnet::TenantOutcome& tenant : replay.tenants) {
    overload += tenant.shed_overload;
    quota += tenant.shed_quota;
  }
  EXPECT_GT(overload, 0u);
  EXPECT_EQ(quota, 0u);
}

// The replay models only the open-loop reject policy; a bounded queue that
// asks to block would silently change the result, so it is refused.
TEST(GovernTraceDeathTest, BoundedQueueMustUseTheRejectPolicy) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  wasp::ExecutorOptions options;
  options.max_queue_depth = 4;  // block_when_full keeps its default (true)
  EXPECT_DEATH(vnet::GovernTrace(SyntheticHotBatchTrace(), options), "reject policy");
}

// Tiered overrides: three tenants offering the *identical* flood, separated
// only by their resolved quota (premium and free explicit, standard through
// the key_quota fallback).  Admission must be monotone in quota.
TEST(GovernTrace, KeyQuotaOverridesResolveTiersOverOneFlood) {
  vnet::MeasuredTrace trace;
  trace.names = {"premium", "standard", "free"};
  trace.classes = {wasp::KeyClass::kLatency, wasp::KeyClass::kLatency,
                   wasp::KeyClass::kLatency};
  for (int i = 0; i < 120; ++i) {  // round-robin arrivals, far over capacity
    trace.arrivals_us.push_back(1000.0 * i);
    trace.tenant.push_back(i % 3);
    trace.service_us.push_back(5000.0);
    trace.cold.push_back(false);
  }
  wasp::ExecutorOptions tiered;
  tiered.workers = 1;
  tiered.key_quota = 4;  // the standard tier rides the fallback
  tiered.key_quota_overrides = {{"premium", 8}, {"free", 1}};
  EXPECT_EQ(tiered.QuotaFor("premium"), 8u);
  EXPECT_EQ(tiered.QuotaFor("standard"), 4u);
  EXPECT_EQ(tiered.QuotaFor("free"), 1u);

  const vnet::GovernedReplay replay = vnet::GovernTrace(trace, tiered);
  const vnet::TenantOutcome& premium = replay.tenants[0];
  const vnet::TenantOutcome& standard = replay.tenants[1];
  const vnet::TenantOutcome& free_tier = replay.tenants[2];
  for (const vnet::TenantOutcome& tenant : replay.tenants) {
    EXPECT_EQ(tenant.offered, tenant.completed + tenant.shed_quota + tenant.shed_overload)
        << tenant.name;
    EXPECT_GT(tenant.shed_quota, 0u) << tenant.name << ": its quota never bound";
  }
  EXPECT_GT(premium.completed, standard.completed);
  EXPECT_GT(standard.completed, free_tier.completed);
  EXPECT_LT(premium.shed_rate, standard.shed_rate);
  EXPECT_LT(standard.shed_rate, free_tier.shed_rate);
  // Differentiated admission shows up in the fairness index (< 1 by design).
  EXPECT_LT(replay.fairness_index, 1.0);
  EXPECT_GT(replay.fairness_index, 0.0);
}

// --- Differential: ungoverned GovernTrace vs LaneSchedule --------------------
//
// With no quota, no bound, the breaker off and one class, GovernTrace must
// reduce to FIFO placement on the earliest-free lane — the LaneSchedule
// discipline fig13's closed loop uses.  The reference below places each
// arrival in order with LaneSchedule and buckets the result independently,
// so every timeline bucket and the latency summary must agree exactly.

// A seeded ungoverned trace: 1-3 latency-class tenants, 1-300 arrivals over
// a few seconds, random services and cold flags.  Every third seed snaps
// times to whole milliseconds, so completions tie with arrivals.
vnet::MeasuredTrace MakeUngovernedTrace(uint64_t seed) {
  vbase::Rng rng(seed);
  vnet::MeasuredTrace trace;
  const size_t tenants = 1 + rng.Below(3);
  for (size_t t = 0; t < tenants; ++t) {
    trace.names.push_back("t" + std::to_string(t));
    trace.classes.push_back(wasp::KeyClass::kLatency);
  }
  const bool snap = seed % 3 == 0;
  auto draw = [&](double max_us) {
    const double us = rng.NextDouble() * max_us;
    return snap ? std::floor(us / 1000.0) * 1000.0 : us;
  };
  const size_t n = 1 + rng.Below(300);
  const double service_scale = 1000.0 + draw(60000.0);
  double t = 0;
  for (size_t i = 0; i < n; ++i) {
    t += draw(40000.0);
    trace.arrivals_us.push_back(t);
    trace.tenant.push_back(static_cast<int>(rng.Below(tenants)));
    trace.service_us.push_back(1.0 + draw(service_scale));
    trace.cold.push_back(rng.Below(8) == 0);
  }
  return trace;
}

// The reference: LaneSchedule placement in arrival order, then 1 s buckets
// keyed by arrival (offered, mean/p99 latency, cold starts) and by
// completion (completed).
vnet::SimResult LaneScheduleReference(const vnet::MeasuredTrace& trace, int lanes) {
  vnet::LaneSchedule schedule(lanes);
  std::map<int64_t, vnet::SimPoint> buckets;
  std::map<int64_t, std::vector<double>> bucket_latencies;
  std::vector<double> latencies;
  vnet::SimResult sim;
  for (size_t i = 0; i < trace.arrivals_us.size(); ++i) {
    const double arrival = trace.arrivals_us[i];
    const double done = schedule.Place(arrival, trace.service_us[i]);
    const double latency = done - arrival;
    const int64_t bucket = static_cast<int64_t>(arrival / 1e6);
    vnet::SimPoint& point = buckets[bucket];
    point.t_s = static_cast<double>(bucket);
    point.offered_rps += 1;
    point.mean_latency_us += latency;
    if (trace.cold[i]) {
      ++point.cold_starts;
      ++sim.total_cold_starts;
    }
    const int64_t done_bucket = static_cast<int64_t>(done / 1e6);
    buckets[done_bucket].t_s = static_cast<double>(done_bucket);
    buckets[done_bucket].completed_rps += 1;
    bucket_latencies[bucket].push_back(latency);
    latencies.push_back(latency);
    ++sim.total_requests;
  }
  for (auto& [bucket, point] : buckets) {
    if (point.offered_rps > 0) {
      point.mean_latency_us /= point.offered_rps;
      point.p99_latency_us = vbase::Quantile(bucket_latencies[bucket], 0.99);
    }
    sim.timeline.push_back(point);
  }
  sim.latency_us = vbase::Summarize(latencies);
  return sim;
}

// Empty when the two SimResults agree exactly, else the first difference.
std::string SimMismatch(const vnet::SimResult& got, const vnet::SimResult& want) {
  if (got.total_requests != want.total_requests ||
      got.total_cold_starts != want.total_cold_starts) {
    return "totals " + std::to_string(got.total_requests) + "/" +
           std::to_string(got.total_cold_starts) + " vs " +
           std::to_string(want.total_requests) + "/" + std::to_string(want.total_cold_starts);
  }
  if (got.timeline.size() != want.timeline.size()) {
    return "bucket count " + std::to_string(got.timeline.size()) + " vs " +
           std::to_string(want.timeline.size());
  }
  for (size_t b = 0; b < got.timeline.size(); ++b) {
    const vnet::SimPoint& g = got.timeline[b];
    const vnet::SimPoint& w = want.timeline[b];
    if (g.t_s != w.t_s || g.offered_rps != w.offered_rps ||
        g.completed_rps != w.completed_rps || g.mean_latency_us != w.mean_latency_us ||
        g.p99_latency_us != w.p99_latency_us || g.cold_starts != w.cold_starts) {
      return "bucket t=" + std::to_string(w.t_s);
    }
  }
  const vbase::Summary& g = got.latency_us;
  const vbase::Summary& w = want.latency_us;
  if (g.count != w.count || g.mean != w.mean || g.stddev != w.stddev || g.min != w.min ||
      g.max != w.max || g.p50 != w.p50 || g.p90 != w.p90 || g.p99 != w.p99) {
    return "latency summary: mean " + std::to_string(g.mean) + " vs " +
           std::to_string(w.mean) + ", p99 " + std::to_string(g.p99) + " vs " +
           std::to_string(w.p99);
  }
  return {};
}

TEST(VirtualTime, UngovernedGovernTraceMatchesLaneSchedule) {
  constexpr uint64_t kSeeds = 500;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const vnet::MeasuredTrace trace = MakeUngovernedTrace(seed);
    wasp::ExecutorOptions options;
    options.workers = 1 + static_cast<int>(seed % 8);
    const vnet::GovernedReplay replay = vnet::GovernTrace(trace, options);
    EXPECT_EQ(SimMismatch(replay.sim, LaneScheduleReference(trace, options.workers)), "")
        << "seed " << seed << ", " << options.workers << " lanes, "
        << trace.arrivals_us.size() << " arrivals";
  }
}

// --- Differential: the live executor vs the GovernTrace replay ---------------
//
// One arrival sequence goes through GovernTrace on one virtual lane and
// through a real one-worker Executor.  Each executor task blocks until the
// harness releases it, and the harness releases completions in the order
// the sequence's virtual timeline puts them before each arrival, so both
// sides see the same admission, enqueue, completion and dequeue events.
// Both run the one wasp::AdmissionPolicy; per-key admission counts and
// breaker opens must agree exactly.

struct DiffArrival {
  double at_us;
  double service_us;
  int key;
  bool faulted;
};

struct DiffCase {
  std::vector<std::string> names;
  std::vector<wasp::KeyClass> classes;
  std::vector<DiffArrival> arrivals;  // ascending at_us, distinct times
  wasp::ExecutorOptions options;
};

// Per-key admission tallies, in DiffCase::names order.
struct DiffCounts {
  std::vector<uint64_t> accepted, quota, breaker, overload, opens;

  explicit DiffCounts(size_t keys)
      : accepted(keys), quota(keys), breaker(keys), overload(keys), opens(keys) {}
};

// A seeded mix of 3-4 keys over both classes, with quota (default and
// overrides), the global bound, the breaker and the class weighting each
// switched on or off per seed.  Times are continuous random doubles, so no
// completion coincides with an arrival.
DiffCase MakeDiffCase(uint64_t seed) {
  vbase::Rng rng(seed);
  DiffCase c;
  const size_t keys = 3 + rng.Below(2);
  std::vector<double> fault_rate;
  for (size_t k = 0; k < keys; ++k) {
    c.names.push_back("key" + std::to_string(k));
    c.classes.push_back(rng.Below(2) == 0 ? wasp::KeyClass::kLatency : wasp::KeyClass::kBatch);
    static constexpr double kRates[] = {0.0, 0.2, 0.6, 0.95};
    fault_rate.push_back(kRates[rng.Below(4)]);
  }
  wasp::ExecutorOptions& o = c.options;
  o.workers = 1;
  o.block_when_full = false;
  o.max_queue_depth = rng.Below(3) == 0 ? 0 : 1 + rng.Below(4);
  o.key_quota = rng.Below(3) == 0 ? 0 : 1 + rng.Below(3);
  if (rng.Below(2) == 0) {
    o.key_quota_overrides[c.names[rng.Below(keys)]] = rng.Below(4);
  }
  static constexpr int kWeights[] = {0, 1, 2, 4};
  o.batch_weight = kWeights[rng.Below(4)];
  o.recovery.breaker_enabled = rng.Below(4) != 0;
  o.recovery.breaker_alpha = 0.5;
  o.recovery.breaker_open_threshold = 0.45;
  o.recovery.breaker_min_samples = 1 + rng.Below(3);
  o.recovery.breaker_open_sheds = rng.Below(4);
  // Offered load from ~0.5x to ~3x the lane's capacity.
  static constexpr double kServiceScale[] = {0.5, 1.0, 3.0};
  const double scale = kServiceScale[rng.Below(3)];
  const size_t n = 40 + rng.Below(41);
  double t = 0;
  for (size_t i = 0; i < n; ++i) {
    t += 1e-3 + rng.NextDouble() * 2.0;
    const int key = static_cast<int>(rng.Below(keys));
    const double service = scale * (0.2 + rng.NextDouble() * 1.6);
    const bool faulted = rng.NextDouble() < fault_rate[static_cast<size_t>(key)];
    c.arrivals.push_back(DiffArrival{t, service, key, faulted});
  }
  return c;
}

DiffCounts ReplayCounts(const DiffCase& c) {
  vnet::MeasuredTrace trace;
  trace.names = c.names;
  trace.classes = c.classes;
  for (const DiffArrival& a : c.arrivals) {
    trace.arrivals_us.push_back(a.at_us);
    trace.tenant.push_back(a.key);
    trace.service_us.push_back(a.service_us);
    trace.cold.push_back(false);
    trace.faulted.push_back(a.faulted);
  }
  const vnet::GovernedReplay replay = vnet::GovernTrace(trace, c.options);
  DiffCounts counts(c.names.size());
  for (size_t k = 0; k < c.names.size(); ++k) {
    const vnet::TenantOutcome& t = replay.tenants[k];
    counts.accepted[k] = t.completed + t.faulted;
    counts.quota[k] = t.shed_quota;
    counts.breaker[k] = t.shed_breaker;
    counts.overload[k] = t.shed_overload;
    counts.opens[k] = t.breaker_opens;
  }
  return counts;
}

// Drives the sequence through a real one-worker executor.  The harness keeps
// the virtual clock: the running task's virtual completion is its start (the
// later of the lane freeing and its arrival) plus its service, and it is
// released before the first arrival after it.
DiffCounts ExecutorCounts(wasp::Runtime* runtime, const DiffCase& c) {
  const size_t n = c.arrivals.size();
  std::mutex mu;
  std::condition_variable cv;
  std::vector<char> released(n, 0);
  std::vector<size_t> started;  // task indices, in the order the worker ran them
  DiffCounts counts(c.names.size());
  wasp::Executor executor(runtime, c.options);
  std::vector<std::future<wasp::RunOutcome>> futures(n);

  size_t seen = 0;        // entries of `started` the harness has consumed
  long running = -1;      // the task the worker is blocked in, if any
  double running_done = 0;
  double lane_free = 0;
  // Called with no task running: waits until the worker either started the
  // next queued job or has nothing left to run.
  auto settle = [&] {
    while (true) {
      {
        std::lock_guard<std::mutex> lock(mu);
        if (started.size() > seen) {
          const size_t k = started[seen++];
          running = static_cast<long>(k);
          running_done = std::max(lane_free, c.arrivals[k].at_us) + c.arrivals[k].service_us;
          return;
        }
      }
      const wasp::ExecutorStats stats = executor.stats();
      if (stats.queued == 0 && stats.in_flight == 0) {
        return;
      }
      std::this_thread::yield();
    }
  };

  for (size_t i = 0; i < n; ++i) {
    const DiffArrival& a = c.arrivals[i];
    while (running >= 0 && running_done < a.at_us) {
      {
        std::lock_guard<std::mutex> lock(mu);
        released[static_cast<size_t>(running)] = 1;
      }
      cv.notify_all();
      futures[static_cast<size_t>(running)].wait();  // accounting settled
      lane_free = running_done;
      running = -1;
      settle();
    }
    auto task = [&, i] {
      std::unique_lock<std::mutex> lock(mu);
      started.push_back(i);
      cv.wait(lock, [&] { return released[i] != 0; });
      wasp::RunOutcome outcome;
      if (c.arrivals[i].faulted) {
        outcome.fault = wasp::FaultKind::kGuestTrap;
        outcome.status = vbase::Internal("scripted fault");
      }
      return outcome;
    };
    const size_t k = static_cast<size_t>(a.key);
    wasp::Admission admission = wasp::Admission::kStopped;
    executor.TrySubmitTask(task, &futures[i], c.names[k], c.classes[k], &admission);
    switch (admission) {
      case wasp::Admission::kAccepted: ++counts.accepted[k]; break;
      case wasp::Admission::kQuotaExceeded: ++counts.quota[k]; break;
      case wasp::Admission::kCircuitOpen: ++counts.breaker[k]; break;
      case wasp::Admission::kQueueFull: ++counts.overload[k]; break;
      case wasp::Admission::kStopped: ADD_FAILURE() << "executor stopped"; break;
    }
    if (admission == wasp::Admission::kAccepted && running < 0) {
      settle();
    }
  }
  const wasp::ExecutorStats stats = executor.stats();
  uint64_t quota = 0, breaker = 0, overload = 0;
  for (size_t k = 0; k < c.names.size(); ++k) {
    quota += counts.quota[k];
    breaker += counts.breaker[k];
    overload += counts.overload[k];
  }
  EXPECT_EQ(stats.quota_rejected, quota);
  EXPECT_EQ(stats.breaker_rejected, breaker);
  EXPECT_EQ(stats.rejected, overload);
  // After the last arrival the one worker runs what is queued in the order
  // the replay's lane does, so the breaker's opens compare at the end.
  {
    std::lock_guard<std::mutex> lock(mu);
    std::fill(released.begin(), released.end(), 1);
  }
  cv.notify_all();
  for (std::future<wasp::RunOutcome>& f : futures) {
    if (f.valid()) {
      f.wait();
    }
  }
  for (size_t k = 0; k < c.names.size(); ++k) {
    counts.opens[k] = executor.KeyRecoveryState(c.names[k]).opens;
  }
  return counts;
}

// Returns an empty string when executor and replay agree on `c`, else the
// first per-key disagreement.
std::string DiffCaseMismatch(wasp::Runtime* runtime, const DiffCase& c) {
  const DiffCounts live = ExecutorCounts(runtime, c);
  const DiffCounts replay = ReplayCounts(c);
  struct Field {
    const char* name;
    const std::vector<uint64_t> DiffCounts::*values;
  };
  static constexpr Field kFields[] = {
      {"accepted", &DiffCounts::accepted}, {"quota", &DiffCounts::quota},
      {"breaker", &DiffCounts::breaker},   {"overload", &DiffCounts::overload},
      {"opens", &DiffCounts::opens},
  };
  for (size_t k = 0; k < c.names.size(); ++k) {
    for (const Field& f : kFields) {
      if ((live.*f.values)[k] != (replay.*f.values)[k]) {
        return c.names[k] + " " + f.name + ": executor " +
               std::to_string((live.*f.values)[k]) + ", replay " +
               std::to_string((replay.*f.values)[k]);
      }
    }
  }
  return {};
}

TEST(AdmissionDifferential, ExecutorAndReplayAgreeOnSeededSequences) {
  wasp::Runtime runtime;
  constexpr uint64_t kSeeds = 240;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const std::string mismatch = DiffCaseMismatch(&runtime, MakeDiffCase(seed));
    EXPECT_EQ(mismatch, "") << "seed " << seed;
  }
}

// Seed 2, minimized.  A one-worker executor used to run a queued job of the
// key it had just run ahead of the class queue's head (the keyed affinity
// scan).  Here that put key0's second fault ahead of key1's job, so key0's
// breaker opened before the arrival at t=6 and shed it, while the replay's
// FIFO lane admitted it.
TEST(AdmissionDifferential, OneWorkerDequeuesFifoWithinAClass) {
  DiffCase c;
  c.names = {"key0", "key1", "key2"};
  c.classes = {wasp::KeyClass::kLatency, wasp::KeyClass::kLatency, wasp::KeyClass::kBatch};
  c.options.workers = 1;
  c.options.max_queue_depth = 4;
  c.options.block_when_full = false;
  c.options.key_quota = 3;
  c.options.batch_weight = 1;
  c.options.recovery.breaker_enabled = true;
  c.options.recovery.breaker_alpha = 0.5;
  c.options.recovery.breaker_open_threshold = 0.45;
  c.options.recovery.breaker_min_samples = 2;
  c.options.recovery.breaker_open_sheds = 1;
  c.arrivals = {{0.0, 2.9, 0, true}, {0.3, 5.2, 1, false}, {1.9, 2.8, 0, true},
                {6.0, 3.2, 0, true}};
  const DiffCounts replay = ReplayCounts(c);
  EXPECT_EQ(replay.accepted[0], 3u);
  EXPECT_EQ(replay.breaker[0], 0u);
  wasp::Runtime runtime;
  EXPECT_EQ(DiffCaseMismatch(&runtime, c), "");
}

// A completion after the last arrival still feeds the breaker: the only
// job faults, and both sides count the open it causes.
TEST(AdmissionDifferential, CompletionAfterTheLastArrivalOpensTheBreaker) {
  DiffCase c;
  c.names = {"key0"};
  c.classes = {wasp::KeyClass::kLatency};
  c.options.workers = 1;
  c.options.block_when_full = false;
  c.options.recovery.breaker_enabled = true;
  c.options.recovery.breaker_alpha = 0.5;
  c.options.recovery.breaker_open_threshold = 0.45;
  c.options.recovery.breaker_min_samples = 1;
  c.arrivals = {{0.0, 1.0, 0, true}};
  const DiffCounts replay = ReplayCounts(c);
  EXPECT_EQ(replay.accepted[0], 1u);
  EXPECT_EQ(replay.opens[0], 1u);
  wasp::Runtime runtime;
  EXPECT_EQ(DiffCaseMismatch(&runtime, c), "");
}

// A half-open probe that the global bound rejects hands its reservation
// back on both sides: the next arrival of the key becomes the probe, and its
// clean completion closes the breaker.
TEST(AdmissionDifferential, ProbeRejectedByTheGlobalBoundHandsItsReservationBack) {
  DiffCase c;
  c.names = {"key0", "key1"};
  c.classes = {wasp::KeyClass::kLatency, wasp::KeyClass::kLatency};
  c.options.workers = 1;
  c.options.max_queue_depth = 1;
  c.options.block_when_full = false;
  c.options.recovery.breaker_enabled = true;
  c.options.recovery.breaker_alpha = 0.5;
  c.options.recovery.breaker_open_threshold = 0.45;
  c.options.recovery.breaker_min_samples = 1;
  c.options.recovery.breaker_open_sheds = 0;
  c.arrivals = {
      {0.0, 10.0, 1, false},  // holds the lane until t=10
      {0.5, 1.0, 0, true},    // runs [10, 11] and opens key0's breaker
      {10.5, 10.0, 1, false},
      {11.5, 5.0, 1, false},  // fills the queue
      {12.0, 1.0, 0, false},  // the probe: overload, reservation handed back
      {13.0, 1.0, 0, false},  // the probe again: overload again
      {22.0, 1.0, 0, false},  // the probe, admitted; runs clean and closes
      {28.0, 1.0, 0, false},  // closed: admitted
  };
  const DiffCounts replay = ReplayCounts(c);
  EXPECT_EQ(replay.accepted[0], 3u);
  EXPECT_EQ(replay.overload[0], 2u);
  EXPECT_EQ(replay.breaker[0], 0u);
  EXPECT_EQ(replay.opens[0], 1u);
  EXPECT_EQ(replay.accepted[1], 3u);
  wasp::Runtime runtime;
  EXPECT_EQ(DiffCaseMismatch(&runtime, c), "");
}

// The quota can reject a half-open probe only when the key's load got past
// the quota without entry admission — a blocking SubmitTask bypasses it —
// which the replay never does, so this path is checked on the executor.
TEST(AdmissionPolicyExecutor, ProbeRejectedByTheQuotaHandsItsReservationBack) {
  wasp::Runtime runtime;
  wasp::ExecutorOptions options;
  options.workers = 1;
  options.key_quota = 1;
  options.recovery.breaker_enabled = true;
  options.recovery.breaker_alpha = 0.5;
  options.recovery.breaker_open_threshold = 0.45;
  options.recovery.breaker_min_samples = 1;
  options.recovery.breaker_open_sheds = 0;
  wasp::Executor executor(&runtime, options);
  auto faulting = [] {
    wasp::RunOutcome outcome;
    outcome.fault = wasp::FaultKind::kGuestTrap;
    return outcome;
  };
  std::future<wasp::RunOutcome> future;
  ASSERT_TRUE(executor.TrySubmitTask(faulting, &future, "k"));
  future.get();
  ASSERT_EQ(executor.KeyRecoveryState("k").state, wasp::BreakerState::kOpen);

  // A blocking submission holds the key at its quota while the breaker is
  // open; the next admission-checked one becomes the probe and is then
  // rejected by the quota.
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  auto held = executor.SubmitTask(
      [opened] {
        opened.wait();
        return wasp::RunOutcome{};
      },
      "k");
  wasp::Admission admission = wasp::Admission::kAccepted;
  EXPECT_FALSE(executor.TrySubmitTask([] { return wasp::RunOutcome{}; }, &future, "k",
                                      wasp::KeyClass::kLatency, &admission));
  EXPECT_EQ(admission, wasp::Admission::kQuotaExceeded);
  gate.set_value();
  held.get();

  // The reservation came back: the next submission is the probe, and its
  // clean run closes the breaker.
  ASSERT_TRUE(executor.TrySubmitTask([] { return wasp::RunOutcome{}; }, &future, "k",
                                     wasp::KeyClass::kLatency, &admission));
  future.get();
  EXPECT_EQ(executor.KeyRecoveryState("k").state, wasp::BreakerState::kClosed);
  EXPECT_EQ(executor.stats().quota_rejected, 1u);
  EXPECT_EQ(executor.stats().breaker_rejected, 0u);
}

// --- Vespid multi-tenant measurement (real invocations) ----------------------

TEST(MultiTenant, MeasuredTraceCoversEveryArrivalOfEveryTenant) {
  wasp::Runtime runtime;
  vnet::Vespid vespid(&runtime);
  ASSERT_TRUE(vespid.Register("b64", vjs::Base64ScriptSource()).ok());
  ASSERT_TRUE(vespid
                  .Register("echo",
                            "var i = 0; while (i < input_len()) { out(input(i)); "
                            "i = i + 1; }")
                  .ok());

  std::vector<vnet::TenantSpec> tenants(2);
  tenants[0].name = "b64";
  tenants[0].klass = wasp::KeyClass::kLatency;
  tenants[0].phases = {{40, 0.2}};
  tenants[0].payload = std::vector<uint8_t>(64, 7);
  tenants[1].name = "echo";
  tenants[1].klass = wasp::KeyClass::kBatch;
  tenants[1].phases = {{80, 0.2}};
  tenants[1].payload = std::vector<uint8_t>(32, 9);

  auto trace = vespid.MeasureMultiTenant(tenants, /*concurrency=*/4, /*seed=*/42);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  const size_t n = trace->arrivals_us.size();
  ASSERT_EQ(n, 8u + 16u);
  ASSERT_EQ(trace->service_us.size(), n);
  ASSERT_EQ(trace->cold.size(), n);
  uint64_t per_tenant[2] = {0, 0};
  bool cold_seen[2] = {false, false};
  for (size_t i = 0; i < n; ++i) {
    EXPECT_GT(trace->service_us[i], 0.0);
    if (i > 0) {
      EXPECT_GE(trace->arrivals_us[i], trace->arrivals_us[i - 1]);
    }
    ++per_tenant[trace->tenant[i]];
    cold_seen[trace->tenant[i]] = cold_seen[trace->tenant[i]] || trace->cold[i];
  }
  EXPECT_EQ(per_tenant[0], 8u);
  EXPECT_EQ(per_tenant[1], 16u);
  // Each tenant's first invocation booted from its image (its own key).
  EXPECT_TRUE(cold_seen[0]);
  EXPECT_TRUE(cold_seen[1]);

  // The measured trace feeds the governed scheduler end to end.
  wasp::ExecutorOptions options;
  options.workers = 2;
  options.key_quota = 2;
  const vnet::GovernedReplay replay = vnet::GovernTrace(*trace, options);
  uint64_t offered = 0;
  for (const vnet::TenantOutcome& tenant : replay.tenants) {
    offered += tenant.offered;
    EXPECT_EQ(tenant.offered,
              tenant.completed + tenant.shed_quota + tenant.shed_overload);
  }
  EXPECT_EQ(offered, n);
}

// --- Wall-clock-paced replay (soak mode) -------------------------------------

TEST(PacedReplay, WallClockPacingStretchesTheReplayToTheTraceDuration) {
  wasp::Runtime runtime;
  vnet::Vespid vespid(&runtime);
  ASSERT_TRUE(vespid.Register("b64", vjs::Base64ScriptSource()).ok());
  const std::vector<uint8_t> payload(32, 3);
  const std::vector<vnet::LoadPhase> phases = {{100, 0.05}};  // 5 arrivals over 50 ms

  vnet::ReplayOptions options;
  options.concurrency = 2;
  options.pace_wall_clock = true;
  auto replay = vespid.ReplayBurstyLoad("b64", phases, payload, options);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->sim.total_requests, 5u);
  // The last arrival sits at ~40 ms into the trace; pacing must have held
  // dispatch back at least that long (default mode submits instantly).
  EXPECT_GE(replay->wall_ns, 30ull * 1000 * 1000);
}

}  // namespace
