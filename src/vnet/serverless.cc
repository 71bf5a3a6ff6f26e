#include "src/vnet/serverless.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <limits>
#include <map>
#include <queue>
#include <thread>
#include <tuple>

#include "src/base/clock.h"
#include "src/base/log.h"
#include "src/vcc/vcc.h"
#include "src/vjs/vjs.h"
#include "src/vrt/vlibc.h"
#include "src/wasp/executor.h"

namespace vnet {

Vespid::Vespid(wasp::Runtime* runtime) : runtime_(runtime) {}

vbase::Status Vespid::Register(const std::string& name, const std::string& microjs_source) {
  auto bytecode = vjs::CompileScript(microjs_source);
  if (!bytecode.ok()) {
    return bytecode.status();
  }
  auto image = vcc::CompileProgram(
      vrt::VlibcSource() + vjs::EngineSource(*bytecode, /*teardown=*/false), "main",
      vrt::Env::kLong64);
  if (!image.ok()) {
    return image.status();
  }
  functions_.push_back(Fn{name, std::move(*image)});
  return vbase::Status::Ok();
}

const Vespid::Fn* Vespid::FindFunction(const std::string& name) const {
  for (const Fn& f : functions_) {
    if (f.name == name) {
      return &f;
    }
  }
  return nullptr;
}

namespace {

wasp::VirtineSpec MakeVespidSpec(const std::string& name, const visa::Image* image,
                                 const std::vector<uint8_t>* payload) {
  wasp::VirtineSpec spec;
  spec.image = image;
  spec.key = "vespid-" + name;
  spec.mem_size = 2ULL << 20;
  spec.policy = wasp::kPolicyManaged;
  spec.use_snapshot = true;
  spec.crt_snapshot = false;  // the engine snapshots itself after init
  spec.input = payload;
  return spec;
}

// One served request on the virtual timeline, however its completion time
// was produced (analytic model or measured replay).
struct ServedEvent {
  double arrival_us;
  double done_us;
  bool cold;
};

// Folds served events (in arrival order) into the Figure 15 timeline: 1 s
// buckets with offered/completed rates, per-arrival-bucket latency stats,
// and cold-start counts.  Shared by the simulator and the replay so the two
// halves of the figure can never drift in bucketing rules.
SimResult AssembleSimResult(const std::vector<ServedEvent>& events) {
  SimResult result;
  std::vector<double> latencies;
  latencies.reserve(events.size());
  std::map<int64_t, SimPoint> buckets;
  std::map<int64_t, std::vector<double>> bucket_lats;
  for (const ServedEvent& ev : events) {
    const double latency = ev.done_us - ev.arrival_us;
    latencies.push_back(latency);
    const int64_t bucket = static_cast<int64_t>(ev.arrival_us / 1e6);
    SimPoint& point = buckets[bucket];
    point.t_s = static_cast<double>(bucket);
    point.offered_rps += 1;
    point.mean_latency_us += latency;  // sum; normalized below
    if (ev.cold) {
      ++point.cold_starts;
      ++result.total_cold_starts;
    }
    const int64_t done_bucket = static_cast<int64_t>(ev.done_us / 1e6);
    buckets[done_bucket].t_s = static_cast<double>(done_bucket);
    buckets[done_bucket].completed_rps += 1;
    ++result.total_requests;
    bucket_lats[bucket].push_back(latency);
  }
  for (auto& [bucket, point] : buckets) {
    if (point.offered_rps > 0) {
      point.mean_latency_us /= point.offered_rps;
    }
    auto it = bucket_lats.find(bucket);
    if (it != bucket_lats.end()) {
      point.p99_latency_us = vbase::Quantile(it->second, 0.99);
    }
    result.timeline.push_back(point);
  }
  result.latency_us = vbase::Summarize(latencies);
  return result;
}

}  // namespace

vbase::Result<Vespid::Invocation> Vespid::Invoke(const std::string& name,
                                                 const std::vector<uint8_t>& payload) {
  const Fn* fn = FindFunction(name);
  if (fn == nullptr) {
    return vbase::NotFound("no such function: " + name);
  }
  vbase::WallTimer timer;
  wasp::VirtineSpec spec = MakeVespidSpec(fn->name, &fn->image, &payload);
  wasp::RunOutcome outcome = runtime_->Invoke(spec);
  if (!outcome.status.ok()) {
    return outcome.status;
  }
  Invocation inv;
  inv.output = std::move(outcome.output);
  inv.modeled_cycles = outcome.stats.total_cycles;
  inv.wall_ns = timer.ElapsedNanos();
  inv.cold = !outcome.stats.restored_snapshot;
  inv.affine = outcome.stats.affine_restore;
  inv.restored_bytes = outcome.stats.restored_bytes;
  return inv;
}

vbase::Result<Vespid::ReplayResult> Vespid::ReplayBurstyLoad(
    const std::string& name, const std::vector<LoadPhase>& phases,
    const std::vector<uint8_t>& payload, const ReplayOptions& options) {
  // Measure one real invocation per arrival (a one-tenant trace keeps the
  // seed: tenant 0's trace uses seed + 0), then replay it ungoverned.
  auto trace = MeasureMultiTenant({TenantSpec{name, phases, wasp::KeyClass::kLatency, payload}},
                                  options.concurrency, options.seed, options.pace_wall_clock);
  if (!trace.ok()) {
    return trace.status();
  }
  wasp::ExecutorOptions ungoverned;
  ungoverned.workers = options.concurrency;
  ReplayResult replay;
  replay.sim = GovernTrace(*trace, ungoverned).sim;
  replay.wall_ns = trace->wall_ns;

  double warm_sum = 0;
  double cold_sum = 0;
  uint64_t warm_count = 0;
  for (size_t i = 0; i < trace->service_us.size(); ++i) {
    if (trace->faulted[i]) {
      ++replay.faulted_invocations;
    } else if (trace->cold[i]) {
      ++replay.cold_invocations;
      cold_sum += trace->service_us[i];
    } else {
      ++warm_count;
      warm_sum += trace->service_us[i];
    }
  }
  replay.measured_warm_us = warm_count > 0 ? warm_sum / static_cast<double>(warm_count) : 0;
  replay.measured_cold_us =
      replay.cold_invocations > 0 ? cold_sum / static_cast<double>(replay.cold_invocations) : 0;
  return replay;
}

vbase::Result<MeasuredTrace> Vespid::MeasureMultiTenant(const std::vector<TenantSpec>& tenants,
                                                        int concurrency, uint64_t seed,
                                                        bool pace_wall_clock) {
  if (tenants.empty()) {
    return vbase::InvalidArgument("MeasureMultiTenant needs at least one tenant");
  }
  MeasuredTrace trace;
  std::vector<const Fn*> fns;
  fns.reserve(tenants.size());
  for (const TenantSpec& tenant : tenants) {
    const Fn* fn = FindFunction(tenant.name);
    if (fn == nullptr) {
      return vbase::NotFound("no such function: " + tenant.name);
    }
    fns.push_back(fn);
    trace.names.push_back(tenant.name);
    trace.classes.push_back(tenant.klass);
  }

  // Merge the tenants' arrival traces (per-tenant seed: each tenant's
  // jitter is independent, and the merged order is deterministic — ties
  // break on tenant index via the pair comparison).
  std::vector<std::pair<double, int>> merged;
  for (size_t i = 0; i < tenants.size(); ++i) {
    for (double at : GenerateArrivalTrace(tenants[i].phases, seed + i)) {
      merged.emplace_back(at, static_cast<int>(i));
    }
  }
  std::sort(merged.begin(), merged.end());
  trace.arrivals_us.reserve(merged.size());
  trace.tenant.reserve(merged.size());
  for (const auto& [at, idx] : merged) {
    trace.arrivals_us.push_back(at);
    trace.tenant.push_back(idx);
  }

  // One real invocation per merged arrival, in arrival order, through the
  // executor (bounded worker pool, keyed snapshot affinity): the mixed
  // snapshot keys contend for pool shells and affine generations exactly as
  // the production mix would, so each request's measured modeled service
  // carries real pool contention and restore effects (affine hit vs full
  // copy, the cold first touch).  Dispatch is open loop: all requests are
  // submitted up front unless paced on the wall clock.
  vbase::WallTimer timer;
  {
    wasp::Executor executor(runtime_,
                            wasp::ExecutorOptions{std::max(concurrency, 1), 0, true});
    std::vector<std::future<wasp::RunOutcome>> futures;
    futures.reserve(merged.size());
    const auto pace_origin = std::chrono::steady_clock::now();
    for (const auto& [at, idx] : merged) {
      if (pace_wall_clock) {
        std::this_thread::sleep_until(pace_origin +
                                      std::chrono::microseconds(static_cast<int64_t>(at)));
      }
      const size_t t = static_cast<size_t>(idx);
      futures.push_back(executor.Submit(
          MakeVespidSpec(fns[t]->name, &fns[t]->image, &tenants[t].payload),
          tenants[t].klass));
    }
    trace.service_us.reserve(futures.size());
    trace.cold.reserve(futures.size());
    trace.faulted.reserve(futures.size());
    for (std::future<wasp::RunOutcome>& f : futures) {
      wasp::RunOutcome outcome = f.get();
      // A faulted invocation is trace data, not a measuring failure: it
      // consumed a lane and real service before its shell was quarantined,
      // so it replays as load with the faulted flag set.  Only a clean
      // host-side error (no fault classified) aborts the measuring run.
      if (outcome.fault == wasp::FaultKind::kNone && !outcome.status.ok()) {
        return outcome.status;
      }
      trace.service_us.push_back(vbase::CyclesToMicros(outcome.stats.total_cycles));
      trace.cold.push_back(!outcome.stats.restored_snapshot);
      trace.faulted.push_back(outcome.fault != wasp::FaultKind::kNone);
    }
  }
  trace.wall_ns = timer.ElapsedNanos();
  return trace;
}

GovernedReplay GovernTrace(const MeasuredTrace& trace, const wasp::ExecutorOptions& options) {
  VB_CHECK(options.max_queue_depth == 0 || !options.block_when_full,
           "GovernTrace replays the reject policy only: a bounded queue needs "
           "block_when_full = false");
  const size_t n = trace.arrivals_us.size();
  GovernedReplay replay;
  replay.tenants.resize(trace.names.size());
  for (size_t t = 0; t < trace.names.size(); ++t) {
    replay.tenants[t].name = trace.names[t];
  }

  // Virtual-time run of the executor's policy: at each arrival the shared
  // AdmissionPolicy admits (breaker, then quota) and the global bound
  // sheds; lanes drain the two class queues with the policy's class pick;
  // each completion feeds the policy's load and breaker.  Everything is
  // arithmetic over the measured services, so a trace governs identically
  // every time.
  wasp::AdmissionPolicy policy(options);
  LaneSchedule schedule(options.workers);
  std::deque<size_t> queues[2];  // by KeyClass, request indices in arrival order
  // (done_us, tenant, faulted, probe) — faulted/probe ride along so each
  // virtual completion can feed the breaker.
  using Completion = std::tuple<double, size_t, bool, bool>;
  std::priority_queue<Completion, std::vector<Completion>, std::greater<Completion>>
      completions;

  std::vector<double> start_us(n, -1.0);  // -1 = shed
  std::vector<double> done_us(n, -1.0);
  std::vector<char> is_probe(n, 0);

  auto advance_completions = [&](double now) {
    while (!completions.empty() && std::get<0>(completions.top()) <= now) {
      const auto [done, t, faulted, probe] = completions.top();
      completions.pop();
      policy.OnFinish(trace.names[t]);
      if (policy.RecordAttempt(trace.names[t], faulted, probe)) {
        ++replay.tenants[t].breaker_opens;
      }
    }
  };
  auto head = [](const std::deque<size_t>& q) {
    return q.empty() ? wasp::AdmissionPolicy::kNoHead : q.front();
  };
  // Dispatches queued requests onto lanes that free up strictly before
  // `horizon` (infinity for the final drain).
  auto dispatch_until = [&](double horizon) {
    while ((!queues[0].empty() || !queues[1].empty()) && schedule.EarliestFree() < horizon) {
      const size_t cls = policy.PickClass(head(queues[0]), head(queues[1]));
      const size_t idx = queues[cls].front();
      queues[cls].pop_front();
      start_us[idx] = std::max(schedule.EarliestFree(), trace.arrivals_us[idx]);
      done_us[idx] = schedule.Place(trace.arrivals_us[idx], trace.service_us[idx]);
      const bool faulted = idx < trace.faulted.size() && trace.faulted[idx];
      completions.emplace(done_us[idx], static_cast<size_t>(trace.tenant[idx]), faulted,
                          is_probe[idx] != 0);
    }
  };

  for (size_t i = 0; i < n; ++i) {
    const double now = trace.arrivals_us[i];
    const size_t t = static_cast<size_t>(trace.tenant[i]);
    dispatch_until(now);
    advance_completions(now);
    TenantOutcome& tenant = replay.tenants[t];
    ++tenant.offered;
    bool probe = false;
    const wasp::Admission admission = policy.Admit(trace.names[t], &probe);
    if (admission == wasp::Admission::kCircuitOpen) {
      ++tenant.shed_breaker;
      continue;
    }
    if (admission == wasp::Admission::kQuotaExceeded) {
      ++tenant.shed_quota;
      continue;
    }
    if (options.max_queue_depth > 0 &&
        queues[0].size() + queues[1].size() >= options.max_queue_depth) {
      ++tenant.shed_overload;
      policy.Withdraw(trace.names[t], probe);
      continue;
    }
    is_probe[i] = probe ? 1 : 0;
    queues[static_cast<size_t>(trace.classes[t])].push_back(i);
    policy.OnEnqueue(trace.names[t]);
  }
  dispatch_until(std::numeric_limits<double>::infinity());
  // Completions after the last arrival still feed the breaker.
  advance_completions(std::numeric_limits<double>::infinity());

  // Per-tenant aggregation + the merged Figure-15-currency timeline.  A
  // faulted arrival held its lane for its measured service (the load is
  // real), but it is a casualty, not a completion: it counts per tenant as
  // faulted and stays out of the wait/latency distributions — so a fault
  // storm on one key shows up as that tenant's fault_rate while the
  // co-tenants' percentiles measure only what they actually experienced.
  std::vector<ServedEvent> events;
  events.reserve(n);
  std::vector<std::vector<double>> waits(trace.names.size());
  double last_done = 0;
  uint64_t total_completed = 0;
  for (size_t i = 0; i < n; ++i) {
    if (start_us[i] < 0) {
      continue;  // shed
    }
    const size_t t = static_cast<size_t>(trace.tenant[i]);
    TenantOutcome& tenant = replay.tenants[t];
    if (i < trace.faulted.size() && trace.faulted[i]) {
      ++tenant.faulted;
      last_done = std::max(last_done, done_us[i]);  // the lane was occupied
      continue;
    }
    ++tenant.completed;
    ++total_completed;
    if (trace.cold[i]) {
      ++tenant.cold_starts;
    }
    const double wait = start_us[i] - trace.arrivals_us[i];
    waits[t].push_back(wait);
    tenant.mean_queue_wait_us += wait;
    tenant.mean_latency_us += done_us[i] - trace.arrivals_us[i];
    last_done = std::max(last_done, done_us[i]);
    events.push_back(ServedEvent{trace.arrivals_us[i], done_us[i], trace.cold[i]});
  }
  double fairness_num = 0;
  double fairness_den = 0;
  double active_tenants = 0;  // tenants with offered load; idle ones don't dilute
  for (size_t t = 0; t < replay.tenants.size(); ++t) {
    TenantOutcome& tenant = replay.tenants[t];
    if (tenant.completed > 0) {
      tenant.mean_queue_wait_us /= static_cast<double>(tenant.completed);
      tenant.mean_latency_us /= static_cast<double>(tenant.completed);
      tenant.p99_queue_wait_us = vbase::Quantile(waits[t], 0.99);
    }
    if (tenant.offered > 0) {
      tenant.shed_rate = static_cast<double>(tenant.shed_quota + tenant.shed_overload +
                                             tenant.shed_breaker) /
                         static_cast<double>(tenant.offered);
      tenant.fault_rate =
          static_cast<double>(tenant.faulted) / static_cast<double>(tenant.offered);
      const double admitted_fraction =
          static_cast<double>(tenant.completed) / static_cast<double>(tenant.offered);
      fairness_num += admitted_fraction;
      fairness_den += admitted_fraction * admitted_fraction;
      active_tenants += 1;
    }
  }
  replay.fairness_index =
      fairness_den > 0 ? (fairness_num * fairness_num) / (active_tenants * fairness_den)
                       : 0;
  // First arrival to last completion, as documented — a trace slice that
  // starts late must not count its idle prefix against throughput.
  const double origin_us = n > 0 ? trace.arrivals_us.front() : 0;
  replay.makespan_s = total_completed > 0 ? (last_done - origin_us) / 1e6 : 0;
  replay.aggregate_rps =
      replay.makespan_s > 0 ? static_cast<double>(total_completed) / replay.makespan_s : 0;
  replay.sim = AssembleSimResult(events);
  return replay;
}

SimResult SimulateBurstyLoad(const std::vector<LoadPhase>& phases, const ExecutorModel& model,
                             uint64_t seed) {
  const std::vector<double> arrivals_us = GenerateArrivalTrace(phases, seed);

  // Instance state: busy-until time and last-used time per instance.
  struct Instance {
    double busy_until_us = 0;
    double last_used_us = 0;
  };
  std::vector<Instance> instances;
  std::vector<ServedEvent> events;
  events.reserve(arrivals_us.size());

  for (const double arrival : arrivals_us) {
    // Reclaim idle instances (container platforms tear warm instances down).
    instances.erase(std::remove_if(instances.begin(), instances.end(),
                                   [&](const Instance& inst) {
                                     return inst.busy_until_us < arrival &&
                                            arrival - inst.last_used_us >
                                                model.idle_timeout_s * 1e6;
                                   }),
                    instances.end());

    // Pick the warm instance that frees up soonest; spawn cold if allowed.
    double start_us;
    bool cold = false;
    Instance* chosen = nullptr;
    for (Instance& inst : instances) {
      if (chosen == nullptr || inst.busy_until_us < chosen->busy_until_us) {
        chosen = &inst;
      }
    }
    const bool can_spawn = static_cast<int>(instances.size()) < model.max_instances;
    if (chosen == nullptr ||
        (chosen->busy_until_us > arrival && can_spawn)) {
      instances.push_back(Instance{});
      chosen = &instances.back();
      cold = true;
      start_us = arrival;
    } else {
      start_us = std::max(arrival, chosen->busy_until_us);
    }
    const double service = model.warm_service_us + (cold ? model.cold_extra_us : 0);
    const double done = start_us + service;
    chosen->busy_until_us = done;
    chosen->last_used_us = done;
    events.push_back(ServedEvent{arrival, done, cold});
  }
  return AssembleSimResult(events);
}

}  // namespace vnet
