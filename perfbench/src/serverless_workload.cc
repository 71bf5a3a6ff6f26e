// The serverless_burst workload: an open loop of microjs base64
// invocations submitted with wasp::Executor::TrySubmit on two lanes, with no
// sockets in the path.
//
// Arrivals are a seeded Poisson process alternating short base and burst
// phases at fixed absolute rates (about 30% and 70% of what two lanes
// sustain for this mix on a 4-core x86 host), so a faster program shows
// lower latency, not more load.  Six function keys share the lanes with a
// skewed mix, so restores mix affine deltas and COW maps, and bursts build
// queue wait.  Each invocation is timed from its due time, which charges a
// generator stall to the requests it delays; how late the generator ran is
// reported separately.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/base/rng.h"
#include "src/bench.h"
#include "src/layers.h"
#include "src/trace.h"
#include "src/vcc/vcc.h"
#include "src/vjs/vjs.h"
#include "src/vrt/vlibc.h"
#include "src/wasp/abi.h"
#include "src/wasp/executor.h"
#include "src/wasp/runtime.h"

namespace perfbench {
namespace {

constexpr int kLanes = 2;
constexpr int kKeys = 6;
// Skewed key mix (weights sum to 100).
constexpr int kKeyWeight[kKeys] = {35, 25, 15, 12, 8, 5};
constexpr size_t kMinPayload = 64;
constexpr size_t kMaxPayload = 256;
constexpr double kBaseRps = 96;    // ~30% of two lanes' capacity for this mix
constexpr double kBurstRps = 224;  // ~70%
constexpr double kBasePhaseS = 0.4;
constexpr double kBurstPhaseS = 0.2;
constexpr int kSetups = 5;  // set-ups per untraced run; setup_s is their median
constexpr int kWarmupInvocations = 256;
constexpr uint64_t kWarmupSeed = 0x5eed;
// The timed phase is cut into this many segments by due time; the median
// latency and the CPU per call are reported as the median over segments, so
// one disturbed stretch does not move a run.
constexpr int kSegments = 10;

std::string KeyName(int k) { return "vespid-fn" + std::to_string(k); }

// The stack under test: one runtime, one compiled image per function key,
// and the executor the invocations are submitted to (declared last, so it
// drains before the images and runtime it uses go away).
struct ServerlessStack {
  ServerlessStack() : executor(&runtime, Options()) {}

  static wasp::ExecutorOptions Options() {
    wasp::ExecutorOptions options;
    options.workers = kLanes;
    options.max_queue_depth = 512;
    options.block_when_full = false;  // open loop: a full queue sheds
    return options;
  }

  // Compiles every function: microjs -> bytecode -> engine image, the way
  // vnet::Vespid::Register does.  Each key's script differs by a constant,
  // so the keys are distinct images with distinct snapshots.
  bool Compile() {
    for (int k = 0; k < kKeys; ++k) {
      auto bytecode = vjs::CompileScript("var fn_id = " + std::to_string(k) + ";\n" +
                                         vjs::Base64ScriptSource());
      if (!bytecode.ok()) {
        return false;
      }
      auto image = vcc::CompileProgram(
          vrt::VlibcSource() + vjs::EngineSource(*bytecode, /*teardown=*/false), "main",
          vrt::Env::kLong64);
      if (!image.ok()) {
        return false;
      }
      images.push_back(std::move(*image));
    }
    return true;
  }

  // The invocation spec vnet::Vespid builds for a registered function.
  wasp::VirtineSpec Spec(int key, const std::vector<uint8_t>* payload) const {
    wasp::VirtineSpec spec;
    spec.image = &images[static_cast<size_t>(key)];
    spec.key = KeyName(key);
    spec.mem_size = 2ULL << 20;
    spec.policy = wasp::kPolicyManaged;
    spec.use_snapshot = true;
    spec.crt_snapshot = false;  // the engine snapshots itself after init
    spec.input = payload;
    return spec;
  }

  wasp::Runtime runtime;
  std::vector<visa::Image> images;
  wasp::Executor executor;
};

struct Arrival {
  uint64_t offset_ns;  // due time relative to the start of the timed phase
  int key;
  std::vector<uint8_t> payload;
  std::string expected;  // host-side base64 of the payload
};

Arrival MakeArrival(double t, vbase::Rng* rng) {
  Arrival a;
  a.offset_ns = static_cast<uint64_t>(t * 1e9);
  int pick = static_cast<int>(rng->Below(100));
  a.key = 0;
  while (pick >= kKeyWeight[a.key]) {
    pick -= kKeyWeight[a.key];
    ++a.key;
  }
  a.payload.resize(kMinPayload + rng->Below(kMaxPayload - kMinPayload + 1));
  for (auto& b : a.payload) {
    b = static_cast<uint8_t>(rng->Next());
  }
  a.expected = vjs::HostBase64(a.payload);
  return a;
}

std::vector<Arrival> MakeSchedule(uint64_t seed, double seconds) {
  vbase::Rng rng(seed * 0x2545f4914f6cdd1dULL + 7);
  const auto gap = [&rng](double rate) { return -std::log(1.0 - rng.NextDouble()) / rate; };
  std::vector<Arrival> arrivals;
  // Phases alternate base and burst; within a phase arrivals are Poisson at
  // the phase's rate (the draw that overshoots the phase end is dropped,
  // which is exact for a memoryless process).
  bool burst = false;
  for (double start = 0; start < seconds; burst = !burst) {
    const double end = std::min(seconds, start + (burst ? kBurstPhaseS : kBasePhaseS));
    const double rate = burst ? kBurstRps : kBaseRps;
    for (double t = start + gap(rate); t < end; t += gap(rate)) {
      arrivals.push_back(MakeArrival(t, &rng));
    }
    start = end;
  }
  return arrivals;
}

bool OutputMatches(const wasp::RunOutcome& outcome, const std::string& expected) {
  return outcome.status.ok() && outcome.fault == wasp::FaultKind::kNone &&
         std::string(outcome.output.begin(), outcome.output.end()) == expected;
}

// Builds a stack and warms it: every key gets its snapshot, then a fixed
// mixed batch runs through both lanes, so the pool, the snapshots' shells
// and the host allocator reach their steady state before timing starts
// (the first second of a cold stack runs guest code markedly slower).
std::unique_ptr<ServerlessStack> SetUp(Report* report, double* compile_ms) {
  auto stack = std::make_unique<ServerlessStack>();
  const uint64_t c0 = NowNs();
  if (!stack->Compile()) {
    report->Fail("function compile failed");
    return nullptr;
  }
  *compile_ms = static_cast<double>(NowNs() - c0) / 1e6;
  vbase::Rng rng(kWarmupSeed);
  std::vector<Arrival> batch;
  for (int i = 0; i < kWarmupInvocations; ++i) {
    batch.push_back(MakeArrival(0, &rng));
    batch.back().key = i % kKeys;
  }
  std::vector<std::future<wasp::RunOutcome>> futures;
  for (size_t i = 0; i < batch.size(); ++i) {
    futures.push_back(stack->executor.Submit(stack->Spec(batch[i].key, &batch[i].payload)));
    // Snapshots first, one key at a time; then waves of two per lane, which
    // keep the executor's queue high-water mark at what timing reaches.
    const size_t wave = i < kKeys ? 1 : 2 * kLanes;
    if ((i + 1) % wave == 0 || i + 1 == batch.size()) {
      for (auto& f : futures) {
        f.wait();
      }
    }
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    if (!OutputMatches(futures[i].get(), batch[i].expected)) {
      report->Fail("warm-up invocation failed");
    }
  }
  return stack;
}

// One arrival's submission and completion.
struct Slot {
  uint64_t due_ns = 0;
  uint64_t submit_start_ns = 0;
  uint64_t submit_end_ns = 0;
  uint64_t ready_ns = 0;
  bool ok = false;  // accepted, completed, and its output matched
  wasp::InvokeStats stats;
};

// Records one completed invocation's spans.  The dispatch span runs from
// TrySubmit returning to the future resolving; its child invoke is laid
// back from the resolve by InvokeStats.total_ns, so the dispatch span's
// self time is the executor queue wait.
void RecordSpans(Tracer* tracer, uint64_t id, const Slot& s) {
  const uint64_t invoke_start =
      s.ready_ns - std::min(s.stats.total_ns, s.ready_ns - s.submit_end_ns);
  const uint64_t dispatch = tracer->NewId();
  const uint64_t invoke = tracer->NewId();
  RecordInvokeSpans(tracer, id, invoke, invoke_start, s.stats);
  tracer->Record("invoke", id, dispatch, invoke_start, s.ready_ns, invoke);
  tracer->Record("dispatch", id, id, s.submit_end_ns, s.ready_ns, dispatch);
  tracer->Record("submit", id, id, s.submit_start_ns, s.submit_end_ns);
  tracer->Record("invocation", id, 0, s.due_ns, s.ready_ns, id);
}

// Waits on submitted invocations and stamps each one's completion.  Every
// outstanding future has its own blocked waiter (up to kWaiters in flight),
// so a completion is stamped when its promise is set, in whatever order
// the lanes finish, without polling.
class Collector {
 public:
  static constexpr int kWaiters = 48;

  Collector(const std::vector<Arrival>* schedule, std::vector<Slot>* slots, Tracer* tracer)
      : schedule_(schedule), slots_(slots), tracer_(tracer) {
    for (int i = 0; i < kWaiters; ++i) {
      threads_.emplace_back([this] { Wait(); });
    }
  }
  ~Collector() { Finish(); }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void Add(size_t index, std::future<wasp::RunOutcome> future) {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.emplace_back(index, std::move(future));
    cv_.notify_one();
  }

  // Waits for every added invocation to be collected.
  void Finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) {
      if (t.joinable()) {
        t.join();
      }
    }
  }

 private:
  void Wait() {
    while (true) {
      std::pair<size_t, std::future<wasp::RunOutcome>> next;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return done_ || !pending_.empty(); });
        if (pending_.empty()) {
          return;
        }
        next = std::move(pending_.front());
        pending_.pop_front();
      }
      next.second.wait();
      Slot& slot = (*slots_)[next.first];
      slot.ready_ns = NowNs();
      wasp::RunOutcome outcome = next.second.get();
      slot.ok = OutputMatches(outcome, (*schedule_)[next.first].expected);
      slot.stats = outcome.stats;
      if (slot.ok) {
        RecordSpans(tracer_, next.first + 1, slot);
      }
    }
  }

  const std::vector<Arrival>* schedule_;
  std::vector<Slot>* slots_;
  Tracer* tracer_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::pair<size_t, std::future<wasp::RunOutcome>>> pending_;
  bool done_ = false;
  std::vector<std::thread> threads_;  // declared last: they read the members above
};

}  // namespace

void RunServerless(const Args& args, Report* report) {
  const std::vector<Arrival> schedule = MakeSchedule(args.seed, args.seconds);
  Tracer tracer;
  tracer.set_enabled(args.trace);

  std::unique_ptr<ServerlessStack> stack;
  std::vector<double> setup_s;
  std::vector<double> compile_ms;
  const int setups = args.trace ? 1 : kSetups;
  for (int s = 0; s < setups; ++s) {
    stack.reset();
    const uint64_t t0 = NowNs();
    double ms = 0;
    stack = SetUp(report, &ms);
    if (stack == nullptr) {
      return;
    }
    const uint64_t t1 = NowNs();
    setup_s.push_back(s == 0 ? SinceProcessStart(t1) : static_cast<double>(t1 - t0) / 1e9);
    compile_ms.push_back(ms);
  }

  const wasp::ExecutorStats exec_before = stack->executor.stats();
  const wasp::PoolStats pool_before = stack->runtime.pool().stats();
  std::vector<Slot> slots(schedule.size());
  uint64_t rejected = 0;
  const uint64_t start = NowNs() + 1'000'000;  // first due time, 1 ms out
  const uint64_t segment_ns = static_cast<uint64_t>(args.seconds * 1e9) / kSegments;
  std::vector<double> cpu_marks;  // process CPU seconds at each segment boundary
  {
    Collector collector(&schedule, &slots, &tracer);
    std::thread sampler([&] {
      for (int k = 0; k <= kSegments; ++k) {
        const uint64_t at = start + static_cast<uint64_t>(k) * segment_ns;
        const uint64_t now = NowNs();
        if (at > now) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(at - now));
        }
        cpu_marks.push_back(CpuSeconds());
      }
    });
    // Generator: submits each arrival at its due time.
    for (size_t i = 0; i < schedule.size(); ++i) {
      Slot& slot = slots[i];
      slot.due_ns = start + schedule[i].offset_ns;
      const uint64_t now = NowNs();
      if (slot.due_ns > now) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(slot.due_ns - now));
      }
      std::future<wasp::RunOutcome> future;
      slot.submit_start_ns = NowNs();
      const bool accepted = stack->executor.TrySubmit(
          stack->Spec(schedule[i].key, &schedule[i].payload), &future);
      slot.submit_end_ns = NowNs();
      if (accepted) {
        collector.Add(i, std::move(future));
      } else {
        ++rejected;
      }
    }
    sampler.join();
    collector.Finish();
  }

  // Per-segment latency and CPU (segments by due time), so one disturbed
  // stretch does not move a run's median latency or CPU per call.
  std::vector<std::vector<double>> seg_lat(kSegments);
  std::vector<double> lat_us;
  std::vector<double> late_us;
  std::vector<wasp::InvokeStats> invokes;
  uint64_t cycles = 0;
  uint64_t exits = 0;
  uint64_t last_ready = start;
  for (const Slot& s : slots) {
    late_us.push_back(static_cast<double>(s.submit_start_ns - std::min(s.submit_start_ns, s.due_ns)) /
                      1e3);
    if (!s.ok) {
      continue;
    }
    last_ready = std::max(last_ready, s.ready_ns);
    const size_t seg = std::min<size_t>((s.due_ns - start) / segment_ns, kSegments - 1);
    seg_lat[seg].push_back(static_cast<double>(s.ready_ns - s.due_ns) / 1e3);
    lat_us.push_back(seg_lat[seg].back());
    invokes.push_back(s.stats);
    cycles += s.stats.total_cycles;
    exits += s.stats.io_exits;
  }
  std::vector<double> p50s;
  std::vector<double> cpu_per_req;
  for (int k = 0; k < kSegments; ++k) {
    p50s.push_back(Quantile(seg_lat[k], 0.5));
    cpu_per_req.push_back(Ratio((cpu_marks[k + 1] - cpu_marks[k]) * 1e6,
                                static_cast<double>(seg_lat[k].size())));
  }
  const double n = static_cast<double>(invokes.size());
  report->attempted = schedule.size();
  report->failed = schedule.size() - invokes.size();
  const double wall_s = static_cast<double>(last_ready - start) / 1e9;
  const wasp::ExecutorStats exec = stack->executor.stats();
  const wasp::PoolStats pool = stack->runtime.pool().stats();

  if (!args.trace) {
    report->Add("setup_s", Quantile(setup_s, 0.5));
    report->Add("rps", Ratio(n, wall_s));
    report->Add("lat_p50_us", Quantile(p50s, 0.5));
    report->Add("ok_frac", Ratio(n, static_cast<double>(schedule.size())));
    report->Add("modeled_cycles_per_req", Ratio(static_cast<double>(cycles), n));
    report->Add("cpu_us_per_req", Quantile(cpu_per_req, 0.5));
    report->Add("peak_rss_mb", PeakRssMb());
  } else {
    const std::vector<Span> spans = tracer.spans();
    const std::vector<double> queue_us = SelfTimesUs(spans, "dispatch");
    // The open loop bypasses the listener and the HTTP server; its rate is
    // fixed by the schedule, so tracing overhead has no throughput to show.
    report->Bypass({"listener.self_us", "listener.accepts_per_req", "listener.edge_rejects",
                    "server.handle_us", "server.native_handle_us", "server.reuse_frac",
                    "server.shed", "trace.overhead_frac"});
    report->Add("client.lat_p99_us", Quantile(lat_us, 0.99));
    report->Add("executor.queue_wait_us_p50", Quantile(queue_us, 0.5));
    report->Add("executor.queue_wait_us_p99", Quantile(queue_us, 0.99));
    report->Add("executor.peak_queue_depth", static_cast<double>(exec.peak_queue_depth));
    report->Add("executor.rejected", static_cast<double>(rejected));
    AddPoolMetrics(pool_before, pool, n, report);
    AddInvokeMetrics(invokes, n, report);
    report->Add("snapshot.restore_us_p50", Quantile(DurationsUs(spans, "restore"), 0.5));
    report->Add("snapshot.resident_mb", static_cast<double>(pool.affine_resident_bytes) / 1048576.0);
    report->Add("runtime.exits_per_req", Ratio(static_cast<double>(exits), n));
    report->Add("vcc.compile_ms", Quantile(compile_ms, 0.5));
    if (!args.span_file.empty() && !tracer.WriteCsv(args.span_file)) {
      report->Fail("could not write span file " + args.span_file);
    }
  }
  std::fprintf(stderr, "serverless_burst: %llu of %zu invocations ok in %.2f s, %llu rejected, "
               "generator late p99 %.0f us, p99 %.0f us over %zu samples\n",
               static_cast<unsigned long long>(invokes.size()), schedule.size(), wall_s,
               static_cast<unsigned long long>(rejected), Quantile(late_us, 0.99),
               Quantile(lat_us, 0.99), lat_us.size());
  for (int k = 0; k < kSegments; ++k) {
    std::fprintf(stderr, "  segment %d: %zu samples, p50 %.0f us, cpu %.0f us/req\n", k,
                 seg_lat[k].size(), p50s[k], cpu_per_req[k]);
  }

  // Ledger over the executor and pool's public stats.
  report->Expect("invocations ok == executor completions in the timed phase", invokes.size(),
                 exec.completed - exec_before.completed);
  report->Expect("executor submitted == completed + faulted + queued + in_flight", exec.submitted,
                 exec.completed + exec.faulted + exec.queued + exec.in_flight);
  report->Expect("pool acquires == lane_cache_hits + freelist_hits + slow_path_acquires",
                 pool.acquires, pool.lane_cache_hits + pool.freelist_hits + pool.slow_path_acquires);
}

}  // namespace perfbench
