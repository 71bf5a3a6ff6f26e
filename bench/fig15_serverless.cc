// Figure 15: serverless virtine performance vs a container-based platform
// under the paper's bursty Locust pattern (ramp up, two bursts, ramp down).
//
// The Vespid (virtine) half is *replayed, not modeled*: every arrival of
// the trace becomes a real invocation of the microjs base64 function
// through the wasp::Executor (snapshot restores, pool reuse, and the cold
// first touch under real contention), and the measured per-request service
// costs are laid onto the trace's virtual timeline.  The container half
// remains the explicit analytic model calibrated to published
// OpenWhisk-style cold/warm starts (DESIGN.md S2) — the comparison
// baseline.  Both halves share the same arrival trace (same generator,
// same seed), so the timelines compare bucket for bucket.
//
// Gates: the replay serves every arrival, and its cold starts fall in
// 1..lanes — the first invocation boots, and no more than `lanes` can be
// in flight before the first snapshot is published.  How many of the
// lanes race to that snapshot varies from run to run.
//
//   ./fig15_serverless           # full run
//   ./fig15_serverless --quick   # CI smoke (every phase 1 s, same gates)
#include <cstring>

#include "bench/bench_util.h"
#include "src/base/rng.h"
#include "src/vjs/vjs.h"
#include "src/vnet/serverless.h"
#include "src/wasp/runtime.h"

namespace {

void PrintTimeline(const vnet::SimResult& sim) {
  vbase::Table table({"t (s)", "offered rps", "completed rps", "mean lat us", "p99 lat us",
                      "cold starts"});
  for (const auto& point : sim.timeline) {
    table.AddRow({vbase::Fmt(point.t_s, 0), vbase::Fmt(point.offered_rps, 0),
                  vbase::Fmt(point.completed_rps, 0), vbase::Fmt(point.mean_latency_us, 0),
                  vbase::Fmt(point.p99_latency_us, 0), std::to_string(point.cold_starts)});
  }
  table.Print();
  std::printf("overall: %llu requests, mean %.0f us, p99 %.0f us, %llu cold starts\n",
              static_cast<unsigned long long>(sim.total_requests), sim.latency_us.mean,
              sim.latency_us.p99,
              static_cast<unsigned long long>(sim.total_cold_starts));
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  benchutil::Header(
      "Figure 15: serverless platform under bursty load (virtines vs containers)",
      "the virtine platform sustains bursts with low latency; the container platform "
      "suffers cold-start spikes when bursts exceed the warm pool");

  wasp::Runtime runtime;
  vnet::Vespid vespid(&runtime);
  VB_CHECK(vespid.Register("b64", vjs::Base64ScriptSource()).ok(), "register failed");
  vbase::Rng rng(11);
  std::vector<uint8_t> payload(512);
  for (auto& b : payload) {
    b = static_cast<uint8_t>(rng.Next());
  }

  // Ramp up, burst, dip, burst, ramp down (the paper's Locust profile).
  std::vector<vnet::LoadPhase> pattern = {
      {5, 2}, {20, 2}, {120, 3}, {15, 2}, {120, 3}, {20, 2}, {5, 2},
  };
  if (quick) {
    for (vnet::LoadPhase& phase : pattern) {
      phase.duration_s = 1;
    }
  }
  constexpr uint64_t kSeed = 42;
  constexpr int kLanes = 8;

  // --- Vespid: real executor-driven replay of the trace ---------------------
  vnet::ReplayOptions replay_options;
  replay_options.concurrency = kLanes;
  replay_options.seed = kSeed;
  auto replay = vespid.ReplayBurstyLoad("b64", pattern, payload, replay_options);
  VB_CHECK(replay.ok(), replay.status().ToString());
  std::printf("\n--- Vespid (virtines), replayed: %d executor lanes, measured warm %.0f us, "
              "cold %.0f us x%llu ---\n",
              kLanes, replay->measured_warm_us, replay->measured_cold_us,
              static_cast<unsigned long long>(replay->cold_invocations));
  PrintTimeline(replay->sim);

  // --- Containers: the calibrated analytic baseline -------------------------
  // ~500 ms cold start (docker create + Node/V8 init; optimized literature
  // systems reach <20 ms, vanilla OpenWhisk does not), ~30 ms per warm
  // invocation (container round trip), and a warm pool that shrinks after a
  // few idle seconds — so each burst forces scale-out.
  vnet::ExecutorModel container_model{"OpenWhisk-style containers", 30000.0, 500000.0, 16,
                                      3.0};
  const vnet::SimResult container = vnet::SimulateBurstyLoad(pattern, container_model, kSeed);
  std::printf("\n--- %s (modeled: warm %.0f us, cold +%.0f us, %d instances) ---\n",
              container_model.name.c_str(), container_model.warm_service_us,
              container_model.cold_extra_us, container_model.max_instances);
  PrintTimeline(container);

  std::printf("\nVespid rows come from %llu real virtine invocations dispatched through the\n"
              "wasp::Executor over the arrival trace (replay wall time %.2f s); the container\n"
              "rows are the calibrated model documented in DESIGN.md S2.  Both halves share\n"
              "the trace (seed %llu), so buckets compare one to one.\n",
              static_cast<unsigned long long>(replay->sim.total_requests),
              static_cast<double>(replay->wall_ns) / 1e9,
              static_cast<unsigned long long>(kSeed));

  int failures = 0;
  const uint64_t arrivals = vnet::GenerateArrivalTrace(pattern, kSeed).size();
  if (replay->sim.total_requests != arrivals) {
    std::printf("FAIL: the replay served %llu of %llu arrivals\n",
                static_cast<unsigned long long>(replay->sim.total_requests),
                static_cast<unsigned long long>(arrivals));
    ++failures;
  }
  if (replay->sim.total_cold_starts < 1 ||
      replay->sim.total_cold_starts > static_cast<uint64_t>(kLanes)) {
    std::printf("FAIL: %llu cold starts, outside 1..%d lanes\n",
                static_cast<unsigned long long>(replay->sim.total_cold_starts), kLanes);
    ++failures;
  }
  if (failures > 0) {
    return 1;
  }
  std::printf("\nOK: every arrival served; %llu cold starts within 1..%d lanes.\n",
              static_cast<unsigned long long>(replay->sim.total_cold_starts), kLanes);
  return 0;
}
