// wasp::Runtime — the embeddable virtine hypervisor (the paper's Wasp).
//
// A host program (the "virtine client") links against this library and
// invokes individual functions in isolated virtual-machine contexts.  The
// runtime owns:
//   * a shell Pool (cached VM contexts, optionally cleaned asynchronously),
//   * a SnapshotStore (post-boot/post-init images keyed per virtine),
//   * the canned hypercall handlers (console, POSIX-like file I/O against a
//     sandboxed HostEnv, send/recv against a ByteChannel, snapshot,
//     get_data/return_data), and
//   * the default-deny policy enforcement: a hypercall whose policy bit is
//     clear terminates the virtine.
//
// The per-invocation flow matches Figure 6/7 of the paper: acquire a shell
// (pool hit or fresh create), either load the image and boot it or restore a
// snapshot, marshal arguments into the argument page, run until exit while
// interposing on every hypercall, harvest results, release the shell for
// cleaning and reuse.
#ifndef SRC_WASP_RUNTIME_H_
#define SRC_WASP_RUNTIME_H_

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/isa/image.h"
#include "src/wasp/abi.h"
#include "src/wasp/channel.h"
#include "src/wasp/fault.h"
#include "src/wasp/host_env.h"
#include "src/wasp/pool.h"
#include "src/wasp/snapshot.h"
#include "src/vkvm/vkvm.h"

namespace wasp {

// Per-invocation measurements.
struct InvokeStats {
  uint64_t guest_cycles = 0;   // modeled cycles executed in the guest
  uint64_t host_cycles = 0;    // modeled host-side charges (create/vmrun/memcpy)
  uint64_t total_cycles = 0;   // guest + host
  uint64_t io_exits = 0;       // hypercall exits taken
  uint64_t insns = 0;          // guest instructions retired
  bool from_pool = false;      // shell came from the pool
  bool restored_snapshot = false;
  // The restore ran on a snapshot-affine shell and repaired only the pages
  // the previous tenant dirtied (delta restore) instead of the whole image.
  bool affine_restore = false;
  // The restore mapped the snapshot's shared COW extent chain instead of
  // copying it: the shell reads the image through the shared buffer and
  // privatizes pages on write, so it is charged O(extents) to restore and
  // O(working set) to stay parked.
  bool mapped_cow = false;
  // Bytes the restore actually copied/zeroed: the full snapshot for a cold
  // shell without affinity, just the dirty delta for an affine one, zero for
  // a COW map.
  uint64_t restored_bytes = 0;
  bool took_snapshot = false;
  uint64_t acquire_ns = 0;     // wall: shell acquisition
  uint64_t load_ns = 0;        // wall: image load or snapshot restore
  uint64_t run_ns = 0;         // wall: vCPU execution + hypercall handling
  uint64_t total_ns = 0;       // wall: whole Invoke()
};

// The result of one virtine invocation.
struct RunOutcome {
  vbase::Status status;          // non-OK on fault, denial, or handler error
  // Structured classification of why the invocation died (kNone = it
  // completed; the status may still be non-OK for host-side errors like a
  // failed image load, which do not quarantine the shell).  The status
  // message keeps the human-readable detail for logs.
  FaultKind fault = FaultKind::kNone;
  bool denied = false;           // a hypercall was denied by policy
  uint64_t exit_code = 0;        // from the exit hypercall (0 for plain hlt)
  uint64_t result_word = 0;      // argument-page word 0 (the return value)
  std::string console;           // bytes written via the console hypercall
  std::vector<uint8_t> output;   // bytes returned via return_data
  std::vector<uint8_t> fd_writes;  // bytes written via the write hypercall
  // Set by the executor's recovery layer: this outcome is the second attempt
  // of a retried job, and `first_fault` is what killed the first attempt.
  bool retried = false;
  FaultKind first_fault = FaultKind::kNone;
  InvokeStats stats;
};

class Runtime;

// Context handed to hypercall handlers.
struct HypercallFrame {
  vkvm::Vm& vm;
  Runtime& runtime;
  const struct VirtineSpec& spec;
  RunOutcome& outcome;
  // Hypercall arguments are registers r1..r3.
  uint64_t arg(int i) const { return vm.cpu().reg(1 + i); }
  // Set by handlers to finish the invocation after this hypercall.
  bool request_exit = false;
  // Once-only bookkeeping (Section 6.5: "snapshot and get_data cannot be
  // called more than once").
  bool snapshot_taken = false;
  bool data_fetched = false;
  // Generation of the snapshot this invocation left resident in the shell
  // (set when this run's snapshot hypercall captured and published one); the
  // release path parks the shell snapshot-affine under it, charging
  // `resident_shared_bytes` (the extent chain) once per generation.
  uint64_t resident_generation = 0;
  uint64_t resident_shared_bytes = 0;
  // Structured fault classification set by handlers (e.g. an oversized
  // reply); folded into the outcome when the dispatch fails.
  FaultKind fault = FaultKind::kNone;
  // Chaos injection: the next return_data hypercall is treated as exceeding
  // the I/O ceiling regardless of its actual length.
  bool inject_oversized_reply = false;
  // Per-invocation fd table for the file hypercalls.
  FdTable fds;

  HypercallFrame(vkvm::Vm& v, Runtime& r, const struct VirtineSpec& s, RunOutcome& o,
                 HostEnv* env)
      : vm(v), runtime(r), spec(s), outcome(o), fds(env) {}
};

// A client-provided hypercall handler: returns the value placed in r0, or an
// error status that terminates the virtine.
using HypercallHandler = std::function<vbase::Result<int64_t>(HypercallFrame&)>;

// Everything needed to run one virtine.
struct VirtineSpec {
  // The guest binary.  Must outlive the invocation.
  const visa::Image* image = nullptr;
  // Identity for snapshot caching; virtines sharing a key share snapshots.
  std::string key;
  uint64_t mem_size = 1ULL << 20;
  // Word size (bytes) of the environment's final execution mode; governs the
  // argument-page slot layout (8 for long64, 4 for prot32, 2 for real16).
  int word_bytes = 8;
  // Hypercall policy bits (default-deny; kHcExit is always permitted).
  HypercallMask policy = kPolicyDenyAll;
  // Use the snapshotting fast path (take on first run, restore afterwards).
  bool use_snapshot = false;
  // Whether the CRT issues the snapshot hypercall right after boot (the
  // language-extension default).  Guests that pick their own snapshot point
  // — e.g. the microjs engine snapshots after engine init, Section 6.5 —
  // set this false and call the hypercall themselves.
  bool crt_snapshot = true;
  // Pre-marshalled argument page, written at guest physical 0 (see abi.h).
  std::vector<uint8_t> args_page;
  // Input payload served by the get_data hypercall.
  const std::vector<uint8_t>* input = nullptr;
  // Guest-side channel endpoint for send/recv (not owned).
  ByteChannel::Endpoint* channel = nullptr;
  // Host filesystem sandbox override (defaults to the runtime's).
  HostEnv* env = nullptr;
  // Client-defined hypercall handlers, keyed by port; these take precedence
  // over canned handlers but are still subject to the policy mask.
  std::map<uint16_t, HypercallHandler> handlers;
  // Watchdog: maximum guest instructions per invocation.
  uint64_t max_insns = 2'000'000'000;
  // Force a fresh, non-affine shell for this invocation: never reuse a
  // parked snapshot-affine sibling.  Set by the executor's retry path — the
  // faulted attempt's shell is quarantined, and an affine sibling could
  // share whatever state killed it — and usable by callers that want a
  // known-cold invocation.
  bool fresh_shell = false;
};

struct RuntimeOptions {
  // The shell pool's options (cleaning mode, shards, cleaner crew, lanes,
  // NUMA nodes, affine resident-byte budget), passed to the pool as is.
  PoolOptions pool;
  vkvm::VmConfig vm_defaults;
  // Worker threads of the executor backing InvokeAsync (0 = pick from
  // hardware concurrency).
  int async_workers = 0;
  // Snapshot-affine shell reuse: release a snapshot-backed shell unzeroed
  // and delta-restore it on the next invocation of the same snapshot.  Off,
  // every warm restore pays the full image copy (the paper's simple
  // snapshotting strategy) — kept as a knob for A/B benchmarking.
  bool snapshot_affinity = true;
  // Snapshot-chain governance for RecaptureSnapshot: a re-capture whose
  // chain would exceed `chain_max_depth` layers, or whose total chain bytes
  // exceed `chain_flatten_slack` × the flattened view size, is flattened
  // into a single parentless layer instead of growing the chain.
  int chain_max_depth = 4;
  double chain_flatten_slack = 1.5;
  // Deterministic fault injection (chaos testing): rules fire at exact
  // invocation indices or with seeded probabilities.  Empty = no injection
  // (zero cost on the invoke path).
  FaultPlan fault_plan;
  // Fault-recovery policy for the InvokeAsync executor: retry-once
  // eligibility (idempotent keys) and the per-key circuit breaker.  Callers
  // that build their own Executor pass a RecoveryOptions directly through
  // ExecutorOptions instead.
  RecoveryOptions recovery;
  // Verify the snapshot checksum on every restore; a mismatch classifies as
  // kPoisonedSnapshot and quarantines the shell.  Off by default: snapshots
  // are immutable in-process, so this guards against bugs, not physics.
  bool verify_restores = false;
};

// What Runtime::RecaptureSnapshot did.
struct RecaptureOutcome {
  enum class Status {
    kRecaptured,   // a delta child (or flattened image) was published
    kNoSnapshot,   // the key has no snapshot to re-capture
    kNoWarmShell,  // nothing parked under the generation: no drift to fold
    kNoDrift,      // a warm shell existed but wrote nothing since restore
  };
  Status status = Status::kNoSnapshot;
  uint64_t old_generation = 0;
  uint64_t new_generation = 0;
  uint64_t delta_bytes = 0;  // bytes captured in the child layer
  int chain_depth = 0;       // depth of the published snapshot's chain
  bool flattened = false;
};

class Executor;

class Runtime {
 public:
  explicit Runtime(RuntimeOptions options = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // Runs one virtine to completion (synchronous, like a function call).
  // Thread-safe: concurrent Invokes share only the sharded pool and the
  // read-mostly snapshot store.
  RunOutcome Invoke(const VirtineSpec& spec);

  // Enqueues one virtine on the runtime's executor (created lazily on first
  // use) and returns a future for its outcome.  The spec's non-owning
  // pointers (image, input, channel) must stay alive until the future
  // resolves.
  std::future<RunOutcome> InvokeAsync(VirtineSpec spec);

  // Retires `key`'s snapshot: drops it from the store and eagerly reclaims
  // every pool shell parked under its generation (cleaner crew in async
  // mode).  The next snapshot-enabled invocation of the key re-captures —
  // the re-snapshot lifecycle for long-lived services whose warm state
  // drifts (e.g. after JIT warm-up).
  void RetireSnapshot(const std::string& key);

  // Re-snapshots `key`'s warmed service as a *delta child* over its parent
  // extent: steals one shell parked under the current generation, captures
  // its post-restore drift (epoch-dirty pages) chained over the parent's
  // buffer, publishes the child under a fresh generation, retires the old
  // one, and re-parks the shell under the child.  Long-lived services whose
  // warm state accretes (JIT caches, memo tables) fold the drift in for the
  // cost of the delta instead of a full re-capture — and the parent's image
  // bytes stay shared through the chain.  Chains are flattened per the
  // chain_max_depth / chain_flatten_slack options.  Only sound when runs
  // leave memory valid to resume from the original snapshot point (the
  // re-capture keeps the parent's CPU state).
  RecaptureOutcome RecaptureSnapshot(const std::string& key);

  Pool& pool() { return pool_; }
  SnapshotStore& snapshots() { return snapshots_; }
  HostEnv& env() { return env_; }
  const RuntimeOptions& options() const { return options_; }
  // Null when no fault plan is configured.
  FaultInjector* fault_injector() { return injector_.get(); }

  // Builds a VmConfig for `mem_size` from the runtime defaults.
  vkvm::VmConfig MakeVmConfig(uint64_t mem_size) const;

 private:
  // Lays `snap` into the shell and begins its delta epoch.  Three paths:
  // `affine` repairs only the epoch-dirty pages of a shell that already
  // holds the snapshot (charged per byte repaired); otherwise, with
  // snapshot_affinity on, the shell *maps* the shared COW extent chain
  // (charged per extent mapped); with affinity off it replays the full
  // chain by copy (charged per byte, the paper's baseline).
  void RestoreSnapshot(vkvm::Vm& vm, const Snapshot& snap, bool affine,
                       InvokeStats* stats);
  // Captures a snapshot of the VM's current state (dirty pages + CPU) and
  // begins the shell's delta epoch at the capture point.
  SnapshotRef TakeSnapshot(vkvm::Vm& vm);
  // Dispatches one hypercall; returns the r0 result or an error.
  vbase::Result<int64_t> Dispatch(uint16_t port, HypercallFrame& frame);

  RuntimeOptions options_;
  Pool pool_;
  SnapshotStore snapshots_;
  HostEnv env_;
  // Non-null iff options_.fault_plan has rules.
  std::unique_ptr<FaultInjector> injector_;
  // Lazily constructed InvokeAsync worker pool; declared last so it joins
  // (and drains in-flight invocations) before the pool it drives shuts down.
  std::once_flag executor_once_;
  std::unique_ptr<Executor> executor_;
};

}  // namespace wasp

#endif  // SRC_WASP_RUNTIME_H_
