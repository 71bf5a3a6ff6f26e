#include "src/wasp/runtime.h"

#include <algorithm>
#include <cstring>
#include <thread>

#include "src/base/clock.h"
#include "src/base/log.h"
#include "src/wasp/executor.h"

namespace wasp {
namespace {

// Upper bounds on guest-supplied lengths accepted by canned handlers; a
// hostile guest cannot make the host allocate unbounded memory.
constexpr uint64_t kMaxIoLen = 1ULL << 24;        // 16 MB
constexpr uint64_t kMaxPathLen = 4096;

}  // namespace

Runtime::Runtime(RuntimeOptions options)
    : options_(std::move(options)), pool_(options_.pool) {
  if (!options_.fault_plan.empty()) {
    injector_ = std::make_unique<FaultInjector>(options_.fault_plan);
  }
}

Runtime::~Runtime() = default;

std::future<RunOutcome> Runtime::InvokeAsync(VirtineSpec spec) {
  std::call_once(executor_once_, [this] {
    int workers = options_.async_workers;
    if (workers <= 0) {
      workers = static_cast<int>(std::max(2u, std::thread::hardware_concurrency()));
    }
    ExecutorOptions opts;
    opts.workers = workers;
    opts.recovery = options_.recovery;
    executor_ = std::make_unique<Executor>(this, opts);
  });
  return executor_->Submit(std::move(spec));
}

void Runtime::RetireSnapshot(const std::string& key) {
  SnapshotRef old = snapshots_.Take(key);
  if (old != nullptr) {
    pool_.RetireGeneration(old->generation);
  }
}

RecaptureOutcome Runtime::RecaptureSnapshot(const std::string& key) {
  RecaptureOutcome out;
  SnapshotRef parent = snapshots_.Find(key);
  if (parent == nullptr) {
    out.status = RecaptureOutcome::Status::kNoSnapshot;
    return out;
  }
  out.old_generation = parent->generation;
  // A warm shell parked under the current generation is the drift we fold:
  // its memory == parent view + epoch-dirty pages.
  std::unique_ptr<vkvm::Vm> vm = pool_.StealParkedAffine(parent->generation);
  if (vm == nullptr) {
    out.status = RecaptureOutcome::Status::kNoWarmShell;
    out.new_generation = parent->generation;
    return out;
  }
  if (vm->memory().CountEpochDirtyPages() == 0) {
    // Nothing written since the last restore: the parent still describes
    // the service exactly.  Re-park untouched.
    pool_.ReleaseAffine(std::move(vm), parent->generation, parent->chain_byte_size());
    out.status = RecaptureOutcome::Status::kNoDrift;
    out.new_generation = parent->generation;
    return out;
  }
  SnapshotRef child = CaptureDeltaSnapshot(vm->memory(), *parent);
  out.delta_bytes = child->byte_size();
  // Chain governance: flatten when the chain is too deep or the shadowed
  // bytes it drags along outweigh the view (delta bloat).
  const auto& extent = *child->extent;
  if (child->chain_depth() > options_.chain_max_depth ||
      static_cast<double>(extent.chain_byte_size()) >
          options_.chain_flatten_slack * static_cast<double>(extent.CoveredBytes())) {
    child = FlattenSnapshot(*child);
    out.flattened = true;
  }
  out.new_generation = child->generation;
  out.chain_depth = child->chain_depth();
  // Publish the child, then retire the old generation: any shells still
  // parked under it are reclaimed (their extent bytes survive through the
  // child's parent chain as long as it needs them).
  snapshots_.Put(key, child);
  pool_.RetireGeneration(parent->generation);
  // The stolen shell's memory *is* the child's view: re-base its COW
  // tracking on the new chain (no copies) and park it warm under the new
  // generation, ready for an affine hit.
  vm->memory().AdoptCowBase(child->extent);
  vm->memory().BeginEpoch();
  pool_.ReleaseAffine(std::move(vm), child->generation, child->chain_byte_size());
  out.status = RecaptureOutcome::Status::kRecaptured;
  return out;
}

vkvm::VmConfig Runtime::MakeVmConfig(uint64_t mem_size) const {
  vkvm::VmConfig cfg = options_.vm_defaults;
  cfg.mem_size = mem_size;
  return cfg;
}

void Runtime::RestoreSnapshot(vkvm::Vm& vm, const Snapshot& snap, bool affine,
                              InvokeStats* stats) {
  // Lay the snapshot into the shell.  An affine shell already holds the
  // snapshot and only repairs the pages the previous tenant dirtied, so
  // warm restore cost follows the working set, not the image.  A clean
  // shell under snapshot affinity *maps* the shared COW extent chain —
  // charged per extent, not per byte — and privatizes pages on write.
  // With affinity off, it replays every extent by copy: the "simple
  // snapshotting strategy" whose cost is bounded by memcpy bandwidth
  // (Figure 12), kept as the A/B baseline.  `snap` is immutable and
  // reference-held by the caller, so every path runs without any
  // SnapshotStore lock: concurrent restores of the same key proceed in
  // parallel.
  uint64_t copied = 0;
  if (affine) {
    copied = RestoreDeltaInto(snap, &vm.memory());
    vm.AddHostCycles(static_cast<uint64_t>(
        static_cast<double>(copied) / vm.config().host_costs.memcpy_bytes_per_cycle));
  } else if (options_.snapshot_affinity) {
    MapCowInto(snap, &vm.memory());
    vm.AddHostCycles(snap.extent->chain_extent_count() *
                     vm.config().host_costs.cow_map_extent);
    stats->mapped_cow = true;
  } else {
    copied = RestoreFullInto(snap, &vm.memory());
    vm.AddHostCycles(static_cast<uint64_t>(
        static_cast<double>(copied) / vm.config().host_costs.memcpy_bytes_per_cycle));
  }
  vm.cpu().RestoreArch(snap.cpu);
  // Memory now equals the snapshot exactly: start the epoch whose dirty set
  // is the next delta restore's work list.
  vm.memory().BeginEpoch();
  stats->restored_snapshot = true;
  stats->affine_restore = affine;
  stats->restored_bytes = copied;
}

SnapshotRef Runtime::TakeSnapshot(vkvm::Vm& vm) {
  SnapshotRef snap = CaptureSnapshot(vm.memory(), vm.cpu().state());
  // Taking the snapshot is itself a copy; charge it (the paper's Figure 11
  // snapshot bars "include the overhead for taking the initial snapshot").
  vm.AddHostCycles(static_cast<uint64_t>(
      static_cast<double>(snap->byte_size()) /
      vm.config().host_costs.memcpy_bytes_per_cycle));
  // The shell holds the snapshot verbatim at this instant: begin its epoch
  // so the rest of this run is tracked as the delta, and release can park
  // the shell snapshot-affine instead of zeroing it.
  vm.memory().BeginEpoch();
  return snap;
}

vbase::Result<int64_t> Runtime::Dispatch(uint16_t port, HypercallFrame& frame) {
  // Client-defined handlers take precedence (they are what the paper calls
  // the virtine client's hypercall handlers) but obey the same policy mask.
  if (auto it = frame.spec.handlers.find(port); it != frame.spec.handlers.end()) {
    return it->second(frame);
  }
  vkvm::Vm& vm = frame.vm;
  switch (port) {
    case kHcExit:
      frame.outcome.exit_code = frame.arg(0);
      frame.request_exit = true;
      return 0;

    case kHcConsole: {
      const uint64_t va = frame.arg(0);
      const uint64_t len = frame.arg(1);
      if (len > kMaxIoLen) {
        return vbase::InvalidArgument("console write too large");
      }
      std::vector<char> buf(len);
      VB_RETURN_IF_ERROR(vm.ReadVirt(va, buf.data(), len));
      frame.outcome.console.append(buf.data(), len);
      return static_cast<int64_t>(len);
    }

    case kHcSnapshot: {
      if (frame.snapshot_taken) {
        return vbase::PermissionDenied("snapshot hypercall may only be called once");
      }
      frame.snapshot_taken = true;
      if (frame.spec.use_snapshot && !frame.spec.key.empty() &&
          snapshots_.Find(frame.spec.key) == nullptr) {
        SnapshotRef snap = TakeSnapshot(vm);
        // Concurrent cold runs race this publish; only the winner's shell
        // parks snapshot-affine.  A loser's shell holds its *own* capture,
        // not the winner's, so it must go back through the cleaning path —
        // and under a generation the store never published, it would sit
        // stranded in the affine lists until reclaimed.
        SnapshotRef winner = snapshots_.PutIfAbsent(frame.spec.key, snap);
        if (winner == snap) {
          frame.resident_generation = snap->generation;
          frame.resident_shared_bytes = snap->chain_byte_size();
          frame.outcome.stats.took_snapshot = true;
          if (options_.snapshot_affinity) {
            // The shell's memory *is* the captured view: adopt the published
            // extent chain as its COW base (no copies) so the rest of this
            // run privatizes on write and the park charges the working set,
            // not the image.
            vm.memory().AdoptCowBase(snap->extent);
          }
        }
      }
      return 0;
    }

    case kHcGetData: {
      if (frame.data_fetched) {
        return vbase::PermissionDenied("get_data hypercall may only be called once");
      }
      frame.data_fetched = true;
      const uint64_t va = frame.arg(0);
      const uint64_t cap = frame.arg(1);
      if (cap > kMaxIoLen) {
        return vbase::InvalidArgument("get_data capacity too large");
      }
      if (frame.spec.input == nullptr) {
        return 0;
      }
      const uint64_t n = std::min<uint64_t>(cap, frame.spec.input->size());
      VB_RETURN_IF_ERROR(vm.WriteVirt(va, frame.spec.input->data(), n));
      return static_cast<int64_t>(n);
    }

    case kHcReturnData: {
      const uint64_t va = frame.arg(0);
      const uint64_t len = frame.arg(1);
      if (len > kMaxIoLen || frame.inject_oversized_reply) {
        frame.fault = FaultKind::kOversizedReply;
        if (frame.inject_oversized_reply) {
          frame.inject_oversized_reply = false;
          if (injector_ != nullptr) {
            injector_->RecordInjected(FaultKind::kOversizedReply);
          }
          return vbase::InvalidArgument("return_data too large (injected oversized reply)");
        }
        return vbase::InvalidArgument("return_data too large");
      }
      const size_t off = frame.outcome.output.size();
      frame.outcome.output.resize(off + len);
      VB_RETURN_IF_ERROR(vm.ReadVirt(va, frame.outcome.output.data() + off, len));
      return 0;
    }

    case kHcOpen: {
      auto path = vm.ReadCString(frame.arg(0), kMaxPathLen);
      if (!path.ok()) {
        return path.status();
      }
      auto fd = frame.fds.Open(*path);
      return fd.ok() ? *fd : -1;
    }

    case kHcRead: {
      const int64_t fd = static_cast<int64_t>(frame.arg(0));
      const uint64_t va = frame.arg(1);
      const uint64_t len = std::min<uint64_t>(frame.arg(2), kMaxIoLen);
      std::vector<uint8_t> buf(len);
      auto n = frame.fds.Read(fd, buf.data(), len);
      if (!n.ok()) {
        return -1;
      }
      VB_RETURN_IF_ERROR(vm.WriteVirt(va, buf.data(), static_cast<uint64_t>(*n)));
      return *n;
    }

    case kHcWrite: {
      const int64_t fd = static_cast<int64_t>(frame.arg(0));
      const uint64_t va = frame.arg(1);
      const uint64_t len = frame.arg(2);
      if (len > kMaxIoLen) {
        return vbase::InvalidArgument("write too large");
      }
      std::vector<uint8_t> buf(len);
      VB_RETURN_IF_ERROR(vm.ReadVirt(va, buf.data(), len));
      auto n = frame.fds.Write(fd, buf.data(), len);
      return n.ok() ? *n : -1;
    }

    case kHcClose:
      return frame.fds.Close(static_cast<int64_t>(frame.arg(0))).ok() ? 0 : -1;

    case kHcStat: {
      auto path = vm.ReadCString(frame.arg(0), kMaxPathLen);
      if (!path.ok()) {
        return path.status();
      }
      HostEnv* env = frame.spec.env != nullptr ? frame.spec.env : &env_;
      auto size = env->FileSize(*path);
      if (!size.ok()) {
        return -1;
      }
      const uint64_t statbuf = frame.arg(1);
      const uint64_t sz = *size;
      VB_RETURN_IF_ERROR(vm.WriteVirt(statbuf, &sz, sizeof(sz)));
      return 0;
    }

    case kHcSend: {
      if (frame.spec.channel == nullptr) {
        return vbase::FailedPrecondition("send: no channel attached");
      }
      const uint64_t va = frame.arg(0);
      const uint64_t len = frame.arg(1);
      if (len > kMaxIoLen) {
        return vbase::InvalidArgument("send too large");
      }
      std::vector<uint8_t> buf(len);
      VB_RETURN_IF_ERROR(vm.ReadVirt(va, buf.data(), len));
      return frame.spec.channel->Write(buf.data(), len) ? static_cast<int64_t>(len) : -1;
    }

    case kHcRecv: {
      if (frame.spec.channel == nullptr) {
        return vbase::FailedPrecondition("recv: no channel attached");
      }
      const uint64_t va = frame.arg(0);
      const uint64_t cap = std::min<uint64_t>(frame.arg(1), kMaxIoLen);
      std::vector<uint8_t> buf(cap);
      const uint64_t n = frame.spec.channel->Read(buf.data(), cap);
      VB_RETURN_IF_ERROR(vm.WriteVirt(va, buf.data(), n));
      return static_cast<int64_t>(n);
    }

    default:
      return vbase::Unimplemented("no handler for hypercall port " + std::to_string(port));
  }
}

RunOutcome Runtime::Invoke(const VirtineSpec& spec) {
  RunOutcome outcome;
  vbase::WallTimer total_timer;
  VB_CHECK(spec.image != nullptr, "VirtineSpec.image must be set");

  // Consult the fault plan once per invocation; kNone on the (default)
  // no-plan path costs one branch.
  const FaultKind armed =
      injector_ != nullptr ? injector_->Arm(spec.key) : FaultKind::kNone;

  // Resolve the snapshot first: it decides the load path.
  SnapshotRef snap;
  if (spec.use_snapshot && !spec.key.empty()) {
    snap = snapshots_.Find(spec.key);
  }

  // --- Acquire a shell (Figure 6: pooled reuse or fresh create).  With a
  // snapshot in hand, the keyed path prefers a shell that already holds it
  // resident (the pool's snapshot-affine lists). --------------------------
  vbase::WallTimer acquire_timer;
  bool from_pool = false;
  bool affine = false;
  std::unique_ptr<vkvm::Vm> vm;
  if (snap != nullptr && options_.snapshot_affinity && !spec.fresh_shell) {
    vm = pool_.AcquireAffine(MakeVmConfig(spec.mem_size), snap->generation, &affine,
                             &from_pool);
  } else {
    // fresh_shell (the executor's retry path) lands here deliberately: a
    // retried invocation must never inherit a parked affine sibling of the
    // shell that just faulted — it COW-maps the snapshot onto a clean shell.
    vm = pool_.Acquire(MakeVmConfig(spec.mem_size), &from_pool);
  }
  outcome.stats.from_pool = from_pool;
  outcome.stats.acquire_ns = acquire_timer.ElapsedNanos();

  // --- Load state: snapshot restore or image boot ------------------------
  vbase::WallTimer load_timer;
  if (snap != nullptr && snap->mem_size <= vm->memory().size()) {
    // Integrity gate: an injected poison (chaos) or a genuine checksum
    // mismatch (verify_restores) means the shell may hold a half-laid image
    // — quarantine it rather than reason about how far the restore got.
    const bool poisoned = armed == FaultKind::kPoisonedSnapshot ||
                          (options_.verify_restores && !VerifySnapshot(*snap));
    if (poisoned) {
      if (armed == FaultKind::kPoisonedSnapshot) {
        injector_->RecordInjected(FaultKind::kPoisonedSnapshot);
      }
      outcome.fault = FaultKind::kPoisonedSnapshot;
      outcome.status = vbase::Internal("poisoned snapshot: checksum mismatch restoring key '" +
                                       spec.key + "'");
      pool_.Quarantine(std::move(vm));
      outcome.stats.load_ns = load_timer.ElapsedNanos();
      outcome.stats.total_ns = total_timer.ElapsedNanos();
      return outcome;
    }
    RestoreSnapshot(*vm, *snap, affine, &outcome.stats);
  } else {
    if (affine) {
      // The affine shell matched by generation but the snapshot cannot be
      // laid into it (mem_size mismatch); scrub it back to a clean shell
      // before taking the boot path.
      vm->memory().ZeroDirtyPages();
      vm->ResetVcpu(kImageLoadAddr);
      vm->ResetAccounting();
      affine = false;
    }
    snap = nullptr;
    const visa::Image& image = *spec.image;
    vbase::Status st = vm->LoadBlob(image.load_addr, image.bytes.data(), image.bytes.size());
    if (!st.ok()) {
      outcome.status = std::move(st);
      pool_.Release(std::move(vm));
      return outcome;
    }
    vm->AddHostCycles(static_cast<uint64_t>(
        static_cast<double>(image.bytes.size()) /
        vm->config().host_costs.memcpy_bytes_per_cycle));
    // Boot info: memory size + flags.
    uint64_t boot_info[2] = {vm->memory().size(), 0};
    if (spec.use_snapshot && spec.crt_snapshot && !spec.key.empty()) {
      boot_info[1] |= kBootFlagSnapshot;
    }
    st = vm->memory().Write(kBootInfoAddr, boot_info, sizeof(boot_info));
    VB_CHECK(st.ok(), "boot info write failed");
    vm->ResetVcpu(image.entry);
    vm->cpu().set_reg(visa::kSp, kRealModeStackTop);
  }

  // --- Marshal arguments (after restore: snapshots resume before the CRT
  // reads the argument page, so fresh arguments land correctly) -----------
  if (!spec.args_page.empty()) {
    VB_CHECK(spec.args_page.size() <= kArgPageSize, "argument page too large");
    vbase::Status st = vm->memory().Write(kArgPageAddr, spec.args_page.data(),
                                          spec.args_page.size());
    VB_CHECK(st.ok(), "argument page write failed");
  }
  outcome.stats.load_ns = load_timer.ElapsedNanos();

  // --- Run until completion, interposing on every hypercall --------------
  vbase::WallTimer run_timer;
  HostEnv* env = spec.env != nullptr ? spec.env : &env_;
  HypercallFrame frame(*vm, *this, spec, outcome, env);
  // Injection delivery.  A guest trap is armed on the vCPU (delivered by the
  // next Run(), after any snapshot restore so RestoreArch cannot clear it);
  // an oversized reply flips the frame flag consumed by return_data; the
  // hypercall-shaped kinds fire at the first I/O exit below.
  FaultKind pending_io_fault = FaultKind::kNone;
  switch (armed) {
    case FaultKind::kGuestTrap:
      vm->InjectGuestFault("injected guest trap (chaos)");
      injector_->RecordInjected(FaultKind::kGuestTrap);
      break;
    case FaultKind::kOversizedReply:
      frame.inject_oversized_reply = true;
      break;
    case FaultKind::kWorkerDeath:
    case FaultKind::kIllegalHypercall:
    case FaultKind::kPolicyDenied:
      pending_io_fault = armed;
      break;
    default:
      break;
  }
  while (true) {
    const uint64_t used = vm->cpu().insns_retired();
    if (used >= spec.max_insns) {
      outcome.fault = FaultKind::kRunaway;
      outcome.status = vbase::Aborted("instruction budget exhausted (runaway virtine)");
      break;
    }
    vkvm::RunResult run = vm->Run(spec.max_insns - used);
    if (pending_io_fault != FaultKind::kNone &&
        (run.reason == vkvm::ExitReason::kIo || run.reason == vkvm::ExitReason::kHlt)) {
      // The invocation dies at its first exit boundary, mid-flight: its
      // first hypercall, or the final hlt for guests that never take one.
      const FaultKind inject = pending_io_fault;
      pending_io_fault = FaultKind::kNone;
      injector_->RecordInjected(inject);
      outcome.fault = inject;
      if (inject == FaultKind::kWorkerDeath) {
        outcome.status = vbase::Aborted("worker death injected mid-invocation");
      } else if (inject == FaultKind::kIllegalHypercall) {
        outcome.status = vbase::Unimplemented("illegal hypercall injected at port " +
                                              std::to_string(run.port));
      } else {
        outcome.denied = true;
        outcome.status = vbase::PermissionDenied("hypercall " + std::to_string(run.port) +
                                                 " denied by injected policy");
      }
      break;
    }
    if (run.reason == vkvm::ExitReason::kHlt) {
      break;
    }
    if (run.reason == vkvm::ExitReason::kIo) {
      const uint16_t port = run.port;
      // Policy check: default-deny.  Exit and snapshot are always permitted:
      // they are hypervisor-internal services with no externally observable
      // behavior (and snapshot is enforced once-only), matching the paper's
      // "no externally observable behavior through hypercalls other than the
      // ability to exit".
      if (port != kHcExit && port != kHcSnapshot && port < kMaxHypercall &&
          (spec.policy & MaskOf(port)) == 0) {
        outcome.denied = true;
        outcome.fault = FaultKind::kPolicyDenied;
        outcome.status = vbase::PermissionDenied(
            "hypercall " + std::to_string(port) + " denied by policy; virtine terminated");
        break;
      }
      auto result = Dispatch(port, frame);
      if (!result.ok()) {
        // Structured classification: a handler that tagged the frame wins;
        // otherwise an unknown port is an illegal hypercall and anything
        // else is a handler failure.  The message stays for logs.
        if (frame.fault != FaultKind::kNone) {
          outcome.fault = frame.fault;
        } else if (result.status().code() == vbase::Code::kUnimplemented) {
          outcome.fault = FaultKind::kIllegalHypercall;
        } else {
          outcome.fault = FaultKind::kHypercallError;
        }
        outcome.status = result.status();
        break;
      }
      // Result goes to r0 for `out`, or to the destination register of `in`.
      vm->cpu().set_reg(run.io_is_in ? run.io_reg : 0, static_cast<uint64_t>(*result));
      if (frame.request_exit) {
        break;
      }
      continue;
    }
    if (run.reason == vkvm::ExitReason::kInsnLimit) {
      outcome.fault = FaultKind::kRunaway;
      outcome.status = vbase::Aborted("instruction budget exhausted (runaway virtine)");
      break;
    }
    if (run.reason == vkvm::ExitReason::kBrk) {
      outcome.fault = FaultKind::kGuestTrap;
      outcome.status = vbase::Aborted("guest breakpoint");
      break;
    }
    outcome.fault = FaultKind::kGuestTrap;
    outcome.status = vbase::Internal("guest fault: " + run.fault);
    break;
  }
  outcome.stats.run_ns = run_timer.ElapsedNanos();

  // --- Harvest results -----------------------------------------------------
  if (outcome.status.ok() && spec.word_bytes > 0) {
    uint64_t word = 0;
    vbase::Status st = vm->memory().Read(kArgPageAddr, &word,
                                         static_cast<uint64_t>(spec.word_bytes));
    if (st.ok()) {
      outcome.result_word = word;
    }
  }
  outcome.fd_writes = frame.fds.TakeWrites();
  outcome.stats.guest_cycles = vm->cpu().cycles();
  outcome.stats.host_cycles = vm->host_cycles();
  outcome.stats.total_cycles = vm->total_cycles();
  outcome.stats.io_exits = vm->cpu().io_exits();
  outcome.stats.insns = vm->cpu().insns_retired();

  // --- Release the shell: a faulted invocation quarantines it (never parked
  // affine, never pushed to the lock-free free stack — only a cleaner-crew
  // scrub readmits it).  A clean snapshot-backed run parks it snapshot-affine
  // (no zeroing; the epoch bitmap records the delta for the next restore),
  // anything else goes back through the cleaning path. --------------------
  if (outcome.fault != FaultKind::kNone) {
    pool_.Quarantine(std::move(vm));
    outcome.stats.total_ns = total_timer.ElapsedNanos();
    return outcome;
  }
  uint64_t park_generation = 0;
  uint64_t park_shared_bytes = 0;
  if (options_.snapshot_affinity && outcome.status.ok()) {
    if (outcome.stats.restored_snapshot && snap != nullptr) {
      park_generation = snap->generation;
      park_shared_bytes = snap->chain_byte_size();
    } else if (frame.resident_generation != 0) {
      park_generation = frame.resident_generation;
      park_shared_bytes = frame.resident_shared_bytes;
    }
  }
  if (park_generation != 0) {
    pool_.ReleaseAffine(std::move(vm), park_generation, park_shared_bytes);
  } else {
    pool_.Release(std::move(vm));
  }
  outcome.stats.total_ns = total_timer.ElapsedNanos();
  return outcome;
}

}  // namespace wasp
