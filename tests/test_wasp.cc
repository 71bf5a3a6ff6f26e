// Wasp runtime tests: pooling (reuse + information-leak regression),
// snapshotting, hypercall policy enforcement, canned handler validation
// against hostile guests, channels, marshalling properties, and the
// accounting-law checkers (CheckInvariants) themselves.
#include <gtest/gtest.h>

#include <functional>
#include <thread>
#include <vector>

#include "src/vnet/listener.h"
#include "src/vrt/env.h"
#include "src/vrt/samples.h"
#include "src/wasp/channel.h"
#include "src/wasp/executor.h"
#include "src/wasp/pool.h"
#include "src/wasp/runtime.h"
#include "src/wasp/vfunc.h"

namespace {

visa::Image RawImage(const std::string& body) {
  auto image = vrt::BuildRawImage(body);
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  return std::move(*image);
}

// --- Pool -----------------------------------------------------------------

TEST(Pool, ReusesShellsBySize) {
  wasp::Pool pool(wasp::CleanMode::kSync);
  vkvm::VmConfig cfg;
  cfg.mem_size = 1 << 20;
  bool from_pool = true;
  auto vm = pool.Acquire(cfg, &from_pool);
  EXPECT_FALSE(from_pool);
  pool.Release(std::move(vm));
  EXPECT_EQ(pool.FreeShells(cfg.mem_size), 1u);
  vm = pool.Acquire(cfg, &from_pool);
  EXPECT_TRUE(from_pool);
  // A different size must not hit the pool.
  vkvm::VmConfig other = cfg;
  other.mem_size = 2 << 20;
  auto vm2 = pool.Acquire(other, &from_pool);
  EXPECT_FALSE(from_pool);
  pool.Release(std::move(vm));
  pool.Release(std::move(vm2));
  const auto stats = pool.stats();
  EXPECT_EQ(stats.acquires, 3u);
  EXPECT_EQ(stats.pool_hits, 1u);
  EXPECT_EQ(stats.fresh_creates, 2u);
}

TEST(Pool, CleaningZeroesDirtyPagesOnly) {
  wasp::Pool pool(wasp::CleanMode::kSync);
  vkvm::VmConfig cfg;
  auto vm = pool.Acquire(cfg);
  uint8_t secret[64];
  memset(secret, 0x5a, sizeof(secret));
  ASSERT_TRUE(vm->memory().Write(0x9000, secret, sizeof(secret)).ok());
  pool.Release(std::move(vm));
  EXPECT_GE(pool.stats().bytes_zeroed, vhw::kPageSize);
}

// The paper's isolation objective: a reused shell must never leak the
// previous tenant's memory.
TEST(Pool, InformationLeakRegression) {
  wasp::Pool pool(wasp::CleanMode::kSync);
  vkvm::VmConfig cfg;
  auto vm = pool.Acquire(cfg);
  const char secret[] = "TOP-SECRET-KEY-MATERIAL";
  ASSERT_TRUE(vm->memory().Write(0x40000, secret, sizeof(secret)).ok());
  pool.Release(std::move(vm));
  auto reused = pool.Acquire(cfg);
  std::vector<uint8_t> probe(vhw::kPageSize);
  ASSERT_TRUE(reused->memory().Read(0x40000, probe.data(), probe.size()).ok());
  for (uint8_t b : probe) {
    ASSERT_EQ(b, 0u) << "secret leaked through a pooled shell";
  }
}

TEST(Pool, AsyncCleanerDrains) {
  wasp::Pool pool(wasp::CleanMode::kAsync);
  vkvm::VmConfig cfg;
  for (int i = 0; i < 8; ++i) {
    auto vm = pool.Acquire(cfg);
    uint8_t b = 1;
    ASSERT_TRUE(vm->memory().Write(0x9000, &b, 1).ok());
    pool.Release(std::move(vm));
  }
  pool.DrainCleaner();
  EXPECT_EQ(pool.stats().cleans, 8u);
  // Later acquires may legitimately reuse already-cleaned shells, so the
  // free list holds between 1 and 8 shells; all of them are clean.
  EXPECT_GE(pool.FreeShells(cfg.mem_size), 1u);
}

TEST(Pool, NoneModeDropsShells) {
  wasp::Pool pool(wasp::CleanMode::kNone);
  vkvm::VmConfig cfg;
  pool.Release(pool.Acquire(cfg));
  EXPECT_EQ(pool.FreeShells(cfg.mem_size), 0u);
}

// --- Invocation + snapshotting ------------------------------------------------

TEST(Runtime, SnapshotSkipsBootAndIsFaster) {
  auto image = vrt::BuildImage(vrt::Env::kLong64, vrt::FibSource());
  ASSERT_TRUE(image.ok());
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image.value();
  spec.key = "snap-test";
  spec.use_snapshot = true;
  wasp::VirtineFunc<int64_t(int64_t)> fib(&runtime, spec);
  ASSERT_TRUE(fib.Call(10).ok());
  EXPECT_TRUE(fib.last_outcome().stats.took_snapshot);
  const uint64_t first_insns = fib.last_outcome().stats.insns;
  ASSERT_TRUE(fib.Call(10).ok());
  EXPECT_TRUE(fib.last_outcome().stats.restored_snapshot);
  // Boot (GDT + page tables + transitions) is hundreds of instructions that
  // the restored run must not execute.
  EXPECT_LT(fib.last_outcome().stats.insns + 500, first_insns);
}

TEST(Runtime, SnapshotRunsProduceIdenticalResults) {
  auto image = vrt::BuildImage(vrt::Env::kLong64, vrt::FibSource());
  ASSERT_TRUE(image.ok());
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image.value();
  spec.key = "snap-determinism";
  spec.use_snapshot = true;
  wasp::VirtineFunc<int64_t(int64_t)> fib(&runtime, spec);
  for (int n : {0, 1, 7, 13, 18}) {
    auto a = fib.Call(n);
    auto b = fib.Call(n);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b) << "snapshot run diverged for n=" << n;
  }
}

TEST(Runtime, SnapshotsAreIsolatedBetweenInvocations) {
  // A virtine that mutates a global after the snapshot point: the mutation
  // must never be visible to the next restore.
  auto image = vrt::BuildRawImage(R"(
start:
  mov r8, 0x600
  ld64 r9, [r8+0]      ; read marker
  add r9, 1
  st64 [r8+0], r9      ; increment marker (post-snapshot state)
  mov r0, r9
  mov r8, 0
  st64 [r8+0], r0      ; result word
  hlt
)");
  ASSERT_TRUE(image.ok());
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image.value();
  spec.word_bytes = 8;
  for (int i = 0; i < 3; ++i) {
    auto outcome = runtime.Invoke(spec);
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    EXPECT_EQ(outcome.result_word, 1u) << "state leaked across invocations";
  }
}

TEST(Runtime, RuntimesDoNotShareSnapshots) {
  auto image = vrt::BuildImage(vrt::Env::kLong64, vrt::FibSource());
  ASSERT_TRUE(image.ok());
  wasp::Runtime a;
  wasp::Runtime b;
  wasp::VirtineSpec spec;
  spec.image = &image.value();
  spec.key = "shared-key";
  spec.use_snapshot = true;
  wasp::VirtineFunc<int64_t(int64_t)> fa(&a, spec);
  wasp::VirtineFunc<int64_t(int64_t)> fb(&b, spec);
  ASSERT_TRUE(fa.Call(5).ok());
  ASSERT_TRUE(fb.Call(5).ok());
  EXPECT_TRUE(fb.last_outcome().stats.took_snapshot);  // b took its own
}

// --- Policy enforcement ----------------------------------------------------------

TEST(Policy, DefaultDenyTerminatesOnForbiddenHypercall) {
  auto image = RawImage(R"(
start:
  mov r1, 0x600
  mov r2, 4
  mov r0, 0
  out HC_SEND, r0
  hlt
)");
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image;
  spec.policy = wasp::kPolicyDenyAll;
  auto outcome = runtime.Invoke(spec);
  EXPECT_FALSE(outcome.status.ok());
  EXPECT_TRUE(outcome.denied);
  EXPECT_EQ(outcome.status.code(), vbase::Code::kPermissionDenied);
}

TEST(Policy, ExitAlwaysPermitted) {
  auto image = RawImage("start:\n  mov r1, 7\n  mov r0, 0\n  out HC_EXIT, r0\n  hlt\n");
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image;
  spec.policy = wasp::kPolicyDenyAll;
  auto outcome = runtime.Invoke(spec);
  EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.exit_code, 7u);
}

TEST(Policy, MaskGrantsSpecificPorts) {
  auto image = RawImage(R"(
start:
  mov r1, msg
  mov r2, 5
  mov r0, 0
  out HC_CONSOLE, r0
  hlt
msg:
  .ascii "hello"
)");
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image;
  spec.policy = wasp::MaskOf(wasp::kHcConsole);
  auto outcome = runtime.Invoke(spec);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.console, "hello");
}

TEST(Policy, SnapshotHypercallOnceOnly) {
  auto image = RawImage(R"(
start:
  mov r0, 0
  out HC_SNAPSHOT, r0
  out HC_SNAPSHOT, r0
  hlt
)");
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image;
  auto outcome = runtime.Invoke(spec);
  EXPECT_FALSE(outcome.status.ok());
  EXPECT_EQ(outcome.status.code(), vbase::Code::kPermissionDenied);
}

TEST(Policy, GetDataOnceOnly) {
  auto image = RawImage(R"(
start:
  mov r1, 0x600
  mov r2, 16
  mov r0, 0
  out HC_GET_DATA, r0
  out HC_GET_DATA, r0
  hlt
)");
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image;
  spec.policy = wasp::kPolicyManaged;
  std::vector<uint8_t> input = {1, 2, 3};
  spec.input = &input;
  auto outcome = runtime.Invoke(spec);
  EXPECT_FALSE(outcome.status.ok());
}

// --- Hostile-guest handler validation ------------------------------------------

visa::Image LongModeImage(const std::string& virtine_main_body) {
  auto image = vrt::BuildImage(vrt::Env::kLong64,
                               "virtine_main:\n" + virtine_main_body + "  ret\n");
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  return std::move(*image);
}

TEST(HandlerSafety, HostileConsolePointerIsRejected) {
  // Console write pointing far outside the identity map must not crash or
  // read host memory; the virtine is terminated with an error.  (Long mode:
  // real mode cannot even express addresses past 64 KB.)
  auto image = LongModeImage(R"(
  mov r1, 0xf0000000
  mov r2, 4096
  mov r0, 0
  out HC_CONSOLE, r0
)");
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image;
  spec.policy = wasp::MaskOf(wasp::kHcConsole);
  auto outcome = runtime.Invoke(spec);
  EXPECT_FALSE(outcome.status.ok());
}

TEST(HandlerSafety, HostileReturnDataOutOfBounds) {
  // A mapped virtual address whose physical target is beyond guest memory
  // (identity map covers 1 GB; guest memory is 1 MB).
  auto image = LongModeImage(R"(
  mov r1, 0x20000000
  mov r2, 64
  mov r0, 0
  out HC_RETURN_DATA, r0
)");
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image;
  spec.policy = wasp::kPolicyManaged;
  auto outcome = runtime.Invoke(spec);
  EXPECT_FALSE(outcome.status.ok());
}

TEST(HandlerSafety, UnterminatedPathIsRejected) {
  // open() with a path pointer into a region with no NUL within bounds.
  auto image = RawImage(R"(
start:
  mov r1, 0x600
  mov r2, 0
fill:
  mov r3, 65
  st8 [r1+0], r3
  add r1, 1
  add r2, 1
  cmp r2, 5000
  jl fill
  mov r1, 0x600
  mov r0, 0
  out HC_OPEN, r0
  hlt
)");
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image;
  spec.policy = wasp::kPolicyFileIo;
  auto outcome = runtime.Invoke(spec);
  EXPECT_FALSE(outcome.status.ok());
}

TEST(HandlerSafety, UnknownHypercallPortFails) {
  auto image = RawImage("start:\n  mov r0, 0\n  out 63, r0\n  hlt\n");
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image;
  spec.policy = wasp::kPolicyAllowAll;
  auto outcome = runtime.Invoke(spec);
  EXPECT_FALSE(outcome.status.ok());
  EXPECT_EQ(outcome.status.code(), vbase::Code::kUnimplemented);
}

TEST(HandlerSafety, GuestFaultIsReported) {
  auto image = RawImage("start:\n  brk\n");
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image;
  auto outcome = runtime.Invoke(spec);
  EXPECT_FALSE(outcome.status.ok());
}

TEST(HandlerSafety, RunawayGuestHitsWatchdog) {
  auto image = RawImage("start:\nloop:\n  jmp loop\n");
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image;
  spec.max_insns = 10000;
  auto outcome = runtime.Invoke(spec);
  EXPECT_FALSE(outcome.status.ok());
  EXPECT_EQ(outcome.status.code(), vbase::Code::kAborted);
}

// --- Custom handlers --------------------------------------------------------------

TEST(CustomHandlers, ClientHandlerOverridesCanned) {
  auto image = RawImage(R"(
start:
  mov r1, 21
  mov r0, 0
  out HC_CONSOLE, r0
  mov r8, 0
  stw [r8+0], r0
  hlt
)");
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image;
  spec.word_bytes = 8;
  spec.policy = wasp::MaskOf(wasp::kHcConsole);
  spec.handlers[wasp::kHcConsole] = [](wasp::HypercallFrame& frame) {
    return vbase::Result<int64_t>(static_cast<int64_t>(frame.arg(0) * 2));
  };
  auto outcome = runtime.Invoke(spec);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.result_word, 42u);
}

// --- File I/O hypercalls --------------------------------------------------------

TEST(FileIo, OpenReadWriteCloseAgainstHostEnv) {
  auto image = RawImage(R"(
start:
  mov r1, path
  mov r0, 0
  out HC_OPEN, r0        ; r0 = fd
  mov r1, r0
  mov r2, 0x600
  mov r3, 64
  out HC_READ, r0        ; r0 = bytes read
  mov r9, r0
  mov r2, 0x600
  mov r3, r9
  mov r1, 1
  out HC_WRITE, r0       ; echo the bytes back to the host
  mov r8, 0
  stw [r8+0], r9
  hlt
path:
  .asciz "/greeting"
)");
  wasp::Runtime runtime;
  runtime.env().PutFile("/greeting", std::string("hello file"));
  wasp::VirtineSpec spec;
  spec.image = &image;
  spec.word_bytes = 8;
  spec.policy = wasp::kPolicyFileIo;
  auto outcome = runtime.Invoke(spec);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.result_word, 10u);
  EXPECT_EQ(std::string(outcome.fd_writes.begin(), outcome.fd_writes.end()), "hello file");
}

TEST(FileIo, MissingFileReturnsMinusOne) {
  auto image = RawImage(R"(
start:
  mov r1, path
  mov r0, 0
  out HC_OPEN, r0
  mov r8, 0
  stw [r8+0], r0
  hlt
path:
  .asciz "/does-not-exist"
)");
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image;
  spec.word_bytes = 8;
  spec.policy = wasp::kPolicyFileIo;
  auto outcome = runtime.Invoke(spec);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  // The raw image runs in real mode: the handler's -1 lands in a 16-bit
  // register, so the stored result word reads back as 0xffff.
  EXPECT_EQ(outcome.result_word, 0xffffu);
}

// --- Channels ---------------------------------------------------------------------

TEST(Channel, RoundTripAndEof) {
  wasp::ByteChannel channel;
  channel.host().WriteString("ping");
  char buf[8];
  EXPECT_EQ(channel.guest().Read(buf, sizeof(buf)), 4u);
  EXPECT_EQ(std::string(buf, 4), "ping");
  channel.guest().WriteString("pong");
  auto data = channel.host().Drain();
  EXPECT_EQ(std::string(data.begin(), data.end()), "pong");
  channel.host().CloseWrite();
  EXPECT_EQ(channel.guest().Read(buf, sizeof(buf)), 0u);  // EOF
}

TEST(Channel, BlockingReadWakesOnWrite) {
  wasp::ByteChannel channel;
  std::thread writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    channel.host().WriteString("x");
  });
  char b;
  EXPECT_EQ(channel.guest().Read(&b, 1), 1u);
  EXPECT_EQ(b, 'x');
  writer.join();
}

// --- Marshalling properties ---------------------------------------------------------

class MarshalWidthTest : public ::testing::TestWithParam<int> {};

TEST_P(MarshalWidthTest, ArgPageLayoutMatchesWordSize) {
  const int w = GetParam();
  wasp::ArgPacker packer(w);
  packer.AddWord(0x11);
  packer.AddWord(0x22);
  auto page = packer.Finish();
  ASSERT_GE(page.size(), static_cast<size_t>(4 * w));
  // word 0 = ret (0), word 1 = argc (2), word 2.. = args.
  EXPECT_EQ(page[0], 0);
  EXPECT_EQ(page[static_cast<size_t>(w)], 2);
  EXPECT_EQ(page[static_cast<size_t>(2 * w)], 0x11);
  EXPECT_EQ(page[static_cast<size_t>(3 * w)], 0x22);
}

INSTANTIATE_TEST_SUITE_P(Widths, MarshalWidthTest, ::testing::Values(2, 4, 8));

TEST(Marshal, BufferArgsLandInBufferArea) {
  wasp::ArgPacker packer(8);
  const char payload[] = "DATA";
  packer.AddBuffer({payload, 4});
  auto page = packer.Finish();
  uint64_t ptr = 0;
  memcpy(&ptr, page.data() + 16, 8);
  EXPECT_EQ(ptr, wasp::kArgBufOffset);
  EXPECT_EQ(memcmp(page.data() + ptr, "DATA", 4), 0);
}

TEST(Marshal, NegativeReturnValuesSignExtend) {
  auto image = RawImage(R"(
start:
  mov r0, 5
  neg r0
  mov r8, 0
  stw [r8+0], r0
  hlt
)");
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image;
  spec.word_bytes = 2;  // the raw image runs in real mode (16-bit words)
  wasp::VirtineFunc<int64_t()> fn(&runtime, spec);
  auto r = fn.Call();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, -5);
}

// --- Invocation stats ---------------------------------------------------------------

TEST(Stats, PoolAndSnapshotFlagsAreAccurate) {
  auto image = vrt::BuildImage(vrt::Env::kLong64, vrt::Add2Source());
  ASSERT_TRUE(image.ok());
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image.value();
  spec.key = "stats-test";
  spec.use_snapshot = true;
  wasp::VirtineFunc<int64_t(int64_t, int64_t)> add(&runtime, spec);
  ASSERT_TRUE(add.Call(1, 2).ok());
  EXPECT_FALSE(add.last_outcome().stats.from_pool);
  EXPECT_FALSE(add.last_outcome().stats.restored_snapshot);
  ASSERT_TRUE(add.Call(3, 4).ok());
  EXPECT_TRUE(add.last_outcome().stats.from_pool);
  EXPECT_TRUE(add.last_outcome().stats.restored_snapshot);
  // The first run parked its shell snapshot-affine, so the warm start is a
  // delta restore that repairs only the dirtied pages.
  EXPECT_TRUE(add.last_outcome().stats.affine_restore);
  EXPECT_GT(add.last_outcome().stats.restored_bytes, 0u);
  EXPECT_GT(add.last_outcome().stats.total_cycles, 0u);
  EXPECT_GT(add.last_outcome().stats.total_ns, 0u);
}

// --- Accounting laws ------------------------------------------------------------

// The checkers themselves: a consistent snapshot passes, and a snapshot that
// breaks exactly one law fails with that law's name leading the message.

wasp::PoolStats ConsistentPoolStats() {
  wasp::PoolStats s;
  s.acquires = 10;
  s.pool_hits = 7;
  s.fresh_creates = 3;
  s.lane_cache_hits = 4;
  s.freelist_hits = 3;
  s.slow_path_acquires = 3;
  s.affine_shared_bytes = 8192;
  s.affine_private_bytes = 4096;
  s.affine_resident_bytes = 12288;
  s.quarantined = 5;
  s.quarantine_scrubbed = 2;
  s.quarantine_destroyed = 1;
  s.quarantined_now = 2;
  return s;
}

wasp::AffineAccounting ConsistentAccounting() {
  wasp::AffineAccounting acct;
  acct.generations.push_back({/*generation=*/1, /*shared_bytes=*/8192,
                              /*private_bytes=*/4096, /*parked_shells=*/2});
  acct.resident_bytes = 12288;
  return acct;
}

TEST(AccountingLaws, ConsistentPoolSnapshotPasses) {
  EXPECT_EQ(wasp::CheckInvariants(ConsistentPoolStats(), ConsistentAccounting()).ToString(),
            "OK");
  EXPECT_EQ(wasp::CheckInvariants(wasp::PoolStats{}, wasp::AffineAccounting{}).ToString(), "OK");
}

TEST(AccountingLaws, EachBrokenPoolLawIsNamed) {
  struct Case {
    const char* law;
    std::function<void(wasp::PoolStats&, wasp::AffineAccounting&)> breaks;
  };
  const std::vector<Case> cases = {
      {"P1", [](wasp::PoolStats& s, wasp::AffineAccounting&) { s.pool_hits = 8; }},
      {"P2", [](wasp::PoolStats& s, wasp::AffineAccounting&) { s.lane_cache_hits = 5; }},
      // The gauge disagrees with its own shared/private split ...
      {"P3", [](wasp::PoolStats& s, wasp::AffineAccounting&) { s.affine_private_bytes = 0; }},
      // ... or, split intact, with the per-generation rows.
      {"P3", [](wasp::PoolStats&, wasp::AffineAccounting& a) { a.resident_bytes = 8192; }},
      {"P4", [](wasp::PoolStats& s, wasp::AffineAccounting&) { s.quarantine_scrubbed = 3; }},
  };
  for (const Case& c : cases) {
    wasp::PoolStats stats = ConsistentPoolStats();
    wasp::AffineAccounting acct = ConsistentAccounting();
    c.breaks(stats, acct);
    const vbase::Status laws = wasp::CheckInvariants(stats, acct);
    EXPECT_FALSE(laws.ok()) << c.law;
    EXPECT_EQ(laws.message().rfind(std::string(c.law) + " ", 0), 0u) << laws.message();
  }
}

wasp::ExecutorStats ConsistentExecutorStats() {
  wasp::ExecutorStats s;
  s.submitted = 10;
  s.completed = 5;
  s.faulted = 1;
  s.queued = 2;
  s.in_flight = 2;
  s.dequeued_latency = 6;
  s.dequeued_batch = 2;
  return s;
}

TEST(AccountingLaws, EachBrokenExecutorLawIsNamed) {
  EXPECT_EQ(wasp::CheckInvariants(ConsistentExecutorStats()).ToString(), "OK");
  EXPECT_EQ(wasp::CheckInvariants(wasp::ExecutorStats{}).ToString(), "OK");
  struct Case {
    const char* law;
    std::function<void(wasp::ExecutorStats&)> breaks;
  };
  const std::vector<Case> cases = {
      {"E1", [](wasp::ExecutorStats& s) { s.queued = 3; }},
      {"E2", [](wasp::ExecutorStats& s) { s.dequeued_batch = 3; }},
  };
  for (const Case& c : cases) {
    wasp::ExecutorStats stats = ConsistentExecutorStats();
    c.breaks(stats);
    const vbase::Status laws = wasp::CheckInvariants(stats);
    EXPECT_FALSE(laws.ok()) << c.law;
    EXPECT_EQ(laws.message().rfind(std::string(c.law) + " ", 0), 0u) << laws.message();
  }
}

TEST(AccountingLaws, ListenerLawTightensOnceStopped) {
  vnet::ListenerStats stats;
  stats.accepted = 3;
  stats.closed = 2;
  EXPECT_EQ(vnet::CheckInvariants(stats, /*stopped=*/false).ToString(), "OK");
  // Stopped with a connection unaccounted for.
  const vbase::Status open_after_stop = vnet::CheckInvariants(stats, /*stopped=*/true);
  EXPECT_FALSE(open_after_stop.ok());
  EXPECT_EQ(open_after_stop.message().rfind("L1 ", 0), 0u) << open_after_stop.message();
  stats.closed = 3;
  EXPECT_EQ(vnet::CheckInvariants(stats, /*stopped=*/true).ToString(), "OK");
  // More closes than accepts is broken whether or not the listener stopped.
  stats.closed = 4;
  for (bool stopped : {false, true}) {
    const vbase::Status laws = vnet::CheckInvariants(stats, stopped);
    EXPECT_FALSE(laws.ok());
    EXPECT_EQ(laws.message().rfind("L1 ", 0), 0u) << laws.message();
  }
}

}  // namespace
