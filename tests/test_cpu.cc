// CPU semantics tests: ALU behaviour at every mode width, flags/conditions,
// memory, stack, control flow, mode-transition legality, paging faults,
// cycle accounting invariants, and the cycle-exactness goldens that pin every
// modeled statistic of the interpreter.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/isa/assembler.h"
#include "src/vhw/cpu.h"
#include "src/vhw/mem.h"
#include "src/vkvm/vkvm.h"
#include "src/vnet/server.h"
#include "src/vrt/env.h"
#include "src/vrt/samples.h"
#include "src/wasp/abi.h"
#include "src/wasp/channel.h"
#include "src/wasp/host_env.h"
#include "src/wasp/runtime.h"
#include "src/wasp/vfunc.h"

namespace {

// Runs `body` (assembled at 0x8000, real mode, sp=0x7000) until hlt and
// returns the CPU for inspection.
struct RunResult {
  vhw::Exit exit;
  std::unique_ptr<vhw::GuestMemory> mem;
  std::unique_ptr<vhw::Cpu> cpu;
};

RunResult RunAsm(const std::string& body, uint64_t max_insns = 1000000) {
  auto image = visa::Assemble("start:\n" + body);
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  RunResult r;
  r.mem = std::make_unique<vhw::GuestMemory>(1 << 20);
  EXPECT_TRUE(r.mem->Write(image->load_addr, image->bytes.data(), image->bytes.size()).ok());
  r.cpu = std::make_unique<vhw::Cpu>(r.mem.get(), vhw::CostModel{});
  r.cpu->Reset(image->entry);
  r.cpu->set_reg(visa::kSp, 0x7000);
  r.exit = r.cpu->Run(max_insns);
  return r;
}

TEST(CpuAlu, Real16WidthMasksArithmetic) {
  auto r = RunAsm("mov r0, 0xffff\n  add r0, 1\n  hlt\n");
  ASSERT_EQ(r.exit.kind, vhw::ExitKind::kHlt) << r.exit.fault;
  EXPECT_EQ(r.cpu->reg(0), 0u);  // wrapped at 16 bits
}

TEST(CpuAlu, MovImmediateMasksToMode) {
  auto r = RunAsm("mov r0, 0x123456789\n  hlt\n");
  ASSERT_EQ(r.exit.kind, vhw::ExitKind::kHlt);
  EXPECT_EQ(r.cpu->reg(0), 0x6789u);  // real mode: 16 bits
}

struct AluCase {
  const char* body;
  uint64_t expect;  // r0 at hlt (16-bit semantics)
  const char* name;
};

class AluTest : public ::testing::TestWithParam<AluCase> {};

TEST_P(AluTest, Computes) {
  auto r = RunAsm(GetParam().body);
  ASSERT_EQ(r.exit.kind, vhw::ExitKind::kHlt) << r.exit.fault;
  EXPECT_EQ(r.cpu->reg(0), GetParam().expect);
}

INSTANTIATE_TEST_SUITE_P(
    Ops, AluTest,
    ::testing::Values(
        AluCase{"mov r0, 7\n mov r1, 3\n add r0, r1\n hlt\n", 10, "add_rr"},
        AluCase{"mov r0, 7\n sub r0, 10\n hlt\n", 0xfffd, "sub_wraps"},
        AluCase{"mov r0, 6\n mov r1, 7\n mul r0, r1\n hlt\n", 42, "mul"},
        AluCase{"mov r0, 6\n mov r1, 7\n imul r0, r1\n hlt\n", 42, "imul"},
        AluCase{"mov r0, 45\n mov r1, 7\n udiv r0, r1\n hlt\n", 6, "udiv"},
        AluCase{"mov r0, 45\n mov r1, 7\n umod r0, r1\n hlt\n", 3, "umod"},
        AluCase{"mov r0, 45\n neg r0\n mov r1, 7\n idiv r0, r1\n hlt\n",
                0x10000 - 6, "idiv_signed"},
        AluCase{"mov r0, 45\n neg r0\n mov r1, 7\n imod r0, r1\n hlt\n",
                0x10000 - 3, "imod_signed"},
        AluCase{"mov r0, 0xf0\n and r0, 0x3c\n hlt\n", 0x30, "and"},
        AluCase{"mov r0, 0xf0\n or r0, 0x0f\n hlt\n", 0xff, "or"},
        AluCase{"mov r0, 0xff\n xor r0, 0x0f\n hlt\n", 0xf0, "xor"},
        AluCase{"mov r0, 1\n shl r0, 10\n hlt\n", 1024, "shl"},
        AluCase{"mov r0, 1024\n shr r0, 3\n hlt\n", 128, "shr"},
        AluCase{"mov r0, 16\n neg r0\n sar r0, 2\n hlt\n", 0x10000 - 4, "sar_signed"},
        AluCase{"mov r0, 0\n not r0\n hlt\n", 0xffff, "not"},
        AluCase{"mov r0, 5\n neg r0\n hlt\n", 0xfffb, "neg"},
        AluCase{"mov r0, 3\n mov r1, 3\n cmp r0, r1\n cset r0, eq\n hlt\n", 1, "cset_eq"},
        AluCase{"mov r0, 2\n cmp r0, 3\n cset r0, lt\n hlt\n", 1, "cset_lt"},
        AluCase{"mov r0, 0xfff0\n cmp r0, 3\n cset r0, lt\n hlt\n", 1, "cset_lt_signed"},
        AluCase{"mov r0, 0xfff0\n cmp r0, 3\n cset r0, b\n hlt\n", 0, "cset_b_unsigned"},
        AluCase{"mov r0, 2\n cmp r0, 3\n cset r0, a\n hlt\n", 0, "cset_a"},
        AluCase{"mov r0, 9\n cmp r0, 3\n cset r0, ae\n hlt\n", 1, "cset_ae"}),
    [](const auto& param_info) { return param_info.param.name; });

TEST(CpuAlu, DivisionByZeroFaults) {
  auto r = RunAsm("mov r0, 1\n mov r1, 0\n udiv r0, r1\n hlt\n");
  EXPECT_EQ(r.exit.kind, vhw::ExitKind::kFault);
  EXPECT_NE(r.exit.fault.find("division by zero"), std::string::npos);
}

TEST(CpuMemory, LoadStoreWidths) {
  auto r = RunAsm(R"(
  mov r1, 0x1000
  mov r0, 0x1234
  st16 [r1+0], r0
  ld8 r2, [r1+0]
  ld8 r3, [r1+1]
  hlt
)");
  ASSERT_EQ(r.exit.kind, vhw::ExitKind::kHlt) << r.exit.fault;
  EXPECT_EQ(r.cpu->reg(2), 0x34u);  // little-endian low byte
  EXPECT_EQ(r.cpu->reg(3), 0x12u);
}

TEST(CpuMemory, SignExtendingLoads) {
  auto r = RunAsm(R"(
  mov r1, 0x1000
  mov r0, 0x80
  st8 [r1+0], r0
  ld8s r2, [r1+0]
  ld8 r3, [r1+0]
  hlt
)");
  ASSERT_EQ(r.exit.kind, vhw::ExitKind::kHlt) << r.exit.fault;
  EXPECT_EQ(r.cpu->reg(2), 0xff80u);  // sign-extended, masked to 16 bits
  EXPECT_EQ(r.cpu->reg(3), 0x80u);
}

TEST(CpuMemory, StoresMarkPagesDirty) {
  auto r = RunAsm("mov r1, 0x4000\n mov r0, 1\n st8 [r1+0], r0\n hlt\n");
  ASSERT_EQ(r.exit.kind, vhw::ExitKind::kHlt);
  EXPECT_TRUE(r.mem->PageDirty(0x4000 >> 12));
  EXPECT_FALSE(r.mem->PageDirty(0x5000 >> 12));
}

TEST(CpuStack, PushPopCallRet) {
  auto r = RunAsm(R"(
  mov r0, 111
  push r0
  mov r0, 0
  call fn
  pop r2
  hlt
fn:
  mov r0, 42
  ret
)");
  ASSERT_EQ(r.exit.kind, vhw::ExitKind::kHlt) << r.exit.fault;
  EXPECT_EQ(r.cpu->reg(0), 42u);
  EXPECT_EQ(r.cpu->reg(2), 111u);
  EXPECT_EQ(r.cpu->reg(visa::kSp), 0x7000u);  // balanced
}

TEST(CpuStack, IndirectCall) {
  auto r = RunAsm(R"(
  mov r3, fn
  call r3
  hlt
fn:
  mov r0, 77
  ret
)");
  ASSERT_EQ(r.exit.kind, vhw::ExitKind::kHlt) << r.exit.fault;
  EXPECT_EQ(r.cpu->reg(0), 77u);
}

TEST(CpuControl, ConditionalBranchLoop) {
  auto r = RunAsm(R"(
  mov r0, 0
loop:
  add r0, 1
  cmp r0, 10
  jl loop
  hlt
)");
  ASSERT_EQ(r.exit.kind, vhw::ExitKind::kHlt);
  EXPECT_EQ(r.cpu->reg(0), 10u);
}

TEST(CpuControl, InsnLimitStopsRunaway) {
  auto r = RunAsm("loop:\n  jmp loop\n", /*max_insns=*/100);
  EXPECT_EQ(r.exit.kind, vhw::ExitKind::kInsnLimit);
}

TEST(CpuIo, OutExitsWithPortAndResumes) {
  auto image = visa::Assemble("start:\n  mov r0, 5\n  out 0x21, r0\n  add r0, 1\n  hlt\n");
  ASSERT_TRUE(image.ok());
  vhw::GuestMemory mem(1 << 20);
  ASSERT_TRUE(mem.Write(image->load_addr, image->bytes.data(), image->bytes.size()).ok());
  vhw::Cpu cpu(&mem, vhw::CostModel{});
  cpu.Reset(image->entry);
  cpu.set_reg(visa::kSp, 0x7000);
  vhw::Exit e = cpu.Run();
  ASSERT_EQ(e.kind, vhw::ExitKind::kIo);
  EXPECT_EQ(e.port, 0x21);
  EXPECT_FALSE(e.is_in);
  EXPECT_EQ(e.io_reg, 0);
  EXPECT_EQ(cpu.reg(0), 5u);
  cpu.set_reg(0, 100);  // host writes the hypercall result
  e = cpu.Run();
  ASSERT_EQ(e.kind, vhw::ExitKind::kHlt);
  EXPECT_EQ(cpu.reg(0), 101u);
  EXPECT_EQ(cpu.io_exits(), 1u);
}

TEST(CpuIo, InWritesDestinationRegister) {
  auto image = visa::Assemble("start:\n  in r4, 0x33\n  hlt\n");
  ASSERT_TRUE(image.ok());
  vhw::GuestMemory mem(1 << 20);
  ASSERT_TRUE(mem.Write(image->load_addr, image->bytes.data(), image->bytes.size()).ok());
  vhw::Cpu cpu(&mem, vhw::CostModel{});
  cpu.Reset(image->entry);
  vhw::Exit e = cpu.Run();
  ASSERT_EQ(e.kind, vhw::ExitKind::kIo);
  EXPECT_TRUE(e.is_in);
  EXPECT_EQ(e.io_reg, 4);
  cpu.set_reg(e.io_reg, 0xbeef);
  e = cpu.Run();
  ASSERT_EQ(e.kind, vhw::ExitKind::kHlt);
  EXPECT_EQ(cpu.reg(4), 0xbeefu);
}

// --- Mode transition legality ------------------------------------------------

TEST(CpuModes, PeWithoutGdtFaults) {
  auto r = RunAsm("mov r1, 1\n  wrcr 0, r1\n  hlt\n");
  EXPECT_EQ(r.exit.kind, vhw::ExitKind::kFault);
  EXPECT_NE(r.exit.fault.find("GDT"), std::string::npos);
}

TEST(CpuModes, LjmpProt32RequiresPe) {
  auto r = RunAsm("ljmp prot32, start\n  hlt\n");
  EXPECT_EQ(r.exit.kind, vhw::ExitKind::kFault);
}

TEST(CpuModes, LongJumpWithoutLmaFaults) {
  auto r = RunAsm(R"(
  mov r0, gdt_desc
  lgdt r0
  mov r1, 1
  wrcr 0, r1
  ljmp prot32, pm
gdt_desc:
  .word 23
  .quad 0
pm:
  ljmp long64, pm
)");
  EXPECT_EQ(r.exit.kind, vhw::ExitKind::kFault);
  EXPECT_NE(r.exit.fault.find("LMA"), std::string::npos);
}

TEST(CpuModes, PgWithoutPaeFaults) {
  auto r = RunAsm(R"(
  mov r0, gdt_desc
  lgdt r0
  mov r1, 1
  wrcr 0, r1
  ljmp prot32, pm
gdt_desc:
  .word 23
  .quad 0
pm:
  mov r1, 0x100
  wrcr 8, r1
  mov r1, 0x80000001
  wrcr 0, r1
  hlt
)");
  EXPECT_EQ(r.exit.kind, vhw::ExitKind::kFault);
  EXPECT_NE(r.exit.fault.find("PAE"), std::string::npos);
}

TEST(CpuModes, LmeWhilePagingFaults) {
  // Setting EFER.LME after paging is on must fault (x86 rule).
  auto r = RunAsm(R"(
  mov r1, 0x100
  wrcr 8, r1
  hlt
)");
  // LME alone in real mode is fine; this only checks the write path works.
  ASSERT_EQ(r.exit.kind, vhw::ExitKind::kHlt) << r.exit.fault;
  EXPECT_EQ(r.cpu->state().efer & visa::kEferLme, visa::kEferLme);
}

TEST(CpuPaging, UnmappedAddressFaultsInLongMode) {
  // Boot to long mode with only PDE[0] mapped (2 MB), then touch 4 MB.
  auto r = RunAsm(R"(
  mov r0, gdt_desc
  lgdt r0
  mov r1, 1
  wrcr 0, r1
  ljmp prot32, pm
gdt_desc:
  .word 23
  .quad 0
pm:
  mov r2, 0x1000
  mov r3, 0x2003
  st64 [r2+0], r3
  mov r2, 0x2000
  mov r3, 0x3003
  st64 [r2+0], r3
  mov r2, 0x3000
  mov r3, 0x83
  st64 [r2+0], r3
  mov r1, 0x20
  wrcr 4, r1
  mov r1, 0x100
  wrcr 8, r1
  mov r1, 0x1000
  wrcr 3, r1
  mov r1, 0x80000001
  wrcr 0, r1
  ljmp long64, lm
lm:
  mov r1, 0x400000
  ldw r0, [r1+0]
  hlt
)");
  EXPECT_EQ(r.exit.kind, vhw::ExitKind::kFault);
  EXPECT_NE(r.exit.fault.find("not present"), std::string::npos);
}

TEST(CpuAccounting, CyclesIncreaseMonotonically) {
  auto r = RunAsm("mov r0, 1\n  add r0, 2\n  hlt\n");
  ASSERT_EQ(r.exit.kind, vhw::ExitKind::kHlt);
  EXPECT_GT(r.cpu->cycles(), 0u);
  EXPECT_EQ(r.cpu->insns_retired(), 3u);
}

TEST(CpuAccounting, MilestonesIncludeFirstInsnAndHlt) {
  auto r = RunAsm("hlt\n");
  ASSERT_EQ(r.exit.kind, vhw::ExitKind::kHlt);
  ASSERT_GE(r.cpu->milestones().size(), 2u);
  EXPECT_EQ(r.cpu->milestones().front().event, vhw::BootEvent::kFirstInsn);
  EXPECT_EQ(r.cpu->milestones().back().event, vhw::BootEvent::kHlt);
}

TEST(CpuAccounting, RdtscReflectsCycleCounter) {
  auto r = RunAsm("rdtsc r0\n  rdtsc r1\n  hlt\n");
  ASSERT_EQ(r.exit.kind, vhw::ExitKind::kHlt);
  EXPECT_GT(r.cpu->reg(1), r.cpu->reg(0));
}

TEST(CpuMemoryBounds, PhysicalOutOfBoundsFaults) {
  auto r = RunAsm("mov r1, 0xfff0\n  shl r1, 4\n  hlt\n");
  // Real mode masks to 16 bits, so build an OOB access differently: a store
  // beyond guest memory is impossible at 16-bit width with 1 MB memory;
  // instead check the fetch path via a jump into unmapped high memory.
  ASSERT_EQ(r.exit.kind, vhw::ExitKind::kHlt);
  // Direct API-level check:
  vhw::GuestMemory mem(1 << 16);  // 64 KB
  vhw::Cpu cpu(&mem, vhw::CostModel{});
  cpu.Reset(0x8000);
  auto pa = cpu.Translate(0xffff);
  EXPECT_TRUE(pa.ok());
  // In real mode addresses are masked to 16 bits, so 0xffff is the max.
  EXPECT_EQ(*pa, 0xffffu);
}

TEST(GuestMemory, DirtyTrackingAndCleaning) {
  vhw::GuestMemory mem(1 << 20);
  uint8_t data[100];
  memset(data, 0xab, sizeof(data));
  ASSERT_TRUE(mem.Write(0x3000, data, sizeof(data)).ok());
  EXPECT_EQ(mem.CountDirtyPages(), 1u);
  EXPECT_EQ(mem.ZeroDirtyPages(), vhw::kPageSize);
  EXPECT_EQ(mem.CountDirtyPages(), 0u);
  uint8_t check = 1;
  ASSERT_TRUE(mem.Read(0x3000, &check, 1).ok());
  EXPECT_EQ(check, 0u);
}

TEST(GuestMemory, WriteSpanningPagesDirtiesAll) {
  vhw::GuestMemory mem(1 << 20);
  std::vector<uint8_t> data(vhw::kPageSize * 2 + 10, 1);
  ASSERT_TRUE(mem.Write(vhw::kPageSize - 5, data.data(), data.size()).ok());
  EXPECT_EQ(mem.CountDirtyPages(), 4u);  // partial, 2 full, partial
}

TEST(GuestMemory, BoundsChecked) {
  vhw::GuestMemory mem(1 << 16);
  uint8_t b = 0;
  EXPECT_FALSE(mem.Read((1 << 16) - 1, &b, 2).ok());
  EXPECT_FALSE(mem.Write(1 << 16, &b, 1).ok());
  EXPECT_TRUE(mem.Read((1 << 16) - 1, &b, 1).ok());
}

// --- Cycle-exactness goldens ---------------------------------------------
//
// The interpreter's host-side speed is free to change; what it models is not.
// Each case below renders every modeled statistic (cycles, instructions
// retired, I/O exits, boot milestones, fault strings) into one line and
// compares it with the value the plain byte-wise interpreter produced.  Any
// fast path that skips a TLB walk, an EPT first-touch or a memory charge the
// slow path would have taken changes a line here.

std::string ExitName(vhw::ExitKind kind) {
  switch (kind) {
    case vhw::ExitKind::kHlt: return "hlt";
    case vhw::ExitKind::kIo: return "io";
    case vhw::ExitKind::kBrk: return "brk";
    case vhw::ExitKind::kFault: return "fault";
    case vhw::ExitKind::kInsnLimit: return "limit";
  }
  return "?";
}

std::string CpuPrint(const vhw::Cpu& cpu, const vhw::Exit& exit) {
  std::string out = ExitName(exit.kind) + " cycles=" + std::to_string(cpu.cycles()) +
                    " insns=" + std::to_string(cpu.insns_retired()) +
                    " io=" + std::to_string(cpu.io_exits());
  for (const vhw::BootMilestone& m : cpu.milestones()) {
    out += std::string(" ") + vhw::BootEventName(m.event) + "@" + std::to_string(m.cycles);
  }
  if (exit.kind == vhw::ExitKind::kFault) {
    out += " fault=" + exit.fault;
  }
  return out;
}

std::string StatsPrint(const wasp::InvokeStats& s) {
  return "total=" + std::to_string(s.total_cycles) + " guest=" + std::to_string(s.guest_cycles) +
         " host=" + std::to_string(s.host_cycles) + " insns=" + std::to_string(s.insns) +
         " io=" + std::to_string(s.io_exits);
}

// Long mode over 4 KB pages: PML4 (0x1000) -> PDPT (0x2000) -> PD (0x3000)
// -> PT (0x4000) identity-maps the first 2 MB of a 4 MB guest, so single
// pages can be unmapped or aliased into the second 2 MB EPT region.
struct LongModeMachine {
  vhw::GuestMemory mem{4 << 20};
  vhw::Cpu cpu{&mem, vhw::CostModel{}};

  LongModeMachine() {
    Put64(0x1000, 0x2003);
    Put64(0x2000, 0x3003);
    Put64(0x3000, 0x4003);
    for (uint64_t page = 0; page < 512; ++page) {
      Put64(0x4000 + page * 8, (page << 12) | 3);
    }
  }
  void Put64(uint64_t pa, uint64_t v) { ASSERT_TRUE(mem.Write(pa, &v, 8).ok()); }
  void Unmap(uint64_t va) { Put64(0x4000 + (va >> 12) * 8, 0); }
  void Alias(uint64_t va, uint64_t pa) { Put64(0x4000 + (va >> 12) * 8, pa | 3); }
  // Assembles `source` (which must start with `.org`) into memory.
  void Load(const std::string& source) {
    auto image = visa::Assemble(source);
    ASSERT_TRUE(image.ok()) << image.status().ToString();
    ASSERT_TRUE(mem.Write(image->load_addr, image->bytes.data(), image->bytes.size()).ok());
  }
  void Poke(uint64_t pa, uint8_t byte) { ASSERT_TRUE(mem.Write(pa, &byte, 1).ok()); }
  // Starts at `entry` with an empty EPT (host writes prefault it), so the
  // first fetch and the first access to the second region are charged.
  std::string Run(uint64_t entry) {
    mem.ResetEpt();
    cpu.Reset(entry);
    vhw::ArchState& s = cpu.state();
    s.mode = visa::Mode::kLong64;
    s.cr0 = visa::kCr0Pe | visa::kCr0Pg;
    s.cr4 = visa::kCr4Pae;
    s.efer = visa::kEferLme | visa::kEferLma;
    s.cr3 = 0x1000;
    s.gdt_loaded = true;
    cpu.set_reg(visa::kSp, 0x7000);
    return CpuPrint(cpu, cpu.Run(100000));
  }
};

TEST(CycleGolden, BootStubToHlt) {
  // Table 1's workload: the long-mode boot stub running fib(1) to hlt.
  auto image = vrt::BuildImage(vrt::Env::kLong64, vrt::FibSource());
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  auto vm = vkvm::Vm::Create(vkvm::VmConfig{});
  ASSERT_TRUE(vm->LoadBlob(image->load_addr, image->bytes.data(), image->bytes.size()).ok());
  uint64_t boot_info[2] = {vm->memory().size(), 0};
  ASSERT_TRUE(vm->memory().Write(wasp::kBootInfoAddr, boot_info, sizeof(boot_info)).ok());
  uint64_t args[3] = {0, 1, 1};
  ASSERT_TRUE(vm->memory().Write(wasp::kArgPageAddr, args, sizeof(args)).ok());
  vm->ResetVcpu(image->entry);
  vm->cpu().set_reg(visa::kSp, wasp::kRealModeStackTop);
  auto run = vm->Run();
  ASSERT_EQ(run.reason, vkvm::ExitReason::kHlt) << run.fault;
  vhw::Exit exit;
  exit.kind = vhw::ExitKind::kHlt;
  EXPECT_EQ(CpuPrint(vm->cpu(), exit) + " host=" + std::to_string(vm->host_cycles()),
            "hlt cycles=37800 insns=3138 io=0 first_insn@74 lgdt_32bit_gdt@4200 "
            "protected_transition@7419 jump_to_32bit@7595 long_transition_lgdt@8284 "
            "efer_lme@13422 paging_identity_map@36430 jump_to_64bit@36621 hlt@37800 "
            "host=254300");
}

TEST(CycleGolden, WarmSnapshotFib15) {
  auto image = vrt::BuildImage(vrt::Env::kLong64, vrt::FibSource());
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image.value();
  spec.key = "golden-fib";
  spec.use_snapshot = true;
  wasp::VirtineFunc<int64_t(int64_t)> fib(&runtime, spec);
  auto cold = fib.Call(15);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  const std::string cold_print = StatsPrint(fib.last_outcome().stats);
  auto warm = fib.Call(15);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(*warm, 610);
  EXPECT_TRUE(fib.last_outcome().stats.restored_snapshot);
  EXPECT_EQ(cold_print, "total=389718 guest=122681 host=267037 insns=28776 io=1");
  EXPECT_EQ(StatsPrint(fib.last_outcome().stats),
            "total=87633 guest=80044 host=7589 insns=25670 io=0");
}

TEST(CycleGolden, KeepAliveHandlerServesThreeRequests) {
  wasp::Runtime runtime;
  wasp::HostEnv files;
  std::string page(512, ' ');
  for (size_t i = 0; i < page.size(); ++i) {
    page[i] = static_cast<char>('a' + i % 26);
  }
  files.PutFile("/index.html", page);
  vnet::StaticHttpServer server(&runtime, &files);
  wasp::VirtineSpec spec;
  spec.image = &server.keepalive_image();
  spec.key = "golden-keepalive";
  spec.policy = wasp::kPolicyStream | wasp::kPolicyFileIo | wasp::MaskOf(wasp::kHcSnapshot) |
                wasp::MaskOf(wasp::kHcReturnData);
  spec.use_snapshot = true;
  spec.env = &files;
  std::vector<std::string> prints;
  for (int round = 0; round < 2; ++round) {  // cold capture, then warm restore
    wasp::ByteChannel channel;
    channel.host().WriteString("GET /index.html HTTP/1.1\r\nHost: golden\r\n\r\n");
    channel.host().WriteString("GET /missing HTTP/1.1\r\nHost: golden\r\n\r\n");
    channel.host().WriteString("GET /index.html HTTP/1.1\r\nHost: golden\r\n\r\n");
    channel.host().CloseWrite();
    spec.channel = &channel.guest();
    wasp::RunOutcome outcome = runtime.Invoke(spec);
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    const std::vector<uint8_t> reply = channel.host().Drain();
    prints.push_back(StatsPrint(outcome.stats) + " reply=" + std::to_string(reply.size()));
  }
  EXPECT_EQ(prints[0], "total=493006 guest=158104 host=334902 insns=13713 io=16 reply=1149");
  EXPECT_EQ(prints[1], "total=184901 guest=115467 host=69434 insns=10607 io=15 reply=1149");
}

TEST(CycleGolden, RealModeInsnStraddlesPage) {
  auto image = visa::Assemble(
      ".org 0x8ff8\nstart:\n  mov r1, 5\n  add r1, 7\n  mov r0, 0x1234\n  hlt\n");
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  vhw::GuestMemory mem(1 << 20);
  ASSERT_TRUE(mem.Write(image->load_addr, image->bytes.data(), image->bytes.size()).ok());
  mem.ResetEpt();
  vhw::Cpu cpu(&mem, vhw::CostModel{});
  cpu.Reset(image->entry);
  const std::string print = CpuPrint(cpu, cpu.Run(1000));
  EXPECT_EQ(cpu.reg(0), 0x1234u);
  EXPECT_EQ(cpu.reg(1), 12u);
  EXPECT_EQ(print, "hlt cycles=2878 insns=4 io=0 first_insn@74 hlt@2878");
}

TEST(CycleGolden, LongModeInsnStraddlesPage) {
  LongModeMachine m;
  // The last 16 bytes of a code page: a 6-byte add whose 10-byte fetch
  // window still fits, then three instructions that fit in the page but
  // whose window does not, then a mov starting exactly on the next page.
  m.Load(R"(.org 0x10ff0
start:
  add r1, 5
  mov r3, r1
  add r1, 7
  add r1, r3
  mov r0, 0x1122334455667788
  hlt
)");
  // Two nops, then an add-immediate straddling into a page that is mapped
  // elsewhere: its tail must be fetched through the new page's mapping, not
  // read on from the physically next bytes (filled with invalid opcodes).
  m.Load(".org 0x11ffa\nstart:\n  nop\n  nop\n  add r2, 0x99\n  mov r4, 7\n  hlt\n");
  m.Alias(0x12000, 0x30000);
  uint8_t tail[16];
  ASSERT_TRUE(m.mem.Read(0x12000, tail, sizeof(tail)).ok());
  ASSERT_TRUE(m.mem.Write(0x30000, tail, sizeof(tail)).ok());
  const std::vector<uint8_t> junk(sizeof(tail), 0xff);
  ASSERT_TRUE(m.mem.Write(0x12000, junk.data(), junk.size()).ok());
  const std::string print = m.Run(0x10ff0);
  EXPECT_EQ(m.cpu.reg(0), 0x1122334455667788u);
  EXPECT_EQ(m.cpu.reg(1), 17u);
  EXPECT_EQ(print, "hlt cycles=2928 insns=6 io=0 first_insn@74 hlt@2928");
  const std::string straddle = m.Run(0x11ffa);
  EXPECT_EQ(m.cpu.reg(2), 0x99u);
  EXPECT_EQ(m.cpu.reg(4), 7u);
  EXPECT_EQ(straddle, "hlt cycles=2927 insns=5 io=0 first_insn@74 hlt@2927");
}

TEST(CycleGolden, LoadsAndStoresStraddlePages) {
  LongModeMachine m;
  m.Load(R"(.org 0x10000
start:
  mov r1, 0x12ffc
  mov r2, 0x0102030405060708
  st64 [r1+0], r2
  ld64 r3, [r1+0]
  ld32 r4, [r1+2]
  st16 [r1+3], r2
  ld16s r5, [r1+3]
  push r2
  pop r6
  hlt
)");
  const std::string print = m.Run(0x10000);
  EXPECT_EQ(m.cpu.reg(3), 0x0102030405060708u);
  EXPECT_EQ(m.cpu.reg(4), 0x03040506u);
  EXPECT_EQ(m.cpu.reg(6), 0x0102030405060708u);
  EXPECT_EQ(print, "hlt cycles=3001 insns=10 io=0 first_insn@74 hlt@3001");
}

TEST(CycleGolden, StraddlingStoreIntoUnmappedPageFaultsMidway) {
  LongModeMachine m;
  m.Unmap(0x15000);
  m.Load(".org 0x10000\nstart:\n  mov r1, 0x14ffc\n  mov r2, -1\n  st64 [r1+0], r2\n  hlt\n");
  const std::string print = m.Run(0x10000);
  uint8_t written[4] = {};
  ASSERT_TRUE(m.mem.Read(0x14ffc, written, 4).ok());
  EXPECT_EQ(written[3], 0xffu);  // the bytes before the unmapped page landed
  EXPECT_EQ(print, "fault cycles=1925 insns=3 io=0 first_insn@74 fault=PTE not present");
}

TEST(CycleGolden, DataAccessEvictsCodePageTlbSlot) {
  LongModeMachine m;
  // va 0x110000 shares TLB slot 0x10 with the code page 0x10000, and is
  // aliased into the second EPT region so its first touch is charged too.
  m.Alias(0x110000, 0x250000);
  m.Put64(0x250000, 0xabcdef);
  m.Load(R"(.org 0x10000
start:
  mov r1, 0x110000
  ld64 r0, [r1+0]
  mov r3, 0x11000
  call r3
  ld64 r4, [r1+0]
  add r4, r2
  hlt
)");
  m.Load(".org 0x11000\nstart:\n  ld64 r2, [r1+8]\n  st64 [r1+16], r0\n  ret\n");
  const std::string print = m.Run(0x10000);
  EXPECT_EQ(m.cpu.reg(0), 0xabcdefu);
  EXPECT_EQ(print, "hlt cycles=4850 insns=10 io=0 first_insn@74 hlt@4850");
}

TEST(CycleGolden, InvalidOpcodeInLastByteOfPage) {
  LongModeMachine m;
  m.Unmap(0x14000);
  // Enter through a nop on the same page, so the last byte is fetched as a
  // same-page continuation.
  m.Load(".org 0x10000\nstart:\n  mov r3, 0x13ffe\n  call r3\n  hlt\n");
  m.Poke(0x13ffe, static_cast<uint8_t>(visa::Op::kNop));
  m.Poke(0x13fff, 0xff);
  EXPECT_EQ(m.Run(0x10000),
            "fault cycles=1954 insns=3 io=0 first_insn@74 fault=invalid opcode 255 at rip 81919");
  // A valid opcode there instead fetches its operands from the unmapped page.
  m.Poke(0x13fff, static_cast<uint8_t>(visa::Op::kAddRi));
  EXPECT_EQ(m.Run(0x10000), "fault cycles=1954 insns=3 io=0 first_insn@74 fault=PTE not present");
}

TEST(CycleGolden, DataAccessFirstTouchesRegionThroughTlbHit) {
  LongModeMachine m;
  // A straddling load fills the TLB for both pages but charges the EPT only
  // for its first byte's region; the next load from the second page hits
  // the TLB and is the first access to the second region.
  m.Alias(0x15000, 0x1ff000);
  m.Alias(0x16000, 0x200000);
  m.Load(R"(.org 0x10000
start:
  mov r1, 0x15ffc
  ld64 r2, [r1+0]
  ld64 r3, [r1+8]
  st8 [r1+9], r2
  hlt
)");
  EXPECT_EQ(m.Run(0x10000), "hlt cycles=4760 insns=5 io=0 first_insn@74 hlt@4760");
}

TEST(CycleGolden, FetchFromUnmappedPage) {
  LongModeMachine m;
  m.Unmap(0x15000);
  m.Load(".org 0x10000\nstart:\n  mov r3, 0x15000\n  call r3\n  hlt\n");
  EXPECT_EQ(m.Run(0x10000), "fault cycles=1929 insns=2 io=0 first_insn@74 fault=PTE not present");
}

}  // namespace
