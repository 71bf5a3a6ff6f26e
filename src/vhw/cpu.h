// The virtual CPU: a VBC interpreter implementing the x86 bring-up state
// machine (real -> protected -> long mode), control registers, GDT checks,
// a 4-level page-table walker with a software TLB, port-I/O exits, and
// modeled cycle accounting.
//
// The CPU starts in 16-bit real mode.  A guest reaches long mode the same
// way the paper's boot stub does:
//
//   lgdt  r0              ; load GDT descriptor (limit u16, base u64)
//   wrcr  0, rP           ; set CR0.PE            -> protected transition
//   ljmp  prot32, entry32 ; far jump to 32-bit code
//   ...write PML4/PDPT/PD into guest memory (identity map, 2 MB pages)...
//   wrcr  4, rA           ; set CR4.PAE
//   wrcr  8, rL           ; set EFER.LME
//   wrcr  3, rC           ; load CR3
//   wrcr  0, rG           ; set CR0.PG            -> EFER.LMA becomes 1
//   ljmp  long64, entry64 ; far jump to 64-bit code
//
// Boot milestones are recorded with their cycle timestamps so the Table 1
// breakdown can be computed from actually executed transitions.
#ifndef SRC_VHW_CPU_H_
#define SRC_VHW_CPU_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/isa/isa.h"
#include "src/vhw/cost_model.h"
#include "src/vhw/mem.h"

namespace vhw {

// Why Run() returned.
enum class ExitKind : uint8_t {
  kHlt,        // guest executed hlt
  kIo,         // port I/O (hypercall): see port/is_in/io_reg
  kBrk,        // debug break
  kFault,      // architectural fault (invalid op, bad mapping, ...)
  kInsnLimit,  // max_insns reached (watchdog)
};

struct Exit {
  ExitKind kind = ExitKind::kFault;
  uint16_t port = 0;    // kIo
  bool is_in = false;   // kIo: true for `in reg, port`
  uint8_t io_reg = 0;   // kIo: register operand
  std::string fault;    // kFault: description
};

// Architectural register state (snapshottable as a POD copy).
struct ArchState {
  uint64_t regs[visa::kNumRegs] = {};
  uint64_t rip = 0;
  visa::Mode mode = visa::Mode::kReal16;
  bool zf = false, sf = false, cf = false, of = false;
  uint64_t cr0 = 0, cr3 = 0, cr4 = 0, efer = 0;
  uint64_t gdtr_base = 0;
  uint16_t gdtr_limit = 0;
  bool gdt_loaded = false;
};

// Named boot milestones (Table 1 components).
enum class BootEvent : uint8_t {
  kFirstInsn,
  kLgdtReal,   // 32-bit GDT load from real mode
  kCr0PeSet,   // protected transition
  kJump32,
  kLgdtProt,   // long-transition GDT load from protected mode
  kEferLmeSet,
  kCr0PgSet,   // paging enabled: identity map installed + EPT built
  kJump64,
  kHlt,
};

const char* BootEventName(BootEvent event);

struct BootMilestone {
  BootEvent event;
  uint64_t cycles;  // CPU cycle counter right after the event's charge
};

class Cpu {
 public:
  Cpu(GuestMemory* mem, const CostModel& cost);

  // Resets to real mode at `entry` with zeroed registers and empty TLB.
  // Does not touch guest memory.
  void Reset(uint64_t entry);

  // Restores a previously captured architectural state (snapshot resume):
  // execution continues at the saved rip in the saved mode, with no
  // first-instruction charge (the vmrun entry cost is charged by the VMM).
  void RestoreArch(const ArchState& s) {
    st_ = s;
    FlushTlb();
    first_insn_pending_ = false;
    pending_entry_charge_ = false;
    fault_.clear();
    injected_fault_.clear();
    // A restore begins a fresh invocation; snapshot-affine shells skip the
    // pool's vCPU Reset, so the retire/exit/milestone counters restart here.
    insns_ = 0;
    io_exits_ = 0;
    milestones_.clear();
  }

  // Runs until an exit condition; resumable.  On an I/O exit rip already
  // points past the `in`/`out` instruction, and for `in` the host is
  // expected to write the result register before the next Run().
  Exit Run(uint64_t max_insns = UINT64_MAX >> 1);

  ArchState& state() { return st_; }
  const ArchState& state() const { return st_; }
  uint64_t reg(int r) const { return st_.regs[r]; }
  void set_reg(int r, uint64_t v) { st_.regs[r] = v; }

  uint64_t cycles() const { return cycles_; }
  void set_cycles(uint64_t c) { cycles_ = c; }
  void AddCycles(uint64_t c) { cycles_ += c; }
  uint64_t insns_retired() const { return insns_; }
  uint64_t io_exits() const { return io_exits_; }

  const std::vector<BootMilestone>& milestones() const { return milestones_; }
  void ClearMilestones() { milestones_.clear(); }

  // Flushes the software TLB (the VMM calls this after mutating guest page
  // tables or restoring a snapshot).
  void FlushTlb();

  // Fault injection (chaos testing): arms a synthetic architectural fault
  // that the next Run() delivers before retiring any instruction, exactly as
  // if the guest had trapped.  Cleared by Reset()/RestoreArch(), so an armed
  // fault never leaks into a later invocation of a recycled shell.
  void InjectFault(std::string reason) { injected_fault_ = std::move(reason); }

  // Translates a guest-virtual address under the current mode (no side
  // effects other than TLB fill / EPT touch accounting).  Used by the
  // hypervisor to validate guest pointers in hypercall handlers.
  vbase::Result<uint64_t> Translate(uint64_t va);

 private:
  struct TlbEntry {
    uint64_t vpn = ~0ULL;  // va >> 12
    uint64_t page = 0;     // pa of 4 KB frame
  };
  static constexpr int kTlbEntries = 256;

  // Translation with fault reporting into `fault_`; returns false on fault.
  bool TranslateInternal(uint64_t va, uint64_t* pa);
  bool Walk(uint64_t va, uint64_t* pa);

  // Memory helpers; return false and set fault_ on error.  These are the
  // reference implementations; Run() serves the common case (a TLB hit on
  // an access inside one page) inline and falls back to them for the rest.
  bool LoadVa(uint64_t va, int bytes, bool sign, uint64_t* out);
  bool StoreVa(uint64_t va, int bytes, uint64_t value);

  void ChargeMem(uint64_t pa) {
    cycles_ += cost_.mem_access;
    if (mem_->TouchRegion(pa)) {
      cycles_ += cost_.ept_first_touch;
    }
  }

  // Per-mode operand width, indexed by visa::Mode.
  static constexpr uint64_t kWidthMask[] = {0xFFFFULL, 0xFFFFFFFFULL, ~0ULL};
  static constexpr int kWordBytes[] = {2, 4, 8};
  uint64_t WidthMask() const { return kWidthMask[static_cast<int>(st_.mode)]; }
  int WordSize() const { return kWordBytes[static_cast<int>(st_.mode)]; }

  // Flag updates at the operand width given by `mask` (a WidthMask()).
  void SetFlagsLogic(uint64_t result, uint64_t mask);
  void SetFlagsAddSub(uint64_t a, uint64_t b, uint64_t result, bool is_sub, uint64_t mask);
  bool EvalCond(visa::Cond cc) const;

  void LogEvent(BootEvent event) { milestones_.push_back({event, cycles_}); }

  // System instruction implementations (return false -> fault_ set).
  bool DoLgdt(uint64_t va);
  bool DoWrcr(uint8_t cr, uint64_t value);
  bool DoLjmp(visa::Mode target);

  GuestMemory* mem_;
  CostModel cost_;
  ArchState st_;
  TlbEntry tlb_[kTlbEntries];
  uint64_t cycles_ = 0;
  uint64_t insns_ = 0;
  uint64_t io_exits_ = 0;
  bool first_insn_pending_ = true;
  bool pending_entry_charge_ = false;
  std::string fault_;
  std::string injected_fault_;  // armed by InjectFault, delivered at Run()
  std::vector<BootMilestone> milestones_;
};

}  // namespace vhw

#endif  // SRC_VHW_CPU_H_
