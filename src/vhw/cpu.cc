#include "src/vhw/cpu.h"

#include <array>
#include <cstring>

namespace vhw {

using visa::Cond;
using visa::Mode;
using visa::Op;

namespace {

// Widest VBC encoding (mov reg, imm64): the fetch fast path copies this many
// bytes whenever they all lie inside the last-fetched code page.
constexpr int kMaxInsnBytes = 10;

// Encoded size per opcode byte, 0 for bytes that are not opcodes.
const std::array<uint8_t, 256> kInsnBytes = [] {
  std::array<uint8_t, 256> sizes{};
  for (int op = 0; op < static_cast<int>(Op::kOpCount); ++op) {
    sizes[op] = static_cast<uint8_t>(visa::InsnSize(static_cast<Op>(op)));
  }
  return sizes;
}();

}  // namespace

const char* BootEventName(BootEvent event) {
  switch (event) {
    case BootEvent::kFirstInsn:
      return "first_insn";
    case BootEvent::kLgdtReal:
      return "lgdt_32bit_gdt";
    case BootEvent::kCr0PeSet:
      return "protected_transition";
    case BootEvent::kJump32:
      return "jump_to_32bit";
    case BootEvent::kLgdtProt:
      return "long_transition_lgdt";
    case BootEvent::kEferLmeSet:
      return "efer_lme";
    case BootEvent::kCr0PgSet:
      return "paging_identity_map";
    case BootEvent::kJump64:
      return "jump_to_64bit";
    case BootEvent::kHlt:
      return "hlt";
  }
  return "?";
}

Cpu::Cpu(GuestMemory* mem, const CostModel& cost) : mem_(mem), cost_(cost) { FlushTlb(); }

void Cpu::Reset(uint64_t entry) {
  st_ = ArchState{};
  st_.rip = entry;
  cycles_ = 0;
  insns_ = 0;
  io_exits_ = 0;
  first_insn_pending_ = true;
  pending_entry_charge_ = false;
  fault_.clear();
  injected_fault_.clear();
  milestones_.clear();
  FlushTlb();
}

void Cpu::FlushTlb() {
  for (TlbEntry& e : tlb_) {
    e = TlbEntry{};
  }
}

bool Cpu::Walk(uint64_t va, uint64_t* pa) {
  // Software 4-level walk (PML4 -> PDPT -> PD [-> PT]); supports 4 KB pages
  // and 2 MB large pages (PS at the PD level), which is what the paper's
  // identity-map boot stub uses.
  const uint64_t kAddrMask = 0x000FFFFFFFFFF000ULL;
  auto read_entry = [&](uint64_t table, uint64_t idx, uint64_t* out) {
    const uint64_t addr = (table & kAddrMask) + idx * 8;
    if (!mem_->Contains(addr, 8)) {
      fault_ = "page-walk read out of physical bounds";
      return false;
    }
    *out = mem_->LoadRaw<uint64_t>(addr);
    return true;
  };
  uint64_t pml4e;
  if (!read_entry(st_.cr3, (va >> 39) & 511, &pml4e)) {
    return false;
  }
  if ((pml4e & visa::kPtePresent) == 0) {
    fault_ = "PML4E not present";
    return false;
  }
  uint64_t pdpte;
  if (!read_entry(pml4e, (va >> 30) & 511, &pdpte)) {
    return false;
  }
  if ((pdpte & visa::kPtePresent) == 0) {
    fault_ = "PDPTE not present";
    return false;
  }
  if ((pdpte & visa::kPteLarge) != 0) {
    fault_ = "1 GB pages not supported";
    return false;
  }
  uint64_t pde;
  if (!read_entry(pdpte, (va >> 21) & 511, &pde)) {
    return false;
  }
  if ((pde & visa::kPtePresent) == 0) {
    fault_ = "PDE not present";
    return false;
  }
  uint64_t page;  // 4 KB frame containing va
  if ((pde & visa::kPteLarge) != 0) {
    const uint64_t base = pde & kAddrMask & ~(kRegionSize - 1);
    page = base + (((va >> kPageBits) & 511) << kPageBits);
  } else {
    uint64_t pte;
    if (!read_entry(pde, (va >> 12) & 511, &pte)) {
      return false;
    }
    if ((pte & visa::kPtePresent) == 0) {
      fault_ = "PTE not present";
      return false;
    }
    page = pte & kAddrMask;
  }
  cycles_ += cost_.tlb_miss_walk;
  TlbEntry& e = tlb_[(va >> kPageBits) & (kTlbEntries - 1)];
  e.vpn = va >> kPageBits;
  e.page = page;
  *pa = page + (va & (kPageSize - 1));
  return true;
}

bool Cpu::TranslateInternal(uint64_t va, uint64_t* pa) {
  if (st_.mode != Mode::kLong64) {
    // Paging off: physical == virtual (width-masked by the caller's
    // effective-address computation).
    *pa = va;
  } else {
    TlbEntry& e = tlb_[(va >> kPageBits) & (kTlbEntries - 1)];
    if (e.vpn == (va >> kPageBits)) {
      *pa = e.page + (va & (kPageSize - 1));
    } else if (!Walk(va, pa)) {
      return false;
    }
  }
  if (*pa >= mem_->size()) {
    fault_ = "physical address out of bounds";
    return false;
  }
  return true;
}

vbase::Result<uint64_t> Cpu::Translate(uint64_t va) {
  uint64_t pa = 0;
  if (!TranslateInternal(va, &pa)) {
    std::string f = fault_;
    fault_.clear();
    return vbase::OutOfRange("translate(" + std::to_string(va) + "): " + f);
  }
  return pa;
}

bool Cpu::LoadVa(uint64_t va, int bytes, bool sign, uint64_t* out) {
  uint64_t pa = 0;
  if (!TranslateInternal(va, &pa)) {
    return false;
  }
  uint64_t v = 0;
  if ((pa & (kPageSize - 1)) + static_cast<uint64_t>(bytes) <= kPageSize &&
      mem_->Contains(pa, static_cast<uint64_t>(bytes))) {
    switch (bytes) {
      case 1: v = mem_->LoadRaw<uint8_t>(pa); break;
      case 2: v = mem_->LoadRaw<uint16_t>(pa); break;
      case 4: v = mem_->LoadRaw<uint32_t>(pa); break;
      case 8: v = mem_->LoadRaw<uint64_t>(pa); break;
      default: fault_ = "bad load size"; return false;
    }
  } else {
    // Page-crossing access: translate byte by byte.
    for (int i = 0; i < bytes; ++i) {
      uint64_t bpa = 0;
      if (!TranslateInternal(va + static_cast<uint64_t>(i), &bpa)) {
        return false;
      }
      v |= static_cast<uint64_t>(mem_->LoadRaw<uint8_t>(bpa)) << (8 * i);
    }
  }
  if (sign && bytes < 8) {
    const int shift = 64 - 8 * bytes;
    v = static_cast<uint64_t>(static_cast<int64_t>(v << shift) >> shift);
  }
  ChargeMem(pa);
  *out = v;
  return true;
}

bool Cpu::StoreVa(uint64_t va, int bytes, uint64_t value) {
  uint64_t pa = 0;
  if (!TranslateInternal(va, &pa)) {
    return false;
  }
  if ((pa & (kPageSize - 1)) + static_cast<uint64_t>(bytes) <= kPageSize &&
      mem_->Contains(pa, static_cast<uint64_t>(bytes))) {
    switch (bytes) {
      case 1: mem_->StoreRaw<uint8_t>(pa, static_cast<uint8_t>(value)); break;
      case 2: mem_->StoreRaw<uint16_t>(pa, static_cast<uint16_t>(value)); break;
      case 4: mem_->StoreRaw<uint32_t>(pa, static_cast<uint32_t>(value)); break;
      case 8: mem_->StoreRaw<uint64_t>(pa, value); break;
      default: fault_ = "bad store size"; return false;
    }
  } else {
    for (int i = 0; i < bytes; ++i) {
      uint64_t bpa = 0;
      if (!TranslateInternal(va + static_cast<uint64_t>(i), &bpa)) {
        return false;
      }
      mem_->StoreRaw<uint8_t>(bpa, static_cast<uint8_t>(value >> (8 * i)));
    }
  }
  ChargeMem(pa);
  return true;
}

inline void Cpu::SetFlagsLogic(uint64_t result, uint64_t mask) {
  const uint64_t sign = mask ^ (mask >> 1);
  const uint64_t r = result & mask;
  st_.zf = r == 0;
  st_.sf = (r & sign) != 0;
  st_.cf = false;
  st_.of = false;
}

inline void Cpu::SetFlagsAddSub(uint64_t a, uint64_t b, uint64_t result, bool is_sub,
                                 uint64_t mask) {
  const uint64_t sign = mask ^ (mask >> 1);
  const uint64_t am = a & mask;
  const uint64_t bm = b & mask;
  const uint64_t r = result & mask;
  st_.zf = r == 0;
  st_.sf = (r & sign) != 0;
  const bool sa = (am & sign) != 0;
  const bool sb = (bm & sign) != 0;
  const bool sr = (r & sign) != 0;
  if (is_sub) {
    st_.cf = am < bm;
    st_.of = (sa != sb) && (sr != sa);
  } else {
    // Carry for addition: unsigned overflow at the mode width.  am + bm
    // cannot overflow uint64 here unless the width is 64 bits, where
    // wraparound makes the `< am` comparison correct on its own.
    st_.cf = mask == ~0ULL ? r < am : (am + bm) > mask;
    st_.of = (sa == sb) && (sr != sa);
  }
}

inline bool Cpu::EvalCond(Cond cc) const {
  switch (cc) {
    case Cond::kEq:
      return st_.zf;
    case Cond::kNe:
      return !st_.zf;
    case Cond::kLt:
      return st_.sf != st_.of;
    case Cond::kLe:
      return st_.zf || st_.sf != st_.of;
    case Cond::kGt:
      return !st_.zf && st_.sf == st_.of;
    case Cond::kGe:
      return st_.sf == st_.of;
    case Cond::kB:
      return st_.cf;
    case Cond::kBe:
      return st_.cf || st_.zf;
    case Cond::kA:
      return !st_.cf && !st_.zf;
    case Cond::kAe:
      return !st_.cf;
  }
  return false;
}

bool Cpu::DoLgdt(uint64_t va) {
  uint64_t limit = 0;
  uint64_t base = 0;
  if (!LoadVa(va, 2, false, &limit) || !LoadVa(va + 2, 8, false, &base)) {
    return false;
  }
  st_.gdtr_limit = static_cast<uint16_t>(limit);
  st_.gdtr_base = base;
  st_.gdt_loaded = true;
  if (st_.mode == Mode::kReal16) {
    cycles_ += cost_.lgdt_real;
    LogEvent(BootEvent::kLgdtReal);
  } else {
    cycles_ += cost_.lgdt_prot;
    LogEvent(BootEvent::kLgdtProt);
  }
  return true;
}

bool Cpu::DoWrcr(uint8_t cr, uint64_t value) {
  switch (cr) {
    case visa::kCr0: {
      const uint64_t old = st_.cr0;
      const bool pe_rising = (value & visa::kCr0Pe) != 0 && (old & visa::kCr0Pe) == 0;
      const bool pg_rising = (value & visa::kCr0Pg) != 0 && (old & visa::kCr0Pg) == 0;
      const bool pg_falling = (value & visa::kCr0Pg) == 0 && (old & visa::kCr0Pg) != 0;
      if (pe_rising && !st_.gdt_loaded) {
        fault_ = "CR0.PE set without a loaded GDT";
        return false;
      }
      if ((value & visa::kCr0Pg) != 0 && (value & visa::kCr0Pe) == 0) {
        fault_ = "CR0.PG requires CR0.PE";
        return false;
      }
      if (pg_falling && st_.mode == Mode::kLong64) {
        fault_ = "cannot clear CR0.PG in long mode";
        return false;
      }
      if (pg_rising) {
        if ((st_.efer & visa::kEferLme) == 0) {
          fault_ = "only long-mode (PAE+LME) paging is modeled";
          return false;
        }
        if ((st_.cr4 & visa::kCr4Pae) == 0) {
          fault_ = "CR0.PG with EFER.LME requires CR4.PAE";
          return false;
        }
        // Validate the root and price EPT construction for every present
        // mapping (the dominant "paging identity mapping" cost in Table 1).
        const uint64_t kAddrMask = 0x000FFFFFFFFFF000ULL;
        uint64_t mappings = 0;
        const uint64_t pml4 = st_.cr3 & kAddrMask;
        if (!mem_->Contains(pml4, 4096)) {
          fault_ = "CR3 points outside guest memory";
          return false;
        }
        for (uint64_t i = 0; i < 512; ++i) {
          const uint64_t pml4e = mem_->LoadRaw<uint64_t>(pml4 + i * 8);
          if ((pml4e & visa::kPtePresent) == 0) {
            continue;
          }
          const uint64_t pdpt = pml4e & kAddrMask;
          if (!mem_->Contains(pdpt, 4096)) {
            continue;
          }
          for (uint64_t j = 0; j < 512; ++j) {
            const uint64_t pdpte = mem_->LoadRaw<uint64_t>(pdpt + j * 8);
            if ((pdpte & visa::kPtePresent) == 0) {
              continue;
            }
            const uint64_t pd = pdpte & kAddrMask;
            if (!mem_->Contains(pd, 4096)) {
              continue;
            }
            for (uint64_t k = 0; k < 512; ++k) {
              const uint64_t pde = mem_->LoadRaw<uint64_t>(pd + k * 8);
              if ((pde & visa::kPtePresent) != 0) {
                ++mappings;
              }
            }
          }
        }
        cycles_ += cost_.pg_enable_base + mappings * cost_.ept_build_per_mapping;
        st_.efer |= visa::kEferLma;
        LogEvent(BootEvent::kCr0PgSet);
      }
      if (pg_falling) {
        st_.efer &= ~visa::kEferLma;
      }
      if (pe_rising) {
        cycles_ += cost_.cr0_pe_set;
        LogEvent(BootEvent::kCr0PeSet);
      }
      st_.cr0 = value;
      if (pg_rising || pg_falling) {
        FlushTlb();
      }
      return true;
    }
    case visa::kCr3:
      st_.cr3 = value & ~0xFFFULL;
      FlushTlb();
      return true;
    case visa::kCr4:
      st_.cr4 = value;
      return true;
    case visa::kCrEfer: {
      const bool lme_rising = (value & visa::kEferLme) != 0 && (st_.efer & visa::kEferLme) == 0;
      if (lme_rising && (st_.cr0 & visa::kCr0Pg) != 0) {
        fault_ = "cannot set EFER.LME while paging is enabled";
        return false;
      }
      // LMA is read-only; preserve it.
      const uint64_t lma = st_.efer & visa::kEferLma;
      st_.efer = (value & ~visa::kEferLma) | lma;
      if (lme_rising) {
        LogEvent(BootEvent::kEferLmeSet);
      }
      return true;
    }
    default:
      fault_ = "write to unsupported control register " + std::to_string(cr);
      return false;
  }
}

bool Cpu::DoLjmp(Mode target) {
  switch (target) {
    case Mode::kReal16:
      if (st_.mode != Mode::kReal16) {
        fault_ = "ljmp real16 only valid before CR0.PE";
        return false;
      }
      return true;
    case Mode::kProt32:
      if (st_.mode != Mode::kReal16) {
        fault_ = "ljmp prot32 must come from real mode";
        return false;
      }
      if ((st_.cr0 & visa::kCr0Pe) == 0 || !st_.gdt_loaded) {
        fault_ = "ljmp prot32 requires CR0.PE and a loaded GDT";
        return false;
      }
      st_.mode = Mode::kProt32;
      cycles_ += cost_.ljmp_to_32;
      LogEvent(BootEvent::kJump32);
      return true;
    case Mode::kLong64:
      if (st_.mode != Mode::kProt32) {
        fault_ = "ljmp long64 must come from protected mode";
        return false;
      }
      if ((st_.efer & visa::kEferLma) == 0) {
        fault_ = "ljmp long64 requires EFER.LMA (PAE+LME+PG)";
        return false;
      }
      st_.mode = Mode::kLong64;
      cycles_ += cost_.ljmp_to_64;
      LogEvent(BootEvent::kJump64);
      return true;
  }
  fault_ = "bad ljmp mode";
  return false;
}

Exit Cpu::Run(uint64_t max_insns) {
  if (pending_entry_charge_) {
    cycles_ += cost_.io_entry;
    pending_entry_charge_ = false;
  }
  if (first_insn_pending_) {
    cycles_ += cost_.first_insn;
    LogEvent(BootEvent::kFirstInsn);
    first_insn_pending_ = false;
  }
  fault_.clear();

  // State the loop reads on every instruction lives in locals.  A guest
  // store goes through a uint8_t pointer that may alias any member, so
  // member state would be reloaded and re-stored around every one.  The
  // guest memory never resizes, and only ljmp changes the mode mid-run.
  const uint8_t* const ram = mem_->data();
  const uint64_t ram_size = mem_->size();
  uint64_t mask = WidthMask();
  int word = WordSize();
  bool paging = st_.mode == Mode::kLong64;

  // Per-instruction charges accumulate in `tally` and fold into insns_ and
  // cycles_ on every exit, and before anything that reads cycles_ (rdtsc,
  // a boot milestone).  Out-of-line helpers (page walks, the reference
  // LoadVa/StoreVa) still charge cycles_ directly; the sums commute.
  struct Tally {
    explicit Tally(Cpu* owner) : cpu(owner) {}
    Tally(const Tally&) = delete;
    Tally& operator=(const Tally&) = delete;
    ~Tally() {
      cpu->insns_ += insns;
      Flush();
    }
    void Flush() {
      cpu->cycles_ += cycles;
      cycles = 0;
    }
    Cpu* cpu;
    uint64_t insns = 0;
    uint64_t cycles = 0;
  } tally(this);

  uint64_t last_fetch_vpn = ~0ULL;
  uint64_t last_fetch_page = 0;

  // Fetches `n` bytes of code at `va` into `out`; fast path when the whole
  // access stays within the last-fetched page.
  auto fetch = [&](uint64_t va, int n, uint8_t* out) -> bool {
    const uint64_t off = va & (kPageSize - 1);
    if ((va >> kPageBits) == last_fetch_vpn && off + static_cast<uint64_t>(n) <= kPageSize) {
      std::memcpy(out, ram + last_fetch_page + off, static_cast<size_t>(n));
      return true;
    }
    for (int i = 0; i < n; ++i) {
      uint64_t pa = 0;
      if (!TranslateInternal(va + static_cast<uint64_t>(i), &pa)) {
        return false;
      }
      const uint64_t vpn = (va + static_cast<uint64_t>(i)) >> kPageBits;
      if (vpn != last_fetch_vpn) {
        last_fetch_vpn = vpn;
        last_fetch_page = pa & ~(kPageSize - 1);
        if (mem_->TouchRegion(pa)) {
          cycles_ += cost_.ept_first_touch;
        }
      }
      out[i] = mem_->LoadRaw<uint8_t>(pa);
    }
    return true;
  };

  // Data fast path.  An access that hits the TLB (or runs with paging off)
  // and lies inside one page of guest memory is exactly the case in which
  // LoadVa/StoreVa translate without a walk and access memory directly; it
  // is served here with the same charges (mem_access, plus the EPT first
  // touch of its region).  Everything else falls through to them.  The
  // lambdas are forced inline: an out-of-line call would push `tally`
  // back into memory.
  auto direct_pa = [&](uint64_t va, int bytes, uint64_t* pa) __attribute__((always_inline)) {
    uint64_t p = va;
    if (paging) {
      const TlbEntry& e = tlb_[(va >> kPageBits) & (kTlbEntries - 1)];
      if (e.vpn != (va >> kPageBits)) {
        return false;
      }
      p = e.page + (va & (kPageSize - 1));
    }
    if ((p & (kPageSize - 1)) + static_cast<uint64_t>(bytes) > kPageSize ||
        p + static_cast<uint64_t>(bytes) > ram_size) {
      return false;
    }
    *pa = p;
    return true;
  };
  auto charge_mem = [&](uint64_t pa) __attribute__((always_inline)) {
    tally.cycles += cost_.mem_access;
    if (mem_->TouchRegion(pa)) {
      tally.cycles += cost_.ept_first_touch;
    }
  };
  auto load = [&](uint64_t va, int bytes, bool sign,
                  uint64_t* out) __attribute__((always_inline)) {
    uint64_t pa = 0;
    if (!direct_pa(va, bytes, &pa)) {
      return LoadVa(va, bytes, sign, out);
    }
    uint64_t v;
    switch (bytes) {
      case 1: v = mem_->LoadRaw<uint8_t>(pa); break;
      case 2: v = mem_->LoadRaw<uint16_t>(pa); break;
      case 4: v = mem_->LoadRaw<uint32_t>(pa); break;
      case 8: v = mem_->LoadRaw<uint64_t>(pa); break;
      default: return LoadVa(va, bytes, sign, out);
    }
    if (sign && bytes < 8) {
      const int shift = 64 - 8 * bytes;
      v = static_cast<uint64_t>(static_cast<int64_t>(v << shift) >> shift);
    }
    charge_mem(pa);
    *out = v;
    return true;
  };
  auto store = [&](uint64_t va, int bytes, uint64_t value) __attribute__((always_inline)) {
    uint64_t pa = 0;
    if (!direct_pa(va, bytes, &pa)) {
      return StoreVa(va, bytes, value);
    }
    switch (bytes) {
      case 1: mem_->StoreRaw<uint8_t>(pa, static_cast<uint8_t>(value)); break;
      case 2: mem_->StoreRaw<uint16_t>(pa, static_cast<uint16_t>(value)); break;
      case 4: mem_->StoreRaw<uint32_t>(pa, static_cast<uint32_t>(value)); break;
      case 8: mem_->StoreRaw<uint64_t>(pa, value); break;
      default: return StoreVa(va, bytes, value);
    }
    charge_mem(pa);
    return true;
  };

  auto fault_exit = [&]() {
    Exit e;
    e.kind = ExitKind::kFault;
    e.fault = fault_.empty() ? "unknown fault" : fault_;
    return e;
  };

  // An injected fault (chaos testing) is delivered before the next
  // instruction retires, exactly where a real trap would surface.
  if (!injected_fault_.empty()) {
    fault_ = std::move(injected_fault_);
    injected_fault_.clear();
    return fault_exit();
  }

  for (uint64_t n = 0; n < max_insns; ++n) {
    const uint64_t pc = st_.rip;
    uint8_t code[kMaxInsnBytes];
    // Fast fetch: the widest encoding fits in the last-fetched page, so one
    // fixed-size copy serves any instruction and, exactly like the byte-wise
    // path for a same-page fetch, nothing is translated or charged.  A fetch
    // near the page end or on a new page takes the byte-wise path.
    const bool in_window = (pc >> kPageBits) == last_fetch_vpn &&
                           (pc & (kPageSize - 1)) <= kPageSize - kMaxInsnBytes;
    if (in_window) {
      std::memcpy(code, ram + last_fetch_page + (pc & (kPageSize - 1)), kMaxInsnBytes);
    } else if (!fetch(pc, 1, code)) {
      return fault_exit();
    }
    const int size = kInsnBytes[code[0]];
    if (size == 0) {
      fault_ = "invalid opcode " + std::to_string(code[0]) + " at rip " + std::to_string(pc);
      return fault_exit();
    }
    if (!in_window && size > 1 && !fetch(pc + 1, size - 1, code + 1)) {
      return fault_exit();
    }
    const Op op = static_cast<Op>(code[0]);
    const uint64_t next = pc + static_cast<uint64_t>(size);
    st_.rip = next;
    ++tally.insns;
    tally.cycles += cost_.insn;

    auto read_i32 = [&](int at) {
      int32_t v;
      std::memcpy(&v, code + at, 4);
      return static_cast<int64_t>(v);
    };
    auto read_i64 = [&](int at) {
      int64_t v;
      std::memcpy(&v, code + at, 8);
      return v;
    };
    const uint8_t ab = code[1];
    const int ra = ab >> 4;
    const int rb = ab & 0xf;

    switch (op) {
      case Op::kNop:
        break;
      case Op::kHlt: {
        tally.cycles += cost_.hlt_exit;
        tally.Flush();
        LogEvent(BootEvent::kHlt);
        Exit e;
        e.kind = ExitKind::kHlt;
        return e;
      }
      case Op::kBrk: {
        Exit e;
        e.kind = ExitKind::kBrk;
        return e;
      }
      case Op::kMovRr:
        st_.regs[ra] = st_.regs[rb] & mask;
        break;
      case Op::kMovRi:
        st_.regs[code[1]] = static_cast<uint64_t>(read_i64(2)) & mask;
        break;

      // --- Loads ---------------------------------------------------------
      case Op::kLd8:
      case Op::kLd8S:
      case Op::kLd16:
      case Op::kLd16S:
      case Op::kLd32:
      case Op::kLd32S:
      case Op::kLd64:
      case Op::kLdW: {
        int bytes;
        bool sign = false;
        switch (op) {
          case Op::kLd8: bytes = 1; break;
          case Op::kLd8S: bytes = 1; sign = true; break;
          case Op::kLd16: bytes = 2; break;
          case Op::kLd16S: bytes = 2; sign = true; break;
          case Op::kLd32: bytes = 4; break;
          case Op::kLd32S: bytes = 4; sign = true; break;
          case Op::kLd64: bytes = 8; break;
          default: bytes = word; break;
        }
        const uint64_t va = (st_.regs[rb] + static_cast<uint64_t>(read_i32(2))) & mask;
        uint64_t v = 0;
        if (!load(va, bytes, sign, &v)) {
          return fault_exit();
        }
        st_.regs[ra] = v & mask;
        break;
      }

      // --- Stores --------------------------------------------------------
      case Op::kSt8:
      case Op::kSt16:
      case Op::kSt32:
      case Op::kSt64:
      case Op::kStW: {
        int bytes;
        switch (op) {
          case Op::kSt8: bytes = 1; break;
          case Op::kSt16: bytes = 2; break;
          case Op::kSt32: bytes = 4; break;
          case Op::kSt64: bytes = 8; break;
          default: bytes = word; break;
        }
        // Store encoding: a = base register, b = source register.
        const uint64_t va = (st_.regs[ra] + static_cast<uint64_t>(read_i32(2))) & mask;
        if (!store(va, bytes, st_.regs[rb])) {
          return fault_exit();
        }
        break;
      }

      case Op::kLea:
        st_.regs[ra] = (st_.regs[rb] + static_cast<uint64_t>(read_i32(2))) & mask;
        break;

      // --- ALU -----------------------------------------------------------
      case Op::kAddRr:
      case Op::kAddRi: {
        const uint64_t a = st_.regs[ra];
        const uint64_t b = op == Op::kAddRr ? st_.regs[rb]
                                            : static_cast<uint64_t>(read_i32(2));
        const uint64_t r = (a + b) & mask;
        SetFlagsAddSub(a, b, r, /*is_sub=*/false, mask);
        st_.regs[ra] = r;
        break;
      }
      case Op::kSubRr:
      case Op::kSubRi: {
        const uint64_t a = st_.regs[ra];
        const uint64_t b = op == Op::kSubRr ? st_.regs[rb]
                                            : static_cast<uint64_t>(read_i32(2));
        const uint64_t r = (a - b) & mask;
        SetFlagsAddSub(a, b, r, /*is_sub=*/true, mask);
        st_.regs[ra] = r;
        break;
      }
      case Op::kAndRr:
      case Op::kAndRi: {
        const uint64_t b = op == Op::kAndRr ? st_.regs[rb]
                                            : static_cast<uint64_t>(read_i32(2));
        st_.regs[ra] = (st_.regs[ra] & b) & mask;
        SetFlagsLogic(st_.regs[ra], mask);
        break;
      }
      case Op::kOrRr:
      case Op::kOrRi: {
        const uint64_t b = op == Op::kOrRr ? st_.regs[rb]
                                           : static_cast<uint64_t>(read_i32(2));
        st_.regs[ra] = (st_.regs[ra] | b) & mask;
        SetFlagsLogic(st_.regs[ra], mask);
        break;
      }
      case Op::kXorRr:
      case Op::kXorRi: {
        const uint64_t b = op == Op::kXorRr ? st_.regs[rb]
                                            : static_cast<uint64_t>(read_i32(2));
        st_.regs[ra] = (st_.regs[ra] ^ b) & mask;
        SetFlagsLogic(st_.regs[ra], mask);
        break;
      }
      case Op::kShlRr:
      case Op::kShlRi: {
        const uint64_t c = (op == Op::kShlRr ? st_.regs[rb]
                                             : static_cast<uint64_t>(read_i32(2))) &
                           static_cast<uint64_t>(word * 8 - 1);
        st_.regs[ra] = (st_.regs[ra] << c) & mask;
        SetFlagsLogic(st_.regs[ra], mask);
        break;
      }
      case Op::kShrRr:
      case Op::kShrRi: {
        const uint64_t c = (op == Op::kShrRr ? st_.regs[rb]
                                             : static_cast<uint64_t>(read_i32(2))) &
                           static_cast<uint64_t>(word * 8 - 1);
        st_.regs[ra] = ((st_.regs[ra] & mask) >> c) & mask;
        SetFlagsLogic(st_.regs[ra], mask);
        break;
      }
      case Op::kSarRr:
      case Op::kSarRi: {
        const uint64_t c = (op == Op::kSarRr ? st_.regs[rb]
                                             : static_cast<uint64_t>(read_i32(2))) &
                           static_cast<uint64_t>(word * 8 - 1);
        const int bits = word * 8;
        int64_t v = static_cast<int64_t>(st_.regs[ra] << (64 - bits)) >> (64 - bits);
        st_.regs[ra] = static_cast<uint64_t>(v >> c) & mask;
        SetFlagsLogic(st_.regs[ra], mask);
        break;
      }
      case Op::kMulRr:
        tally.cycles += cost_.mul;
        st_.regs[ra] = (st_.regs[ra] * st_.regs[rb]) & mask;
        SetFlagsLogic(st_.regs[ra], mask);
        break;
      case Op::kImulRr: {
        tally.cycles += cost_.mul;
        const int bits = word * 8;
        auto sext = [&](uint64_t v) {
          return static_cast<int64_t>(v << (64 - bits)) >> (64 - bits);
        };
        st_.regs[ra] =
            static_cast<uint64_t>(sext(st_.regs[ra]) * sext(st_.regs[rb])) & mask;
        SetFlagsLogic(st_.regs[ra], mask);
        break;
      }
      case Op::kUdivRr:
      case Op::kUmodRr: {
        tally.cycles += cost_.div;
        const uint64_t b = st_.regs[rb] & mask;
        if (b == 0) {
          fault_ = "division by zero";
          return fault_exit();
        }
        const uint64_t a = st_.regs[ra] & mask;
        st_.regs[ra] = (op == Op::kUdivRr ? a / b : a % b) & mask;
        SetFlagsLogic(st_.regs[ra], mask);
        break;
      }
      case Op::kIdivRr:
      case Op::kImodRr: {
        tally.cycles += cost_.div;
        const int bits = word * 8;
        auto sext = [&](uint64_t v) {
          return static_cast<int64_t>(v << (64 - bits)) >> (64 - bits);
        };
        const int64_t b = sext(st_.regs[rb]);
        if (b == 0) {
          fault_ = "division by zero";
          return fault_exit();
        }
        const int64_t a = sext(st_.regs[ra]);
        int64_t r;
        if (b == -1) {
          // Avoid INT_MIN / -1 overflow: x86 faults; we wrap (documented).
          r = op == Op::kIdivRr ? -a : 0;
        } else {
          r = op == Op::kIdivRr ? a / b : a % b;
        }
        st_.regs[ra] = static_cast<uint64_t>(r) & mask;
        SetFlagsLogic(st_.regs[ra], mask);
        break;
      }
      case Op::kNotR:
        st_.regs[ra] = (~st_.regs[ra]) & mask;
        SetFlagsLogic(st_.regs[ra], mask);
        break;
      case Op::kNegR:
        st_.regs[ra] = (0 - st_.regs[ra]) & mask;
        SetFlagsLogic(st_.regs[ra], mask);
        break;
      case Op::kCmpRr:
      case Op::kCmpRi: {
        const uint64_t a = st_.regs[ra];
        const uint64_t b = op == Op::kCmpRr ? st_.regs[rb]
                                            : static_cast<uint64_t>(read_i32(2));
        SetFlagsAddSub(a, b, (a - b) & mask, /*is_sub=*/true, mask);
        break;
      }
      case Op::kTestRr:
        SetFlagsLogic(st_.regs[ra] & st_.regs[rb], mask);
        break;
      case Op::kCset:
        st_.regs[ra] = EvalCond(static_cast<Cond>(rb)) ? 1 : 0;
        break;

      // --- Control flow ----------------------------------------------------
      case Op::kJmp:
        st_.rip = next + static_cast<uint64_t>(read_i32(1));
        tally.cycles += cost_.branch_taken;
        break;
      case Op::kJcc:
        if (EvalCond(static_cast<Cond>(code[1]))) {
          st_.rip = next + static_cast<uint64_t>(read_i32(2));
          tally.cycles += cost_.branch_taken;
        }
        break;
      case Op::kCall: {
        const int w = word;
        const uint64_t sp = (st_.regs[visa::kSp] - static_cast<uint64_t>(w)) & mask;
        if (!store(sp, w, next)) {
          return fault_exit();
        }
        st_.regs[visa::kSp] = sp;
        st_.rip = next + static_cast<uint64_t>(read_i32(1));
        tally.cycles += cost_.call_ret;
        break;
      }
      case Op::kCallR: {
        const int w = word;
        const uint64_t sp = (st_.regs[visa::kSp] - static_cast<uint64_t>(w)) & mask;
        if (!store(sp, w, next)) {
          return fault_exit();
        }
        st_.regs[visa::kSp] = sp;
        st_.rip = st_.regs[ra] & mask;
        tally.cycles += cost_.call_ret;
        break;
      }
      case Op::kRet: {
        const int w = word;
        uint64_t ret = 0;
        if (!load(st_.regs[visa::kSp] & mask, w, false, &ret)) {
          return fault_exit();
        }
        st_.regs[visa::kSp] = (st_.regs[visa::kSp] + static_cast<uint64_t>(w)) & mask;
        st_.rip = ret;
        tally.cycles += cost_.call_ret;
        break;
      }
      case Op::kPush: {
        const int w = word;
        const uint64_t sp = (st_.regs[visa::kSp] - static_cast<uint64_t>(w)) & mask;
        if (!store(sp, w, st_.regs[ra])) {
          return fault_exit();
        }
        st_.regs[visa::kSp] = sp;
        break;
      }
      case Op::kPop: {
        const int w = word;
        uint64_t v = 0;
        if (!load(st_.regs[visa::kSp] & mask, w, false, &v)) {
          return fault_exit();
        }
        st_.regs[visa::kSp] = (st_.regs[visa::kSp] + static_cast<uint64_t>(w)) & mask;
        st_.regs[ra] = v & mask;
        break;
      }

      // --- I/O (hypercalls) ------------------------------------------------
      case Op::kIn:
      case Op::kOut: {
        uint16_t port;
        std::memcpy(&port, code + 1, 2);
        ++io_exits_;
        tally.cycles += cost_.io_exit;
        pending_entry_charge_ = true;
        Exit e;
        e.kind = ExitKind::kIo;
        e.port = port;
        e.is_in = op == Op::kIn;
        e.io_reg = code[3];
        return e;
      }

      case Op::kRdtsc:
        tally.Flush();
        st_.regs[ra] = cycles_ & mask;
        break;

      // --- System ----------------------------------------------------------
      case Op::kLgdt:
        tally.Flush();
        if (!DoLgdt(st_.regs[ra] & mask)) {
          return fault_exit();
        }
        break;
      case Op::kWrcr:
        tally.Flush();
        if (!DoWrcr(static_cast<uint8_t>(ra), st_.regs[rb])) {
          return fault_exit();
        }
        break;
      case Op::kRdcr: {
        uint64_t v = 0;
        switch (rb) {
          case visa::kCr0: v = st_.cr0; break;
          case visa::kCr3: v = st_.cr3; break;
          case visa::kCr4: v = st_.cr4; break;
          case visa::kCrEfer: v = st_.efer; break;
          default:
            fault_ = "read of unsupported control register";
            return fault_exit();
        }
        st_.regs[ra] = v;
        break;
      }
      case Op::kLjmp: {
        const Mode target = static_cast<Mode>(code[1]);
        const uint64_t dest = next + static_cast<uint64_t>(read_i32(2));
        tally.Flush();
        if (!DoLjmp(target)) {
          return fault_exit();
        }
        st_.rip = dest;
        // The mode just changed; drop the fetch fast path.
        last_fetch_vpn = ~0ULL;
        mask = WidthMask();
        word = WordSize();
        paging = st_.mode == Mode::kLong64;
        break;
      }
      case Op::kOpCount:
        fault_ = "invalid opcode";
        return fault_exit();
    }
  }
  Exit e;
  e.kind = ExitKind::kInsnLimit;
  return e;
}

}  // namespace vhw
