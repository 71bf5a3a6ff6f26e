// Figure 11: latency of virtines as computational intensity increases.
//
// fib(n) for growing n, comparing native execution, virtines without
// snapshotting, and virtines with snapshotting (language-extension flow).
// "Native" is the same generated code with every virtualization charge
// stripped (no VM creation/boot, no exit costs), the same-currency
// equivalent of the paper's native function call.
//
// The last column is the simulator's own speed, in host wall ns per emulated
// instruction (run_ns / insns over every run at that n).  It depends on the
// host, so it is reported with nproc and never gated.
#include <thread>

#include "bench/bench_util.h"
#include "src/vcc/vcc.h"
#include "src/wasp/runtime.h"
#include "src/wasp/vfunc.h"

namespace {

constexpr char kFibSource[] = R"(
  virtine int fib(int n) {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
  })";

struct Sample {
  double total_cycles;
  double native_cycles;
  uint64_t run_ns;  // host wall time of the guest run
  uint64_t insns;   // guest instructions retired
};

Sample RunOnce(wasp::Runtime* runtime, const vcc::CompiledVirtine& cv, bool snapshot, int n) {
  wasp::VirtineSpec spec;
  spec.image = &cv.image;
  spec.key = snapshot ? "fib-snap" : "";
  spec.use_snapshot = snapshot;
  wasp::VirtineFunc<int64_t(int64_t)> fib(runtime, spec);
  auto result = fib.Call(n);
  VB_CHECK(result.ok(), result.status().ToString());
  const auto& stats = fib.last_outcome().stats;
  const auto& costs = runtime->options().vm_defaults.guest_costs;
  const uint64_t exit_charges =
      stats.io_exits * (costs.io_exit + costs.io_entry) + costs.hlt_exit;
  Sample s;
  s.total_cycles = static_cast<double>(stats.total_cycles);
  // Native equivalent: guest work only, minus exit/boot charges.  For the
  // snapshot runs the boot was skipped, so guest cycles are already just
  // CRT + fib; for non-snapshot runs this subtraction is approximate and we
  // only use the snapshot-run-derived value.
  s.native_cycles = static_cast<double>(
      stats.guest_cycles > exit_charges ? stats.guest_cycles - exit_charges : 0);
  s.run_ns = stats.run_ns;
  s.insns = stats.insns;
  return s;
}

}  // namespace

int main() {
  benchutil::Header(
      "Figure 11: virtine latency vs computational intensity (fib)",
      "snapshotting is ~2.5x faster at fib(0); slowdown vs native falls from 6.6x to "
      "~1.0x as work grows; overheads amortize with ~100us of work");

  auto virtines = vcc::CompileVirtines(kFibSource);
  VB_CHECK(virtines.ok(), virtines.status().ToString());
  const vcc::CompiledVirtine& cv = (*virtines)[0];

  vbase::Table table({"n", "native us", "virtine us", "virtine+snap us", "slowdown",
                      "slowdown+snap", "host ns/insn"});
  double crossover_n = -1;
  for (int n : {0, 5, 10, 15, 20, 25, 30}) {
    const int trials = n >= 25 ? 2 : 10;
    std::vector<double> native, plain, snap;
    uint64_t run_ns = 0;
    uint64_t insns = 0;
    wasp::Runtime runtime;  // fresh runtime per n: first snap run pays snapshot
    for (int t = 0; t < trials; ++t) {
      const Sample p = RunOnce(&runtime, cv, false, n);
      plain.push_back(p.total_cycles);
      const Sample s = RunOnce(&runtime, cv, true, n);
      snap.push_back(s.total_cycles);
      run_ns += p.run_ns + s.run_ns;
      insns += p.insns + s.insns;
      if (t > 0 || trials == 1) {
        native.push_back(s.native_cycles);  // steady-state restore runs only
      }
    }
    const double native_us = vbase::CyclesToMicros(
        static_cast<uint64_t>(vbase::Summarize(native).mean));
    const double plain_us =
        vbase::CyclesToMicros(static_cast<uint64_t>(vbase::Summarize(plain).mean));
    const double snap_us =
        vbase::CyclesToMicros(static_cast<uint64_t>(vbase::Summarize(snap).mean));
    table.AddRow({std::to_string(n), vbase::Fmt(native_us, 1), vbase::Fmt(plain_us, 1),
                  vbase::Fmt(snap_us, 1), vbase::Fmt(plain_us / native_us, 2) + "x",
                  vbase::Fmt(snap_us / native_us, 2) + "x",
                  vbase::Fmt(static_cast<double>(run_ns) / static_cast<double>(insns), 2)});
    if (crossover_n < 0 && snap_us / native_us < 1.10) {
      crossover_n = n;
    }
  }
  table.Print();
  std::printf("\nhost ns/insn: simulator wall time per emulated instruction on this host "
              "(nproc=%u); reported, not gated\n",
              std::thread::hardware_concurrency());
  std::printf("slowdown < 1.10x first reached at fib(%d) (the amortization point; the "
              "paper reaches it with ~100us of work)\n",
              static_cast<int>(crossover_n));
  return 0;
}
