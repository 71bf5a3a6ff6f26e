// Figure 8: creation latencies for execution contexts, including Wasp's
// pooling optimizations.
//
// Rows: fn call / vmrun / Wasp+CA (pooled, asynchronous cleaning) /
// Wasp+C (pooled, synchronous cleaning) / pthread / Wasp (fresh create per
// virtine) / raw KVM create / process, plus SGX reference rows (modeled
// from the paper's Comet Lake measurements; no SGX hardware here).
#include <sys/wait.h>
#include <unistd.h>

#include <thread>

#include "bench/bench_util.h"
#include "src/vrt/env.h"
#include "src/vrt/samples.h"
#include "src/wasp/runtime.h"

namespace {

// One virtine invocation of the minimal halting image through a runtime
// configured with the given pool mode; returns mean modeled cycles.
double MeasureWasp(wasp::CleanMode mode, const visa::Image& image, int trials,
                   double* wall_ns) {
  wasp::RuntimeOptions options;
  options.pool.mode = mode;
  wasp::Runtime runtime(options);
  wasp::VirtineSpec spec;
  spec.image = &image;
  spec.word_bytes = 0;  // raw image: no argument page contract
  if (mode == wasp::CleanMode::kAsync) {
    runtime.pool().Prewarm(runtime.MakeVmConfig(spec.mem_size), 8);
  }
  std::vector<double> cycles;
  std::vector<double> wall;
  for (int i = 0; i < trials; ++i) {
    auto outcome = runtime.Invoke(spec);
    VB_CHECK(outcome.status.ok(), outcome.status.ToString());
    // Skip the cold first run for the pooled variants.
    if (i > 0 || mode == wasp::CleanMode::kNone) {
      cycles.push_back(static_cast<double>(outcome.stats.total_cycles));
      wall.push_back(static_cast<double>(outcome.stats.total_ns));
    }
    if (mode == wasp::CleanMode::kAsync && i % 4 == 3) {
      runtime.pool().DrainCleaner();  // keep the warm pool stocked
    }
  }
  *wall_ns = vbase::Summarize(wall).mean;
  return vbase::Summarize(vbase::TukeyFilter(cycles)).mean;
}

}  // namespace

int main() {
  benchutil::Header(
      "Figure 8: creation latencies with Wasp optimizations (log-scale in the paper)",
      "pooled shells (Wasp+C) beat pthread creation; asynchronous cleaning (Wasp+CA) "
      "comes within ~4% of a bare vmrun; fresh Wasp virtines beat processes by >10x");

  auto image = vrt::BuildRawImage(vrt::HaltSource());
  VB_CHECK(image.ok(), image.status().ToString());
  constexpr int kTrials = 100;
  vkvm::VmConfig cfg;
  const vkvm::HostCostModel host = cfg.host_costs;

  // vmrun floor: re-run an existing context.
  auto vm = vkvm::Vm::Create(cfg);
  VB_CHECK(vm->LoadBlob(image->load_addr, image->bytes.data(), image->bytes.size()).ok(), "");
  vm->ResetVcpu(image->entry);
  vm->ResetAccounting();
  VB_CHECK(vm->Run().reason == vkvm::ExitReason::kHlt, "vmrun floor failed");
  const double vmrun_cycles = static_cast<double>(vm->total_cycles());

  double wall_fresh = 0, wall_sync = 0, wall_async = 0;
  const double wasp_fresh = MeasureWasp(wasp::CleanMode::kNone, *image, kTrials, &wall_fresh);
  const double wasp_c = MeasureWasp(wasp::CleanMode::kSync, *image, kTrials, &wall_sync);
  const double wasp_ca = MeasureWasp(wasp::CleanMode::kAsync, *image, kTrials, &wall_async);

  std::vector<double> thread_wall;
  for (int i = 0; i < kTrials; ++i) {
    vbase::WallTimer t;
    std::thread th([] {});
    th.join();
    thread_wall.push_back(static_cast<double>(t.ElapsedNanos()));
  }
  std::vector<double> fork_wall;
  for (int i = 0; i < 16; ++i) {
    vbase::WallTimer t;
    const pid_t pid = fork();
    if (pid == 0) {
      _exit(0);
    }
    int status = 0;
    waitpid(pid, &status, 0);
    fork_wall.push_back(static_cast<double>(t.ElapsedNanos()));
  }

  struct Row {
    const char* label;
    double cycles;
    std::string note;
  };
  const Row rows[] = {
      {"function call", 5, "floor"},
      {"vmrun (existing context)", vmrun_cycles, "hardware limit"},
      {"Wasp+CA (pooled, async clean)", wasp_ca,
       vbase::Fmt(100.0 * (wasp_ca - vmrun_cycles) / vmrun_cycles, 1) + "% over vmrun"},
      {"Wasp+C (pooled, sync clean)", wasp_c, "includes shell cleaning"},
      {"pthread create+join", static_cast<double>(host.pthread_create),
       "wall " + vbase::Fmt(vbase::Summarize(thread_wall).mean, 0) + " ns"},
      {"Wasp (fresh virtine)", wasp_fresh, "full VM create + image load"},
      {"KVM VM create", static_cast<double>(host.vm_create), "kernel context alloc"},
      {"process fork+waitpid", static_cast<double>(host.process_fork),
       "wall " + vbase::Fmt(vbase::Summarize(fork_wall).mean, 0) + " ns"},
      {"SGX ECALL (paper, Comet Lake)", static_cast<double>(host.sgx_ecall), "modeled"},
      {"SGX enclave create (paper)", static_cast<double>(host.sgx_create), "modeled"},
  };
  vbase::Table table({"context", "modeled cycles", "modeled us", "note"});
  for (const Row& row : rows) {
    table.AddRow({row.label, benchutil::Cycles(row.cycles), benchutil::Us(row.cycles),
                  row.note});
  }
  table.Print();
  std::printf("\nwall (this host): Wasp fresh %.0f ns | Wasp+C %.0f ns | Wasp+CA %.0f ns\n",
              wall_fresh, wall_sync, wall_async);
  std::printf("Claim check: Wasp+CA within 4%% of vmrun -> measured %+.1f%%\n",
              100.0 * (wasp_ca - vmrun_cycles) / vmrun_cycles);
  return 0;
}
