#include "src/layers.h"

namespace perfbench {

void AddPoolMetrics(const wasp::PoolStats& before, const wasp::PoolStats& after,
                    double requests, Report* report) {
  const double acquires = static_cast<double>(after.acquires - before.acquires);
  const auto per_acquire = [acquires](uint64_t a, uint64_t b) {
    return Ratio(static_cast<double>(a - b), acquires);
  };
  report->Add("pool.acquires_per_req", Ratio(acquires, requests));
  report->Add("pool.lane_cache_frac", per_acquire(after.lane_cache_hits, before.lane_cache_hits));
  report->Add("pool.freelist_frac", per_acquire(after.freelist_hits, before.freelist_hits));
  report->Add("pool.slow_path_frac",
              per_acquire(after.slow_path_acquires, before.slow_path_acquires));
  report->Add("pool.fresh_creates", static_cast<double>(after.fresh_creates - before.fresh_creates));
  report->Add("pool.affine_hit_frac", per_acquire(after.affine_hits, before.affine_hits));
  report->Add("pool.bytes_zeroed_per_acquire", per_acquire(after.bytes_zeroed, before.bytes_zeroed));
}

void RecordInvokeSpans(Tracer* tracer, uint64_t req, uint64_t parent, uint64_t start,
                       const wasp::InvokeStats& stats) {
  uint64_t t = start;
  tracer->Record("acquire", req, parent, t, t + stats.acquire_ns);
  t += stats.acquire_ns;
  tracer->Record("restore", req, parent, t, t + stats.load_ns);
  t += stats.load_ns;
  tracer->Record("run", req, parent, t, t + stats.run_ns);
}

void AddInvokeMetrics(const std::vector<wasp::InvokeStats>& invokes, double requests,
                      Report* report) {
  std::vector<double> acquire_ns;
  double restored_bytes = 0;
  double delta = 0;
  double cow = 0;
  double cold = 0;
  uint64_t host_cycles = 0;
  uint64_t guest_cycles = 0;
  double insns = 0;
  double run_ns = 0;
  for (const wasp::InvokeStats& st : invokes) {
    acquire_ns.push_back(static_cast<double>(st.acquire_ns));
    restored_bytes += static_cast<double>(st.restored_bytes);
    delta += st.affine_restore ? 1 : 0;
    cow += st.mapped_cow ? 1 : 0;
    cold += st.restored_snapshot ? 0 : 1;
    host_cycles += st.host_cycles;
    guest_cycles += st.guest_cycles;
    insns += static_cast<double>(st.insns);
    run_ns += static_cast<double>(st.run_ns);
  }
  const double n = static_cast<double>(invokes.size());
  report->Add("pool.acquire_p50_ns", Quantile(acquire_ns, 0.5));
  report->Add("pool.acquire_p99_ns", Quantile(acquire_ns, 0.99));
  report->Add("snapshot.restored_kb_per_inv", Ratio(restored_bytes / 1024, n));
  report->Add("snapshot.delta_frac", Ratio(delta, n));
  report->Add("snapshot.cow_map_frac", Ratio(cow, n));
  report->Add("snapshot.cold_frac", Ratio(cold, n));
  report->Add("runtime.host_cycles_per_req", Ratio(static_cast<double>(host_cycles), requests));
  report->Add("vhw.ns_per_insn", Ratio(run_ns, insns));
  report->Add("vhw.insns_per_req", Ratio(insns, requests));
  report->Add("vhw.guest_cycles_per_req", Ratio(static_cast<double>(guest_cycles), requests));
}

}  // namespace perfbench
