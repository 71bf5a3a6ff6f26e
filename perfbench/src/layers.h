// Per-layer metrics and spans shared by the workloads, derived from the
// stack's public stats structs.
#ifndef PERFBENCH_SRC_LAYERS_H_
#define PERFBENCH_SRC_LAYERS_H_

#include <cstdint>
#include <vector>

#include "src/bench.h"
#include "src/trace.h"
#include "src/wasp/pool.h"
#include "src/wasp/runtime.h"

namespace perfbench {

// pool.* tier and volume metrics from two PoolStats snapshots taken around
// `requests` served requests.
void AddPoolMetrics(const wasp::PoolStats& before, const wasp::PoolStats& after,
                    double requests, Report* report);

// Records acquire, restore and guest run of one invocation, laid end to end
// from `start` by its InvokeStats, as children of span `parent`.
void RecordInvokeSpans(Tracer* tracer, uint64_t req, uint64_t parent, uint64_t start,
                       const wasp::InvokeStats& stats);

// pool.acquire_*, snapshot.* (except restore time and residency),
// runtime.host_cycles_per_req and vhw.* from the InvokeStats of invocations
// that served `requests` requests between them.
void AddInvokeMetrics(const std::vector<wasp::InvokeStats>& invokes, double requests,
                      Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LAYERS_H_
