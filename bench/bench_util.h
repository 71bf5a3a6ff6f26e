// Shared helpers for the table/figure reproduction binaries.
//
// Every binary prints (a) a header identifying the paper artifact it
// regenerates, (b) a table whose rows mirror the paper's, and (c) where the
// paper states a quantitative claim, the measured counterpart.  Latencies
// appear in two currencies: modeled cycles at the 2.69 GHz reference clock
// (deterministic, machine-independent) and measured wall time of the real
// host work.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <vector>

#include "src/base/clock.h"
#include "src/base/log.h"
#include "src/base/stats.h"
#include "src/base/status.h"
#include "src/base/table.h"
#include "src/wasp/pool.h"

namespace benchutil {

inline void Header(const std::string& artifact, const std::string& claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", artifact.c_str());
  std::printf("Paper claim: %s\n", claim.c_str());
  std::printf("==============================================================\n");
}

inline std::string Cycles(double cycles) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.0f", cycles);
  return buf;
}

inline std::string Us(double cycles) { return vbase::Fmt(vbase::CyclesToMicros(
    static_cast<uint64_t>(cycles)), 1); }

// Counts a broken accounting law (a non-OK CheckInvariants result) as one
// gate failure.
inline void CheckLaws(const vbase::Status& laws, int* failures) {
  if (!laws.ok()) {
    std::printf("FAIL: accounting law broken: %s\n", laws.message().c_str());
    ++*failures;
  }
}

// Checks the pool's accounting laws on one stats snapshot (the pool must be
// quiescent) and returns that snapshot.
inline wasp::PoolStats CheckPoolLaws(const wasp::Pool& pool, int* failures) {
  const wasp::PoolStats stats = pool.stats();
  CheckLaws(wasp::CheckInvariants(stats, pool.affine_accounting()), failures);
  return stats;
}

}  // namespace benchutil

#endif  // BENCH_BENCH_UTIL_H_
