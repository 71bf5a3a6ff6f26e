// Shared types of the virtine-stack benchmark: run arguments, the result
// report, and small measurement helpers.
//
// The benchmark drives the real stack (vnet listener and server, wasp
// executor/pool/snapshot/runtime, vkvm/vhw guest execution) from outside:
// every timing and span is taken around calls into public functions, and
// every layer counter comes from a public stats struct.
#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string span_file;  // written at exit by a traced run
};

// One run's result: the correctness verdict, request accounting, and every
// metric the run measured, in the order recorded.
class Report {
 public:
  // Records a metric; its unit comes from the benchmark's metric table.
  void Add(const std::string& name, double value);
  // Records every metric in `names` as 0: the workload bypasses that layer.
  void Bypass(const std::vector<std::string>& names);
  // Marks the run incorrect; `why` is printed to stderr.
  void Fail(const std::string& why);
  // Fails unless `lhs == rhs` (a ledger identity over public counters).
  void Expect(const std::string& what, uint64_t lhs, uint64_t rhs);

  const std::vector<std::string>& problems() const { return problems_; }
  bool Has(const std::string& name) const;
  // The result line: {"correct", "attempted", "failed", "metrics"} with the
  // metrics restricted to `names`, in that order.
  std::string Json(const std::vector<std::string>& names) const;

  uint64_t attempted = 0;
  uint64_t failed = 0;

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> problems_;
  bool correct_ = true;
};

// Latency histogram with fixed memory: log-spaced buckets, 200 per decade
// (about 1.2% wide) from 0.1 us to 100 s, so a long run's samples cost the
// process no more memory than a short run's.  Quantiles interpolate within
// a bucket.
class Histogram {
 public:
  void Add(double us);
  void Merge(const Histogram& other);
  uint64_t count() const { return count_; }
  double Quantile(double q) const;

 private:
  static constexpr int kPerDecade = 200;
  static constexpr int kDecades = 9;
  static constexpr double kMinUs = 0.1;
  std::vector<uint64_t> buckets_ = std::vector<uint64_t>(kPerDecade * kDecades, 0);
  uint64_t count_ = 0;
};

// Steady-clock nanoseconds (the same clock vbase::NowNanos reads).
uint64_t NowNs();
// Process user+system CPU seconds so far.
double CpuSeconds();
// Peak resident set size of the process in MiB.
double PeakRssMb();
// q-th quantile by linear interpolation; 0 for an empty sample.
double Quantile(std::vector<double> samples, double q);
// num / den, or 0 when den is 0.
double Ratio(double num, double den);
// Seconds from process start (main) to `now_ns`.
double SinceProcessStart(uint64_t now_ns);

// Workload entry points.  Each fills every end-to-end metric (untraced run)
// or every per-layer metric (traced run) it measures.
void RunHttp(const Args& args, bool keepalive, Report* report);
void RunServerless(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
