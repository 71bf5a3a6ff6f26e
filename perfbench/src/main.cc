// perfbench: one run of one workload against the real virtine stack.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--span-file PATH]
//
// Workloads: http_keepalive, http_connect, serverless_burst.  The last line
// of stdout is the JSON result; with --trace 0 it carries the end-to-end
// metrics, with --trace 1 the per-layer metrics.  A human-readable summary
// goes to stderr.  perfbench/run.py builds this binary and is the
// documented entry point.
#include <signal.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>

#include "src/bench.h"

namespace perfbench {
namespace {

const uint64_t kProcessStartNs = NowNs();

// A run that has not finished by then is ended with correct: false.
constexpr int kRunDeadlineS = 150;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Printed by the untraced run (BENCHMARK.json "end_to_end").
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"rps", "1/s"},
    {"lat_p50_us", "us"},
    {"ok_frac", "frac"},
    {"modeled_cycles_per_req", "cycles"},
    {"cpu_us_per_req", "us"},
    {"peak_rss_mb", "MiB"},
};

// Printed by the traced run (BENCHMARK.json "per_layer").  The client's
// latency tail is here, not among the gated end-to-end metrics: from run to
// run on a shared host it moves more than any bound a gate could use.
const std::vector<MetricDef> kPerLayer = {
    {"client.lat_p99_us", "us"},
    {"listener.self_us", "us"},
    {"listener.accepts_per_req", "count"},
    {"listener.edge_rejects", "count"},
    {"server.handle_us", "us"},
    {"server.native_handle_us", "us"},
    {"server.reuse_frac", "frac"},
    {"server.shed", "count"},
    {"executor.queue_wait_us_p50", "us"},
    {"executor.queue_wait_us_p99", "us"},
    {"executor.peak_queue_depth", "count"},
    {"executor.rejected", "count"},
    {"pool.acquire_p50_ns", "ns"},
    {"pool.acquire_p99_ns", "ns"},
    {"pool.acquires_per_req", "count"},
    {"pool.lane_cache_frac", "frac"},
    {"pool.freelist_frac", "frac"},
    {"pool.slow_path_frac", "frac"},
    {"pool.fresh_creates", "count"},
    {"pool.affine_hit_frac", "frac"},
    {"pool.bytes_zeroed_per_acquire", "B"},
    {"snapshot.restore_us_p50", "us"},
    {"snapshot.restored_kb_per_inv", "KiB"},
    {"snapshot.delta_frac", "frac"},
    {"snapshot.cow_map_frac", "frac"},
    {"snapshot.cold_frac", "frac"},
    {"snapshot.resident_mb", "MiB"},
    {"runtime.exits_per_req", "count"},
    {"runtime.host_cycles_per_req", "cycles"},
    {"vhw.ns_per_insn", "ns"},
    {"vhw.insns_per_req", "count"},
    {"vhw.guest_cycles_per_req", "cycles"},
    {"vcc.compile_ms", "ms"},
    {"trace.overhead_frac", "frac"},
};

const char* UnitOf(const std::string& name) {
  for (const auto* table : {&kEndToEnd, &kPerLayer}) {
    for (const MetricDef& def : *table) {
      if (name == def.name) {
        return def.unit;
      }
    }
  }
  return nullptr;
}

void PrintIncorrect(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  std::printf("{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {}}\n");
  std::fflush(stdout);
}

// Ends a hung run: prints an incorrect result and exits without unwinding
// (the stuck threads cannot be joined).
class Watchdog {
 public:
  explicit Watchdog(int seconds)
      : thread_([this, seconds] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!cv_.wait_for(lock, std::chrono::seconds(seconds), [this] { return done_; })) {
            PrintIncorrect("run deadline exceeded");
            std::_Exit(1);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // declared last: it reads the members above
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--span-file") {
      args->span_file = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 && have_trace;
}

}  // namespace

void Report::Add(const std::string& name, double value) {
  const char* unit = UnitOf(name);
  if (unit == nullptr) {
    Fail("unknown metric " + name);
    return;
  }
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = 0;
  }
  metrics_.push_back(Metric{name, value, unit});
}

void Report::Bypass(const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    Add(name, 0);
  }
}

void Report::Fail(const std::string& why) {
  correct_ = false;
  problems_.push_back(why);
}

void Report::Expect(const std::string& what, uint64_t lhs, uint64_t rhs) {
  if (lhs != rhs) {
    Fail("ledger: " + what + ": " + std::to_string(lhs) + " != " + std::to_string(rhs));
  }
}

bool Report::Has(const std::string& name) const {
  return std::any_of(metrics_.begin(), metrics_.end(),
                     [&name](const Metric& m) { return m.name == name; });
}

std::string Report::Json(const std::vector<std::string>& names) const {
  std::string out = std::string("{\"correct\": ") + (correct_ ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : names) {
    for (const Metric& m : metrics_) {
      if (m.name != name) {
        continue;
      }
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", m.value);
      out += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
             ", \"unit\": \"" + std::string(m.unit) + "\"}";
      first = false;
      break;
    }
  }
  return out + "}}";
}

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (pos - static_cast<double>(lo));
}

void Histogram::Add(double us) {
  const double pos = std::log10(std::max(us, kMinUs) / kMinUs) * kPerDecade;
  const size_t i = std::min(static_cast<size_t>(pos), buckets_.size() - 1);
  ++buckets_[i];
  ++count_;
}

void Histogram::Merge(const Histogram& other) {
  for (size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  const double rank = q * static_cast<double>(count_ - 1);
  double below = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    const double n = static_cast<double>(buckets_[i]);
    if (n > 0 && below + n > rank) {
      // Spread the bucket's samples evenly over its log-width.
      const double pos = static_cast<double>(i) + (rank - below + 0.5) / n;
      return kMinUs * std::pow(10.0, pos / kPerDecade);
    }
    below += n;
  }
  return kMinUs * std::pow(10.0, static_cast<double>(buckets_.size()) / kPerDecade);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double SinceProcessStart(uint64_t now_ns) {
  return static_cast<double>(now_ns - kProcessStartNs) / 1e9;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // The socket clients use MSG_NOSIGNAL; ignoring SIGPIPE also covers any
  // write a closed peer could still turn into a signal.
  signal(SIGPIPE, SIG_IGN);
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--span-file PATH]\n");
    return 2;
  }
  Report report;
  {
    Watchdog watchdog(kRunDeadlineS);
    if (args.workload == "http_keepalive") {
      RunHttp(args, /*keepalive=*/true, &report);
    } else if (args.workload == "http_connect") {
      RunHttp(args, /*keepalive=*/false, &report);
    } else if (args.workload == "serverless_burst") {
      RunServerless(args, &report);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
      return 2;
    }
  }
  std::vector<std::string> names;
  for (const MetricDef& def : args.trace ? kPerLayer : kEndToEnd) {
    names.push_back(def.name);
  }
  for (const std::string& name : names) {
    if (!report.Has(name)) {
      report.Fail("metric not measured: " + name);
    }
  }
  if (report.attempted == 0) {
    report.Fail("no request attempted");
  }
  for (const std::string& why : report.problems()) {
    std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  }
  std::fflush(stderr);
  std::printf("%s\n", report.Json(names).c_str());
  std::fflush(stdout);
  return 0;
}
