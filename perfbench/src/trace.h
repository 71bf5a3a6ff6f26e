// In-memory span recorder for traced runs.
//
// Spans are taken by the benchmark around its own calls into the stack (the
// program carries no tracing of its own), or laid out from the durations a
// layer already reports in its public stats (InvokeStats, ServeStats).
// They stay in memory while the run measures and are written to a CSV file
// once, when the run ends.  A disabled tracer records nothing, so untraced
// phases pay one branch per span.
#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  // static string
  uint64_t id = 0;        // unique within the run
  uint64_t req = 0;       // request/connection/invocation the span belongs to
  uint64_t parent = 0;    // enclosing span's id; 0 for a root
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

class Tracer {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  // A fresh id for a request or a span (never 0).
  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  // Records a span and returns its id (0 when disabled).  `id` 0 allocates
  // one; pass an id from NewId() when children were recorded first.
  uint64_t Record(const char* name, uint64_t req, uint64_t parent, uint64_t start_ns,
                  uint64_t end_ns, uint64_t id = 0);

  // Everything recorded so far (call once the recording threads are done).
  std::vector<Span> spans() const;

  // Writes "name,id,req,parent,start_ns,end_ns" rows; false on I/O error.
  bool WriteCsv(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Durations in microseconds of every span called `name`.
std::vector<double> DurationsUs(const std::vector<Span>& spans, const char* name);

// Self times in microseconds of every span called `name`: its duration
// minus the time its direct children cover (children clipped to the
// parent's interval; overlapping children counted once).
std::vector<double> SelfTimesUs(const std::vector<Span>& spans, const char* name);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
