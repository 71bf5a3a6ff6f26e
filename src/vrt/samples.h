// Guest samples shared by tests, examples, and benchmarks.  The assembly
// ones are mode-agnostic (Figure 3 runs the same fib(20) workload in all
// three processor modes, so they only use word-sized operations).
#ifndef SRC_VRT_SAMPLES_H_
#define SRC_VRT_SAMPLES_H_

#include <string>

namespace vrt {

// Recursive Fibonacci: `virtine_main(n)` returns fib(n).  The "simple,
// recursive implementation" used throughout the paper's microbenchmarks.
std::string FibSource();

// A minimal virtine that halts immediately (Figure 12's padding baseline).
std::string HaltSource();

// `virtine_main(a, b)` returns a + b (marshalling smoke test).
std::string Add2Source();

// Echoes everything from recv back via send until EOF, then exits
// (Section 4.2's minimal echo server workload, adapted to one connection).
std::string EchoSource();

// The Figure 4 echo server (vcc dialect; concatenate after vlibc): echoes
// one recv back, timestamping its startup milestones with in-guest rdtsc,
// and ships them back through return_data after the last milestone.
std::string EchoMilestonesSource();

}  // namespace vrt

#endif  // SRC_VRT_SAMPLES_H_
