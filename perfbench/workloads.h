// The benchmark's three workloads. Each call builds a fresh ensemble, runs
// one repetition of the workload for the given seed and fills a Report with
// host timings, simulated results, per-layer counts and, when `traced`, the
// profiler's wall-clock and simulated-time attribution.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>

#include "perfbench/report.h"

namespace perfbench {

// SFS97 op mix, open loop at 4800 ops/s, against Slice-8 with the fig5
// calibration.
void RunSfsMix(uint64_t seed, bool traced, Report* out);
// Four closed-loop untar processes against four name-hashing dir servers.
void RunUntar(uint64_t seed, bool traced, Report* out);
// Four sequential write streams, a cold restart of every storage node, then
// the same streams read back.
void RunBulkRw(uint64_t seed, bool traced, Report* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
