// One repetition's measurements, keyed by metric name.
//
// Every value carries a kind that says how repetitions of one seed combine:
// host measurements vary from run to run and are summarised by their median;
// simulated results and layer counts are deterministic and must agree
// exactly (they feed the determinism digest); profiler wall times exist only
// in traced repetitions.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

enum class Kind {
  kHost,    // host wall time or memory of this repetition
  kSim,     // simulated result (deterministic for a seed)
  kCount,   // per-layer counter or ratio of counters (deterministic)
  kWall,    // profiler wall-clock attribution (traced repetitions only)
  kLedger,  // profiler simulated-time ledger (traced repetitions only)
};

struct Metric {
  double value = 0;
  std::string unit;
  Kind kind = Kind::kHost;
};

struct Report {
  std::map<std::string, Metric> metrics;
  // NFS operations the workload attempted and the ones that failed.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Output checks that did not hold; empty means the repetition is correct.
  std::vector<std::string> failures;
  // FNV-1a of the profiler's simulated-time ledger; 0 when untraced.
  uint64_t profile_sim_hash = 0;

  void Set(const std::string& name, double value, const std::string& unit, Kind kind) {
    metrics[name] = Metric{value, unit, kind};
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      failures.push_back(what);
    }
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
