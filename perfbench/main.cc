// The repository benchmark: runs one workload for a fixed host-time budget
// and prints every metric, then one JSON line carrying all of them
// (perfbench/run.py keeps the ones BENCHMARK.json registers).
//
//   perfbench --workload <sfs_mix|untar|bulk_rw> --seed <n> --seconds <s> --trace <0|1>
//
// A repetition is one whole workload on a fresh ensemble, always with the
// same seed, so its simulated results and layer counts are identical from
// repetition to repetition while the host timings vary. Repetitions run
// until the budget is spent; host times are summarised over the fastest
// warm repetitions (see Summarise). With --trace 1
// half the budget runs untraced and half with the profiler on, which adds
// the per-layer wall-clock and simulated-time attribution. See
// perfbench/README.md for what each metric means and which layer moves it.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "perfbench/report.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

// The first repetition of each batch warms the process (page faults, lazy
// allocator growth) and is left out of the host medians. At least this many
// repetitions run whatever the budget, so each median has three samples.
constexpr size_t kMinReps = 4;
constexpr size_t kMinTracedReps = 3;

using WorkloadFn = void (*)(uint64_t seed, bool traced, Report* out);

struct Options {
  WorkloadFn run = nullptr;
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Options* opt) {
  const std::map<std::string, WorkloadFn> workloads = {
      {"sfs_mix", RunSfsMix}, {"untar", RunUntar}, {"bulk_rw", RunBulkRw}};
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      const auto it = workloads.find(value);
      if (it == workloads.end()) {
        std::fprintf(stderr, "unknown workload '%s'\n", value.c_str());
        return false;
      }
      opt->workload = value;
      opt->run = it->second;
    } else if (flag == "--seed") {
      opt->seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      opt->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opt->trace = value == "1";
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", flag.c_str());
      return false;
    }
  }
  if (argc % 2 != 1 || opt->run == nullptr || !have_seed || opt->seconds <= 0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <sfs_mix|untar|bulk_rw> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return false;
  }
  return true;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Runs repetitions until `budget_s` of host time is spent. `first_rss_mb`
// gets the process's peak RSS after the first repetition: later ones reuse
// its memory, so their peak measures the allocator, not the workload.
std::vector<Report> RunReps(const Options& opt, bool traced, double budget_s, size_t min_reps,
                            double* first_rss_mb) {
  std::vector<Report> reps;
  const auto start = std::chrono::steady_clock::now();
  while (reps.size() < min_reps || SecondsSince(start) < budget_s) {
    reps.emplace_back();
    opt.run(opt.seed, traced, &reps.back());
    if (reps.size() == 1 && first_rss_mb != nullptr) {
      *first_rss_mb = PeakRssMb();
    }
    const auto& m = reps.back().metrics;
    std::printf("rep %zu%s: setup %.3f ms, timed %.3f ms, %.1f ns/op\n", reps.size(),
                traced ? " traced" : "", m.at("workload.setup_ms").value,
                m.at("workload.timed_ms").value, m.at("wall_ns_per_op").value);
  }
  return reps;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::string Number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

// FNV-1a over every simulated result and layer count: what a repetition of
// the same seed, traced or not, must reproduce exactly.
uint64_t Digest(const Report& r) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h = (h ^ c) * 0x100000001b3ull;
    }
  };
  for (const auto& [name, m] : r.metrics) {
    if (m.kind == Kind::kSim || m.kind == Kind::kCount) {
      mix(name + "=" + Number(m.value) + "\n");
    }
  }
  mix("attempted=" + std::to_string(r.attempted) + " failed=" + std::to_string(r.failed));
  return h;
}

// Summarises the warm repetitions (all but the first). Simulated values and
// counts are the same in every repetition. Set-up times are medians. Every
// other host or profiler time is the mean over the fastest quarter of the
// repetitions, ranked by timed wall: on a shared host a busy neighbour only
// ever adds time, so the fastest repetitions track the code's own cost.
std::map<std::string, Metric> Summarise(const std::vector<Report>& reps) {
  std::vector<const Report*> warm;
  for (size_t i = 1; i < reps.size(); ++i) {
    warm.push_back(&reps[i]);
  }
  std::sort(warm.begin(), warm.end(), [](const Report* a, const Report* b) {
    return a->metrics.at("workload.timed_ms").value < b->metrics.at("workload.timed_ms").value;
  });
  const size_t fastest = std::max<size_t>(1, warm.size() / 4);
  std::map<std::string, Metric> out;
  for (const auto& [name, first] : reps.front().metrics) {
    Metric m = first;
    if (name == "setup_s" || name == "workload.setup_ms") {
      std::vector<double> values;
      for (const Report* r : warm) {
        values.push_back(r->metrics.at(name).value);
      }
      m.value = Median(values);
    } else if (first.kind != Kind::kSim && first.kind != Kind::kCount) {
      m.value = 0;
      for (size_t i = 0; i < fastest; ++i) {
        m.value += warm[i]->metrics.at(name).value / static_cast<double>(fastest);
      }
    }
    out[name] = m;
  }
  return out;
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    return 2;
  }
  const double untraced_budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  double rss_mb = 0;
  const std::vector<Report> untraced = RunReps(opt, false, untraced_budget, kMinReps, &rss_mb);
  std::vector<Report> traced;
  if (opt.trace) {
    traced = RunReps(opt, true, opt.seconds / 2, kMinTracedReps, nullptr);
  }

  std::vector<std::string> failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  const uint64_t digest = Digest(untraced.front());
  const std::vector<Report>* batches[] = {&untraced, &traced};
  for (const std::vector<Report>* batch : batches) {
    for (const Report& r : *batch) {
      failures.insert(failures.end(), r.failures.begin(), r.failures.end());
      attempted += r.attempted;
      failed += r.failed;
      if (Digest(r) != digest) {
        failures.push_back(batch == &untraced
                               ? "determinism: two repetitions of one seed disagree"
                               : "determinism: the traced run's simulated outputs differ");
      }
      if (batch == &traced && r.profile_sim_hash != traced.front().profile_sim_hash) {
        failures.push_back("determinism: traced repetitions disagree on the sim-time ledger");
      }
    }
  }

  const std::map<std::string, Metric> untraced_summary = Summarise(untraced);
  std::map<std::string, Metric> all = untraced_summary;
  all["peak_rss_mb"] = Metric{rss_mb, "MB", Kind::kHost};
  if (opt.trace) {
    const std::map<std::string, Metric> t = Summarise(traced);
    for (const auto& [name, m] : t) {
      // Profiler attribution, and the benchmark's own spans as the traced
      // run saw them.
      if (m.kind == Kind::kWall || m.kind == Kind::kLedger || name.rfind("workload.", 0) == 0) {
        all[name] = m;
      }
    }
    all["trace.overhead_ratio"] =
        Metric{t.at("workload.timed_ms").value / untraced_summary.at("workload.timed_ms").value,
               "ratio", Kind::kWall};
  }

  std::printf("workload %s seed %llu trace %d: %zu untraced + %zu traced repetitions\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
              untraced.size(), traced.size());
  for (const auto& [name, m] : all) {
    std::printf("metric %-28s %-14s %s\n", name.c_str(), Number(m.value).c_str(),
                m.unit.c_str());
  }
  std::printf("digest %016llx\n", static_cast<unsigned long long>(digest));
  for (const std::string& f : failures) {
    std::printf("check failed: %s\n", f.c_str());
  }

  std::string json = "{\"correct\": ";
  json += failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : all) {
    json += first ? "" : ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + Number(m.value) + ", \"unit\": \"" + m.unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
