// Machine-readable bench baselines: every figure/table bench emits a
// BENCH_<name>.json next to its human-readable output, so CI can diff runs
// against a checked-in golden with tolerances instead of eyeballing logs.
// The benches build the document with the shared JsonWriter
// (src/common/json.h) and write it with WriteBenchFile.
#ifndef SLICE_BENCH_BENCH_JSON_H_
#define SLICE_BENCH_BENCH_JSON_H_

#include <cstdio>
#include <string>

#include "src/common/json.h"

namespace slice {

// Writes `json` to BENCH_<name>.json in the working directory (or to `path`
// when non-empty). Returns true on success.
inline bool WriteBenchFile(const std::string& name, const std::string& json,
                           const std::string& path = {}) {
  const std::string file = path.empty() ? "BENCH_" + name + ".json" : path;
  std::FILE* f = std::fopen(file.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_json: cannot open %s\n", file.c_str());
    return false;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("wrote %s\n", file.c_str());
  return true;
}

}  // namespace slice

#endif  // SLICE_BENCH_BENCH_JSON_H_
