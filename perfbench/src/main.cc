// ga_perfbench: the repository benchmark's program. Usually started by
// run.py, which builds it first:
//
//   ga_perfbench --workload batch-small|batch-large|serve-open
//                --seed N --seconds S --trace 0|1
//                --work-dir DIR [--trace-out FILE]
//
// Prints a report and, as its last stdout line, the JSON result object.
// Exits 0 on success (even with correctness deviations, which the result
// line reports), 2 on usage or infrastructure errors, 3 when the serve
// generator fell behind and the run is invalid.
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  perfbench::Log(
      "usage: ga_perfbench --workload batch-small|batch-large|serve-open "
      "--seed N --seconds S --trace 0|1 --work-dir DIR [--trace-out FILE]");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage();
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || options.seconds <= 0) return Usage();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage();
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage();
    }
  }
  if (options.work_dir.empty()) return Usage();

  perfbench::BatchShape shape;
  if (options.workload == "batch-small") {
    shape.divisor = 1024;
    shape.datasets = {"R1", "R2", "R3", "R4"};
    return perfbench::RunBatch(options, shape);
  }
  if (options.workload == "batch-large") {
    shape.divisor = 64;
    shape.datasets = {"R4", "G22"};
    shape.setup_reps = 3;
    shape.warmup_passes = 0;
    return perfbench::RunBatch(options, shape);
  }
  if (options.workload == "serve-open") return perfbench::RunServeOpen(options);
  return Usage();
}
