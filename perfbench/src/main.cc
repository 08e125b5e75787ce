// traclus_perfbench — the repository benchmark binary.
//
//   traclus_perfbench --workload <name> --seed <n> --seconds <s>
//                     --trace <0|1> --threads <k> --workdir <dir>
//                     --golden <tests/golden/hurricane_default.golden>
//
// --trace 0 prints the end-to-end metrics of untraced runs; --trace 1 runs
// the workload once with spans around every layer call and prints the
// per-layer metrics. Either way the last stdout line is the result JSON.
// perfbench/run.py builds this binary and is the supported entry point.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "traclus_perfbench: %s\nusage: traclus_perfbench --workload "
               "<hurricane|elk|elk-half|hurricane-tune|hurricane-outofcore> "
               "--seed <n> "
               "--seconds <s> --trace <0|1> --threads <k> --workdir <dir> "
               "--golden <file> [--trace-file <file>] [--plant-mismatch]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--plant-mismatch") {
      options.plant_mismatch = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--threads") {
      options.threads = std::atoi(value.c_str());
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else if (flag == "--golden") {
      options.golden = value;
    } else if (flag == "--trace-file") {
      options.trace_file = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(options.workload);
  if (spec == nullptr) return Usage("unknown --workload");
  if (options.threads < 1) return Usage("--threads must be >= 1");
  if (options.workdir.empty()) return Usage("--workdir is required");
  return options.trace ? perfbench::RunTraced(options, *spec)
                       : perfbench::RunTimed(options, *spec);
}
