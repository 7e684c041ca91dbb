// Benchmark driver: runs one workload and prints, as the last line of
// standard output, one JSON object with `correct`, `attempted`, `failed` and
// `metrics` (end-to-end metrics with --trace 0, per-layer ones with
// --trace 1).
//
// Usage: perfbench --workload <nexmark-n1|server-durable>
//                  --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//                  [--quick]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include <unistd.h>

#include "bench.h"

namespace {

void PrintResult(const perfbench::RunResult& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <nexmark-n1|server-durable> "
               "--seed N --seconds S --trace 0|1 "
               "--workdir DIR [--quick]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string workdir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--quick") {
      options.quick = true;
    } else if (next == nullptr) {
      return Usage();
    } else if (arg == "--workload") {
      options.workload = argv[++i];
    } else if (arg == "--seed") {
      options.seed =
          static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      options.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--workdir") {
      workdir = argv[++i];
    } else {
      return Usage();
    }
  }
  if (workdir.empty()) return Usage();

  namespace fs = std::filesystem;
  std::error_code ec;
  options.workdir = workdir + "/" + options.workload + "-" +
                    std::to_string(static_cast<long>(::getpid()));
  fs::remove_all(options.workdir, ec);
  fs::create_directories(options.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", options.workdir.c_str(),
                 ec.message().c_str());
    return 2;
  }
  options.trace_path = workdir + "/trace-" + options.workload + "-seed" +
                       std::to_string(options.seed) + ".json";

  perfbench::RunResult result;
  if (options.workload == "nexmark-n1") {
    result = perfbench::RunNexmark(options);
  } else if (options.workload == "server-durable") {
    result = perfbench::RunServerDurable(options);
  } else {
    fs::remove_all(options.workdir, ec);
    return Usage();
  }
  fs::remove_all(options.workdir, ec);
  if (result.attempted == 0) {
    std::fprintf(stderr, "no operation was attempted\n");
    return 1;
  }
  PrintResult(result);
  if (options.quick && (!result.correct || result.failed != 0)) return 1;
  return 0;
}
