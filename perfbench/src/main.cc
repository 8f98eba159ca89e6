// perfbench: the repository benchmark binary. Runs one workload under a
// seed, checks its outputs, prints a human-readable report and, as its last
// line, `PERFBENCH_RESULT <json>` carrying every metric it measured with
// its unit. perfbench/run.py builds this binary and turns that line into
// the benchmark's result object.
//
//   perfbench --workload <tpch_cursor|bulk_loops|server_mixed>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <tpch_cursor|bulk_loops|server_mixed> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]\n",
               argv0);
  return 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-dir") {
      config.trace_dir = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || config.seconds <= 0) return Usage(argv[0]);

  perfbench::Metrics metrics;
  perfbench::Outcome outcome;
  aggify::Status status;
  if (config.workload == "tpch_cursor") {
    status = perfbench::RunTpchCursor(config, &metrics, &outcome);
  } else if (config.workload == "bulk_loops") {
    status = perfbench::RunBulkLoops(config, &metrics, &outcome);
  } else if (config.workload == "server_mixed") {
    status = perfbench::RunServerMixed(config, &metrics, &outcome);
  } else {
    return Usage(argv[0]);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s aborted: %s\n",
                 config.workload.c_str(), status.ToString().c_str());
    return 1;
  }

  const double attempted =
      static_cast<double>(outcome.attempted > 0 ? outcome.attempted : 1);
  metrics.Set("failed_op_ratio",
              static_cast<double>(outcome.failed) / attempted, "ratio");
  const bool correct = outcome.failed == 0 && !outcome.check_failed;
  perfbench::ReportLine("seed %llu: %lld operations, %lld failed, checks %s",
                        static_cast<unsigned long long>(config.seed),
                        static_cast<long long>(outcome.attempted),
                        static_cast<long long>(outcome.failed),
                        correct ? "passed" : "FAILED");

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& entry : metrics.entries()) {
    if (!first) json += ", ";
    first = false;
    json += JsonString(entry.name) + ": {\"value\": " +
            perfbench::Num(entry.value) + ", \"unit\": " +
            JsonString(entry.unit) + "}";
  }
  json += "}}";
  std::printf("PERFBENCH_RESULT %s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}
