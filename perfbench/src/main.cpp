/// \file main.cpp
/// perfbench: runs one benchmark workload in this process and
/// prints its measurements as one JSON line (the last line of stdout),
/// after a human-readable summary. perfbench/run.py launches it; see
/// perfbench/README.md.
///
///   perfbench --workload <name> [--seed N] [--seconds S]
///                    [--trace 0|1] [--t0-ns NS] [--setup-only]
///                    [--scale X]
///   perfbench --workload campaign_mixed --seed N
///                    --baseline-instances I --baseline-shards S

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

using perfbench::JsonObject;
using perfbench::Metric;

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload <name> [--seed N] "
               "[--seconds S] [--trace 0|1] [--t0-ns NS] [--setup-only] "
               "[--scale X] [--baseline-instances I --baseline-shards S]\n";
  std::exit(2);
}

perfbench::Options Parse(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      o.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        o.trace = value != "0";
      } else if (flag == "--t0-ns") {
        o.t0_ns = std::stoll(value);
      } else if (flag == "--scale") {
        o.scale = std::stod(value);
      } else if (flag == "--baseline-instances") {
        o.baseline_instances = std::stoul(value);
      } else if (flag == "--baseline-shards") {
        o.baseline_shards = std::stoul(value);
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + flag + ": " + value);
    }
  }
  if (!(o.seconds > 0.0) || !(o.scale > 0.0)) {
    Usage("--seconds and --scale must be positive");
  }
  return o;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  JsonObject obj;
  for (const Metric& m : metrics) {
    obj.Raw(m.name, JsonObject()
                        .Num("value", m.value)
                        .Str("unit", m.unit)
                        .str());
  }
  return obj.str();
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Clock::time_point started = perfbench::Clock::now();
  const perfbench::Options options = Parse(argc, argv);
  std::unique_ptr<perfbench::Workload> workload =
      perfbench::MakeWorkload(options);
  if (workload == nullptr) Usage("unknown workload " + options.workload);

  perfbench::RunResult result;
  try {
    workload->Prepare();
    const perfbench::Clock::time_point ready = perfbench::Clock::now();
    // Process start as the launcher saw it, when it passed one.
    const double since_t0 =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                ready.time_since_epoch())
                .count() -
            options.t0_ns) *
        1e-9;
    result.setup_s = options.t0_ns > 0
                         ? since_t0
                         : perfbench::SecondsBetween(started, ready);
    if (!options.setup_only) {
      workload->Warm();
      if (options.trace) {
        workload->Trace(result);
      } else {
        workload->Measure(result);
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << ": " << e.what()
              << "\n";
    return 1;
  }

  for (const std::string& note : result.notes) {
    std::cout << "  " << note << "\n";
  }
  for (const std::string& error : result.errors) {
    std::cout << "  ERROR: " << error << "\n";
  }
  JsonObject counts;
  for (const auto& [name, value] : result.counts) counts.Int(name, value);
  std::string errors = "[";
  for (std::size_t i = 0; i < result.errors.size(); ++i) {
    errors += (i > 0 ? ", " : "") + perfbench::JsonString(result.errors[i]);
  }
  errors += "]";
  std::cout << JsonObject()
                   .Str("workload", options.workload)
                   .Int("seed", options.seed)
                   .Bool("trace", options.trace)
                   .Num("setup_s", result.setup_s)
                   .Int("attempted", result.attempted)
                   .Int("failed", result.failed)
                   .Raw("errors", errors)
                   .Raw("end_to_end", MetricsJson(result.end_to_end))
                   .Raw("report", MetricsJson(result.report))
                   .Raw("per_layer", MetricsJson(result.per_layer))
                   .Raw("counts", counts.str())
                   .str()
            << std::endl;
  return 0;
}
