/// \file actg_serve.cpp
/// The scheduling-as-a-service daemon front end.
///
///   actg_serve --requests <file> [--jobs N] [--report <file>]
///              [--metrics <file>] [--session-deadline MS]
///       Replay a serve-v1 request file: admit every tenant through the
///       admission controller, drive the fleet on N pool workers and
///       write the deterministic fleet report to stdout (or --report).
///       The report is byte-identical for any --jobs value; wall-clock
///       latency percentiles per SLA class go to stderr, and --metrics
///       dumps the full metrics registry (counters and latency
///       distributions) as text. --session-deadline arms the
///       cooperative watchdog: a session whose round slice outlives MS
///       wall-clock milliseconds is quarantined at its next event
///       boundary instead of stalling the round (off by default — an
///       armed watchdog makes the report timing-dependent).
///
///   actg_serve synthetic <tenants> <instances> <seed>
///       Print a deterministic synthetic serve-v1 fleet (the generator
///       behind bench_serve and the determinism tests) to stdout.
///
/// Exit status: 0 on success, 1 on a malformed request file or a
/// failed replay (diagnostic on stderr), 2 on usage errors.

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "cli_common.h"
#include "runtime/pool.h"
#include "serve/request.h"
#include "serve/server.h"
#include "util/error.h"

namespace {

using namespace actg;

constexpr const char* kTool = "actg_serve";

int Usage() {
  std::cerr << "usage:\n"
            << "  actg_serve --requests <file> [--jobs N] "
               "[--report <file>] [--metrics <file>] "
               "[--session-deadline MS]\n"
            << "  actg_serve synthetic <tenants> <instances> <seed>\n";
  return 2;
}

int RunSynthetic(int argc, char** argv) {
  if (argc != 5) return Usage();
  const auto tenants = cli::ParseCount(argv[2]);
  const auto instances = cli::ParseCount(argv[3]);
  const auto seed = cli::ParseCount(argv[4]);
  if (!tenants || !instances || !seed) return Usage();
  serve::WriteServeFile(
      std::cout,
      serve::SyntheticFleet(*tenants, *instances,
                            static_cast<std::uint64_t>(*seed)));
  return 0;
}

void PrintLatency(const serve::Server& server, std::ostream& os) {
  for (std::size_t cls = 0; cls < serve::kSlaClassCount; ++cls) {
    const auto sla = static_cast<serve::SlaClass>(cls);
    const serve::LatencyStats stats = server.Latency(sla);
    os << "latency " << serve::SlaName(sla) << " slices " << stats.samples
       << " p50_ms " << stats.p50_ms << " p99_ms " << stats.p99_ms
       << " max_ms " << stats.max_ms << " budget_overruns "
       << stats.budget_overruns << "\n";
  }
}

int RunRequests(int argc, char** argv) {
  const std::size_t jobs = runtime::ParseJobs(argc, argv);
  cli::TakeFlag(argc, argv, "--jobs");
  const std::string requests_path =
      cli::TakeFlag(argc, argv, "--requests").value_or("");
  const std::string report_path =
      cli::TakeFlag(argc, argv, "--report").value_or("");
  const std::string metrics_path =
      cli::TakeFlag(argc, argv, "--metrics").value_or("");
  const std::string deadline_text =
      cli::TakeFlag(argc, argv, "--session-deadline").value_or("");
  double session_deadline_ms = 0.0;
  if (!deadline_text.empty()) {
    char* end = nullptr;
    session_deadline_ms = std::strtod(deadline_text.c_str(), &end);
    if (end == deadline_text.c_str() || *end != '\0' ||
        session_deadline_ms < 0.0) {
      return cli::Fail(kTool,
                       "--session-deadline wants a non-negative "
                       "millisecond count, got '" +
                           deadline_text + "'",
                       2);
    }
  }
  if (argc != 1) {
    cli::Fail(kTool, std::string("unknown argument '") + argv[1] + "'", 2);
    return Usage();
  }
  if (requests_path.empty()) return Usage();

  std::ifstream is(requests_path);
  if (!is) {
    return cli::Fail(kTool, "cannot open '" + requests_path + "'");
  }

  cli::ReportSink report(report_path);
  if (!report.ok()) {
    return cli::Fail(kTool, "cannot write '" + report_path + "'");
  }

  serve::ServerOptions options;
  options.jobs = jobs;
  options.session_deadline_ms = session_deadline_ms;
  auto server = serve::RunServeFile(is, options, report.os());
  if (!server.ok()) {
    return cli::Fail(kTool, server.error().message());
  }

  PrintLatency(*server.value(), std::cerr);
  return cli::DumpMetrics(kTool, metrics_path, server.value()->metrics());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && std::strcmp(argv[1], "synthetic") == 0) {
      return RunSynthetic(argc, argv);
    }
    return RunRequests(argc, argv);
  } catch (const actg::Error& e) {
    return actg::cli::Fail(kTool, e.what());
  }
}
