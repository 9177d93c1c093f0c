/// \file actg_fuzz.cpp
/// Property-based fuzzer for the whole scheduling pipeline.
///
///   actg_fuzz --cases N [--seed S] [--start K] [--out DIR]
///       Generate N structured-random cases from root seed S (case k is
///       a pure function of (S, K + k)), run DLS -> stretch -> simulate
///       on each and oracle-check every product. Any violation is
///       greedily shrunk and written as a replayable repro file
///       repro-<seed>-<index>.fuzzcase under DIR (default: current
///       directory). Exit status 1 when any case failed.
///   actg_fuzz --replay FILE...
///       Re-run committed repro files (tests/corpus/check/*.fuzzcase)
///       through the same pipeline + oracle. Exit 1 on any violation.
///   actg_fuzz --emit N DIR [--seed S] [--start K]
///       Write the repro files of cases K..K+N-1 to DIR without running
///       them (corpus seeding).
///
/// Everything is deterministic: a failing (seed, index) pair printed by
/// a CI run reproduces locally with --cases 1 --seed S --start INDEX.

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "check/fuzz.h"
#include "check/validator.h"
#include "cli_common.h"
#include "util/atomic_file.h"
#include "util/error.h"
#include "util/rng.h"

namespace {

using namespace actg;

int Usage() {
  std::cerr
      << "usage: actg_fuzz --cases N [--seed S] [--start K] [--out DIR]\n"
      << "       actg_fuzz --replay FILE...\n"
      << "       actg_fuzz --emit N DIR [--seed S] [--start K]\n";
  return 2;
}

std::string ReproPath(const std::string& out_dir, std::uint64_t seed,
                      std::uint64_t index) {
  std::ostringstream name;
  name << "repro-" << seed << "-" << index << ".fuzzcase";
  return (std::filesystem::path(out_dir) / name.str()).string();
}

/// Shrinks the failing case against "any violation of the same leading
/// rule still fires" and writes the repro. Returns the repro path.
std::string ShrinkAndDump(const check::FuzzCase& failing,
                          const check::Report& report,
                          const std::string& out_dir, std::uint64_t seed,
                          std::uint64_t index) {
  const std::string rule = report.violations().front().rule;
  const check::FuzzCase shrunk = check::Shrink(
      failing, [&rule](const check::FuzzCase& cand) {
        return check::RunCase(cand).Has(rule);
      });
  std::filesystem::create_directories(out_dir);
  const std::string path = ReproPath(out_dir, seed, index);
  util::AtomicFile file(path);
  file.os() << "# rule: " << rule << "\n";
  file.os() << "# seed " << seed << " index " << index << "\n";
  check::WriteRepro(file.os(), shrunk);
  file.Commit().ThrowIfError();
  return path;
}

int RunFuzz(std::uint64_t cases, std::uint64_t seed, std::uint64_t start,
            const std::string& out_dir) {
  const util::Random root(seed);
  std::uint64_t failures = 0;
  for (std::uint64_t i = start; i < start + cases; ++i) {
    const check::FuzzCase c = check::Materialize(check::RandomSpec(root, i));
    const check::Report report = check::RunCase(c);
    if (!report.ok()) {
      ++failures;
      std::cerr << "FAIL seed=" << seed << " index=" << i << "\n"
                << report.ToString() << "\n";
      const std::string path =
          ShrinkAndDump(c, report, out_dir, seed, i);
      std::cerr << "repro written to " << path << "\n";
    }
    if ((i - start + 1) % 100 == 0) {
      std::cout << (i - start + 1) << "/" << cases << " cases, "
                << failures << " failure(s)\n";
    }
  }
  std::cout << "ran " << cases << " case(s), seed " << seed << ", "
            << failures << " failure(s)\n";
  return failures == 0 ? 0 : 1;
}

int RunReplay(const std::vector<std::string>& files) {
  int status = 0;
  for (const std::string& file : files) {
    std::ifstream is(file);
    if (!is) {
      std::cerr << file << ": cannot open\n";
      status = 1;
      continue;
    }
    util::Expected<check::FuzzCase> c = check::ParseRepro(is);
    if (!c.ok()) {
      std::cerr << file << ": " << c.error().message() << "\n";
      status = 1;
      continue;
    }
    const check::Report report = check::RunCase(c.value());
    if (report.ok()) {
      std::cout << file << ": ok\n";
    } else {
      std::cerr << file << ": FAIL\n" << report.ToString() << "\n";
      status = 1;
    }
  }
  return status;
}

int RunEmit(std::uint64_t count, const std::string& out_dir,
            std::uint64_t seed, std::uint64_t start) {
  const util::Random root(seed);
  std::filesystem::create_directories(out_dir);
  for (std::uint64_t i = start; i < start + count; ++i) {
    const check::FuzzCase c = check::Materialize(check::RandomSpec(root, i));
    const std::string path = ReproPath(out_dir, seed, i);
    util::AtomicFile file(path);
    file.os() << "# seed " << seed << " index " << i << "\n";
    check::WriteRepro(file.os(), c);
    file.Commit().ThrowIfError();
    std::cout << path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t cases = 0;
  std::uint64_t seed = 1;
  std::uint64_t start = 0;
  try {
    cases = cli::CountFlag(argc, argv, "--cases", 0);
    seed = cli::SeedFlag(argc, argv, 1);
    start = cli::CountFlag(argc, argv, "--start", 0);
  } catch (const InvalidArgument& e) {
    return cli::Fail("actg_fuzz", e.what(), 2);
  }
  const std::string out_dir = cli::StringFlag(argc, argv, "--out", ".");
  cli::TakeFlag(argc, argv, "--cases");
  cli::TakeFlag(argc, argv, "--seed");
  cli::TakeFlag(argc, argv, "--start");
  cli::TakeFlag(argc, argv, "--out");
  std::vector<std::string> replay;
  std::uint64_t emit_count = 0;
  std::string emit_dir;
  bool emit = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (arg == "--replay") {
      while (i + 1 < argc && argv[i + 1][0] != '-') {
        replay.emplace_back(argv[++i]);
      }
      if (replay.empty()) return Usage();
    } else if (arg == "--emit") {
      const char* n = next();
      const char* d = next();
      if (n == nullptr || d == nullptr) return Usage();
      const std::optional<std::size_t> count = cli::ParseCount(n);
      if (!count.has_value()) return Usage();
      emit = true;
      emit_count = *count;
      emit_dir = d;
    } else {
      cli::Fail("actg_fuzz", "unknown argument '" + arg + "'", 2);
      return Usage();
    }
  }

  try {
    if (!replay.empty()) return RunReplay(replay);
    if (emit) return RunEmit(emit_count, emit_dir, seed, start);
    if (cases == 0) return Usage();
    return RunFuzz(cases, seed, start, out_dir);
  } catch (const std::exception& e) {
    // RunCase contains pipeline exceptions; anything escaping here is a
    // bug in the fuzzer itself.
    std::cerr << "fatal: " << e.what() << "\n";
    return 3;
  }
}
