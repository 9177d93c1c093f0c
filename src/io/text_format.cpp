#include "io/text_format.h"

#include <iomanip>
#include <limits>
#include <string>
#include <unordered_set>
#include <vector>

#include "util/error.h"

namespace actg::io {

namespace {

bool HasWhitespace(const std::string& s) {
  return s.find_first_of(" \t\r\n") != std::string::npos;
}

/// A count below \p limit, as an int index; \p what names it in the
/// out-of-range diagnostic.
int Index(const util::TextReader& reader, const std::string& token,
          std::uint64_t limit, const char* what) {
  const std::uint64_t value = reader.Count(token);
  if (value >= limit) {
    reader.Fail(std::string(what) + " out of range: " + token);
  }
  return static_cast<int>(value);
}

constexpr std::uint64_t kIntLimit = std::numeric_limits<int>::max();

}  // namespace

void WriteCtg(std::ostream& os, const ctg::Ctg& graph) {
  // Full round-trip precision for every numeric field.
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "ctg v1\n";
  if (graph.deadline_ms() > 0.0) {
    os << "deadline " << graph.deadline_ms() << "\n";
  }
  for (TaskId t : graph.TaskIds()) {
    const ctg::Task& task = graph.task(t);
    ACTG_CHECK(!task.name.empty() && !HasWhitespace(task.name),
               "Task names must be non-empty and whitespace-free");
    os << "task " << task.name << ' '
       << (task.join == ctg::JoinType::kOr ? "or" : "and") << "\n";
  }
  for (EdgeId eid : graph.EdgeIds()) {
    const ctg::Edge& e = graph.edge(eid);
    os << "edge " << e.src.value << ' ' << e.dst.value << ' '
       << e.comm_kbytes << ' ';
    if (e.condition.has_value()) {
      os << e.condition->outcome;
    } else {
      os << '-';
    }
    os << "\n";
  }
  for (TaskId fork : graph.ForkIds()) {
    const ctg::ForkInfo& info = graph.Fork(fork);
    if (info.outcome_labels.empty()) continue;
    os << "labels " << fork.value;
    for (const std::string& label : info.outcome_labels) {
      ACTG_CHECK(!label.empty() && !HasWhitespace(label),
                 "Outcome labels must be non-empty and whitespace-free");
      os << ' ' << label;
    }
    os << "\n";
  }
  os << "end\n";
}

namespace {

/// Parser bodies; they report malformed input by throwing
/// InvalidArgument, which the Parse* boundaries below convert to the
/// value-semantic util::Error.
ctg::Ctg ParseCtgImpl(util::TextReader& reader) {
  std::vector<std::string> tokens;
  reader.Header("ctg v1", tokens);

  ctg::CtgBuilder builder;
  int task_count = 0;
  double deadline = 0.0;
  std::unordered_set<std::string> task_names;
  const auto task_id = [&](const std::string& token) {
    return TaskId{Index(reader, token, task_count, "task index")};
  };

  while (reader.Next(tokens)) {
    const std::string& directive = tokens[0];
    if (directive == "end") {
      ctg::Ctg graph = std::move(builder).Build();
      if (deadline > 0.0) graph.SetDeadline(deadline);
      return graph;
    }
    if (directive == "deadline") {
      if (tokens.size() != 2) reader.Fail("deadline needs one value");
      deadline = reader.Number(tokens[1]);
      if (deadline <= 0.0) reader.Fail("deadline must be positive");
    } else if (directive == "task") {
      if (tokens.size() != 3) reader.Fail("task needs <name> <and|or>");
      if (!task_names.insert(tokens[1]).second) {
        reader.Fail("duplicate task name '" + tokens[1] + "'");
      }
      if (tokens[2] == "or") {
        builder.AddOrTask(tokens[1]);
      } else if (tokens[2] == "and") {
        builder.AddTask(tokens[1]);
      } else {
        reader.Fail("task kind must be 'and' or 'or'");
      }
      ++task_count;
    } else if (directive == "edge") {
      if (tokens.size() != 5) {
        reader.Fail("edge needs <src> <dst> <comm_kb> <outcome|->");
      }
      const TaskId src = task_id(tokens[1]);
      const TaskId dst = task_id(tokens[2]);
      const double comm = reader.Number(tokens[3]);
      if (tokens[4] == "-") {
        builder.AddEdge(src, dst, comm);
      } else {
        builder.AddConditionalEdge(
            src, dst, Index(reader, tokens[4], kIntLimit, "outcome"), comm);
      }
    } else if (directive == "labels") {
      if (tokens.size() < 4) {
        reader.Fail("labels needs <fork> and >= 2 labels");
      }
      builder.SetOutcomeLabels(
          task_id(tokens[1]),
          std::vector<std::string>(tokens.begin() + 2, tokens.end()));
    } else {
      reader.Fail("unknown directive '" + directive + "'");
    }
  }
  reader.Fail("missing 'end'");
}

}  // namespace

util::Expected<ctg::Ctg> ParseCtg(std::istream& is) {
  util::TextReader reader(is, "text_format");
  return ParseCtg(reader);
}

util::Expected<ctg::Ctg> ParseCtg(util::TextReader& reader) {
  return util::TryParse([&] { return ParseCtgImpl(reader); });
}

void WritePlatform(std::ostream& os, const arch::Platform& platform) {
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "platform v1\n";
  os << "dims " << platform.task_count() << ' ' << platform.pe_count()
     << "\n";
  for (PeId pe : platform.PeIds()) {
    const arch::PeInfo& info = platform.pe(pe);
    ACTG_CHECK(!info.name.empty() && !HasWhitespace(info.name),
               "PE names must be non-empty and whitespace-free");
    os << "pe " << pe.value << ' ' << info.name << ' '
       << info.min_speed_ratio << "\n";
    if (!info.speed_levels.empty()) {
      os << "levels " << pe.value;
      for (double level : info.speed_levels) os << ' ' << level;
      os << "\n";
    }
  }
  for (std::size_t t = 0; t < platform.task_count(); ++t) {
    for (PeId pe : platform.PeIds()) {
      const TaskId task{static_cast<int>(t)};
      os << "cost " << t << ' ' << pe.value << ' '
         << platform.Wcet(task, pe) << ' ' << platform.Energy(task, pe)
         << "\n";
    }
  }
  for (PeId a : platform.PeIds()) {
    for (PeId b : platform.PeIds()) {
      if (a.value >= b.value) continue;
      os << "link " << a.value << ' ' << b.value << ' '
         << platform.Bandwidth(a, b) << ' ' << platform.TxEnergyPerKb(a, b)
         << "\n";
    }
  }
  os << "end\n";
}

namespace {

arch::Platform ParsePlatformImpl(util::TextReader& reader) {
  std::vector<std::string> tokens;
  reader.Header("platform v1", tokens);
  if (!reader.Next(tokens) || tokens.size() != 3 || tokens[0] != "dims") {
    reader.Fail("expected 'dims <tasks> <pes>'");
  }
  const int task_count = Index(reader, tokens[1], kIntLimit, "dims");
  const int pe_count = Index(reader, tokens[2], kIntLimit, "dims");
  if (task_count == 0 || pe_count == 0) {
    reader.Fail("dims must be positive");
  }
  arch::PlatformBuilder builder(static_cast<std::size_t>(task_count),
                                static_cast<std::size_t>(pe_count));
  const auto pe_id = [&](const std::string& token) {
    return PeId{Index(reader, token, pe_count, "PE index")};
  };
  const auto task_id = [&](const std::string& token) {
    return TaskId{Index(reader, token, task_count, "task index")};
  };

  while (reader.Next(tokens)) {
    const std::string& directive = tokens[0];
    if (directive == "end") {
      return std::move(builder).Build();
    }
    if (directive == "pe") {
      if (tokens.size() != 4) {
        reader.Fail("pe needs <index> <name> <min_speed_ratio>");
      }
      const PeId pe = pe_id(tokens[1]);
      builder.SetPeName(pe, tokens[2]);
      builder.SetMinSpeedRatio(pe, reader.Number(tokens[3]));
    } else if (directive == "levels") {
      if (tokens.size() < 3) reader.Fail("levels needs <pe> <ratios...>");
      std::vector<double> levels;
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        levels.push_back(reader.Number(tokens[i]));
      }
      builder.SetSpeedLevels(pe_id(tokens[1]), std::move(levels));
    } else if (directive == "cost") {
      if (tokens.size() != 5) {
        reader.Fail("cost needs <task> <pe> <wcet> <energy>");
      }
      builder.SetTaskCost(task_id(tokens[1]), pe_id(tokens[2]),
                          reader.Number(tokens[3]),
                          reader.Number(tokens[4]));
    } else if (directive == "link") {
      if (tokens.size() != 5) {
        reader.Fail("link needs <a> <b> <bandwidth> <tx_energy>");
      }
      builder.SetLink(pe_id(tokens[1]), pe_id(tokens[2]),
                      reader.Number(tokens[3]), reader.Number(tokens[4]));
    } else {
      reader.Fail("unknown directive '" + directive + "'");
    }
  }
  reader.Fail("missing 'end'");
}

}  // namespace

util::Expected<arch::Platform> ParsePlatform(std::istream& is) {
  util::TextReader reader(is, "text_format");
  return ParsePlatform(reader);
}

util::Expected<arch::Platform> ParsePlatform(util::TextReader& reader) {
  return util::TryParse([&] { return ParsePlatformImpl(reader); });
}

}  // namespace actg::io
