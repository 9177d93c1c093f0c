/// \file text_format.h
/// Line-oriented text serialization of CTGs and platforms.
///
/// Lets users keep task graphs and platform tables in version-controlled
/// files instead of C++ builders, and lets experiments be re-run on
/// externally produced graphs (e.g. converted from real TGFF output).
///
/// Format (one directive per line, in the shared grammar of
/// util/text_reader.h; indices are counts):
///
///   ctg v1
///   deadline <ms>
///   task <name> <and|or>                      # index = order of appearance
///   edge <src> <dst> <comm_kb> <outcome|->    # '-' = unconditional
///   labels <fork> <label0> <label1> ...
///   end
///
///   platform v1
///   dims <tasks> <pes>
///   pe <index> <name> <min_speed_ratio>
///   levels <pe> <ratio> ...                   # optional discrete DVFS
///   cost <task> <pe> <wcet_ms> <energy_mj>
///   link <a> <b> <bandwidth_kb_per_ms> <tx_energy_mj_per_kb>
///   end
///
/// Task and PE names must not contain whitespace, and task names must
/// be unique within one graph.

#ifndef ACTG_IO_TEXT_FORMAT_H
#define ACTG_IO_TEXT_FORMAT_H

#include <istream>
#include <ostream>

#include "arch/platform.h"
#include "ctg/graph.h"
#include "util/error.h"
#include "util/text_reader.h"

namespace actg::io {

/// Serializes \p graph. Throws actg::InvalidArgument if a task name
/// contains whitespace.
void WriteCtg(std::ostream& os, const ctg::Ctg& graph);

/// Parses a CTG. Malformed input is reported as a util::Error carrying
/// the "text_format line N: ..." diagnostic (the Validate() ->
/// util::Error convention); the graph is re-validated through
/// CtgBuilder.
util::Expected<ctg::Ctg> ParseCtg(std::istream& is);

/// Parses a CTG embedded in an enclosing format, off its reader.
util::Expected<ctg::Ctg> ParseCtg(util::TextReader& reader);

/// Serializes \p platform.
void WritePlatform(std::ostream& os, const arch::Platform& platform);

/// Parses a platform; malformed input is reported as a util::Error
/// with a "text_format line N: ..." diagnostic.
util::Expected<arch::Platform> ParsePlatform(std::istream& is);

/// Parses a platform embedded in an enclosing format, off its reader.
util::Expected<arch::Platform> ParsePlatform(util::TextReader& reader);

}  // namespace actg::io

#endif  // ACTG_IO_TEXT_FORMAT_H
