#include "campaign/checkpoint.h"

#include <bit>
#include <sstream>
#include <string>
#include <utility>

#include "util/text_reader.h"

namespace actg::campaign {

namespace {

void SplitWords(__int128 value, std::uint64_t& hi, std::uint64_t& lo) {
  const auto u = static_cast<unsigned __int128>(value);
  hi = static_cast<std::uint64_t>(u >> 64);
  lo = static_cast<std::uint64_t>(u);
}

__int128 JoinWords(std::uint64_t hi, std::uint64_t lo) {
  return static_cast<__int128>(
      (static_cast<unsigned __int128>(hi) << 64) | lo);
}

std::string HexBits(double value) {
  std::ostringstream os;
  os << std::hex << std::bit_cast<std::uint64_t>(value);
  return os.str();
}

void WriteMoments(std::ostream& os, const util::Moments& m) {
  std::uint64_t sum_hi = 0, sum_lo = 0, sq_hi = 0, sq_lo = 0;
  SplitWords(m.raw_sum(), sum_hi, sum_lo);
  SplitWords(m.raw_sum_sq(), sq_hi, sq_lo);
  os << "m " << m.count() << " " << sum_hi << " " << sum_lo << " "
     << sq_hi << " " << sq_lo << "\n";
}

void WriteHistogram(std::ostream& os, const util::Histogram& h) {
  os << "h " << h.underflow() << " " << h.overflow();
  for (std::size_t b = 0; b < h.bins(); ++b) os << " " << h.bin_count(b);
  os << "\n";
}

}  // namespace

std::uint64_t FingerprintSpec(const CampaignSpec& spec) {
  std::ostringstream text;
  WriteCampaignFile(text, spec);
  // FNV-1a 64 over the canonical serialization.
  std::uint64_t fp = 0xCBF29CE484222325ULL;
  for (const char c : text.str()) {
    fp ^= static_cast<unsigned char>(c);
    fp *= 0x100000001B3ULL;
  }
  return fp;
}

void WriteCheckpoint(std::ostream& os, const CampaignSpec& spec,
                     const std::vector<char>& done,
                     const std::vector<ShardOutput>& outputs) {
  os << "checkpoint v1\n";
  os << "fingerprint " << std::hex << FingerprintSpec(spec) << std::dec
     << "\n";
  os << "shards " << spec.shards << " instances " << spec.instances
     << " cells " << spec.CellCount() << " bins " << spec.bins << "\n";
  for (std::size_t s = 0; s < outputs.size(); ++s) {
    if (s >= done.size() || done[s] == 0) continue;
    const ShardOutput& out = outputs[s];
    os << "shard " << s << " begin " << out.exec.begin << " end "
       << out.exec.end << " oracle " << out.exec.oracle_validations
       << "\n";
    const adaptive::TierCounts& t = out.exec.tiers;
    os << "tiers " << t.exact << " " << t.warm_cache << " "
       << t.warm_prior << " " << t.table << " " << t.full << " "
       << t.incremental_fallbacks << "\n";
    for (const QuarantineRecord& rec : out.exec.quarantine) {
      os << "qrec " << rec.index << " " << rec.cell << " " << rec.reason
         << " " << rec.attempts << " " << rec.detail << "\n";
    }
    for (std::size_t c = 0; c < out.cells.size(); ++c) {
      const CellStats& cell = out.cells[c];
      os << "cell " << c << " " << cell.app_instances << " "
         << cell.executions << " " << cell.deadline_misses << " "
         << cell.reschedules << " " << cell.escalations << " "
         << cell.oob_reschedules << " " << cell.recoveries << " "
         << cell.overrun_instances << " " << cell.faulted_instances
         << " " << cell.failed_pe_hits << " " << cell.oracle_sampled
         << " " << HexBits(cell.max_makespan_ms) << "\n";
      WriteMoments(os, cell.energy);
      WriteHistogram(os, cell.energy_hist);
      WriteMoments(os, cell.makespan);
      WriteHistogram(os, cell.makespan_hist);
      WriteMoments(os, cell.resched_per_app);
    }
  }
  os << "end\n";
}

namespace {

CheckpointState LoadCheckpointImpl(std::istream& is,
                                   const CampaignSpec& spec) {
  util::TextReader reader(is, "checkpoint");
  std::vector<std::string> tokens;
  reader.Header("checkpoint v1", tokens);
  if (!reader.Next(tokens) || tokens.size() != 2 ||
      tokens[0] != "fingerprint") {
    reader.Fail("expected 'fingerprint <hex>'");
  }
  {
    std::ostringstream got, want;
    got << std::hex << reader.Hex(tokens[1]);
    want << std::hex << FingerprintSpec(spec);
    if (got.str() != want.str()) {
      reader.Fail("spec fingerprint mismatch (checkpoint " + got.str() +
                  ", spec " + want.str() +
                  "): this checkpoint belongs to a different campaign");
    }
  }
  if (!reader.Next(tokens) || tokens.size() != 8 ||
      tokens[0] != "shards" || tokens[2] != "instances" ||
      tokens[4] != "cells" || tokens[6] != "bins") {
    reader.Fail("expected 'shards <S> instances <N> cells <C> bins <B>'");
  }
  if (reader.Count(tokens[1]) != spec.shards ||
      reader.Count(tokens[3]) != spec.instances ||
      reader.Count(tokens[5]) != spec.CellCount() ||
      reader.Count(tokens[7]) != spec.bins) {
    reader.Fail("population shape mismatch against the spec");
  }

  CheckpointState state;
  state.done.assign(spec.shards, 0);
  state.outputs.resize(spec.shards);
  const std::size_t cells = spec.CellCount();

  bool saw_end = false;
  while (reader.Next(tokens)) {
    if (tokens[0] == "end") {
      saw_end = true;
      break;
    }
    if (tokens[0] != "shard" || tokens.size() != 8 ||
        tokens[2] != "begin" || tokens[4] != "end" ||
        tokens[6] != "oracle") {
      reader.Fail("expected 'shard <s> begin <b> end <e> oracle <n>' "
                  "or 'end', got '" + tokens[0] + "'");
    }
    const std::size_t s = reader.Count(tokens[1]);
    if (s >= spec.shards) reader.Fail("shard index out of range");
    if (state.done[s] != 0) {
      reader.Fail("duplicate shard " + std::to_string(s));
    }
    ShardOutput& out = state.outputs[s];
    out.exec.begin = reader.Count(tokens[3]);
    out.exec.end = reader.Count(tokens[5]);
    const auto [begin, end] =
        Campaign::ShardRange(spec.instances, spec.shards, s);
    if (out.exec.begin != begin || out.exec.end != end) {
      reader.Fail("shard " + std::to_string(s) +
                  " range disagrees with the spec's partition");
    }
    out.exec.oracle_validations = reader.Count(tokens[7]);

    if (!reader.Next(tokens) || tokens.size() != 7 ||
        tokens[0] != "tiers") {
      reader.Fail("expected 'tiers <6 counters>'");
    }
    out.exec.tiers.exact = reader.Count(tokens[1]);
    out.exec.tiers.warm_cache = reader.Count(tokens[2]);
    out.exec.tiers.warm_prior = reader.Count(tokens[3]);
    out.exec.tiers.table = reader.Count(tokens[4]);
    out.exec.tiers.full = reader.Count(tokens[5]);
    out.exec.tiers.incremental_fallbacks = reader.Count(tokens[6]);

    // qrec lines (0+), then exactly `cells` cell blocks.
    out.cells.assign(cells, CellStats(spec));
    std::size_t next_cell = 0;
    while (true) {
      if (!reader.Next(tokens)) {
        reader.Fail("truncated checkpoint: shard " + std::to_string(s) +
                    " is incomplete");
      }
      if (tokens[0] == "qrec") {
        if (next_cell != 0) {
          reader.Fail("qrec lines must precede the cell blocks");
        }
        if (tokens.size() < 5) {
          reader.Fail("expected 'qrec <index> <cell> <reason> "
                      "<attempts> <detail>'");
        }
        QuarantineRecord rec;
        rec.index = reader.Count(tokens[1]);
        rec.cell = reader.Count(tokens[2]);
        if (rec.cell >= cells) reader.Fail("qrec cell out of range");
        rec.reason = tokens[3];
        rec.attempts = reader.Count(tokens[4]);
        rec.detail = reader.Rest(5);
        out.exec.quarantine.push_back(std::move(rec));
        continue;
      }
      if (tokens[0] != "cell" || tokens.size() != 14) {
        reader.Fail("expected a 'cell' block (13 fields)");
      }
      if (reader.Count(tokens[1]) != next_cell) {
        reader.Fail("cell blocks must appear in index order");
      }
      CellStats& cell = out.cells[next_cell];
      cell.app_instances = reader.Count(tokens[2]);
      cell.executions = reader.Count(tokens[3]);
      cell.deadline_misses = reader.Count(tokens[4]);
      cell.reschedules = reader.Count(tokens[5]);
      cell.escalations = reader.Count(tokens[6]);
      cell.oob_reschedules = reader.Count(tokens[7]);
      cell.recoveries = reader.Count(tokens[8]);
      cell.overrun_instances = reader.Count(tokens[9]);
      cell.faulted_instances = reader.Count(tokens[10]);
      cell.failed_pe_hits = reader.Count(tokens[11]);
      cell.oracle_sampled = reader.Count(tokens[12]);
      cell.max_makespan_ms = std::bit_cast<double>(reader.Hex(tokens[13]));

      auto read_moments = [&](util::Moments& m) {
        if (!reader.Next(tokens) || tokens.size() != 6 ||
            tokens[0] != "m") {
          reader.Fail("expected 'm <count> <sum hi lo> <sum_sq hi lo>'");
        }
        m = util::Moments::FromRaw(
            reader.Count(tokens[1]),
            JoinWords(reader.Count(tokens[2]), reader.Count(tokens[3])),
            JoinWords(reader.Count(tokens[4]), reader.Count(tokens[5])));
      };
      auto read_histogram = [&](util::Histogram& h, double hi_edge) {
        if (!reader.Next(tokens) ||
            tokens.size() != 3 + spec.bins || tokens[0] != "h") {
          reader.Fail("expected 'h <underflow> <overflow> <" +
                      std::to_string(spec.bins) + " bins>'");
        }
        std::vector<std::uint64_t> counts(spec.bins);
        for (std::size_t b = 0; b < spec.bins; ++b) {
          counts[b] = reader.Count(tokens[3 + b]);
        }
        h = util::Histogram::FromRaw(0.0, hi_edge, reader.Count(tokens[1]),
                                     reader.Count(tokens[2]),
                                     std::move(counts));
      };
      read_moments(cell.energy);
      read_histogram(cell.energy_hist, spec.energy_max_mj);
      read_moments(cell.makespan);
      read_histogram(cell.makespan_hist, spec.makespan_max_ms);
      read_moments(cell.resched_per_app);
      if (++next_cell == cells) break;
    }
    state.done[s] = 1;
  }
  if (!saw_end) {
    reader.Fail("truncated checkpoint: missing 'end'");
  }
  return state;
}

}  // namespace

util::Expected<CheckpointState> LoadCheckpoint(std::istream& is,
                                               const CampaignSpec& spec) {
  return util::TryParse([&] { return LoadCheckpointImpl(is, spec); });
}

}  // namespace actg::campaign
