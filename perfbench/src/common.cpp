#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>

#include <sys/resource.h>

#include "util/rng.h"
#include "util/stats.h"

namespace perfbench {

double SecondsBetween(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

double Quantile(std::vector<double> samples, double q) {
  return samples.empty() ? 0.0 : actg::util::Quantile(std::move(samples), q);
}

double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

Tail HighestResolvedTail(const std::vector<double>& samples) {
  const double n = static_cast<double>(samples.size());
  const std::pair<const char*, double> kTails[] = {
      {"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.9}};
  for (const auto& [label, q] : kTails) {
    if (n * (1.0 - q) >= 10.0) return {label, Quantile(samples, q)};
  }
  return {"p50", Quantile(samples, 0.5)};
}

std::string DescribeTiming(const std::vector<double>& samples,
                           const std::string& unit) {
  const Tail tail = HighestResolvedTail(samples);
  std::ostringstream os;
  os << "median " << Median(samples) << " " << unit << ", " << tail.label
     << " " << tail.value << " " << unit << " (n = " << samples.size()
     << ")";
  return os.str();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t k) {
  return actg::util::Random(seed).Fork(k).engine().Next();
}

JsonObject& JsonObject::Num(const std::string& key, double value) {
  fields_.emplace_back(key, JsonNumber(value));
  return *this;
}

JsonObject& JsonObject::Int(const std::string& key, std::uint64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonObject& JsonObject::Str(const std::string& key,
                            const std::string& value) {
  fields_.emplace_back(key, JsonString(value));
  return *this;
}

JsonObject& JsonObject::Bool(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

JsonObject& JsonObject::Raw(const std::string& key,
                            const std::string& json) {
  fields_.emplace_back(key, json);
  return *this;
}

std::string JsonObject::str() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(fields_[i].first);
    out += ": ";
    out += fields_[i].second;
  }
  return out + "}";
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += ' ';
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace perfbench
