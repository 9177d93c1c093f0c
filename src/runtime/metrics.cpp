#include "runtime/metrics.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace actg::runtime {

Metrics& Metrics::Global() {
  static Metrics metrics;
  return metrics;
}

void Metrics::Increment(const std::string& name, std::uint64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] += delta;
}

std::uint64_t Metrics::counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

void Metrics::Observe(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  observations_[name].push_back(value);
}

std::size_t Metrics::samples(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = observations_.find(name);
  return it == observations_.end() ? 0 : it->second.size();
}

double Metrics::QuantileOf(const std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  q = std::clamp(q, 0.0, 1.0);
  // Nearest rank: the smallest sample with at least q of the mass at or
  // below it.
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t index =
      rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

double Metrics::quantile(const std::string& name, double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = observations_.find(name);
  return it == observations_.end() ? 0.0 : QuantileOf(it->second, q);
}

std::map<std::string, std::uint64_t> Metrics::Counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

void Metrics::MergeFrom(const Metrics& other) {
  ACTG_CHECK(this != &other, "Metrics::MergeFrom: cannot merge a registry "
                             "into itself");
  std::scoped_lock lock(mu_, other.mu_);
  for (const auto& [name, value] : other.counters_) {
    counters_[name] += value;
  }
  for (const auto& [name, samples] : other.observations_) {
    auto& mine = observations_[name];
    mine.insert(mine.end(), samples.begin(), samples.end());
  }
}

void Metrics::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  observations_.clear();
}

void Metrics::WriteText(std::ostream& os) const {
  for (const auto& [name, value] : Counters()) {
    os << name << " " << value << "\n";
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, samples] : observations_) {
    os << name << "_count " << samples.size() << "\n";
    os << name << "_p50 " << QuantileOf(samples, 0.5) << "\n";
    os << name << "_p99 " << QuantileOf(samples, 0.99) << "\n";
  }
}

void Metrics::WriteCsv(std::ostream& os) const {
  os << "metric,kind,value\n";
  for (const auto& [name, value] : Counters()) {
    os << name << ",counter," << value << "\n";
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, samples] : observations_) {
    os << name << ",dist_count," << samples.size() << "\n";
    os << name << ",dist_p50," << QuantileOf(samples, 0.5) << "\n";
    os << name << ",dist_p99," << QuantileOf(samples, 0.99) << "\n";
  }
}

}  // namespace actg::runtime
