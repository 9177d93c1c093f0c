#include "runtime/metrics.h"

#include "util/error.h"

namespace actg::runtime {

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
  distributions_.try_emplace(name, util::Histogram::Log())
      .first->second.Observe(value);
}

util::Histogram Metrics::distribution(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = distributions_.find(name);
  return it == distributions_.end() ? util::Histogram::Log() : it->second;
}

std::size_t Metrics::samples(const std::string& name) const {
  return distribution(name).count();
}

double Metrics::quantile(const std::string& name, double q) const {
  return distribution(name).Quantile(q);
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
  for (const auto& [name, hist] : other.distributions_) {
    const auto [it, inserted] = distributions_.try_emplace(name, hist);
    if (!inserted) it->second.Merge(hist);
  }
}

void Metrics::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  distributions_.clear();
}

void Metrics::WriteText(std::ostream& os) const {
  for (const auto& [name, value] : Counters()) {
    os << name << " " << value << "\n";
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, hist] : distributions_) {
    os << name << "_count " << hist.count() << "\n";
    os << name << "_p50 " << hist.Quantile(0.5) << "\n";
    os << name << "_p99 " << hist.Quantile(0.99) << "\n";
  }
}

void Metrics::WriteCsv(std::ostream& os) const {
  os << "metric,kind,value\n";
  for (const auto& [name, value] : Counters()) {
    os << name << ",counter," << value << "\n";
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, hist] : distributions_) {
    os << name << ",dist_count," << hist.count() << "\n";
    os << name << ",dist_p50," << hist.Quantile(0.5) << "\n";
    os << name << ",dist_p99," << hist.Quantile(0.99) << "\n";
  }
}

}  // namespace actg::runtime
