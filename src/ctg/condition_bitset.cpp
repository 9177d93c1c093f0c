#include "ctg/condition_bitset.h"

#include <algorithm>

#include "util/error.h"

namespace actg::ctg {

void BitGuard::AddMinterm(BitMinterm m) {
  data_.insert(data_.end(), m.data().begin(), m.data().end());
  AbsorbLast();
}

void BitGuard::AbsorbLast() {
  // Absorption: a | (a & b) == a. Keep the weaker (implied-by) minterm.
  std::size_t last = minterm_count() - 1;
  for (std::size_t k = 0; k < last; ++k) {
    if (minterm(last).Implies(minterm(k))) {  // covers duplicates too
      EraseMinterm(last);
      return;
    }
  }
  for (std::size_t k = 0; k < last;) {
    if (minterm(k).Implies(minterm(last))) {
      EraseMinterm(k);
      --last;
    } else {
      ++k;
    }
  }
}

void BitGuard::EraseMinterm(std::size_t k) {
  const auto first =
      data_.begin() + static_cast<std::ptrdiff_t>(k * 2 * words_);
  data_.erase(first, first + static_cast<std::ptrdiff_t>(2 * words_));
}

void BitGuard::AndWithMinterm(BitMinterm m) {
  const std::size_t stride = 2 * words_;
  const std::size_t count = minterm_count();
  std::size_t kept = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (!minterm(i).CompatibleWith(m)) continue;
    std::uint64_t* dst = data_.data() + kept * stride;
    const std::uint64_t* src = data_.data() + i * stride;
    for (std::size_t w = 0; w < stride; ++w) dst[w] = src[w] | m.data()[w];
    ++kept;
  }
  data_.resize(kept * stride);
  // Conjoining can create newly absorbed pairs; re-normalize in place.
  for (std::size_t i = 0; i < kept;) {
    bool absorbed = false;
    for (std::size_t j = 0; j < kept; ++j) {
      if (i != j && minterm(i).Implies(minterm(j))) {
        absorbed = true;
        break;
      }
    }
    if (absorbed) {
      EraseMinterm(i);
      --kept;
    } else {
      ++i;
    }
  }
}

void BitGuard::AndWith(const BitGuard& other, BitGuard& scratch) {
  const std::size_t stride = 2 * words_;
  const std::size_t n = minterm_count();
  const std::size_t m = other.minterm_count();
  scratch.Reset(words_);
  for (std::size_t i = 0; i < n; ++i) {
    const BitMinterm a = minterm(i);
    for (std::size_t j = 0; j < m; ++j) {
      const BitMinterm b = other.minterm(j);
      if (!a.CompatibleWith(b)) continue;
      // The product a & b is built in place at the tail of the scratch.
      const std::size_t at = scratch.data_.size();
      scratch.data_.resize(at + stride);
      for (std::size_t w = 0; w < stride; ++w) {
        scratch.data_[at + w] = a.data()[w] | b.data()[w];
      }
      scratch.AbsorbLast();
    }
  }
  data_.swap(scratch.data_);
}

ConditionSpace::ConditionSpace(const std::vector<TaskId>& forks,
                               const std::vector<int>& arities) {
  ACTG_CHECK(forks.size() == arities.size(),
             "ConditionSpace needs one arity per fork");
  std::size_t max_index = 0;
  for (TaskId fork : forks) {
    ACTG_CHECK(fork.valid(), "ConditionSpace fork id must be valid");
    max_index = std::max(max_index, fork.index());
  }
  fields_.assign(forks.empty() ? 0 : max_index + 1, Field{});
  std::size_t offset = 0;
  for (std::size_t i = 0; i < forks.size(); ++i) {
    const int width = arities[i];
    ACTG_CHECK(width >= 2, "ConditionSpace fork arity must be >= 2");
    Field& f = fields_[forks[i].index()];
    ACTG_CHECK(f.offset < 0, "ConditionSpace forks must be distinct");
    f.offset = static_cast<int>(offset);
    f.width = width;
    offset += static_cast<std::size_t>(width);
  }
  bit_count_ = offset;
  words_ = std::max<std::size_t>(1, (bit_count_ + 63) / 64);
}

const ConditionSpace::Field* ConditionSpace::FieldOf(TaskId fork) const {
  if (!fork.valid() || fork.index() >= fields_.size()) return nullptr;
  const Field& f = fields_[fork.index()];
  return f.offset >= 0 ? &f : nullptr;
}

bool ConditionSpace::Encode(const Condition& c,
                            std::span<std::uint64_t> out) const {
  const Field* f = FieldOf(c.fork);
  if (f == nullptr || c.outcome < 0 || c.outcome >= f->width) return false;
  const std::size_t bit = static_cast<std::size_t>(f->offset + c.outcome);
  out[bit / 64] |= std::uint64_t{1} << (bit % 64);
  for (int o = 0; o < f->width; ++o) {
    const std::size_t b = static_cast<std::size_t>(f->offset + o);
    out[words_ + b / 64] |= std::uint64_t{1} << (b % 64);
  }
  return true;
}

bool ConditionSpace::Encode(const Minterm& m,
                            std::vector<std::uint64_t>& out) const {
  out.assign(2 * words_, 0);
  for (const Condition& c : m.conditions()) {
    if (!Encode(c, out)) return false;
  }
  return true;
}

bool ConditionSpace::Encode(const Guard& g, BitGuard& out) const {
  out.Reset(words_);
  std::vector<std::uint64_t> bm;
  for (const Minterm& m : g.minterms()) {
    if (!Encode(m, bm)) return false;
    out.AddMinterm(BitMinterm(bm));
  }
  return true;
}

bool ConditionSpace::EncodeAssignment(const BranchAssignment& assignment,
                                      std::vector<std::uint64_t>& out) const {
  out.assign(2 * words_, 0);
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    const Field& f = fields_[i];
    if (f.offset < 0) continue;
    const TaskId fork{static_cast<int>(i)};
    const int outcome =
        fork.index() < assignment.size() ? assignment.Get(fork) : -1;
    if (outcome < 0) continue;  // fork left unconstrained
    if (!Encode(Condition{fork, outcome}, out)) return false;
  }
  return true;
}

}  // namespace actg::ctg
