/// \file condition_bitset.h
/// Packed bitset representation of the condition algebra.
///
/// The DNF algebra in condition.h is the authoritative representation;
/// its conjunction/implication/compatibility checks walk sorted
/// std::vector<Condition> lists and allocate on every operation. On the
/// reschedule hot path (mutual-exclusion computation, path
/// realizability during enumeration, guard-vs-minterm compatibility
/// during stretching) only *boolean predicates* of guards are needed,
/// and those are form-independent — so they can be answered on a
/// compiled representation.
///
/// A ConditionSpace assigns every fork outcome one bit: fork f with k
/// outcomes owns a contiguous k-bit field, and fields are packed into
/// words() = max(1, ceil(bit_count / 64)) 64-bit words, so every graph
/// compiles. A minterm compiles to 2 * words() words:
///   bits — the chosen outcome bit of every constrained fork;
///   mask — the full field mask of every constrained fork;
/// and the algebra collapses to word ops:
///   compatible(a, b)  <=>  (a.bits & b.mask) == (b.bits & a.mask)
///   a implies b       <=>  b.bits subset-of a.bits
///   conjoin(a, b)      =   {a.bits | b.bits, a.mask | b.mask}
/// A guard compiles to a set of bit minterms stored back to back in one
/// flat word vector; satisfiability tests are loops of the minterm ops
/// with no allocation.
///
/// Encoding fails only on garbage input (an unknown fork or an outcome
/// outside the fork's arity), which a graph built by CtgBuilder never
/// contains; the compile entry points report it as `false`.

#ifndef ACTG_CTG_CONDITION_BITSET_H
#define ACTG_CTG_CONDITION_BITSET_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ctg/condition.h"
#include "ctg/ids.h"

namespace actg::ctg {

/// Read-only view of one compiled minterm: words() words of chosen
/// outcome bits followed by words() words of constrained-field masks.
/// A view into a BitGuard, an encode buffer or a flat pool; it never
/// owns storage.
class BitMinterm {
 public:
  /// \p words holds 2 * w words: the bits, then the mask.
  explicit BitMinterm(std::span<const std::uint64_t> words)
      : words_(words) {}

  std::size_t words() const { return words_.size() / 2; }
  /// All 2 * words() words, bits then mask.
  std::span<const std::uint64_t> data() const { return words_; }

  /// The constant-true minterm (no fork constrained).
  bool IsTrue() const {
    for (std::size_t w = 0; w < words(); ++w) {
      if (words_[w] != 0) return false;
    }
    return true;
  }

  /// True when the two minterms can hold simultaneously: every fork
  /// constrained by both is constrained to the same outcome.
  bool CompatibleWith(BitMinterm other) const {
    const std::size_t n = words();
    for (std::size_t w = 0; w < n; ++w) {
      if ((words_[w] & other.words_[n + w]) !=
          (other.words_[w] & words_[n + w])) {
        return false;
      }
    }
    return true;
  }

  /// True when this minterm implies \p other: other's conditions are a
  /// subset of this minterm's conditions.
  bool Implies(BitMinterm other) const {
    for (std::size_t w = 0; w < words(); ++w) {
      if ((other.words_[w] & ~words_[w]) != 0) return false;
    }
    return true;
  }

  friend bool operator==(BitMinterm a, BitMinterm b) {
    return std::ranges::equal(a.words_, b.words_);
  }

 private:
  std::span<const std::uint64_t> words_;
};

/// Disjunction of bit minterms (the compiled form of a Guard), stored as
/// one flat word vector of 2 * words() words per minterm. The empty set
/// is the constant-false guard. Storage is reusable: Reset() and
/// copy-assignment keep capacity, so a guard living in a workspace
/// performs no steady-state allocation.
///
/// The set is kept free of duplicates and absorbed minterms (a & b is
/// dropped when a alone is present), which keeps conjunction products
/// small; it is NOT the canonical form of Guard::Simplify (no
/// complementary merge). Only form-independent predicates — emptiness
/// and satisfiability of conjunctions — are exposed, so the weaker
/// normalization never changes an answer.
class BitGuard {
 public:
  BitGuard() = default;

  std::size_t minterm_count() const {
    return words_ == 0 ? 0 : data_.size() / (2 * words_);
  }
  BitMinterm minterm(std::size_t k) const {
    return BitMinterm(std::span(data_).subspan(2 * words_ * k, 2 * words_));
  }
  /// The minterms back to back, 2 * words() words each.
  std::span<const std::uint64_t> data() const { return data_; }

  bool IsFalse() const { return data_.empty(); }

  /// Resets to the constant-false guard over minterms of \p words words
  /// per half, keeping capacity.
  void Reset(std::size_t words) {
    words_ = words;
    data_.clear();
  }

  /// Adds one disjunct, applying dedup and absorption. \p m must have
  /// the words per half of the last Reset() and must not view this
  /// guard's own storage.
  void AddMinterm(BitMinterm m);

  /// Disjunction with another guard.
  void OrWith(const BitGuard& other) {
    const std::size_t n = other.minterm_count();
    for (std::size_t k = 0; k < n; ++k) {
      AddMinterm(other.minterm(k));
    }
  }

  /// Conjunction with a single minterm: every incompatible disjunct is
  /// dropped, the rest are extended in place.
  void AndWithMinterm(BitMinterm m);

  /// Conjunction with another guard (DNF product). \p scratch provides
  /// reusable storage for the product; its previous content is lost.
  void AndWith(const BitGuard& other, BitGuard& scratch);

  /// True when this guard and \p m can hold simultaneously
  /// (satisfiability of the conjunction; form-independent).
  bool CompatibleWith(BitMinterm m) const {
    const std::size_t n = minterm_count();
    for (std::size_t k = 0; k < n; ++k) {
      if (minterm(k).CompatibleWith(m)) return true;
    }
    return false;
  }

  /// True when the two guards can hold simultaneously.
  bool CompatibleWith(const BitGuard& other) const {
    const std::size_t n = minterm_count();
    for (std::size_t k = 0; k < n; ++k) {
      if (other.CompatibleWith(minterm(k))) return true;
    }
    return false;
  }

  /// Syntactic implication check mirroring Guard::Implies: every
  /// disjunct of this guard implies some disjunct of \p other.
  bool Implies(const BitGuard& other) const {
    const std::size_t n = minterm_count();
    const std::size_t m = other.minterm_count();
    for (std::size_t k = 0; k < n; ++k) {
      bool covered = false;
      for (std::size_t j = 0; j < m; ++j) {
        if (minterm(k).Implies(other.minterm(j))) {
          covered = true;
          break;
        }
      }
      if (!covered) return false;
    }
    return true;
  }

  friend bool operator==(const BitGuard&, const BitGuard&) = default;

 private:
  /// Normalizes the last minterm against the others: drops it when it
  /// implies one of them, else drops every one that implies it.
  void AbsorbLast();
  /// Erases minterm \p k, keeping the order of the rest.
  void EraseMinterm(std::size_t k);

  std::size_t words_ = 0;
  std::vector<std::uint64_t> data_;
};

/// Bit layout of a set of forks: fork f's outcomes 0..k-1 occupy a
/// contiguous k-bit field, packed into as many words as the fields need.
class ConditionSpace {
 public:
  /// Layout over \p forks with the given outcome arities (parallel
  /// vectors). Requires valid, distinct forks and arities >= 2 (what
  /// CtgBuilder guarantees); throws actg::InvalidArgument otherwise.
  ConditionSpace(const std::vector<TaskId>& forks,
                 const std::vector<int>& arities);

  /// Total packed width in bits.
  std::size_t bit_count() const { return bit_count_; }

  /// Words per bits/mask half of a compiled minterm:
  /// max(1, ceil(bit_count() / 64)).
  std::size_t words() const { return words_; }

  /// ORs a single condition into \p out (2 * words() words). Returns
  /// false (and leaves \p out untouched) for unknown forks or
  /// out-of-range outcomes.
  bool Encode(const Condition& c, std::span<std::uint64_t> out) const;

  /// Compiles a minterm into \p out, resized to 2 * words() words
  /// (capacity kept); false on any garbage condition.
  bool Encode(const Minterm& m, std::vector<std::uint64_t>& out) const;

  /// Compiles a guard; false when any minterm fails to compile.
  bool Encode(const Guard& g, BitGuard& out) const;

  /// Compiles a full branch assignment into a minterm constraining
  /// every fork of the space to its selected outcome, in \p out as for
  /// Encode(Minterm). Forks left unassigned (outcome < 0) stay
  /// unconstrained. Returns false on out-of-range outcomes.
  bool EncodeAssignment(const BranchAssignment& assignment,
                        std::vector<std::uint64_t>& out) const;

 private:
  struct Field {
    int offset = -1;  ///< first bit; -1 when the task is not a fork
    int width = 0;
  };

  const Field* FieldOf(TaskId fork) const;

  std::vector<Field> fields_;  // dense by task index
  std::size_t bit_count_ = 0;
  std::size_t words_ = 1;
};

}  // namespace actg::ctg

#endif  // ACTG_CTG_CONDITION_BITSET_H
