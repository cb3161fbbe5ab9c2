// Random permutations π : [0, domain) → [0, domain).
//
// The BATMAP compression argument (§III-A of the paper) requires the per-table
// maps π_t to be *bijections*: a slot byte plus its position must reconstruct
// π_t(x) exactly, and distinct elements must never produce the same stored
// representation. We realize π_t as a balanced Feistel network over the
// smallest even-bit-width power-of-two domain covering `domain`, with
// cycle-walking to restrict it to [0, domain). This is a standard
// format-preserving-encryption construction: bijective by design, O(1)
// evaluation, and seedable.
//
// A Feistel evaluation costs 7 mixing rounds per walk step, and the cuckoo
// builder evaluates π_t several times per element. For domains up to
// kMaxTableDomain, π is therefore served from a u16 lookup table holding the
// Feistel network's own outputs, so results are identical with or without it.
// A table is shared process-wide by every permutation of the same (domain,
// seed), built on the first evaluation, and freed with the last permutation
// that uses it. π⁻¹ always runs the network: nothing on a build or query path
// calls it.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "util/check.hpp"

namespace repro::hash {

class FeistelPermutation {
 public:
  /// Largest domain whose π is served from a lookup table (2 B per element).
  /// Building one costs a walk per element, which pays off only when a
  /// process evaluates π far more often than that: the measured universes
  /// (8k and 60k elements) are, sparse larger ones need not be.
  static constexpr std::uint64_t kMaxTableDomain = 1ull << 16;

  /// Identity-sized placeholder (domain 1).
  FeistelPermutation() : FeistelPermutation(1, 0) {}

  FeistelPermutation(std::uint64_t domain, std::uint64_t seed);

  /// π(x); requires x < domain().
  std::uint64_t operator()(std::uint64_t x) const;

  /// π⁻¹(y); requires y < domain().
  std::uint64_t inverse(std::uint64_t y) const;

  std::uint64_t domain() const { return domain_; }

 private:
  static constexpr int kRounds = 7;

  struct Table;  // permutation.cpp
  static std::shared_ptr<Table> shared_table(std::uint64_t domain,
                                             std::uint64_t seed);

  std::uint64_t walk_forward(std::uint64_t x) const;
  const std::uint16_t* table() const;

  std::uint64_t encrypt_once(std::uint64_t x) const;
  std::uint64_t decrypt_once(std::uint64_t y) const;
  std::uint64_t round_fn(std::uint64_t half, std::uint64_t key) const;

  std::uint64_t domain_ = 1;
  unsigned half_bits_ = 1;
  std::uint64_t half_mask_ = 1;
  std::array<std::uint64_t, kRounds> keys_{};
  std::shared_ptr<Table> table_;  // null above kMaxTableDomain
};

/// The three shared permutations π_1, π_2, π_3 of the batmap layout.
class PermutationTriple {
 public:
  PermutationTriple() = default;
  PermutationTriple(std::uint64_t domain, std::uint64_t seed);

  const FeistelPermutation& pi(int t) const {
    REPRO_DCHECK(t >= 0 && t < 3);
    return pis_[static_cast<std::size_t>(t)];
  }

  std::uint64_t domain() const { return pis_[0].domain(); }

 private:
  std::array<FeistelPermutation, 3> pis_{};
};

}  // namespace repro::hash
